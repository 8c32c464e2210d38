"""The analyticity domain Omega_eta = {z : sup_t E(t eta)|K(t/z)| < inf}.

For the classical weight this is F. Nevanlinna's disk |2 eta z - 1| < 1,
i.e. Re(1/z) > eta; at alpha = 2 it deforms to {Re(1/z^2) >= eta^2}.  The
membership test probes the product on a log grid of t and extrapolates the
tail trend, reporting near-flat trends as inconclusive.
"""

import numpy as np

from momentsum import OmegaDomain, WeightSpec

w1 = WeightSpec.gamma_power(1.0)
dom = OmegaDomain(w1, eta=1.0)

print("classical weight, eta = 1 (disk |z - 1/2| < 1/2):")
for z in (0.4, 0.9, -0.1, 0.2 + 0.3j, 0.2 + 0.45j):
    m = dom.membership(z)
    rule = (1.0 / z).real > 1.0
    print(f"  z={z!s:12s} member={str(m.member):5s} disk rule={rule}  "
          f"tail slope {m.tail_slope:+.2f}")

print("\nagreement with the disk rule on a 40x40 grid "
      "(5% boundary band excluded):")
xs = np.linspace(-1, 1, 40)
agree = total = 0
for x in xs:
    for y in xs:
        z = complex(x, y)
        if abs(z) < 1e-9 or abs(abs(z - 0.5) - 0.5) < 0.05:
            continue
        total += 1
        agree += int(dom.membership(z).member == ((1.0 / z).real > 1.0))
print(f"  {agree}/{total} = {agree/total:.2%}")

print("\nalpha = 2 sector-like domain {Re(1/z^2) >= 1}:")
dom2 = OmegaDomain(WeightSpec.gamma_power(2.0), eta=1.0)
for z in (0.45, 0.45 + 0.1j, 0.45 + 0.4j, 1.2):
    m = dom2.membership(z)
    inside = abs(z) > 0 and (z ** -2).real >= 1.0
    print(f"  z={z!s:12s} member={str(m.member):5s} analytic rule={inside}")
