"""The entire function E, the moment kernel K, and their matched asymptotics.

K decays exactly as fast as E grows: both are governed by the same saddle
point, K ~ sqrt(s/(2 pi eps)) e^(-s eps) and zE ~ sqrt(2 pi s/eps) e^(s eps).
For the classical weight these collapse to e^-t and e^z; at alpha=2 the
canonical kernel is 2t e^(-t^2) (the literature's e^(-t^2) differs by the
polynomial prefactor) and E is the Mittag-Leffler function.
"""

import math

from scipy.special import gammaln

from momentsum import (EntireE, KernelK, WeightSpec, gamma_hat_closed_log,
                       gamma_hat_numeric)

w1 = WeightSpec.gamma_power(1.0)
w2 = WeightSpec.gamma_power(2.0)

print("E for the classical weight is exp:")
E1 = EntireE(w1)
for z in (1.0, 5.0):
    print(f"  E({z}) = {E1.series(z).real:.9f}   e^z = {math.exp(z):.9f}")

print("\nsaddle-point asymptotics of E vs the series (log scale):")
for z in (20.0, 60.0, 100.0):
    a = E1.asymptotic(z)
    print(f"  z={z:5.0f}  log E_asym = {a.log_abs:10.4f}   log e^z = {z:.1f}")

print("\nsaddle-point asymptotics of the kernel:")
k1, k2 = KernelK(w1), KernelK(w2)
for t in (20.0, 60.0):
    _, la, _ = k1.asymptotic(t)
    print(f"  alpha=1 t={t:4.0f}: log K_asym = {la:9.4f}   log e^-t = {-t:.1f}")
for t in (8.0, 15.0):
    _, la, _ = k2.asymptotic(t)
    print(f"  alpha=2 t={t:4.0f}: log K_asym = {la:10.4f}   "
          f"log 2t e^-t^2 = {math.log(2*t) - t*t:10.4f}")

print("\nMellin inversion on the saddle line (alpha=2, exact kernel 2t e^-t^2):")
for t in (0.7, 2.0, 20.0):
    v, err = k2.mellin(t)
    print(f"  t={t}: mellin={v:.10e}  exact={2*t*math.exp(-t*t):.10e}  "
          f"error estimate {err:.1e}")

print("\ncompanion sequence ghat_n = sup rho^n |gamma(i rho)| vs the closed "
      "table forms:")
for alpha in (1.0, 2.0):
    w = WeightSpec.gamma_power(alpha)
    for n in (20, 60):
        ent = gamma_hat_numeric(w, n)
        closed = gamma_hat_closed_log("gamma_power", {"alpha": alpha}, n)
        root = math.exp((ent.log_value - gammaln(n + 1.0)) / n)
        print(f"  alpha={alpha:.0f} n={n:3d}: (ghat/n!)^(1/n) = {root:.4f}  "
              f"table (2/pi)a = {2*alpha/math.pi:.4f}  "
              f"(numeric/closed)^(1/n) = "
              f"{math.exp((ent.log_value - closed)/n):.4f}")

print("\nthe growth/decay matching: log(t E(t) K(t)) stays O(log t):")
for t in (20.0, 50.0, 100.0):
    val = math.log(t) + E1.log_eval_real(t) + k1.log_abs(t)
    print(f"  t={t:5.0f}: log(t E K) = {val:.4f}")
