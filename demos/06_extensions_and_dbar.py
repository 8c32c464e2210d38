"""Almost-holomorphic extensions off an interval.

P_N extends f off the interval from its Taylor jets at the projection; its
dbar-defect is controlled by the jet envelope and shrinks like dist^N.
"""

import cmath
import math

from momentsum import TaylorField, dbar_measure, taylor_extension_PN
from momentsum.transforms import FunctionHandle

f = FunctionHandle(lambda z: cmath.exp(z), lambda z, n: cmath.exp(z),
                   complex_capable=True)
tf = TaylorField.from_oracle(f, (0.0, 1.0), 12)

z = 0.5 + 0.2j
print("Taylor extension of exp off J=[0,1] at z =", z)
for N in (0, 2, 6, 10):
    p = taylor_extension_PN(tf, z, N)
    print(f"  N={N:2d}: P_N(z) = {p:.8f}   |P_N - e^z| = "
          f"{abs(p - cmath.exp(z)):.2e}")

print("\nthe dbar defect decays like dist^N (telescoping to the N+1 jet):")
for N in (1, 3, 5, 8):
    got = abs(dbar_measure(tf, z, N))
    tele = 0.5 * math.exp(0.5) * 0.2 ** N / math.factorial(N)
    print(f"  N={N}: |dbar P_N| = {got:.3e}   (1/2)|f^(N+1)| dist^N/N! = "
          f"{tele:.3e}")
