"""Iterated summation, the shift identity, and Euler-type operator
equations."""

from fractions import Fraction

from momentsum import (FormalSeries, MultiSumPlan, WeightSpec, euler_apply_P,
                       euler_solve, moment_sum, multisum, shift_laplace_check)
from momentsum.transforms import FunctionHandle

w1 = WeightSpec.gamma_power(1.0)
w2 = WeightSpec.gamma_power(2.0)

print("two-stage summation is the identity on polynomials:")
p = FormalSeries(tuple(Fraction(c) for c in (2, -1, 0, 3)))
plan = MultiSumPlan([w2, w2], continuation="poly")
r = multisum(p, plan, 0.4)
print(f"  plan (a=2, a=2): got {r.value:.10f}, exact {p.eval(0.4):.10f}")

print("\nthe resurgent shift identity L(tau_a F) = e^(-a/x) LF:")
F = FunctionHandle(lambda t: 1.0 / (1.0 + t) if t >= 0 else 0.0)
for a in (0.5, 1.0):
    rep = shift_laplace_check(F, a, w1, 0.4)
    print(f"  a={a}: lhs={rep.lhs:.10f} rhs={rep.rhs:.10f} "
          f"rel dev {rep.rel_deviation:.1e}")

print("\nEuler-type equation (1+V)f = x with V x^n = (n+1) x^(n+1):")
g = FormalSeries(tuple([Fraction(0), Fraction(1)] + [Fraction(0)] * 19))
sol = euler_solve((Fraction(1), Fraction(1)), g, w1, 0.3, tol=1e-11)
print("  formal solution:", [str(c) for c in sol.series.coeffs[:6]], "...")
resid = euler_apply_P((Fraction(1), Fraction(1)), sol.series, w1)
print("  residual P(V)f - g vanishes to degree 20:",
      all(resid[m] == (g[m] if m < len(g) else 0) for m in range(21)))
print(f"  quadrature path  f(0.3) = {sol.quadrature.value:.12f}")
formal = moment_sum(sol.series, w1, 0.3, tol=1e-11)
print(f"  resummed formal  f(0.3) = {formal.value:.12f}")

print("\nthe Cauchy identity through both stages (sum of all-ones series):")
from momentsum import EntireE
wp = MultiSumPlan([w2, w2]).product_weight()
E = EntireE(wp)
handle = FunctionHandle(lambda t: E.eval(t).real, growth_eta=1.0,
                        growth_weight=wp, label="E")
ones = FormalSeries(tuple(Fraction(1) for _ in range(8)))
for x in (0.3, 0.8):
    r = multisum(ones, MultiSumPlan([w2, w2], continuation=handle), x)
    print(f"  x={x}: {r.value:.9f}  (1/(1-x) = {1/(1-x):.9f})")
