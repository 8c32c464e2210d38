"""Weight families, their slowly varying profiles, and the saddle machinery.

Every weight gamma carries L(s) = gamma(s)^(1/s) and eps(s) = s L'(s)/L(s);
admissibility is four conditions on eps, and the solution of
log L(s) + eps(s) = log z drives all the large-z asymptotics.
"""

import math

from momentsum import WeightSpec, eval_eps, solve_saddle

families = [
    WeightSpec.gamma_power(1.0),          # mu_n = n!, eps -> 1
    WeightSpec.gamma_power(2.0),          # mu_n = Gamma(1+n/2), eps -> 1/2
    WeightSpec.log_power(1.0),            # (log s)^s, eps ~ 1/log s
    WeightSpec.exp_logpower(0.5),         # exp(s sqrt(log s))
    WeightSpec.iterated_log(1),           # Beurling: log^n(n+e)
]

print("eps profiles (the limit < 2 is the admissibility ceiling):")
for w in families:
    eps = [float(eval_eps(w, s).real) for s in (1e2, 1e4, 1e6)]
    print(f"  {w.describe():28s} eps(1e2,1e4,1e6) = "
          + ", ".join(f"{e:.4f}" for e in eps))

print("\nsample values: gamma_power(1) at s=5 ->",
      math.exp(families[0].log_gamma(5)))
print("               log_power(1)   at s=10 ->",
      round(math.exp(families[2].log_gamma(10)), 2), "= (log 10)^10")

print("\nsaddle points of log L + eps = log z (classical weight: s_z ~ z):")
w = families[0]
for z in (10.0, 100.0, 1000.0):
    sp = solve_saddle(w, z)
    print(f"  z={z:7.0f}  s_z = {sp.s_z.real:9.3f}  residual {sp.residual:.1e}")
