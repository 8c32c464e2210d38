"""Sequence regularity, quasianalyticity, and class-constant fitting.

A Carleman class C^M is quasianalytic iff sum M_n/M_{n+1} diverges
(Denjoy-Carleman); the non-homogeneous classes pair a homogeneous envelope
with a scale-dependent one.  The fitted constants below are the witnesses
the inclusion theorems assert to exist.
"""

import math

from momentsum import (SequenceM, WeightSpec, check_regularity,
                       denjoy_carleman_classify, fit_class_constant,
                       regular_sequence_facts)
from momentsum.transforms import FunctionHandle

print("regularity (M_n = n! m_n; log-convexity of m, monotone m^{1/n}):")
for M in (SequenceM.factorial_power(1.0),
          SequenceM.factorial_times_log(1.0),
          SequenceM.from_gamma_hat("gamma_power", {"alpha": 1.0})):
    r = check_regularity(M, 80)
    tau = "inf" if r.tau_estimate == math.inf else f"{r.tau_estimate:.3f}"
    print(f"  {M.label:22s} regular={r.regular}  tau(M)={tau}  "
          f"log-convex from n={r.log_convex_from}")

print("\nDenjoy-Carleman classification:")
for M in (SequenceM.factorial_power(1.0), SequenceM.factorial_power(2.0),
          SequenceM.factorial_times_log(1.0)):
    sym = denjoy_carleman_classify(M).verdict
    num = denjoy_carleman_classify(M, "numeric").verdict
    print(f"  {M.label:22s} symbolic={sym:18s} numeric={num}")

print("\nsector criterion sum (M_n/M_{n+1})^(1+1/alpha), alpha=2, on "
      "n! log^2n:")
print("  ->", denjoy_carleman_classify(SequenceM.factorial_times_log(2.0),
                                       exponent=1.5).verdict)

print("\nclass-A constant for f = exp against M_n = n!, E-envelope:")
f = FunctionHandle(lambda t: math.exp(t), lambda t, n: math.exp(t),
                   growth_eta=1.0)
fit = fit_class_constant("A", f, M=SequenceM.factorial_power(1.0),
                         weight=WeightSpec.gamma_power(1.0), eta=1.1,
                         interval=(0.0, 3.0), n_max=8)
print("  per-n profile:", {n: round(c, 3) for n, c in fit.per_n.items()})

print("\ncomparability witnesses of regular sequences:")
for M in (SequenceM.factorial_times_log(1.0),
          SequenceM(lambda n: 2 * math.lgamma(n + 1), label="m=n!")):
    rf = regular_sequence_facts(M, n_max=100)
    print(f"  {M.label:22s} C2={rf.C2:.3f} C3={rf.C3:.3f} C4={rf.C4:.3f} "
          f"slowly varying: {rf.slowly_varying}")
