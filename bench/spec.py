"""What the benchmark measures: workloads, op mixes, known failures and
metric definitions.

Plain data only.  ``BENCHMARK.json`` at the repository root carries the
machine-checked subset (names, units, bounds) and ``test_bench.py`` keeps the
two in agreement; ``README.md`` records the prediction table and the Mellin
digit floor.
"""

LAYERS = ("weights", "kernels", "transforms", "applications", "carleman",
          "extensions", "cli")

# name -> (purpose sentence, {op kind: ops per cycle}, tail percentile, warm-up)
#
# A cycle is the list of ops generated from the seed; a run repeats whole
# cycles.  The tail percentile is fixed per workload so that it is the same
# on every run and falls inside one op kind's latencies rather than on the
# border between two kinds or on the single slowest op of a cycle, where
# scheduler noise decides it.  Each has at least ten ops beyond it at the
# run length the workload gets; the output reports the count.  Warm-up
# runs one untimed cycle first so that per-object caches are full and every
# timed cycle does identical work.
WORKLOADS = {
    "resum": (
        "Single-stage moment_sum and euler_solve at tol 1e-10: exact and "
        "float Pade plus Laplace quadrature against the closed-form kernel; "
        "no Mellin work.",
        {"sum_euler_a1": 8, "sum_euler_a05": 8, "sum_gammahalf_a2": 8,
         "sum_euler_a2": 8, "euler_solve_a1": 6, "euler_solve_a2": 6},
        95.0, True),
    "multisum": (
        "Nested applications.multisum: Laplace quadratures called from "
        "inside quadrature callbacks, 2 and 3 stages of gamma_power(2).",
        {"multisum_poly_2": 36, "multisum_cauchy_2": 6, "multisum_poly_3": 1},
        90.0, False),
    "kernel": (
        "K and E along the ray: Mellin, closed and asymptotic K, E of "
        "gamma_power(3) and saddle solves; no transforms work.",
        {"mellin_a05": 16, "mellin_a2": 16, "mellin_a3": 16, "mellin_prod": 16,
         "asymptotic_a2": 4, "asymptotic_a3": 4, "asymptotic_prod": 4,
         "entire3_log_eval_real": 8, "entire3_series": 8,
         "saddle_log_power": 8, "saddle_iterated_log": 8},
        99.0, True),
    "verify": (
        "In-process cli.main for verify, classes and gammahat plus "
        "Omega_1 membership rasters: the only workload that measures "
        "carleman, extensions and the cli layer.",
        {"cli_verify": 10, "cli_classes": 4, "cli_gammahat": 12,
         "omega_raster": 16},
        95.0, True),
}

# Op kinds whose failure is a defect of the program known when the
# benchmark was written.  They stay in the mix; a failing op of a listed
# kind counts against ok_frac (and fail_frac) but not as an unexpected
# failure.  An op passes again on its own once the defect is fixed.
KNOWN_FAILURES = {
    "euler_alpha05_tol_miss": (
        "sum_euler_a05",
        "Euler series under gamma_power(0.5): float Pade extrapolation; "
        "error 1.1e-6 at x=0.3 against a claimed 7.9e-11, above tol 1e-10 "
        "(abs_error_estimate covers quadrature only)."),
    "euler_alpha2_radius_zero": (
        "sum_euler_a2",
        "Euler series under gamma_power(2): n!/Gamma(1+n/2) has Borel "
        "radius zero, so a named error is expected; a value 1.3e-8 off at "
        "x=0.3 and 9e-4 off at x=3 is returned instead."),
    "saddle_bracket_leak": (
        "saddle_log_power saddle_iterated_log (z above ~141)",
        "solve_saddle doubles its bracket at most 200 times (~1e61) and the "
        "1e300 guard never fires, so brentq leaks a ValueError where the "
        "saddle lies beyond ~1e61."),
    "saddle_numeric_eps": (
        "saddle_iterated_log",
        "iterated_log has no analytic eps: the central difference with "
        "h_rel=1e-6 leaves its saddle ~1e-8 relative off, above tol 1e-10."),
    "entire_asymptotic_fallback": (
        "entire3_log_eval_real (x above ~32)",
        "EntireE.log_series_real stops at n_cap=100000 terms, so for "
        "gamma_power(3) past x~32 log_eval_real falls back to the "
        "leading-order saddle formula: E is 1e-5 relative off at x=50 and "
        "2e-7 at x=200."),
    "verify_iterated_log_exit2": (
        "cli_verify",
        "verify --suite kernel --weight iterated_log:k=1 exits 2: the "
        "solve_saddle ValueError reaches the CLI's config-error handler."),
    "verify_all_exit1": (
        "cli_verify",
        "verify --suite all --weight gamma_power:alpha=2 exits 1: the shift "
        "suite raises DomainError where it should report not applicable."),
}

# name -> (unit, better, bound).  The timing bounds are wide because the
# shared host slows whole runs by 10-20% for minutes at a time; setup_s,
# measured in fresh interpreters, gets the widest.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.24),
    "latency_p50_ms": ("ms", "lower", 0.24),
    "latency_tail_ms": ("ms", "lower", 0.24),
    "ok_frac": ("ratio", "higher", 0.02),
    "min_digits": ("digits", "higher", 0.15),
    "err_covered_frac": ("ratio", "higher", 0.05),
}

# Traced functions whose calls and self time are reported.  Span names are
# "<module>.<function>" and "<module>.<class alias>.<method>".
TRACED_STATS = {
    "kernels.mellin": ("calls", "self_s"),
    "kernels.eval": ("calls", "self_s"),
    "kernels.asymptotic": ("self_s",),
    "kernels.entire.log_eval_real": ("self_s",),
    "kernels.entire.series": ("self_s",),
    "kernels.verify_kernel_lemma": ("self_s",),
    "kernels.omega.membership": ("self_s",),
    "weights.solve_saddle": ("self_s",),
    "weights.log_gamma": ("calls",),
    "weights.moment_log": ("calls",),
    "weights.gamma_hat_numeric": ("self_s",),
    "transforms.pade_continue": ("calls", "self_s"),
    "transforms.laplace_quadrature": ("calls", "self_s"),
    "transforms.borel_coeffs": ("self_s",),
    "transforms.laplace_derivative_n": ("self_s",),
    "applications.multisum": ("self_s",),
    "applications.euler_solve": ("self_s",),
    "carleman.fit_class_constant": ("self_s",),
    "carleman.regular_sequence_facts": ("self_s",),
    "extensions.dbar_measure": ("calls", "self_s"),
    "cli.main": ("self_s",),
}

# Traced functions whose exact-rational and float paths are reported apart,
# from the path tag of the op that called them.
PATH_SPLIT = {
    "transforms.pade_continue": ("calls", "self_s"),
    "transforms.borel_coeffs": ("self_s",),
}
PATHS = ("exact", "float")

# Derived per-layer ratios: name -> unit.
DERIVED = {
    "kernels.mellin.weight_evals_per_call": "count",
    "transforms.pade.accept_ratio": "ratio",
    "transforms.laplace_quadrature.neval": "count",
    "applications.multisum.laplace_calls_per_op": "count",
    "trace.overhead_frac": "ratio",
}

UNITS = {"calls": "count", "self_s": "s", "errors": "count",
         "warnings": "count"}


def per_layer_metrics():
    """Ordered (name, unit) list of every per-layer metric."""
    out = [(f"{fn}.{stat}", UNITS[stat])
           for fn, stats in TRACED_STATS.items() for stat in stats]
    out += [(f"{fn}.{path}.{stat}", UNITS[stat]) for fn, stats in PATH_SPLIT.items()
            for path in PATHS for stat in stats]
    out += list(DERIVED.items())
    out += [(f"{layer}.{stat}", "count") for layer in LAYERS
            for stat in ("errors", "warnings")]
    return out
