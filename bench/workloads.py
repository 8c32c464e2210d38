"""Op generation, execution and checking for the four workloads.

``generate(workload, seed)`` returns the cycle of ops as plain data drawn
from the seed.  ``build_objects`` makes the weight and kernel objects a
workload shares across ops (the part of set-up a user also pays).
``prepare`` turns one op into a zero-argument call into momentsum, so that
only the program runs inside the timed region; ``outcome`` records what the
call returned or raised, and ``check`` applies the failure rule against the
reference from ``reference``.

Failure rule: an op fails when it raises (or, for CLI ops, exits non-zero)
unless a named MomentSumError is its expected outcome; when it returns a
value although a named error was expected; or when its value misses the
reference by more than tol * max(1, |ref|).
"""

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

import references as R
import spec

EULER_TERMS = 24


@dataclass
class Op:
    kind: str
    args: dict
    expect: str = "value"         # value | error | either | report
    tol: float = 1e-10
    digits: bool = True           # counts toward min_digits
    log_scale: bool = False       # value and reference are logs of the quantity

    @property
    def path(self):
        """exact or float: rational inputs under the classical weight take
        the Fraction paths of borel_coeffs, pade_continue and euler_solve's
        recursion; every other op runs in floats."""
        return "exact" if self.kind in ("sum_euler_a1", "euler_solve_a1") else "float"
    known: str = None             # KNOWN_FAILURES key when the kind is known bad


@dataclass
class Outcome:
    value: object = None
    error: str = None             # exception class name
    named: bool = False           # the exception is a MomentSumError
    est: float = None             # abs_error_estimate, when returned


@dataclass
class Verdict:
    failed: bool
    digits: float = None
    covered: bool = None
    detail: str = ""


@dataclass
class Ctx:
    """Objects a workload builds once and shares across its ops."""
    ms: object                    # the momentsum package
    objs: dict = field(default_factory=dict)


# -- generation ----------------------------------------------------------------

def _strata(rng, n, lo, hi, log=True, jitter=0.25):
    """n draws, one per equal slice of [lo, hi] (log-spaced when log), in
    random order, each within ``jitter`` of its slice around the slice's
    centre.  Every seed covers the whole range with different inputs, yet
    the share of draws on either side of a steep change (the Mellin floor,
    the E series cap) barely moves from seed to seed."""
    out = []
    for i in range(n):
        u = (i + 0.5 + jitter * (rng.random() - 0.5)) / n
        out.append(lo * (hi / lo) ** u if log else lo + (hi - lo) * u)
    rng.shuffle(out)
    return out


def _known(kind):
    return next((k for k, (kinds, _) in spec.KNOWN_FAILURES.items()
                 if kind in kinds.split()), None)


VERIFY_CONFIGS = [
    ("kernel", "gamma_power:alpha=1"), ("kernel", "gamma_power:alpha=2"),
    ("dbar", "gamma_power:alpha=1"), ("dbar", "gamma_power:alpha=2"),
    ("regular", "gamma_power:alpha=1"), ("regular", "gamma_power:alpha=2"),
    ("shift", "gamma_power:alpha=1"), ("shift", "gamma_power:alpha=2"),
    ("all", "gamma_power:alpha=2"), ("kernel", "iterated_log:k=1"),
]
VERIFY_KNOWN = {("all", "gamma_power:alpha=2"): "verify_all_exit1",
                ("kernel", "iterated_log:k=1"): "verify_iterated_log_exit2"}


def generate(workload, seed):
    """The workload's cycle of ops for this seed (deterministic)."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for kind, n in spec.WORKLOADS[workload][1].items():
        ops += _GENERATORS[workload](rng, kind, n)
    rng.shuffle(ops)
    return ops


def _gen_resum(rng, kind, n):
    expect = "error" if kind == "sum_euler_a2" else "value"
    return [Op(kind, {"x": x}, expect=expect, digits=expect == "value",
               known=_known(kind)) for x in _strata(rng, n, 0.1, 3.0)]


def _gen_multisum(rng, kind, n):
    if kind == "multisum_cauchy_2":
        return [Op(kind, {"x": x}, tol=1e-9)
                for x in _strata(rng, n, 0.1, 0.5)]
    stages = 3 if kind == "multisum_poly_3" else 2
    degs = [min(int(d), 20) for d in _strata(rng, n, 0, 21, log=False, jitter=1.0)] \
        if stages == 2 else [rng.randint(0, 2) for _ in range(n)]
    xs = _strata(rng, n, 0.1, 2.0) if stages == 2 else _strata(rng, n, 0.1, 0.5)
    return [Op(kind, {"coeffs": [rng.randint(-9, 9) for _ in range(d + 1)],
                      "x": x}, tol=1e-9 if stages == 2 else 1e-6)
            for d, x in zip(degs, xs)]


# EntireE.log_series_real stops at n_cap = 100000 terms; the series of
# gamma_power(3) peaks near n = 3 x^3, so past X_CAP the asymptotic formula
# answers instead
X_CAP = (100_000 / 3.0) ** (1.0 / 3.0)


# solve_saddle's bracket reaches 16 * 2**200 at most; saddles beyond it,
# where d/ds log gamma(s) = log z with z above this value, leak ValueError
_S_CAP = 16.0 * 2.0 ** 200
Z_LEAK = math.exp(math.log(math.log(_S_CAP)) + 1.0 / math.log(_S_CAP))


def _gen_kernel(rng, kind, n):
    if kind.startswith("mellin"):
        return [Op(kind, {"t": t}) for t in _strata(rng, n, 1e-2, 50.0)]
    if kind.startswith("asymptotic"):
        # leading-order saddle formula, error O(1/s): 10% allowed on |K|
        # for t >= 8 (the product kernel is 5.7% off at t = 8)
        return [Op(kind, {"t": t}, tol=0.1, digits=False, log_scale=True)
                for t in _strata(rng, n, 8.0, 50.0)]
    if kind == "entire3_log_eval_real":
        # split at the series cap so every seed has the same number past it
        below = (5 * n) // 8
        xs = _strata(rng, below, 1.0, 30.0) + _strata(rng, n - below, 34.0, 200.0)
        return [Op(kind, {"x": x}, log_scale=True,
                      known="entire_asymptotic_fallback" if x > X_CAP else None)
                for x in xs]
    if kind == "entire3_series":
        return [Op(kind, {"x": x}, tol=1e-12) for x in _strata(rng, n, 0.5, 8.0)]
    # Saddles on a fixed log grid over [10, 1e3], split at Z_LEAK: the
    # iterated_log error straddles the tolerance from one z to the next, so
    # seeded z would make its failure count a lottery.  A named error is
    # acceptable where s leaves the float range.
    below = (5 * n) // 8
    zs = [10.0 * (Z_LEAK / 1.05 / 10.0) ** ((i + 0.5) / below) for i in range(below)]
    zs += [Z_LEAK * 1.05 * (1e3 / Z_LEAK / 1.05) ** ((i + 0.5) / (n - below))
           for i in range(n - below)]
    return [Op(kind, {"z": z}, expect="either", known=_saddle_known(kind, z))
            for z in zs]


def _saddle_known(kind, z):
    if z > Z_LEAK:
        return "saddle_bracket_leak"
    return "saddle_numeric_eps" if kind == "saddle_iterated_log" else None


def _gen_verify(rng, kind, n):
    if kind == "cli_verify":
        return [Op(kind, {"suite": s, "weight": w}, expect="report", digits=False,
                   known=VERIFY_KNOWN.get((s, w)))
                for s, w in VERIFY_CONFIGS[:n]]
    if kind == "cli_classes":
        return [Op(kind, {"tag": tag, "alpha": a}, expect="report", tol=1e-8)
                for tag, a in [("A", 1), ("A", 2), ("B", 1), ("B", 2)][:n]]
    if kind == "cli_gammahat":
        alphas = [(0.5, 1, 2, 3)[i % 4] for i in range(n)]
        ns = [int(v) for v in _strata(rng, n, 10, 61, log=False)]
        return [Op(kind, {"alpha": a, "n": m}, expect="report", tol=1e-6)
                for a, m in zip(alphas, ns)]
    # Omega_1 rasters: a jittered 4x4 grid, off the boundary band of the disk
    ops = []
    for _ in range(n):
        pts = []
        for i in range(4):
            for j in range(4):
                while True:
                    z = complex(0.05 + 1.55 * (i + rng.random()) / 4,
                                -0.8 + 1.6 * (j + rng.random()) / 4)
                    if abs((1 / z).real - 1.0) > 0.15:
                        break
                pts.append([z.real, z.imag])
        ops.append(Op(kind, {"points": pts}, expect="report", digits=False))
    return ops


_GENERATORS = {"resum": _gen_resum, "multisum": _gen_multisum,
               "kernel": _gen_kernel, "verify": _gen_verify}


# -- references -------------------------------------------------------------------

def reference(op, refdata):
    """The independent reference for one op (mpmath numbers or plain data)."""
    a, k = op.args, op.kind
    if k in ("sum_euler_a1", "sum_euler_a05", "sum_euler_a2"):
        return R.euler_sum(a["x"])
    if k == "sum_gammahalf_a2":
        return R.gammahalf_sum(a["x"])
    if k.startswith("euler_solve"):
        return R.euler_solve_value(1 if k.endswith("a1") else 2, a["x"])
    if k.startswith("multisum_poly"):
        return R.poly_value(a["coeffs"], a["x"])
    if k == "multisum_cauchy_2":
        return R.cauchy_sum(a["x"])
    if k == "mellin_prod":
        return R.kernel_product_gp2(a["t"])
    if k.startswith("mellin"):
        return R.kernel(_ALPHA[k.split("_")[1]], a["t"])
    if k.startswith("asymptotic"):
        variant = k.split("_")[1]
        return mp.log(R.kernel_product_gp2(a["t"]) if variant == "prod"
                      else R.kernel(_ALPHA[variant], a["t"]))
    if k == "entire3_log_eval_real":
        return R.entire3_log(a["x"])
    if k == "entire3_series":
        return R.entire3_series(a["x"])
    if k.startswith("saddle"):
        return R.saddle(k.split("_", 1)[1], a["z"])
    if k == "cli_verify":
        alpha = 1 if a["weight"].endswith("alpha=1") else 2
        if a["suite"] == "dbar":
            return [R.dbar_exp(N) for N in (2, 4, 6)]
        if a["suite"] == "regular":
            return R.regular_facts(alpha)
        return None
    if k == "cli_classes":
        return refdata[f"classes/{a['tag']}/{a['alpha']}"]
    if k == "cli_gammahat":
        n = a["n"]
        return {m: (R.gamma_hat_log(a["alpha"], m),
                    R.gamma_hat_closed_log(a["alpha"], m))
                for m in {n, max(n // 2, 5), max(n // 4, 5)}}
    if k == "omega_raster":
        return [R.omega_member(complex(*p)) for p in a["points"]]
    raise KeyError(k)


_ALPHA = {"a05": 0.5, "a2": 2.0, "a3": 3.0}


# -- objects and calls -----------------------------------------------------------

def build_objects(workload, ms):
    """Weight and kernel objects the workload shares across its ops."""
    W = ms.WeightSpec
    objs = {}
    if workload == "resum":
        objs["w"] = {1: W.gamma_power(1), 0.5: W.gamma_power(0.5),
                     2: W.gamma_power(2)}
        objs["euler"] = ms.FormalSeries(tuple(
            Fraction((-1) ** n * math.factorial(n)) for n in range(EULER_TERMS)))
        objs["gammahalf"] = ms.FormalSeries(tuple(
            (-1) ** n * math.gamma(1 + n / 2) for n in range(EULER_TERMS)))
        objs["g"] = ms.FormalSeries(tuple([Fraction(0), Fraction(1)]
                                          + [Fraction(0)] * 19))
    elif workload == "multisum":
        objs["w2"] = W.gamma_power(2)
    elif workload == "kernel":
        w2 = W.gamma_power(2)
        prod = ms.MultiSumPlan([w2, w2]).product_weight()
        objs["K"] = {"a05": ms.KernelK(W.gamma_power(0.5)), "a2": ms.KernelK(w2),
                     "a3": ms.KernelK(W.gamma_power(3)), "prod": ms.KernelK(prod)}
        objs["E3"] = ms.EntireE(W.gamma_power(3))
        objs["saddle"] = {"log_power": W.log_power(1.0),
                          "iterated_log": W.iterated_log(1)}
    elif workload == "verify":
        import momentsum.cli  # noqa: F401  (the CLI is the verify workload's entry)
        objs["omega"] = ms.OmegaDomain(W.gamma_power(1), 1.0)
    return objs


def _run_cli(ms, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ms.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def prepare(op, ctx):
    """A zero-argument call that runs the op in momentsum.  Program inputs
    (series, plans, continuations) are built here, outside the timed call."""
    ms, o, a, k = ctx.ms, ctx.objs, op.args, op.kind
    if k.startswith("sum_"):
        series = o["gammahalf"] if k == "sum_gammahalf_a2" else o["euler"]
        w = o["w"][{"a1": 1, "a05": 0.5, "a2": 2}[k.rsplit("_", 1)[1]]]
        return lambda: ms.moment_sum(series, w, a["x"], tol=op.tol)
    if k.startswith("euler_solve"):
        w = o["w"][1 if k.endswith("a1") else 2]
        return lambda: ms.euler_solve((Fraction(1), Fraction(1)), o["g"], w,
                                      a["x"], tol=op.tol)
    if k.startswith("multisum"):
        w2 = o["w2"]
        if k == "multisum_cauchy_2":
            series = ms.FormalSeries(tuple(Fraction(1) for _ in range(EULER_TERMS)))
            wp = ms.MultiSumPlan([w2, w2]).product_weight()
            E = ms.EntireE(wp)
            cont = ms.FunctionHandle(
                lambda t: E.eval(t).real if not isinstance(t, complex) else E.eval(t),
                growth_eta=1.0, growth_weight=wp, complex_capable=True, label="E")
            plan = ms.MultiSumPlan([w2, w2], continuation=cont, tol=op.tol)
        else:
            series = ms.FormalSeries(tuple(Fraction(c) for c in a["coeffs"]))
            stages = 3 if k.endswith("_3") else 2
            plan = ms.MultiSumPlan([w2] * stages, continuation="poly", tol=op.tol)
        return lambda: ms.multisum(series, plan, a["x"])
    if k.startswith("mellin"):
        K = o["K"][k.split("_")[1]]
        return lambda: K.mellin(a["t"])
    if k.startswith("asymptotic"):
        K = o["K"][k.split("_")[1]]
        return lambda: K.asymptotic(a["t"])
    if k == "entire3_log_eval_real":
        return lambda: o["E3"].log_eval_real(a["x"])
    if k == "entire3_series":
        return lambda: o["E3"].series(a["x"])
    if k.startswith("saddle"):
        w = o["saddle"][k.split("_", 1)[1]]
        return lambda: ms.solve_saddle(w, a["z"])
    if k == "cli_verify":
        argv = ["verify", "--suite", a["suite"], "--weight", a["weight"]]
    elif k == "cli_classes":
        argv = ["classes", "--weight", f"gamma_power:alpha={a['alpha']}",
                "--class-tag", a["tag"]]
    elif k == "cli_gammahat":
        argv = ["gammahat", "--weight", f"gamma_power:alpha={a['alpha']}",
                "--n", str(a["n"])]
    elif k == "omega_raster":
        dom, pts = o["omega"], [complex(*p) for p in a["points"]]
        return lambda: [dom.membership(z) for z in pts]
    else:
        raise KeyError(k)
    return lambda: _run_cli(ms, argv)


def outcome(op, ms, result=None, exc=None):
    """What the op produced, reduced to plain data."""
    if exc is not None:
        return Outcome(error=type(exc).__name__,
                       named=isinstance(exc, ms.errors.MomentSumError))
    k = op.kind
    if hasattr(result, "quadrature"):               # EulerSolution
        result = result.quadrature
    if hasattr(result, "abs_error_estimate"):       # SummationResult
        return Outcome(float(result.value), est=float(result.abs_error_estimate))
    if k.startswith("mellin"):
        return Outcome(float(result[0]))
    if k.startswith("asymptotic"):
        return Outcome(float(result[1]))            # log |K|
    if k == "entire3_series":
        return Outcome(complex(result).real)
    if k.startswith("saddle"):
        return Outcome(complex(result.s_z).real)
    if k == "omega_raster":
        return Outcome([(m.member, m.inconclusive) for m in result])
    return Outcome(result)                          # CLI: (rc, stdout, stderr)


# -- checking ----------------------------------------------------------------------

def digits_of(value, ref, log_scale=False):
    """Correct significant digits of value against ref, clipped to [0, 16].
    For a log-scale value the digits are those of the quantity itself."""
    err = abs(mp.mpf(value) - ref)
    if err == 0:
        return 16.0
    scale = 1 if log_scale or ref == 0 else abs(ref)
    return float(min(16.0, max(0.0, -mp.log10(err / scale))))


def _close(value, ref, tol, log_scale=False):
    """The failure rule's tolerance test.  A log-scale value (log |K|,
    log E) is judged as its quantity: relative error tol, plus four ulps
    of the float log itself."""
    err = abs(mp.mpf(value) - ref)
    if log_scale:
        return err <= tol + 4 * 2.0 ** -52 * abs(ref)
    return err <= tol * max(1, abs(ref))


def check(op, out, ref, ms=None):
    """Apply the failure rule to one op's outcome."""
    if op.expect == "report":
        return _check_report(op, out, ref, ms)
    if out.error is not None:
        ok = out.named and op.expect in ("error", "either")
        return Verdict(not ok, detail=f"raised {out.error}")
    if op.expect == "error" or (op.expect == "either" and ref is None):
        return Verdict(True, detail="returned a value where a named error "
                                    "was expected")
    value = out.value
    ok = _close(value, ref, op.tol, op.log_scale)
    covered = None
    if out.est is not None:
        covered = bool(out.est >= abs(mp.mpf(value) - ref))
    return Verdict(not ok, digits_of(value, ref, op.log_scale) if op.digits else None,
                   covered, "" if ok else f"off by more than tol={op.tol:g}")


_ERROR_LINE = re.compile(r'^\{"error": "(\w+)"', re.M)


def _named_exit(ms, rc, err):
    """Exit 1 with a JSON error object naming a MomentSumError subclass."""
    m = _ERROR_LINE.search(err)
    cls = getattr(ms.errors, m.group(1), None) if m else None
    return rc == 1 and isinstance(cls, type) and issubclass(cls, ms.errors.MomentSumError)


def _check_report(op, out, ref, ms):
    """CLI output and membership rasters, checked field by field."""
    k, a = op.kind, op.args
    if out.error is not None:
        return Verdict(True, detail=f"raised {out.error}")
    if k == "omega_raster":
        bad = sum(1 for (member, inconclusive), want in zip(out.value, ref)
                  if inconclusive or member != want)
        return Verdict(bad > 0, detail=f"{bad} points disagree with Re(1/z) > 1")
    rc, stdout, stderr = out.value
    if k == "cli_verify":
        if a["suite"] == "shift" and a["weight"].endswith("alpha=2") \
                and _named_exit(ms, rc, stderr):
            return Verdict(False, detail="named error: classical-kernel check")
        if rc != 0:
            return Verdict(True, detail=f"exit {rc}")
        lines = [ln for ln in stdout.splitlines() if ln.startswith("[")]
        if not lines or any(not ln.startswith("[PASS]") for ln in lines):
            return Verdict(True, detail="a check did not pass")
        return Verdict(not _verify_numbers(a["suite"], stdout, ref),
                       detail="printed numbers vs closed forms")
    if rc != 0:
        return Verdict(True, detail=f"exit {rc}")
    if k == "cli_classes":
        fit = json.loads(stdout.splitlines()[0])
        ok = _close(fit["C"], ref["C"], op.tol) and all(
            _close(fit["per_n"][n], v, op.tol) for n, v in ref["per_n"].items())
        return Verdict(not ok, digits_of(fit["C"], ref["C"]))
    if k == "cli_gammahat":
        rows = [json.loads(ln) for ln in stdout.splitlines() if ln.startswith("{")]
        ok, digs = len(rows) == len(ref), []
        for row in rows:
            want, closed = ref.get(row["n"], (None, None))
            if want is None:
                return Verdict(True, detail=f"unexpected row n={row['n']}")
            ok = ok and _close(row["log_numeric"], want, op.tol) \
                and _close(row["log_closed"], closed, 1e-12)
            digs.append(digits_of(row["log_numeric"], want))
        return Verdict(not ok, min(digs) if digs else None)
    raise KeyError(k)


_NUM = r"([-+0-9.e]+)"


def _verify_numbers(suite, stdout, ref):
    """The numbers the dbar/regular/shift suites print, against closed forms
    at the precision they are printed with."""
    if suite == "dbar":
        got = re.findall(rf"measured {_NUM} <= {_NUM}", stdout)
        return len(got) == 3 and all(
            abs(float(m) - want_m) <= 2e-3 * want_m and
            abs(float(e) - want_e) <= 2e-3 * want_e
            for (m, e), (want_m, want_e) in zip(got, ref))
    if suite == "regular":
        got = re.search(rf"C2={_NUM} C3={_NUM} C4={_NUM}", stdout)
        return bool(got) and all(
            abs(float(g) - w) <= 5e-3 * max(mp.mpf(1), abs(w))
            for g, w in zip(got.groups(), ref))
    if suite == "shift":
        devs = re.findall(rf"rel dev {_NUM}", stdout)
        return len(devs) == 4 and all(float(d) < 1e-8 for d in devs)
    return True
