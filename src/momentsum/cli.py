"""Batch command-line front end: resummation, verification suites, CSV/JSON
emission.  One command per process; exit 0 on success, 1 on computation
error (with a JSON error object), 2 on config error."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path

from . import __version__
from .applications import MultiSumPlan, euler_solve, multisum, shift_laplace_check
from .carleman import (SequenceM, fit_class_constant, regular_sequence_facts)
from .errors import MomentSumError
from .extensions import TaylorField, dbar_measure
from .kernels import EntireE, KernelK, kernel_probe_csv, verify_kernel_lemma
from .transforms import FormalSeries, FunctionHandle, moment_sum
from .weights import (_FAMILIES, WeightSpec, gamma_hat_closed_log,
                      gamma_hat_numeric)

_COMMANDS = ("sum", "multisum", "kernel", "gammahat", "verify", "euler",
             "classes")

_BASE_KEYS = {"command", "weight", "weights", "out"}
_ALLOWED_KEYS = {
    "sum": _BASE_KEYS | {"series", "x", "tol"},
    "multisum": _BASE_KEYS | {"series", "x", "tol"},
    "kernel": _BASE_KEYS | {"t_min", "t_max", "n_points"},
    "gammahat": _BASE_KEYS | {"n"},
    "verify": _BASE_KEYS | {"suite"},
    "euler": _BASE_KEYS | {"operator", "series", "x", "tol"},
    "classes": _BASE_KEYS | {"class_tag", "function", "n_max"},
}
_KINDS = {"str": str, "float": (int, float), "int": int}  # an int is a float too


@dataclass
class RunConfig:
    """Schema-validated run description; unknown keys are rejected."""

    command: str
    weights: list = field(default_factory=list)
    series: str = "euler"
    x: float = 1.0
    tol: float = 1e-9
    n: int = 40
    t_min: float = 0.5
    t_max: float = 20.0
    n_points: int = 24
    suite: str = "kernel"
    operator: str = "1,1"
    class_tag: str = "A"
    function: str = "euler_function"
    n_max: int = 10
    out: str = ""

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        cmd = d.get("command")
        if cmd not in _COMMANDS:
            raise ValueError(f"unknown command {cmd!r}")
        unknown = set(d) - _ALLOWED_KEYS[cmd]
        if unknown:
            raise ValueError(f"unknown config keys for {cmd}: {sorted(unknown)}")
        cfg = RunConfig(command=cmd)
        w = d.get("weights", d.get("weight", []))
        cfg.weights = [w] if isinstance(w, str) else w
        if not isinstance(w, (str, list)) or \
                not all(isinstance(v, str) for v in cfg.weights):
            raise ValueError(f"config weights must be strings, got {w!r}")
        for f in fields(RunConfig)[2:]:        # after command and weights
            v = d.get(f.name, getattr(cfg, f.name))
            if isinstance(v, bool) or not isinstance(v, _KINDS[f.type]):
                raise ValueError(f"config key {f.name!r} must be of type "
                                 f"{f.type}, got {v!r}")
            setattr(cfg, f.name, v)
        return cfg

    def resolved(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


def parse_weight(text: str) -> WeightSpec:
    """family:key=value[,...] -> WeightSpec for a family of the table;
    ValueError (a config error) for anything else."""
    family, _, rest = text.partition(":")
    if family not in _FAMILIES:
        raise ValueError(f"unknown weight family {family!r} "
                         f"(choose from {', '.join(_FAMILIES)})")
    kwargs = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ValueError(f"malformed weight parameter {item!r}")
            kwargs[key.strip()] = int(val) if key.strip() == "k" else float(val)
    try:
        return getattr(WeightSpec, family)(**kwargs)
    except TypeError as exc:       # a missing or unknown parameter
        raise ValueError(f"weight {text!r}: {exc}") from exc


def parse_series(text: str, length: int = 24) -> tuple:
    """Returns (FormalSeries, continuation) for the named or file input."""
    if text == "euler":
        a = FormalSeries(tuple((-1) ** n * math.factorial(n)
                               for n in range(length)))
        return a, "pade"
    if text == "cauchy":
        a = FormalSeries((1,) * length)
        return a, "cauchy"
    if text.startswith("file:"):
        path = text[5:]
        a = FormalSeries.from_json(Path(path).read_text())
        return a, "pade"
    raise ValueError(f"unknown series {text!r} (euler|cauchy|file:PATH)")


def _header(cfg: RunConfig) -> str:
    return f"momentsum v{__version__} config: {json.dumps(cfg.resolved())}"


def _write_json(cfg: RunConfig, name: str, payload: dict):
    if not cfg.out:
        return None
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    payload = {"config": cfg.resolved(), **payload}
    path.write_text(json.dumps(payload, indent=2, default=float))
    return str(path)


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------

def _cauchy_continuation(w: WeightSpec) -> FunctionHandle:
    E = EntireE(w)
    return FunctionHandle(lambda t: E.eval(t).real if not isinstance(t, complex)
                          else E.eval(t),
                          growth_eta=1.0, growth_weight=w,
                          complex_capable=True, label="E")


def _cmd_sum(cfg: RunConfig) -> int:
    w = parse_weight(cfg.weights[0])
    a, continuation = parse_series(cfg.series)
    if continuation == "cauchy":
        continuation = _cauchy_continuation(w)
    res = moment_sum(a, w, cfg.x, continuation=continuation, tol=cfg.tol)
    print(f"{res.value:.12g} +- {res.abs_error_estimate:.3g}")
    _write_json(cfg, "sum.json", {"result": json.loads(res.to_json())})
    return 0


def _cmd_multisum(cfg: RunConfig) -> int:
    ws = [parse_weight(t) for t in cfg.weights]
    a, continuation = parse_series(cfg.series)
    if continuation == "cauchy":
        continuation = _cauchy_continuation(
            MultiSumPlan(ws).product_weight())
    plan = MultiSumPlan(ws, continuation=continuation, tol=cfg.tol)
    res = multisum(a, plan, cfg.x)
    print(f"{res.value:.12g} +- {res.abs_error_estimate:.3g}")
    _write_json(cfg, "multisum.json", {"result": json.loads(res.to_json())})
    return 0


def _cmd_kernel(cfg: RunConfig) -> int:
    import numpy as np
    w = parse_weight(cfg.weights[0])
    ts = np.geomspace(cfg.t_min, cfg.t_max, cfg.n_points)
    outdir = Path(cfg.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    path = kernel_probe_csv(w, ts, outdir / "kernel_probe.csv", _header(cfg))
    print(path)
    return 0


def _cmd_gammahat(cfg: RunConfig) -> int:
    w = parse_weight(cfg.weights[0])
    from scipy.special import gammaln
    rows = []
    for n in sorted({cfg.n, max(cfg.n // 2, 5), max(cfg.n // 4, 5)}):
        ent = gamma_hat_numeric(w, n)
        row = {"n": n, "log_numeric": ent.log_value,
               "argmax_rho": ent.argmax_rho, "mode": ent.mode}
        try:
            lc = gamma_hat_closed_log(w.family, w.pdict, n)
            row["log_closed"] = lc
            row["root_ratio"] = math.exp((ent.log_value - lc) / n)
        except MomentSumError:
            row["log_closed"] = None
        row["normalized_root"] = math.exp(
            (ent.log_value - gammaln(n + 1.0)) / n)
        rows.append(row)
    for r in rows:
        print(json.dumps(r, default=float))
    # CSV emission
    if cfg.out:
        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        path = outdir / "gammahat.csv"
        with open(path, "w") as fh:
            fh.write(f"# {_header(cfg)}\n")
            fh.write("n,log_numeric,log_closed,root_ratio,argmax_rho\n")
            for r in rows:
                fh.write(f"{r['n']},{r['log_numeric']:.9g},"
                         f"{'' if r['log_closed'] is None else format(r['log_closed'], '.9g')},"
                         f"{'' if r.get('root_ratio') is None else format(r['root_ratio'], '.6g')},"
                         f"{r['argmax_rho']:.6g}\n")
        print(path)
    return 0


def _verify_kernel_suite(w: WeightSpec):
    jobs = [("three_E", {"eta": 0.9}), ("K1_deriv", {"n_max": 6}),
            ("E_curve", {}), ("E_exp", {"k_range": (20, 45)})]
    results = [verify_kernel_lemma(name, w, **kw) for name, kw in jobs]
    return [(r.lemma, bool(r.stable), r.detail) for r in results]


def _verify_dbar_suite(w: WeightSpec):
    import cmath
    f = FunctionHandle(lambda z: cmath.exp(z), lambda z, n: cmath.exp(z),
                       complex_capable=True)
    tf = TaylorField.from_oracle(f, (0.0, 1.0), 12)
    checks = []
    ok = True
    for N in (2, 4, 6):
        z = 0.5 + 0.2j
        got = abs(dbar_measure(tf, z, N))
        envelope = 0.5 * math.e * 0.2 ** N / math.factorial(N)
        good = got <= envelope * 1.25
        ok = ok and good
        checks.append((f"dbar_N{N}", good, f"measured {got:.3e} <= {envelope:.3e}"))
    return checks


def _verify_shift_suite(w: WeightSpec):
    F = FunctionHandle(lambda t: 1.0 / (1.0 + t) if t >= 0 else 0.0)
    checks = []
    for a in (0.5, 1.0):
        for x in (0.3, 0.5):
            r = shift_laplace_check(F, a, w, x)
            checks.append((f"shift_a{a}_x{x}", r.rel_deviation < 1e-8,
                           f"rel dev {r.rel_deviation:.2e}"))
    return checks


def _verify_regular_suite(w: WeightSpec):
    M = SequenceM.from_moments(w)
    facts = regular_sequence_facts(M, n_max=80)
    return [("regular_facts",
             facts.C2 < 50 and facts.C3 < 1e3 and math.isfinite(facts.C4),
             f"C2={facts.C2:.3g} C3={facts.C3:.3g} C4={facts.C4:.3g} "
             f"slowly_varying={facts.slowly_varying}")]


def _cmd_verify(cfg: RunConfig) -> int:
    w = parse_weight(cfg.weights[0])
    suites = {"kernel": _verify_kernel_suite, "dbar": _verify_dbar_suite,
              "shift": _verify_shift_suite, "regular": _verify_regular_suite}
    if cfg.suite == "all":
        names = list(suites)
    elif cfg.suite in suites:
        names = [cfg.suite]
    else:
        raise ValueError(f"unknown suite {cfg.suite!r} "
                         f"(kernel|dbar|shift|regular|all)")
    all_ok = True
    report = []
    for name in names:
        if cfg.suite == "all" and name == "shift" and not w.classical:
            # the shift identity holds for the classical kernel e^-t only
            print(f"# shift: not applicable to {w.describe()}")
            report.append({"suite": name, "applicable": False})
            continue
        for item, ok, detail in suites[name](w):
            all_ok = all_ok and ok
            line = f"[{'PASS' if ok else 'FAIL'}] {name}/{item}: {detail}"
            print(line)
            report.append({"suite": name, "item": item, "pass": ok,
                           "detail": detail})
    _write_json(cfg, "verify.json", {"report": report, "all_pass": all_ok})
    return 0 if all_ok else 1


def _cmd_euler(cfg: RunConfig) -> int:
    w = parse_weight(cfg.weights[0])
    P = tuple(Fraction(v.strip()) for v in cfg.operator.split(","))
    if cfg.series.startswith("file:"):
        g = FormalSeries.from_json(Path(cfg.series[5:]).read_text())
    else:
        g = FormalSeries((0, 1) + (0,) * 19)
    sol = euler_solve(P, g, w, cfg.x, tol=cfg.tol)
    print(f"{sol.quadrature.value:.12g} +- "
          f"{sol.quadrature.abs_error_estimate:.3g}")
    _write_json(cfg, "euler.json", {
        "value": sol.quadrature.value,
        "abs_error_estimate": sol.quadrature.abs_error_estimate,
        "formal_series": json.loads(sol.series.to_json())})
    return 0


def _cmd_classes(cfg: RunConfig) -> int:
    w = parse_weight(cfg.weights[0])
    K = KernelK(w)
    if cfg.function == "euler_function":
        from .transforms import laplace_derivative_n, laplace_quadrature
        Fb = FunctionHandle(lambda t: 1.0 / (1.0 + t),
                            lambda t, n: (-1) ** n * math.factorial(n)
                            / (1.0 + t) ** (n + 1), growth_eta=0.0)
        f = FunctionHandle(
            lambda x: laplace_quadrature(Fb, K, x, tol=1e-10).value,
            lambda x, n: laplace_derivative_n(Fb, K, x, n, tol=1e-11),
            label="L[1/(1+t)]")
    elif cfg.function == "exp":
        f = FunctionHandle(lambda x: math.exp(x), lambda x, n: math.exp(x),
                           growth_eta=1.0, label="exp")
    else:
        raise ValueError(f"unknown function preset {cfg.function!r}")
    M = SequenceM.factorial_power(1.0)
    if cfg.class_tag == "B":
        Mgamma = SequenceM.from_moments(w)
        for n in range(cfg.n_max + 1):   # lazy: fail before the costly fit
            Mgamma.logM(n)
        N = SequenceM.gamma_hat_of(w)
        fit = fit_class_constant("B", f, M=Mgamma, N=N, eta=1.1,
                                 interval=(0.05, 0.5), n_max=cfg.n_max, n_min=1)
    else:
        fit = fit_class_constant(cfg.class_tag, f, M=M, N=M, weight=w,
                                 eta=1.1, interval=(0.0, 0.5),
                                 n_max=cfg.n_max)
    print(fit.to_json())
    _write_json(cfg, "classes.json", json.loads(fit.to_json()))
    return 0


_BODIES = {"sum": _cmd_sum, "multisum": _cmd_multisum, "kernel": _cmd_kernel,
           "gammahat": _cmd_gammahat, "verify": _cmd_verify,
           "euler": _cmd_euler, "classes": _cmd_classes}


def run(config: RunConfig) -> int:
    """Dispatch a validated config; returns the process exit code."""
    if config.command not in _BODIES:
        raise ValueError(f"unknown command {config.command!r}")
    if not config.weights:
        raise ValueError("a --weight is required")
    return _BODIES[config.command](config)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="momentsum",
        description="Moment (Borel-Laplace) summation toolkit")
    ap.add_argument("--config", help="JSON config file (overrides flags)")
    sub = ap.add_subparsers(dest="command")
    for cmd in _COMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("--weight", action="append", default=None,
                       help="family:key=value[,...]; repeat for multisum")
        p.add_argument("--out", default="", help="output directory")
        if cmd in ("sum", "multisum", "euler"):
            p.add_argument("--series", default="euler",
                           help="euler|cauchy|file:PATH")
            p.add_argument("--x", type=float, default=1.0)
            p.add_argument("--tol", type=float, default=1e-9)
        if cmd == "euler":
            p.add_argument("--operator", default="1,1",
                           help="comma-separated P coefficients, constant first")
        if cmd == "kernel":
            p.add_argument("--t-min", type=float, default=0.5, dest="t_min")
            p.add_argument("--t-max", type=float, default=20.0, dest="t_max")
            p.add_argument("--n-points", type=int, default=24, dest="n_points")
        if cmd == "gammahat":
            p.add_argument("--n", type=int, default=40)
        if cmd == "verify":
            p.add_argument("--suite", default="kernel",
                           help="kernel|dbar|shift|regular|all")
        if cmd == "classes":
            p.add_argument("--class-tag", default="A", dest="class_tag")
            p.add_argument("--function", default="euler_function")
            p.add_argument("--n-max", type=int, default=10, dest="n_max")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.config:
            cfg = RunConfig.from_dict(json.loads(Path(args.config).read_text()))
        else:
            if not args.command:
                ap.print_help()
                return 2
            d = {k: v for k, v in vars(args).items()
                 if v is not None and k != "config"}
            d["weights"] = d.pop("weight", None) or []
            cfg = RunConfig.from_dict(d)
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}),
              file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except (ValueError, KeyError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}),
              file=sys.stderr)
        return 2
    except (MomentSumError, OverflowError, ZeroDivisionError,
            FloatingPointError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
