"""Batch command-line front end: resummation, verification suites, CSV/JSON
emission.  One command per process; exit 0 on success, 1 on computation
error (with a JSON error object), 2 on config error."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import namedtuple
from dataclasses import field, make_dataclass
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
_PRESET_TERMS = 24           # coefficients of the euler and cauchy series
_PARSED_WEIGHTS = 16         # weight specs kept, each with its kernel table


@functools.lru_cache(maxsize=_PARSED_WEIGHTS)
def parse_weight(text: str) -> WeightSpec:
    """family:key=value[,...] -> WeightSpec for a family of the table;
    ValueError (a config error) for anything else.  Cached: calls with one
    spec string share one instance, and with it the weight's moment cache
    and kernel table."""
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


def parse_series(text: str) -> tuple:
    """Returns (FormalSeries, continuation) for the named or file input."""
    if text == "euler":
        a = FormalSeries(tuple((-1) ** n * math.factorial(n)
                               for n in range(_PRESET_TERMS)))
        return a, "pade"
    if text == "cauchy":
        a = FormalSeries((1,) * _PRESET_TERMS)
        return a, "cauchy"
    if text.startswith("file:"):
        path = text[5:]
        a = FormalSeries.from_json(Path(path).read_text())
        return a, "pade"
    raise ValueError(f"unknown series {text!r} (euler|cauchy|file:PATH)")


def parse_operator(text: str) -> tuple:
    """Comma-separated P coefficients, constant first, as Fractions;
    ValueError (a config error) for a zero denominator or a value outside
    the float range."""
    try:
        P = tuple(Fraction(v.strip()) for v in text.split(","))
    except ZeroDivisionError:
        raise ValueError(f"operator {text!r} has a zero denominator") from None
    try:
        for p in P:
            float(p)
    except OverflowError:
        raise ValueError(f"operator {text!r} has a coefficient outside the "
                         "float range") from None
    return P


def _header(cfg: RunConfig) -> str:
    return f"momentsum v{__version__} config: {json.dumps(cfg.resolved())}"


def _out_path(cfg: RunConfig, name: str) -> Path:
    """The file name in the --out directory (the working directory when
    unset), which it creates."""
    outdir = Path(cfg.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir / name


def _write_json(cfg: RunConfig, name: str, payload: dict):
    if cfg.out:
        _out_path(cfg, name).write_text(json.dumps(
            {"config": cfg.resolved(), **payload}, indent=2, default=float))


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
    path = kernel_probe_csv(w, ts, _out_path(cfg, "kernel_probe.csv"),
                            _header(cfg))
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
        path = _out_path(cfg, "gammahat.csv")
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
    jobs = [("three_E", {"eta": 0.9}), ("K1_deriv", {}), ("E_curve", {}),
            ("E_exp", {})]
    results = [verify_kernel_lemma(name, w, **kw) for name, kw in jobs]
    return [(r.lemma, bool(r.stable), r.detail) for r in results]


def _verify_dbar_suite(w: WeightSpec):
    import cmath
    f = FunctionHandle(lambda z: cmath.exp(z), lambda z, n: cmath.exp(z),
                       complex_capable=True)
    tf = TaylorField.from_oracle(f, (0.0, 1.0), 12)
    checks = []
    for N in (2, 4, 6):
        z = 0.5 + 0.2j
        got = abs(dbar_measure(tf, z, N))
        envelope = 0.5 * math.e * 0.2 ** N / math.factorial(N)
        good = got <= envelope * 1.25
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


_SUITES = {"kernel": _verify_kernel_suite, "dbar": _verify_dbar_suite,
           "shift": _verify_shift_suite, "regular": _verify_regular_suite}


def _cmd_verify(cfg: RunConfig) -> int:
    w = parse_weight(cfg.weights[0])
    names = list(_SUITES) if cfg.suite == "all" else [cfg.suite]
    all_ok = True
    report = []
    for name in names:
        if cfg.suite == "all" and name == "shift" and not w.classical:
            # the shift identity holds for the classical kernel e^-t only
            print(f"# shift: not applicable to {w.describe()}")
            report.append({"suite": name, "applicable": False})
            continue
        for item, ok, detail in _SUITES[name](w):
            all_ok = all_ok and ok
            line = f"[{'PASS' if ok else 'FAIL'}] {name}/{item}: {detail}"
            print(line)
            report.append({"suite": name, "item": item, "pass": ok,
                           "detail": detail})
    _write_json(cfg, "verify.json", {"report": report, "all_pass": all_ok})
    return 0 if all_ok else 1


def _cmd_euler(cfg: RunConfig) -> int:
    w = parse_weight(cfg.weights[0])
    P = parse_operator(cfg.operator)
    if cfg.series.startswith("file:"):
        g = parse_series(cfg.series)[0]
    elif cfg.series == "euler":
        g = FormalSeries((0, 1) + (0,) * 19)     # g = x
    else:
        raise ValueError(f"unknown series {cfg.series!r} for euler "
                         "(euler|file:PATH)")
    sol = euler_solve(P, g, w, cfg.x, tol=cfg.tol)
    print(f"{sol.quadrature.value:.12g} +- "
          f"{sol.quadrature.abs_error_estimate:.3g}")
    _write_json(cfg, "euler.json", {
        "value": sol.quadrature.value,
        "abs_error_estimate": sol.quadrature.abs_error_estimate,
        "formal_series": json.loads(sol.series.to_json())})
    return 0


def _euler_function(w: WeightSpec) -> FunctionHandle:
    """L[1/(1+t)] against the weight's kernel, its derivatives under the
    integral: f at tol 1e-10 and f^(n) at 1e-11, for arrays of (x, n) in
    one call."""
    import numpy as np
    from scipy.special import gamma

    from .transforms import laplace_derivative_n
    K = KernelK(w)
    w.moment_log(0)   # fail on mu_0 before the costly fit, as class B
    Fb = FunctionHandle(lambda t: 1.0 / (1.0 + t),
                        lambda t, n: (-1.0) ** n * gamma(n + 1.0)
                        / (1.0 + t) ** (n + 1), growth_eta=0.0)
    return FunctionHandle(
        lambda x: laplace_derivative_n(Fb, K, x, 0, tol=1e-10),
        lambda x, n: laplace_derivative_n(
            Fb, K, x, n, tol=np.where(n == 0, 1e-10, 1e-11)),
        label="L[1/(1+t)]")


_FUNCTIONS = {"euler_function": _euler_function,
              "exp": lambda w: FunctionHandle(math.exp,
                                              lambda x, n: math.exp(x),
                                              growth_eta=1.0, label="exp")}


def _cmd_classes(cfg: RunConfig) -> int:
    w = parse_weight(cfg.weights[0])
    f = _FUNCTIONS[cfg.function](w)
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
    return _BODIES[config.command](config)


# ---------------------------------------------------------------------------
# options
# ---------------------------------------------------------------------------

_SUMS = ("sum", "multisum", "euler")
_FINITE = ("finite", lambda v: -math.inf < v < math.inf)
_POSITIVE = ("finite and > 0", lambda v: 0 < v < math.inf)
_COUNT = (">= 1", lambda v: v >= 1)


def _one_of(*values) -> tuple:
    return "|".join(values), values.__contains__


# one option: its config key (the flag is --key, - for _), type, default,
# help text, the commands that take it, and its valid range or values as
# (text, test), None for any value, or a dict of these by command
_Option = namedtuple("_Option", "name type default help commands valid",
                     defaults=(_COMMANDS, None))


# the weights a command takes: one, but one per stage in multisum
_WEIGHT_COUNTS = {**dict.fromkeys(_COMMANDS, ("one weight",
                                               lambda v: len(v) == 1)),
                  "multisum": ("one weight or more, one per stage", bool)}


# the order is that of RunConfig's fields, which every output header prints;
# weights (the flag is --weight, once per weight) comes first, after the
# command
_OPTIONS = (
    _Option("weights", list, [], "family:key=value[,...]",
            valid=_WEIGHT_COUNTS),
    _Option("series", str, "euler", "euler|cauchy|file:PATH; euler takes "
            "euler (g = x) or file:PATH", _SUMS),
    _Option("x", float, 1.0, "point of evaluation", _SUMS, _FINITE),
    _Option("tol", float, 1e-9, "quadrature tolerance", _SUMS, _POSITIVE),
    _Option("n", int, 40, "largest gamma-hat index", ("gammahat",), _COUNT),
    _Option("t_min", float, 0.5, "first probe point", ("kernel",), _POSITIVE),
    _Option("t_max", float, 20.0, "last probe point", ("kernel",), _POSITIVE),
    _Option("n_points", int, 24, "geometric probe points", ("kernel",),
            _COUNT),
    _Option("suite", str, "kernel", "verification suite", ("verify",),
            _one_of(*_SUITES, "all")),
    _Option("operator", str, "1,1",
            "comma-separated P coefficients, constant first", ("euler",)),
    _Option("class_tag", str, "A", "Carleman class", ("classes",),
            _one_of("A", "B", "C", "D")),
    _Option("function", str, "euler_function", "function preset",
            ("classes",), _one_of(*_FUNCTIONS)),
    _Option("n_max", int, 10, "largest derivative order", ("classes",),
            _COUNT),
    _Option("out", str, "", "output directory"),
)
_KINDS = {str: str, float: (int, float), int: int,    # an int is a float too
          list: list}


def _valid(o: _Option, cmd: str):
    """The (text, test) of o's valid range under cmd, None for any value."""
    return o.valid.get(cmd) if isinstance(o.valid, dict) else o.valid


def _config_value(d: dict, o: _Option):
    """o's value in the config dict d, its default when absent.  The one
    list, weights, is a list of strings, which the key "weight" may also
    give as one string."""
    if o.type is not list:
        return d.get(o.name, o.default)
    v = d.get(o.name, d.get("weight", o.default))
    v = [v] if isinstance(v, str) else v
    if not isinstance(v, list) or not all(isinstance(w, str) for w in v):
        raise ValueError(f"config key {o.name!r} must be a list of strings, "
                         f"got {v!r}")
    return list(v)


def _from_dict(d: dict):
    """The RunConfig of a config dict.  ValueError for an unknown command
    or key, and for a value of the wrong type or outside its range."""
    if not isinstance(d, dict):
        raise ValueError(f"a config is a JSON object, got {d!r}")
    cmd = d.get("command")
    if cmd not in _COMMANDS:
        raise ValueError(f"unknown command {cmd!r}")
    options = [o for o in _OPTIONS if cmd in o.commands]
    unknown = set(d) - {"command", "weight"} - {o.name for o in options}
    if unknown:
        raise ValueError(f"unknown config keys for {cmd}: {sorted(unknown)}")
    values = {}
    for o in options:
        v = values[o.name] = _config_value(d, o)
        if isinstance(v, bool) or not isinstance(v, _KINDS[o.type]):
            raise ValueError(f"config key {o.name!r} must be of type "
                             f"{o.type.__name__}, got {v!r}")
        valid = _valid(o, cmd)
        if valid is not None and not valid[1](v):
            raise ValueError(f"option {o.name!r} must be {valid[0]}, "
                             f"got {v!r}")
    return RunConfig(cmd, **values)


RunConfig = make_dataclass(
    "RunConfig",
    [("command", str)] + [(o.name, o.type, field(default_factory=list)
                            if o.type is list else o.default)
                           for o in _OPTIONS],
    namespace={
        "__doc__": "Schema-validated run description; unknown keys are "
                   "rejected.",
        "__module__": __name__,
        "from_dict": staticmethod(_from_dict),
        "resolved": lambda self: dict(self.__dict__)})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged.  It
    sets no defaults: an option not given is left to RunConfig."""
    ap = argparse.ArgumentParser(
        prog="momentsum",
        description="Moment (Borel-Laplace) summation toolkit")
    ap.add_argument("--config", help="JSON config file (overrides flags)")
    sub = ap.add_subparsers(dest="command")
    for cmd in _COMMANDS:
        p = sub.add_parser(cmd)
        for o in (o for o in _OPTIONS if cmd in o.commands):
            valid = _valid(o, cmd)
            text = o.help + ("" if valid is None else f"; {valid[0]}")
            if o.type is list:
                p.add_argument("--weight", action="append", dest=o.name,
                               metavar="WEIGHT", help=text)
            else:
                p.add_argument("--" + o.name.replace("_", "-"), type=o.type,
                               dest=o.name,
                               help=f"{text} (default {o.default!r})")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if not (args.config or args.command):
        ap.print_help()
        return 2
    try:
        if args.config:
            cfg = RunConfig.from_dict(json.loads(Path(args.config).read_text()))
        else:
            cfg = RunConfig.from_dict({k: v for k, v in vars(args).items()
                                       if v is not None and k != "config"})
        return run(cfg)
    except (ValueError, KeyError, OSError) as exc:
        # OSError: a --config, --series or --out path it cannot use
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
