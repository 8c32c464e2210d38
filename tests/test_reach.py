"""Every def in src/momentsum is reached by a CLI command, or is on
ALLOWLIST with the reason it stays.

SHARDS fresh interpreters, side by side, run the sweep under a profile
hook (sys.setprofile and threading.setprofile): ``cli.main`` over every
command on the weights below.  The demos are not callers: CI runs them, but
a def that only a demo reaches is reached by no command.  Fresh,
because in a process that ran other tests the kernel tables and the shared
product weight would answer calls the sweep must make itself.  A call is keyed by its code
object's (co_filename, co_firstlineno), where a decorated def starts at its
first decorator; the parent walks each module's defs with ``ast`` and keys
them the same way.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from momentsum import errors

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "momentsum"

WEIGHTS = ["gamma_power:alpha=0.5", "gamma_power:alpha=1",
           "gamma_power:alpha=2", "gamma_power:alpha=3", "iterated_log:k=1",
           "log_power:alpha=1", "loglog_power:beta=1",
           "exp_logpower:alpha=0.5", "exp_log_over_loglog:alpha=1"]
# every command on every weight
PER_WEIGHT = [["sum"], ["multisum", "--weight", "gamma_power:alpha=2",
                        "--series", "cauchy", "--x", "0.3"],
              ["kernel", "--n-points", "4"], ["gammahat"],
              ["verify", "--suite", "all"], ["euler"],
              ["classes", "--class-tag", "A"], ["classes", "--class-tag", "B"]]
# on gamma_power(1): the inputs that do not depend on the weight; {series}
# is a file: series
ONCE = [["sum", "--series", "{series}"], ["euler", "--series", "{series}"],
        ["classes", "--class-tag", "C"], ["classes", "--class-tag", "D"],
        ["classes", "--function", "exp"]]
SHARDS = 2

ALLOWLIST = {
    "applications.Transseries.__post_init__":
        "transseries: waits for its caller, a verify suite with an oracle",
    "applications._taylor_eval_deriv":
        "transseries: waits for its caller, a verify suite with an oracle",
    "applications.transseries_decompose":
        "transseries: waits for its caller, a verify suite with an oracle",
    "applications.transseries_synthesize_jets":
        "transseries: waits for its caller, a verify suite with an oracle",
    "transforms.borel_contour":
        "contour Borel transform: waits for its caller, a verify suite",
    "transforms.borel_contour.Ew": "inside borel_contour",
    "transforms.borel_contour.integrand": "inside borel_contour",
    "transforms.borel_contour.arc_part": "inside borel_contour",
    "transforms.borel_contour.ray_part": "inside borel_contour",
    "transforms.remainder_Rn":
        "the reference that tests compare class D's remainders against",
    "applications.euler_apply_P":
        "the reference that tests compare euler_solve's series against",
    "transforms.FormalSeries.eval":
        "the reference that tests compare polynomial sums against",
    "carleman.check_regularity":
        "direction 2's applicability verdict: log-convex moments",
    "carleman._holds_from": "inside check_regularity",
    "carleman.denjoy_carleman_classify":
        "direction 2's applicability verdict: quasianalyticity",
    "carleman._symbolic_divergence": "inside denjoy_carleman_classify",
    "carleman.SequenceM.factorial_times_log":
        "direction 2's applicability verdict: the quasianalytic sequences "
        "it is tested on",
    "kernels.OmegaDomain.__post_init__":
        "bench verify op omega_raster, and direction 8's complex-x check",
    "kernels.OmegaDomain.membership":
        "bench verify op omega_raster, and direction 8's complex-x check",
    "kernels.EntireE.series": "bench kernel op entire3_series",
    "weights._log_abs_of":
        "custom-weight hook: log |K| of a user kernel",
    "weights._log_abs_of.log_abs_K":
        "custom-weight hook: log |K| of a user kernel",
    "weights.gamma_hat_numeric.f":
        "custom-weight hook: the asymptotic gamma-hat of a real-only "
        "weight (WeightSpec.custom(complex_capable=False)); the other "
        "nested f, for complex arguments, is reached",
}


@functools.cache
def defs():
    """{(file, first line): "module.qualified.name"} for every def of the
    package; a decorated def starts at its first decorator."""
    out = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in child.decorator_list]
                           + [child.lineno])
                name = prefix + child.name
                out[(path, line)] = name
                walk(child, name + ".", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", path)
            else:
                walk(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem + ".", str(path))
    return out


SWEEP = r"""
import contextlib, io, json, os, sys, threading

# the dependencies load before the hook, which need only see the package
import numpy
import scipy.integrate, scipy.optimize, scipy.special

seen = {}


def hook(frame, event, arg):
    if event == "call":
        seen[id(frame.f_code)] = frame.f_code


sys.setprofile(hook)
threading.setprofile(hook)
import momentsum
from momentsum.cli import main

argvs, report = sys.argv[1:3]
exits = []
for argv in json.loads(argvs):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        exits.append((argv, main(argv), err.getvalue()))
sys.setprofile(None)
threading.setprofile(None)
package = os.path.dirname(momentsum.__file__)
with open(report, "w") as fh:
    json.dump({"exits": exits,
               "reached": sorted({(c.co_filename, c.co_firstlineno)
                                  for c in seen.values()
                                  if os.path.dirname(c.co_filename)
                                  == package})}, fh)
"""


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """(exits, reached): (argv, exit code, stderr) of each command, and the
    (file, first line) of each package code object called.  The commands
    are dealt to SHARDS processes that run side by side."""
    tmp = tmp_path_factory.mktemp("reach")
    series = tmp / "series.json"
    series.write_text(json.dumps({"coeffs": ["1", "-1", "2", "-6", "24"],
                                  "exact": True}))
    # one group of commands per weight, dealt whole: the costly ones
    # (verify on gamma_power(3), classes on iterated_log(1)) then land in
    # different shards
    groups = [[[cmd, "--weight", w, "--out", str(tmp)]
               + [a.format(series=f"file:{series}") for a in args]
               for cmd, *args in cmds]
              for w, cmds in [(w, PER_WEIGHT) for w in WEIGHTS]
              + [("gamma_power:alpha=1", ONCE)]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))
    procs = [(subprocess.Popen(
        [sys.executable, "-c", SWEEP, json.dumps(sum(groups[k::SHARDS], [])),
         str(tmp / f"reach{k}.json")],
        cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True), tmp / f"reach{k}.json") for k in range(SHARDS)]
    exits, reached = [], set()
    try:
        for proc, report in procs:
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            data = json.loads(report.read_text())
            exits += data["exits"]
            reached |= {tuple(k) for k in data["reached"]}
    finally:
        for proc, _ in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    return exits, reached


def test_sweep_exits_0_or_names_its_error(sweep):
    # a command that fails with a named MomentSumError still reached its code
    for argv, code, err in sweep[0]:
        assert code in (0, 1), (argv, err)
        if code == 1:
            name = json.loads(err.strip().splitlines()[-1])["error"]
            assert issubclass(getattr(errors, name), errors.MomentSumError), \
                (argv, err)


def test_every_def_is_reached_or_allowlisted(sweep):
    unreached = sorted(name for key, name in defs().items()
                       if key not in sweep[1] and name not in ALLOWLIST)
    assert not unreached, ("no command reaches these defs: delete "
                           f"them or allowlist them with a reason: {unreached}")


def test_allowlist_names_unreached_defs(sweep):
    # an entry whose def was deleted, or that a command now reaches, goes
    unreached = {name for key, name in defs().items() if key not in sweep[1]}
    assert set(ALLOWLIST) <= unreached, sorted(set(ALLOWLIST) - unreached)
