"""Self-tests of the benchmark: the failure rule, the generator, the
references, the tracer's counts and the contract in BENCHMARK.json.

    python3 -m pytest -q -p no:cacheprovider bench/test_bench.py
"""

import ast
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import momentsum as ms  # noqa: E402
import momentsum.cli  # noqa: E402,F401
import references as R  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run_ops(workload, ops, tracer=None):
    """Outcomes of one cycle of ops on freshly built objects, optionally
    traced, through the benchmark's own loop."""
    ctx = W.Ctx(ms, W.build_objects(workload, ms))
    outcomes = []
    if tracer is not None:
        tracer.install(ms, spec.LAYERS)
    try:
        run.run_cycle(ops, ctx, outcomes, [], tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outcomes


# -- the failure rule ------------------------------------------------------------

def test_result_1e6_off_its_reference_fails():
    op = W.Op("sum_euler_a1", {"x": 0.3})
    ref = W.reference(op, None)
    assert not W.check(op, W.Outcome(float(ref), est=1e-13), ref).failed
    assert W.check(op, W.Outcome(float(ref) + 1e-6, est=1e-13), ref).failed


def test_expected_named_error_succeeds():
    op = W.Op("sum_euler_a2", {"x": 0.3}, expect="error")
    ref = W.reference(op, None)
    assert not W.check(op, W.Outcome(error="DomainError", named=True), ref).failed
    # an unnamed exception is not the expected outcome
    assert W.check(op, W.Outcome(error="ValueError", named=False), ref).failed


def test_value_where_named_error_expected_fails():
    op = W.Op("sum_euler_a2", {"x": 0.3}, expect="error")
    ref = W.reference(op, None)
    assert W.check(op, W.Outcome(float(ref)), ref).failed


def test_cli_named_exit_and_leaked_exit_2():
    ok = W.Op("cli_verify", {"suite": "shift", "weight": "gamma_power:alpha=2"},
              expect="report")
    named = (1, "", '{"error": "DomainError", "message": "m"}\n')
    assert not W.check(ok, W.Outcome(named), None, ms).failed
    leaked = (2, "", '{"error": "config", "message": "f(a) and f(b)"}\n')
    assert W.check(ok, W.Outcome(leaked), None, ms).failed


def test_known_failures_of_the_seed_are_labelled():
    for workload in spec.WORKLOADS:
        for op in W.generate(workload, 7):
            assert op.known is None or op.known in spec.KNOWN_FAILURES


# -- the generator ---------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    a, b, c = (W.generate(workload, s) for s in (3, 3, 4))
    assert a == b
    assert a != c
    assert len(a) == sum(spec.WORKLOADS[workload][1].values())


# -- references -------------------------------------------------------------------

def test_references_do_not_use_the_program():
    with open(os.path.join(HERE, "references.py")) as fh:
        tree = ast.parse(fh.read())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in (node.names if isinstance(node, ast.Import)
                              else [ast.alias(node.module or "")])}
    assert "momentsum" not in imported
    assert "mpmath" in imported


def test_reference_values():
    # e^{1/x} E1(1/x) / x at x = 0.3
    assert abs(R.euler_sum(0.3) - R.mp.mpf("0.8011862796963766")) < 1e-15
    # the E series of gamma_power(3) against its Mittag-Leffler closed form
    assert abs(R.mp.log(R.entire3_series(2.5)) - R.entire3_log(2.5)) < 1e-25
    # the product kernel integrates to mu_0 mu_0 = 1 and has mean Gamma(3/2)^2
    m0 = R.mp.quad(R.kernel_product_gp2, [0, 1, R.mp.inf])
    m1 = R.mp.quad(lambda t: t * R.kernel_product_gp2(t), [0, 1, R.mp.inf])
    assert abs(m0 - 1) < 1e-20 and abs(m1 - R.mp.gamma(1.5) ** 2) < 1e-20


def test_refdata_matches_its_generator():
    stored = R.load_refdata()
    fresh = json.loads(json.dumps(R.build_refdata()))
    for key, value in fresh.items():
        assert abs(stored[key]["C"] - value["C"]) <= 1e-14 * value["C"]


# -- the tracer --------------------------------------------------------------------

def _traced_counts(workload, ops):
    tr = Tracer(span_cap=0)
    _run_ops(workload, ops, tr)
    return tr


def test_traced_counts_repeat_exactly():
    resum = [op for op in W.generate("resum", 5) if op.kind == "sum_euler_a1"][:2]
    two_stage = [op for op in W.generate("multisum", 5)
                 if op.kind == "multisum_poly_2"][:1]
    mellin = [op for op in W.generate("kernel", 5) if op.kind == "mellin_a2"][:3]
    for workload, ops in (("resum", resum), ("multisum", two_stage),
                          ("kernel", mellin)):
        a, b = _traced_counts(workload, ops), _traced_counts(workload, ops)
        assert {k: v[0] for k, v in a.stats.items()} == \
            {k: v[0] for k, v in b.stats.items()}
        assert a.counts == b.counts
        assert {k: v[0] for k, v in a.by_path.items()} == \
            {k: v[0] for k, v in b.by_path.items()}
    # the named ratios are measured where the work happens
    tr = _traced_counts("resum", resum)
    assert tr.stats["transforms.pade_continue"][0] > tr.counts["pade.accepted"] > 0
    assert tr.by_path[("exact", "transforms.pade_continue")][0] == \
        tr.stats["transforms.pade_continue"][0]
    tr = _traced_counts("multisum", two_stage)
    assert tr.counts["applications.multisum>transforms.laplace_quadrature"] > 1
    tr = _traced_counts("kernel", mellin)
    assert tr.counts["kernels.mellin>weights.log_gamma"] > 100 * len(mellin)


def test_tracer_patches_aliases_and_restores_them():
    original = ms.transforms.laplace_quadrature
    tr = Tracer()
    tr.install(ms, spec.LAYERS)
    try:
        assert ms.applications.laplace_quadrature is ms.transforms.laplace_quadrature
        assert ms.cli.moment_sum is ms.transforms.moment_sum
        assert ms.transforms.laplace_quadrature.__wrapped__ is original
    finally:
        tr.uninstall()
    assert ms.transforms.laplace_quadrature is original
    assert ms.applications.laplace_quadrature is original


def test_layer_errors_count_exceptions_leaving_the_layer():
    op = W.Op("saddle_log_power", {"z": 900.0}, expect="either")
    tr = _traced_counts("kernel", [op])
    assert tr.errors["weights"] == 1          # brentq's ValueError leaks


# -- the contract -----------------------------------------------------------------

def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert bench["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]} == spec.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        spec.per_layer_metrics()


def test_run_fails_without_the_program():
    bare = os.path.join(HERE, "out", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "resum", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
