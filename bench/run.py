#!/usr/bin/env python3
"""The momentsum benchmark.

    python3 bench/run.py --workload resum --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The seed generates the workload's cycle of ops; references come from
closed forms and mpmath before timing starts.  One caller runs whole
cycles, one op at a time, until ``--seconds`` have passed, and every result
is checked against its reference.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced cycle as a baseline and then traced cycles, prints the per-layer
metrics with the tracing overhead, and writes the spans to
``bench/out/trace-<workload>-<seed>.jsonl``.  Human-readable lines come
first; the last line of standard output is one JSON object.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5

# the benchmark's own directory is sys.path[0]
import references  # noqa: E402
import spec  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def _setup_probe(workload):
    """Child process: time importing momentsum and building the workload's
    objects in a fresh interpreter; print the seconds."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import momentsum
    import momentsum.cli  # noqa: F401
    import momentsum.extensions  # noqa: F401
    wl.build_objects(workload, momentsum)
    print(time.perf_counter() - t0)


def measure_setup(workload):
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def environment():
    """The defaults the run uses, recorded with the metrics."""
    import numpy
    import scipy
    threads_env = os.environ.pop("MOMENTSUM_THREADS", None)
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "threads": threading.active_count(),
        "MOMENTSUM_THREADS": "unset" if threads_env is None
        else f"unset for the run (was {threads_env})",
        "warning_filters": "default" if not sys.warnoptions
        else f"-W {sys.warnoptions}",
    }


def run_cycle(ops, ctx, outcomes, latencies, tracer=None):
    """One pass over the cycle; only the call into momentsum is timed."""
    ms = ctx.ms
    for i, op in enumerate(ops):
        call = wl.prepare(op, ctx)
        if tracer is not None:
            tracer.op, tracer.path = i, op.path
        result = exc = None
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as e:          # recorded and judged by the failure rule
            exc = e
        latencies.append(time.perf_counter() - t0)
        outcomes.append(wl.outcome(op, ms, result, exc))


def judge(ops, refs, outcomes, ms):
    """Verdicts for every outcome (cycles repeat the op list in order)."""
    return [wl.check(ops[i % len(ops)], out, refs[i % len(ops)], ms)
            for i, out in enumerate(outcomes)]


def nearest_rank(sorted_vals, p):
    idx = max(0, math.ceil(p / 100.0 * len(sorted_vals)) - 1)
    return sorted_vals[idx], len(sorted_vals) - idx - 1


def accuracy(ops, verdicts):
    """fail counts, ok_frac, min_digits and err_covered_frac, with per-kind
    detail for the report.  min_digits is the worst op kind's mean digits
    over the ops that passed; failed ops count in ok_frac instead."""
    per_kind = defaultdict(lambda: {"n": 0, "failed": 0, "digits": [],
                                    "known": set()})
    known = defaultdict(int)
    for i, v in enumerate(verdicts):
        op = ops[i % len(ops)]
        k = per_kind[op.kind]
        k["n"] += 1
        if not v.failed:
            if v.digits is not None:
                k["digits"].append(v.digits)
        else:
            k["failed"] += 1
            if op.known:
                known[op.known] += 1
                k["known"].add(op.known)
    n = len(verdicts)
    failed = sum(k["failed"] for k in per_kind.values())
    kind_digits = {kind: statistics.fmean(k["digits"])
                   for kind, k in per_kind.items() if k["digits"]}
    covered = [v.covered for v in verdicts if v.covered is not None]
    return {
        "failed": failed, "unexpected": failed - sum(known.values()),
        "known": dict(known), "ok_frac": 1.0 - failed / n, "fail_frac": failed / n,
        "min_digits": min(kind_digits.values(), default=16.0),
        "min_digits_kind": min(kind_digits, key=kind_digits.get, default=None),
        "min_digits_op": min((d for k in per_kind.values() for d in k["digits"]),
                             default=16.0),
        "err_covered_frac": sum(covered) / len(covered) if covered else 1.0,
        "err_covered_n": len(covered),
        "per_kind": per_kind, "kind_digits": kind_digits,
    }


def report_kinds(ops, latencies, acc):
    lat = defaultdict(list)
    for i, t in enumerate(latencies):
        lat[ops[i % len(ops)].kind].append(t * 1e3)
    paths = {op.kind: op.path for op in ops}
    print(f"# {'op kind':24s} {'path':5s} {'ops':>6s} {'p50 ms':>9s} {'max ms':>9s} "
          f"{'failed':>7s} {'digits':>6s}  known failure")
    for kind, k in sorted(acc["per_kind"].items()):
        d = acc["kind_digits"].get(kind)
        print(f"# {kind:24s} {paths[kind]:5s} {k['n']:6d} "
              f"{statistics.median(lat[kind]):9.3f} "
              f"{max(lat[kind]):9.3f} {k['failed']:7d} "
              f"{'' if d is None else format(d, '.2f'):>6s}  "
              f"{' '.join(sorted(k['known']))}")


def timed_run(workload, ops, refs, ctx, seconds, setup_s):
    outcomes, latencies = [], []
    cycles = 0
    start = time.perf_counter()
    while True:
        run_cycle(ops, ctx, outcomes, latencies)
        cycles += 1
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    verdicts = judge(ops, refs, outcomes, ctx.ms)
    acc = accuracy(ops, verdicts)
    lat = sorted(latencies)
    p = spec.WORKLOADS[workload][2]
    tail, beyond = nearest_rank(lat, p)
    n = len(latencies)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": n / wall,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "ok_frac": acc["ok_frac"],
        "min_digits": acc["min_digits"],
        "err_covered_frac": acc["err_covered_frac"],
    }
    report_kinds(ops, latencies, acc)
    print(f"# timed: {cycles} cycles of {len(ops)} ops = {n} ops in {wall:.2f} s "
          f"(closed loop, 1 caller)")
    print(f"# latency_tail_ms is p{p:g}: {beyond} of {n} ops beyond it")
    print(f"# fail_frac {acc['fail_frac']:.6f} ({acc['failed']} of {n}); "
          f"unexpected {acc['unexpected']}; known: "
          + (", ".join(f"{k} {v}" for k, v in sorted(acc["known"].items())) or "none"))
    print(f"# min_digits {acc['min_digits']:.3f} = mean digits of the worst op kind "
          f"({acc['min_digits_kind']}); fewest digits of any single op "
          f"{acc['min_digits_op']:.3f}")
    if acc["err_covered_n"] == 0:
        print("# err_covered_frac: no op of this workload returns "
              "abs_error_estimate; reported as 1.0")
    else:
        print(f"# err_covered_frac over {acc['err_covered_n']} ops with an estimate")
    return metrics, n, acc


def traced_run(workload, ops, refs, ctx, seconds, seed):
    outcomes, latencies = [], []
    t0 = time.perf_counter()
    run_cycle(ops, ctx, outcomes, latencies)
    base = time.perf_counter() - t0
    tr = Tracer()
    tr.install(ctx.ms, spec.LAYERS)
    passes = 0
    try:
        with tr.record_warnings():
            start = time.perf_counter()
            while True:
                run_cycle(ops, ctx, outcomes, latencies, tracer=tr)
                passes += 1
                if time.perf_counter() - start >= seconds:
                    break
            traced = (time.perf_counter() - start) / passes
    finally:
        tr.uninstall()
    verdicts = judge(ops, refs, outcomes, ctx.ms)
    acc = accuracy(ops, verdicts)

    def calls(name):
        return tr.stats.get(name, [0, 0.0])[0] / passes

    metrics = {}
    for fn, stats in spec.TRACED_STATS.items():
        calls_total, self_total = tr.stats.get(fn, [0, 0.0])
        for stat in stats:
            metrics[f"{fn}.{stat}"] = calls_total / passes if stat == "calls" \
                else self_total / passes

    for fn, stats in spec.PATH_SPLIT.items():
        for path in spec.PATHS:
            calls_total, self_total = tr.by_path.get((path, fn), [0, 0.0])
            for stat in stats:
                metrics[f"{fn}.{path}.{stat}"] = calls_total / passes \
                    if stat == "calls" else self_total / passes

    def ratio(num, den):
        return num / den if den else 0.0

    c = tr.counts
    metrics["kernels.mellin.weight_evals_per_call"] = ratio(
        c["kernels.mellin>weights.log_gamma"] / passes, calls("kernels.mellin"))
    metrics["transforms.pade.accept_ratio"] = ratio(
        c["pade.accepted"] / passes, calls("transforms.pade_continue"))
    metrics["transforms.laplace_quadrature.neval"] = c["laplace.neval"] / passes
    metrics["applications.multisum.laplace_calls_per_op"] = ratio(
        c["applications.multisum>transforms.laplace_quadrature"] / passes,
        calls("applications.multisum"))
    metrics["trace.overhead_frac"] = traced / base - 1.0
    for layer in spec.LAYERS:
        metrics[f"{layer}.errors"] = tr.errors[layer] / passes
        metrics[f"{layer}.warnings"] = tr.warnings[layer] / passes

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"trace-{workload}-{seed}.jsonl")
    tr.write(path, {"workload": workload, "seed": seed, "passes": passes,
                    "ops_per_pass": len(ops)})
    top = sorted(((s[1], s[0], name) for name, s in tr.stats.items() if s[0]),
                 reverse=True)[:15]
    print(f"# traced: {passes} passes of {len(ops)} ops; untraced pass {base:.3f} s, "
          f"traced pass {traced:.3f} s (overhead {metrics['trace.overhead_frac']:+.1%})")
    print("# top self time per pass:")
    for self_s, n_calls, name in top:
        print(f"#   {name:45s} {self_s / passes:10.4f} s {n_calls / passes:12.1f} calls")
    print(f"# spans written to {os.path.relpath(path, ROOT)} "
          f"({len(tr.spans)} kept, {tr.dropped} beyond the cap)")
    print(f"# fail_frac {acc['fail_frac']:.6f}; unexpected failures {acc['unexpected']}")
    return metrics, len(outcomes), acc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return _setup_probe(args.setup_probe)
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "momentsum", "__init__.py")):
        sys.exit("momentsum sources not found under src/: run the benchmark "
                 "from the root of a checkout of the repository")

    env = environment()
    setup_s, setup_all = measure_setup(args.workload)
    sys.path.insert(0, SRC)
    import momentsum as ms
    import momentsum.cli  # noqa: F401

    ctx = wl.Ctx(ms, wl.build_objects(args.workload, ms))
    ops = wl.generate(args.workload, args.seed)
    t0 = time.perf_counter()
    refdata = references.load_refdata()
    refs = [wl.reference(op, refdata) for op in ops]
    ref_s = time.perf_counter() - t0
    purpose, _, _, warm = spec.WORKLOADS[args.workload]
    print(f"# momentsum benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# {purpose}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# setup_s runs: {' '.join(f'{t:.4f}' for t in setup_all)}; "
          f"references for {len(ops)} ops in {ref_s:.2f} s (not timed)")
    if warm:
        run_cycle(ops, ctx, [], [])
    if args.trace:
        metrics, attempted, acc = traced_run(args.workload, ops, refs, ctx,
                                             args.seconds, args.seed)
        units = dict(spec.per_layer_metrics())
    else:
        metrics, attempted, acc = timed_run(args.workload, ops, refs, ctx,
                                            args.seconds, setup_s)
        units = {k: v[0] for k, v in spec.END_TO_END.items()}
    for name, value in metrics.items():
        print(f"# {name:48s} {value:16.6g} {units[name]}")
    print(json.dumps({
        "correct": acc["unexpected"] == 0, "attempted": attempted,
        "failed": acc["unexpected"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
