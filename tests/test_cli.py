import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentsum import cli, errors
from momentsum.cli import RunConfig, main, parse_series, parse_weight, run

EULER_SUM_X1 = 0.59634736232319407


def _run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_weight_flag(self):
        w = parse_weight("gamma_power:alpha=2")
        assert w.family == "gamma_power" and w.pdict["alpha"] == 2.0
        w = parse_weight("iterated_log:k=2")
        assert w.pdict["k"] == 2

    def test_weight_flag_errors(self):
        with pytest.raises(ValueError):
            parse_weight("nope:alpha=1")
        with pytest.raises(ValueError):
            parse_weight("gamma_power:alpha")

    @pytest.mark.parametrize("spec", ["describe", "custom", "to_json",
                                      "gamma_power", "gamma_power:beta=1"])
    def test_weight_flag_accepts_only_table_families(self, capsys, spec):
        # a name that is not a family, or a missing parameter, is a config
        # error (exit 2 with a message), not a traceback
        with pytest.raises(ValueError):
            parse_weight(spec)
        code, _, err = _run_main(capsys, ["sum", "--weight", spec])
        assert code == 2
        msg = json.loads(err.strip().splitlines()[-1])
        assert msg["error"] == "config" and spec.split(":")[0] in msg["message"]

    def test_series_presets(self):
        a, cont = parse_series("euler")
        assert a.coeffs[3] == -6 and cont == "pade"
        a, cont = parse_series("cauchy")
        assert all(c == 1 for c in a.coeffs) and cont == "cauchy"
        with pytest.raises(ValueError):
            parse_series("nope")

    def test_series_file(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text('{"coeffs": ["1", "2"], "exact": true}')
        a, _ = parse_series(f"file:{p}")
        assert a.coeffs == (1, 2)

    @pytest.mark.parametrize("text", [
        '[1, 2]', '{"coeffs": [1, null]}', '{"coeffs": "12"}',
        '{"coeffs": []}', '{"coeffs": [1, NaN]}',
        '{"coeffs": ["1", "1/0"], "exact": true}'],
        ids=["list", "null", "string", "empty", "nan", "zero_denominator"])
    def test_series_file_rejects_malformed_coeffs(self, capsys, tmp_path,
                                                   text):
        # each command that reads a series file exits 2 with a config error
        p = tmp_path / "s.json"
        p.write_text(text)
        for cmd in ("sum", "multisum", "euler"):
            code, out, err = _run_main(capsys, [
                cmd, "--weight", "gamma_power:alpha=1", "--series",
                f"file:{p}", "--x", "0.5"])
            assert (code, out) == (2, "")
            assert json.loads(err)["error"] == "config"

    def test_config_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"command": "sum", "weight": "x", "bogus": 1})
        with pytest.raises(ValueError):
            RunConfig.from_dict({"command": "nope"})

    @pytest.mark.parametrize("command", cli._COMMANDS)
    def test_flags_leave_the_defaults_to_the_config(self, monkeypatch,
                                                    command):
        # the parser declares no default: what it leaves unset is the
        # option table's default, as in a config file
        seen = []
        monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg) or 0)
        assert main([command, "--weight", "gamma_power:alpha=1"]) == 0
        assert seen == [RunConfig.from_dict(
            {"command": command, "weight": "gamma_power:alpha=1"})]


class TestCommands:
    def test_sum_euler(self, capsys):
        code, out, _ = _run_main(capsys, ["sum", "--weight",
                                          "gamma_power:alpha=1",
                                          "--series", "euler", "--x", "1.0"])
        assert code == 0
        value = float(out.split()[0])
        assert abs(value - EULER_SUM_X1) < 1e-6

    def test_sum_writes_json_with_config(self, capsys, tmp_path):
        code, _, _ = _run_main(capsys, ["sum", "--weight",
                                        "gamma_power:alpha=1",
                                        "--series", "euler", "--x", "1.0",
                                        "--out", str(tmp_path)])
        assert code == 0
        d = json.loads((tmp_path / "sum.json").read_text())
        assert d["config"]["command"] == "sum"
        assert abs(d["result"]["value"] - EULER_SUM_X1) < 1e-6

    def test_gammahat_csv_header(self, capsys, tmp_path):
        code, out, _ = _run_main(capsys, ["gammahat", "--weight",
                                          "gamma_power:alpha=1", "--n", "40",
                                          "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "gammahat.csv").read_text().splitlines()
        assert lines[0].startswith("# momentsum")       # embedded config
        assert lines[1].startswith("n,log_numeric")

    def test_verify_kernel_suite(self, capsys):
        code, out, _ = _run_main(capsys, ["verify", "--suite", "kernel",
                                          "--weight", "gamma_power:alpha=1"])
        assert code == 0
        assert "[PASS] kernel/three_E" in out
        assert "[FAIL]" not in out

    def test_euler_command(self, capsys):
        code, out, _ = _run_main(capsys, ["euler", "--weight",
                                          "gamma_power:alpha=1",
                                          "--operator", "1,1", "--x", "0.3"])
        assert code == 0
        assert float(out.split()[0]) == pytest.approx(0.19881372, abs=1e-6)

    def test_multisum_command(self, capsys, tmp_path):
        p = tmp_path / "poly.json"
        p.write_text('{"coeffs": ["1", "2", "3"], "exact": true}')
        code, out, _ = _run_main(capsys, [
            "multisum", "--weight", "gamma_power:alpha=2",
            "--weight", "gamma_power:alpha=2",
            "--series", f"file:{p}", "--x", "0.3"])
        assert code == 0
        assert float(out.split()[0]) == pytest.approx(1.87, abs=1e-6)

    def test_classes_command(self, capsys):
        code, out, _ = _run_main(capsys, ["classes", "--weight",
                                          "gamma_power:alpha=1",
                                          "--class-tag", "B",
                                          "--n-max", "6"])
        assert code == 0
        d = json.loads(out.splitlines()[0])
        assert d["class"] == "B" and d["C"] > 0

    def test_kernel_command(self, capsys, tmp_path):
        code, out, _ = _run_main(capsys, ["kernel", "--weight",
                                          "gamma_power:alpha=1",
                                          "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "kernel_probe.csv").exists()


class TestExitCodes:
    def test_config_error_is_2(self, capsys):
        code, _, err = _run_main(capsys, ["sum", "--weight", "bogus:a=1",
                                          "--series", "euler"])
        assert code == 2
        assert json.loads(err)["error"] == "config"

    def test_computation_error_is_1(self, capsys):
        # growth tag incompatible with the kernel at x >= 1
        code, _, err = _run_main(capsys, ["sum", "--weight",
                                          "gamma_power:alpha=1",
                                          "--series", "cauchy", "--x", "1.5"])
        assert code == 1
        assert "error" in json.loads(err)

    def test_missing_command_is_2(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("argv, key", [
        (["sum", "--tol", "0"], "tol"), (["sum", "--tol", "-1"], "tol"),
        (["euler", "--tol", "nan"], "tol"), (["sum", "--x", "nan"], "x"),
        (["sum", "--x", "inf"], "x"), (["kernel", "--t-min", "-1"], "t_min"),
        (["gammahat", "--n", "0"], "n"), (["gammahat", "--n", "-3"], "n"),
        (["classes", "--n-max", "0", "--class-tag", "B"], "n_max"),
        (["classes", "--n-max", "0", "--class-tag", "D"], "n_max"),
        (["classes", "--n-max", "0"], "n_max"),
        (["classes", "--n-max", "-1"], "n_max"),
        (["classes", "--class-tag", "Z"], "class_tag")])
    def test_option_out_of_range_is_2(self, capsys, argv, key):
        # a value outside the option's range is a config error that names
        # the option, before any computation can warn
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run_main(capsys, argv + [
                "--weight", "gamma_power:alpha=1"])
        assert (code, out, caught) == (2, "", [])
        assert len(err.splitlines()) == 1
        msg = json.loads(err)
        assert msg["error"] == "config" and f"'{key}'" in msg["message"]

    @pytest.mark.parametrize("argv", [
        ["sum", "--weight", "gamma_power:alpha=1", "--weight",
         "gamma_power:alpha=2", "--x", "0.5"],
        ["kernel", "--weight", "gamma_power:alpha=1", "--weight",
         "bogus:a=1"]])
    def test_second_weight_is_2(self, capsys, argv):
        # a command that takes one weight reads no second one: it is a
        # config error that names the option, not a silent drop
        code, out, err = _run_main(capsys, argv)
        assert (code, out) == (2, "") and len(err.splitlines()) == 1
        msg = json.loads(err)
        assert msg["error"] == "config" and "'weights'" in msg["message"]

    def test_multisum_takes_several_weights(self, capsys):
        code, out, _ = _run_main(capsys, [
            "multisum", "--weight", "gamma_power:alpha=2", "--weight",
            "gamma_power:alpha=2", "--series", "euler", "--x", "0.3"])
        assert code == 0 and float(out.split()[0]) == pytest.approx(
            0.8011862796963766, abs=1e-6)

    @pytest.mark.parametrize("series", ["bogus", "cauchy"])
    def test_euler_series_is_euler_or_a_file(self, capsys, series):
        code, out, err = _run_main(capsys, [
            "euler", "--weight", "gamma_power:alpha=1", "--series", series])
        assert (code, out) == (2, "")
        msg = json.loads(err)
        assert msg["error"] == "config" and "series" in msg["message"]

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_weight_parameter_is_1(self, capsys, alpha):
        code, _, err = _run_main(capsys, [
            "sum", "--weight", f"gamma_power:alpha={alpha}"])
        assert code == 1
        assert json.loads(err)["error"] == "DomainError"

    def test_unreadable_path_is_2(self, capsys, tmp_path):
        # a series file that is not there, or an --out that is a file
        blocker = tmp_path / "file"
        blocker.write_text("")
        for args in (["--series", f"file:{tmp_path / 'none.json'}"],
                     ["--out", str(blocker)]):
            code, _, err = _run_main(capsys, [
                "sum", "--weight", "gamma_power:alpha=1"] + args)
            assert code == 2
            assert json.loads(err.strip().splitlines()[-1])["error"] == "config"

    @pytest.mark.parametrize("operator", ["1/0", "1,1e400"],
                             ids=["zero_denominator", "overflow"])
    def test_euler_operator_out_of_range_is_2(self, capsys, operator):
        # an operator that is no polynomial of floats is a config error
        code, out, err = _run_main(capsys, [
            "euler", "--weight", "gamma_power:alpha=1", "--operator",
            operator, "--x", "0.3"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "config"


class TestDeterminismAndConfig:
    def test_repeat_runs_identical(self, capsys):
        argv = ["sum", "--weight", "gamma_power:alpha=1", "--series", "euler",
                "--x", "0.7"]
        _, out1, _ = _run_main(capsys, argv)
        _, out2, _ = _run_main(capsys, argv)
        assert out1 == out2

    def test_config_file_mode(self, capsys, tmp_path):
        cfg = {"command": "sum", "weight": "gamma_power:alpha=1",
               "series": "euler", "x": 1.0}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code, out, _ = _run_main(capsys, ["--config", str(p)])
        assert code == 0
        assert abs(float(out.split()[0]) - EULER_SUM_X1) < 1e-6

    @pytest.mark.parametrize("command, key, value", [
        ("sum", "x", "0.5"), ("gammahat", "n", "40"),
        ("kernel", "n_points", 2.5), ("sum", "weight", 3),
        ("sum", "weight", {"gamma_power:alpha=1": 1})])
    def test_config_value_of_wrong_type_is_2(self, capsys, tmp_path, command,
                                             key, value):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"command": command,
                                 "weight": "gamma_power:alpha=1", key: value}))
        code, _, err = _run_main(capsys, ["--config", str(p)])
        assert code == 2
        msg = json.loads(err)
        assert msg["error"] == "config" and key in msg["message"]

    def test_config_that_is_not_an_object_is_2(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('["sum"]')
        code, _, err = _run_main(capsys, ["--config", str(p)])
        assert code == 2 and json.loads(err)["error"] == "config"


class TestVerifyApplicability:
    def test_all_skips_shift_without_classical_kernel(self, capsys, tmp_path):
        code, out, _ = _run_main(capsys, ["verify", "--suite", "all",
                                          "--weight", "gamma_power:alpha=2",
                                          "--out", str(tmp_path)])
        assert code == 0
        checks = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert checks and all(ln.startswith("[PASS]") for ln in checks)
        assert not any("shift/" in ln for ln in checks)
        report = json.loads((tmp_path / "verify.json").read_text())["report"]
        shift = [r for r in report if r["suite"] == "shift"]
        assert len(shift) == 1 and shift[0]["applicable"] is False

    def test_explicit_shift_on_nonclassical_weight_is_named(self, capsys):
        code, _, err = _run_main(capsys, ["verify", "--suite", "shift",
                                          "--weight", "gamma_power:alpha=2"])
        assert code == 1
        assert json.loads(err.strip().splitlines()[-1])["error"] == "DomainError"


README_FAMILIES = ["gamma_power:alpha=1", "log_power:alpha=1",
                   "loglog_power:beta=1", "exp_logpower:alpha=0.5",
                   "exp_log_over_loglog:alpha=1", "iterated_log:k=1"]
# the command, then its arguments after the family's --weight; multisum
# pairs each family with gamma_power(2)
SWEEP_ARGS = {"sum": ["sum"], "gammahat": ["gammahat"], "kernel": ["kernel"],
              "euler": ["euler"], "verify": ["verify", "--suite", "all"],
              "multisum": ["multisum", "--weight", "gamma_power:alpha=2"],
              "classes_A": ["classes", "--class-tag", "A"],
              "classes_B": ["classes", "--class-tag", "B"]}


@pytest.mark.parametrize("command", list(SWEEP_ARGS))
@pytest.mark.parametrize("weight", README_FAMILIES)
def test_family_command_sweep(capsys, tmp_path, weight, command):
    """Every README family under every command either succeeds or exits 1
    naming a MomentSumError; exit 2 is for config errors only."""
    cmd, *args = SWEEP_ARGS[command]
    code, _, err = _run_main(capsys, [cmd, "--weight", weight,
                                      "--out", str(tmp_path)] + args)
    assert code in (0, 1), err
    if code == 1:
        m = re.search(r'^\{"error": "(\w+)"', err, re.M)
        assert m, err
        cls = getattr(errors, m.group(1), None)
        assert isinstance(cls, type) and issubclass(cls, errors.MomentSumError), err


@settings(max_examples=40, derandomize=True, deadline=None)
@given(command=st.sampled_from(["sum", "euler", "multisum"]),
       weight=st.sampled_from(["gamma_power:alpha=0.5", "gamma_power:alpha=1",
                               "gamma_power:alpha=2", "gamma_power:alpha=3",
                               "iterated_log:k=1"]),
       series=st.sampled_from(["euler", "cauchy"]),
       log_tol=st.floats(-14.0, -5.0), x=st.floats(0.01, 10.0),
       negative=st.booleans())
def test_sums_fail_only_with_named_errors(command, weight, series, log_tol,
                                          x, negative):
    """A sum at any tolerance and point, of either sign, succeeds or exits
    1 naming a MomentSumError: no traceback and no bare OverflowError."""
    argv = [command, "--weight", weight, "--tol", repr(10.0 ** log_tol),
            "--x", repr(-x if negative else x)]
    if command != "euler":      # euler solves for its own series
        argv += ["--series", series]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), (argv, err.getvalue())
    if code == 1:
        name = json.loads(err.getvalue().strip().splitlines()[-1])["error"]
        cls = getattr(errors, name, None)
        assert isinstance(cls, type) and \
            issubclass(cls, errors.MomentSumError), (argv, err.getvalue())


@pytest.mark.parametrize("argv", [
    ["sum", "--weight", "iterated_log:k=1", "--series", "euler", "--tol",
     "1e-6", "--x", "-6.85"],
    ["euler", "--weight", "iterated_log:k=1", "--x", "-4.97"],
    ["sum", "--weight", "gamma_power:alpha=1", "--series", "euler", "--x",
     "-0.5"],
    ["euler", "--weight", "gamma_power:alpha=1", "--x", "-0.5"]])
def test_pole_on_the_negative_ray_fails_fast(capsys, argv):
    # the Euler series' Pade poles and the default P = 1 + t's zero lie on
    # the negative ray that x < 0 integrates along: a named error before
    # the quadrature, which would otherwise refine for seconds and stall
    code, _, err = _run_main(capsys, argv)
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1])["error"] == "PZeroOnRay"


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "momentsum.cli", "sum", "--weight",
         "gamma_power:alpha=1", "--series", "euler", "--x", "1.0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert abs(float(proc.stdout.split()[0]) - EULER_SUM_X1) < 1e-6


def test_package_never_imports_mpmath():
    # mpmath is for the tests and the bench; the package runs without it,
    # and on numpy and scipy.special alone: a root is Brent's method in
    # weights, an integral the DE rule in transforms
    code = ("import sys, momentsum, momentsum.cli, momentsum.extensions\n"
            "from momentsum.cli import main\n"
            "assert main(['sum', '--weight', 'gamma_power:alpha=1',"
            " '--series', 'euler', '--x', '1.0']) == 0\n"
            "assert main(['verify', '--suite', 'shift', '--weight',"
            " 'gamma_power:alpha=1']) == 0\n"
            "loaded = {'mpmath', 'scipy.optimize', 'scipy.integrate',"
            " 'scipy.interpolate'} & set(sys.modules)\n"
            "assert not loaded, loaded\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["sum", "--weight", "gamma_power:alpha=1", "--series", "euler"],
    ["classes", "--weight", "gamma_power:alpha=1", "--class-tag", "C"]])
def test_closed_stdout_pipe_exits_1_quietly(argv):
    # the reader closes the pipe before the command writes: exit 1, with
    # no config error and no "Exception ignored" from the flush at exit.
    # stdout buffered, as by default, so a short output meets the closed
    # pipe only when it is flushed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with subprocess.Popen([sys.executable, "-m", "momentsum.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == ""


def test_verify_kernel_suite_alpha3_passes_quietly():
    # the K1_deriv constants stay relative-accurate where K_1 is tiny or
    # underflows, and no integration warning reaches stderr
    proc = subprocess.run(
        [sys.executable, "-m", "momentsum.cli", "verify", "--suite", "kernel",
         "--weight", "gamma_power:alpha=3"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len([ln for ln in lines if ln.startswith("[PASS]")]) == 4
    assert not any(ln.startswith("[FAIL]") for ln in lines)
    assert proc.stderr == ""


def test_classes_d_takes_each_laplace_integral_once(capsys, monkeypatch):
    # f(0), f(z) at the 11 nonzero grid points and f^(k)(0) for k = 1..9:
    # each remainder R_n(z) reuses them (715 integrals when each R_n(z)
    # took its own), and all 21 rows arrive in one batched call
    import numpy as np
    from momentsum import transforms
    calls = []
    real = transforms.laplace_derivative_n

    def counted(F, K, x, n, tol):
        calls.append([(float(a), int(b)) for a, b in np.broadcast(x, n)])
        return real(F, K, x, n, tol)
    monkeypatch.setattr(transforms, "laplace_derivative_n", counted)
    code, out, _ = _run_main(capsys, ["classes", "--class-tag", "D",
                                      "--weight", "gamma_power:alpha=1",
                                      "--n-max", "10"])
    assert code == 0 and json.loads(out.splitlines()[0])["class"] == "D"
    assert len(calls) == 1
    grid = np.linspace(0.0, 0.5, 12).tolist()
    assert sorted(calls[0]) == sorted([(z, 0) for z in grid]
                                      + [(0.0, k) for k in range(1, 10)])


@pytest.mark.parametrize("weight", ["gamma_power:alpha=1",
                                    "gamma_power:alpha=2", "iterated_log:k=1"])
def test_classes_match_the_single_integral_fits(capsys, weight):
    # C and per_n of classes A-D, from one batched Laplace call per fit,
    # against the fits that took one integral per call (float.hex in
    # de_reference.json): within 1e-14 relative, though class D's
    # remainders cancel f(z) against its Taylor polynomial
    from pathlib import Path
    ref = json.loads((Path(__file__).parent / "de_reference.json")
                     .read_text())["classes"]
    for tag in "ABCD":
        code, out, _ = _run_main(capsys, ["classes", "--class-tag", tag,
                                          "--weight", weight])
        fit, want = json.loads(out.splitlines()[0]), ref[f"{weight}/{tag}"]
        assert code == 0 and fit["per_n"].keys() == want["per_n"].keys()
        for got, hx in [(fit["C"], want["C"])] + [
                (fit["per_n"][n], v) for n, v in want["per_n"].items()]:
            assert got == pytest.approx(float.fromhex(hx), rel=1e-14, abs=0)


def test_classes_b_checks_moments_before_the_fit(capsys):
    # log_power(2) has no moment mu_0: the command fails at once with the
    # named error instead of after the class fit
    import time
    t0 = time.perf_counter()
    code, _, err = _run_main(capsys, ["classes", "--class-tag", "B",
                                      "--weight", "log_power:alpha=2"])
    assert time.perf_counter() - t0 < 5.0
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1])["error"] == "DomainError"


def test_classes_a_names_the_missing_moment(capsys):
    # log_power(1) has no moment mu_0: class A names it, as sum and class B
    # do, instead of stalling in the Laplace integral of the preset
    code, _, err = _run_main(capsys, ["classes", "--class-tag", "A",
                                      "--weight", "log_power:alpha=1"])
    assert code == 1
    msg = json.loads(err.strip().splitlines()[-1])
    assert msg["error"] == "DomainError" and "moment 0" in msg["message"]
