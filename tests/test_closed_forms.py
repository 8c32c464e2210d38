"""Every closed form a weight declares through its family table agrees with
the independent path it replaces: Mellin inversion for K, the series for E,
moment_log for exact moments and the principal-branch composition for
log |gamma(i rho)|."""

import dataclasses
import math

import numpy as np
import pytest

from momentsum.kernels import EntireE, KernelK
from momentsum.weights import (WeightSpec, _Family, log_abs_gamma_imag,
                               moment_weight)
from test_applications import dup_split_weight

TS = np.linspace(0.5, 3.0, 6)


def _check_moments(w):
    exact = w.closed("moments")
    for n in range(16):
        assert math.log(exact(n)) == pytest.approx(w.moment_log(n), rel=1e-13,
                                                   abs=1e-13)


def _check_kernel(w):
    k = KernelK(w)
    for t in TS:
        assert k.closed(t) == pytest.approx(k.mellin(t)[0], abs=1e-8)


def _check_log_abs_kernel(w):
    k = KernelK(w)
    for t in TS:
        assert math.exp(k.log_abs(t)) == pytest.approx(
            abs(k.mellin(t)[0]), abs=1e-8)


def _check_entire(w):
    E = EntireE(w)
    for z in (0.3, 1.7, -0.8, 1.0 + 0.5j, 4.0):
        assert E.eval(z) == pytest.approx(E.series(z), rel=1e-10)


def _check_log_entire_real(w):
    E = EntireE(w)
    for x in (0.5, 3.0, 10.0):
        assert E.log_eval_real(x) == pytest.approx(E.log_series_real(x),
                                                   rel=1e-12)


def _check_log_abs_gamma_imag(w):
    for rho in (0.05, 1.0, 7.0, 30.0):
        assert log_abs_gamma_imag(w, rho) == pytest.approx(
            float(np.real(w.log_gamma(1j * rho))), rel=1e-12, abs=1e-12)


CHECKS = {"moments": _check_moments, "kernel": _check_kernel,
          "log_abs_kernel": _check_log_abs_kernel,
          "entire": _check_entire, "log_entire_real": _check_log_entire_real,
          "log_abs_gamma_imag": _check_log_abs_gamma_imag}

WEIGHTS = [WeightSpec.gamma_power(a) for a in (0.5, 1.0, 2.0, 3.0)] + [
    WeightSpec.log_power(1.0), WeightSpec.loglog_power(1.0),
    WeightSpec.exp_logpower(0.5), WeightSpec.exp_log_over_loglog(1.0),
    WeightSpec.iterated_log(1), dup_split_weight()]

DECLARED = [(w, name) for w in WEIGHTS for name in CHECKS
            if w.closed(name) is not None]


def test_every_closed_form_field_has_a_check():
    non_closed = {"name", "log_gamma", "eps", "min_real", "rho0", "max_real",
                  "complex_capable", "ghat_factor", "ghat_ratio"}
    fields = {f.name for f in dataclasses.fields(_Family)}
    assert fields - non_closed == set(CHECKS)


@pytest.mark.parametrize("w,name", DECLARED,
                         ids=[f"{w.describe()}-{n}" for w, n in DECLARED])
def test_declared_closed_form(w, name):
    CHECKS[name](w)


def test_declarations_follow_the_parameters():
    declared = {(w.describe(), n) for w, n in DECLARED}
    assert ("gamma_power(alpha=1)", "moments") in declared
    assert ("gamma_power(alpha=2)", "moments") not in declared
    assert ("gamma_power(alpha=3)", "entire") not in declared
    assert ("dup_split", "kernel") in declared
    assert ("dup_split", "entire") not in declared
    assert not any(n.startswith("iterated_log") for n, _ in declared)


def test_shifted_twin_has_no_closed_forms():
    # closed forms describe gamma itself, not the re-anchored gamma(s - 1)
    mw = moment_weight(WeightSpec.gamma_power(1.0))
    assert all(mw.closed(name) is None for name in CHECKS)
    assert WeightSpec.gamma_power(1.0).classical and not mw.classical
    assert not WeightSpec.gamma_power(2.0).classical
