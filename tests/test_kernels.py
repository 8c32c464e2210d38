import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from momentsum.errors import TruncationError
from momentsum.kernels import (EntireE, KernelK, OmegaDomain, _LOG_TINY,
                               kernel_probe_csv, verify_kernel_lemma)
from momentsum.weights import (WeightSpec, eval_eps, gamma_hat_numeric,
                               moment_weight, solve_saddle)

W1 = WeightSpec.gamma_power(1.0)
W2 = WeightSpec.gamma_power(2.0)


class TestESeries:
    def test_classical_is_exp(self):
        E = EntireE(W1)
        assert E.series(1.0) == pytest.approx(math.e, rel=1e-11)

    def test_constant_term(self):
        for w in (W1, W2, WeightSpec.iterated_log(1)):
            E = EntireE(w)
            assert E.series(0.0) == pytest.approx(1.0 / w.moment(0), rel=1e-12)

    def test_beurling_log_growth(self):
        # log E(t) tracks e^t/t on the log scale at desk range
        E = EntireE(WeightSpec.iterated_log(1))
        le = E.log_series_real(10.0)
        target = math.exp(10.0) / 10.0
        assert abs(math.log(le) - math.log(target)) < 0.30 * math.log(target)

    def test_conjugate_symmetry(self):
        E = EntireE(W2)
        z = 3.0 + 2.0j
        assert E.series(np.conj(z)) == pytest.approx(np.conj(E.series(z)),
                                                     rel=1e-12)

    def test_truncation_cap(self):
        E = EntireE(WeightSpec.iterated_log(1), n_cap=50)
        with pytest.raises(TruncationError):
            E.series(10.0)

    def test_closed_form_alpha2_matches_series(self):
        E = EntireE(W2)
        for z in (0.3, 1.7, -0.8, 1.0 + 0.5j):
            assert E.eval(z) == pytest.approx(E.series(z), rel=1e-10)


class TestEAsymptotic:
    def test_classical_log_error(self):
        E = EntireE(W1)
        for z in (20.0, 50.0, 100.0):
            a = E.asymptotic(z)
            assert a.branch == "main"
            assert abs(a.log_abs - z) / z < 0.02

    def test_alpha2_matches_series_log(self):
        E = EntireE(W2)
        a = E.asymptotic(30.0)
        ls = E.log_series_real(30.0)
        assert abs(a.log_abs - ls) / ls < 0.02

    def test_off_sector_flag(self):
        E = EntireE(W2)
        a = E.asymptotic(30.0 * np.exp(1j * np.pi * 0.9))
        assert a.branch == "subdominant"
        # subdominant-region bound: |z E(z)| = O(1)
        assert abs(a.value) * 30.0 < 10.0


class TestKernel:
    def test_closed_moments_alpha1(self):
        for n in range(11):
            val, _ = quad(lambda t, n=n: t ** n * math.exp(-t), 0, 60,
                          epsabs=1e-12, epsrel=1e-12, limit=200)
            assert val == pytest.approx(math.factorial(n), rel=1e-8)

    def test_mellin_classical(self):
        k = KernelK(W1)
        v, resid = k.mellin(2.0, tol=1e-8)
        assert v == pytest.approx(math.exp(-2.0), abs=1e-7)
        assert resid < 1e-8

    def test_mellin_alpha2_canonical(self):
        # the kernel paired with mu_n = Gamma(1+n/2) is 2 t exp(-t^2); the
        # textbook-normalization exp(-t^2) differs by the prefactor off alpha=1
        k = KernelK(W2)
        t = 1.3
        v, _ = k.mellin(t, tol=1e-9)
        assert v == pytest.approx(2 * t * math.exp(-t * t), abs=1e-8)

    def test_canonical_moments_quadrature(self):
        k = KernelK(W2)
        for n in range(7):
            val, _ = quad(lambda t, n=n: t ** n * float(k.closed(t)), 0, 12,
                          epsabs=1e-12, limit=200)
            assert val == pytest.approx(W2.moment(n), rel=1e-8)

    def test_asymptotic_classical(self):
        k = KernelK(W1)
        for t in (20.0, 40.0, 100.0):
            _, la, _ = k.asymptotic(t)
            assert abs(la + t) / t < 0.02

    def test_asymptotic_alpha2_vs_true_kernel(self):
        k = KernelK(W2)
        _, la, _ = k.asymptotic(8.0)
        true_log = math.log(2 * 8.0) - 64.0
        assert abs(la - true_log) / abs(true_log) < 0.02
        # vs the textbook-normalization oracle the error budget is 5%
        assert abs(la + 64.0) / 64.0 < 0.05

    def test_growth_decay_cross_check(self):
        # log(t E(t)) + log K(t) - log(s/eps) stays bounded by 2 on [20, 100]
        E = EntireE(W1)
        k = KernelK(W1)
        mw = moment_weight(W1)
        for t in np.linspace(20.0, 100.0, 9):
            s = solve_saddle(mw, t).s_z.real
            eps = float(np.real(eval_eps(mw, s)))
            val = (math.log(t) + E.log_eval_real(t) + k.log_abs(t)
                   - math.log(s / eps))
            assert abs(val) < 2.0


class TestOmega:
    def test_disk_examples(self):
        d = OmegaDomain(W1, 1.0)
        assert d.membership(0.4).member is True
        assert d.membership(-0.1).member is False

    def test_alpha2_region(self):
        d = OmegaDomain(W2, 1.0)
        z = 0.45   # Re(1/z^2) ~ 4.9 > 1
        assert d.membership(z).member is True
        assert d.membership(1.5).member is False

    def test_disk_rule_agreement(self):
        # analytic rule Re(1/z) > eta on a coarse grid minus a boundary band
        d = OmegaDomain(W1, 1.0, n_probe=100)
        xs = np.linspace(-1, 1, 21)
        agree = total = 0
        for x in xs:
            for y in xs:
                z = complex(x, y)
                if abs(z) < 1e-3 or abs(abs(z - 0.5) - 0.5) < 0.08:
                    continue
                member = d.membership(z).member
                rule = (1.0 / z).real > 1.0
                total += 1
                agree += int(member == rule)
        assert agree / total >= 0.99


class TestLemmas:
    def test_three_E_classical_delta(self):
        r = verify_kernel_lemma("three_E", W1, eta=0.9)
        assert r.stable
        assert r.measured["delta_found"] <= 0.1 + 1e-12

    def test_K1_deriv_envelope(self):
        # log_C_n = max_t log|d^n(e^t K_1)(t)| - n log(1+delta) - log ghat_n
        # - log K_1(t - delta) on the lemma's 9 points, with the derivatives
        # of K_1(u) = alpha e^((alpha-1)u) exp(-e^(alpha u)) taken by mpmath
        # (at alpha = 3, t = 2.5, K_1(t) ~ 1e-783 and K_1(t - delta) ~ 1e-184)
        mp = pytest.importorskip("mpmath")
        for alpha in (0.5, 1.0, 2.0, 3.0):
            w = WeightSpec.gamma_power(alpha)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                r = verify_kernel_lemma("K1_deriv", w, n_max=6)
            assert r.stable, alpha
            delta = r.measured["delta"]

            def log_K1(u):
                return mp.log(alpha) + (alpha - 1) * u - mp.exp(alpha * u)

            for n, got in r.measured["log_C_per_n"].items():
                ghat = gamma_hat_numeric(moment_weight(w), n).log_value
                with mp.workdps(30):
                    want = max(
                        mp.log(abs(mp.diff(lambda u: mp.exp(u + log_K1(u)),
                                           mp.mpf(t), n)))
                        - log_K1(mp.mpf(t) - delta)
                        for t in np.linspace(0.5, 2.5, 9))
                want = float(want) - n * math.log1p(delta) - ghat
                assert got == pytest.approx(want, abs=1e-8), (alpha, n)

    def test_E_curve(self):
        assert verify_kernel_lemma("E_curve", W1).stable

    def test_E_exp_nonincreasing(self):
        r = verify_kernel_lemma("E_exp", W1, k_range=(20, 45))
        assert r.measured["non_increasing"]

    def test_three_E_beurling(self):
        # the Beurling E needs ~e^t series terms, so the desk range is short
        r = verify_kernel_lemma("three_E", WeightSpec.iterated_log(1),
                                eta=0.8, delta=0.05, t_range=(1.0, 9.0),
                                n_pts=12)
        assert r.stable


def test_probe_csv(tmp_path):
    path = kernel_probe_csv(W1, [0.5, 1.0, 2.0], tmp_path / "probe.csv",
                            "test-config")
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("#") and "test-config" in lines[0]
    assert lines[2].split(",")[0] == "t"
    row = lines[3].split(",")
    assert float(row[1]) == pytest.approx(math.exp(-0.5), rel=1e-9)
    assert float(row[4]) < 1e-8
    # abs_err measures Mellin against the canonical kernel 2 t exp(-t^2),
    # not the textbook exp(-t^2), which is 0.37 away at t = 1.05
    path = kernel_probe_csv(W2, [1.05], tmp_path / "probe2.csv")
    t, kc, km, _, err = Path(path).read_text().splitlines()[2].split(",")
    assert float(kc) == pytest.approx(2 * 1.05 * math.exp(-1.05 ** 2), rel=1e-11)
    assert float(err) < 1e-8


def test_omega_boundary_inconclusive():
    # z on the disk boundary: the probed product is flat in t and the
    # membership test must refuse to decide
    d = OmegaDomain(WeightSpec.gamma_power(1.0), 1.0)
    m = d.membership(0.5 + 0.5j)     # Re(1/z) = 1 = eta exactly
    assert m.inconclusive


def test_mellin_decay_too_slow():
    from momentsum.errors import DecayTooSlow
    # gamma == 1 has a non-decaying Mellin integrand
    w = WeightSpec.custom(lambda s: 0.0 * s, min_real=0.5, label="one")
    k = KernelK(w)
    with pytest.raises(DecayTooSlow):
        k.mellin(1.5, tol=1e-10)


def test_asymptotic_below_threshold_is_saddle_failure():
    from momentsum.errors import SaddleFailure
    with pytest.raises(SaddleFailure):
        KernelK(WeightSpec.gamma_power(1.0)).asymptotic(0.2)


# -- Mellin inversion on the saddle line and the windowed E sum ---------------

@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_mellin_relative_accuracy_over_the_ray(alpha):
    # the canonical kernel alpha t^(alpha-1) exp(-t^alpha), to 1e-10
    # relative wherever it is a normal float; below that the value must
    # underflow too, not sit on an absolute error floor
    k = KernelK(WeightSpec.gamma_power(alpha))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in np.geomspace(1e-2, 50.0, 40):
            v, err = k.mellin(t)
            log_ref = math.log(alpha) + (alpha - 1.0) * math.log(t) - t ** alpha
            if log_ref > math.log(1e-300):
                ref = math.exp(log_ref)
                assert abs(v - ref) <= 1e-10 * ref
                assert abs(v - ref) <= err
            else:
                assert abs(v) <= 1e-300


def test_mellin_complex_argument():
    k = KernelK(W2)
    t = 1.2 * np.exp(0.3j)
    v, err = k.mellin(t)
    assert v == pytest.approx(k.closed(t), rel=1e-10)
    assert err < 1e-10 * abs(v)


def test_asymptotic_saddle_out_of_reach_is_saddle_failure(tmp_path):
    # the loglog_power saddle for t = 20 lies past the ray search's reach;
    # the probe then leaves K_asymptotic empty instead of aborting
    from momentsum.errors import SaddleFailure
    w = WeightSpec.loglog_power(1.0)
    with pytest.raises(SaddleFailure):
        KernelK(w).asymptotic(20.0)
    path = kernel_probe_csv(w, [20.0], tmp_path / "probe.csv")
    row = Path(path).read_text().splitlines()[2].split(",")
    assert row[3] == "nan"


@pytest.mark.parametrize("x", [34.0, 50.0, 100.0])
def test_entire_alpha3_series_at_large_x(x):
    # E_{1/3}(x) = 3 exp(x^3) + O(1/x); the series answers, not the
    # leading-order saddle formula, which is 1e-5 off here
    got = EntireE(WeightSpec.gamma_power(3.0)).log_eval_real(x)
    assert got == pytest.approx(x ** 3 + math.log(3.0), rel=1e-13)


# log E(x) summed term by term from n = 0 until 60 nats below the peak
LOOP_LOG_E = [
    (WeightSpec.gamma_power(3.0), 0.7, 1.1307507304821391),
    (WeightSpec.gamma_power(3.0), 4.0, 65.0986122886681),
    (WeightSpec.gamma_power(3.0), 12.5, 1954.223612288669),
    (WeightSpec.gamma_power(3.0), 30.0, 27001.09861228868),
    (WeightSpec.gamma_power(0.5), 0.7, 0.3154667705747434),
    (WeightSpec.gamma_power(0.5), 9.0, 2.3093285045777856),
    (WeightSpec.iterated_log(1), 0.7, 0.5984703763628094),
    (WeightSpec.iterated_log(1), 4.0, 9.424712860110956),
    (WeightSpec.iterated_log(1), 9.0, 359.64280112415406),
]


@pytest.mark.parametrize("w,x,want", LOOP_LOG_E)
def test_windowed_log_series_matches_full_sum(w, x, want):
    assert EntireE(w).log_series_real(x) == pytest.approx(want, rel=1e-14)


def test_windowed_log_series_caps():
    # n_cap bounds the terms in the window, not the peak index: for
    # mu_n = Gamma(1 + 2n), E(x) = cosh(sqrt(x)) and the terms at x = 4e6
    # peak near n = 1000 in a window of ~600
    E = EntireE(WeightSpec.gamma_power(0.5), n_cap=1000)
    assert E.log_series_real(4e6) == pytest.approx(2000.0 - math.log(2.0),
                                                   rel=1e-14)
    with pytest.raises(TruncationError):
        EntireE(WeightSpec.gamma_power(3.0)).log_series_real(150.0)
    from momentsum.errors import DomainError
    with pytest.raises(DomainError):
        EntireE(WeightSpec.log_power(1.0)).log_series_real(2.0)


def _mp_entire(alpha, z):
    # sum z^n / Gamma(1 + n/alpha) at 60 digits, to well past the peak term
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        z = mp.mpmathify(z)
        total, n = mp.mpf(0), 0
        while True:
            term = z ** n / mp.gamma(1 + mp.mpf(n) / alpha)
            total += term
            if n > alpha * abs(z) ** alpha + 40 and \
                    abs(term) < abs(total) * mp.mpf(10) ** -60:
                return complex(total)
            n += 1


@pytest.mark.parametrize("alpha,z,rel", [
    (3.0, 0.5, 1e-14), (3.0, 1.3, 1e-14), (3.0, 2.0, 1e-14),
    (3.0, 5.0, 1e-12), (3.0, 8.0, 1e-12),
    (1.5, 4.0 + 1.0j, 1e-12), (3.0, 3.0 + 0.5j, 1e-12)])
def test_series_window_against_mpmath(alpha, z, rel):
    # the window of log_series_real at |z| certifies the tail; the error
    # grows like n_peak eps at large |z| (the rounding of n log |z|)
    got = EntireE(WeightSpec.gamma_power(alpha)).series(z)
    want = _mp_entire(alpha, z)
    assert abs(got - want) <= rel * abs(want)


@pytest.mark.parametrize("w", [WeightSpec.gamma_power(3.0),
                               WeightSpec.gamma_power(0.5),
                               WeightSpec.iterated_log(1)],
                         ids=lambda w: w.describe())
def test_series_on_a_node_array_matches_the_scalar_calls(w):
    # one window over all nodes: every node's own window lies inside it,
    # and the terms outside lie 60 nats below the node's largest
    E = EntireE(w)
    xs = np.concatenate(([0.0], np.geomspace(1e-6, 8.0, 41), [0.7, 0.0]))
    got = E.series(xs)
    assert got.dtype == float and got.shape == xs.shape
    want = np.array([E.series(float(x)).real for x in xs])
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
    assert np.array_equal(E.eval(xs), got)
    grid = E.series(xs.reshape(2, -1))
    assert grid.shape == (2, len(xs) // 2)
    assert np.array_equal(grid.ravel(), got)


def test_arrays_of_any_z_match_the_scalar_calls():
    # one window sum serves numbers and arrays of any z.  The nodes lie where
    # the sum does not cancel: where |E(z)| << E(|z|) the scalar value is
    # itself rounding noise (the cancellation certificate is still open)
    real = np.concatenate(([0.0], np.geomspace(1e-3, 6.0, 13), [0.0, 2.5]))
    small = np.geomspace(1e-3, 0.6, 8)
    kinds = {"real with zeros": real,
             "negative": -small,
             "complex": np.concatenate((real * np.exp(0.02j),
                                        small * np.exp(2.5j), [0j])),
             "2-D": real.reshape(4, 4)}
    for w in (W1, W2, WeightSpec.gamma_power(3.0),
              WeightSpec.gamma_power(0.5), WeightSpec.iterated_log(1)):
        E = EntireE(w)
        for kind, z in kinds.items():
            calls = [E.series, E.eval]
            if not np.iscomplexobj(z) and (z >= 0).all():
                calls.append(E.log_eval_real)
            for call in calls:
                got = call(z)
                assert got.shape == z.shape, (w, kind, call)
                want = np.array([call(v) for v in z.ravel().tolist()])
                err = np.abs(got.ravel() - want)
                assert np.all(err <= 1e-15 * np.abs(want)), (w, kind, call)


def test_eval_returns_one_dtype_per_kind_of_input():
    # closed (alpha 1, 2) or summed (alpha 3): real arrays give floats,
    # complex arrays complex, numbers complex
    x = np.array([0.0, 0.5, 1.5])
    for alpha in (1.0, 2.0, 3.0):
        E = EntireE(WeightSpec.gamma_power(alpha))
        assert E.eval(x).dtype == np.float64
        assert E.eval(x + 0.5j).dtype == np.complex128
        assert isinstance(E.eval(0.5), complex)
        assert isinstance(E.eval(0.5 + 0.5j), complex)


def test_closed_log_E_takes_arrays():
    # exact at alpha 1 and 2, point by point through the scalar code
    x = np.array([0.0, 0.3, 4.0, 30.0])
    for w in (W1, W2):
        E = EntireE(w)
        got = E.log_eval_real(x.reshape(2, 2))
        assert got.shape == (2, 2)
        assert got.ravel().tolist() == [E.log_eval_real(v) for v in x.tolist()]
    from momentsum.errors import DomainError
    with pytest.raises(DomainError):
        EntireE(W2).log_eval_real(np.array([1.0, -1.0]))


def test_array_calls_raise_the_first_failing_node_error():
    # in input order, the error the node's own scalar call raises
    from momentsum.errors import DomainError, SaddleFailure
    E = EntireE(WeightSpec.iterated_log(1), n_cap=300)
    z = np.array([1.0, 8.0, 5.0])
    with pytest.raises(TruncationError) as scalar:
        E.series(8.0)
    with pytest.raises(TruncationError) as array:
        E.series(z)
    assert str(array.value) == str(scalar.value)
    E3 = EntireE(WeightSpec.gamma_power(3.0))
    with pytest.raises(TruncationError):
        E3.log_series_real(np.array([2.0, 150.0, -1.0]))
    with pytest.raises(DomainError):
        E3.log_series_real(np.array([2.0, -1.0, 150.0]))
    # past n_cap the saddle branch answers, until its solve fails
    E = EntireE(WeightSpec.iterated_log(1))
    with pytest.raises(SaddleFailure) as scalar:
        E.log_eval_real(150.0)
    with pytest.raises(SaddleFailure) as array:
        E.log_eval_real(np.array([100.0, 200.0, 150.0]))
    assert str(array.value) == str(scalar.value)


def test_overflowing_tail_is_split_off_with_one_bisection():
    # the nodes past the 1e306 term limit are the tail of the sorted |z|:
    # they take the saddle branch as the scalar calls do, and the windows
    # probed to find them grow like log n
    from momentsum.applications import MultiSumPlan
    prod = MultiSumPlan([W2, W2]).product_weight()
    E = EntireE(prod)
    z = np.geomspace(1e-3, 5.1e3, 52)
    got = E.eval(z)
    want = np.array([E.eval(v).real for v in z.tolist()])
    over = np.isinf(want)
    assert over.sum() == 9 and np.array_equal(got[over], want[over])
    assert np.all(np.abs(got[~over] - want[~over]) <= 1e-15 * want[~over])
    calls = []
    for n in (13, 52, 208):
        E = EntireE(WeightSpec.gamma_power(3.0))
        window = E._window
        E._window = lambda x: (calls.append(x), window(x))[1]
        calls.clear()
        E.eval(np.geomspace(1e-3, 20.0, n))
        assert len(calls) <= math.log2(n) + 3, (n, len(calls))


def test_eval_on_an_array_takes_overflowing_nodes_one_by_one():
    # past the nodes whose terms overflow, eval answers as the scalar
    # calls do (the saddle branch), series raises TruncationError
    E = EntireE(WeightSpec.gamma_power(3.0))
    xs = np.array([2.0, 9.0, 12.0])
    with pytest.raises(TruncationError):
        E.series(xs)
    got = E.eval(xs)
    assert got[0] == pytest.approx(E.eval(2.0).real, rel=1e-15)
    assert got[1:].tolist() == [E.eval(x).real for x in (9.0, 12.0)]


def test_series_on_the_negative_axis_is_real():
    E = EntireE(WeightSpec.gamma_power(3.0))
    assert E.series(-0.8).imag == 0.0
    assert E.series(-6.0).imag == 0.0
    want = _mp_entire(3.0, -0.8)
    assert abs(E.series(-0.8) - want) <= 1e-14 * abs(want)


def test_three_E_kernel_variant_over_full_range():
    # the product kernel 4 t K_0(2 t) is ~1e-172 at t = 200: Mellin now
    # resolves it, so the kernel variant probes the whole t range
    from scipy.special import k0e
    from momentsum.applications import MultiSumPlan
    prod = MultiSumPlan([W2, W2]).product_weight()
    r = verify_kernel_lemma("three_E", prod, eta=0.5)
    assert all(math.isfinite(d["log_C_kernel"])
               for d in r.measured["per_delta"].values())
    t = 200.0
    want = math.log(4 * t * k0e(2 * t)) - 2 * t
    assert KernelK(prod).log_abs(t) == pytest.approx(want, rel=1e-12)


def _product_weight(*ws):
    from momentsum.applications import MultiSumPlan
    return MultiSumPlan(list(ws)).product_weight()


@pytest.mark.parametrize("w", [
    WeightSpec.gamma_power(1.0), WeightSpec.gamma_power(3.0),
    WeightSpec.log_power(1.0), WeightSpec.iterated_log(1),
    _product_weight(W2, W2)],
    ids=["gamma_power1", "gamma_power3", "log_power", "iterated_log",
         "product"])
def test_mellin_line_is_the_saddle(w):
    # the Mellin line and solve_saddle seed from the same ray grid: the
    # line lies within one peak width of the twin's saddle where K is
    # representable; where it underflows (log_power at t = 30, 50, its
    # saddle at 3.9e12 and 1.9e21) the line stops short and K is 0.0
    K = KernelK(w)
    ts = np.array([5.0, 20.0, 30.0, 50.0])
    c, sigma, _ = K._abscissa(np.log(ts), _LOG_TINY)
    for t, ci, si in zip(ts, c, sigma):
        value, log_abs, sp = K.asymptotic(t)
        if log_abs > _LOG_TINY:
            assert abs(ci - sp.s_z.real) <= si
        else:
            assert ci < sp.s_z.real and K.mellin(t)[0] == 0.0


@pytest.mark.parametrize("w", [
    WeightSpec.loglog_power(1.0), WeightSpec.log_power(1.0),
    WeightSpec.iterated_log(1)], ids=["loglog_power", "log_power",
                                      "iterated_log"])
def test_mellin_is_zero_where_kernel_underflows(w):
    # the saddles lie past 1e42 (loglog_power: past the ray grid), where
    # samples of log gamma round off by more than the integrand decays;
    # the line stops where K is already below the floor
    assert KernelK(w).mellin(100.0) == (0.0, 0.0)
    if w.family == "loglog_power":
        assert KernelK(w).mellin(10.0)[0] == 0.0


def test_batched_mellin_matches_scalar_and_bessel_form():
    # the gamma_power(2)^2 product kernel is 4 t K_0(2 t); one call on the
    # node array and one call per node both land within 1e-10 of it, and
    # both estimates cover their errors
    from scipy.special import k0e
    k = KernelK(_product_weight(W2, W2))
    ts = np.geomspace(1e-5, 300.0, 36)
    ref = 4 * ts * k0e(2 * ts) * np.exp(-2 * ts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, err = k.mellin(ts)
        scalar = [k.mellin(t) for t in ts]
    assert np.all(np.abs(v - ref) <= 1e-10)
    assert np.all(np.abs(v - ref) <= err)
    for (vs, es), r in zip(scalar, ref):
        assert abs(vs - r) <= 1e-10 and abs(vs - r) <= es


@pytest.mark.parametrize("t", [1e-20, 1e-150])
def test_mellin_estimate_covers_at_clamped_abscissa(t):
    # [gamma_power(2), dup_split] has moments n!, so K = e^-t.  For tiny t
    # its saddle lies left of the half-plane and the line is clamped, where
    # the integrand turns with phase t^(-iy); the step must resolve it
    from test_applications import dup_split_weight
    v, err = KernelK(_product_weight(W2, dup_split_weight())).mellin(t)
    assert abs(v - math.exp(-t)) <= err


def test_log_abs_stays_finite_where_kernel_underflows():
    from scipy.special import k0e
    prod = _product_weight(W2, W2)
    t = 400.0
    want = math.log(4 * t) + math.log(k0e(2 * t)) - 2 * t
    assert KernelK(prod).log_abs(t) == pytest.approx(want, abs=1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = OmegaDomain(prod, 1.0).membership(0.4)
    assert m.member and math.isfinite(m.tail_slope)


def _theta_rows(k, ts, n_max):
    """theta^j K(t), j <= n_max, theta = t d/dt, and their errors, as arrays
    of shape (n_max + 1, len(ts)): the rows of the saddle-line sums that
    verify_K1_deriv reads."""
    _, log_factor, total, err = k._line_sums(ts, k.mellin_tol, m=n_max)
    with np.errstate(under="ignore"):
        factor = np.exp(log_factor)[:, None]
        return (factor * total).T, (np.abs(factor) * err).T


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_theta_derivatives_match_closed_derivatives(alpha):
    # theta^j K(e^u) = d^j/du^j K_1(u), K_1(u) = alpha e^((alpha-1)u)
    # exp(-e^(alpha u)): relative 1e-10 against mpmath, covered by the
    # estimates, wherever the value is a normal float
    mp = pytest.importorskip("mpmath")
    us = np.linspace(-0.5, 2.5, 13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, err = _theta_rows(KernelK(WeightSpec.gamma_power(alpha)),
                             np.exp(us), 6)
    assert v.shape == err.shape == (7, len(us))

    def K1(u):
        return alpha * mp.exp((alpha - 1) * u - mp.exp(alpha * u))

    checked = 0
    for i, u in enumerate(us):
        for j in range(7):
            with mp.workdps(30):
                want = float(mp.diff(K1, mp.mpf(u), j))
            if abs(want) < 1e-300:
                continue
            assert abs(v[j, i] - want) <= 1e-10 * abs(want), (u, j)
            assert abs(v[j, i] - want) <= err[j, i], (u, j)
            checked += 1
    assert checked >= 7 * 10


def test_theta_row_zero_is_mellin_bit_for_bit():
    for w in (W2, WeightSpec.iterated_log(1), _product_weight(W2, W2)):
        k = KernelK(w)
        ts = np.geomspace(0.05, 40.0, 11)
        v, err = _theta_rows(k, ts, 4)
        m, merr = k.mellin(ts)
        assert np.array_equal(v[0], m) and np.array_equal(err[0], merr)


def test_K1_deriv_without_a_saddle_is_named():
    # the loglog_power saddle lies past the ray search's reach, so the
    # lines miss it and the log-scale sums cancel: the lemma must stop at
    # the 2^16-sample cap with a named error, not widen the window forever
    import time
    from momentsum.errors import MomentSumError
    import tracemalloc
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(MomentSumError):
            verify_kernel_lemma("K1_deriv", WeightSpec.loglog_power(1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 20.0
    # a halving past 2^10 samples that does not shrink the change stops
    # the sums before their sample matrices grow
    assert peak < 50e6
