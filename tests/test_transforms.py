import cmath
import functools
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentsum.applications import MultiSumPlan
from momentsum import transforms
from momentsum.errors import (DegenerateDenominator, DomainError,
                              IncompatibleGrowth, PZeroOnRay)
from momentsum.kernels import EntireE, KernelK
from momentsum.transforms import (FormalSeries, FunctionHandle, _solve_exact,
                                  borel_coeffs, borel_contour,
                                  continue_borel_series, laplace_derivative_n,
                                  laplace_quadrature, moment_sum,
                                  pade_continue, remainder_Rn)
from momentsum.weights import WeightSpec, _array_or_pointwise

W1 = WeightSpec.gamma_power(1.0)

EULER_SUM_X1 = 0.59634736232319407   # int_0^inf e^-t/(1+t) dt, mpmath 30 digits

EULER_SERIES = FormalSeries(tuple(Fraction((-1) ** n * math.factorial(n))
                                  for n in range(24)))

CAUCHY_HANDLE = FunctionHandle(lambda t: cmath.exp(t).real if not
                               isinstance(t, complex) else cmath.exp(t),
                               lambda t, n: math.exp(t), growth_eta=1.0,
                               complex_capable=True, label="E")

RATIONAL_HANDLE = FunctionHandle(
    lambda t: 1.0 / (1.0 + t),
    lambda t, n: (-1) ** n * math.factorial(n) / (1.0 + t) ** (n + 1),
    complex_capable=True, label="1/(1+t)")


class TestFormalSeries:
    def test_exact_flag_and_json(self):
        s = FormalSeries((Fraction(1, 3), Fraction(2)))
        assert s.exact
        s2 = FormalSeries.from_json(s.to_json())
        assert s2.coeffs == s.coeffs
        f = FormalSeries((0.5, 1.5))
        assert not f.exact
        assert FormalSeries.from_json(f.to_json()).coeffs == f.coeffs


class TestBorel:
    def test_euler_series_cancellation(self):
        b = borel_coeffs(EULER_SERIES, W1)
        assert b.coeffs[:4] == (Fraction(1), Fraction(-1), Fraction(1),
                                Fraction(-1))
        assert b.exact

    def test_cauchy_kernel_gives_E_coefficients(self):
        ones = FormalSeries(tuple(Fraction(1) for _ in range(10)))
        b = borel_coeffs(ones, WeightSpec.gamma_power(2.0))
        for n, c in enumerate(b.coeffs):
            assert float(c) == pytest.approx(1.0 / math.gamma(1 + n / 2),
                                             rel=1e-12)

    def test_zero(self):
        z = FormalSeries((Fraction(0),) * 6)
        assert all(c == 0 for c in borel_coeffs(z, W1).coeffs)


class TestPade:
    def test_rational_reproduced_exactly(self):
        s = FormalSeries(tuple(Fraction((-1) ** n) for n in range(6)))
        pa = pade_continue(s, (1, 1))
        for t in (0.5, 3.0, 10.0):
            assert pa(t) == pytest.approx(1.0 / (1.0 + t), rel=1e-14)

    def test_exp_pade_22(self):
        s = FormalSeries(tuple(Fraction(1, math.factorial(n))
                               for n in range(6)))
        pa = pade_continue(s, (2, 2))
        assert abs(pa(1.0) - math.e) < 1e-2

    def test_pole_on_ray_warns(self):
        s = FormalSeries(tuple(Fraction(1, 2 ** n) for n in range(6)))
        pa = pade_continue(s, (1, 1))
        assert pa.pole_on_ray
        assert pa.poles[0] == pytest.approx(2.0)

    def test_too_short_raises(self):
        with pytest.raises(DomainError):
            pade_continue(FormalSeries((Fraction(1),)), (1, 1))


class TestLaplace:
    def test_euler_integral(self):
        res = laplace_quadrature(RATIONAL_HANDLE, KernelK(W1), 1.0, tol=1e-10)
        assert abs(res.value - EULER_SUM_X1) < 1e-6
        assert res.abs_error_estimate < 1e-6

    def test_cauchy_identity(self):
        res = laplace_quadrature(CAUCHY_HANDLE, KernelK(W1), 0.5, tol=1e-10)
        assert res.value == pytest.approx(2.0, abs=1e-9)

    def test_constant_gives_mu0(self):
        one = FunctionHandle(lambda t: 1.0)
        for w in (W1, WeightSpec.gamma_power(2.0)):
            res = laplace_quadrature(one, KernelK(w), 0.3, tol=1e-10)
            assert res.value == pytest.approx(w.moment(0), abs=1e-8)

    def test_growth_incompatibility(self):
        with pytest.raises(IncompatibleGrowth):
            laplace_quadrature(CAUCHY_HANDLE, KernelK(W1), 1.2)

    def test_derivative_examples(self):
        K = KernelK(W1)
        assert laplace_derivative_n(RATIONAL_HANDLE, K, 0.0, 1) == \
            pytest.approx(-1.0, abs=1e-8)
        assert laplace_derivative_n(CAUCHY_HANDLE, K, 0.5, 2) == \
            pytest.approx(16.0, rel=1e-7)
        r0 = laplace_derivative_n(RATIONAL_HANDLE, K, 0.7, 0)
        assert r0 == pytest.approx(
            laplace_quadrature(RATIONAL_HANDLE, K, 0.7).value, rel=1e-9)

    def test_error_estimate_covers_refinement(self):
        r1 = laplace_quadrature(RATIONAL_HANDLE, KernelK(W1), 1.0, tol=1e-7)
        r2 = laplace_quadrature(RATIONAL_HANDLE, KernelK(W1), 1.0, tol=5e-8)
        assert abs(r1.value - r2.value) <= r1.abs_error_estimate


class TestMomentSum:
    def test_euler_series(self):
        res = moment_sum(EULER_SERIES, W1, 1.0, tol=1e-10)
        assert abs(res.value - EULER_SUM_X1) < 1e-5

    def test_polynomial_identity(self):
        p = FormalSeries((Fraction(1), Fraction(2), Fraction(3)))
        res = moment_sum(p, W1, 0.3, continuation="poly")
        assert res.value == pytest.approx(1.87, abs=1e-9)

    def test_cauchy_identity_x09(self):
        ones = FormalSeries(tuple(Fraction(1) for _ in range(8)))
        res = moment_sum(ones, W1, 0.9, continuation=CAUCHY_HANDLE,
                         tol=1e-10)
        assert abs(res.value - 10.0) < 1e-6

    def test_linearity(self):
        rng = np.random.default_rng(5)
        a = FormalSeries(tuple(Fraction(int(v)) for v in
                               rng.integers(-9, 9, 9)))
        b = FormalSeries(tuple(Fraction(int(v)) for v in
                               rng.integers(-9, 9, 9)))
        comb = FormalSeries(tuple(2 * x - 3 * y
                                  for x, y in zip(a.coeffs, b.coeffs)))
        ra = moment_sum(a, W1, 0.4, continuation="poly")
        rb = moment_sum(b, W1, 0.4, continuation="poly")
        rc = moment_sum(comb, W1, 0.4, continuation="poly")
        assert abs(rc.value - (2 * ra.value - 3 * rb.value)) <= \
            2 * ra.abs_error_estimate + 3 * rb.abs_error_estimate + 1e-12

    def test_lb_identity_degree20(self):
        rng = np.random.default_rng(17)
        coeffs = tuple(Fraction(int(v)) for v in rng.integers(-5, 6, 21))
        p = FormalSeries(coeffs)
        for x in (0.2, 0.7):
            res = moment_sum(p, W1, x, continuation="poly", tol=1e-10)
            assert abs(res.value - p.eval(x)) < 1e-7 * max(1, abs(p.eval(x)))


class TestRemainder:
    def test_exp_remainder(self):
        h = FunctionHandle(lambda z: math.exp(z), lambda z, n: math.exp(z))
        assert remainder_Rn(h, 1.0, 2) == pytest.approx(math.e - 2.0,
                                                        rel=1e-12)
        assert remainder_Rn(h, 1.0, 0) == pytest.approx(math.e, rel=1e-12)

    def test_d_class_probe_stable_constant(self):
        # |R_n(z, f)| <= C^{n+1} M_n mu_n / n! |z|^n for f = L[1/(1+t)]
        K = KernelK(W1)
        f = FunctionHandle(
            lambda x: laplace_quadrature(RATIONAL_HANDLE, K, x, tol=1e-11).value,
            lambda x, n: laplace_derivative_n(RATIONAL_HANDLE, K, x, n,
                                              tol=1e-11))
        consts = []
        for n in (2, 4, 6):
            worst = 0.0
            for z in (0.1, 0.25, 0.4):
                R = abs(remainder_Rn(f, z, n))
                bound = math.factorial(n) * math.factorial(n) / \
                    math.factorial(n) * z ** n   # M_n = n!, mu_n = n!
                worst = max(worst, (R / bound) ** (1.0 / (n + 1)))
            consts.append(worst)
        assert max(consts) < 3.0
        assert max(consts) / min(consts) < 3.0


class TestBorelContour:
    CAUCHY_G = FunctionHandle(lambda z: 1.0 / (1.0 - z),
                              lambda z, n: math.factorial(n) / (1.0 - z) ** (n + 1),
                              complex_capable=True, analytic_radius=1.0,
                              label="cauchy")

    def test_cauchy_kernel_gives_E(self):
        v = borel_contour(self.CAUCHY_G, W1, 0.5, 0)
        assert v == pytest.approx(math.exp(0.5), rel=1e-6)

    def test_polynomial(self):
        g = FunctionHandle(lambda z: z * z,
                           lambda z, n: (z * z, 2 * z, 2.0)[n] if n < 3 else 0.0,
                           complex_capable=True, label="z^2")
        v = borel_contour(g, W1, 0.7, 0)
        assert v == pytest.approx(0.49 / 2.0, rel=1e-9)

    def test_n1_matches_finite_difference(self):
        v1 = borel_contour(self.CAUCHY_G, W1, 0.5, 1)
        h = 1e-5
        fd = (borel_contour(self.CAUCHY_G, W1, 0.5 + h, 0)
              - borel_contour(self.CAUCHY_G, W1, 0.5 - h, 0)) / (2 * h)
        assert abs(v1 - fd) / abs(fd) < 1e-4

    def test_agrees_with_series_route(self):
        # B_gamma via contour vs borel_coeffs + series evaluation
        ser = FormalSeries(tuple(Fraction(1) for _ in range(40)))
        b = borel_coeffs(ser, W1)
        direct = sum(float(c) * 0.5 ** n for n, c in enumerate(b.coeffs))
        v = borel_contour(self.CAUCHY_G, W1, 0.5, 0)
        assert abs(v - direct) < 1e-6

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            borel_contour(self.CAUCHY_G, W1, 0.5, 0, R=0.4)


def test_summation_result_json():
    res = moment_sum(EULER_SERIES, W1, 1.0)
    d = json.loads(res.to_json())
    assert d["method"] == "moment_sum"
    assert "abs_error_estimate" in d and "diagnostics" in d


def test_series_auto_switch_to_asymptotic():
    # past the term cap the evaluator hands over to the saddle branch
    w = WeightSpec.gamma_power(1.5)
    ref = EntireE(w).log_eval_real(60.0)
    E = EntireE(w, n_cap=300)
    got = E.log_eval_real(60.0)
    assert abs(got - ref) / ref < 0.02
    from momentsum.errors import TruncationError
    with pytest.raises(TruncationError):
        E.series(60.0)


def test_handle_without_oracle_has_no_derivative():
    from momentsum.errors import DerivativeUnavailable
    h = FunctionHandle(math.sin)
    assert h.derivative(0.0, 0) == 0.0
    with pytest.raises(DerivativeUnavailable):
        h.derivative(0.0, 1)


def test_quadrature_stall_on_small_cap():
    # a closed kernel 1/(1+t)^2: the integrand is still above 1e-3 tol of
    # its peak at the right end's cap, t = 1e6
    from momentsum.errors import QuadratureStall
    w = WeightSpec.custom(lambda s: 0.0 * s, kernel=lambda t: (1.0 + t) ** -2,
                          label="slow")
    with pytest.raises(QuadratureStall, match="t_cap=1e\\+06"):
        laplace_quadrature(FunctionHandle(lambda t: 1.0), KernelK(w), 1.0,
                           tol=1e-10)


def test_degenerate_denominator_paths():
    with pytest.raises(DegenerateDenominator):
        pade_continue(FormalSeries((Fraction(1), Fraction(0), Fraction(0))),
                      (1, 1))
    with pytest.raises(DegenerateDenominator):
        pade_continue(FormalSeries((1.0, 0.0, 0.0)), (1, 1))


def test_borel_contour_alpha2_mittag_leffler():
    # Gaussian-phase rays: the contour reproduces E_{1/2}(x) = wofz(-ix)
    from scipy.special import wofz
    g = FunctionHandle(lambda z: 1.0 / (1.0 - z),
                       lambda z, n: math.factorial(n) / (1.0 - z) ** (n + 1),
                       complex_capable=True, analytic_radius=1.0)
    w2 = WeightSpec.gamma_power(2.0)
    for x in (0.3, 0.6):
        v = borel_contour(g, w2, x, 0)
        assert abs(v - complex(wofz(-1j * x))) < 5e-6


def test_moment_sum_polynomial_under_iterated_log():
    # the Beurling weight has no closed kernel, so every Laplace node is a
    # Mellin inversion; a polynomial series must come back as itself
    coeffs = (1, -2, 3, 0, 1)
    a = FormalSeries(tuple(Fraction(c) for c in coeffs))
    res = moment_sum(a, WeightSpec.iterated_log(1), 1.0, continuation="poly",
                     tol=1e-9)
    assert res.value == pytest.approx(3.0, abs=1e-8)
    assert abs(res.value - 3.0) <= res.abs_error_estimate


# -- the double-exponential Laplace rule ----------------------------------------

@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_de_rule_reproduces_kernel_moments(alpha):
    # int t^n K(t) dt = mu_n = Gamma(1 + n/alpha), within the estimate
    K = KernelK(WeightSpec.gamma_power(alpha))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(11):
            res = laplace_quadrature(FunctionHandle(lambda t, n=n: t ** n), K,
                                     1.0, tol=1e-10)
            want = math.gamma(1.0 + n / alpha)
            assert abs(res.value - want) <= 1e-10 * want
            assert abs(res.value - want) <= res.abs_error_estimate
            assert res.panels > 0 and res.truncation_t0 > 1.0


def test_laplace_derivative_against_closed_form():
    # f(x) = L[1/(1+t)](x) = e^(1/x) E_1(1/x) / x, differentiated in mpmath
    import mpmath
    K = KernelK(W1)
    with mpmath.workdps(30), warnings.catch_warnings():
        warnings.simplefilter("error")
        f = lambda x: mpmath.exp(1 / x) * mpmath.e1(1 / x) / x
        for x in (0.2, 0.5, 1.0):
            for n in (1, 2, 4, 6):
                want = float(mpmath.diff(f, mpmath.mpf(x), n))
                got = laplace_derivative_n(RATIONAL_HANDLE, K, x, n, tol=1e-11)
                assert got == pytest.approx(want, rel=1e-9)


def test_de_rule_maps_handles_that_reject_arrays():
    # a branch on t >= 0 raises ValueError on an array, math.exp raises
    # TypeError: both handles are mapped point by point
    K = KernelK(W1)
    branchy = FunctionHandle(lambda t: 1.0 / (1.0 + t) if t >= 0 else 0.0)
    scalar = FunctionHandle(lambda t: math.exp(-t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert laplace_quadrature(branchy, K, 1.0, tol=1e-11).value == \
            pytest.approx(EULER_SUM_X1, abs=1e-11)
        assert laplace_quadrature(scalar, K, 1.0, tol=1e-11).value == \
            pytest.approx(0.5, abs=1e-11)


FACTORIALS = [math.factorial(k) for k in range(8)]


@pytest.mark.parametrize("use", ["laplace_value", "laplace_batch", "class_B"])
def test_scalar_callables_are_mapped_as_their_array_twins(use):
    # an evaluator that branches on t >= 0 (ValueError on an array) and an
    # oracle that indexes a list by n (TypeError): each is tried whole once,
    # then mapped point by point, to the values of their array twins
    whole = {"F": 0, "dF": 0}

    def F(t):
        whole["F"] += isinstance(t, np.ndarray)
        return 1.0 / (1.0 + t) if t >= 0 else 0.0

    def dF(t, n):
        whole["dF"] += isinstance(t, np.ndarray)
        return (-1.0) ** n * FACTORIALS[n] / (1.0 + t) ** (n + 1)

    scalar = FunctionHandle(F, dF)
    twin = FunctionHandle(
        lambda t: np.where(t >= 0, 1.0, 0.0) / (1.0 + np.abs(t)),
        lambda t, n: (-1.0) ** n * np.array(FACTORIALS)[n]
        / (1.0 + t) ** (n + 1))
    K = KernelK(W1)
    xs = np.array([0.2, 0.5, 1.0, 0.5])
    if use == "class_B":
        from momentsum.carleman import SequenceM, fit_class_constant
        M = SequenceM.factorial_power(1.0)

        def run(h):
            fit = fit_class_constant("B", h, M=M, N=M, interval=(0.05, 0.5),
                                     grid_size=6, n_max=5, n_min=1)
            return [fit.C, *fit.per_n.values()]
    else:
        ns = 0 if use == "laplace_value" else np.array([0, 1, 2, 6])

        def run(h):
            return laplace_derivative_n(h, K, xs, ns, tol=1e-11).tolist()
    assert run(scalar) == run(twin)
    want = {"laplace_value": {"F": 1, "dF": 0}}.get(use, {"F": 0, "dF": 1})
    assert whole == want
    # a point whose call overflows reads inf
    got = _array_or_pointwise(math.exp)(np.array([1.0, 1000.0]))
    assert got.tolist() == [math.e, math.inf]


def test_de_rule_non_finite_term_is_a_named_stall():
    # an integrand that turns infinite inside its range fails with
    # QuadratureStall, never with a numpy RuntimeWarning
    from momentsum.errors import QuadratureStall
    bad = FunctionHandle(lambda t: np.where(t > 2.0, np.inf, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureStall):
            laplace_quadrature(bad, KernelK(W1), 1.0, tol=1e-10)


# -- the row batch: one DE call for many (x, n) ------------------------------

REFERENCE = json.loads((Path(__file__).parent / "de_reference.json")
                       .read_text())


@functools.cache
def _reference_weight(name):
    W = WeightSpec
    if name == "gp2sq":
        return MultiSumPlan([W.gamma_power(2.0), W.gamma_power(2.0)]) \
            .product_weight()
    return {"gp1": W.gamma_power(1.0), "gp05": W.gamma_power(0.5),
            "gp2": W.gamma_power(2.0), "il1": W.iterated_log(1)}[name]


def _platform():
    # numpy's version and its SIMD dispatch of float64 exp and log, which
    # round the DE nodes and kernels: another dispatch may move the last bit
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:                         # numpy < 2
        return None
    info = opt_func_info(func_name="^(exp|log)$", signature="float64")
    return ", ".join([f"numpy {np.__version__}"] + [
        f"{f} {next(iter(info[f].values()))['current']}"
        for f in ("exp", "log")])


def test_one_row_gives_the_single_integral_rule_bit_for_bit():
    # 150 sums (5 weights, among them the gamma_power(2)^2 product and
    # iterated_log(1); 2 series; 15 x), each ending in one laplace_quadrature:
    # value, estimate, node count and last node are those of the rule when
    # it took one integral per call (float.hex).  Bit for bit on the numpy
    # and SIMD dispatch they were taken with; elsewhere the node count is
    # exact and the rest within a few ulps of the value and of the node
    series = {"euler": EULER_SERIES,
              "gammahalf": FormalSeries(tuple((-1) ** n * math.gamma(1 + n / 2)
                                              for n in range(24)))}
    cases = REFERENCE["moment_sum"]
    assert len(cases) == 150
    exact = _platform() == REFERENCE["platform"]
    for key, want in cases.items():
        w, s, x = key.split("/")
        res = moment_sum(series[s], _reference_weight(w), float(x), tol=1e-10)
        got = [res.value, res.abs_error_estimate, res.panels,
               res.truncation_t0]
        if exact:
            assert [got[0].hex(), got[1].hex(), got[2], got[3].hex()] \
                == want, key
            continue
        value, err, panels, T = (v if isinstance(v, int) else
                                 float.fromhex(v) for v in want)
        assert got[2] == panels, key
        ulps = 16 * math.ulp(value)
        assert abs(got[0] - value) <= ulps and abs(got[1] - err) <= ulps, key
        assert abs(got[3] - T) <= 4 * math.ulp(T), key


def _rational_rows():
    # 1/(1+t) with a derivative oracle that takes arrays of (t, n)
    from scipy.special import factorial
    return FunctionHandle(lambda t: 1.0 / (1.0 + t),
                          lambda t, n: (-1.0) ** n * factorial(n)
                          / (1.0 + t) ** (n + 1))


@pytest.mark.parametrize("weight", [WeightSpec.gamma_power(1.0),
                                    WeightSpec.gamma_power(2.0),
                                    WeightSpec.iterated_log(1)],
                         ids=["gamma_power1", "gamma_power2", "iterated_log1"])
@settings(max_examples=15, deadline=None)
@given(xs=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6),
       ns=st.lists(st.integers(0, 10), min_size=1, max_size=6))
def test_each_batch_row_is_that_row_alone(weight, xs, ns):
    # each row of the (x, n) grid takes the range, levels and stop it takes
    # alone; numpy's vector loops may round F^(n) on the wider array in the
    # last bit, so the rows agree to 1e-14 relative, not bit for bit
    F, K = _rational_rows(), KernelK(weight)
    x, n = (a.ravel() for a in np.meshgrid(xs, ns))
    tol = np.where(n == 0, 1e-10, 1e-11)
    got = laplace_derivative_n(F, K, x, n, tol)
    alone = [laplace_derivative_n(F, K, a, b, c) for a, b, c in zip(x, n, tol)]
    assert got == pytest.approx(alone, rel=1e-14, abs=0)


def test_rows_that_are_zero_integrate_to_zero_in_a_batch():
    # t^2 has no third derivative: those rows are 0 on every node, and the
    # batch leaves the other rows as they are alone
    sq = FunctionHandle(lambda t: t * t, lambda t, n: np.select(
        [n == 0, n == 1, n == 2], [t * t, 2 * t, 2.0 + 0 * t], 0.0 * t))
    K = KernelK(W1)
    x, n = np.array([0.5, 0.5, 1.0, 1.0]), np.array([3, 0, 4, 2])
    got = laplace_derivative_n(sq, K, x, n, 1e-10)
    assert got.tolist() == [laplace_derivative_n(sq, K, a, b, 1e-10)
                            for a, b in zip(x, n)]
    assert got[0] == got[2] == 0.0 and got[1] == pytest.approx(0.5, rel=1e-9)
    assert laplace_derivative_n(sq, K, x, 3, 1e-10).tolist() == [0.0] * 4


def test_batching_hides_no_failure():
    # under the slow kernel 1/(1+t)^2, row n = 1 never decays (t K(t) ~ 1/t)
    # and row n = 2 turns NaN inside its range; each raises the same
    # QuadratureStall inside a batch of passing rows as it does alone.  Row
    # n = 3 turns NaN past t = 40, outside its own range, which ends near
    # t = 19: it passes inside a batch whose row x = 0.1 walks out past
    # t = 300, as it does alone
    from momentsum.errors import QuadratureStall
    slow = KernelK(WeightSpec.custom(lambda s: 0.0 * s,
                                     kernel=lambda t: (1.0 + t) ** -2,
                                     label="slow"))
    F = FunctionHandle(
        lambda t: np.exp(-t),
        lambda t, n: np.select(
            [n == 1, (n == 2) & (t > 1.0), (n == 3) & (t > 40.0), n == 3],
            [1.0, np.nan, np.nan, np.exp(-3.0 * t)], np.exp(-t)))
    passing = laplace_derivative_n(F, slow, [1.0, 2.0], 0, 1e-10)
    assert np.all(passing > 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (1, 2):
            with pytest.raises(QuadratureStall) as alone:
                laplace_derivative_n(F, slow, 1.0, bad, 1e-10)
            with pytest.raises(QuadratureStall) as batch:
                laplace_derivative_n(F, slow, [1.0, 1.0, 2.0], [0, bad, 0],
                                     1e-10)
            assert str(batch.value) == str(alone.value)
        far = laplace_derivative_n(F, slow, [1.0, 0.1], [3, 0], 1e-10)
        assert far.tolist() == pytest.approx(
            [laplace_derivative_n(F, slow, 1.0, 3, 1e-10),
             laplace_derivative_n(F, slow, 0.1, 0, 1e-10)], rel=1e-14, abs=0)


def test_rows_that_stop_early_keep_what_they_stopped_with(monkeypatch):
    # rows that stop at different levels, and a row that is 0 on the first
    # nodes, return the value, estimate, peak, node count and last node
    # they return alone, with numpy's fresh float arrays filled with NaN
    # (as freed memory may hold): a stopped row reads nothing unwritten
    from momentsum.transforms import _de_integrate
    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out
    monkeypatch.setattr(np, "empty", poisoned)
    rows = [lambda t: np.exp(-t), lambda t: np.exp(-t),
            lambda t: 0.0 * t, lambda t: t ** 3 * np.exp(-t) / (1.0 + t)]
    tol = np.array([1e-4, 1e-12, 1e-10, 1e-10])

    def stack(fs):
        return lambda ts, at: (np.array([f(ts) for f in fs]), None)
    got = _de_integrate(stack(rows), tol)
    assert len(set(got[3].tolist())) == 4       # each row stops apart
    for r, f in enumerate(rows):
        alone = _de_integrate(stack([f]), tol[r:r + 1])
        assert got[3][r] == alone[3][0]
        assert [v[r] for v in got[:3]] + [got[4][r]] == pytest.approx(
            [v[0] for v in alone[:3]] + [alone[4][0]], rel=1e-14, abs=0)


# -- the kernel table: K once per (weight, DE lattice node) -------------------

QUARTIC = FormalSeries(tuple(Fraction(c) for c in (1, -2, 3, 0, 1)))
SWEEP_X = np.linspace(0.2, 2.0, 10).tolist()


def _anchored_sweep(w, xs):
    return [moment_sum(QUARTIC, w, x, continuation="poly").value.hex()
            for x in xs]


def _count_mellin(monkeypatch):
    calls = []
    mellin = KernelK.mellin

    def counted(self, t):
        calls.append(np.size(t))
        return mellin(self, t)
    monkeypatch.setattr(KernelK, "mellin", counted)
    return calls


def test_kernel_table_sums_do_not_depend_on_call_history():
    # each node's K comes from a fill of its own aligned lattice chunk, so
    # a sweep gives the same bits forward, reversed and in a cold process
    import subprocess
    import sys
    w = WeightSpec.log_power(1.0, arg_shift=2)
    forward = _anchored_sweep(w, SWEEP_X)
    assert _anchored_sweep(w, SWEEP_X[::-1]) == forward[::-1]
    code = ("from fractions import Fraction\n"
            "from momentsum import FormalSeries, WeightSpec, moment_sum\n"
            "q = FormalSeries(tuple(Fraction(c) for c in (1, -2, 3, 0, 1)))\n"
            "w = WeightSpec.log_power(1.0, arg_shift=2)\n"
            f"for x in {SWEEP_X[::-1]!r}:\n"
            "    print(moment_sum(q, w, x, continuation='poly').value.hex())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == forward[::-1]
    for x, v in zip(SWEEP_X, forward):
        assert float.fromhex(v) == pytest.approx(QUARTIC.eval(x), rel=1e-12)


def test_repeated_anchored_sum_makes_no_mellin_calls(monkeypatch):
    w = WeightSpec.log_power(1.0, arg_shift=2)
    calls = _count_mellin(monkeypatch)
    first = moment_sum(QUARTIC, w, 1.0, continuation="poly")
    assert calls and first.value == pytest.approx(3.0, rel=1e-12)
    calls.clear()
    again = moment_sum(QUARTIC, w, 1.0, continuation="poly")
    assert calls == [] and again.value == first.value


def test_kernel_table_stops_at_its_cap(monkeypatch):
    # past the cap nodes are filled as before but not kept: the values
    # are those of an uncapped table
    from momentsum import weights
    F = FunctionHandle.from_series_eval(QUARTIC)
    full = laplace_quadrature(
        F, KernelK(WeightSpec.log_power(1.0, arg_shift=2)), 1.0).value
    monkeypatch.setattr(weights, "_KERNEL_TABLE_MAX", 20)
    w = WeightSpec.log_power(1.0, arg_shift=2)
    K = KernelK(w)
    assert laplace_quadrature(F, K, 1.0).value == full
    assert len(w._kernel_table) == 20
    assert laplace_quadrature(F, K, 1.0).value == full
    assert len(w._kernel_table) == 20


def test_kernel_table_fills_alone_the_nodes_of_a_failing_chunk(monkeypatch):
    # where a chunk's Mellin call raises (a member the sum did not ask for
    # may fail), the asked nodes are filled one per call and the sum
    # passes, within the Mellin tolerance of the chunked fill
    from momentsum.errors import DecayTooSlow
    K = KernelK(WeightSpec.iterated_log(1))
    want = laplace_quadrature(RATIONAL_HANDLE, K, 0.5)
    mellin = KernelK.mellin

    def no_chunks(self, t):
        if np.size(t) > 1:
            raise DecayTooSlow("a chunk member fails")
        return mellin(self, t)
    monkeypatch.setattr(KernelK, "mellin", no_chunks)
    w = WeightSpec.iterated_log(1)
    got = laplace_quadrature(RATIONAL_HANDLE, KernelK(w), 0.5)
    assert got.value == pytest.approx(want.value, rel=1e-12)
    assert len(w._kernel_table) == got.panels


def test_kernel_table_filled_from_threads_matches_one_thread():
    # threads summing against one weight at once fill its table with the
    # entries, and get the values, of a run in one thread
    import sys
    import threading
    xs = [0.3, 0.6, 0.9, 1.2, 1.5, 1.8]
    alone = WeightSpec.iterated_log(1)
    want = [laplace_quadrature(RATIONAL_HANDLE, KernelK(alone), x).value
            for x in xs]
    w = WeightSpec.iterated_log(1)
    got = [None] * len(xs)

    def run(i):
        got[i] = laplace_quadrature(RATIONAL_HANDLE, KernelK(w), xs[i]).value

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(xs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want
    assert w._kernel_table == alone._kernel_table


# ---------------------------------------------------------------------------
# the exact Pade solve against Gauss-Jordan over Fractions
# ---------------------------------------------------------------------------

def _fraction_gauss_jordan(A, b):
    """The exact solve as Gaussian elimination over Fractions: the oracle
    of the fraction-free solve, with the same pivot rule."""
    n = len(b)
    M = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(b[i])]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise DegenerateDenominator("singular Pade system (exact)")
        M[col], M[piv] = M[piv], M[col]
        pv = M[col][col]
        M[col] = [v / pv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [vr - f * vc for vr, vc in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def _solved(solve, *system):
    try:
        return [(v.numerator, v.denominator) for v in solve(*system)]
    except DegenerateDenominator:
        return "singular"


def _rational_series(rng, length):
    """Taylor coefficients that stress the Pade table: random rationals
    with zeros, a sum of geometric series (a rational function, so square
    blocks of singular systems), or a n!/(n + 1)-type Borel series."""
    kind = rng.integers(3)
    if kind == 0:
        return [Fraction(int(rng.integers(-9, 10)) * int(rng.integers(0, 2)),
                         int(rng.integers(1, 12))) for _ in range(length)]
    if kind == 1:
        rs = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 6)))
              for _ in range(rng.integers(1, 4))]
        return [sum(r ** k for r in rs) for k in range(length)]
    return [Fraction((-1) ** k, int(rng.integers(1, 4)) * k + 1)
            for k in range(length)]


def test_fraction_free_solve_matches_fraction_gauss_jordan():
    # 500 seeded systems, n <= 12: the integer solve returns the same
    # Fractions as elimination over Fractions, or both find it singular
    rng = np.random.default_rng(26)
    outcomes = set()
    for trial in range(500):
        kind, n = trial % 3, int(rng.integers(1, 13))
        if kind == 0:
            # Pade rows: the oracle on the coefficients, the integer solve
            # on their numerators over the common denominator
            m = int(rng.integers(0, 13))
            c = _rational_series(rng, m + n + 1)
            A = [[c[m + k - j] if m + k - j >= 0 else 0
                  for j in range(1, n + 1)] for k in range(1, n + 1)]
            b = [-c[m + k] for k in range(1, n + 1)]
            N = FormalSeries(tuple(c)).numerators
            M = [[N[m + k - j] if m + k - j >= 0 else 0
                  for j in range(1, n + 1)] + [-N[m + k]]
                 for k in range(1, n + 1)]
        else:
            if kind == 1:      # rank below n: a sum of r < n outer products
                A = np.zeros((n, n), int) + sum(
                    np.outer(rng.integers(-4, 5, n), rng.integers(-4, 5, n))
                    for _ in range(int(rng.integers(0, n))))
            else:              # sparse, so pivots need row swaps
                A = rng.integers(-30, 31, (n, n)) * (rng.random((n, n)) < 0.3)
            A, b = A.tolist(), rng.integers(-50, 51, n).tolist()
            M = [row + [v] for row, v in zip(A, b)]
        got = _solved(_solve_exact, M)
        assert got == _solved(_fraction_gauss_jordan, A, b), (trial, A, b)
        outcomes.add((kind, got == "singular"))
    # every kind gave singular systems, and the Pade and sparse kinds
    # solvable ones too
    assert outcomes >= {(0, True), (0, False), (1, True), (2, True),
                        (2, False)}


def test_pade_walk_matches_the_fraction_solve(monkeypatch):
    # on 100 seeded rational series the walk keeps the same approximant,
    # coefficient for coefficient, and evaluates to the same floats
    rng = np.random.default_rng(2601)
    series = [FormalSeries(tuple(_rational_series(rng,
                                                  int(rng.integers(2, 25)))))
              for _ in range(100)]
    points = (0.05, 0.7, 3.0, 11.0)

    def walk():
        out = []
        for s in series:
            F, diag, pa = continue_borel_series(s)
            out.append((diag["continuation"], pa.num, pa.den,
                        [float(F(t)).hex() for t in points]))
        return out

    got = walk()
    monkeypatch.setattr(transforms, "_solve_exact", lambda M: (
        _fraction_gauss_jordan([r[:-1] for r in M], [r[-1] for r in M])))
    assert got == walk()
    assert len({label for label, *_ in got}) > 5


def test_numerators_over_the_common_denominator():
    s = FormalSeries((Fraction(1, 2), Fraction(-2, 3), 5, Fraction(0)))
    assert s.numerators == (3, -4, 30, 0)
    assert s.numerators is s.numerators       # cached on the series


LOG_SERIES_X1 = 0.74519595638609668   # int_0^inf e^-t log(1+t)/t dt, mpmath


def test_exact_walk_keeps_the_order_the_float_solve_drops():
    # a_n = (-1)^n n!/(n + 1): under gamma_power(1) its Borel transform is
    # log(1 + t)/t, a branch cut no Pade approximant has.  The exact solve
    # keeps pade(12,11); the float copy of the same series fails the
    # condition test there and falls to pade(10,9), 20 times further off.
    # A continuation that replaces the exact solve must keep the exact
    # accuracy.  Whether the estimate (~1e-15) covers these errors is the
    # continuation term of the error budget (ROADMAP directions 1 and 18),
    # so it is not asserted here.
    a = FormalSeries(tuple(Fraction((-1) ** n * math.factorial(n), n + 1)
                           for n in range(24)))
    exact = moment_sum(a, W1, 1.0)
    assert exact.diagnostics["continuation"] == "pade(12,11)"
    assert abs(exact.value - LOG_SERIES_X1) <= 1e-10
    floats = moment_sum(FormalSeries(tuple(float(c) for c in a.coeffs)),
                        W1, 1.0)
    assert floats.diagnostics["continuation"] == "pade(10,9)"
    assert abs(floats.value - LOG_SERIES_X1) <= 2e-9


# ---------------------------------------------------------------------------
# x < 0: a Pade pole on the negative ray fails fast
# ---------------------------------------------------------------------------

def test_pade_pole_on_the_negative_ray_raises_before_the_quadrature(
        monkeypatch):
    # the Euler series' Borel transform 1/(1 + t) has its pole at t = -1,
    # on the ray that x < 0 integrates along
    def no_quadrature(*args):
        raise AssertionError("quadrature reached")
    monkeypatch.setattr(transforms, "laplace_quadrature", no_quadrature)
    with pytest.raises(PZeroOnRay, match=r"pade\(2,1\) has a pole at t=-1"):
        moment_sum(EULER_SERIES, W1, -0.5)


def test_distant_pole_on_the_negative_ray_is_passed_over():
    # at x = -0.01 the pole's image t = 100 has e^-t = 4e-44, far below the
    # DE rule's end floor 1e-3 * tol: the sum is the principal value
    # 100 e^-100 Ei(100) (mpmath); at x = -0.05, t = 20 and e^-t = 2e-9
    # lie above it, and the pole raises
    res = moment_sum(EULER_SERIES, W1, -0.01)
    assert res.diagnostics["continuation"] == "pade(2,1)"
    assert abs(res.value - 1.0102062527748357114) < 1e-13
    with pytest.raises(PZeroOnRay, match="t=-1"):
        moment_sum(EULER_SERIES, W1, -0.05)
    # the floor scales with tol: at tol 1e-4 the pole at t = 20 is passed
    # over, and the sum is within tol of 20 e^-20 Ei(20)
    res = moment_sum(EULER_SERIES, W1, -0.05, tol=1e-4)
    assert abs(res.value - 1.05595590559296) < 1e-4


def test_negative_x_sums_without_poles_on_its_ray():
    # Borel transform 1/(1 + t^2): poles at +-i, on neither ray, and the
    # integrand F(x t) e^-t is even in x
    a = FormalSeries(tuple(Fraction((k % 4 == 0) - (k % 4 == 2)) *
                           math.factorial(k) for k in range(12)))
    left, right = moment_sum(a, W1, -0.5), moment_sum(a, W1, 0.5)
    assert left.diagnostics["continuation"] == "pade(3,2)"
    assert left.to_json() == right.to_json()
