import cmath
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentsum.errors import (DomainError, IncompatibleGrowth,
                              PoleOnRayWarning)
from momentsum.kernels import EntireE, KernelK
from momentsum.transforms import (FormalSeries, FunctionHandle, borel_coeffs,
                                  borel_contour, laplace_derivative_n,
                                  laplace_quadrature, moment_sum,
                                  pade_continue, remainder_Rn)
from momentsum.weights import WeightSpec

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

    def test_division_inverts_product(self):
        a = FormalSeries((Fraction(1), Fraction(3), Fraction(-2), Fraction(5)))
        b = FormalSeries((Fraction(2), Fraction(-1), Fraction(4), Fraction(1)))
        assert a.cauchy_mul(b).divide_by_unit(b).coeffs == a.coeffs

    @given(st.lists(st.fractions(min_value=-10, max_value=10), min_size=2,
                    max_size=8),
           st.lists(st.fractions(min_value=-10, max_value=10), min_size=2,
                    max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_ring_commutativity(self, xs, ys):
        a, b = FormalSeries(tuple(xs)), FormalSeries(tuple(ys))
        assert a.cauchy_mul(b).coeffs == b.cauchy_mul(a).coeffs
        assert (a + b).coeffs == (b + a).coeffs


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
        with pytest.warns(PoleOnRayWarning):
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
        comb = a.scale(2) + b.scale(-3)
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


def test_integrand_trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    laplace_quadrature(RATIONAL_HANDLE, KernelK(W1), 1.0, tol=1e-9,
                       trace_path=path)
    rows = Path(path).read_text().splitlines()
    assert rows[0].startswith("#") and rows[1] == "t,integrand"
    assert len(rows) == 202
    t1, v1 = rows[3].split(",")
    assert float(v1) == pytest.approx(
        math.exp(-float(t1)) / (1 + float(t1)), rel=1e-9)


def test_series_auto_switch_to_asymptotic():
    # past the term cap the evaluator hands over to the saddle branch
    w = WeightSpec.gamma_power(1.5)
    ref = EntireE(w).log_eval_real(60.0)
    E = EntireE(w, n_cap=300, auto_asymptotic=True)
    got = E.log_eval_real(60.0)
    assert abs(got - ref) / ref < 0.02
    E2 = EntireE(w, n_cap=300, auto_asymptotic=False)
    from momentsum.errors import TruncationError
    with pytest.raises(TruncationError):
        E2.series(60.0)


class TestFiniteDifferenceFallback:
    def test_orders_up_to_cap(self):
        h = FunctionHandle(lambda x: math.sin(x))      # no oracle
        for n, tol in ((1, 1e-7), (2, 1e-5), (4, 1e-3), (6, 5e-2)):
            want = math.sin(0.7 + n * math.pi / 2)     # d^n sin
            assert abs(h.derivative(0.7, n) - want) < tol

    def test_cap_enforced(self):
        from momentsum.errors import DerivativeUnavailable
        h = FunctionHandle(lambda x: math.sin(x))
        with pytest.raises(DerivativeUnavailable):
            h.derivative(0.5, 9)


def test_quadrature_stall_on_small_cap():
    from momentsum.errors import QuadratureStall
    slow = FunctionHandle(lambda t: math.exp(0.9 * t), growth_eta=0.9)
    with pytest.raises(QuadratureStall):
        laplace_quadrature(slow, KernelK(W1), 1.0, tol=1e-10, t_cap=10.0)


def test_degenerate_denominator_paths():
    from momentsum.errors import DegenerateDenominator
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


def test_de_rule_non_finite_term_is_a_named_stall():
    # an integrand that turns infinite inside its range fails with
    # QuadratureStall, never with a numpy RuntimeWarning
    from momentsum.errors import QuadratureStall
    bad = FunctionHandle(lambda t: np.where(t > 2.0, np.inf, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureStall):
            laplace_quadrature(bad, KernelK(W1), 1.0, tol=1e-10)
