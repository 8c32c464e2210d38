import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln, loggamma

from momentsum.applications import (MultiSumPlan, Transseries, euler_apply_P,
                                    euler_solve, multisum, shift_laplace_check,
                                    transseries_decompose,
                                    transseries_synthesize_jets)
from momentsum.errors import DomainError, OrderingError, PZeroOnRay
from momentsum.kernels import EntireE
from momentsum.transforms import (FormalSeries, FunctionHandle, borel_coeffs,
                                  moment_sum, pade_continue)
from momentsum.weights import WeightSpec

W1 = WeightSpec.gamma_power(1.0)
W2 = WeightSpec.gamma_power(2.0)


def dup_split_weight():
    """Second factor of n! = Gamma(1+n/2) * (2^n Gamma((n+1)/2)/sqrt(pi)),
    whose kernel is the Gaussian exp(-t^2/4)/sqrt(pi)."""
    def ev(s):
        return complex(s) * math.log(2.0) + loggamma((complex(s) + 1) / 2) \
            - 0.5 * math.log(math.pi)

    def kern(t):
        t = complex(t)
        v = cmath.exp(-t * t / 4) / math.sqrt(math.pi)
        return v.real if t.imag == 0 else v

    return WeightSpec.custom(ev, kernel=kern, min_real=0.0,
                             label="dup_split")


class TestIteratedLog:
    def test_values(self):
        w = WeightSpec.iterated_log(1)
        assert math.exp(w.log_gamma(2)) == pytest.approx(
            math.log(1 + math.e), rel=1e-12)
        assert math.exp(WeightSpec.iterated_log(2).log_gamma(1)) == \
            pytest.approx(1.0)

    def test_k1_is_beurling(self):
        w = WeightSpec.iterated_log(1)
        for n in (1, 4, 9):
            assert math.exp(w.log_gamma(n + 1)) == pytest.approx(
                math.log(n + math.e) ** n, rel=1e-12)

    def test_bad_k(self):
        with pytest.raises(DomainError):
            WeightSpec.iterated_log(0)


class TestMultisum:
    def test_polynomial_identity_over_plans(self):
        rng = random.Random(11)
        plans = [MultiSumPlan([W2, W2], continuation="poly"),
                 MultiSumPlan([W2, dup_split_weight()], continuation="poly"),
                 MultiSumPlan([W1], continuation="poly")]
        for plan in plans:
            for _ in range(4):
                deg = rng.randint(2, 20)
                a = FormalSeries(tuple(Fraction(rng.randint(-9, 9))
                                       for _ in range(deg + 1)))
                x = rng.uniform(0.1, 0.8)
                r = multisum(a, plan, x)
                assert abs(r.value - a.eval(x)) < 1e-6

    def test_k1_plan_equals_moment_sum(self):
        a = FormalSeries(tuple(Fraction(v) for v in (1, -2, 3, 0, 5)))
        r1 = multisum(a, MultiSumPlan([W1], continuation="poly"), 0.4)
        r2 = moment_sum(a, W1, 0.4, continuation="poly")
        assert r1.value == pytest.approx(r2.value, abs=1e-12)

    def test_euler_two_stage_vs_single(self):
        euler = FormalSeries(tuple(Fraction((-1) ** n * math.factorial(n))
                                   for n in range(20)))
        plan = MultiSumPlan([W2, dup_split_weight()])
        r2 = multisum(euler, plan, 0.5)
        r1 = moment_sum(euler, W1, 0.5, tol=1e-10)
        assert abs(r2.value - r1.value) <= \
            r2.abs_error_estimate + r1.abs_error_estimate

    def test_product_weight_consistency(self):
        plan = MultiSumPlan([W2, dup_split_weight()])
        wp = plan.product_weight()
        for n in range(0, 41, 8):
            lp = wp.moment_log(n)
            assert abs(lp - gammaln(n + 1.0)) < 1e-10 * max(1, abs(lp))


@pytest.mark.parametrize("ws", [[W2, W2], [W2, WeightSpec.iterated_log(1)]],
                         ids=["gamma2_squared", "gamma2_iterated_log1"])
def test_product_eps_is_the_sum_of_the_factors(ws):
    # log gamma of a product is the sum of the factors' log gamma, so its
    # eps is the sum of theirs: no central difference of the product
    from momentsum.weights import eval_eps, moment_weight
    twin = moment_weight(MultiSumPlan(ws).product_weight())
    for s in (3.7, 11.0, 145.0):
        eps = eval_eps(twin, s)
        want = sum(eval_eps(moment_weight(w), s) for w in ws)
        assert eps == pytest.approx(want, rel=1e-14)
        assert eps == pytest.approx(eval_eps(twin, s, force_numeric=True),
                                    rel=1e-8)


class TestShift:
    F = FunctionHandle(lambda t: 1.0 / (1.0 + t) if t >= 0 else 0.0)

    def test_identity_accuracy(self):
        for a in (0.5, 1.0):
            for x in (0.3, 0.5):
                r = shift_laplace_check(self.F, a, W1, x)
                assert r.rel_deviation <= 1e-8

    def test_left_side_matches_adaptive_quadrature(self):
        # the DE rule on F(x t - a) e^-t against scipy's QUADPACK on
        # [a/x, a/x + 60], where e^-t is below 1e-26 of its start
        from scipy.integrate import quad
        for a in (0.5, 1.0):
            for x in (0.3, 0.5):
                want, _ = quad(lambda t: self.F(x * t - a) * math.exp(-t),
                               a / x, a / x + 60.0, epsabs=1e-11,
                               epsrel=1e-11, limit=300)
                got = shift_laplace_check(self.F, a, W1, x).lhs
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_a_zero_trivial(self):
        r = shift_laplace_check(self.F, 0.0, W1, 0.5)
        assert r.rel_deviation == 0.0

    def test_additivity_of_exponents(self):
        # shifting by a then b multiplies by e^{-(a+b)/x}
        x = 0.4
        ra = shift_laplace_check(self.F, 0.7, W1, x)
        factor_a = math.exp(-0.7 / x)
        rb = shift_laplace_check(self.F, 1.2, W1, x)
        factor_ab = math.exp(-(0.7 + 1.2) / x)
        assert ra.rhs / factor_a == pytest.approx(rb.rhs / math.exp(-1.2 / x),
                                                  rel=1e-9)
        assert factor_a * math.exp(-1.2 / x) == pytest.approx(factor_ab)

    def test_non_classical_rejected(self):
        with pytest.raises(DomainError):
            shift_laplace_check(self.F, 0.5, W2, 0.3)


class TestTransseries:
    def test_single_block(self):
        jets = [[1.0, 2.0, 3.0, 4.0]]
        ts = transseries_decompose(jets, [0.0])
        assert ts.blocks[0] == (1.0, 2.0, 3.0, 4.0)

    def test_two_block_round_trip(self):
        G = [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125]
        H = [2.0, -1.0, 3.0, 0.5, -0.25, 0.1, 0.05, 0.01]
        jets = transseries_synthesize_jets([G, H], [0.0, 1.0], 7)
        ts = transseries_decompose(jets, [0.0, 1.0])
        for got, want, rem in zip(ts.blocks, (G, H), ts.remainder_estimates):
            for a, b in zip(got, want):
                assert abs(a - b) <= rem + 1e-12

    def test_zero_function(self):
        jets = [[0.0] * 5, [0.0] * 5]
        ts = transseries_decompose(jets, [0.0, 0.5])
        assert all(all(c == 0 for c in b) for b in ts.blocks)

    def test_ordering_enforced(self):
        with pytest.raises(OrderingError):
            transseries_decompose([[1.0], [1.0]], [1.0, 0.5])
        with pytest.raises(OrderingError):
            Transseries((-1.0, 0.5), ((1.0,), (1.0,)))


class TestEulerOperator:
    # V is P(V) with P = t: euler_apply_P((0, 1), ...)
    def test_apply_V_classical(self):
        a = FormalSeries((Fraction(1), Fraction(1), Fraction(1)))
        va = euler_apply_P((0, 1), a, W1)
        assert va.coeffs == (Fraction(0), Fraction(1), Fraction(2), Fraction(3))

    @pytest.mark.parametrize("coeffs", [
        tuple(Fraction(k, 3) for k in range(1, 9)),
        tuple(0.25 * k for k in range(1, 9))], ids=["exact", "float"])
    @pytest.mark.parametrize("w", [W1, W2], ids=["alpha1", "alpha2"])
    def test_V_power_is_P_of_monomial(self, coeffs, w):
        # V applied three times is P(V) with P = t^3
        a = FormalSeries(coeffs)
        v3 = a
        for _ in range(3):
            v3 = euler_apply_P((0, 1), v3, w)
        assert v3.coeffs == pytest.approx(
            euler_apply_P((0, 0, 0, 1), a, w).coeffs, rel=1e-13)

    def test_V_of_zero(self):
        z = FormalSeries((Fraction(0),) * 4)
        assert all(c == 0 for c in euler_apply_P((0, 1), z, W1).coeffs)

    def test_borel_intertwining_degree30(self):
        rng = random.Random(2)
        a = FormalSeries(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                               for _ in range(31)))
        va = euler_apply_P((0, 1), a, W1)
        b_va = borel_coeffs(va, W1)
        b_a = borel_coeffs(a, W1)
        assert b_va.coeffs[0] == 0
        assert b_va.coeffs[1:] == b_a.coeffs[:len(b_va) - 1]

    def test_linearity(self):
        rng = random.Random(4)
        a = FormalSeries(tuple(Fraction(rng.randint(-9, 9)) for _ in range(12)))
        b = FormalSeries(tuple(Fraction(rng.randint(-9, 9)) for _ in range(12)))
        a_plus_b = FormalSeries(tuple(x + y
                                      for x, y in zip(a.coeffs, b.coeffs)))
        lhs = euler_apply_P((0, 1), a_plus_b, W1)
        va, vb = euler_apply_P((0, 1), a, W1), euler_apply_P((0, 1), b, W1)
        assert lhs.coeffs == tuple(x + y for x, y in zip(va.coeffs, vb.coeffs))

    def test_operator_screen(self):
        # euler_solve screens P on the Borel ray before any recursion
        g = FormalSeries((Fraction(0), Fraction(1)))
        with pytest.raises(PZeroOnRay):
            euler_solve((1.0, -1.0), g, W1, 0.3)     # root at t = 1
        with pytest.raises(PZeroOnRay):
            euler_solve((0.0, 1.0), g, W1, 0.3)      # P(0) = 0
        euler_solve((1.0, 2.0, 1.0), g, W1, 0.3)     # (1+t)^2 fine

    def test_near_real_root_is_on_the_ray_for_both_screens(self):
        # P = (t - r)(t - conj r), r = 0.01 + 5e-10 i: Pade's pole screen
        # and euler_solve's zero screen read r as on the ray alike
        a, d = Fraction(1, 100), Fraction(1, 2 * 10 ** 9)
        P = (a * a + d * d, -2 * a, Fraction(1))
        q = [c / P[0] for c in P]
        c = [Fraction(1), -q[1]]                  # 1/Q(t) = sum_k c_k t^k
        for k in range(2, 6):
            c.append(-q[1] * c[k - 1] - q[2] * c[k - 2])
        pa = pade_continue(FormalSeries(tuple(c)), (0, 2))
        assert list(pa.den) == q
        assert 1e-10 < abs(pa.poles[0].imag) < 1e-9
        assert pa.pole_on_ray
        with pytest.raises(PZeroOnRay, match="t=0.01"):
            euler_solve(P, FormalSeries((Fraction(0), Fraction(1))), W1, 0.3)


class TestEulerSolve:
    G = FormalSeries(tuple([Fraction(0), Fraction(1)] + [Fraction(0)] * 19))

    def test_formal_recursion_exact(self):
        sol = euler_solve((Fraction(1), Fraction(1)), self.G, W1, 0.3)
        want = [Fraction(0)] + [Fraction((-1) ** (n + 1) * math.factorial(n))
                                for n in range(1, 21)]
        assert list(sol.series.coeffs) == want

    def test_residual_vanishes(self):
        sol = euler_solve((Fraction(1), Fraction(1)), self.G, W1, 0.3)
        resid = euler_apply_P((Fraction(1), Fraction(1)), sol.series, W1)
        for m in range(21):
            want = self.G[m] if m < len(self.G) else Fraction(0)
            assert resid[m] == want

    def test_two_path_agreement(self):
        sol = euler_solve((Fraction(1), Fraction(1)), self.G, W1, 0.3,
                          tol=1e-11)
        formal = moment_sum(sol.series, W1, 0.3, tol=1e-11)
        assert abs(sol.quadrature.value - formal.value) < 1e-6

    def test_recursion_past_g_stays_exact(self):
        # g padded with exact zeros to degree 30: past x the recursion must
        # still divide in Fractions
        g = FormalSeries(self.G.coeffs + (Fraction(0),) * 10)
        sol = euler_solve((1, 1), g, W1, 0.3)
        f = sol.series.coeffs
        assert len(f) == 31
        assert all(isinstance(c, Fraction) for c in f)
        assert list(f) == [0] + [(-1) ** (n + 1) * math.factorial(n)
                                 for n in range(1, 31)]

    def test_identity_operator(self):
        sol = euler_solve((Fraction(1),), self.G, W1, 0.3)
        assert sol.series.coeffs[:len(self.G)] == self.G.coeffs

    def test_p_zero_on_ray(self):
        with pytest.raises(PZeroOnRay):
            euler_solve((Fraction(1), Fraction(-1)), self.G, W1, 0.3)


def test_three_stage_plan_on_polynomials():
    # one cheap probe at loose tolerance
    plan = MultiSumPlan([W2, W2, W2], continuation="poly", tol=1e-6)
    a = FormalSeries(tuple(Fraction(c) for c in (2, -1, 3)))
    r = multisum(a, plan, 0.4)
    assert abs(r.value - a.eval(0.4)) < 1e-4


def test_stage_error_carries_index():
    # the collapsed pipeline has no stages: a failure surfaces as its own
    # named error, and the message names the plan
    from momentsum.errors import IncompatibleGrowth
    bad = FunctionHandle(lambda t: math.exp(2.0 * t), growth_eta=2.0,
                         label="too-fast")
    plan = MultiSumPlan([W1, W1], continuation=bad)
    with pytest.raises(IncompatibleGrowth,
                       match=r"plan gamma_power\(alpha=1\) \* gamma_power"):
        multisum(FormalSeries((Fraction(1), Fraction(1))), plan, 0.9)


def test_cauchy_identity_through_two_stages():
    # the product-weight growth tag is absorbed by the stage kernels, so
    # the Cauchy identity runs through the pipeline for x inside the disk
    plan = MultiSumPlan([W2, W2])
    wp = plan.product_weight()
    E = EntireE(wp)
    handle = FunctionHandle(lambda t: E.eval(t).real, growth_eta=1.0,
                            growth_weight=wp, label="E")
    plan = MultiSumPlan([W2, W2], continuation=handle)
    ones = FormalSeries(tuple(Fraction(1) for _ in range(8)))
    for x in (0.3, 0.8):
        r = multisum(ones, plan, x)
        assert abs(r.value - 1.0 / (1.0 - x)) < 1e-6
    from momentsum.errors import IncompatibleGrowth
    with pytest.raises(IncompatibleGrowth):
        multisum(ones, plan, 1.3)


PLANS = {"2-stage": [W2, W2], "3-stage": [W2, W2, W2],
         "dup_split": [W2, dup_split_weight()]}


@pytest.mark.parametrize("name", list(PLANS))
def test_collapsed_multisum_reproduces_polynomials(name, monkeypatch):
    # one Laplace integral against the product kernel per sum, within
    # 1e-12 of the polynomial and within the estimate
    import warnings
    from momentsum import transforms
    calls = []
    rule = transforms.laplace_quadrature
    monkeypatch.setattr(transforms, "laplace_quadrature",
                        lambda *a, **k: calls.append(1) or rule(*a, **k))
    plan = MultiSumPlan(PLANS[name], continuation="poly", tol=1e-9)
    rng = random.Random(len(name))
    cases = [((1, -2, 3), 0.3)] + [
        (tuple(rng.randint(-9, 9) for _ in range(rng.randint(2, 20) + 1)),
         rng.uniform(0.1, 0.8)) for _ in range(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for coeffs, x in cases:
            a = FormalSeries(tuple(Fraction(c) for c in coeffs))
            r = multisum(a, plan, x)
            err = abs(r.value - a.eval(x))
            assert err <= 1e-12 * max(1.0, abs(a.eval(x)))
            assert err <= r.abs_error_estimate
    assert len(calls) == len(cases)


def test_plans_share_one_product_weight():
    # equal stage weights give the one product instance, so its moment
    # cache and kernel table carry over from plan to plan
    wp = MultiSumPlan([W2, W2]).product_weight()
    assert MultiSumPlan([WeightSpec.gamma_power(2.0), W2],
                        continuation="poly").product_weight() is wp
    assert MultiSumPlan([W2, W2, W2]).product_weight() is not wp
    assert MultiSumPlan([W2]).product_weight() is W2
