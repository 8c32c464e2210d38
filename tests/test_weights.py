import math

import numpy as np
import pytest

from momentsum import weights
from momentsum.errors import (DomainError, MomentSumError, NoConvergence,
                              UnsupportedFamily)
from momentsum.weights import (WeightSpec, _brent, eval_eps,
                               gamma_hat_closed_log, gamma_hat_numeric,
                               L_inverse, moment_weight, solve_saddle)

W1 = WeightSpec.gamma_power(1.0)
W2 = WeightSpec.gamma_power(2.0)

LOG10_POW10 = 4189.44879802953   # (ln 10)^10, mpmath 30 digits


class TestEvalGamma:
    def test_gamma_power_integer_values(self):
        assert math.exp(W1.log_gamma(5)) == pytest.approx(120.0, rel=1e-12)

    def test_gamma_power_at_zero(self):
        assert math.exp(W1.log_gamma(0)) == pytest.approx(1.0, rel=1e-12)

    def test_log_power_value(self):
        w = WeightSpec.log_power(1.0)
        assert math.exp(w.log_gamma(10)) == pytest.approx(LOG10_POW10,
                                                          rel=1e-10)

    def test_outside_sector_raises(self):
        with pytest.raises(DomainError):
            W1.log_gamma(-4.0)

    def test_moment_sequence_is_factorial(self):
        for n in range(8):
            assert W1.moment(n) == pytest.approx(math.factorial(n), rel=1e-12)


class TestLEps:
    def test_eps_limit_gamma_power(self):
        eps = eval_eps(W1, 1e4)
        assert eps == pytest.approx(1.0, abs=2e-3)

    def test_eps_log_power_decay(self):
        w = WeightSpec.log_power(1.0)
        eps = eval_eps(w, 1e5)
        assert eps == pytest.approx(1.0 / math.log(1e5), rel=1e-6)

    @pytest.mark.parametrize("w,s", [(W1, 3.0), (W2, 7.0),
                                     (WeightSpec.log_power(2.0), 30.0),
                                     (WeightSpec.iterated_log(1), 12.0)])
    def test_eps_positive_on_ray(self, w, s):
        eps = eval_eps(w, s)
        assert float(np.real(eps)) > 0

    @pytest.mark.parametrize("w", [
        W2, WeightSpec.iterated_log(1), WeightSpec.iterated_log(2),
        moment_weight(WeightSpec.iterated_log(1))],
        ids=["gamma_power2", "iterated_log1", "iterated_log2",
             "moment_iterated_log1"])
    def test_numeric_matches_analytic(self, w):
        # consistency invariant: finite differences against the family's
        # analytic eps (the digamma form for gamma_power)
        for s in (3.7, 11.0, 145.0):
            ea = eval_eps(w, s)
            en = eval_eps(w, s, force_numeric=True)
            assert abs(ea - en) / abs(ea) < 1e-6

    def test_shifted_weight_eps_consistent(self):
        mw = moment_weight(W1)
        ea = eval_eps(mw, 23.4)
        en = eval_eps(mw, 23.4, force_numeric=True)
        assert abs(ea - en) / abs(ea) < 1e-6


class TestSaddle:
    def test_classical_saddle_near_z(self):
        sp = solve_saddle(W1, 100.0)
        assert abs(sp.s_z - 100.0) / 100.0 < 0.05
        assert sp.residual < 1e-10

    def test_positive_ray_gives_real_saddle(self):
        for w in (W1, W2, WeightSpec.log_power(1.0)):
            sp = solve_saddle(w, 55.0)
            assert abs(sp.s_z.imag) == 0.0
            assert sp.s_z.real > 0

    def test_newton_residual_alpha2(self):
        sp = solve_saddle(W2, 50.0, tol=1e-10)
        assert sp.residual < 1e-10

    def test_complex_z_round_trip(self):
        z = 60.0 * np.exp(0.3j)
        sp = solve_saddle(W1, z, tol=1e-11)
        assert sp.residual < 1e-11

    def test_below_threshold_raises(self):
        with pytest.raises(DomainError):
            solve_saddle(W1, 1e-3)

    def test_saddle_past_bracket_reach_is_named(self):
        # log_power's saddle for z = 1e3 sits near e^1000, beyond the 200
        # doublings of the bracket: a named error, not scipy's ValueError
        with pytest.raises(MomentSumError):
            solve_saddle(WeightSpec.log_power(1.0), 1e3)

    @staticmethod
    def _mp_saddle(mp, h):
        """exp(u) at the root of the increasing h(u), u = log s, at 30
        digits."""
        with mp.workdps(30):
            lo, hi = mp.mpf(1), mp.mpf(2)
            while h(hi) < 0:
                lo, hi = hi, 2 * hi
            return float(mp.exp(mp.findroot(h, (lo, hi), solver="anderson")))

    @pytest.mark.parametrize("z", [13.0, 37.0, 104.0])
    def test_iterated_log_saddle_matches_mpmath(self, z):
        # iterated_log(1): log L + eps = log log m + (s - 1)/(m log m) with
        # m = s - 1 + e
        mp = pytest.importorskip("mpmath")

        def h(u):
            s = mp.exp(u)
            m = s - 1 + mp.e
            return mp.log(mp.log(m)) + (s - 1) / (m * mp.log(m)) - mp.log(z)
        want = self._mp_saddle(mp, h)
        got = solve_saddle(WeightSpec.iterated_log(1), z).s_z
        assert got.imag == 0.0
        assert abs(got.real - want) / want < 1e-12

    @pytest.mark.parametrize("z", [13.0, 60.0, 130.0])
    def test_log_power_saddle_matches_mpmath(self, z):
        # log_power(1): log L + eps = log u + 1/u; at z = 130 the saddle
        # lies near 1e56, close to the far end of the ray grid
        mp = pytest.importorskip("mpmath")
        want = self._mp_saddle(mp, lambda u: mp.log(u) + 1 / u - mp.log(z))
        got = solve_saddle(WeightSpec.log_power(1.0), z).s_z
        assert got.imag == 0.0
        assert abs(got.real - want) / want < 1e-12


class TestLInverse:
    @pytest.mark.parametrize("w", [W1, WeightSpec.log_power(1.0)],
                             ids=["gamma_power", "log_power"])
    @pytest.mark.parametrize("k", [3.0, 50.0, 1e6, 1e40])
    def test_round_trip(self, w, k):
        from momentsum.weights import log_L
        r = math.exp(float(np.real(log_L(w, k))))
        assert L_inverse(w, r) == pytest.approx(k, rel=1e-9)

    @pytest.mark.parametrize("w", [W1, WeightSpec.log_power(1.0)],
                             ids=["gamma_power", "log_power"])
    def test_clamped_below(self, w):
        # L(2) = sqrt(2) for gamma_power(1), L(2.1) = log 2.1 for log_power(1)
        assert L_inverse(w, 0.5) == max(w.min_real + 1.0, 2.0)


class TestBrent:
    # the built-in families, and the z and r at which a real root is asked
    WEIGHTS = [WeightSpec.gamma_power(a) for a in (0.5, 1.0, 2.0, 3.0)] + [
        WeightSpec.log_power(1.0), WeightSpec.iterated_log(1),
        WeightSpec.exp_logpower(0.5), WeightSpec.loglog_power(1.0),
        WeightSpec.exp_log_over_loglog(1.0)]
    SADDLE_Z = (1.5, 2.0, 5.0, 10.0, 50.0, 100.0, 1e3)
    L_INVERSE_R = (2.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6)

    def _roots(self):
        """Each saddle and L^-1 on the grids as float.hex, or the type of
        the named error that the call raises."""
        def outcome(fn, v):
            try:
                return fn(v).hex()
            except MomentSumError as exc:
                return type(exc)
        out = []
        for w in self.WEIGHTS:
            out += [outcome(lambda z: solve_saddle(w, z).s_z.real, z)
                    for z in self.SADDLE_Z]
            out += [outcome(lambda r: L_inverse(w, r), r)
                    for r in self.L_INVERSE_R]
        return out

    def test_roots_are_scipy_brentq_bit_for_bit(self, monkeypatch):
        from scipy.optimize import brentq
        got = self._roots()
        monkeypatch.setattr(weights, "_brent",
                            lambda f, a, b, xtol, rtol: brentq(
                                f, a, b, xtol=xtol, rtol=rtol,
                                maxiter=weights._BRENT_MAXITER))
        assert got == self._roots()
        assert sum(isinstance(v, str) for v in got) == 87

    def test_failures_are_named(self, monkeypatch):
        with pytest.raises(NoConvergence, match="no sign change"):
            _brent(lambda x: x * x + 1.0, -1.0, 2.0, 1e-12, 1e-15)
        with pytest.raises(NoConvergence, match="NaN"):
            _brent(lambda x: math.nan if x > 1.0 else x - 0.5, 0.0, 2.0,
                   1e-12, 1e-15)
        with pytest.raises(NoConvergence, match="NaN"):
            _brent(lambda x: math.nan if x < 0.5 else x - 1.0, 0.0, 2.0,
                   1e-12, 1e-15)
        monkeypatch.setattr(weights, "_BRENT_MAXITER", 2)
        with pytest.raises(NoConvergence, match="2 steps"):
            _brent(lambda x: x ** 3 - 1.0 / 3.0, 0.0, 2.0, 1e-12, 1e-15)
        assert _brent(lambda x: x - 0.5, 0.5, 2.0, 1e-12, 1e-15) == 0.5


class TestGammaHat:
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_table_scale(self, alpha):
        from scipy.special import gammaln
        w = WeightSpec.gamma_power(alpha)
        ent = gamma_hat_numeric(w, 40)
        root = math.exp((ent.log_value - gammaln(41.0)) / 40)
        assert abs(root * math.pi / (2 * alpha) - 1.0) < 0.05

    def test_n_zero_peak(self):
        ent = gamma_hat_numeric(W1, 0)
        # |Gamma(1 + i rho)| peaks at rho -> 0 with value 1
        assert ent.log_value == pytest.approx(0.0, abs=1e-3)

    def test_real_only_weight_takes_the_asymptotic_form(self):
        # a weight without complex arguments maximizes n log rho - (pi/2)
        # rho eps(rho); on the classical weight's real values its n-th root
        # approaches the analytic continuation's as n grows
        from scipy.special import gammaln
        real = WeightSpec.custom(lambda s: gammaln(1.0 + np.real(s)),
                                 min_real=0.0, complex_capable=False)
        gaps = []
        for n in (10, 40):
            ent = gamma_hat_numeric(real, n)
            assert ent.mode == "asymptotic_form"
            gaps.append(abs(math.exp(
                (ent.log_value - gamma_hat_numeric(W1, n).log_value) / n) - 1))
        assert gaps[1] < gaps[0] < 0.05

    def test_closed_values(self):
        got = gamma_hat_closed_log("gamma_power", {"alpha": 1.0}, 10)
        want = math.log(math.factorial(10) * (2 / math.pi) ** 10)
        assert got == pytest.approx(want, rel=1e-13)
        got = gamma_hat_closed_log("log_power", {"alpha": 2.0, "beta": 0.0}, 10)
        want = math.log(math.factorial(10) * (math.log(10) / math.pi) ** 10)
        assert got == pytest.approx(want, rel=1e-13)

    def test_closed_vs_numeric_root_ratio(self):
        from scipy.special import gammaln
        ratios = []
        for n in (20, 40, 80):
            ent = gamma_hat_numeric(W1, n)
            lc = gamma_hat_closed_log("gamma_power", {"alpha": 1.0}, n)
            ratios.append(math.exp((ent.log_value - lc) / n))
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
        assert abs(ratios[-1] - 1.0) < 0.01

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedFamily):
            gamma_hat_closed_log("iterated_log", {"k": 1}, 10)

    def test_ratio_log_convexity(self):
        # successive ratios increase: sup of log-linear functions in n
        logs = [gamma_hat_numeric(W1, n).log_value for n in range(5, 81, 5)]
        diffs = np.diff(logs)
        assert np.all(np.diff(diffs) > -1e-6)

    @pytest.mark.parametrize("alpha,n,twin", [(0.5, 1, False), (0.5, 3, True),
                                              (0.7, 2, True)])
    def test_maximum_inside_first_bracket_matches_mpmath(self, alpha, n, twin):
        # the maximum lies left of the first doubling probe 2 max(lo, 0.5);
        # the bracket must keep lo as its left end, not jump to the probe
        mp = pytest.importorskip("mpmath")
        shift = -1.0 if twin else 0.0
        w = WeightSpec.gamma_power(alpha)
        w = moment_weight(w) if twin else w

        def f(r):
            return n * mp.log(r) + mp.re(mp.loggamma(1 + (1j * r + shift) / alpha))

        r0 = max((0.01 * 1.05 ** k for k in range(200)), key=f)
        best = f(mp.findroot(lambda r: mp.diff(f, r), r0))
        assert gamma_hat_numeric(w, n).log_value == pytest.approx(float(best),
                                                                  abs=1e-9)

    def test_perturbation_does_not_increase(self):
        from momentsum.weights import log_abs_gamma_imag
        ent = gamma_hat_numeric(W1, 12)
        f = lambda rho: 12 * math.log(rho) + log_abs_gamma_imag(W1, rho)
        for fac in (0.99, 1.01):
            assert f(ent.argmax_rho * fac) <= ent.log_value + 1e-9


class TestSerialization:
    def test_invalid_constructions(self):
        with pytest.raises(DomainError):
            WeightSpec.gamma_power(-1.0)
        with pytest.raises(DomainError):
            WeightSpec.exp_logpower(1.5)
        with pytest.raises(DomainError):
            WeightSpec.gamma_power(1.0, sector_half_angle=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("make", [
        WeightSpec.gamma_power, WeightSpec.log_power,
        lambda v: WeightSpec.log_power(1.0, beta=v), WeightSpec.loglog_power,
        WeightSpec.exp_logpower, WeightSpec.exp_log_over_loglog],
        ids=["gamma_power", "log_power", "log_power_beta", "loglog_power",
             "exp_logpower", "exp_log_over_loglog"])
    def test_non_finite_parameter_is_a_domain_error(self, make, value):
        with pytest.raises(DomainError):
            make(value)


class TestSectorInvariants:
    @pytest.mark.parametrize("w,rho_lo", [
        (W1, 0.1), (W2, 0.1),
        (WeightSpec.log_power(1.0), 2.0),
        (WeightSpec.iterated_log(1), 1.0)])
    def test_finite_nonvanishing_on_sector_grid(self, w, rho_lo):
        # log gamma finite on the sector <=> gamma finite and non-vanishing
        for rho in np.geomspace(rho_lo, 1e3, 12):
            for ang in np.linspace(-0.95 * w.sector_half_angle,
                                   0.95 * w.sector_half_angle, 9):
                s = -w.shift_c + rho * np.exp(1j * ang)
                if s.real < w.min_real and abs(s.imag) < 1e-9:
                    continue
                if np.real(s + w.shift_c) <= 0 and w.family != "gamma_power":
                    continue  # log families need the principal branch zone
                lg = w.log_gamma(complex(s))
                assert np.isfinite(complex(lg).real)

    def test_positive_on_real_ray(self):
        # gamma real and positive <=> log gamma real on the ray
        for w in (W1, W2, WeightSpec.iterated_log(1)):
            lo = max(w.min_real + 0.05, -w.shift_c + 0.05)
            for s in np.linspace(lo, 50.0, 40):
                assert abs(np.imag(w.log_gamma(float(s)))) < 1e-12


class TestGammaHatAcrossFamilies:
    def test_log_family_closed_cross_check_band(self):
        # for log-type weights the (numeric/closed)^{1/n} gap closes like
        # 1 + loglog n / log n: unobservably slow at desk scale, so the
        # cross-check asserts a stable bounded band rather than the limit
        from momentsum.weights import gamma_hat_closed_log
        w = WeightSpec.log_power(1.0)
        ratios = []
        for n in (40, 80, 120):
            ent = gamma_hat_numeric(w, n)
            lc = gamma_hat_closed_log("log_power",
                                      {"alpha": 1.0, "beta": 0.0}, n)
            ratios.append(math.exp((ent.log_value - lc) / n))
        assert all(1.0 < r < 1.45 for r in ratios)
        assert abs(ratios[2] - ratios[1]) < abs(ratios[1] - ratios[0]) + 0.02

    @pytest.mark.parametrize("w", [WeightSpec.log_power(1.0),
                                   WeightSpec.gamma_power(2.0),
                                   WeightSpec.exp_logpower(0.5)])
    def test_ratio_log_convexity_all_families(self, w):
        logs = [gamma_hat_numeric(w, n).log_value for n in range(5, 81, 5)]
        assert np.all(np.diff(np.diff(logs)) > -1e-6)


def test_log_power_with_beta_starts_where_its_formula_is_defined():
    # log log log s, the beta factor, is undefined on [1.1, e): no NaN
    # moment may be cached there, and the ray grid starts past e
    w = WeightSpec.log_power(0.5, 1.0)
    with pytest.raises(DomainError):
        w.moment_log(2)
    assert math.isfinite(w.moment_log(3))
    lo, cs, _, _ = w.ray
    assert lo >= math.e + 0.1 and cs[0] >= math.e + 0.1
    assert WeightSpec.log_power(0.5).min_real == pytest.approx(1.1)


def test_gamma_hat_unbounded_sup_raises():
    from momentsum.errors import BracketError
    # |gamma(i rho)| = 1 for gamma = exp(s): rho^n has no interior maximum
    w = WeightSpec.custom(lambda s: s, min_real=0.5, label="exp_s")
    with pytest.raises(BracketError):
        gamma_hat_numeric(w, 3)


class TestArrayLogGamma:
    def test_array_matches_scalar_calls(self):
        # real points (the moments) agree bit for bit; complex arithmetic
        # may round differently in numpy and in Python
        ns = np.arange(0.0, 40.0, 3.0)
        zs = np.array([0.5, 2.0 + 1.5j, 7.0 - 30.0j, 40.0])
        for w in (W1, WeightSpec.gamma_power(3.0), WeightSpec.iterated_log(1),
                  moment_weight(WeightSpec.gamma_power(2.0))):
            assert list(w.log_gamma(ns)) == [w.log_gamma(float(n)) for n in ns]
            got = w.log_gamma(zs)
            assert got.shape == zs.shape
            for z, g in zip(zs, got):
                assert g == pytest.approx(w.log_gamma(complex(z)), rel=1e-15)

    def test_scalar_only_evaluator_is_mapped_pointwise(self):
        calls = []

        def ev(s):
            calls.append(s)
            return complex(s) * 0.5
        w = WeightSpec.custom(ev, min_real=0.0, label="half")
        zs = np.array([1.0, 2.0, 3.0 + 1.0j])
        assert list(w.log_gamma(zs)) == [0.5, 1.0, 1.5 + 0.5j]
        # the evaluator rejected the whole array once; later arrays go
        # point by point straight away
        n = len(calls)
        w.log_gamma(zs)
        assert len(calls) == n + 3

    def test_array_outside_sector_is_named(self):
        with pytest.raises(DomainError):
            W1.log_gamma(np.array([1.0, -5.0 + 0.1j]))
