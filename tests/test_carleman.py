import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from momentsum.carleman import (SequenceM, associated_weight_h,
                                check_regularity, denjoy_carleman_classify,
                                exp_change_of_variables, fit_class_constant,
                                regular_sequence_facts, stirling_numbers)
from momentsum.errors import NonPositivePoint
from momentsum.transforms import FunctionHandle, remainder_Rn
from momentsum.weights import WeightSpec

W1 = WeightSpec.gamma_power(1.0)


class TestStirling:
    def test_second_4_2_by_partition_count(self):
        # oracle: count set partitions of {1..4} into 2 blocks
        from itertools import product
        count = 0
        for assign in product(range(2), repeat=4):
            if set(assign) == {0, 1} and assign[0] == 0:
                count += 1
        assert count == 7
        assert stirling_numbers("second", 4, 2) == 7

    def test_first_diagonal(self):
        for n in (0, 1, 5, 12):
            assert stirling_numbers("first_unsigned", n, n) == 1

    def test_orthogonality(self):
        for n in range(13):
            for m in range(13):
                s = sum((-1) ** (n - j)
                        * stirling_numbers("first_unsigned", n, j)
                        * stirling_numbers("second", j, m)
                        for j in range(m, n + 1))
                assert s == (1 if n == m else 0)

    def test_index_errors(self):
        with pytest.raises(IndexError):
            stirling_numbers("second", 3, 5)
        with pytest.raises(IndexError):
            stirling_numbers("first_unsigned", 2, -1)

    def test_big_integer_range(self):
        v = stirling_numbers("second", 200, 100)
        assert v > 10 ** 100   # exact big-int arithmetic


class TestExpChange:
    def test_t_squared_example(self):
        jets = [Fraction(1), Fraction(2), Fraction(2)]
        g = exp_change_of_variables("to_log", jets, Fraction(1))
        assert g[2] == 4

    def test_identity_function(self):
        # f(t) = t gives g = e^x: all log-derivatives equal e^x = t
        t = Fraction(3, 2)
        jets = [t, Fraction(1)] + [Fraction(0)] * 6
        g = exp_change_of_variables("to_log", jets, t)
        assert all(v == t for v in g)

    def test_round_trip_exact(self):
        rng = random.Random(3)
        for _ in range(30):
            vec = [Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                   for _ in range(rng.randint(2, 13))]
            t = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            w = exp_change_of_variables("to_log", vec, t)
            assert exp_change_of_variables("from_log", w, t) == vec

    @given(st.lists(st.fractions(min_value=-20, max_value=20), min_size=1,
                    max_size=11),
           st.fractions(min_value=Fraction(1, 4), max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, vec, t):
        w = exp_change_of_variables("to_log", vec, t)
        assert exp_change_of_variables("from_log", w, t) == vec

    def test_nonpositive_point(self):
        with pytest.raises(NonPositivePoint):
            exp_change_of_variables("from_log", [Fraction(1)], Fraction(-1))


class TestRegularity:
    def test_factorial(self):
        r = check_regularity(SequenceM.factorial_power(1.0), 80)
        assert r.regular and r.tau_estimate == pytest.approx(1.0, abs=1e-6)

    def test_factorial_log(self):
        r = check_regularity(SequenceM.factorial_times_log(1.0), 80)
        assert r.regular and r.tau_estimate == math.inf

    def test_n_over_factorial_fails_early(self):
        M = SequenceM(lambda n: gammaln(n + 1.0) - math.log(max(n, 1)),
                      label="n!/n")
        r = check_regularity(M, 60)
        assert r.root_monotone_from is not None and r.root_monotone_from > 1

    def test_first_index_from_which_each_condition_holds(self):
        # a bump at n < 12 breaks log-convexity up to n = 12 and the root
        # monotonicity up to n = 10; a persistent wiggle breaks the latter
        # to the end of the range
        bump = SequenceM(lambda n: gammaln(n + 1.0)
                         + (2.0 * math.sin(n) if n < 12 else 0.0))
        r = check_regularity(bump, 20)
        assert (r.log_convex_from, r.root_monotone_from) == (13, 11)
        wiggle = SequenceM(lambda n: 1.5 * gammaln(n + 1.0)
                           + 0.3 * n * math.sin(n))
        r = check_regularity(wiggle, 80)
        assert (r.log_convex_from, r.root_monotone_from) == (79, None)
        assert not r.regular

    @pytest.mark.parametrize("fam,par", [
        ("gamma_power", {"alpha": 1.0}),
        ("log_power", {"alpha": 1.0, "beta": 0.0}),
        ("loglog_power", {"beta": 1.0}),
        ("exp_logpower", {"alpha": 0.5}),
        ("exp_log_over_loglog", {"alpha": 1.0})])
    def test_table_ghat_sequences_regular(self, fam, par):
        r = check_regularity(SequenceM.from_gamma_hat(fam, par), 80)
        assert r.log_convex_from is not None
        assert r.root_monotone_from is not None


class TestDenjoyCarleman:
    def test_symbolic_cases(self):
        assert denjoy_carleman_classify(
            SequenceM.factorial_power(1.0)).verdict == "quasianalytic"
        assert denjoy_carleman_classify(
            SequenceM.factorial_power(2.0)).verdict == "not_quasianalytic"
        assert denjoy_carleman_classify(
            SequenceM.factorial_times_log(1.0)).verdict == "quasianalytic"

    def test_numeric_partial_sums_are_a_running_sum(self):
        M = SequenceM.factorial_times_log(1.0)
        got = denjoy_carleman_classify(M, "numeric", 1.5).evidence["partial_sums"]
        total, want = 0.0, []
        for n in range(10000):
            total += math.exp((M.logM(n) - M.logM(n + 1)) * 1.5)
            if n + 1 in (30, 100, 300, 1000, 3000, 10000):
                want.append(total)
        assert got == want

    def test_numeric_never_contradicts_symbolic(self):
        for M in (SequenceM.factorial_power(1.0),
                  SequenceM.factorial_power(2.0),
                  SequenceM.factorial_times_log(1.0),
                  SequenceM.factorial_times_log(2.0)):
            sym = denjoy_carleman_classify(M, "symbolic").verdict
            num = denjoy_carleman_classify(M, "numeric").verdict
            assert num in (sym, "inconclusive")

    def test_sector_criterion(self):
        # sum (M_n/M_{n+1})^{1+1/alpha}: n! log^2 n at alpha=2 converges
        M = SequenceM.factorial_times_log(2.0)
        assert denjoy_carleman_classify(M, exponent=1.5).verdict == \
            "not_quasianalytic"
        # boundary case reported, never asserted
        M1 = SequenceM.factorial_times_log(1.0)
        r = denjoy_carleman_classify(M1, exponent=1.0)
        assert r.verdict == "quasianalytic"    # plain DC, not boundary

    def test_no_metadata_is_inconclusive(self):
        M = SequenceM(lambda n: gammaln(n + 1.0), label="anon")
        assert denjoy_carleman_classify(M).verdict == "inconclusive"


class TestClassFits:
    def test_class_A_exp_flat(self):
        f = FunctionHandle(lambda t: math.exp(t), lambda t, n: math.exp(t),
                           growth_eta=1.0)
        fit = fit_class_constant("A", f, M=SequenceM.factorial_power(1.0),
                                 weight=W1, eta=1.1, interval=(0.0, 3.0),
                                 n_max=10)
        vals = list(fit.per_n.values())
        assert max(vals) <= 1.0 + 1e-9
        assert fit.C == max(vals)

    def test_class_C_min_envelope(self):
        f = FunctionHandle(lambda x: 1.0 / (1.0 - x),
                           lambda x, n: math.factorial(n) / (1.0 - x) ** (n + 1))
        Mbig = SequenceM(lambda n: gammaln(n + 1.0) + n * math.log(2.2),
                         label="n!2.2^n")
        fit = fit_class_constant("C", f, M=Mbig,
                                 N=SequenceM.factorial_power(1.0),
                                 mu=1.0, interval=(0.0, 0.5), n_max=10)
        assert fit.C == pytest.approx(2.0, rel=1e-6)

    def test_scaling_envelope(self):
        # fit(lambda f).C <= lambda * fit(f).C + tolerance envelope
        lam = 3.0
        f = FunctionHandle(lambda t: math.exp(t), lambda t, n: math.exp(t))
        fl = FunctionHandle(lambda t: lam * math.exp(t),
                            lambda t, n: lam * math.exp(t))
        kw = dict(M=SequenceM.factorial_power(1.0), weight=W1, eta=1.1,
                  interval=(0.0, 2.0), n_max=8)
        c0 = fit_class_constant("A", f, **kw).C
        c1 = fit_class_constant("A", fl, **kw).C
        assert c1 <= lam * c0 + 1e-9

    def test_class_B_takes_each_derivative_once(self):
        # a derivative can be a whole Laplace integral (the CLI's
        # euler_function), so the fit reuses the jets it has taken
        calls = {}

        def d(x, n):
            calls[x, n] = calls.get((x, n), 0) + 1
            return math.factorial(n) / (1.0 - x) ** (n + 1)

        f = FunctionHandle(lambda x: 1.0 / (1.0 - x), d)
        M = SequenceM.factorial_power(1.0)
        fit_class_constant("B", f, M=M, N=M, eta=1.1, interval=(0.05, 0.5),
                           grid_size=6, n_max=5, n_min=1)
        assert len(calls) == 6 * 5
        assert set(calls.values()) == {1}

    def test_class_D_reads_remainder_Rn(self):
        # reference: each R_n(z) by transforms.remainder_Rn
        f = FunctionHandle(lambda x: 1.0 / (1.0 - x),
                           lambda x, n: math.factorial(n) / (1.0 - x) ** (n + 1))
        M = SequenceM.factorial_power(1.0)
        fit = fit_class_constant("D", f, M=M, weight=W1, interval=(0.0, 0.5),
                                 grid_size=7, n_max=6)
        zs = [float(z) for z in np.linspace(0.0, 0.5, 7)[1:]]
        for n, c in fit.per_n.items():
            best = max((math.log(max(abs(remainder_Rn(f, z, n)), 1e-300))
                        + gammaln(n + 1.0) - M.logM(n) - W1.moment_log(n)
                        - n * math.log(z)) / (n + 1) for z in zs)
            assert c == math.exp(best)

    def test_subgrid_shrinks_constant(self):
        f = FunctionHandle(lambda x: 1.0 / (1.0 - x),
                           lambda x, n: math.factorial(n) / (1.0 - x) ** (n + 1))
        kw = dict(M=SequenceM.factorial_power(1.0), weight=W1, eta=1.1,
                  n_max=6)
        big = fit_class_constant("A", f, interval=(0.0, 0.6), grid_size=13, **kw)
        small = fit_class_constant("A", f, interval=(0.0, 0.3), grid_size=7, **kw)
        assert small.C <= big.C + 1e-12


class TestAssociatedWeight:
    def test_trivial_sequence(self):
        M = SequenceM.factorial_power(1.0)   # m_n = 1
        h, arg, cap = associated_weight_h(M, 2.0)
        assert h == 1.0 and arg == 0
        h, arg, cap = associated_weight_h(M, 0.5)
        assert cap   # inf r^n realized at the range cap, flagged

    def test_factorial_m_matches_stirling(self):
        M = SequenceM(lambda n: 2 * gammaln(n + 1.0), label="m=n!")
        r = 0.05
        h, arg, cap = associated_weight_h(M, r)
        stirling = math.exp(-1.0 / r) * math.sqrt(2 * math.pi / r)
        assert not cap
        assert abs(h - stirling) / stirling < 0.10
        assert arg == pytest.approx(1.0 / r, abs=2)

    def test_monotone(self):
        M = SequenceM(lambda n: 2 * gammaln(n + 1.0), label="m=n!")
        hs = [associated_weight_h(M, r)[0] for r in (0.01, 0.1, 1.0, 5.0)]
        assert all(a <= b for a, b in zip(hs, hs[1:]))


class TestRegularFacts:
    def test_trivial_m(self):
        rf = regular_sequence_facts(SequenceM.factorial_power(1.0), n_max=80)
        assert rf.C2 == pytest.approx(0.0, abs=1e-9)
        assert rf.C3 == pytest.approx(1.0, abs=1e-9)
        assert rf.C4 == pytest.approx(1.0, abs=1e-9)

    def test_log_case_slowly_varying(self):
        rf = regular_sequence_facts(SequenceM.factorial_times_log(1.0),
                                    n_max=120)
        assert rf.slowly_varying
        assert rf.C4 < 1.2

    def test_factorial_m_not_slowly_varying(self):
        M = SequenceM(lambda n: 2 * gammaln(n + 1.0), label="m=n!")
        rf = regular_sequence_facts(M, n_max=120)
        assert not rf.slowly_varying

    @pytest.mark.parametrize("M", [
        SequenceM.factorial_times_log(2.0),
        SequenceM.from_moments(WeightSpec.gamma_power(0.5)),
        SequenceM(lambda n: 1.5 * gammaln(n + 1.0) + 0.3 * n * math.sin(n))],
        ids=["factorial_times_log2", "moments_gamma05", "wiggle"])
    @pytest.mark.parametrize("C1,n_max", [(4.0, 20), (2.5, 80)])
    def test_witnesses_equal_scalar_loops(self, M, C1, n_max):
        # reference: the witnesses as scalar loops over (k, n); the array
        # form does the same arithmetic, so the floats are equal
        lm = [M.logm(n) for n in range(n_max + 1)]
        v = [lm[n] / n if n else 0.0 for n in range(n_max + 1)]
        C2 = max(0.0, max((v[k] - lm[1]) / math.log(k)
                          for k in range(2, n_max + 1)))
        C3 = max([1.0] + [math.exp(v[n] - v[k]) for k in range(1, n_max + 1)
                          for n in range(k, min(int(C1 * k), n_max) + 1)])

        def c4(limit):
            return math.exp(max([0.0] + [((n / k) * lm[k] - lm[n]) / (k + n)
                                         for k in range(1, limit + 1)
                                         for n in range(1, limit + 1)]))
        rf = regular_sequence_facts(M, C1=C1, n_max=n_max)
        assert (rf.C2, rf.C3, rf.C4, rf.C4_half_range) == \
            (C2, C3, c4(n_max), c4(n_max // 2))


def test_gamma_hat_sequence_of_the_weight_itself():
    # class B's N sequence: the weight's own closed ghat where its family
    # declares one, the numeric supremum otherwise
    from momentsum.weights import gamma_hat_closed_log, gamma_hat_numeric
    N = SequenceM.gamma_hat_of(WeightSpec.log_power(2.0))
    for n in (5, 12, 30):
        assert N.logM(n) == gamma_hat_closed_log(
            "log_power", {"alpha": 2.0, "beta": 0.0}, n)
    w = WeightSpec.iterated_log(1)
    N = SequenceM.gamma_hat_of(w)
    for n in (3, 8):
        assert N.logM(n) == gamma_hat_numeric(w, n).log_value
    old = SequenceM.from_gamma_hat("gamma_power", {"alpha": 2.0})
    N = SequenceM.gamma_hat_of(WeightSpec.gamma_power(2.0))
    assert [N.logM(n) for n in range(12)] == [old.logM(n) for n in range(12)]
    assert N.label == old.label and N.symbolic == old.symbolic
