import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

from momentsum.carleman import SequenceM
from momentsum.errors import JetUnavailable, OrderingError, StepTooLarge
from momentsum.extensions import (NeighborhoodSet, PlanarField, TaylorField,
                                  cauchy_pompeiu_reconstruct, dbar_measure,
                                  membership_raster_csv, project_to_interval,
                                  split_plus_minus, taylor_extension_PN)
from momentsum.transforms import FunctionHandle
from momentsum.weights import WeightSpec

W1 = WeightSpec.gamma_power(1.0)

EXP_HANDLE = FunctionHandle(lambda z: cmath.exp(z), lambda z, n: cmath.exp(z),
                            complex_capable=True)
EXP_FIELD = TaylorField.from_oracle(EXP_HANDLE, (0.0, 1.0), 12)


class TestProjection:
    def test_examples(self):
        assert project_to_interval(0.5 + 0.3j, (0, 1)) == 0.5
        assert project_to_interval(-1.0, (0, 1)) == 0.0
        assert project_to_interval(2 + 1j, (0, 1)) == 1.0


class TestTaylorExtension:
    def test_entire_function_accuracy(self):
        z = 0.5 + 0.1j
        assert abs(taylor_extension_PN(EXP_FIELD, z, 6)
                   - cmath.exp(z)) < 1e-6

    def test_restriction_to_interval(self):
        for x in (0.0, 0.3, 1.0):
            assert taylor_extension_PN(EXP_FIELD, x, 5) == \
                pytest.approx(math.exp(x), rel=1e-10)

    def test_order_zero(self):
        z = 0.4 + 0.2j
        assert taylor_extension_PN(EXP_FIELD, z, 0) == \
            pytest.approx(math.exp(0.4))

    def test_jet_unavailable(self):
        with pytest.raises(JetUnavailable):
            taylor_extension_PN(EXP_FIELD, 0.5, 20)


class TestDbar:
    def test_vanishes_on_interval(self):
        got = [abs(dbar_measure(EXP_FIELD, 0.5 + 0j, 4, h=h))
               for h in (1e-2, 1e-3)]
        assert got[1] < got[0] or got[1] < 1e-10

    def test_polynomial_exact_extension(self):
        f = FunctionHandle(lambda z: z ** 3,
                           lambda z, n: (z ** 3, 3 * z ** 2, 6 * z, 6.0)[n]
                           if n < 4 else 0.0, complex_capable=True)
        tf = TaylorField.from_oracle(f, (0, 1), 8)
        assert abs(dbar_measure(tf, 0.4 + 0.2j, 4)) < 1e-10

    def test_telescoped_value(self):
        # for oracle jets, dbar P_N = (1/2) f^(N+1)(z*) (z-z*)^N / N!;
        # the signal shrinks like dist^N/N!, so the FD tolerance scales
        z = 0.4 + 0.15j
        for N, tol in ((2, 1e-8), (5, 1e-6), (8, 1e-2)):
            got = dbar_measure(EXP_FIELD, z, N)
            want = 0.5 * cmath.exp(0.4) * (0.15j) ** N / math.factorial(N)
            assert abs(got - want) / abs(want) < tol

    def test_envelope_bound(self):
        # |dbar P_N| <= (1/2) |f^(N+1)|_sup dist^N / N! for the exp field
        z = 0.3 + 0.25j
        for N in (1, 3, 6):
            got = abs(dbar_measure(EXP_FIELD, z, N))
            assert got <= 0.5 * math.e * 0.25 ** N / math.factorial(N) * 1.01

    def test_monotone_flattening(self):
        z = 0.5 + 0.3j
        vals = [abs(dbar_measure(EXP_FIELD, z, N)) for N in range(1, 9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_step_guard(self):
        with pytest.raises(StepTooLarge):
            dbar_measure(EXP_FIELD, 0.5 + 0.01j, 3, h=0.3)


def _mk_vset(k, eta=1.0, Q=2.0):
    M = SequenceM.factorial_times_log(1.0)
    return NeighborhoodSet("V", k, eta, Q, W1, M.logm, (0.0, 1.0))


class TestNeighborhoods:
    def test_interval_always_member(self):
        for k in (5, 10, 20):
            ns = _mk_vset(k)
            for x in (0.0, 0.4, 1.0):
                assert ns.contains(x)

    def test_v_defining_inequality(self):
        ns = _mk_vset(8)
        from momentsum.weights import log_L_hat, moment_weight
        Lh = math.exp(log_L_hat(moment_weight(W1), 8))
        z = 1.0 + 0.5j * (ns.eta / Lh)
        assert ns.contains(z)

    def test_nesting(self):
        rng = np.random.default_rng(23)
        sets = [_mk_vset(k) for k in (6, 9, 12)]
        pts = rng.uniform(-0.5, 1.5, (1000, 2))
        for x, y in pts:
            z = complex(x, y)
            inner = [ns.contains(z) for ns in sets]
            # membership can only be lost as k grows (sets shrink)
            for a, b in zip(inner, inner[1:]):
                assert a or not b

    def test_omega_k(self):
        M = SequenceM.factorial_times_log(1.0)
        om = NeighborhoodSet("Omega_k", 8, 1.0, 2.0, W1, M.logm)
        assert om.contains(0.4)           # inside the Nevanlinna disk
        assert not om.contains(-0.5)

    def test_raster_csv(self, tmp_path):
        path = membership_raster_csv(_mk_vset(8), (-0.2, 1.2, -0.3, 0.3),
                                     12, 8, tmp_path / "raster.csv", "cfg")
        rows = Path(path).read_text().splitlines()
        assert rows[1] == "x,y,member"
        assert len(rows) == 2 + 12 * 8


class TestCauchyPompeiu:
    def test_reconstructs_zbar(self):
        fld = PlanarField.sample(lambda w: 1.0 if abs(w) < 0.8 else 0.0,
                                 (-1, 1, -1, 1), 160, 160)
        for z in (0.1 + 0.2j, -0.3 + 0.1j):
            got = cauchy_pompeiu_reconstruct(fld, z)
            assert abs(got - z.conjugate()) < 5e-6

    def test_zero_field(self):
        fld = PlanarField.sample(lambda w: 0.0, (-1, 1, -1, 1), 30, 30)
        assert cauchy_pompeiu_reconstruct(fld, 0.2) == 0

    def test_linearity(self):
        f1 = PlanarField.sample(lambda w: 1.0 if abs(w) < 0.7 else 0.0,
                                (-1, 1, -1, 1), 60, 60)
        f2 = PlanarField.sample(lambda w: w.real if abs(w) < 0.7 else 0.0,
                                (-1, 1, -1, 1), 60, 60)
        fsum = PlanarField(-1, 1, -1, 1, 2 * f1.values + 3 * f2.values)
        z = 0.15 + 0.1j
        got = cauchy_pompeiu_reconstruct(fsum, z)
        want = (2 * cauchy_pompeiu_reconstruct(f1, z)
                + 3 * cauchy_pompeiu_reconstruct(f2, z))
        assert abs(got - want) < 1e-12

    def test_error_halves_with_grid(self):
        z = 0.1 + 0.2j
        errs = []
        for n in (60, 120, 240):
            fld = PlanarField.sample(lambda w: 1.0 if abs(w) < 0.8 else 0.0,
                                     (-1, 1, -1, 1), n, n)
            errs.append(abs(cauchy_pompeiu_reconstruct(fld, z)
                            - z.conjugate()))
        assert errs[1] <= 0.6 * errs[0]
        assert errs[2] <= 0.6 * errs[1]

    def test_split_sum_and_analyticity(self):
        fld = PlanarField.sample(lambda w: 1.0 if abs(w) < 0.8 else 0.0,
                                 (-1, 1, -1, 1), 120, 120)
        z = 0.1 + 0.2j
        fp, fm = split_plus_minus(fld, z)
        full = cauchy_pompeiu_reconstruct(fld, z)
        assert abs(fp + fm - full) < 1e-12

    def test_upper_only_field(self):
        fld = PlanarField.sample(
            lambda w: 1.0 if (abs(w) < 0.8 and w.imag > 0.05) else 0.0,
            (-1, 1, -1, 1), 100, 100)
        fp, fm = split_plus_minus(fld, 0.3 - 0.4j)
        assert fm == 0

    def test_fplus_analytic_in_clear_zone(self):
        # field vanishing near the origin: f_plus has dbar ~ 0 there
        fld = PlanarField.sample(
            lambda w: 1.0 if (0.3 < abs(w) < 0.8 and w.imag > 0) else 0.0,
            (-1, 1, -1, 1), 120, 120)

        def fplus(z):
            return split_plus_minus(fld, z)[0]

        h = 1e-4
        z0 = 0.05 + 0.05j
        dbar = 0.5 * ((fplus(z0 + h) - fplus(z0 - h)) / (2 * h)
                      + 1j * (fplus(z0 + 1j * h) - fplus(z0 - 1j * h)) / (2 * h))
        assert abs(dbar) < 1e-6


def test_profiles_are_taken_once_per_set(monkeypatch):
    # Lhat(k) is a golden-section search and depends only on k and the
    # weight: a raster must not pay one per point
    from momentsum import extensions
    calls = []
    real = extensions.log_L_hat
    monkeypatch.setattr(extensions, "log_L_hat",
                        lambda *a: calls.append(a) or real(*a))
    ns = _mk_vset(8)
    for z in (0.3, 0.5 + 0.01j, 1.2, -0.1j):
        ns.contains(z)
    assert len(calls) == 1
    assert ns.tube_radius() == 1.0 / (2.0 * math.exp(
        SequenceM.factorial_times_log(1.0).logm(8) / 8))


def test_omega_k_nesting_probes():
    rng = np.random.default_rng(31)
    M = SequenceM.factorial_times_log(1.0)
    om_sets = [NeighborhoodSet("Omega_k", k, 1.0, 2.0, W1, M.logm)
               for k in (6, 9, 12)]
    pts = rng.uniform(-0.6, 1.4, (1000, 2)) * np.array([1.0, 0.6])
    for x, y in pts:
        flags = [ns.contains(complex(x, y)) for ns in om_sets]
        for a, b in zip(flags, flags[1:]):
            assert a or not b   # sets shrink as k grows


def test_singular_cell_on_split_axis():
    from momentsum.errors import SingularCell
    fld = PlanarField.sample(lambda w: 1.0 if abs(w) < 0.8 else 0.0,
                             (-1, 1, -1, 1), 10, 5)
    xs, ys = fld.centers()
    with pytest.raises(SingularCell):
        split_plus_minus(fld, complex(xs[4], 0.0))   # node on the real axis
