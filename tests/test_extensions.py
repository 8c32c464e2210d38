import cmath
import math

import pytest

from momentsum.errors import JetUnavailable, StepTooLarge
from momentsum.extensions import (TaylorField, dbar_measure,
                                  project_to_interval, taylor_extension_PN)
from momentsum.transforms import FunctionHandle

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
