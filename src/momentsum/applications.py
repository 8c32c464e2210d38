"""Pipelines built on the transforms: multi-summation, the resurgent shift
identity, transseries decomposition, and Euler-type operator equations."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List

import numpy as np

from .errors import DomainError, MomentSumError, OrderingError, PZeroOnRay
from .kernels import KernelK
from .transforms import (FormalSeries, FunctionHandle, SummationResult,
                         _de_integrate, _horner, _ray_roots, _real_on,
                         borel_coeffs, laplace_quadrature, moment_sum)
from .weights import WeightSpec, eval_eps

# ---------------------------------------------------------------------------
# multi-summability
# ---------------------------------------------------------------------------

_PRODUCT_WEIGHTS = 8     # product weights kept, each with its kernel table


@functools.lru_cache(maxsize=_PRODUCT_WEIGHTS)
def _product_weight(ws: tuple) -> WeightSpec:
    """The custom weight with log gamma the sum of the factors'.  Cached:
    plans with equal stage weights share one instance, and with it the
    product's moment cache and kernel table."""
    def ev(s):
        return sum(w.log_gamma(s) for w in ws)

    label = "*".join(w.describe() for w in ws)
    # every factor checks its own sector, so the product is evaluable
    # on the ray only right of each factor's sector vertex too
    min_real = max(max(w.min_real, -w.shift_c) for w in ws)
    # log gamma is the sum of the factors', so eps is too
    return WeightSpec.custom(ev, min_real=min_real,
                             eps=lambda s: sum(eval_eps(w, s) for w in ws),
                             rho0=max(w.rho0 for w in ws),
                             complex_capable=all(w.complex_capable for w in ws),
                             label=f"product({label})")


@dataclass
class MultiSumPlan:
    """Weights of f = L_{gamma_k} ... L_{gamma_1} B_{gamma_1...gamma_k} f."""

    weights: List[WeightSpec]
    continuation: object = "pade"        # as in moment_sum
    tol: float = 1e-9

    def __post_init__(self):
        if not self.weights:
            raise DomainError("plan needs at least one weight")

    def product_weight(self) -> WeightSpec:
        """The weight whose moments are the products of the stages'; one
        shared instance per tuple of stage weights (``_product_weight``)."""
        ws = tuple(self.weights)
        return ws[0] if len(ws) == 1 else _product_weight(ws)


def multisum(a: FormalSeries, plan: MultiSumPlan, x: float) -> SummationResult:
    """Borel step with the product weight, the continuation, and one Laplace
    integral against the product kernel.

    By Fubini the k nested Laplace transforms L_{gamma_k} ... L_{gamma_1}
    are one Laplace transform against K_1 * ... * K_k, the kernel whose
    moments are the products of the stages' moments; that is the kernel of
    ``plan.product_weight()``.  Errors name the plan.
    """
    try:
        res = moment_sum(a, plan.product_weight(), x,
                         continuation=plan.continuation, tol=plan.tol)
    except MomentSumError as exc:
        name = " * ".join(w.describe() for w in plan.weights)
        raise type(exc)(f"plan {name}: {exc}") from exc
    res.method = "multisum"
    # the continuation handle's own error is not measured yet (a stage
    # handle such as E carries its own rounding); tol per collapsed stage
    # stands for it until the error budget measures it
    res.abs_error_estimate += plan.tol * (len(plan.weights) - 1)
    res.diagnostics["plan"] = [w.describe() for w in plan.weights]
    return res


# ---------------------------------------------------------------------------
# resurgent shift identity
# ---------------------------------------------------------------------------

@dataclass
class ShiftCheckReport:
    lhs: float
    rhs: float
    rel_deviation: float
    a: float
    x: float


def shift_laplace_check(F: FunctionHandle, a: float, w: WeightSpec,
                        x: float) -> ShiftCheckReport:
    """Check L(tau_a F)(x) = e^{-a/x} (L F)(x) for the classical kernel.

    Both sides are normalized the same way (the t-scaled form
    int F(xt) K(t) dt) and taken by the same double-exponential rule at
    tolerance 1e-11, on different integrands: the right side by
    ``laplace_quadrature``, the left side int_{a/x}^inf F(xt - a) e^{-t} dt
    on t = a/x + tau.  The check therefore tests the identity, not the rule;
    the left side is checked against an independent (QUADPACK) quadrature
    in the tests.
    """
    tol = 1e-11
    if not w.classical:
        raise DomainError("the shift identity check uses the classical kernel")
    if a < 0 or x <= 0:
        raise DomainError("need a >= 0 and x > 0")
    K = KernelK(w)
    rhs = math.exp(-a / x) * laplace_quadrature(F, K, x, tol=tol).value
    if a == 0:
        lhs = laplace_quadrature(F, K, x, tol=tol).value
    else:
        # int_{a/x}^inf F(x t - a) e^-t dt on t = a/x + tau, tau >= 0
        def g(taus, at):
            t = a / x + taus[None, :]
            return _real_on(F, x * t - a, None) * np.exp(-t), None

        lhs = float(_de_integrate(g, np.array([tol]))[0][0])
    denom = max(abs(rhs), 1e-300)
    return ShiftCheckReport(lhs, rhs, abs(lhs - rhs) / denom, a, x)


# ---------------------------------------------------------------------------
# transseries
# ---------------------------------------------------------------------------

@dataclass
class Transseries:
    """Blocks e^{-a_j/x} (sum_n c_{n,j} x^n) carried as jets per anchor."""

    exponents: tuple
    blocks: tuple                # blocks[j][n] = c_{n,j}
    remainder_estimates: tuple = ()

    def __post_init__(self):
        a = self.exponents
        if any(a[i + 1] <= a[i] for i in range(len(a) - 1)):
            raise OrderingError("exponents must be strictly increasing")
        if a and a[0] < 0:
            raise OrderingError("exponents must be nonnegative")


def _taylor_eval_deriv(jets, delta: float, n: int):
    """n-th derivative at offset delta from jets at the anchor, with a crude
    Lagrange-remainder scale from the last retained jet."""
    n_max = len(jets) - 1
    acc = sum(jets[n + m] * delta ** m / math.factorial(m)
              for m in range(n_max - n + 1))
    rem = abs(jets[n_max]) * abs(delta) ** (n_max - n + 1) \
        / math.factorial(n_max - n + 1)
    return acc, rem


def transseries_decompose(jets_at_anchors, exponents) -> Transseries:
    """Recursive peeling: block 0 is F's jets at a_0; block j is F's jets at
    a_j minus the Taylor evaluations of the earlier blocks there.

    ``jets_at_anchors[j][n]`` is F^(n)(a_j) (right-jets).
    """
    a = tuple(float(v) for v in exponents)
    if any(a[i + 1] <= a[i] for i in range(len(a) - 1)):
        raise OrderingError("exponents must be strictly increasing")
    blocks = []
    rems = []
    for j, jets in enumerate(jets_at_anchors):
        jets = list(map(float, jets))
        rem_j = 0.0
        c = []
        for n in range(len(jets)):
            v = jets[n]
            for i in range(j):
                ti, ri = _taylor_eval_deriv(blocks[i], a[j] - a[i], n)
                v -= ti
                rem_j = max(rem_j, ri)
            c.append(v)
        blocks.append(c)
        rems.append(rem_j)
    return Transseries(a, tuple(tuple(b) for b in blocks), tuple(rems))


def transseries_synthesize_jets(blocks, exponents, n_max: int):
    """Right-jets at each anchor of F = sum_j tau_{a_j} G_j, for test inputs
    built from known block jets."""
    a = list(exponents)
    out = []
    for j in range(len(a)):
        jets = []
        for n in range(n_max + 1):
            v = 0.0
            for i in range(j + 1):
                ti, _ = _taylor_eval_deriv(blocks[i], a[j] - a[i], n)
                v += ti
            jets.append(v)
        out.append(jets)
    return out


# ---------------------------------------------------------------------------
# Euler-type operator equations
# ---------------------------------------------------------------------------

def _screen_positive_ray(poly):
    """Reject polynomials with zeros on [0, inf): sign screen, then roots."""
    p = [float(v) for v in poly]
    if p[0] == 0.0:
        raise PZeroOnRay("P(0) = 0")
    signs = {np.sign(v) for v in p if v != 0.0}
    if len(signs) == 1:
        return  # Descartes: no positive real root, and P(0) != 0
    on_ray = _ray_roots(p)[1]
    if on_ray:
        raise PZeroOnRay(f"operator polynomial vanishes near t={on_ray[0]:.6g}")


def _mu_ratio(w: WeightSpec, m: int, j: int):
    """mu_m / mu_{m-j}, exact where the weight declares integer moments."""
    exact = w.closed("moments")
    if exact is not None:
        return Fraction(exact(m), exact(m - j))
    return math.exp(w.moment_log(m) - w.moment_log(m - j))


def euler_apply_P(P, a: FormalSeries, w: WeightSpec) -> FormalSeries:
    """P(V) a, truncated to len(a) + deg P coefficients, where
    V x^n = (mu_{n+1}/mu_n) x^{n+1} is the coefficient shift intertwined with
    multiplication by t on the Borel side."""
    acc = [0] * (len(a) + len(P) - 1)
    for j, pj in enumerate(P):
        if pj == 0:
            continue
        for m, c in enumerate(a.coeffs):
            acc[m + j] += pj * c * _mu_ratio(w, m + j, j)
    return FormalSeries(tuple(acc))


@dataclass
class EulerSolution:
    series: FormalSeries
    quadrature: SummationResult
    borel_handle: FunctionHandle


def euler_solve(P, g: FormalSeries, w: WeightSpec, x: float,
                tol: float = 1e-10) -> EulerSolution:
    """Solve P(V) f = g two ways: the formal coefficient recursion to the
    degree of g (exact in rationals for the classical weight) and
    f = L_gamma(B_gamma g / P) by quadrature.

    The recursion inverts the lower-triangular action of P(V):
    f_m = (g_m - sum_{j>=1} p_j (mu_m/mu_{m-j}) f_{m-j}) / p_0.
    """
    _screen_positive_ray(P)
    P = FormalSeries(tuple(P)).coeffs    # int / int would be a float
    f = []
    for m in range(len(g)):
        acc = g[m]
        for j in range(1, min(len(P), m + 1)):
            if P[j] != 0:
                acc -= P[j] * f[m - j] * _mu_ratio(w, m, j)
        f.append(acc / P[0])
    f_series = FormalSeries(tuple(f))

    # Borel-side handle: (B g)(t) / P(t)
    bg_eval = FunctionHandle.from_series_eval(borel_coeffs(g, w), label="B[g]")

    pc = [float(v) for v in P]

    def ev(t):
        return bg_eval(t) / _horner(pc, t)

    handle = FunctionHandle(ev, None, growth_eta=bg_eval.growth_eta,
                            complex_capable=False, label="B[g]/P")
    res = laplace_quadrature(handle, KernelK(w), x, tol=tol)
    res.method = "euler_solve"
    return EulerSolution(f_series, res, handle)
