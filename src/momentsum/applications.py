"""Pipelines built on the transforms: multi-summation, weight factorization,
the resurgent shift identity, transseries decomposition, and Euler-type
operator equations."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .carleman import SequenceM, check_regularity, denjoy_carleman_classify
from .errors import (DomainError, MomentSumError, NonQuasianalytic,
                     OrderingError, PZeroOnRay)
from .kernels import KernelK
from .transforms import (FormalSeries, FunctionHandle, SummationResult,
                         _horner, borel_coeffs, laplace_quadrature, moment_sum)
from .weights import WeightSpec, eval_eps

# ---------------------------------------------------------------------------
# weights for iterated summation
# ---------------------------------------------------------------------------


def _tabulated_weight(log_values, label: str) -> WeightSpec:
    """Custom weight from log gamma values at s = 1..len(values)."""
    s_knots = np.arange(1, len(log_values) + 1, dtype=float)
    spline = CubicSpline(s_knots, np.asarray(log_values, dtype=float))

    def ev(s):
        sr = float(np.real(s))
        if sr < 1.0 or sr > s_knots[-1]:
            raise DomainError(f"tabulated weight evaluable on [1, {s_knots[-1]:.0f}]")
        return float(spline(sr))

    return WeightSpec.custom(ev, min_real=1.0, rho0=4.0,
                             complex_capable=False,
                             max_real=float(s_knots[-1]), label=label)


def factor_weight_sequence(M: SequenceM, k: int, n_max: int = 60):
    """Factor a quasianalytic regular M into k tabulated weights via
    gamma_j(n+1)^{1/n} = prod_{i<=n} (1 - M_i^{(j-1)}/M_{i+1}^{(j-1)})^{-1},
    M^{(j-1)} = M^{(j)} gamma_j.

    Returns (weights, stages) where stages[j] are the log values of M^{(j)};
    the reconstruction identity M^{(j)} gamma_j = M^{(j-1)} is exact by
    construction.
    """
    verdict = denjoy_carleman_classify(M).verdict
    if verdict == "inconclusive":
        verdict = denjoy_carleman_classify(M, "numeric").verdict
    if verdict != "quasianalytic":
        raise NonQuasianalytic(
            f"factorization needs a quasianalytic sequence, got {verdict}")
    if not check_regularity(M, max(n_max, 20)).regular:
        raise NonQuasianalytic("factorization needs a regular sequence")

    stages = [[M.logM(n) for n in range(n_max + 2)]]
    weights = []
    for j in range(1, k + 1):
        prev = stages[-1]
        # log gamma_j(n+1) = n * sum_{i=1..n} -log(1 - M_i/M_{i+1})
        csum = 0.0
        log_gamma = [0.0]                      # gamma_j(1) = 1
        for n in range(1, n_max + 1):
            r = math.exp(prev[n] - prev[n + 1])
            if not 0.0 < r < 1.0:
                raise DomainError(f"ratio M_{n}/M_{n+1}={r:.3g} outside (0,1)")
            csum += -math.log1p(-r)
            log_gamma.append(n * csum)
        weights.append(_tabulated_weight(log_gamma, f"factor[{j}of{k}]"))
        # M^{(j)}_n = M^{(j-1)}_n / gamma_j(n+1); log_gamma[i] = log gamma_j(i+1)
        nxt = [prev[n] - log_gamma[min(n, n_max)] for n in range(n_max + 2)]
        stages.append(nxt)
    return weights, stages


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
    label: str = ""

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
        name = plan.label or " * ".join(w.describe() for w in plan.weights)
        raise type(exc)(f"plan {name}: {exc}") from exc
    res.method = "multisum"
    # the continuation handle's own error is not measured yet (a stage
    # handle such as E carries its own rounding); tol per collapsed stage
    # stands for it until the error budget measures it
    res.abs_error_estimate += plan.tol * (len(plan.weights) - 1)
    res.diagnostics["plan"] = plan.label or [w.describe() for w in plan.weights]
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
                        x: float, tol: float = 1e-11) -> ShiftCheckReport:
    """Check L(tau_a F)(x) = e^{-a/x} (L F)(x) for the classical kernel.

    Both sides are normalized the same way (the t-scaled form
    int F(xt) K(t) dt), evaluated by independent quadratures.
    """
    if not w.classical:
        raise DomainError("the shift identity check uses the classical kernel")
    if a < 0 or x <= 0:
        raise DomainError("need a >= 0 and x > 0")
    K = KernelK(w)
    rhs = math.exp(-a / x) * laplace_quadrature(F, K, x, tol=tol).value
    if a == 0:
        lhs = laplace_quadrature(F, K, x, tol=tol).value
    else:
        def g(t):
            return float(np.real(F(x * t - a))) * math.exp(-t)

        lhs, _ = quad(g, a / x, a / x + 60.0, epsabs=tol, epsrel=tol, limit=300)
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

@dataclass
class EulerOperator:
    """P(V) with V x^n = (mu_{n+1}/mu_n) x^{n+1} (the coefficient-shift
    operator intertwined with multiplication by t on the Borel side)."""

    weight: WeightSpec
    poly: tuple                  # p_0 .. p_d

    def __post_init__(self):
        if not self.poly or all(p == 0 for p in self.poly):
            raise DomainError("operator polynomial must be nonzero")
        _screen_positive_ray(self.poly)


def _screen_positive_ray(poly):
    """Reject polynomials with zeros on [0, inf): sign screen, then roots."""
    p = [float(v) for v in poly]
    if p[0] == 0.0:
        raise PZeroOnRay("P(0) = 0")
    signs = {np.sign(v) for v in p if v != 0.0}
    if len(signs) == 1:
        return  # Descartes: no positive real root, and P(0) != 0
    roots = np.roots(list(reversed(p)))
    for r in roots:
        if abs(r.imag) < 1e-10 and r.real >= -1e-12:
            raise PZeroOnRay(f"operator polynomial vanishes near t={r.real:.6g}")


def _mu_ratio(w: WeightSpec, m: int, j: int):
    """mu_m / mu_{m-j}, exact where the weight declares integer moments."""
    exact = w.closed("moments")
    if exact is not None:
        return Fraction(exact(m), exact(m - j))
    return math.exp(w.moment_log(m) - w.moment_log(m - j))


def euler_apply_P(P, a: FormalSeries, w: WeightSpec) -> FormalSeries:
    """P(V) a, truncated to len(a) + deg P coefficients."""
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
                g_handle: Optional[FunctionHandle] = None,
                tol: float = 1e-10, degree: Optional[int] = None) -> EulerSolution:
    """Solve P(V) f = g two ways: the formal coefficient recursion (exact in
    rationals for the classical weight) and f = L_gamma(B_gamma g / P) by
    quadrature.

    The recursion inverts the lower-triangular action of P(V):
    f_m = (g_m - sum_{j>=1} p_j (mu_m/mu_{m-j}) f_{m-j}) / p_0.
    """
    _screen_positive_ray(P)
    P = FormalSeries(tuple(P)).coeffs    # int / int would be a float
    degree = degree or len(g) - 1
    f = []
    for m in range(degree + 1):
        acc = g[m] if m < len(g) else 0
        for j in range(1, min(len(P), m + 1)):
            if P[j] != 0:
                acc -= P[j] * f[m - j] * _mu_ratio(w, m, j)
        f.append(acc / P[0])
    f_series = FormalSeries(tuple(f))

    # Borel-side handle: (B g)(t) / P(t)
    bg = borel_coeffs(g, w)
    if g_handle is not None:
        bg_eval = g_handle
    else:
        bg_eval = FunctionHandle.from_series_eval(bg, label="B[g]")

    pc = [float(v) for v in P]

    def ev(t):
        return bg_eval(t) / _horner(pc, t)

    handle = FunctionHandle(ev, None, growth_eta=bg_eval.growth_eta,
                            complex_capable=False, label="B[g]/P")
    res = laplace_quadrature(handle, KernelK(w), x, tol=tol)
    res.method = "euler_solve"
    return EulerSolution(f_series, res, handle)
