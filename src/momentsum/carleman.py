"""Sequence-level machinery: regularity, quasianalyticity, Stirling
change of variables, class-constant fitting, and the associated weight.

A sequence is handled as M_n = n! m_n in log scale throughout; regularity
means eventual log-convexity of (m_n), eventual monotonicity of (m_n^{1/n}),
and the moderate-growth bound m_{n+1} <= C m_n^{1+1/n}.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, NonPositivePoint
from .kernels import EntireE
from .transforms import _horner
from .weights import (WeightSpec, gamma_hat_closed_log, gamma_hat_closed_ratio,
                      gamma_hat_numeric)

# ---------------------------------------------------------------------------
# Stirling numbers (exact, memoized)
# ---------------------------------------------------------------------------

_STIRLING_LOCK = threading.Lock()
_S1 = {(0, 0): 1}   # unsigned first kind
_S2 = {(0, 0): 1}   # second kind


def stirling_numbers(kind: str, n: int, j: int) -> int:
    """Stirling numbers by their defining recursions, exact integers.

    first_unsigned: [n+1, j] = n [n, j] + [n, j-1];
    second:         {n+1, j} = j {n, j} + {n, j-1}.
    """
    if not (0 <= j <= n):
        raise IndexError(f"need 0 <= j <= n, got n={n}, j={j}")
    if n > 500:
        raise IndexError("Stirling table capped at n = 500")
    if kind == "first_unsigned":
        table, rec = _S1, (lambda m, jj: m)
    elif kind == "second":
        table, rec = _S2, (lambda m, jj: jj)
    else:
        raise DomainError("kind must be 'first_unsigned' or 'second'")
    with _STIRLING_LOCK:
        return _stirling_fill(table, rec, n, j)


def _stirling_fill(table, rec, n, j):
    if (n, j) in table:
        return table[(n, j)]
    if j == 0:
        val = 1 if n == 0 else 0
    elif j == n:
        val = 1
    elif j > n:
        val = 0
    else:
        val = (rec(n - 1, j) * _stirling_fill(table, rec, n - 1, j)
               + _stirling_fill(table, rec, n - 1, j - 1))
    table[(n, j)] = val
    return val


def exp_change_of_variables(direction: str, derivs, point):
    """Derivative vectors under t = e^x.

    to_log: given (f^(j)(t))_{j<=n} at t = point, return (g^(j)(log t))
    where g(x) = f(e^x); from_log inverts it.  Exact over rationals when the
    inputs and the point are rational.
    """
    if isinstance(point, int):
        point = Fraction(point)          # int / int would be a float
    if point <= 0:
        raise NonPositivePoint("the change of variables needs point > 0")
    v = list(derivs)
    nmax = len(v) - 1
    out = []
    if direction == "to_log":
        for n in range(nmax + 1):
            if n == 0:
                out.append(v[0])
                continue
            acc = 0
            tp = point
            for j in range(1, n + 1):
                acc += stirling_numbers("second", n, j) * v[j] * tp
                tp = tp * point
            out.append(acc)
    elif direction == "from_log":
        for n in range(nmax + 1):
            if n == 0:
                out.append(v[0])
                continue
            acc = 0
            for j in range(1, n + 1):
                sgn = -1 if (n + j) % 2 else 1
                acc += sgn * stirling_numbers("first_unsigned", n, j) * v[j]
            out.append(acc / point ** n)
    else:
        raise DomainError("direction must be 'to_log' or 'from_log'")
    return out


# ---------------------------------------------------------------------------
# SequenceM
# ---------------------------------------------------------------------------

@dataclass
class SequenceM:
    """Positive sequence M_n = n! m_n given by a log-scale generator.

    ``symbolic`` optionally declares the ratio asymptotics
    M_n/M_{n+1} ~ c / (n^p log^q n), which drives the symbolic
    Denjoy-Carleman classification.
    """

    log_M: Callable[[int], float]
    n_max: int = 200
    label: str = "M"
    symbolic: Optional[dict] = None     # {"p": float, "q": float}
    _cache: dict = field(default_factory=dict, repr=False)

    def logM(self, n: int) -> float:
        if n < 0:
            raise DomainError("sequence index must be >= 0")
        if n not in self._cache:
            self._cache[n] = float(self.log_M(n))
        return self._cache[n]

    def logm_upto(self, n_max: int) -> np.ndarray:
        """log m_0 .. log m_{n_max} as one array, through the cache."""
        return (np.array([self.logM(n) for n in range(n_max + 1)])
                - gammaln(np.arange(n_max + 1) + 1.0))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def factorial_power(a: float = 1.0) -> "SequenceM":
        return SequenceM(lambda n: a * gammaln(n + 1.0), label=f"n!^{a:g}",
                         symbolic={"p": a, "q": 0.0})

    @staticmethod
    def factorial_times_log(alpha: float = 1.0) -> "SequenceM":
        # M_n = n! log^{alpha n}(n + e)
        return SequenceM(
            lambda n: gammaln(n + 1.0) + alpha * n * math.log(math.log(n + math.e)),
            label=f"n!*log^{alpha:g}n", symbolic={"p": 1.0, "q": alpha})

    @staticmethod
    def from_gamma_hat(family: str, params: dict) -> "SequenceM":
        # the closed forms hold from n = 3; lower indices read ghat_3
        return SequenceM(
            lambda n: gamma_hat_closed_log(family, params, max(n, 3)),
            label=f"ghat[{family}]",
            symbolic=gamma_hat_closed_ratio(family, params))

    @staticmethod
    def gamma_hat_of(w: WeightSpec) -> "SequenceM":
        """ghat_n of the weight itself: the family's closed form where the
        family declares one, the numeric supremum otherwise."""
        if w.arg_shift == 0.0 and w.record.ghat_factor is not None:
            return SequenceM.from_gamma_hat(w.family, w.pdict)
        return SequenceM(lambda n: gamma_hat_numeric(w, n).log_value,
                         label=f"ghat[{w.describe()}]")

    @staticmethod
    def from_moments(w: WeightSpec) -> "SequenceM":
        """M_n = n! mu_n (the natural image-class scale of the weight)."""
        return SequenceM(lambda n: gammaln(n + 1.0) + w.moment_log(n),
                         label=f"n!*mu[{w.describe()}]")


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------

@dataclass
class RegularityReport:
    log_convex_from: Optional[int]
    root_monotone_from: Optional[int]
    moderate_growth_C: float
    tau_estimate: float            # math.inf for non-analytic trend
    n_max: int
    regular: bool
    details: dict


def _holds_from(ok) -> Optional[int]:
    """1 + the first index from which every entry of ``ok`` holds; None
    when the last one fails."""
    bad = np.flatnonzero(~ok)
    i = bad[-1] + 1 if len(bad) else 0
    return int(i) + 1 if i < len(ok) else None


def check_regularity(M: SequenceM, n_max: Optional[int] = None) -> RegularityReport:
    """Check the three regularity conditions and estimate tau(M)."""
    n_max = n_max or M.n_max
    if n_max < 10:
        raise DomainError("regularity check needs n_max >= 10")
    lm = M.logm_upto(n_max)
    # 1. eventual log-convexity of m
    lc_from = _holds_from(lm[:-2] + lm[2:] - 2 * lm[1:-1] >= -1e-9)
    # 2. eventual monotonicity of m_n^{1/n}
    v = lm[1:] / np.arange(1, n_max + 1)
    rm_from = _holds_from(np.diff(v) >= -1e-9)

    # 3. moderate growth witness
    ns = np.arange(1, n_max)
    logC = lm[2:n_max + 1] - (1.0 + 1.0 / ns) * lm[1:n_max]
    C3 = float(np.exp(max(np.max(logC), lm[1] - lm[0])))

    # tau by Richardson-style extrapolation of v_n = log m_n^{1/n}
    tail = v[n_max // 2:]
    x = 1.0 / np.arange(n_max // 2 + 1, n_max + 1)
    slope, inter = np.polyfit(x, tail, 1)
    growth = np.polyfit(np.log(np.arange(n_max // 2 + 1, n_max + 1)),
                        tail, 1)[0]
    tau = math.inf if growth > 0.02 else float(np.exp(inter))

    regular = bool(lc_from and rm_from and np.isfinite(C3))
    return RegularityReport(lc_from, rm_from, C3, tau, n_max, regular,
                            {"v_tail": tail[-3:].tolist()})


# ---------------------------------------------------------------------------
# Denjoy-Carleman
# ---------------------------------------------------------------------------

@dataclass
class QAReport:
    verdict: str                   # quasianalytic | not_quasianalytic | inconclusive
    mode: str
    evidence: dict


def _symbolic_divergence(p: float, q: float) -> bool:
    """Does sum 1/(n^p log^q n) diverge?"""
    return p < 1.0 or (p == 1.0 and q <= 1.0)


def denjoy_carleman_classify(M: SequenceM, mode: str = "symbolic",
                             exponent: float = 1.0) -> QAReport:
    """Denjoy-Carleman test: quasianalytic iff sum M_n/M_{n+1} diverges.

    ``exponent`` generalizes to the sector criterion
    sum (M_n/M_{n+1})^exponent (Carleson/Salinas/Korenblum style with
    exponent = 1 + 1/alpha); the boundary case is reported, never asserted.

    Numeric mode reports partial sums across decades and classifies only a
    clean log- or power-growth fit, returning inconclusive otherwise.
    """
    if mode == "symbolic":
        if M.symbolic is None:
            return QAReport("inconclusive", mode,
                            {"reason": "no symbolic ratio metadata"})
        p, q = M.symbolic["p"] * exponent, M.symbolic["q"] * exponent
        if p == 1.0 and q == 1.0 and exponent != 1.0:
            return QAReport("inconclusive", mode,
                            {"reason": "boundary case of the criterion",
                             "p": p, "q": q})
        verdict = "quasianalytic" if _symbolic_divergence(p, q) \
            else "not_quasianalytic"
        return QAReport(verdict, mode, {"p": p, "q": q})

    if mode != "numeric":
        raise DomainError("mode must be 'symbolic' or 'numeric'")
    checkpoints = np.array([30, 100, 300, 1000, 3000, 10000])
    lM = np.array([M.logM(n) for n in range(checkpoints[-1] + 1)])
    # math.exp per term, summed in order: the partial sums of a plain loop
    S = np.cumsum(np.fromiter(map(math.exp, (lM[:-1] - lM[1:]) * exponent),
                              float))[checkpoints - 1]
    logN = np.log(checkpoints.astype(float))
    # clean log-divergence: S ~ a + b log N with b > 0, a good fit, and a
    # slope that is stable across windows (a decaying slope is the signature
    # of a slowly convergent sum and must stay inconclusive)
    b, a = np.polyfit(logN[2:], S[2:], 1)
    fit = a + b * logN
    resid = float(np.max(np.abs(fit[2:] - S[2:])) / max(S[-1], 1e-300))
    b_early = np.polyfit(logN[1:4], S[1:4], 1)[0]
    b_late = np.polyfit(logN[3:], S[3:], 1)[0]
    increments = np.diff(S)
    if b > 1e-3 and resid < 0.02 and b_late >= 0.8 * b_early:
        return QAReport("quasianalytic", mode,
                        {"partial_sums": S.tolist(), "log_slope": float(b)})
    # clean convergence: geometric-ish decay of increments
    if increments[-1] <= 0.25 * increments[-3] and \
            increments[-1] < 1e-3 * max(S[-1], 1e-300):
        return QAReport("not_quasianalytic", mode,
                        {"partial_sums": S.tolist(),
                         "tail_increment": float(increments[-1])})
    return QAReport("inconclusive", mode, {"partial_sums": S.tolist()})


# ---------------------------------------------------------------------------
# class-constant fitting
# ---------------------------------------------------------------------------

@dataclass
class ClassFit:
    class_tag: str
    C: float
    per_n: dict
    grid: dict
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"class": self.class_tag, "C": self.C,
                           "per_n": {str(k): v for k, v in self.per_n.items()},
                           "grid": self.grid, "extra": self.extra},
                          default=float)


def _log_abs(v) -> float:
    a = abs(v)
    return math.log(a) if a > 0 else -math.inf


def _per_n(orders, prof) -> dict:
    """{n: exp(max over the grid)} of a (grid point, n) profile in log scale."""
    return {n: math.exp(b) for n, b in zip(orders, np.max(prof, axis=0))}


def _derivatives(f, pairs) -> dict:
    """{(x, n): f^(n)(x)} over the pairs, taken in one ``f.derivative`` call
    on arrays; point by point when f rejects arrays (TypeError or
    ValueError), as ``transforms._real_on`` maps F."""
    pairs = sorted(set(pairs))
    x, n = np.array(pairs).T
    try:
        got = np.broadcast_to(f.derivative(x, n.astype(int)), x.shape).tolist()
    except (TypeError, ValueError):
        got = [f.derivative(*p) for p in pairs]
    return dict(zip(pairs, got))


def fit_class_constant(class_tag: str, f, *, M: Optional[SequenceM] = None,
                       N: Optional[SequenceM] = None,
                       weight: Optional[WeightSpec] = None,
                       eta: float = 1.1, mu: float = 1.0, a: float = 1.0,
                       interval=(0.0, 1.0), n_max: int = 10,
                       grid_size: int = 12, n_min: int = 0) -> ClassFit:
    """Smallest constant making the class inequality hold on a sampled grid.

    Class A normalizes per n as C_n = ratio^{1/(n+1)} (the inequality carries
    C^{n+1}); class B fits its two conditions separately; class C fits the
    min-envelope; class D bounds Taylor remainders.  The fitted constant is
    the max of the per-n profile, so sub-grids can only shrink it.

    Each f^(n)(x) the class reads is taken once per fit, all in one
    ``f.derivative`` call (``_derivatives``): a derivative can be a whole
    Laplace integral, and one batch of them shares its quadrature nodes.
    """
    needs = {"A": ("M", "weight"), "B": ("M", "N"), "C": ("M", "N"),
             "D": ("M", "weight")}.get(class_tag)
    if needs is None:
        raise DomainError(f"unknown class tag {class_tag!r}")
    if any({"M": M, "N": N, "weight": weight}[k] is None for k in needs):
        raise DomainError(f"class {class_tag} needs {' and '.join(needs)}")
    xs = np.linspace(interval[0], interval[1], grid_size)
    orders = range(max(n_min, 1) if class_tag == "D" else n_min, n_max + 1)
    ns = np.array(orders)
    lM = np.array([M.logM(n) for n in orders])
    lN = np.array([N.logM(n) for n in orders]) if "N" in needs else None
    extra = {}
    if class_tag == "D":
        # Taylor remainders R_n(z) from the coefficients at 0, as
        # transforms.remainder_Rn forms them
        zs = [float(z) for z in xs if abs(z) > 0]
        d = _derivatives(f, [(0.0, k) for k in range(n_max)]
                         + [(z, 0) for z in zs])
        c0 = [d[0.0, k] / math.factorial(k) for k in range(n_max)]
        lR = np.array([[math.log(max(abs(d[z, 0] - _horner(c0[:n], z)),
                                     1e-300)) for n in orders] for z in zs])
        lz = np.array([math.log(abs(z)) for z in zs])
        lmu = np.array([weight.moment_log(n) for n in orders])
        prof = (lR + gammaln(ns + 1.0) - lM - lmu - ns * lz[:, None]) / (ns + 1)
    else:
        pts = xs[xs > 0] if class_tag == "B" else xs
        asked = range(n_max + 1) if class_tag == "B" else orders
        d = _derivatives(f, [(x, n) for x in pts.tolist() for n in asked])
        la = np.array([[_log_abs(d[x, n]) for n in orders]
                       for x in pts.tolist()])
        if class_tag == "A":
            E = EntireE(weight)
            lE = E.log_eval_real(eta * pts / a)
            prof = (la - lM - lE[:, None]) / (ns + 1)
        else:
            r1 = (la - lM) / (ns + 1)
            if class_tag == "B":
                lj = [exp_change_of_variables(
                    "to_log", [d[x, j] for j in range(n_max + 1)], x)
                    for x in pts.tolist()]
                ll = np.array([[math.log(max(abs(g[n]), 1e-300))
                                for n in orders] for g in lj])
                r2 = ll - ns * math.log(eta) - lN
                extra = {"cond1": _per_n(orders, r1),
                         "cond2": _per_n(orders, r2)}
            else:
                # the envelope is a min, so C must satisfy both branches
                lx = np.array([math.log(max(abs(x), 1e-300)) for x in pts])
                r2 = la - (ns * math.log(mu) + lN - ns * lx[:, None])
            prof = np.maximum(r1, r2)
    per_n = _per_n(orders, prof)
    C = max(per_n.values())
    return ClassFit(class_tag, C, per_n,
                    {"interval": list(interval), "grid_size": grid_size,
                     "n_max": n_max, "eta": eta, "mu": mu, "a": a}, extra)


# ---------------------------------------------------------------------------
# regular-sequence facts
# ---------------------------------------------------------------------------

@dataclass
class RegularFactsReport:
    C2: float
    C3: float
    C4: float
    C4_half_range: float
    slowly_varying: bool
    details: dict


def regular_sequence_facts(M: SequenceM, C1: float = 4.0,
                           n_max: Optional[int] = None) -> RegularFactsReport:
    """Measure the comparability witnesses of regular sequences:
    (i) m_k^{1/k} <= m_1 k^{C2}; (ii) m_n^{1/n} <= C3 m_k^{1/k} for
    n in [k, C1 k]; (iii) m_k^{n/k} <= C4^{k+n} m_n.  A C4 witness that
    grows with the range flags a non-slowly-varying profile."""
    n_max = n_max or M.n_max
    lm = M.logm_upto(n_max)
    ns = np.arange(n_max + 1)
    v = np.r_[0.0, lm[1:] / ns[1:]]
    # math.log per k: numpy's SIMD log can differ from libm's in the last bit
    logk = np.array([math.log(k) for k in range(2, n_max + 1)])
    C2 = max(float(np.max((v[2:] - lm[1]) / logk)), 0.0)

    # (k, n) tables over k, n = 1..n_max: exp is monotone, so the max of the
    # exponentials is the exponential of the max
    k, n = ns[1:, None], ns[None, 1:]
    window = (n >= k) & (n <= (C1 * k).astype(int))
    C3 = max(1.0, math.exp(np.max(v[n] - v[k], where=window,
                                  initial=-math.inf)))
    c4 = ((n / k) * lm[k] - lm[n]) / (k + n)
    half = n_max // 2
    C4_half = math.exp(np.max(c4[:half, :half], initial=0.0))
    C4 = math.exp(np.max(c4, initial=0.0))
    # slowly varying profile: v(2k) - v(k) -> 0, measured as a decreasing trend
    deltas = [float(v[2 * j] - v[j])
              for j in (n_max // 8, n_max // 4, n_max // 2)]
    slowly = bool(deltas[1] <= deltas[0] * 0.97 + 1e-12
                  and deltas[2] <= deltas[1] * 0.97 + 1e-12)
    return RegularFactsReport(C2, C3, C4, C4_half, slowly,
                              {"n_max": n_max, "C1": C1,
                               "v_doubling_deltas": deltas})
