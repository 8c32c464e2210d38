"""Generalized Borel and Laplace transforms.

The summation pipeline: divide Taylor coefficients by the moments
(``borel_coeffs``), continue the Borel-side series along the positive ray
(closed form or Pade), then integrate against the kernel
(``laplace_quadrature``).  ``moment_sum`` composes the three; on polynomials
the composition is the identity up to quadrature tolerance (the moment
identity).  ``borel_contour`` implements the contour-integral realization of
the Borel transform for functions analytic near the ray.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import (DegenerateDenominator, DerivativeUnavailable, DomainError,
                     IncompatibleGrowth, MomentSumError, PZeroOnRay,
                     QuadratureStall)
from .kernels import EntireE, KernelK
from .weights import L_inverse, WeightSpec, _array_or_pointwise, log_L_hat

_EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# formal power series
# ---------------------------------------------------------------------------

def _horner(coeffs, x):
    """sum_k coeffs[k] x^k by Horner's rule, for float coefficients and a
    float, complex or numpy array x."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class FormalSeries:
    """Finite coefficient vector a_0..a_n over exact rationals or floats."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(
            Fraction(c) if isinstance(c, int) else c for c in self.coeffs))

    @functools.cached_property
    def exact(self) -> bool:
        """Every coefficient is a Fraction; the Pade solve and ``to_json``
        ask."""
        return all(isinstance(c, Fraction) for c in self.coeffs)

    @functools.cached_property
    def numerators(self) -> tuple:
        """The ints N_k with a_k = N_k / D for an exact series, over the
        least common denominator D of its coefficients."""
        D = math.lcm(*(c.denominator for c in self.coeffs))
        return tuple(c.numerator * (D // c.denominator) for c in self.coeffs)

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, k):
        return self.coeffs[k]

    def eval(self, x):
        return _horner([float(c) for c in self.coeffs], x)

    def to_json(self) -> str:
        if self.exact:
            return json.dumps({"coeffs": [str(Fraction(c)) for c in self.coeffs],
                               "exact": True})
        return json.dumps({"coeffs": [float(c) for c in self.coeffs],
                           "exact": False})

    @staticmethod
    def from_json(text: str) -> "FormalSeries":
        """The series of ``to_json``.  ValueError unless "coeffs" is a
        non-empty list of finite numbers, or with "exact" set of rational
        strings or integers."""
        d = json.loads(text)
        cs = d.get("coeffs") if isinstance(d, dict) else None
        if not isinstance(cs, list) or not cs:
            raise ValueError('a series needs "coeffs", a non-empty list')
        exact = d.get("exact")
        kinds = (str, int) if exact else (int, float)
        for c in cs:
            if isinstance(c, bool) or not isinstance(c, kinds) or \
                    (isinstance(c, float) and not math.isfinite(c)):
                raise ValueError(f"series coefficient {c!r} is not "
                                 + ("rational" if exact else "a finite number"))
        if not exact:
            return FormalSeries(tuple(float(c) for c in cs))
        try:
            return FormalSeries(tuple(Fraction(c) for c in cs))
        except ZeroDivisionError as exc:
            raise ValueError("a series coefficient has denominator 0") from exc


# ---------------------------------------------------------------------------
# function handles
# ---------------------------------------------------------------------------

@dataclass
class FunctionHandle:
    """Evaluable function of one variable with optional derivative oracle.

    ``growth_eta`` tags the growth |F(t)| = O(E(eta t)) on the ray (0 for
    bounded/polynomially growing functions), where E belongs to
    ``growth_weight`` when set and to the integrating kernel's weight
    otherwise; ``analytic_radius`` is the radius of the disk of analyticity
    at the origin when known (inf for entire).  The evaluator and the
    oracle take numpy arrays whole if they can, and are mapped point by
    point if not (``weights._array_or_pointwise``).
    """

    evaluator: Callable
    # (x, n) -> F^(n)(x); arrays of n may hold 0, where it is F
    derivative_fn: Optional[Callable] = None
    growth_eta: float = 0.0
    growth_weight: Optional[WeightSpec] = None
    complex_capable: bool = False
    analytic_radius: float = math.inf
    label: str = ""

    def __post_init__(self):
        f, d = self.evaluator, self.derivative_fn
        self.evaluator = _array_or_pointwise(f)
        if d is not None:
            # point by point, an n = 0 point is F, as a whole n = 0 is
            self.derivative_fn = _array_or_pointwise(
                lambda x, n: d(x, n) if isinstance(n, np.ndarray) or n
                else f(x))

    def __call__(self, x):
        return self.evaluator(x)

    def derivative(self, x, n):
        """F^(n)(x); DerivativeUnavailable for n > 0 without an oracle.  x
        and n may be arrays that broadcast: they reach the oracle whole, or
        F itself when every n is 0."""
        if not (n.any() if isinstance(n, np.ndarray) else n):
            return self.evaluator(x)
        if self.derivative_fn is None:
            raise DerivativeUnavailable(
                f"{self.label or 'handle'} has no derivative oracle")
        return self.derivative_fn(x, n)

    @staticmethod
    def from_series_eval(series: FormalSeries, label="poly") -> "FunctionHandle":
        coeffs = [float(c) for c in series.coeffs]

        def ev(x):
            return _horner(coeffs, x)

        return FunctionHandle(ev, growth_eta=0.0, complex_capable=True,
                              label=label)


# ---------------------------------------------------------------------------
# Borel step
# ---------------------------------------------------------------------------

def borel_coeffs(s: FormalSeries, w: WeightSpec) -> FormalSeries:
    """Termwise division by the moments: coefficient n becomes a_n / mu_n.

    Exact when the input is rational and the weight declares integer
    moments (the factorial moments of the classical weight).
    """
    exact = w.closed("moments")
    out = []
    for n, a in enumerate(s.coeffs):
        if exact is not None and isinstance(a, (Fraction, int)):
            out.append(Fraction(a) / exact(n))
        else:
            out.append(float(a) / w.moment(n))
    return FormalSeries(tuple(out))


def remainder_Rn(f: FunctionHandle, z, n: int):
    """f(z) minus its Taylor polynomial of order < n at the origin."""
    return f(z) - _horner([f.derivative(0.0, k) / math.factorial(k)
                           for k in range(n)], z)


# ---------------------------------------------------------------------------
# Pade continuation
# ---------------------------------------------------------------------------

@dataclass
class PadeApproximant:
    num: tuple
    den: tuple
    poles: tuple = ()
    pole_on_ray: bool = False

    def __post_init__(self):
        # the float coefficients that __call__ evaluates
        self._float_num, self._float_den = (
            tuple(float(c) if isinstance(c, Fraction) else c for c in cs)
            for cs in (self.num, self.den))

    def __call__(self, x):
        return _horner(self._float_num, x) / _horner(self._float_den, x)

    def handle(self) -> FunctionHandle:
        return FunctionHandle(self.__call__, None, growth_eta=0.0,
                              complex_capable=True,
                              analytic_radius=min((abs(p) for p in self.poles),
                                                  default=math.inf),
                              label=f"pade({len(self.num)-1},{len(self.den)-1})")


def pade_continue(s: FormalSeries, order) -> PadeApproximant:
    """Rational approximant [m/n] agreeing with the series to order m+n.

    Exact solve for rational input, on the series' integer numerators
    (``FormalSeries.numerators``: the common denominator cancels from the
    denominator system); float solve otherwise.  Poles on the nonnegative
    ray set ``pole_on_ray``.
    """
    m, n = order
    if len(s) < m + n + 1:
        raise DomainError(f"need {m+n+1} coefficients for a ({m},{n}) Pade")
    c = s.coeffs

    # denominator: sum_{j=0..n} q_j c_{m+k-j} = 0, k=1..n, q_0 = 1
    q = [1]
    if n > 0:
        if s.exact:
            N = s.numerators
            q += _solve_exact([[N[m + k - j] if m + k - j >= 0 else 0
                                for j in range(1, n + 1)] + [-N[m + k]]
                               for k in range(1, n + 1)])
        else:
            A = [[c[m + k - j] if m + k - j >= 0 else 0
                  for j in range(1, n + 1)] for k in range(1, n + 1)]
            b = [-c[m + k] for k in range(1, n + 1)]
            An, bn = np.array(A, dtype=float), np.array(b, dtype=float)
            if np.linalg.cond(An) > 1e13:
                raise DegenerateDenominator("near-singular Pade system")
            q += list(np.linalg.solve(An, bn))
    p = [sum(q[j] * c[k - j] for j in range(min(k, n) + 1))
         for k in range(m + 1)]

    poles, on_ray = _ray_roots(q) if n > 0 else ((), [])
    return PadeApproximant(tuple(p), tuple(q), poles, bool(on_ray))


def _ray_roots(coeffs):
    """(every root, the real parts of the roots on [0, inf)) of the
    polynomial sum_k coeffs[k] t^k."""
    roots = tuple(complex(r) for r in
                  np.roots([float(c) for c in reversed(coeffs)]))
    return roots, _on_ray(roots)


def _on_ray(roots, sign=1):
    """The real parts of the roots r on the ray sign * [0, inf): |Im r| <
    1e-9 and sign * Re r >= -1e-12, so that Pade's pole screen and the Euler
    operator's zero screen decide alike on either ray."""
    return [r.real for r in roots
            if abs(r.imag) < 1e-9 and sign * r.real >= -1e-12]


def _felt_at_negative_x(roots, K: KernelK, x: float, tol: float):
    """The real parts of the roots r on (-inf, 0] of the denominator of F
    that the integral int F(x t) K(t) dt at x < 0 meets where they matter.
    F(x t) is singular at t = r / x.  A root is passed over where the kernel
    there is below the DE rule's end floor, _DE_FLOOR * tol: the rule's
    walk ends before it, and its principal-value ambiguity is of the
    kernel's size."""
    log_floor = math.log(_DE_FLOOR * tol)
    return [r for r in _on_ray(roots, -1) if K.log_abs(r / x) >= log_floor]


def _solve_exact(M):
    """The Fractions x with A x = b, for the n x (n + 1) integer matrix
    M = [A | b], by fraction-free Gauss-Jordan elimination (Bareiss,
    Math. Comp. 22, 1968).  Step k pivots on the first row from k down with
    a nonzero in column k, as elimination over Fractions does, and sets
    every other row r to (p_k M[r] - M[r][k] M[k]) / p_{k-1} on columns k
    and up, with p_k the pivot of step k and p_{-1} = 1.  Each entry stays
    a minor of M, so the division is exact.  At the end column n holds
    p_{n-1} x, with p_{n-1} = +-det A.  M is overwritten."""
    n = len(M)
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if M[r][k]), None)
        if piv is None:
            raise DegenerateDenominator("singular Pade system (exact)")
        M[k], M[piv] = M[piv], M[k]
        row = M[k][k:]
        pk = row[0]
        for i in range(n):
            if i != k:
                f = M[i][k]
                M[i][k:] = [(pk * v - f * w) // prev
                            for v, w in zip(M[i][k:], row)]
        prev = pk
    return [Fraction(M[i][n], prev) for i in range(n)]


# ---------------------------------------------------------------------------
# Laplace step
# ---------------------------------------------------------------------------

@dataclass
class SummationResult:
    value: float
    abs_error_estimate: float
    panels: int = 0
    method: str = ""
    truncation_t0: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "value": _jsonable(self.value),
            "abs_error_estimate": self.abs_error_estimate,
            "panels": self.panels, "method": self.method,
            "truncation_t0": self.truncation_t0,
            "diagnostics": {k: _jsonable(v) for k, v in self.diagnostics.items()},
        })


def _jsonable(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    return v


def _growth_limit(F: FunctionHandle, K: KernelK) -> float:
    """Largest eta*x the kernel decay can absorb.

    When the growth tag refers to the kernel's own weight the classical
    scale condition eta*x < 1 applies.  When it refers to a larger weight
    (a multi-summation product), the kernel's E dominates the tagged growth
    and the range expands by the moment-ratio root
    (mu_F(n)/mu_K(n))^(1/n) -> inf; the smallest probed root is used.
    """
    gw = F.growth_weight
    if gw is None:
        return 1.0
    try:
        r16, r32 = (math.exp((gw.moment_log(n) - K.weight.moment_log(n)) / n)
                    for n in (16, 32))
    except DomainError:
        return 1.0
    if r32 > r16 * 1.05:
        # strictly growing dominance root: the kernel absorbs any scale
        # (the truncation scan still detects an actually divergent integrand)
        return math.inf
    return max(1.0, min(r16, r32))


_DE_STEP = 0.5          # the first step in u
_DE_FLOOR = 1e-3        # ends: terms below this fraction of tol * peak
_DE_MAX_NODES = 1 << 14
_T_CAP = 1e6            # the right end walks no further
_K_CHUNK = 8            # lattice nodes per Mellin fill of the kernel table
_K_T_MIN = 1e-300       # lattice nodes with t at or below join no fill


def _de_nodes(u):
    """t = exp(u - e^-u) and dt/du: the exponential-decay DE map of the
    real u line onto (0, inf)."""
    e = np.exp(-u)
    t = np.exp(u - e)
    return t, t * (1.0 + e)


def _lattice_u(level, ms):
    """u of the lattice nodes ms of a DE level: m * 0.5 on level 0, the odd
    multiples (2m + 1) 0.5 / 2^level that each halving adds after."""
    if level == 0:
        return ms * _DE_STEP
    return (2 * ms + 1) * (_DE_STEP / 2 ** level)


def _lattice_kernel(K: KernelK, level: int, ms):
    """(K, errK) arrays at the lattice nodes ms of a DE level, read from the
    weight's kernel table (``WeightSpec.tabulated_kernel``).

    A missing node is filled with the aligned chunk of _K_CHUNK lattice
    nodes it lies in, those with t > 1e-300, in one ``mellin`` call.  The
    chunk depends on the node alone, so a value never depends on which sum
    asked first.  The asked nodes of a chunk whose call raises, and asked
    nodes at t <= 1e-300, are filled one per call.
    """
    def mellin_at(nodes):
        v, e = K.mellin(_de_nodes(_lattice_u(level, nodes))[0])
        return {(level, m): (kv, ke) for m, kv, ke in
                zip(nodes.tolist(), v.tolist(), e.tolist())}

    def fill(missing):
        new = {}
        for c in sorted({m // _K_CHUNK for *_, m in missing}):
            chunk = np.arange(c * _K_CHUNK, (c + 1) * _K_CHUNK)
            chunk = chunk[_de_nodes(_lattice_u(level, chunk))[0] > _K_T_MIN]
            if len(chunk):
                with contextlib.suppress(MomentSumError):
                    new.update(mellin_at(chunk))
        for key in missing:
            if key not in new:
                new.update(mellin_at(np.array(key[1:])))
        return new

    got = K.weight.tabulated_kernel(
        [(level, m) for m in ms.tolist()], fill)
    return np.array(got).T


def _real_on(F: FunctionHandle, xt, n):
    """Re F^(n) on the (rows, nodes) array xt, with n a (rows, 1) array of
    orders, or None for F itself."""
    v = np.asarray(np.real(F(xt) if n is None else F.derivative(xt, n)),
                   dtype=float)
    return v if v.shape == xt.shape else np.broadcast_to(v, xt.shape)


@np.errstate(all="ignore")
def _de_integrate(g, tol):
    """int_0^inf g(t) dt for a stack of rows, by the trapezoidal rule in u,
    t = exp(u - e^-u) (Takahashi & Mori 1974), level by level on node arrays
    that every row shares.

    ``g(ts, (level, ms))`` returns the integrand and its absolute error
    (None when exact) as (rows, nodes) arrays on an ascending node array,
    the nodes ms of a DE level (``_lattice_u``); ``tol`` holds each row's
    tolerance.  The first level, step 0.5, walks each end outward until two
    consecutive nodes are small in every row: below 1e-3 of the row's own
    tol times its own peak term, read from the outermost row peak on each
    side (the right end raises QuadratureStall past t = 1e6).  A
    non-finite term counts as small in the walk.  Each row then keeps its
    own range, from its peak out to its first two small nodes
    (``_own_ranges``).  Each next level halves the step on the union of the
    ranges, and a row stops at the first halving that moves its sum, over
    its own nodes, by at most tol * max(1, |S|); the halving goes on until
    every row has stopped.  A row that is 0 on the first nodes integrates
    to 0.  So each row takes the range, the levels and the stop that it
    takes alone, and a non-finite term raises QuadratureStall in a batch
    exactly where it does for its row alone: inside that row's own range.

    Returns (value, err, peak |g|, nodes, last node) arrays, one entry per
    row; err is the row's last change, plus its nodes' own errors, plus a
    rounding floor of a few ulps of the sum of its |terms|, and nodes
    counts the nodes the row takes alone.
    """
    h = _DE_STEP
    ks = np.arange(-4, 7)                  # u in [-2, 3]: t in [8e-5, 19]
    ts, ws = _de_nodes(ks * h)
    gv, ge = g(ts, (0, ks))
    rows = np.arange(len(gv))
    floor = (_DE_FLOOR * tol)[:, None]
    zero = None                            # rows that are 0 on the first nodes
    while True:
        # a non-finite term reads as -1: below every peak, and small
        terms = np.abs(gv * ws)
        terms = np.where(np.isfinite(terms), terms, -1.0)
        tops = terms.argmax(axis=1)
        peaks = terms[rows, tops]
        if zero is None and not peaks.all():
            zero = peaks == 0.0
            if zero.all():
                return (np.zeros(len(rows)), np.zeros(len(rows)),
                        np.zeros(len(rows)), np.full(len(rows), len(ts)),
                        np.full(len(rows), ts[-1]))
        if zero is not None:
            # read as 0 everywhere, peaking with another row
            terms[zero] = 0.0
            peaks[zero], tops[zero] = np.inf, tops[~zero][0]
        small = terms <= floor * peaks[:, None]
        every_small = np.logical_and.reduce(small, axis=0).tolist()
        top = tops.tolist()
        t0, t1 = min(top), max(top)
        left = [] if _decayed(every_small[t0::-1]) else [ks[0] - 2, ks[0] - 1]
        right = [] if _decayed(every_small[t1:]) else [ks[-1] + 1, ks[-1] + 2]
        if left and ts[0] < 1e-280:
            raise QuadratureStall("integrand has not decayed at t -> 0")
        if right and ts[-1] > _T_CAP:
            raise QuadratureStall(f"integrand did not decay below tolerance "
                                  f"by t_cap={_T_CAP:.3g}")
        if not (left or right):
            break
        new = np.array(left + right)
        nt, nw = _de_nodes(new * h)
        nv, ne = g(nt, (0, new))
        i = len(left)
        ks, ts, ws = (np.concatenate((n[:i], o, n[i:]))
                      for o, n in ((ks, new), (ts, nt), (ws, nw)))
        gv = np.concatenate((nv[:, :i], gv, nv[:, i:]), axis=1)
        if ge is not None:
            ge = np.concatenate((ne[:, :i], ge, ne[:, i:]), axis=1)
    a, b = _own_ranges(small, tops)
    T = ts[b]
    if zero is not None:
        T[zero] = _de_nodes(6 * _DE_STEP)[0]    # the first nodes' last
    if T.max() > _T_CAP:
        raise QuadratureStall(f"integrand did not decay below tolerance by "
                              f"t_cap={_T_CAP:.3g}")
    # the nodes of each row's walk alone: 11, and 2 a side per step out
    a, b, k0 = a.tolist(), b.tolist(), int(ks[0])
    walked = [11 + 2 * ((max(-4 - k0 - ra, 0) + 1) // 2
                        + (max(k0 + rb - 6, 0) + 1) // 2)
              for ra, rb in zip(a, b)]
    A, B = min(a), max(b)
    ks, ws, gv = ks[A:B + 1], ws[A:B + 1], gv[:, A:B + 1]
    a, b = [r - A for r in a], [r - A for r in b]
    # a zero row keeps these: 0 over the 11 first nodes, as alone
    value, err, nodes = np.zeros(len(rows)), np.zeros(len(rows)), [11]
    running = None if zero is None else ~zero     # None: every row runs
    spans, cap = _spans(a, b, walked, running)
    sums = _own_sums(spans, gv, None if ge is None else ge[:, A:B + 1], ws,
                     1, 1)
    acc, peak = h * sums[:3], sums[3]     # sum, sum of |terms|, node errors
    level = 0
    while True:
        level += 1
        sc = 2 ** (level - 1)
        ms = np.arange(ks[0] * sc, ks[-1] * sc)
        h /= 2
        ts, ws = _de_nodes(_lattice_u(level, ms))
        gv, ge = g(ts, (level, ms))
        sums = _own_sums(spans, gv, ge, ws, sc, 0)
        coarse = acc[0]
        acc = acc / 2 + h * sums[:3]
        peak = np.maximum(peak, sums[3])
        change = np.abs(acc[0] - coarse)
        moved = change > tol * np.maximum(1.0, np.abs(acc[0]))
        if running is not None:
            moved |= ~running             # a stopped row stays stopped
        if not moved.all():
            now = np.array([w + (rb - ra) * (2 * sc - 1)
                            for w, ra, rb in zip(walked, a, b)])
            last = change + acc[2] + 8 * _EPS * acc[1]
            if running is None and not moved.any():
                return acc[0], last, peak, now, T
            done = ~moved
            value[done], err[done] = acc[0, done], last[done]
            nodes = np.where(done, now, nodes)
            running = moved if running is None else running & moved
            if not running.any():
                break
            spans, cap = _spans(a, b, walked, running)
        if level >= cap:
            moving = change if running is None else change[running]
            raise QuadratureStall(f"DE sum at step {h:.3g} still moves by "
                                  f"{moving.max():.2e}")
    return value, err, peak, nodes, T


def _own_ranges(small, tops):
    """(a, b): each row's range as it takes it alone, the indices of the
    second of the first two consecutive small nodes on each side of its
    peak (``_decayed``); the walk leaves such a pair on each side."""
    j = np.arange(small.shape[1] - 1)
    pair = small[:, :-1] & small[:, 1:]            # nodes j and j + 1
    d = j - tops[:, None]
    a = len(j) - 1 - (pair & (d <= -2))[:, ::-1].argmax(axis=1)
    b = (pair & (d >= 1)).argmax(axis=1) + 1
    return a, b


def _spans(a, b, walked, running):
    """The running rows (all rows for None) grouped by their own range
    [a, b] and walk, as (rows, a, b), rows a basic index where it can be
    (a slice when every row shares one range, an int for a lone row); and
    the first level whose nodes take a running row past _DE_MAX_NODES."""
    spans = {}
    for r in (range(len(a)) if running is None
              else np.flatnonzero(running).tolist()):
        spans.setdefault((a[r], b[r], walked[r]), []).append(r)
    # walked + (b - a)(2^cap - 1) > _DE_MAX_NODES
    cap = min((max(_DE_MAX_NODES - rw, 0) // (rb - ra) + 1).bit_length()
              for ra, rb, rw in spans)
    return [(slice(None) if len(rs) == len(a) else
             rs[0] if len(rs) == 1 else np.array(rs), ra, rb)
            for (ra, rb, _), rs in spans.items()], cap


def _own_sums(spans, gv, ge, ws, sc, closed):
    """Per row, over its own nodes of a level (indices a * sc to b * sc,
    and b itself when ``closed``): the sum of g * w, of |g * w|, of the
    node errors err * w, and the largest |g|, as a (4, rows) array.
    QuadratureStall for a non-finite term there, read from its sum of
    |g * w|."""
    terms = np.empty((3,) + gv.shape)
    np.multiply(gv, ws, out=terms[0])
    np.abs(terms[0], out=terms[1])
    terms[2] = 0.0 if ge is None else ge * ws
    size = np.abs(gv)
    out = np.zeros((4, len(gv)))          # a row outside the spans: 0
    for rs, a, b in spans:
        nodes = slice(a * sc, b * sc + closed)
        out[:3, rs] = np.add.reduce(terms[:, rs, nodes], axis=-1)
        out[3, rs] = np.maximum.reduce(size[rs, nodes], axis=-1)
    if not np.isfinite(out[1]).all():
        raise QuadratureStall("integrand not finite inside the range")
    return out


def _decayed(small):
    """Whether two consecutive terms, counted from the peak outward and
    past the node next to it, are small: the walk stops on that side."""
    return any(map(operator.and_, small[1:], small[2:]))


def _integrand(F: FunctionHandle, K: KernelK, x, n):
    """g(ts, at) = F^(n)(x t) t^n K(t) on a node array, one row per entry of
    the arrays x and n, with its error |F^(n)(x t)| t^n errK(t) from
    Mellin's per-node error (None for a closed K).  A Mellin K is read from
    the weight's kernel table at the lattice nodes ``at`` = (level, ms)."""
    x = x[:, None]
    n = n[:, None] if n.any() else None

    def g(ts, at):
        Fv = _real_on(F, x * ts, n)
        if n is not None:
            Fv = Fv * ts ** n
        if K.exact:
            return Fv * np.real(K.eval(ts)), None
        Kv, Ke = _lattice_kernel(K, *at)
        return Fv * Kv, np.abs(Fv) * Ke
    return g


def laplace_quadrature(F: FunctionHandle, K: KernelK, x: float,
                       tol: float = 1e-9) -> SummationResult:
    """f(x) = int_0^inf F(x t) K(t) dt by the double-exponential rule
    (``_de_integrate``), with F and K evaluated on whole node arrays.

    ``panels`` counts the nodes and ``truncation_t0`` is the last one.
    """
    if F.growth_eta * x >= _growth_limit(F, K):
        raise IncompatibleGrowth(
            f"growth tag eta={F.growth_eta} with x={x} leaves the kernel "
            "decay uncompensated (eta*x >= 1 at the kernel's scale)")
    val, err, peak, nodes, T = _de_integrate(
        _integrand(F, K, np.array([x]), np.zeros(1, int)), np.array([tol]))
    return SummationResult(float(val[0]), float(err[0]), int(nodes[0]),
                           "laplace_de", float(T[0]), {"peak": float(peak[0])})


def laplace_derivative_n(F: FunctionHandle, K: KernelK, x, n, tol=1e-9):
    """f^(n)(x) = int F^(n)(x t) t^n K(t) dt (derivatives under the
    integral), by the same rule as ``laplace_quadrature``.

    x, n and tol broadcast: each element is one row, with its own tol, and
    every row is integrated in one ``_de_integrate`` call.  A float for
    scalars, an array of the broadcast shape otherwise."""
    x, n, tol = np.broadcast_arrays(np.asarray(x, dtype=float), n, tol)
    if np.any(F.growth_eta * x >= _growth_limit(F, K)):
        raise IncompatibleGrowth("eta*x >= 1 at the kernel's scale")
    val = _de_integrate(_integrand(F, K, x.ravel(), n.ravel()), tol.ravel())[0]
    return val.reshape(x.shape) if x.ndim else float(val[0])


# ---------------------------------------------------------------------------
# the summation pipeline
# ---------------------------------------------------------------------------

def continue_borel_series(b: FormalSeries, continuation="pade"):
    """Pick the Borel-side evaluator: a user handle, the truncated
    polynomial, or a screened Pade approximant.  Returns (handle,
    diagnostics, the Pade approximant or None).

    The Pade walk steps down the diagonal on singular systems (rational
    inputs hit the block structure of the Pade table) and on ray poles;
    order (m, 0) is the polynomial itself, so the walk always terminates.
    """
    diag = {}
    if isinstance(continuation, FunctionHandle):
        return (continuation, {"continuation": continuation.label or "user"},
                None)
    if continuation == "poly":
        return (FunctionHandle.from_series_eval(b), {"continuation": "poly"},
                None)
    if continuation != "pade":
        raise DomainError(f"unknown continuation {continuation!r}")
    N = len(b) - 1
    m, n = N - N // 2, N // 2
    while n > 0:
        try:
            pa = pade_continue(b, (m, n))
        except DegenerateDenominator:
            pa = None
        if pa is not None and not pa.pole_on_ray:
            break
        m, n = m - 1, n - 1
    else:
        pa = pade_continue(b, (N, 0))   # the truncated polynomial
    diag["continuation"] = f"pade({len(pa.num) - 1},{len(pa.den) - 1})"
    diag["pole_on_ray"] = pa.pole_on_ray
    return pa.handle(), diag, pa


def moment_sum(a: FormalSeries, w: WeightSpec, x: float,
               continuation="pade", tol: float = 1e-9) -> SummationResult:
    """Resummation: borel_coeffs -> analytic continuation -> Laplace integral.

    ``continuation`` is either a FunctionHandle for the Borel-side function
    or "pade" (order near (N/2, N/2) with pole screening).  At x < 0 the
    integral runs F along the negative ray, so a Pade pole there raises
    PZeroOnRay before the quadrature, unless the kernel is below tol where
    the path meets it (``_felt_at_negative_x``).
    """
    K = KernelK(w)
    b = borel_coeffs(a, w)
    F, diag, pa = continue_borel_series(b, continuation)
    if x < 0 and pa is not None:
        on_path = _felt_at_negative_x(pa.poles, K, x, tol)
        if on_path:
            raise PZeroOnRay(f"{diag['continuation']} has a pole at "
                             f"t={on_path[0]:.6g}, on the ray of x < 0")
    res = laplace_quadrature(F, K, x, tol)
    res.method = "moment_sum"
    res.diagnostics.update(diag)
    return res


# ---------------------------------------------------------------------------
# contour Borel transform
# ---------------------------------------------------------------------------

def borel_contour(g: FunctionHandle, w: WeightSpec, x: float, n: int = 0,
                  R: Optional[float] = None, eta: float = 1.05,
                  tol: float = 1e-10) -> complex:
    """G^(n)(x) = (1/2 pi i) int_{Gamma(R)} g^(n)(x/w) E(w) dw / w^{n+1}.

    Gamma(R) is the arc |w| = R, |arg w| < theta_R joined to two rays at
    +-theta_R with theta_R = eta / Lhat(L^{-1}(R)); rays are truncated where
    |E(w)| / |w|^{n+1} falls below tolerance.  Requires an evaluator for E
    that stays accurate off the ray, so the weight must have a closed entire
    form (classical and alpha=2 gamma_power do, as do custom weights with an
    ``entire`` hook).
    """
    # imported here: no command reaches this yet (ROADMAP direction 9), and
    # scipy.integrate would add to every command's start-up
    from scipy.integrate import quad
    if not g.complex_capable:
        raise DomainError("contour Borel transform needs a complex-capable g")
    E = EntireE(w)
    if E._closed is None:
        raise DomainError(
            "borel_contour needs a closed-form E for off-ray evaluation; "
            f"{w.describe()} has none")
    r_g = g.analytic_radius
    if R is None:
        R = max(1.0, 1.35 * abs(x) / min(r_g, 1e6))
    if abs(x) / R >= r_g:
        raise DomainError(
            f"contour radius {R} maps x={x} outside the declared analyticity "
            f"disk (radius {r_g})")

    # theta_R from the companion sequence profile of the moment weight
    theta = min(eta * math.exp(-log_L_hat(E._mw, L_inverse(E._mw, max(R, 2.0)))),
                0.95 * math.pi)

    def Ew(wv):
        return complex(E._closed(wv))

    def integrand(wv):
        return g.derivative(x / wv, n) * Ew(wv) / wv ** (n + 1)

    # arc part
    def arc_part(theta_v, part):
        wv = R * np.exp(1j * theta_v)
        val = integrand(wv) * 1j * wv
        return val.real if part == 0 else val.imag

    arc_re, _ = quad(lambda th: arc_part(th, 0), -theta, theta,
                     epsabs=tol, epsrel=tol, limit=300)
    arc_im, _ = quad(lambda th: arc_part(th, 1), -theta, theta,
                     epsabs=tol, epsrel=tol, limit=300)
    total = arc_re + 1j * arc_im

    # ray truncation where |E|/|w|^{n+1} is negligible against the arc scale
    scale = max(abs(total), tol)
    U = R
    for _ in range(400):
        U *= 1.25
        if abs(Ew(U * np.exp(1j * theta))) / U ** (n + 1) < tol * scale / 10:
            break

    # sqrt-spaced panels keep the per-panel oscillation count bounded for
    # Gaussian-type phases (E of fractional weights oscillates like e^{i c u^2}
    # along the rays); for the classical exponential phase they are harmless
    knots = np.sqrt(np.linspace(R * R, U * U, 64))
    for sgn in (+1, -1):
        phase = np.exp(sgn * 1j * theta)

        def ray_part(u, part):
            wv = u * phase
            val = integrand(wv) * phase * sgn
            return val.real if part == 0 else val.imag

        for a, b in zip(knots[:-1], knots[1:]):
            ray_re, _ = quad(lambda u: ray_part(u, 0), a, b, epsabs=tol,
                             epsrel=tol, limit=200)
            ray_im, _ = quad(lambda u: ray_part(u, 1), a, b, epsabs=tol,
                             epsrel=tol, limit=200)
            total += ray_re + 1j * ray_im
    return total / (2j * math.pi)
