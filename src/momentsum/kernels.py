"""The entire function E and the moment kernel K.

``E(z) = sum_n z^n / mu_n`` is the Borel transform of the Cauchy kernel;
``K`` is the function on the positive ray whose moments are ``mu_n``,
realized as the inverse Mellin transform of the index-shifted weight.  Their
matched growth/decay (E grows exactly as fast as 1/K) is what makes the
Laplace integrals of the transforms module converge, and both admit
saddle-point asymptotics driven by ``solve_saddle``.

Closed forms come from the weight's family table (``WeightSpec.closed``):
for gamma_power ``mu_n = Gamma(1+n/alpha)``, ``K(t) = alpha t^(alpha-1)
exp(-t^alpha)`` (exactly; the literature's ``exp(-t^alpha)`` differs by the
polynomial prefactor and is kept as the textbook-normalization closed form,
coinciding at alpha = 1), and E is the Mittag-Leffler function (``exp`` at
alpha=1, ``erfcx``-type at alpha=2).  Both classes look their closed forms
up once, at construction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from .errors import (DecayTooSlow, DomainError, MomentSumError, NoConvergence,
                     QuadratureStall, SaddleFailure, TruncationError,
                     UnsupportedFamily)
from .weights import (LOG_FLOAT_MAX, L_inverse, WeightSpec,
                      _array_or_pointwise, eval_eps, gamma_hat_numeric, log_L,
                      log_L_hat, moment_weight, solve_saddle)

_EPS = np.finfo(float).eps
_LOG_TINY = -750.0           # exp() of anything below is 0 in floats
_MELLIN_SAMPLES = 1 << 16    # samples per half line before Mellin gives up


# ---------------------------------------------------------------------------
# E
# ---------------------------------------------------------------------------

@dataclass
class EAsymptotic:
    """Saddle-point value of E with branch information."""
    value: complex
    log_abs: float
    branch: str            # "main" | "subdominant"
    saddle: object = None


class EntireE:
    """E(z) = sum_{n>=0} z^n / mu_n with certified truncation.

    The series cache grows on demand; closed forms are used when the weight
    declares one (exp for the classical weight, the Mittag-Leffler/erfcx
    form at alpha = 2, a custom ``entire`` hook).  Very large positive-real
    arguments are handled in log scale.
    """

    def __init__(self, weight: WeightSpec, rel_tol: float = 1e-12,
                 n_cap: int = 100_000, auto_asymptotic: bool = True):
        self.weight = weight
        self.rel_tol = rel_tol
        self.n_cap = n_cap
        self.auto_asymptotic = auto_asymptotic
        self._log_mu = []
        self._closed = weight.closed("entire")
        self._log_closed = weight.closed("log_entire_real")

    def _log_mu_upto(self, n):
        while len(self._log_mu) <= n:
            self._log_mu.append(self.weight.moment_log(len(self._log_mu)))
        return self._log_mu

    def series(self, z, rel_tol: Optional[float] = None) -> complex:
        """Direct partial summation with a geometric tail certificate."""
        rel_tol = rel_tol or self.rel_tol
        z = complex(z)
        az = abs(z)
        lm = self._log_mu_upto(0)[0]
        term = complex(math.exp(-lm))
        total = term
        n = 1
        while n <= self.n_cap:
            lms = self._log_mu_upto(n)
            term = term * z * math.exp(lms[n - 1] - lms[n])
            at = abs(term)
            if at > 1e306:
                raise TruncationError("series terms overflow; use log_eval_real")
            total += term
            ratio = az * math.exp(self._log_mu_upto(n + 1)[n] -
                                  self._log_mu_upto(n + 1)[n + 1])
            if ratio < 0.5:
                tail = at * ratio / (1.0 - ratio)
                if tail <= rel_tol * max(abs(total), 1e-300):
                    return total
            n += 1
        raise TruncationError(
            f"no tail domination after {self.n_cap} terms at |z|={az:.3g}")

    def _log_moments(self, ns):
        """log mu_n for an integer array ns >= 0 in one weight call."""
        return np.real(self.weight.log_gamma(ns.astype(float)))

    def log_series_real(self, x: float, rel_tol: Optional[float] = None) -> float:
        """log E(x) for real x >= 0: a log-sum-exp over the terms within 60
        nats of the largest.

        The log terms n log x - log mu_n are concave in n, so the peak is
        where their increment changes sign (doubling, then bisection).  The
        window grows from the peak in chunks of 12 widths of the Gaussian
        the terms follow there, until both ends are 60 nats down.  A window
        of more than ``n_cap`` terms raises TruncationError.
        """
        if x < 0:
            raise DomainError("log_series_real needs x >= 0")
        lm0 = self.weight.moment_log(0)
        if x == 0.0:
            return -lm0
        lx = math.log(x)

        def probe(n):
            # (increment of the log term past n >= 1, chunk width at n)
            lm = self._log_moments(np.arange(n - 1, n + 2))
            curv = lm[0] - 2 * lm[1] + lm[2]
            width = int(12.0 / math.sqrt(curv)) + 16 if curv > 0 else math.inf
            return lx - (lm[2] - lm[1]), width

        peak = 0
        if lx > self.weight.moment_log(1) - lm0:
            lo, hi = 0, 1
            while True:
                inc, width = probe(hi)
                if inc <= 0:
                    break
                if hi > self.n_cap and 2 * width > self.n_cap:
                    raise TruncationError(f"series peak beyond reach at x={x:.3g}")
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if probe(mid)[0] > 0 else (lo, mid)
            peak = hi
        chunk = probe(peak)[1] if peak else 64
        if 2 * chunk >= self.n_cap:
            raise TruncationError(f"series peak beyond reach at x={x:.3g}")
        first, last = max(peak - chunk, 0), peak + chunk
        ns = np.arange(first, last + 1)
        logs = ns * lx - self._log_moments(ns)
        while len(logs) <= self.n_cap:
            top = logs.max()
            grow_left = first > 0 and logs[0] > top - 60.0
            grow_right = logs[-1] > top - 60.0
            if not (grow_left or grow_right):
                return float(top + math.log(np.exp(logs - top).sum()))
            if grow_left:
                ns = np.arange(max(first - chunk, 0), first)
                logs = np.concatenate((ns * lx - self._log_moments(ns), logs))
                first = int(ns[0])
            if grow_right:
                ns = np.arange(last + 1, last + chunk + 1)
                logs = np.concatenate((logs, ns * lx - self._log_moments(ns)))
                last = int(ns[-1])
        raise TruncationError(f"more than {self.n_cap} series terms within "
                              f"60 nats of the peak at x={x:.3g}")

    def eval(self, z) -> complex:
        cf = self._closed
        if cf is not None:
            return complex(cf(complex(z)))
        try:
            return self.series(z)
        except TruncationError:
            if not self.auto_asymptotic:
                raise
            a = self.asymptotic(z)
            if a.branch != "main":
                raise
            return a.value

    def log_eval_real(self, x: float) -> float:
        if self._log_closed is not None:
            return self._log_closed(x)
        try:
            return self.log_series_real(x)
        except TruncationError:
            if not self.auto_asymptotic:
                raise
            a = self.asymptotic(x)
            if a.branch != "main":
                raise
            return a.log_abs

    def asymptotic(self, z, delta: float = 0.08) -> EAsymptotic:
        """Saddle-point value sqrt(2 pi s/eps) exp(s eps)/z for the entire function
        of the moment-anchored weight; off the main sector the subdominant
        O(1/z) branch is flagged and the series value (if affordable) is
        returned."""
        z = complex(z)
        mw = moment_weight(self.weight)
        eps_lim = float(np.real(eval_eps(mw, 1e6)))
        boundary = (math.pi / 2 + delta) * max(eps_lim, 1e-6)
        if abs(np.angle(z)) > min(boundary, math.pi):
            val = None
            cf = self._closed
            if cf is not None:
                val = complex(cf(z))
            else:
                # the subdominant value is O(1/z) while the raw series terms
                # peak near E(|z|): only sum when the cancellation is benign
                try:
                    if self.log_series_real(abs(z)) < 25.0:
                        val = self.series(z)
                except MomentSumError:
                    val = None
            if val is None:
                return EAsymptotic(0j, -math.inf, "subdominant")
            la = math.log(abs(val)) if val != 0 else -math.inf
            return EAsymptotic(val, la, "subdominant")
        try:
            sp = solve_saddle(mw, z)
        except (DomainError,) as exc:
            raise SaddleFailure(str(exc)) from exc
        s = sp.s_z
        eps = eval_eps(mw, s)
        log_e = (0.5 * (np.log(2 * np.pi) + np.log(s) - np.log(eps))
                 + s * eps - np.log(z))
        la = float(np.real(log_e))
        value = np.exp(log_e) if la < LOG_FLOAT_MAX else complex(np.inf)
        return EAsymptotic(complex(value), la, "main", sp)


# ---------------------------------------------------------------------------
# K
# ---------------------------------------------------------------------------

def K_closed(w: WeightSpec, t):
    """Textbook-normalization closed form exp(-t^alpha) (gamma_power only).

    Coincides with the canonical moment kernel exactly at alpha = 1; for
    other alpha it differs by the prefactor alpha t^(alpha-1) and is kept
    for reference comparisons only.
    """
    fn = w.closed("textbook_kernel")
    if fn is None:
        raise UnsupportedFamily(f"no textbook closed kernel for {w.describe()}")
    return fn(t)


@dataclass
class KernelK:
    """Moment kernel with int_0^inf t^n K(t) dt = mu_n.

    ``eval`` uses the exact kernel when the weight declares one and
    otherwise inverts the Mellin transform of the moment-anchored weight
    (``mellin``); ``asymptotic`` applies the saddle-point formula.
    """

    weight: WeightSpec
    mellin_tol: float = 1e-10
    _mw: WeightSpec = field(init=False, repr=False)
    _closed: Optional[Callable] = field(init=False, repr=False)
    _log_abs_closed: Optional[Callable] = field(init=False, repr=False)
    _grid: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self._mw = moment_weight(self.weight)
        closed = self.weight.closed("kernel")
        self._closed = closed and _array_or_pointwise(closed)
        self._log_abs_closed = self.weight.closed("log_abs_kernel")

    # -- canonical closed form --------------------------------------------

    def closed(self, t):
        """Exact kernel where the weight declares one (alpha t^(alpha-1)
        exp(-t^alpha) for gamma_power, a custom ``kernel`` hook); None
        otherwise."""
        return None if self._closed is None else self._closed(t)

    def log_abs_closed(self, t):
        """log |K(t)| for complex t via the closed form (overflow-safe)."""
        return None if self._log_abs_closed is None else self._log_abs_closed(t)

    # -- Mellin inversion ----------------------------------------------------

    def _abscissa(self, log_t):
        """For an array of log t, as lists: the real saddles c of phi(z) = log
        gamma~(z) - z log t, where phi is smallest on the real axis; the
        widths sigma = phi''(c)^(-1/2) of the integrand's peak across the
        line; and, where the saddle lies left of the half-plane and c is
        clamped at its edge, the slope phi'(c) > 0: the rate of the
        integrand's linear phase t^(-iy) there (zero elsewhere).

        A log grid of c, shared by all nodes and by all calls (its weight
        values are computed once), brackets each minimum, and a
        safeguarded Newton step on finite differences refines each to
        within sigma, with one weight call per step for all nodes.  c stays
        inside the twin's evaluable half-plane and its sector.
        """
        mw = self._mw
        lo = max(mw.min_real, -mw.shift_c)
        if self._grid is None:
            cs = lo + 10.0 ** np.arange(-3.0, 12.0, 1.0 / 3.0)
            cs = cs[cs < mw.max_real]
            lg = np.real(mw.log_gamma(cs))
            self._grid = cs, np.where(np.isnan(lg), np.inf, lg)
        cs, lg = self._grid
        k = (lg - log_t[:, None] * cs).argmin(axis=1)
        a, b, c = (cs[k - (k > 0)].tolist(), cs[k + (k < len(cs) - 1)].tolist(),
                   cs[k].tolist())
        sigma, slope = [1.0] * len(c), [0.0] * len(c)
        lts, live = log_t.tolist(), list(range(len(c)))
        for _ in range(40):
            if not live:
                break
            hs = [min(1e-3 * max(1.0, abs(c[i])), 0.5 * (c[i] - lo))
                  for i in live]
            f = np.real(mw.log_gamma(np.array(
                [(c[i] - h, c[i], c[i] + h) for i, h in zip(live, hs)]))).tolist()
            nxt = []
            for i, h, (fm, f0, fp) in zip(live, hs, f):
                d1 = (fp - fm) / (2 * h) - lts[i]
                d2 = (fp - 2 * f0 + fm) / h ** 2
                slope[i] = d1
                if not d2 > 0:
                    continue
                sigma[i] = d2 ** -0.5
                if d1 > 0:
                    b[i] = c[i]
                else:
                    a[i] = c[i]
                new = c[i] - d1 / d2
                if not a[i] < new < b[i]:
                    new = 0.5 * (c[i] + (a[i] if d1 > 0 else b[i]))
                slope[i] = d1 + d2 * (new - c[i])
                if abs(new - c[i]) > sigma[i]:
                    nxt.append(i)
                c[i] = new
            live = nxt
        return c, sigma, [d if ci <= cs[0] else 0.0 for ci, d in zip(c, slope)]

    def _line_sums(self, t, tol, log_floor=_LOG_TINY):
        """Trapezoidal sums of K(t) = (1/2 pi i) int t^{-z} gamma~(z) dz for
        an array of t, in log scale: returns (real, log_factor, total, err)
        with K = exp(log_factor) * total and err in the units of total.

        The nodes are sorted by log t and cut into runs whose saddles lie
        within one sigma of the run's first; each run shares one vertical
        line Re z = c.  On that line the integrand of node j is
        exp(phi_j(c + iy) - phi_j(c)), so a run costs one weight call per
        refinement and one (nodes x samples) matrix exponent.  The sum
        starts with 40 samples per half line at step 0.4 sigma, less where
        a node's phase turns faster than its peak is wide (a clamped
        saddle, or a node off the shared saddle), so that the coarse step
        2h still resolves it.  The window
        in y doubles until, for every node, its outer quarter holds less
        than 1e-3 tol of the integral (DecayTooSlow past 2^16 samples), and
        the step halves until one halving moves each node's sum by at most
        ``tol`` of its result (of 1e-3 of the integral of |integrand| where
        the result cancels) or the node's result lies below exp(log_floor).
        err is the change under that last halving plus the rounding of the
        samples.
        """
        ta = np.atleast_1d(np.asarray(t))
        real = not (np.iscomplexobj(ta) and ta.imag.any())
        if real:
            ta = np.asarray(ta.real, dtype=float)
        if ((ta.real <= 0) & (ta.imag == 0)).any():
            raise DomainError("Mellin kernel evaluation needs Re t > 0")
        log_t = np.log(ta)
        if not real and (np.abs(log_t.imag) > math.pi / 2 - 0.05).any():
            raise DomainError("Mellin line integral valid for |arg t| < pi/2")
        c, sigma, slope = self._abscissa(log_t.real)
        order = np.argsort(log_t.real, kind="stable").tolist()
        kind = float if real else complex
        log_factor, total = np.empty(len(ta), kind), np.empty(len(ta), kind)
        err = np.empty(len(ta))
        while order:
            first = order[0]
            stop = 1
            while stop < len(order) and \
                    abs(c[order[stop]] - c[first]) <= sigma[first]:
                stop += 1
            run, order = order[:stop], order[stop:]
            cg, sg = c[first], min(sigma[j] for j in run)
            # each node's phase rate on the shared line
            rate = max(abs(slope[j] + (cg - c[j]) / sigma[j] ** 2) for j in run)
            h = 0.4 * sg / (1.0 + 0.4 * sg * rate / math.pi)
            log_factor[run], total[run], err[run] = self._run_sums(
                cg, log_t[run], real, h, tol, log_floor)
        return real, log_factor, total, err

    def _run_sums(self, c, log_t, real, h, tol, log_floor):
        """The saddle-line sums of one run of nodes on Re z = c."""
        mw = self._mw

        def pairs(y, lg=None):
            # F_j(y) + F_j(-y), F_j(y) = exp(phi_j(c + iy) - phi_j(c));
            # conjugate symmetry halves the work for real t.  lg: the
            # weight's values at c + iy when already known
            iy = 1j * (y if real else np.concatenate((y, -y)))
            if lg is None:
                lg = mw.log_gamma(c + iy)
            F = np.exp(lg - lg_c - log_t[:, None] * iy)
            return 2.0 * F.real if real else F[:, :len(y)] + F[:, len(y):]

        n = 40
        y = h * np.arange(1, n + 1)
        # the first weight call also takes the crossing z = c, for phi_j(c)
        ys = ([0.0], y) if real else ([0.0], y, -y)
        lg = mw.log_gamma(c + 1j * np.concatenate(ys))
        lg_c = lg[0].real if real else lg[0]
        phi0 = lg_c - c * log_t
        with np.errstate(under="ignore", over="ignore", invalid="ignore"):
            # a node is done once its result lies below exp(log_floor)
            small = np.exp(log_floor - phi0.real).tolist()
            vals = pairs(y, lg[1:])
            while True:
                # per node: the sums over even and odd samples (the odd
                # ones, y = 2h, 4h, ..., make the coarse sum) and of |.|
                # inside and over the outer quarter, tested in floats
                size = np.abs(vals)
                rows = zip(vals.reshape(len(vals), -1, 2).sum(axis=1).tolist(),
                           np.add.reduceat(size, [0, 3 * n // 4], axis=1).tolist(),
                           small)
                total, mass, err, wide, done = [], [], [], False, True
                for j, ((s_even, s_odd), (s_in, s_out), lim) in enumerate(rows):
                    tot = h * (1.0 + s_even + s_odd)
                    mas = h * (1.0 + s_in + s_out)
                    if not math.isfinite(mas):
                        raise DecayTooSlow("Mellin integrand not finite at "
                                           f"t={np.exp(log_t[j]):.6g}")
                    scale = max(abs(tot), 1e-3 * mas)
                    wide = wide or h * s_out > 1e-3 * tol * scale
                    e = abs(tot - 2 * h * (1.0 + s_odd))
                    done = done and (e <= tol * scale or mas < lim)
                    total.append(tot), mass.append(mas), err.append(e)
                if wide:
                    if n >= _MELLIN_SAMPLES:
                        raise DecayTooSlow("Mellin integrand has not decayed "
                                           f"by |y|={h * n:.3g}")
                    vals = np.concatenate(
                        (vals, pairs(h * np.arange(n + 1, 2 * n + 1))), axis=1)
                    n *= 2
                    continue
                if done:
                    break
                if n >= _MELLIN_SAMPLES:
                    raise QuadratureStall(f"Mellin sum at step {h:.3g} still "
                                          f"moves by {max(err):.2e}")
                fine = np.empty((len(log_t), 2 * n), dtype=vals.dtype)
                fine[:, 0::2] = pairs(h * (np.arange(n) + 0.5))
                fine[:, 1::2] = vals
                vals, h, n = fine, h / 2, 2 * n
        # rounding: each sample carries the relative error of phi, whose
        # terms are as large as log gamma~(c) and c log t
        err = np.array(err) + 8 * _EPS * (abs(lg_c) + np.abs(c * log_t) + 1.0) \
            * np.array(mass)
        return phi0 - math.log(2 * math.pi), np.array(total), err

    def mellin(self, t, tol: Optional[float] = None):
        """K(t) by inverting the Mellin transform on a line through the
        saddle (``_line_sums``), for a number or a numpy array of t.
        Returns (value, err): floats for a number, arrays for an array."""
        real, log_factor, total, err = self._line_sums(t, tol or self.mellin_tol)
        with np.errstate(under="ignore"):
            factor = np.exp(log_factor)
            value, err = factor * total, np.abs(factor) * err
        if np.ndim(t) == 0:
            return (float(value[0]) if real else complex(value[0])), float(err[0])
        return value, err

    # -- saddle asymptotics --------------------------------------------------

    def asymptotic(self, t):
        """Saddle-point value sqrt(s/(2 pi eps)) exp(-s eps) for the kernel."""
        try:
            sp = solve_saddle(self._mw, t)
        except (DomainError, NoConvergence) as exc:
            raise SaddleFailure(str(exc)) from exc
        s = sp.s_z
        eps = eval_eps(self._mw, s)
        log_k = 0.5 * (np.log(s) - np.log(2 * np.pi) - np.log(eps)) - s * eps
        la = float(np.real(log_k))
        value = np.exp(log_k) if la < LOG_FLOAT_MAX else complex(np.inf)
        if complex(t).imag == 0:
            value = float(np.real(value))
        return value, la, sp

    # -- dispatch ------------------------------------------------------------

    @property
    def exact(self) -> bool:
        """Whether K has a closed form (otherwise ``eval`` is Mellin)."""
        return self._closed is not None

    def eval(self, t):
        """K(t) for a number or a numpy array of t."""
        if self._closed is not None:
            return self._closed(t)
        return self.mellin(t)[0]

    def log_abs(self, t) -> float:
        """log |K(t)|; without a closed form it is taken from the Mellin
        sum in log scale, so it stays finite where K underflows."""
        if self._log_abs_closed is not None:
            return self._log_abs_closed(t)
        _, log_factor, total, _ = self._line_sums(t, self.mellin_tol,
                                                  log_floor=-math.inf)
        a = abs(total[0])
        return float(log_factor[0].real + math.log(a)) if a > 0 else -math.inf


# ---------------------------------------------------------------------------
# Omega domain
# ---------------------------------------------------------------------------

@dataclass
class OmegaMembership:
    member: bool
    sup_log: float
    inconclusive: bool
    tail_slope: float


@dataclass
class OmegaDomain:
    """Membership testing for Omega_eta = {z : sup_t E(t eta)|K(t/z)| < inf}.

    A finite grid cannot prove unboundedness; the decision extrapolates the
    tail trend of the probed product and flags near-flat trends as
    inconclusive (an explicit third outcome).
    """

    weight: WeightSpec
    eta: float
    t_range: tuple = (1e-2, 1e4)
    n_probe: int = 160
    flat_tol: float = 0.25

    def __post_init__(self):
        self._E = EntireE(self.weight)
        self._K = KernelK(self.weight)
        self._ts = np.geomspace(self.t_range[0], self.t_range[1], self.n_probe)

    def membership(self, z) -> OmegaMembership:
        z = complex(z)
        if z == 0:
            raise DomainError("Omega membership defined for z != 0")
        vals = np.empty(self.n_probe)
        for i, t in enumerate(self._ts):
            try:
                lk = self._K.log_abs(t / z)
            except DomainError:
                lk = math.inf  # kernel off its analyticity domain: unbounded
            vals[i] = self._E.log_eval_real(t * self.eta) + lk
        if np.any(np.isposinf(vals)):
            return OmegaMembership(False, math.inf, False, math.inf)
        q = self.n_probe // 4
        tail_slope = ((vals[-1] - vals[-q]) /
                      (math.log(self._ts[-1]) - math.log(self._ts[-q])))
        sup_log = float(np.max(vals))
        peak = int(np.argmax(vals))
        if abs(tail_slope) < self.flat_tol:
            return OmegaMembership(False, sup_log, True, float(tail_slope))
        member = bool(tail_slope < 0 and peak < self.n_probe - 1)
        return OmegaMembership(member, sup_log, False, float(tail_slope))


# ---------------------------------------------------------------------------
# lemma verification suite
# ---------------------------------------------------------------------------

@dataclass
class LemmaReport:
    lemma: str
    weight: str
    measured: dict
    stable: Optional[bool]
    detail: str


def _stability(values, slope_tol: float = 0.15) -> bool:
    """A measured log-constant is 'stable' when it stops growing: the fitted
    slope over the upper half of the sequence stays below slope_tol."""
    v = np.asarray(values, dtype=float)
    v = v[np.isfinite(v)]
    if len(v) < 4:
        return False
    upper = v[len(v) // 2:]
    slope = np.polyfit(np.arange(len(upper)), upper, 1)[0]
    return bool(slope <= slope_tol)


def verify_three_E(w: WeightSpec, eta: float, delta: Optional[float] = None,
                   t_range=(1.0, 200.0), n_pts: int = 60) -> LemmaReport:
    """Measure sup_t E(t delta) E(t eta) / E(t) and the kernel variant."""
    if not 0 < eta < 1:
        raise DomainError("three-E inequality needs 0 < eta < 1")
    E = EntireE(w)
    K = KernelK(w)
    ts = np.geomspace(*t_range, n_pts)
    deltas = [delta] if delta is not None else \
        [0.9 * (1 - eta), 0.5 * (1 - eta), 0.25 * (1 - eta)]
    found = None
    per_delta = {}
    for d in deltas:
        g = np.array([E.log_eval_real(t * d) + E.log_eval_real(t * eta)
                      - E.log_eval_real(t) for t in ts])
        gk = np.array([E.log_eval_real(t * d) + E.log_eval_real(t * eta)
                       + K.log_abs(t) for t in ts])
        per_delta[d] = {"log_C": float(np.max(g)), "log_C_kernel": float(np.max(gk)),
                        "stable": _stability(g)}
        if found is None and _stability(g) and _stability(gk):
            found = d
    return LemmaReport("three_E", w.describe(),
                       {"eta": eta, "per_delta": per_delta, "delta_found": found},
                       found is not None,
                       f"found delta={found} with bounded E(td)E(te)/E(t)"
                       if found is not None else "no stable delta found")


def verify_K1_deriv(w: WeightSpec, n_max: int = 6, delta: Optional[float] = None,
                    t_range=(0.5, 2.5), n_pts: int = 9) -> LemmaReport:
    """Measure |d^n/dt^n (e^t K_1)| against (1+delta)^n ghat_n K_1(t - delta).

    Derivatives come from the Mellin representation with the z^n factor in
    the integrand (the independent oracle), K_1(u) = K(e^u).  The statement
    targets weights with eps -> 0; for eps-limit > 0 a bounded constant needs
    delta with delta(1+delta) >= (pi/2) eps_lim, hence the default choice.
    """
    mw = moment_weight(w)
    if delta is None:
        eps_lim = float(np.real(eval_eps(mw, 1e6)))
        delta = 0.25 if eps_lim < 0.05 else \
            0.1 + (math.sqrt(1.0 + 2.0 * math.pi * eps_lim) - 1.0) / 2.0
    c = max(1.0, mw.min_real + 0.75)
    lg0 = float(np.real(mw.log_gamma(c)))
    H = 1.0
    for _ in range(60):
        if float(np.real(mw.log_gamma(complex(c, H)))) < lg0 + math.log(1e-14):
            break
        H *= 1.7
    else:
        raise DecayTooSlow(f"|gamma({c}+iy)| not below tol*peak by y={H:.3g}")
    ghat = [gamma_hat_numeric(mw, n).log_value for n in range(n_max + 1)]
    ts = np.linspace(*t_range, n_pts)

    def K1_deriv(n, u):
        # (-1)^n/(2 pi i) int z^n e^{-z u} gamma~(z) dz on Re z = c
        def ig(y, part):
            zz = complex(c, y)
            v = (zz ** n) * np.exp(mw.log_gamma(zz) - zz * u)
            return v.real if part == 0 else v.imag
        re, _ = quad(ig, -H, H, args=(0,), epsabs=1e-13, limit=400)
        return ((-1) ** n) * re / (2 * math.pi)

    binom = [[math.comb(n, kk) for kk in range(n + 1)] for n in range(n_max + 1)]
    consts = []
    per_n = {}
    for n in range(n_max + 1):
        worst = -math.inf
        for t in ts:
            k2n = math.exp(t) * sum(binom[n][j] * K1_deriv(j, t)
                                    for j in range(n + 1))
            envelope = (n * math.log1p(delta) + ghat[n]
                        + math.log(max(K1_deriv(0, t - delta), 1e-300)))
            worst = max(worst, math.log(abs(k2n) + 1e-300) - envelope)
        per_n[n] = worst
        consts.append(worst)
    stable = _stability(consts)
    return LemmaReport("K1_deriv", w.describe(),
                       {"delta": delta, "log_C_per_n": per_n},
                       stable, "measured ratio bounded by (1+delta)^n ghat_n envelope"
                       if stable else "envelope constant grows with n")


def verify_E_curve(w: WeightSpec, eta: float = 1.05, r_range=(5.0, 60.0),
                   n_r: int = 8) -> LemmaReport:
    """Measure max{|E(z)| : |arg z| >= theta(r) or |z| <= r} / E(r)."""
    E = EntireE(w)
    mw = moment_weight(w)
    rs = np.geomspace(*r_range, n_r)
    logC = []
    for r in rs:
        theta = min(eta / math.exp(log_L_hat(mw, L_inverse(mw, r))),
                    0.95 * math.pi)
        best = -math.inf
        # circle |z| = r, angles theta..pi
        for ang in np.linspace(theta, math.pi, 25):
            zv = r * np.exp(1j * ang)
            try:
                val = abs(E.eval(zv))
            except MomentSumError:
                continue
            best = max(best, math.log(val + 1e-300))
        # rays at angle theta, |z| in [r, 20r]
        for u in np.geomspace(r, 20 * r, 25):
            zv = u * np.exp(1j * theta)
            try:
                val = abs(E.eval(zv))
            except MomentSumError:
                continue
            best = max(best, math.log(val + 1e-300))
        logC.append(best - E.log_eval_real(r))
    stable = _stability(logC)
    return LemmaReport("E_curve", w.describe(),
                       {"eta": eta, "r": list(rs), "log_C": [float(v) for v in logC]},
                       stable, "max|E| over the curve bounded by C E(r)"
                       if stable else "curve constant grows with r")


def verify_E_exp(w: WeightSpec, k_range=(20, 60)) -> LemmaReport:
    """Measure E(L(k)) e^{-2k}; the bound requires a stable (non-growing)
    constant, and for the classical weight the ratio is strictly decreasing."""
    E = EntireE(w)
    mw = moment_weight(w)
    ks = list(range(k_range[0], k_range[1] + 1))
    logC = []
    for k in ks:
        Lk = math.exp(float(np.real(log_L(mw, k))))
        logC.append(E.log_eval_real(Lk) - 2.0 * k)
    diffs = np.diff(logC)
    non_increasing = bool(np.all(diffs <= 1e-9))
    return LemmaReport("E_exp", w.describe(),
                       {"k": ks, "log_ratio": [float(v) for v in logC],
                        "non_increasing": non_increasing},
                       _stability(logC) or non_increasing,
                       "E(L(k)) <= C e^{2k} with non-growing constant")


_LEMMAS = {
    "three_E": verify_three_E,
    "K1_deriv": verify_K1_deriv,
    "E_curve": verify_E_curve,
    "E_exp": verify_E_exp,
}


def verify_kernel_lemma(lemma: str, w: WeightSpec, **params) -> LemmaReport:
    if lemma not in _LEMMAS:
        raise DomainError(f"unknown lemma {lemma!r}; choose from {sorted(_LEMMAS)}")
    return _LEMMAS[lemma](w, **params)


# ---------------------------------------------------------------------------
# probe dump (external interface)
# ---------------------------------------------------------------------------

def kernel_probe_csv(w: WeightSpec, ts, path, header_note: str = ""):
    """Dump t, K_closed, K_mellin, K_asymptotic, abs_err rows to CSV.

    K_closed is the canonical kernel (``KernelK.closed``, NaN where the
    weight has none) and abs_err = |K_mellin - K_closed|.
    """
    k = KernelK(w)
    with open(path, "w", newline="") as fh:
        if header_note:
            fh.write(f"# {header_note}\n")
        fh.write(f"# weight: {w.describe()}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "K_closed", "K_mellin", "K_asymptotic", "abs_err"])
        for t in ts:
            kc = k.closed(t)
            if kc is None:
                kc = math.nan
            km = k.mellin(t)[0]
            try:
                ka = k.asymptotic(t)[0]
            except (SaddleFailure, DomainError):
                ka = math.nan
            err = abs(km - kc) if kc == kc else math.nan
            writer.writerow([f"{t:.10g}", f"{kc:.12g}", f"{km:.12g}",
                             f"{ka:.12g}", f"{err:.3e}"])
    return path
