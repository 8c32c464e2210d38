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
polynomial prefactor, coinciding at alpha = 1), and E is the Mittag-Leffler
function (``exp`` at alpha=1, ``erfcx``-type at alpha=2).  Both classes look
their closed forms up once, at construction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (DecayTooSlow, DomainError, MomentSumError, NoConvergence,
                     QuadratureStall, SaddleFailure, TruncationError)
from .weights import (LOG_FLOAT_MAX, L_inverse, WeightSpec,
                      eval_eps, gamma_hat_numeric, log_L,
                      log_L_hat, moment_weight, solve_saddle)

_EPS = np.finfo(float).eps
_LOG_TINY = -750.0           # exp() of anything below is 0 in floats
_MELLIN_SAMPLES = 1 << 16    # samples per half line before Mellin gives up
_STALL_SAMPLES = 1 << 10     # from here a halving must shrink the change
_LOG_TERM_MAX = math.log(1e306)  # largest E series term summed in floats
_HEAD_TERMS = 256            # log moments each EntireE computes once
_UNION_TERMS = 1 << 20       # (nodes x terms) of one array window of E
_FLAT_TOL = 0.25             # |tail slope| below which Omega membership is inconclusive
_MELLIN_TOL = 1e-10          # relative tolerance of the Mellin line sums


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

    One window sum of the terms around the largest (``_sums``) answers
    ``series``, ``eval``, ``log_series_real`` and ``log_eval_real`` for a
    number or an array of any z; closed forms are used when the weight
    declares one (exp for the classical weight, the Mittag-Leffler/erfcx
    form at alpha = 2, a custom ``entire`` hook).  Where the sum would need
    more than ``n_cap`` terms or a term above 1e306, ``eval`` and
    ``log_eval_real`` take the saddle branch (``asymptotic``).
    """

    def __init__(self, weight: WeightSpec, n_cap: int = 100_000):
        self.weight = weight
        self.n_cap = n_cap
        self._mw = moment_weight(weight)
        self._closed = weight.closed("entire")
        self._log_closed = weight.closed("log_entire_real")
        self._head = None

    def _log_moments(self, first, stop):
        """log mu_n for first <= n < stop in one weight call.  log mu_n for
        n < _HEAD_TERMS is computed once per instance: the windows of small
        and moderate x lie there, and a weight call costs more than its
        points."""
        if stop <= _HEAD_TERMS:
            if self._head is None:
                self._head = np.real(self.weight.log_gamma(
                    np.arange(_HEAD_TERMS, dtype=float)))
            return self._head[first:stop]
        return np.real(self.weight.log_gamma(np.arange(first, stop, dtype=float)))

    def _window(self, x: float):
        """(ns, log terms n log x - log mu_n) over the terms within 60 nats
        of the largest, for real x > 0.

        The log terms are concave in n, so the peak is where their
        increment changes sign (doubling, then bisection).  The window grows
        from the peak in chunks of 12 widths of the Gaussian the terms
        follow there, until both ends are 60 nats down.  A window of more
        than ``n_cap`` terms raises TruncationError.
        """
        lx = math.log(x)

        def probe(n):
            # (increment of the log term past n >= 1, chunk width at n)
            lm0, lm1, lm2 = self._log_moments(n - 1, n + 2).tolist()
            curv = lm0 - 2 * lm1 + lm2
            width = int(12.0 / math.sqrt(curv)) + 16 if curv > 0 else math.inf
            return lx - (lm2 - lm1), width

        peak = 0
        if lx > self.weight.moment_log(1) - self.weight.moment_log(0):
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
        while last - first < self.n_cap:
            ns = np.arange(first, last + 1)
            logs = ns * lx - self._log_moments(first, last + 1)
            top = logs.max()
            lo = max(first - chunk, 0) if logs[0] > top - 60.0 else first
            hi = last + chunk if logs[-1] > top - 60.0 else last
            if (lo, hi) == (first, last):
                return ns, logs
            first, last = lo, hi
        raise TruncationError(f"more than {self.n_cap} series terms within "
                              f"60 nats of the peak at x={x:.3g}")

    def _sums(self, z, log_max):
        """(top, S) for a flat array z of any numbers: E(z) = e^top S, S
        summed over the terms within 60 nats of the largest, e^top, at |z|
        (``_window``); real z sums real terms (signs (-1)^n where z < 0),
        complex z the terms times e^(i n arg z).  NaN past ``n_cap`` terms or
        where the largest term exceeds e^log_max: the tail of the sorted |z|,
        found with one bisection.  In the order of |z| the log terms' peak
        moves right, so a group of nodes sums one range of terms, from the
        first of the smallest node's window to the last of the largest's;
        the terms outside a node's own window lie 60 nats below its largest.
        A group splits in two past _UNION_TERMS (nodes x terms) entries.
        """
        r = np.abs(z)
        order = np.argsort(r, kind="stable")
        rs = r[order].tolist()
        windows = {}

        def window(k):
            if k not in windows:
                windows[k] = self._window(rs[k])
            return windows[k]

        def fits(k):
            try:
                return window(k)[1].max() <= log_max
            except TruncationError:
                return False

        start, end = rs.count(0.0), len(rs)
        if end > start and not fits(end - 1):
            lo, end = start - 1, end - 1
            while end - lo > 1:
                mid = (lo + end) // 2
                lo, end = (mid, end) if fits(mid) else (lo, mid)
        top = np.full(len(rs), math.nan)
        S = np.full(len(rs), math.nan,
                    dtype=complex if np.iscomplexobj(z) else float)
        top[order[:start]], S[order[:start]] = -self.weight.moment_log(0), 1.0
        groups = [(start, end)] if start < end else []
        while groups:
            i, j = groups.pop()
            if j - i == 1:   # a lone node sums its own window
                ns, logs = window(i)[0], window(i)[1][None]
            else:
                first, last = window(i)[0][0], window(j - 1)[0][-1]
                if (j - i) * (last - first + 1) > _UNION_TERMS:
                    groups += [(i, (i + j) // 2), ((i + j) // 2, j)]
                    continue
                ns = np.arange(first, last + 1)
                logs = np.array([math.log(x) for x in rs[i:j]])[:, None] * ns \
                    - self._log_moments(first, last + 1)
            peak, zk = logs.max(axis=1), z[order[i:j]]
            if S.dtype == complex:
                phase = [math.atan2(v.imag, v.real) for v in zk.tolist()]
                terms = np.exp(logs - peak[:, None]
                               + 1j * (np.array(phase)[:, None] * ns))
            else:
                terms = np.exp(logs - peak[:, None])
                neg = zk < 0
                if neg.any():
                    terms[neg, 1 - ns[0] % 2::2] *= -1.0   # odd n
            top[order[i:j]], S[order[i:j]] = peak, terms.sum(axis=1)
        return top, S

    def _evaluate(self, z, log, saddle):
        """E(z), or log E(z) for real z >= 0 if ``log``, from the window sums
        (``_sums``): a number gives a number (E complex), an array an array
        of its shape (E float for real z).  Past the sums a node takes the
        saddle branch if ``saddle`` is set and it is "main"; otherwise the
        first such node in input order raises its scalar call's error."""
        array = isinstance(z, np.ndarray)
        # a number is one node, real where its imaginary part is 0
        nodes = z.ravel() if array else \
            np.array([z if complex(z).imag else complex(z).real])
        if log:
            top, S = self._sums(np.abs(nodes), math.inf)
            value = np.array([t + math.log(s)
                              for t, s in zip(top.tolist(), S.tolist())])
            bad = np.isnan(value) | (nodes < 0)
        else:
            top, S = self._sums(nodes, _LOG_TERM_MAX)
            value = np.array([math.exp(t) * s
                              for t, s in zip(top.tolist(), S.tolist())],
                             dtype=S.dtype if array else complex)
            bad = ~np.isfinite(value)
        for k in np.flatnonzero(bad).tolist():
            if log and nodes[k] < 0:
                raise DomainError("log_series_real needs x >= 0")
            a = self.asymptotic(nodes[k]) if saddle else None
            if a is None or a.branch != "main":
                self._window(abs(nodes[k]))   # raises past n_cap terms
                raise TruncationError("series terms overflow; use log_eval_real")
            v = a.log_abs if log else a.value
            value[k] = v if log or value.dtype == complex else v.real
        return value.reshape(z.shape) if array else value.item()

    def series(self, z):
        """E(z) for a number or an array of any z (``_evaluate``): the terms
        z^n / mu_n have the moduli of the real terms at |z|, so the window's
        60-nat ends certify the tail.  TruncationError past ``n_cap`` terms
        or the 1e306 term limit (use ``log_eval_real``)."""
        return self._evaluate(z, log=False, saddle=False)

    def log_series_real(self, x):
        """log E(x) for real x >= 0, a number or an array (``_evaluate``)."""
        return self._evaluate(x, log=True, saddle=False)

    def eval(self, z):
        """E(z), typed as ``series``: the closed form where the weight
        declares one, else ``series`` with the saddle branch past it."""
        if self._closed is None:
            return self._evaluate(z, log=False, saddle=True)
        if not isinstance(z, np.ndarray):
            return complex(self._closed(complex(z)))
        value = self._closed(z.astype(complex))
        return value if np.iscomplexobj(z) else value.real

    def log_eval_real(self, x):
        """log E(x), typed as ``log_series_real``: the closed form where the
        weight declares one, else ``log_series_real`` with the saddle branch
        past ``n_cap`` terms."""
        if self._log_closed is None:
            return self._evaluate(x, log=True, saddle=True)
        return self._log_closed(x)

    def asymptotic(self, z) -> EAsymptotic:
        """Saddle-point value sqrt(2 pi s/eps) exp(s eps)/z for the entire function
        of the moment-anchored weight; off the main sector |arg z| <= (pi/2 +
        0.08) eps the subdominant O(1/z) branch is flagged and the series
        value (if affordable) is returned."""
        z = complex(z)
        eps_lim = float(np.real(eval_eps(self._mw, 1e6)))
        boundary = (math.pi / 2 + 0.08) * max(eps_lim, 1e-6)
        if abs(np.angle(z)) > min(boundary, math.pi):
            val = None
            if self._closed is not None:
                val = complex(self._closed(z))
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
        value, la, sp = _saddle_value(self._mw, z, 1.0, np.log(z))
        return EAsymptotic(complex(value), la, "main", sp)


def _saddle_value(mw: WeightSpec, z, sign: float, log_z):
    """(value, log |value|, SaddlePoint) of the saddle-point term exp(0.5
    (log s + sign log 2 pi - log eps) + sign s eps - log_z), s the twin's
    saddle of z: K(t) is sign -1, E(z) sign +1 with log_z = log z.  inf
    where it overflows; SaddleFailure where there is no saddle."""
    try:
        sp = solve_saddle(mw, z)
    except (DomainError, NoConvergence) as exc:
        raise SaddleFailure(str(exc)) from exc
    s = sp.s_z
    eps = eval_eps(mw, s)
    log_v = (0.5 * (np.log(s) + sign * np.log(2 * np.pi) - np.log(eps))
             + sign * (s * eps) - log_z)
    la = float(np.real(log_v))
    return (np.exp(log_v) if la < LOG_FLOAT_MAX else complex(np.inf)), la, sp


# ---------------------------------------------------------------------------
# K
# ---------------------------------------------------------------------------

@dataclass
class KernelK:
    """Moment kernel with int_0^inf t^n K(t) dt = mu_n.

    ``eval`` uses the exact kernel when the weight declares one and
    otherwise inverts the Mellin transform of the moment-anchored weight
    (``mellin``); ``asymptotic`` applies the saddle-point formula.
    """

    weight: WeightSpec
    _mw: WeightSpec = field(init=False, repr=False)
    _closed: Optional[Callable] = field(init=False, repr=False)
    _log_abs_closed: Optional[Callable] = field(init=False, repr=False)

    def __post_init__(self):
        self._mw = moment_weight(self.weight)
        self._closed = self.weight.closed("kernel")
        self._log_abs_closed = self.weight.closed("log_abs_kernel")

    # -- canonical closed form --------------------------------------------

    def closed(self, t):
        """Exact kernel where the weight declares one (alpha t^(alpha-1)
        exp(-t^alpha) for gamma_power, a custom ``kernel`` hook); None
        otherwise."""
        return None if self._closed is None else self._closed(t)

    # -- Mellin inversion ----------------------------------------------------

    def _abscissa(self, log_t, log_floor):
        """For an array of log t, as lists: the real saddles c of phi(z) = log
        gamma~(z) - z log t, where phi is smallest on the real axis; the
        widths sigma = phi''(c)^(-1/2) of the integrand's peak across the
        line; and, where c stops short of the saddle, the slope phi'(c): the
        rate of the integrand's linear phase t^(-iy) there (zero elsewhere).

        The first slope of log gamma~ >= log t on the twin's ray grid
        (``WeightSpec.ray``) brackets each minimum, and a safeguarded Newton
        step on finite differences refines each to within sigma, one weight
        call per step for all nodes.  Where phi there is below log_floor, K
        is too, and c stops at the first grid point where it is: short of
        far saddles, where log gamma~ rounds off by more than the integrand
        decays.  c stays in the twin's evaluable half-plane and its sector.
        """
        mw = self._mw
        lo, cs, lg, grid_slope = mw.ray
        k = np.searchsorted(grid_slope, log_t)
        under = lg[k] - cs[k] * log_t < log_floor
        k[under] = np.argmax(lg - np.outer(log_t[under], cs) < log_floor, axis=1)
        a = np.where(under, cs[k], cs[k - (k > 0)]).tolist()
        b = np.where(under, cs[k], cs[k + (k < len(cs) - 1)]).tolist()
        c, under = cs[k].tolist(), under.tolist()
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
        return c, sigma, [d if ci <= cs[0] or u else 0.0
                          for ci, d, u in zip(c, slope, under)]

    def _line_sums(self, t, log_floor=_LOG_TINY, m=0):
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
        tol of its result (of 1e-3 of the integral of |integrand| where
        the result cancels) or the node's result lies below exp(log_floor).
        err is the change under that last halving plus the rounding of the
        samples.

        With m > 0, total and err have one column per row j = 0..m of a
        node: the sums of (-z)^j times its integrand, theta^j K(t) with
        theta = t d/dt (see ``_run_sums``).
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
        c, sigma, slope = self._abscissa(log_t.real, log_floor)
        order = np.argsort(log_t.real, kind="stable").tolist()
        kind = float if real else complex
        rows = (len(ta), m + 1) if m else len(ta)
        log_factor, total = np.empty(len(ta), kind), np.empty(rows, kind)
        err = np.empty(rows)
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
                cg, log_t[run], real, h, log_floor, m)
        return real, log_factor, total, err

    def _run_sums(self, c, log_t, real, h, log_floor, m):
        """The saddle-line sums of one run of nodes on Re z = c.

        With m > 0 the sample matrix has one row per (node, j), j = 0..m,
        and every row keeps the window, step and underflow tests.  The j = 0
        rows are tested alone first and their sums kept from the state where
        they pass, so they equal the m = 0 sums bit for bit; the refinement
        then goes on for the j > 0 rows.
        """
        mw = self._mw
        k = m + 1

        def per_row(a):
            # a node's value on each of its rows
            return np.repeat(a, k) if m else a

        def pairs(y, lg=None):
            # F_j(y) + F_j(-y), F_j(y) = exp(phi_j(c + iy) - phi_j(c));
            # conjugate symmetry halves the work for real t.  lg: the
            # weight's values at c + iy when already known
            iy = 1j * (y if real else np.concatenate((y, -y)))
            if lg is None:
                lg = mw.log_gamma(c + iy)
            F = np.exp(lg - lg_c - log_t[:, None] * iy)
            if m:
                # rows (node, j): (-z)^j F_node
                power = np.ones((k, len(iy)), dtype=complex)
                for j in range(1, k):
                    power[j] = power[j - 1] * -(c + iy)
                F = (F[:, None, :] * power).reshape(-1, len(iy))
            return 2.0 * F.real if real else F[:, :len(y)] + F[:, len(y):]

        n = 40
        y = h * np.arange(1, n + 1)
        # the first weight call also takes the crossing z = c, for phi_j(c)
        ys = ([0.0], y) if real else ([0.0], y, -y)
        lg = mw.log_gamma(c + 1j * np.concatenate(ys))
        lg_c = lg[0].real if real else lg[0]
        phi0 = lg_c - c * log_t
        # each row's sample at y = 0: (-c)^j, exactly 1.0 for j = 0
        zero = [(-c) ** j for j in range(k)] * len(log_t)
        with np.errstate(under="ignore", over="ignore", invalid="ignore"):
            # a row is done once its result lies below exp(log_floor)
            small = per_row(np.exp(log_floor - phi0.real)).tolist()
            vals = pairs(y, lg[1:])
            kept, last = None, math.inf
            while True:
                # per row: the sums over even and odd samples (the odd
                # ones, y = 2h, 4h, ..., make the coarse sum) and of |.|
                # inside and over the outer quarter, tested in floats
                size = np.abs(vals)
                rows = zip(vals.reshape(len(vals), -1, 2).sum(axis=1).tolist(),
                           np.add.reduceat(size, [0, 3 * n // 4], axis=1).tolist(),
                           small, zero)
                total, mass, err, wide, done = [], [], [], False, True
                moved = 0.0   # the largest change of a row under test not done
                # the rows under test: j = 0 first, then j > 0
                first = kept is None
                for j, ((s_even, s_odd), (s_in, s_out), lim, z0) in \
                        enumerate(rows):
                    tot = h * (z0 + s_even + s_odd)
                    mas = h * (abs(z0) + s_in + s_out)
                    if not math.isfinite(mas):
                        raise DecayTooSlow("Mellin integrand not finite at "
                                           f"t={np.exp(log_t[j // k]):.6g}")
                    e = abs(tot - 2 * h * (z0 + s_odd))
                    if (j % k == 0) == first:
                        scale = max(abs(tot), 1e-3 * mas)
                        wide = wide or h * s_out > 1e-3 * _MELLIN_TOL * scale
                        if not (e <= _MELLIN_TOL * scale or mas < lim):
                            done, moved = False, max(moved, e)
                    total.append(tot), mass.append(mas), err.append(e)
                if first and k > 1 and done and not wide:
                    # the j = 0 rows pass: keep their sums, test j > 0
                    kept, last = (total, mass, err), math.inf
                    continue
                if wide:
                    last = math.inf
                    if n >= _MELLIN_SAMPLES:
                        raise DecayTooSlow("Mellin integrand has not decayed "
                                           f"by |y|={h * n:.3g}")
                    vals = np.concatenate(
                        (vals, pairs(h * np.arange(n + 1, 2 * n + 1))), axis=1)
                    n *= 2
                    continue
                if done:
                    break
                if n >= _MELLIN_SAMPLES or (n >= _STALL_SAMPLES
                                            and moved >= last):
                    raise QuadratureStall(f"Mellin sum at step {h:.3g} still "
                                          f"moves by {moved:.2e}")
                last = moved
                fine = np.empty((len(vals), 2 * n), dtype=vals.dtype)
                fine[:, 0::2] = pairs(h * (np.arange(n) + 0.5))
                fine[:, 1::2] = vals
                vals, h, n = fine, h / 2, 2 * n
        total, mass, err = np.array(total), np.array(mass), np.array(err)
        if kept is not None:
            for now, then in zip((total, mass, err), kept):
                now[::k] = then[::k]
        # rounding: each sample carries the relative error of phi, whose
        # terms are as large as log gamma~(c) and c log t
        err = err + 8 * _EPS * per_row(abs(lg_c) + np.abs(c * log_t) + 1.0) \
            * mass
        if m:
            total, err = total.reshape(-1, k), err.reshape(-1, k)
        return phi0 - math.log(2 * math.pi), total, err

    def mellin(self, t):
        """K(t) by inverting the Mellin transform on a line through the
        saddle (``_line_sums``), for a number or a numpy array of t.
        Returns (value, err): floats for a number, arrays for an array."""
        real, log_factor, total, err = self._line_sums(t)
        with np.errstate(under="ignore"):
            factor = np.exp(log_factor)
            value, err = factor * total, np.abs(factor) * err
        if np.ndim(t) == 0:
            return (float(value[0]) if real else complex(value[0])), float(err[0])
        return value, err

    # -- saddle asymptotics --------------------------------------------------

    def asymptotic(self, t):
        """Saddle-point value sqrt(s/(2 pi eps)) exp(-s eps) for the kernel."""
        value, la, sp = _saddle_value(self._mw, t, -1.0, 0.0)
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

    def log_abs(self, t):
        """log |K(t)| for a number or a numpy array of t; without a closed
        form it is taken from the Mellin sums in log scale, so it stays
        finite where K underflows."""
        if self._log_abs_closed is not None:
            return self._log_abs_closed(t)
        _, log_factor, total, _ = self._line_sums(t, log_floor=-math.inf)
        if np.ndim(t):
            with np.errstate(divide="ignore"):
                return log_factor.real + np.log(np.abs(total))
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

    def __post_init__(self):
        self._E = EntireE(self.weight)
        self._K = KernelK(self.weight)
        self._ts = np.geomspace(self.t_range[0], self.t_range[1], self.n_probe)
        # the E row of the probed product does not depend on z
        self._log_E = self._E.log_eval_real(self._ts * self.eta)

    def membership(self, z) -> OmegaMembership:
        z = complex(z)
        if z == 0:
            raise DomainError("Omega membership defined for z != 0")
        try:
            vals = self._log_E + self._K.log_abs(self._ts / z)
        except DomainError:
            # kernel off its analyticity domain; every t/z has the argument
            # of 1/z, so that holds for all points or none: unbounded
            vals = np.array([math.inf])
        if np.any(np.isposinf(vals)):
            return OmegaMembership(False, math.inf, False, math.inf)
        q = self.n_probe // 4
        tail_slope = ((vals[-1] - vals[-q]) /
                      (math.log(self._ts[-1]) - math.log(self._ts[-q])))
        sup_log = float(np.max(vals))
        peak = int(np.argmax(vals))
        if abs(tail_slope) < _FLAT_TOL:
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


def _stability(values) -> bool:
    """A measured log-constant is 'stable' when it stops growing: the fitted
    slope over the upper half of the sequence stays below 0.15."""
    v = np.asarray(values, dtype=float)
    v = v[np.isfinite(v)]
    if len(v) < 4:
        return False
    upper = v[len(v) // 2:]
    slope = np.polyfit(np.arange(len(upper)), upper, 1)[0]
    return bool(slope <= 0.15)


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

    log_E_1, log_E_eta = E.log_eval_real(ts), E.log_eval_real(ts * eta)
    log_K = K.log_abs(ts)
    found = None
    per_delta = {}
    for d in deltas:
        log_E_d = E.log_eval_real(ts * d)
        g = log_E_d + log_E_eta - log_E_1
        gk = log_E_d + log_E_eta + log_K
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

    K_1(u) = K(e^u), so d^j/du^j K_1 = theta^j K with theta = t d/dt: one
    call of the saddle-line sums gives every row j <= n_max at the nodes
    e^t and e^(t - delta) (``KernelK._line_sums`` with m = n_max), in log
    scale and without the underflow stop, so the ratio is relative-accurate
    where K_1 underflows.  The statement targets weights with eps -> 0; for
    eps-limit > 0 a bounded constant needs delta with delta(1+delta) >=
    (pi/2) eps_lim, hence the default choice.
    """
    K = KernelK(w)
    if delta is None:
        eps_lim = float(np.real(eval_eps(K._mw, 1e6)))
        delta = 0.25 if eps_lim < 0.05 else \
            0.1 + (math.sqrt(1.0 + 2.0 * math.pi * eps_lim) - 1.0) / 2.0
    ghat = [gamma_hat_numeric(K._mw, n).log_value for n in range(n_max + 1)]
    ts = np.linspace(*t_range, n_pts)
    _, log_factor, rows, _ = K._line_sums(
        np.exp(np.concatenate((ts, ts - delta))), log_floor=-math.inf,
        m=n_max)
    rows = rows.reshape(2 * n_pts, -1)
    with np.errstate(divide="ignore"):
        # log K_1(t - delta), and the log of e^t theta^j K(e^t) / rows[j]
        log_env = log_factor[n_pts:] + np.log(np.abs(rows[n_pts:, 0]))
        log_scale = ts + log_factor[:n_pts]
        per_n = {}
        for n in range(n_max + 1):
            k2n = rows[:n_pts, :n + 1] @ [math.comb(n, j) for j in range(n + 1)]
            per_n[n] = float(np.max(log_scale + np.log(np.abs(k2n)) - log_env
                                    - n * math.log1p(delta) - ghat[n]))
    stable = _stability(list(per_n.values()))
    return LemmaReport("K1_deriv", w.describe(),
                       {"delta": delta, "log_C_per_n": per_n},
                       stable, "measured ratio bounded by (1+delta)^n ghat_n envelope"
                       if stable else "envelope constant grows with n")


def verify_E_curve(w: WeightSpec) -> LemmaReport:
    """Measure max{|E(z)| : |arg z| >= theta(r) or |z| <= r} / E(r), theta(r)
    = 1.05 / Lhat(L^{-1}(r)), at 8 radii r from 5 to 60."""
    eta = 1.05
    E = EntireE(w)
    rs = np.geomspace(5.0, 60.0, 8)
    logC = []
    for r in rs:
        theta = min(eta / math.exp(log_L_hat(E._mw, L_inverse(E._mw, r))),
                    0.95 * math.pi)
        # the circle |z| = r at angles theta..pi, the ray at angle theta
        # for |z| in [r, 20r]; a point where E raises is skipped
        zs = np.concatenate((r * np.exp(1j * np.linspace(theta, math.pi, 25)),
                             np.geomspace(r, 20 * r, 25) * np.exp(1j * theta)))
        best = -math.inf
        for zv in zs.tolist():
            try:
                best = max(best, math.log(abs(E.eval(zv)) + 1e-300))
            except MomentSumError:
                pass
        logC.append(best - E.log_eval_real(r))
    stable = _stability(logC)
    return LemmaReport("E_curve", w.describe(),
                       {"eta": eta, "r": list(rs), "log_C": [float(v) for v in logC]},
                       stable, "max|E| over the curve bounded by C E(r)"
                       if stable else "curve constant grows with r")


def verify_E_exp(w: WeightSpec) -> LemmaReport:
    """Measure E(L(k)) e^{-2k} for k = 20..45; the bound requires a stable
    (non-growing) constant, and for the classical weight the ratio is
    strictly decreasing."""
    E = EntireE(w)
    ks = list(range(20, 46))
    Lk = np.array([math.exp(float(np.real(log_L(E._mw, k)))) for k in ks])
    logC = (E.log_eval_real(Lk) - 2.0 * np.array(ks)).tolist()
    diffs = np.diff(logC)
    non_increasing = bool(np.all(diffs <= 1e-9))
    return LemmaReport("E_exp", w.describe(),
                       {"k": ks, "log_ratio": [float(v) for v in logC],
                        "non_increasing": non_increasing},
                       _stability(logC) or non_increasing,
                       "E(L(k)) <= C e^{2k} with non-growing constant")


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
