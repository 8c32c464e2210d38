"""Admissible weight functions and their derived quantities.

A weight is an analytic, non-vanishing function ``gamma`` on a sector
``{|arg(s + c)| < alpha_0}`` (``alpha_0 > pi/2``), positive on the real ray it
contains.  Everything else in the package is derived from it:

* ``L(s) = gamma(s)^(1/s)`` and ``eps(s) = s L'(s)/L(s)``, the slowly varying
  profile that controls all asymptotics;
* the moment sequence ``mu_n = gamma(n)`` that the Borel/Laplace transforms
  divide and integrate against (``mu_n = n!`` for the classical weight
  ``gamma_power(alpha=1)``, i.e. gamma(s) = Gamma(1 + s));
* the companion sequence ``ghat_n = sup_rho rho^n |gamma(i rho)|`` governing
  logarithmic-derivative bounds of Laplace images;
* the saddle point ``s_z`` of ``log L(s) + eps(s) = log z`` driving the
  exponential asymptotics of the kernel K and the entire function E.

Moment-index convention: the classical presentation writes the moments as
"gamma_{n+1}"; here the sequence is anchored one step lower, ``mu_n =
gamma(n)``, so that the same function both matches the family tables
(gamma_power(1) at s=5 gives 120) and produces the classical pair
``K = exp(-t)``, ``E = exp(z)``.  Asymptotic formulas that need the function
paired with K and E use the index-shifted weight ``gamma(s - 1)``; see
:func:`moment_weight`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.special import digamma, erfc, gammaln, loggamma, wofz

from .errors import BracketError, DomainError, NoConvergence, UnsupportedFamily

LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # ~709.78
_H_REL = 1e-6             # relative step of the central-difference eps
_NEWTON_MAX_ITER = 80     # damped Newton steps of a complex saddle
_GHAT_REL_TOL = 1e-6      # golden-section width of the gamma-hat maximizer
_GHAT_RHO_FLOOR = 1e-6    # smallest rho the gamma-hat search probes
# ray grid offsets 10^(k/3 - 3): 195 points to 4.6e61, past every family's
# saddle-search start times 2^200
_RAY_OFFSETS = 10.0 ** np.arange(-3.0, 62.0, 1.0 / 3.0)
# kernel table entries per weight (the DE rule's node cap): ~3 MB at the cap
_KERNEL_TABLE_MAX = 1 << 14


# ---------------------------------------------------------------------------
# family formulas
# ---------------------------------------------------------------------------

def _log_iter(z, k):
    """k-fold principal-branch logarithm."""
    for _ in range(k):
        z = np.log(z)
    return z


def _exp_iter(x, k):
    for _ in range(k):
        x = math.exp(x)
    return x


def _lg_log_power(p, s):
    # gamma(s) = (log s)^(alpha s) * (log log s)^(beta s)
    out = p["alpha"] * s * np.log(np.log(s))
    if p.get("beta", 0.0):
        out = out + p["beta"] * s * np.log(np.log(np.log(s)))
    return out


def _lg_loglog_power(p, s):
    return p["beta"] * s * np.log(np.log(np.log(s)))


def _lg_exp_logpower(p, s):
    return s * np.log(s) ** p["alpha"]


def _lg_exp_log_over_loglog(p, s):
    return s * np.log(s) / np.log(np.log(s)) ** p["alpha"]


def _lg_gamma_power(p, s):
    return loggamma(1.0 + s / p["alpha"])


def _lg_iterated_log(p, s):
    k = int(p["k"])
    anchor = _exp_iter(1.0, k)
    return (s - 1.0) * np.log(_log_iter(s - 1.0 + anchor, k))


def _eps_log_power(p, s):
    e = p["alpha"] / np.log(s)
    if p.get("beta", 0.0):
        e = e + p["beta"] / (np.log(s) * np.log(np.log(s)))
    return e


def _eps_loglog_power(p, s):
    return p["beta"] / (np.log(s) * np.log(np.log(s)))


def _eps_exp_logpower(p, s):
    return p["alpha"] * np.log(s) ** (p["alpha"] - 1.0)


def _eps_exp_log_over_loglog(p, s):
    ll = np.log(np.log(s))
    return (1.0 - p["alpha"] / ll) / ll ** p["alpha"]


def _eps_iterated_log(p, s):
    # log l_k(m) / s + (s - 1) / (m l_1(m) ... l_k(m)), m = s - 1 + exp_[k](1),
    # with l_j the j-fold logarithm
    m = s - 1.0 + _exp_iter(1.0, int(p["k"]))
    lj = prod = m
    for _ in range(int(p["k"])):
        lj = np.log(lj)
        prod = prod * lj
    return np.log(lj) / s + (s - 1.0) / prod


def _eps_gamma_power(p, s):
    a = p["alpha"]
    return digamma(1.0 + s / a) / a - loggamma(1.0 + s / a) / s


# -- gamma_power closed forms (factories of the parameter dict) ----------------

def _gp_kernel(p):
    a = p["alpha"]

    def K(t):
        # t = 0 reads inf below alpha = 1, 1 at it and 0 above
        with np.errstate(divide="ignore"):
            return a * np.power(t, a - 1.0) * np.exp(-np.power(t, a))
    return K


def _gp_log_abs_kernel(p):
    a = p["alpha"]

    def log_abs_K(t):
        with np.errstate(divide="ignore"):     # log |0| = -inf
            log_power = (a - 1.0) * np.log(np.abs(t)) if a != 1.0 else 0.0
        return (math.log(a) + log_power
                - np.real(np.asarray(t, dtype=complex) ** a))
    return log_abs_K


def _gp_entire(p):
    if p["alpha"] == 1.0:
        return np.exp
    if p["alpha"] == 2.0:
        # sum z^n / Gamma(1+n/2) = e^{z^2} erfc(-z)
        return lambda z: wofz(-1j * np.asarray(z, dtype=complex))
    return None


def _log_entire_alpha2(x):
    # log(e^{x^2} erfc(-x)); for x >= 0, erfc(-x) lies in [1, 2] (and is
    # 2.0 exactly from x = 26 on), so the direct form is stable
    if np.any(np.less(x, 0)):
        raise DomainError("closed log E(x) needs x >= 0")
    return x * x + np.log(erfc(-x))


def _gp_log_entire_real(p):
    # log exp(x) = x, as floats
    return {1.0: lambda x: 1.0 * x, 2.0: _log_entire_alpha2}.get(p["alpha"])


def _gp_log_abs_gamma_imag(p):
    a = p["alpha"]

    def log_abs_gamma_imag(rho):
        # reflection: |Gamma(1+iy)|^2 = pi y / sinh(pi y), with
        # log sinh(pi y) = pi y - log 2 + log1p(-exp(-2 pi y))
        y = rho / a
        lsh = math.pi * y - math.log(2.0) + math.log1p(-math.exp(-2 * math.pi * y)) \
            if y > 1e-8 else math.log(math.sinh(math.pi * y))
        return 0.5 * (math.log(math.pi) + math.log(y) - lsh)
    return log_abs_gamma_imag


def _fixed(value):
    """Factory that ignores the parameters (None stays None)."""
    return None if value is None else (lambda p: value)


def _array_or_pointwise(f):
    """A user callable extended to numpy arrays: the one place where the
    package maps a callable point by point.  Arrays go to f whole unless it
    rejects them with TypeError or ValueError (one that calls ``complex(s)``
    or branches on ``s >= 0``, say); from then on this wrapper maps f over
    the broadcast arguments point by point, and a point whose call
    overflows (OverflowError) reads inf.  Numbers go to f as they are."""
    whole = True

    def call(*args):
        nonlocal whole
        if whole:
            try:
                return f(*args)
            except (TypeError, ValueError):
                if not any(isinstance(a, np.ndarray) for a in args):
                    raise
                whole = False
        elif not any(isinstance(a, np.ndarray) for a in args):
            return f(*args)
        grid = np.broadcast_arrays(*args)
        out = []
        for point in zip(*(a.ravel().tolist() for a in grid)):
            try:
                out.append(f(*point))
            except OverflowError:
                out.append(math.inf)
        return np.array(out).reshape(grid[0].shape)
    return call


def _log_abs_of(kernel):
    def log_abs_K(t):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(kernel(t)))
    return log_abs_K


@dataclass(frozen=True)
class _Family:
    """What a weight family declares: its formulas, its ray data and the
    closed forms it has.

    Closed forms are factories ``p -> callable`` of the parameter dict that
    return None where the family has no closed form at those parameters.
    They describe the unshifted function; ``WeightSpec.closed`` withholds
    them from re-anchored weights.
    """
    name: str
    log_gamma: Callable              # (p, s) -> log gamma(s)
    eps: Optional[Callable]          # (p, s) -> eps(s); None: central difference
    min_real: Callable               # p -> smallest real argument the formula tolerates
    rho0: float                      # empirical univalence threshold for the saddle profile
    complex_capable: bool = True     # log_gamma accepts complex s
    moments: Optional[Callable] = None          # n -> mu_n as an exact integer
    kernel: Optional[Callable] = None           # t -> K(t), complex-capable
    log_abs_kernel: Optional[Callable] = None   # t -> log |K(t)|
    entire: Optional[Callable] = None           # z -> E(z)
    log_entire_real: Optional[Callable] = None  # x -> log E(x) on the ray
    log_abs_gamma_imag: Optional[Callable] = None  # rho -> log |gamma(i rho)|
    # closed companion sequence log ghat_n = log n! + n log ghat_factor(p, log n)
    # and its ratio asymptotics ghat_n/ghat_{n+1} ~ c / (n^p log^q n)
    ghat_factor: Optional[Callable] = None
    ghat_ratio: Optional[Callable] = None       # p -> {"p": ..., "q": ...}


_FAMILIES = {
    f.name: f
    for f in [
        # log log log s, the beta factor, is undefined below e
        _Family("log_power", _lg_log_power, _eps_log_power,
                lambda p: math.e + 0.10 if p.get("beta", 0.0) else 1.10, 8.0,
                ghat_factor=lambda p, ln: 2.0 / (math.pi * p["alpha"]) * ln,
                ghat_ratio=lambda p: {"p": 1.0, "q": 1.0}),
        _Family("loglog_power", _lg_loglog_power, _eps_loglog_power,
                _fixed(math.e + 0.10), 16.0,
                ghat_factor=lambda p, ln:
                    2.0 / (math.pi * p["beta"]) * ln * math.log(ln),
                ghat_ratio=lambda p: {"p": 1.0, "q": 1.0}),
        _Family("exp_logpower", _lg_exp_logpower, _eps_exp_logpower,
                _fixed(1.10), 8.0,
                ghat_factor=lambda p, ln:
                    2.0 / (math.pi * p["alpha"]) * ln ** (1.0 - p["alpha"]),
                ghat_ratio=lambda p: {"p": 1.0, "q": 1.0 - p.get("alpha", 0.5)}),
        _Family("exp_log_over_loglog", _lg_exp_log_over_loglog,
                _eps_exp_log_over_loglog, _fixed(math.e + 0.10), 16.0,
                ghat_factor=lambda p, ln:
                    2.0 / (math.pi * p["alpha"]) * math.log(ln),
                ghat_ratio=lambda p: {"p": 1.0, "q": 0.0}),
        _Family("gamma_power", _lg_gamma_power, _eps_gamma_power,
                lambda p: -p["alpha"] + 1e-9, 2.0,
                moments=lambda p: math.factorial if p["alpha"] == 1.0 else None,
                kernel=_gp_kernel, log_abs_kernel=_gp_log_abs_kernel,
                entire=_gp_entire,
                log_entire_real=_gp_log_entire_real,
                log_abs_gamma_imag=_gp_log_abs_gamma_imag,
                ghat_factor=lambda p, ln: 2.0 / math.pi * p["alpha"],
                ghat_ratio=lambda p: {"p": 1.0, "q": 0.0}),
        _Family("iterated_log", _lg_iterated_log, _eps_iterated_log,
                _fixed(0.0), 8.0),
    ]
}


# ---------------------------------------------------------------------------
# WeightSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSpec:
    """An admissible weight: family tag + parameters + sector data.

    ``arg_shift`` re-anchors the function (``gamma(s + arg_shift)``); it is 0
    for user-constructed weights and -1 for the internal moment-anchored twin
    used by the kernel/E asymptotics.

    ``record`` is the family's table entry (filled in from the family name
    for built-in weights); custom weights carry their own, built by
    :meth:`custom`.
    """

    family: str
    params: tuple = ()
    sector_half_angle: float = 2.0
    shift_c: float = 0.5
    arg_shift: float = 0.0
    label: str = ""
    record: Optional[_Family] = field(default=None, repr=False)
    _p: dict = field(init=False, compare=False, repr=False)
    _closed: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)
    _moment_cache: dict = field(default_factory=dict, init=False,
                                compare=False, repr=False)
    _kernel_table: dict = field(default_factory=dict, init=False,
                                compare=False, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                  compare=False, repr=False)

    def __post_init__(self):
        if self.sector_half_angle <= math.pi / 2:
            raise DomainError("sector half-angle must exceed pi/2")
        if self.shift_c <= 0:
            raise DomainError("shift_c must be positive")
        if self.record is None:
            if self.family not in _FAMILIES:
                raise DomainError(f"unknown family {self.family!r}")
            object.__setattr__(self, "record", _FAMILIES[self.family])
        object.__setattr__(self, "_p", dict(self.params))

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def gamma_power(alpha: float, **kw) -> "WeightSpec":
        if not 0 < alpha < math.inf:
            raise DomainError("gamma_power needs a finite alpha > 0")
        kw.setdefault("shift_c", min(0.5, alpha / 2))
        return WeightSpec("gamma_power", (("alpha", float(alpha)),), **kw)

    @staticmethod
    def log_power(alpha: float, beta: float = 0.0, **kw) -> "WeightSpec":
        if not 0 < alpha < math.inf or not math.isfinite(beta):
            raise DomainError("log_power needs a finite alpha > 0 and a "
                              "finite beta")
        return WeightSpec("log_power",
                          (("alpha", float(alpha)), ("beta", float(beta))), **kw)

    @staticmethod
    def loglog_power(beta: float, **kw) -> "WeightSpec":
        if not 0 < beta < math.inf:
            raise DomainError("loglog_power needs a finite beta > 0")
        return WeightSpec("loglog_power", (("beta", float(beta)),), **kw)

    @staticmethod
    def exp_logpower(alpha: float, **kw) -> "WeightSpec":
        if not 0 < alpha < 1:
            raise DomainError("exp_logpower needs 0 < alpha < 1")
        return WeightSpec("exp_logpower", (("alpha", float(alpha)),), **kw)

    @staticmethod
    def exp_log_over_loglog(alpha: float, **kw) -> "WeightSpec":
        if not 0 < alpha < math.inf:
            raise DomainError("exp_log_over_loglog needs a finite alpha > 0")
        return WeightSpec("exp_log_over_loglog", (("alpha", float(alpha)),), **kw)

    @staticmethod
    def iterated_log(k: int, **kw) -> "WeightSpec":
        if k < 1:
            raise DomainError("iterated_log needs k >= 1")
        return WeightSpec("iterated_log", (("k", int(k)),), **kw)

    @staticmethod
    def custom(evaluator, *, eps=None, min_real=1.0, rho0=4.0,
               complex_capable=True, kernel=None, entire=None,
               label="custom", **kw) -> "WeightSpec":
        """A user weight.  ``evaluator(s)`` returns log gamma(s) for complex
        ``s`` (real-only when ``complex_capable`` is False); ``eps(s)`` is an
        optional analytic eps; ``kernel(t)`` and ``entire(z)`` declare the
        closed forms of K and E, which then replace Mellin inversion and the
        series exactly as a built-in family's table entry does.  The
        evaluator and the hooks take numpy arrays elementwise if they can,
        and are mapped point by point if not (``_array_or_pointwise``)."""
        if evaluator is None:
            raise DomainError("custom weight needs an evaluator")
        kernel = kernel and _array_or_pointwise(kernel)
        entire = entire and _array_or_pointwise(entire)
        record = _Family(
            "custom", lambda p, s, f=_array_or_pointwise(evaluator): f(s),
            None if eps is None else (lambda p, s: eps(s)),
            _fixed(min_real), rho0, complex_capable,
            kernel=_fixed(kernel), entire=_fixed(entire),
            log_abs_kernel=_fixed(kernel and _log_abs_of(kernel)))
        return WeightSpec("custom", (), label=label, record=record, **kw)

    # -- basic properties ----------------------------------------------------

    @property
    def pdict(self) -> dict:
        return dict(self.params)

    @property
    def min_real(self) -> float:
        """Smallest real s at which gamma(s) is safely evaluable."""
        return self.record.min_real(self._p) - self.arg_shift

    @property
    def rho0(self) -> float:
        return self.record.rho0 - self.arg_shift

    @property
    def complex_capable(self) -> bool:
        return self.record.complex_capable

    def closed(self, name: str):
        """The closed form ``name`` (a field of the family record, e.g.
        "kernel" or "entire") at these parameters, or None.  Closed forms
        hold for the unshifted function only."""
        if name not in self._closed:
            # cached: gamma_hat_numeric asks once per probed rho
            make = getattr(self.record, name)
            self._closed[name] = make(self._p) \
                if make is not None and self.arg_shift == 0.0 else None
        return self._closed[name]

    @property
    def classical(self) -> bool:
        """gamma(s) = Gamma(1 + s): moments n!, K = e^-t and E = exp."""
        return self.closed("moments") is math.factorial

    def in_sector(self, s):
        """Whether s lies in the sector; elementwise for an array."""
        return np.abs(np.angle(s + self.shift_c)) < self.sector_half_angle

    # -- evaluation ----------------------------------------------------------

    def log_gamma(self, s):
        """Principal-branch log gamma(s) on the sector (complex-capable).

        ``s`` is a number or a numpy array; an array is checked against the
        sector and evaluated in one call.
        """
        if isinstance(s, np.ndarray):
            # the half-plane right of the vertex lies inside the sector
            # (half-angle > pi/2): angles are needed only left of it
            if not (s.real > -self.shift_c).all() and not self.in_sector(s).all():
                raise DomainError(f"points outside sector of {self.describe()}")
            return self.record.log_gamma(self._p, s + self.arg_shift)
        if not self.in_sector(s):
            raise DomainError(f"s={s} outside sector of {self.describe()}")
        s = s + self.arg_shift
        if isinstance(s, complex) or np.iscomplexobj(s):
            s = complex(s)
        return self.record.log_gamma(self._p, s)

    def moment_log(self, n: int) -> float:
        """log mu_n where mu_n = gamma(n) is the n-th kernel moment."""
        if n < 0:
            raise DomainError("moment index must be >= 0")
        with self._lock:
            if n not in self._moment_cache:
                if n < self.min_real:
                    raise DomainError(
                        f"moment {n} below evaluable range of family "
                        f"{self.family} (min arg {self.min_real:.3g})")
                self._moment_cache[n] = float(np.real(self.log_gamma(n)))
            return self._moment_cache[n]

    def tabulated_kernel(self, keys, fill) -> list:
        """The kernel table's (K, errK) at ``keys``: K and its error at nodes
        of the Laplace rule's lattice, keyed (DE level, lattice index).  ``fill(missing)`` returns a dict of entries that covers the
        missing keys (and may hold more); they are stored under the lock
        while the table holds fewer than _KERNEL_TABLE_MAX entries, and
        returned either way."""
        table = self._kernel_table
        got = [table.get(k) for k in keys]
        missing = [k for k, v in zip(keys, got) if v is None]
        if not missing:
            return got
        new = fill(missing)
        with self._lock:
            for k, v in new.items():
                if len(table) >= _KERNEL_TABLE_MAX:
                    break
                table.setdefault(k, v)
        return [new[k] if v is None else v for k, v in zip(keys, got)]

    @cached_property
    def ray(self) -> tuple:
        """(lo, cs, lg, slope): log gamma, in one weight call, on the ray
        grid cs = lo + _RAY_OFFSETS, lo the lowest evaluable point, cut to
        its first run of finite values; slope[k] is the slope of lg from
        cs[k] to cs[k + 1].  Every real root on the ray starts from it."""
        lo = max(self.min_real, -self.shift_c)
        cs = lo + _RAY_OFFSETS
        with np.errstate(all="ignore"):
            lg = np.real(self.log_gamma(cs))
        a, b = np.flatnonzero(np.diff(np.r_[False, np.isfinite(lg), False]))[:2]
        cs, lg = cs[a:b], lg[a:b]
        return lo, cs, lg, np.diff(lg) / np.diff(cs)

    def moment(self, n: int) -> float:
        lg = self.moment_log(n)
        if lg > LOG_FLOAT_MAX:
            raise OverflowError("moment exceeds float range; use moment_log")
        return math.exp(lg)

    def describe(self) -> str:
        if self.label:
            return self.label
        ps = ",".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.family}({ps})" if ps else self.family


def moment_weight(w: WeightSpec) -> WeightSpec:
    """The index-shifted twin gamma(s-1), whose sequence values at 1, 2, ...
    are w's moments; it drives the K/E saddle asymptotics."""
    return replace(w, arg_shift=w.arg_shift - 1.0)


# ---------------------------------------------------------------------------
# L, eps and the saddle machinery
# ---------------------------------------------------------------------------

def log_L(w: WeightSpec, s):
    if s == 0:
        raise DomainError("L(s) undefined at s = 0")
    return w.log_gamma(s) / s


def eval_eps(w: WeightSpec, s, force_numeric: bool = False):
    """eps(s) = s L'(s)/L(s): the family's analytic formula when it has one,
    otherwise a central difference of log L with step ``_H_REL * |s|``."""
    fn = w.record.eps
    if fn is not None and not force_numeric:
        sa = s + w.arg_shift
        if isinstance(sa, complex) or np.iscomplexobj(sa):
            sa = complex(sa)
        eps = fn(w._p, sa)
        if w.arg_shift:
            # eps of the re-anchored function gamma(s + shift):
            # the log(gamma)/s term divides by the outer s, not s+shift
            eps = eps + w.log_gamma(s) * (1.0 / sa - 1.0 / s)
        return eps
    h = _H_REL * abs(s)
    dlogL = (w.log_gamma(s + h) / (s + h) - w.log_gamma(s - h) / (s - h)) / (2 * h)
    return s * dlogL


def _profile(w: WeightSpec, rho: float) -> float:
    """log L(rho) + eps(rho) = (log gamma)'(rho), the saddle profile."""
    return float(np.real(log_L(w, rho))) + float(np.real(eval_eps(w, rho)))


@dataclass(frozen=True)
class SaddlePoint:
    """Solution s_z of log L(s) + eps(s) = log z with its residual."""
    z: complex
    s_z: complex
    residual: float


_BRENT_MAXITER = 200     # brentq's default step budget


def _brent(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """Root of f between a and b by Brent's method (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4), step for step as
    scipy's brentq takes it: inverse interpolation between the last two
    iterates, extrapolation through three, and bisection when a step is not
    short enough.  A bracket without a sign change, a NaN value of f, or
    _BRENT_MAXITER steps raise NoConvergence."""
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise NoConvergence(f"f is NaN at {x:.17g}", last_iterate=x)
        return fx

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise NoConvergence(f"no sign change between {a:.6g} and {b:.6g}",
                            last_iterate=b, residual=abs(fcur))
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if (fpre < 0) != (fcur < 0):    # a zero fcur returns below
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry             # a good short step
            else:
                spre = scur = sbis                  # bisect
        else:
            spre = scur = sbis                      # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise NoConvergence(f"Brent's method took {_BRENT_MAXITER} steps",
                        last_iterate=xcur, residual=abs(fcur))


def _grid_root(w: WeightSpec, f, lo: float, keys, xtol: float = 1e-12,
               rtol: float = 1e-15) -> float:
    """Root of an increasing f on [lo, inf); lo itself when f(lo) >= 0.
    ``keys`` holds one value of f per interval of w's ray grid; Brent's
    method (``_brent``) refines the root between the neighbours of the first
    key >= 0 right of lo.  A root past the grid raises NoConvergence."""
    if f(lo) >= 0:
        return lo
    cs = w.ray[1]
    j = int(np.searchsorted(cs, lo, side="right"))
    k = j + int(np.searchsorted(keys[j:], 0.0))
    if k + 1 >= len(cs):
        raise NoConvergence(f"no sign change on the ray up to {cs[-1]:.3g}",
                            last_iterate=cs[-1], residual=abs(f(cs[-1])))
    return _brent(f, lo if k == j else cs[k - 1], cs[k + 1], xtol, rtol)


def L_inverse(w: WeightSpec, r: float) -> float:
    """L^{-1}(r) on the ray, clamped below at max(min_real + 1, 2)."""
    target = math.log(r)
    _, cs, lg, _ = w.ray
    return _grid_root(w, lambda k: float(np.real(log_L(w, k))) - target,
                      max(w.min_real + 1.0, 2.0), lg[1:] / cs[1:] - target,
                      xtol=1e-9, rtol=4 * np.finfo(float).eps)


def solve_saddle(w: WeightSpec, z, tol: float = 1e-10) -> SaddlePoint:
    """Solve log L(s) + eps(s) = log z for s in the sector.

    Real positive z: the slopes of log gamma between ray grid neighbours
    are mean values of the increasing profile, so the first >= log z
    brackets the root for Brent's method (NoConvergence past 4.6e61).
    Complex z runs a damped Newton iteration from the real solution for |z|.
    """
    z = complex(z)
    if z == 0:
        raise DomainError("saddle point needs z != 0")
    lo = max(w.rho0, w.min_real + 1.0)
    zmin = math.exp(_profile(w, lo))
    if abs(z) < zmin:
        raise DomainError(
            f"|z|={abs(z):.4g} below saddle threshold {zmin:.4g} for "
            f"{w.describe()}")
    target = math.log(abs(z))
    rho = _grid_root(w, lambda r: _profile(w, r) - target, lo,
                     w.ray[3] - target)

    def h(s):
        return log_L(w, s) + eval_eps(w, s) - np.log(z)

    s = complex(rho)
    res = abs(h(s))
    if abs(z.imag) == 0 and z.real > 0:
        return SaddlePoint(z, s, res)

    # damped Newton with finite-difference derivative
    for _ in range(_NEWTON_MAX_ITER):
        if res <= tol:
            break
        hs = h(s)
        dh = abs(s) * 1e-7
        hp = (h(s + dh) - h(s - dh)) / (2 * dh)
        if hp == 0:
            raise NoConvergence("flat saddle profile", last_iterate=s,
                                residual=res)
        step = hs / hp
        lam = 1.0
        while lam > 1e-6:
            cand = s - lam * step
            if w.in_sector(cand) and abs(cand) > 1e-12:
                cres = abs(h(cand))
                if cres < res:
                    s, res = cand, cres
                    break
            lam /= 2
        else:
            break
    if res > tol:
        raise NoConvergence("saddle Newton stalled", last_iterate=s,
                            residual=res)
    return SaddlePoint(z, s, res)


# ---------------------------------------------------------------------------
# gamma-hat
# ---------------------------------------------------------------------------

def log_abs_gamma_imag(w: WeightSpec, rho: float) -> float:
    """log |gamma(i rho)|: the family's closed form where it declares one
    (the reflection formula for gamma_power), otherwise the real part of the
    principal-branch log composition."""
    closed = w.closed("log_abs_gamma_imag")
    if closed is not None:
        return closed(rho)
    return float(np.real(w.log_gamma(1j * rho)))


@dataclass(frozen=True)
class GammaHatEntry:
    """ghat_n = sup_{rho>0} rho^n |gamma(i rho)| with its maximizer."""
    n: int
    log_value: float
    argmax_rho: float
    mode: str                    # "analytic_continuation" | "asymptotic_form"


def gamma_hat_numeric(w: WeightSpec, n: int) -> GammaHatEntry:
    """Maximize f(rho) = n log rho + log|gamma(i rho)| by golden section."""
    if n < 0:
        raise DomainError("n must be >= 0")
    mode = "analytic_continuation"
    if w.complex_capable:
        def f(rho):
            return n * math.log(rho) + log_abs_gamma_imag(w, rho)
    else:
        mode = "asymptotic_form"

        def f(rho):
            eps = float(np.real(eval_eps(w, rho)))
            return n * math.log(rho) - 0.5 * math.pi * rho * eps

    lo = w.min_real + 0.05 if w.min_real > 0 else _GHAT_RHO_FLOOR
    # bracket by doubling: the maximum lies between the probe before the
    # best one and the first probe below it
    lo_b, a = lo, lo
    fa = f(a)
    b = 2.0 * max(a, 0.5)
    while True:
        fb = f(b)
        if fb < fa:
            break
        lo_b, a, fa = a, b, fb
        b *= 2.0
        if b > 1e120:
            raise BracketError("no interior maximum up to the growth cap")
    hi_b = b
    phi = (math.sqrt(5.0) - 1) / 2
    x1 = hi_b - phi * (hi_b - lo_b)
    x2 = lo_b + phi * (hi_b - lo_b)
    f1, f2 = f(x1), f(x2)
    for _ in range(300):
        if hi_b - lo_b <= _GHAT_REL_TOL * max(1.0, abs(lo_b)):
            break
        if f1 < f2:
            lo_b, x1, f1 = x1, x2, f2
            x2 = lo_b + phi * (hi_b - lo_b)
            f2 = f(x2)
        else:
            hi_b, x2, f2 = x2, x1, f1
            x1 = hi_b - phi * (hi_b - lo_b)
            f1 = f(x1)
    rho_star = 0.5 * (lo_b + hi_b)
    f_star = f(rho_star)
    if fa > f_star:
        # the best probe wins at a peak on the edge lo, where the golden
        # section's last width costs |f'(lo)| times that width
        f_star, rho_star = fa, a
    return GammaHatEntry(n, f_star, rho_star, mode)


def gamma_hat_closed_log(family: str, params: dict, n: int) -> float:
    """Closed-form log ghat_n for the families whose table entry has one."""
    if n < 3:
        raise DomainError("closed forms are asymptotic; need n >= 3")
    factor = getattr(_FAMILIES.get(family), "ghat_factor", None)
    if factor is None:
        raise UnsupportedFamily(f"no closed gamma-hat for family {family!r}")
    return gammaln(n + 1.0) + n * math.log(factor(params, math.log(n)))


def gamma_hat_closed_ratio(family: str, params: dict) -> Optional[dict]:
    """Ratio asymptotics {"p", "q"} of the closed ghat_n,
    ghat_n/ghat_{n+1} ~ c / (n^p log^q n); None without a closed form."""
    ratio = getattr(_FAMILIES.get(family), "ghat_ratio", None)
    return None if ratio is None else ratio(params)


def log_L_hat(w: WeightSpec, k: int) -> float:
    """log Lhat(k) = log (ghat_k / k!)^{1/k}, the slowly varying profile of
    the companion sequence."""
    ent = gamma_hat_numeric(w, k)
    return (ent.log_value - gammaln(k + 1.0)) / k
