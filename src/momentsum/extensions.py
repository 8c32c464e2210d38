"""Almost-holomorphic extensions off an interval and planar reconstruction.

The extension P_N(z) is the Taylor polynomial of order N built from jets at
the projection z* of z onto the interval; its dbar-defect measures how far
the jets are from analytic data and is controlled by the jet envelope.  The
Cauchy-Pompeiu integral inverts a sampled dbar field back to the function,
and splitting the integral at the real axis produces the half-plane
analytic pieces.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (DomainError, JetUnavailable, SingularCell, StepTooLarge)
from .weights import WeightSpec, log_L, log_L_hat, moment_weight

# ---------------------------------------------------------------------------
# projection and Taylor fields
# ---------------------------------------------------------------------------


def project_to_interval(z, J) -> complex:
    """Nearest point of the real interval J = (j0, j1) to z."""
    j0, j1 = J
    if not j1 > j0:
        raise DomainError("interval must be non-degenerate")
    return complex(min(max(complex(z).real, j0), j1))


@dataclass
class TaylorField:
    """Derivative jets f^(j), j <= n_max, on an interval from an oracle (a
    FunctionHandle-like ``derivative``), taken at the continuous projection,
    which is what the dbar measurement needs."""

    interval: tuple
    n_max: int
    oracle: object

    @staticmethod
    def from_oracle(f, J, n_max: int) -> "TaylorField":
        return TaylorField(tuple(J), n_max, f)

    def jet(self, x: float, j: int):
        if j > self.n_max:
            raise JetUnavailable(f"jet order {j} above n_max={self.n_max}")
        return self.oracle.derivative(float(x), j)


def taylor_extension_PN(tf: TaylorField, z, N: int) -> complex:
    """P_N(z) = sum_{j<=N} f^(j)(z*) (z - z*)^j / j!; restricts to f on J."""
    if N > tf.n_max:
        raise JetUnavailable(f"N={N} above available jets ({tf.n_max})")
    z = complex(z)
    zs = project_to_interval(z, tf.interval)
    dz = z - zs
    acc = 0j
    for j in range(N, -1, -1):
        acc = acc * dz + tf.jet(zs.real, j) / math.factorial(j)
    return acc


def dbar_measure(tf: TaylorField, z, N: int, h: Optional[float] = None) -> complex:
    """dbar P_N(z) = (d/dx + i d/dy) P_N / 2 by Richardson-refined central
    differences."""
    z = complex(z)
    dist = abs(z - project_to_interval(z, tf.interval))
    if h is None:
        h = max(dist, 1e-3) * 0.02
    if dist > 0 and h > 0.5 * dist:
        raise StepTooLarge(f"h={h:.3g} too large for dist(z, J)={dist:.3g}")

    def dbar(hh):
        px = (taylor_extension_PN(tf, z + hh, N)
              - taylor_extension_PN(tf, z - hh, N)) / (2 * hh)
        py = (taylor_extension_PN(tf, z + 1j * hh, N)
              - taylor_extension_PN(tf, z - 1j * hh, N)) / (2 * hh)
        return 0.5 * (px + 1j * py)

    d1, d2 = dbar(h), dbar(h / 2)
    return (4.0 * d2 - d1) / 3.0


# ---------------------------------------------------------------------------
# neighborhood sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeighborhoodSet:
    """The shrinking neighborhoods V/Omega_k of an interval or Omega
    domain, driven by the weight profiles Lhat(k), L(k) and m_k^{1/k}.

    kinds:
      V       dist(z,J) <= |z*| eta/Lhat(k)  union  dist(z,J) <= 1/(Q m_k^{1/k})
      Omega_k dist(z, Omega_eta) <= 1/(Q m_k^{1/k} L(k))
    """

    kind: str
    k: int
    eta: float
    Q: float
    weight: WeightSpec
    logm: Callable[[int], float]          # log m_k of the driving sequence
    interval: tuple = (0.0, 1.0)
    # the profiles at k, taken once: Lhat is a whole golden-section search
    _Lhat: float = field(init=False, repr=False)
    _L: float = field(init=False, repr=False)
    _mk_root: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("V", "Omega_k"):
            raise DomainError("kind must be V or Omega_k")
        mw, k = moment_weight(self.weight), max(self.k, 2)
        object.__setattr__(self, "_Lhat", math.exp(log_L_hat(mw, k)))
        object.__setattr__(self, "_L",
                           math.exp(float(np.real(log_L(mw, k)))))
        object.__setattr__(self, "_mk_root",
                           math.exp(self.logm(self.k) / self.k))

    def tube_radius(self) -> float:
        if self.kind == "V":
            return 1.0 / (self.Q * self._mk_root)
        return 1.0 / (self.Q * self._mk_root * self._L)

    def contains(self, z) -> bool:
        z = complex(z)
        if self.kind == "V":
            zs = project_to_interval(z, self.interval)
            d = abs(z - zs)
            return d <= abs(zs) * self.eta / self._Lhat or \
                d <= self.tube_radius()
        return self._dist_omega(z) <= self.tube_radius()

    def _dist_omega(self, z: complex) -> float:
        """Distance to Omega_eta for gamma_power weights (closed region
        {Re z^-alpha >= eta^alpha})."""
        if self.weight.family != "gamma_power":
            raise DomainError("Omega_k membership implemented for gamma_power")
        a = self.weight.pdict["alpha"]
        z = complex(z)
        if z != 0:
            if a == 1.0:
                c, r = 1.0 / (2 * self.eta), 1.0 / (2 * self.eta)
                return max(0.0, abs(z - c) - r)
            if (z ** -a).real >= self.eta ** a and abs(np.angle(z)) < math.pi / (2 * a):
                return 0.0
        # sample the boundary rho(phi) = (cos(a phi))^{1/a} / eta
        best = math.inf
        for phi in np.linspace(-math.pi / (2 * a) + 1e-6,
                               math.pi / (2 * a) - 1e-6, 721):
            rho = math.cos(a * phi) ** (1.0 / a) / self.eta
            best = min(best, abs(z - rho * complex(math.cos(phi), math.sin(phi))))
        return best


# ---------------------------------------------------------------------------
# Cauchy-Pompeiu reconstruction
# ---------------------------------------------------------------------------

@dataclass
class PlanarField:
    """dbar F sampled at cell centers of a rectangle grid."""

    x0: float
    x1: float
    y0: float
    y1: float
    values: np.ndarray          # (ny, nx) complex, cell-center samples

    @staticmethod
    def sample(fn, bounds, nx: int, ny: int) -> "PlanarField":
        x0, x1, y0, y1 = bounds
        xs = x0 + (np.arange(nx) + 0.5) * (x1 - x0) / nx
        ys = y0 + (np.arange(ny) + 0.5) * (y1 - y0) / ny
        vals = np.array([[complex(fn(complex(x, y))) for x in xs] for y in ys])
        return PlanarField(x0, x1, y0, y1, vals)

    @property
    def nx(self):
        return self.values.shape[1]

    @property
    def ny(self):
        return self.values.shape[0]

    @property
    def hx(self):
        return (self.x1 - self.x0) / self.nx

    @property
    def hy(self):
        return (self.y1 - self.y0) / self.ny

    def centers(self):
        xs = self.x0 + (np.arange(self.nx) + 0.5) * self.hx
        ys = self.y0 + (np.arange(self.ny) + 0.5) * self.hy
        return xs, ys


def _antideriv(zeta: complex) -> complex:
    # -i zeta (log zeta - 1); the mixed antiderivative of 1/zeta in (u, v)
    if zeta == 0:
        return 0j
    return -1j * zeta * (np.log(zeta) - 1.0)


def _upper_band_integral(z: complex, a, b, c, d) -> complex:
    """Corner formula for the rectangle [a,b]x[c,d] with c >= Im z: the
    zeta-image stays in the closed upper half-plane where the principal
    branch is continuous (including its +i pi value on the cut)."""
    x, y = z.real, z.imag
    return (_antideriv(complex(b - x, d - y)) - _antideriv(complex(a - x, d - y))
            - _antideriv(complex(b - x, c - y)) + _antideriv(complex(a - x, c - y)))


def _cell_integral(z: complex, a: float, b: float, c: float, d: float) -> complex:
    """Exact integral of 1/(w - z) over the rectangle [a,b]x[c,d] for any z;
    bands below Im z are handled by the conjugate reflection."""
    y = z.imag
    if c >= y:
        return _upper_band_integral(z, a, b, c, d)
    if d <= y:
        # v -> 2y - v maps the band above; integrand conjugates
        return np.conj(_upper_band_integral(z, a, b, 2 * y - d, 2 * y - c))
    return (_cell_integral(z, a, b, y, d) + _cell_integral(z, a, b, c, y))


def cauchy_pompeiu_reconstruct(field: PlanarField, z) -> complex:
    """F(z) = -(1/pi) integral of dbarF(w) / (w - z) over the plane.

    Midpoint rule with the exact local integral of 1/(w-z) on cells near z
    (the singular correction).
    """
    return _pompeiu(field, z, half=None)


def split_plus_minus(field: PlanarField, z):
    """Half-plane split: f_pm from the upper/lower parts of the field;
    f_plus + f_minus equals the full reconstruction up to quadrature error."""
    return _pompeiu(field, z, half=+1), _pompeiu(field, z, half=-1)


def _pompeiu(field: PlanarField, z, half) -> complex:
    z = complex(z)
    xs, ys = field.centers()
    hx, hy = field.hx, field.hy
    if min(hx, hy) <= 0:
        raise DomainError("degenerate field grid")
    near = 2.0 * math.hypot(hx, hy)
    X, Y = np.meshgrid(xs, ys)
    W = X + 1j * Y
    vals = field.values
    if half is not None:
        mask = (Y > 0) if half > 0 else (Y < 0)
    else:
        mask = np.ones_like(Y, dtype=bool)
    dist = np.abs(W - z)
    if half is not None and abs(z.imag) < 1e-14 and np.any(dist < 1e-14):
        raise SingularCell("z sits on a sample node at the split axis")
    far = mask & (dist >= near)
    acc = complex(np.sum(vals[far] / (W[far] - z))) * hx * hy
    for iy, ix in zip(*np.where(mask & (dist < near))):
        a, b = xs[ix] - hx / 2, xs[ix] + hx / 2
        c, d = ys[iy] - hy / 2, ys[iy] + hy / 2
        acc += vals[iy, ix] * _cell_integral(z, a, b, c, d)
    return -acc / math.pi


def membership_raster_csv(ns: NeighborhoodSet, bounds, nx, ny, path,
                          header_note: str = ""):
    x0, x1, y0, y1 = bounds
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    with open(path, "w", newline="") as fh:
        if header_note:
            fh.write(f"# {header_note}\n")
        wr = csv.writer(fh)
        wr.writerow(["x", "y", "member"])
        for y in ys:
            for x in xs:
                wr.writerow([f"{x:.9g}", f"{y:.9g}",
                             int(ns.contains(complex(x, y)))])
    return path
