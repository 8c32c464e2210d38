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
    """Derivative jets f^(j) on an interval, by exact oracle or grid table.

    Grid mode snaps to the nearest grid point (keeping P_N|_J = f exact at
    the stored points); oracle mode evaluates jets at the continuous
    projection, which is what the dbar measurement needs.
    """

    interval: tuple
    n_max: int
    oracle: Optional[object] = None          # FunctionHandle-like
    grid: Optional[np.ndarray] = None
    jets: Optional[np.ndarray] = None        # (len(grid), n_max+1)

    @staticmethod
    def from_oracle(f, J, n_max: int) -> "TaylorField":
        return TaylorField(tuple(J), n_max, oracle=f)

    @staticmethod
    def from_grid(J, xs, jets) -> "TaylorField":
        xs = np.asarray(xs, dtype=float)
        jets = np.asarray(jets, dtype=float)
        if jets.shape[0] != len(xs):
            raise DomainError("jets must have one row per grid point")
        return TaylorField(tuple(J), jets.shape[1] - 1, grid=xs, jets=jets)

    def jet(self, x: float, j: int):
        if j > self.n_max:
            raise JetUnavailable(f"jet order {j} above n_max={self.n_max}")
        if self.oracle is not None:
            return self.oracle.derivative(float(x), j)
        i = int(np.argmin(np.abs(self.grid - x)))
        return self.jets[i, j]

    def validate_grid(self, rel_tol: float = 0.05) -> bool:
        """Grid jets must be consistent with finite differences of the next
        lower order along the grid."""
        if self.grid is None or len(self.grid) < 3:
            return True
        h = np.diff(self.grid)
        for j in range(self.n_max):
            fd = (self.jets[2:, j] - self.jets[:-2, j]) / (h[1:] + h[:-1])
            ref = self.jets[1:-1, j + 1]
            scale = np.max(np.abs(ref)) + 1e-12
            if np.max(np.abs(fd - ref)) > rel_tol * scale + 1e-9:
                return False
        return True


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
    differences.

    Grid-jet fields need h larger than the grid spacing (below it the
    snapped jets make P_N piecewise holomorphic and the measurement reads 0).
    """
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

def _seg_dist(z: complex, a: complex, b: complex) -> float:
    """Distance from z to the segment [a, b]."""
    ab = b - a
    t = ((z - a).real * ab.real + (z - a).imag * ab.imag) / abs(ab) ** 2
    t = min(max(t, 0.0), 1.0)
    return abs(z - (a + t * ab))


@dataclass(frozen=True)
class NeighborhoodSet:
    """The shrinking neighborhoods V/U/Omega_k of an interval or Omega
    domain, driven by the weight profiles Lhat(k), L(k) and m_k^{1/k}.

    kinds:
      V       dist(z,J) <= |z*| eta/Lhat(k)  union  dist(z,J) <= 1/(Q m_k^{1/k})
      U       1/(Q m_k^{1/k} L(k))-neighborhood of the sector
              {|arg z| <= eta/Lhat(k), Re z in J} (mirrored for negative reals)
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
        if self.kind not in ("V", "U", "Omega_k"):
            raise DomainError("kind must be V, U, or Omega_k")
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
        if self.kind == "U":
            return self._dist_sector(z) <= self.tube_radius()
        return self._dist_omega(z) <= self.tube_radius()

    def _dist_sector(self, z: complex) -> float:
        theta = self.eta / self._Lhat
        if theta >= 0.499 * math.pi:
            raise DomainError(
                "U-set sector half-angle >= pi/2: the construction needs a "
                "weight with slowly growing companion profile (eps -> 0)")
        j0, j1 = self.interval
        best = math.inf
        pieces = []
        if j1 > 0:
            pieces.append((1.0, max(j0, 0.0), j1))
        if j0 < 0:
            pieces.append((-1.0, max(-j1, 0.0), -j0))
        for sgn, r0, r1 in pieces:
            zz = z if sgn > 0 else -z
            # the truncated sector {|arg| <= theta, Re in [r0, r1]}
            if abs(zz) > 0 and abs(np.angle(zz)) <= theta and r0 <= zz.real <= r1:
                return 0.0
            ray_len = r1 / math.cos(theta)
            for phi in (theta, -theta):
                e = ray_len * complex(math.cos(phi), math.sin(phi))
                best = min(best, _seg_dist(zz, complex(r0), e))
            top = complex(r1, r1 * math.tan(theta))
            best = min(best, _seg_dist(zz, top.conjugate(), top))
            if r0 > 0:
                side = complex(r0, r0 * math.tan(theta))
                best = min(best, _seg_dist(zz, side.conjugate(), side))
        return best

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

    # -- boundary sampling (V kind) -----------------------------------------

    def boundary_points(self, n: int = 400):
        """Sample points of the V-set boundary (used by the separation check)."""
        if self.kind != "V":
            raise DomainError("boundary sampling implemented for V sets")
        j0, j1 = self.interval
        Lh = self._Lhat
        tube = self.tube_radius()

        def halfwidth(x):
            zs = min(max(x, j0), j1)
            return max(abs(zs) * self.eta / Lh, tube)

        pts = []
        end_r0 = halfwidth(j0)
        end_r1 = halfwidth(j1)
        xs = np.linspace(j0, j1, n // 2)
        for x in xs:
            d = halfwidth(x)
            pts.append(complex(x, d))
            pts.append(complex(x, -d))
        for ang in np.linspace(math.pi / 2, 3 * math.pi / 2, n // 8):
            pts.append(complex(j0) + end_r0 * complex(math.cos(ang), math.sin(ang)))
        for ang in np.linspace(-math.pi / 2, math.pi / 2, n // 8):
            pts.append(complex(j1) + end_r1 * complex(math.cos(ang), math.sin(ang)))
        return pts


def neighborhood_membership(ns: NeighborhoodSet, z) -> bool:
    return ns.contains(z)


def v_set_separation(ns_k: NeighborhoodSet, ns_k1: NeighborhoodSet,
                     n_samples: int = 400):
    """Sampled dist(boundary V_{k+1}, boundary V_k) against the claimed
    lower bound min{tube(k+1)-tube(k) gap, slope gap}."""
    if ns_k.kind != "V" or ns_k1.kind != "V":
        raise DomainError("separation check is for V sets")
    pts1 = ns_k1.boundary_points(n_samples)
    pts0 = ns_k.boundary_points(4 * n_samples)
    arr0 = np.array(pts0)
    measured = min(float(np.min(np.abs(arr0 - p))) for p in pts1)
    t_k, t_k1 = ns_k.tube_radius(), ns_k1.tube_radius()
    Lh_k, Lh_k1 = ns_k._Lhat, ns_k1._Lhat
    bound = min(t_k1 - t_k if t_k1 > t_k else t_k - t_k1,
                0.5 * ns_k.eta * t_k1 * (Lh_k1 / Lh_k - 1.0))
    return measured, bound


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

    def to_csv(self, path, header_note: str = ""):
        xs, ys = self.centers()
        with open(path, "w", newline="") as fh:
            if header_note:
                fh.write(f"# {header_note}\n")
            wr = csv.writer(fh)
            wr.writerow(["x", "y", "re", "im"])
            for iy, y in enumerate(ys):
                for ix, x in enumerate(xs):
                    v = self.values[iy, ix]
                    wr.writerow([f"{x:.9g}", f"{y:.9g}",
                                 f"{v.real:.12g}", f"{v.imag:.12g}"])
        return path


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
