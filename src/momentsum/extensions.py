"""Almost-holomorphic extensions off an interval.

The extension P_N(z) is the Taylor polynomial of order N built from jets at
the projection z* of z onto the interval; its dbar-defect measures how far
the jets are from analytic data and is controlled by the jet envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, JetUnavailable, StepTooLarge

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
