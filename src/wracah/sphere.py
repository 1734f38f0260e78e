"""Shift-family eigenfunctions realized on the unit sphere.

For integer angular momentum the shift-labeled states become square
integrable functions: phase-weighted mixtures of spherical harmonics of a
single degree.  The harmonics of a degree are formed in one routine, for
points and grids alike, from one table of a fully normalized associated
Legendre recurrence (the sign convention of the coupling modules folded
in), and orthonormality statements are checked with a
Gauss-Legendre times uniform-azimuth product quadrature that is exact at
the polynomial degrees involved.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, UnsupportedLimitError
from .qarith import ToleranceRule, _as_fraction, check_label
from .report import Check, VerificationReport
from .su2 import basis_transform_matrix

__all__ = [
    "SphericalPoint",
    "QuadratureGrid",
    "spherical_harmonic",
    "harmonic_grid_values",
    "y_r_eigenfunction",
    "y_r_grid_values",
    "y_r_grid_member",
    "verify_sphere",
]


@dataclass(frozen=True)
class SphericalPoint:
    """Colatitude theta in [0, pi] and azimuth phi in [0, 2*pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= math.pi):
            raise InvalidArgumentError(f"theta must lie in [0, pi], got {self.theta!r}")
        if not (0.0 <= self.phi < 2.0 * math.pi):
            raise InvalidArgumentError(f"phi must lie in [0, 2*pi), got {self.phi!r}")


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre nodes in cos(theta) crossed with uniform azimuths.

    Exact for integrands that are polynomials of degree < 2*n_theta in
    cos(theta) times azimuthal modes |m| < n_phi, which covers products
    of two harmonics when n_theta >= l_max + 1 and n_phi >= 2*l_max + 1.
    """

    n_theta: int
    n_phi: int

    def __post_init__(self):
        if not isinstance(self.n_theta, numbers.Integral) or self.n_theta < 1:
            raise InvalidArgumentError("n_theta must be a positive integer")
        if not isinstance(self.n_phi, numbers.Integral) or self.n_phi < 1:
            raise InvalidArgumentError("n_phi must be a positive integer")
        nodes, weights = np.polynomial.legendre.leggauss(int(self.n_theta))
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(
            self, "_phis", 2.0 * math.pi * np.arange(int(self.n_phi)) / int(self.n_phi)
        )

    @property
    def cos_thetas(self) -> np.ndarray:
        return self._nodes

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def thetas(self) -> np.ndarray:
        return np.arccos(self._nodes)

    @property
    def phis(self) -> np.ndarray:
        return self._phis

    def integrate(self, values: np.ndarray) -> complex:
        """Surface integral of a sampled function, values shaped (n_theta, n_phi)."""
        if values.shape != (self.n_theta, self.n_phi):
            raise InvalidArgumentError(
                f"expected samples of shape {(self.n_theta, self.n_phi)}, got {values.shape}"
            )
        return complex(np.sum(values * self._weights[:, None]) * (2.0 * math.pi / self.n_phi))

    def gram(self, families: np.ndarray) -> np.ndarray:
        """Pairwise inner products of sampled functions, shaped (count, n_theta, n_phi)."""
        weighted = families * self._weights[None, :, None]
        return np.einsum("atp,btp->ab", np.conj(families), weighted) * (
            2.0 * math.pi / self.n_phi
        )


def _legendre_block(l_max: int, x: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre values P[l, m, node] for 0 <= m <= l.

    Normalized so that the degree-l, order-m row integrates to 1/(2*pi)
    against itself over cos(theta), i.e. the harmonic normalization with
    the alternating sign built into the diagonal recurrence.
    """
    x = np.asarray(x, dtype=float)
    sin = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    table = np.zeros((l_max + 1, l_max + 1) + x.shape)
    table[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, l_max + 1):
        table[m, m] = -math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin * table[m - 1, m - 1]
    for m in range(l_max):
        table[m + 1, m] = math.sqrt(2.0 * m + 3.0) * x * table[m, m]
    for m in range(l_max + 1):
        for l in range(m + 2, l_max + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            table[l, m] = a * (x * table[l - 1, m] - b * table[l - 2, m])
    return table


def _check_lm(l, m) -> tuple[int, int]:
    if not isinstance(l, numbers.Integral) or isinstance(l, bool) or l < 0:
        raise InvalidArgumentError(f"degree must be an integer >= 0, got {l!r}")
    if not isinstance(m, numbers.Integral) or isinstance(m, bool):
        raise InvalidArgumentError(f"order must be an integer, got {m!r}")
    l, m = int(l), int(m)
    if abs(m) > l:
        raise InvalidArgumentError(f"|m| = {abs(m)} exceeds the degree {l}")
    return l, m


def _degree_harmonics(l: int, block: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """The 2l+1 harmonics of degree l, m ascending, shaped (2l+1, nodes, n_phi).

    block is a _legendre_block table of degree >= l on the nodes.  Negative
    orders come from the reflection Y(l, -m) = (-1)^m conj(Y(l, m)).
    """
    out = np.empty((2 * l + 1, block.shape[2], phis.shape[0]), dtype=complex)
    for m in range(l + 1):
        positive = block[l, m][:, None] * np.exp(1j * m * phis)[None, :]
        out[l + m] = positive
        if m > 0:
            out[l - m] = (-1.0) ** m * np.conj(positive)
    return out


def spherical_harmonic(l, m, p: SphericalPoint) -> complex:
    """Orthonormal surface harmonic of degree l and order m at a point."""
    l, m = _check_lm(l, m)
    block = _legendre_block(l, np.array([math.cos(p.theta)]))
    return complex(_degree_harmonics(l, block, np.array([p.phi]))[l + m, 0, 0])


def harmonic_grid_values(l_max: int, grid: QuadratureGrid) -> dict[tuple[int, int], np.ndarray]:
    """Samples of every harmonic with degree <= l_max on the grid nodes."""
    if not isinstance(l_max, numbers.Integral) or l_max < 0:
        raise InvalidArgumentError("l_max must be a nonnegative integer")
    l_max = int(l_max)
    block = _legendre_block(l_max, grid.cos_thetas)
    out: dict[tuple[int, int], np.ndarray] = {}
    for l in range(l_max + 1):
        for m, values in zip(range(-l, l + 1), _degree_harmonics(l, block, grid.phis)):
            out[(l, m)] = values
    return out


def _require_degree(l) -> int:
    if not isinstance(l, numbers.Integral) or isinstance(l, bool) or l < 1:
        raise UnsupportedLimitError(
            f"the shift family needs an integer degree l >= 1, got {l!r}"
        )
    return int(l)


def _family(l: int, r, cos_thetas: np.ndarray, phis: np.ndarray, members=slice(None)) -> np.ndarray:
    """The members (a slice of s) of the family on the nodes crossed with the azimuths, shaped (s, nodes, n_phi).

    Each member contracts its own column of the transform with the
    harmonics, so a slice has the bits of those members of the whole family.
    """
    stack = _degree_harmonics(l, _legendre_block(l, cos_thetas), phis)
    return np.einsum("ms,mtp->stp", basis_transform_matrix(l, r)[:, members], stack)


def _member(l, s: int, r, cos_thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    l = _require_degree(l)
    s = check_label(l, s)
    return _family(l, r, cos_thetas, phis, slice(s, s + 1))[0]


def y_r_eigenfunction(l, s: int, r, p: SphericalPoint) -> complex:
    """Shift-family eigenfunction of degree l and label s at a point.

    The value is (2l+1)^(-1/2) sum_m exp(2*pi*i*alpha_s*m/(2l+1)) Y(l, m)
    with alpha_s = -l*r + s.
    """
    return complex(_member(l, s, r, np.array([math.cos(p.theta)]), np.array([p.phi]))[0, 0])


def y_r_grid_member(l, s: int, r, grid: QuadratureGrid) -> np.ndarray:
    """Family member s sampled on the grid, shaped (n_theta, n_phi).

    The same bits as y_r_grid_values(l, r, grid)[s], without the other 2l
    members.
    """
    return _member(l, s, r, grid.cos_thetas, grid.phis)


def y_r_grid_values(l, r, grid: QuadratureGrid) -> np.ndarray:
    """All 2l+1 family members sampled on the grid, shaped (s, n_theta, n_phi)."""
    return _family(_require_degree(l), r, grid.cos_thetas, grid.phis)


def verify_sphere(
    l_max: int = 8,
    family_l_max: int = 4,
    rs=(0.0, 1.0),
    tol: ToleranceRule | None = None,
) -> VerificationReport:
    """Quadrature checks of the harmonic family and its shift-labeled mixtures."""
    if tol is None:
        tol = ToleranceRule()
    l_max = int(l_max)
    family_l_max = int(family_l_max)
    report = VerificationReport(suite="sphere", k=None, r=None)

    grid = QuadratureGrid(l_max + 1, 2 * l_max + 1)
    harmonics = harmonic_grid_values(l_max, grid)
    keys = sorted(harmonics.keys())
    stack = np.stack([harmonics[key] for key in keys])
    gram = grid.gram(stack)
    report.add(
        Check.residual_check(
            "harmonic_orthonormality",
            float(np.max(np.abs(gram - np.eye(len(keys))))),
            tol.abs_tol,
        )
    )

    sum_rule = 0.0
    for l in range(l_max + 1):
        density = sum(np.abs(harmonics[(l, m)]) ** 2 for m in range(-l, l + 1))
        target = (2.0 * l + 1.0) / (4.0 * math.pi)
        sum_rule = max(sum_rule, float(np.max(np.abs(density - target))))
    report.add(Check.residual_check("pointwise_density_sum_rule", sum_rule, tol.abs_tol))

    norm_grid = QuadratureGrid(16, 9)
    sample = harmonic_grid_values(2, norm_grid)[(2, 1)]
    unit = abs(norm_grid.integrate(np.abs(sample) ** 2) - 1.0)
    report.add(Check.residual_check("unit_norm_degree2_order1", float(unit), tol.abs_tol))

    for l in range(1, family_l_max + 1):
        fam_grid = QuadratureGrid(l + 1, 2 * l + 1)
        for r in rs:
            family = y_r_grid_values(l, r, fam_grid)
            gram = fam_grid.gram(family)
            report.add(
                Check.residual_check(
                    f"family_orthonormal_l_{l}_r_{float(r)}",
                    float(np.max(np.abs(gram - np.eye(2 * l + 1)))),
                    tol.abs_tol,
                )
            )

    l = min(2, family_l_max) if family_l_max >= 1 else 1
    shift_grid = QuadratureGrid(l + 1, 2 * l + 1)
    base = y_r_grid_values(l, rs[0], shift_grid)
    moved = y_r_grid_values(l, _as_fraction(rs[0]) + 2, shift_grid)  # exact: r + 2.0 rounds to r from 2**54
    count = 2 * l + 1
    cyclic = max(
        float(np.max(np.abs(moved[s] - base[(s + 1) % count]))) for s in range(count)
    )
    report.add(Check.residual_check("family_shift_relabels_cyclically", cyclic, tol.abs_tol))
    return report
