"""Coupling calculus in the cyclic-shift eigenbasis.

The magnetic-basis coupling coefficients are carried over to the joint
eigenbasis of the Casimir and the cyclic shift by phase transforms, one
per coupled space, each space using its own root of unity of order 2j+1
and its own label family alpha = -j*r + s.  This module builds the
transformed coupling tables, the two recoupling symbols derived from
them, their orthogonality and permutation laws, the substitution of the
symmetric symbol into the 9-j contraction, transformed tensor operators,
and the matrix-element factorization check that extracts reduced
elements.

Tables are dense ndarrays indexed by s labels and are memoized in the
package's one cache per (labels, r).  r is keyed by its exact rational
value (a float by its binary expansion), never within a tolerance,
because it is an input parameter rather than a measured quantity.

A tensor operator is one read-only stacked array of its spherical
components.  Its shift-labeled components are not stored: the transforms
are functions from stacked arrays to stacked arrays at the r they are
given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blas import identity_residual, one_thread
from .errors import InvalidArgumentError, UndeterminedReducedElementError
from .qarith import HalfInt, ToleranceRule, _as_fraction, alpha_value, halfint_range
from .report import Check, VerificationReport
from .su2 import AngularSpace, _expected_ladder, basis_transform_matrix, phase_matrix
from .wigner import _ninej_network, _ninej_triads, cg_block, clear_cache, default_table, ninej, threejm_block

__all__ = [
    "cg_ur_table",
    "cg_ur",
    "f_table",
    "fbar_table",
    "alpha_labels",
    "clear_cache",
    "verify_cg_ur_unitarity",
    "verify_cg_ur_interchange",
    "verify_f_interchange",
    "verify_fbar_orthogonality",
    "verify_fbar_permutation",
    "NinejSubstitution",
    "ninej_from_fbar",
    "TensorComponents",
    "identity_tensor",
    "angular_momentum_tensor",
    "tensor_transform",
    "tensor_transform_inverse",
    "verify_tensor_transform",
    "WignerEckartResult",
    "wigner_eckart_check",
    "verify_wigner_eckart",
]


def _validate_s(j: HalfInt, s, label: str) -> int:
    s = int(s)
    if s < 0 or s > j.twice:
        raise InvalidArgumentError(f"{label} must lie in 0..2j = {j.twice}, got {s}")
    return s


def alpha_labels(j, r) -> list[float]:
    """The 2j+1 labels alpha = -j*r + s, s ascending."""
    j = HalfInt.of(j)
    return [alpha_value(j, r, s) for s in range(j.twice + 1)]


# Multiply-adds of the product over a block's third axis above which that
# axis is contracted first.
_THIRD_AXIS_FIRST = 1 << 16


def _phase_transform(p1: np.ndarray, p2: np.ndarray, p3: np.ndarray, core: np.ndarray) -> np.ndarray:
    """einsum("am,bn,cp,mnp->abc"): one phase matrix applied along each axis of a block, on one BLAS thread.

    The contraction order is the one the tables have always had.  Up to
    _THIRD_AXIS_FIRST, numpy's path contracts the whole block.  Above it the
    third axis is contracted first, as one product, and numpy's path the
    rest; for some large blocks (2j1 = 8, 2j2 = 20, 2j = 18, say) numpy's
    path over the whole block would take another order and move entries by
    up to 7e-15.
    """
    d1, d2, d3 = core.shape
    with one_thread():
        if core.size * d3 <= _THIRD_AXIS_FIRST:
            return np.einsum("am,bn,cp,mnp->abc", p1, p2, p3, core, optimize=True)
        step = np.matmul(core.reshape(d1 * d2, d3), p3.T).reshape(d1, d2, d3)
        return np.einsum("am,bn,mnc->abc", p1, p2, step, optimize=True)


def cg_ur_table(j1, j2, j, r) -> np.ndarray:
    """Coupling coefficients between shift eigenbases, indexed [s1, s2, s].

    Entry (s1, s2, s) is the overlap of the coupled state labeled by
    (j, alpha_s) with the product of states (j1, alpha_s1) and
    (j2, alpha_s2), obtained by the triple phase transform of the
    magnetic-basis coefficients with the normalization
    [(2j1+1)(2j2+1)(2j+1)]^(-1/2).  Returned arrays are read-only and
    shared through the memo table.
    """
    j1, j2, j = HalfInt.of(j1), HalfInt.of(j2), HalfInt.of(j)
    r = _as_fraction(r)

    def build() -> np.ndarray:
        p1 = phase_matrix(j1, r, -1)
        p2 = phase_matrix(j2, r, -1)
        p = phase_matrix(j, r, +1)
        norm = 1.0 / math.sqrt((j1.twice + 1) * (j2.twice + 1) * (j.twice + 1))
        return norm * _phase_transform(p1, p2, p, cg_block(j1, j2, j))

    return default_table().get(("cg_ur", j1.twice, j2.twice, j.twice, r.numerator, r.denominator), build)


def cg_ur(j1, j2, s1, s2, j, s, r) -> complex:
    """Single transformed coupling coefficient; zero outside the triangle."""
    j1, j2, j = HalfInt.of(j1), HalfInt.of(j2), HalfInt.of(j)
    s1 = _validate_s(j1, s1, "s1")
    s2 = _validate_s(j2, s2, "s2")
    s = _validate_s(j, s, "s")
    return complex(cg_ur_table(j1, j2, j, r)[s1, s2, s])


def f_table(j1, j2, j3, r) -> np.ndarray:
    """First recoupling symbol, indexed [s1, s2, s3].

    Defined as (-1)^(2 j3) (2 j1 + 1)^(-1/2) times the conjugate of the
    transformed coupling coefficient that couples (j2, j3) to j1, with
    the alpha labels redistributed so the first slot carries j1.
    """
    j1, j2, j3 = HalfInt.of(j1), HalfInt.of(j2), HalfInt.of(j3)
    r = _as_fraction(r)

    def build() -> np.ndarray:
        base = cg_ur_table(j2, j3, j1, r)  # [s2, s3, s1]
        sign = -1.0 if j3.twice % 2 else 1.0
        return sign / math.sqrt(j1.twice + 1) * np.conj(np.transpose(base, (2, 0, 1)))

    return default_table().get(("f", j1.twice, j2.twice, j3.twice, r.numerator, r.denominator), build)


def fbar_table(j1, j2, j3, r) -> np.ndarray:
    """Symmetric recoupling symbol, indexed [s1, s2, s3].

    The 3-jm block is contracted with one conjugated phase transform per
    column and normalized by [(2j1+1)(2j2+1)(2j3+1)]^(-1/2).  The result
    inherits the 3-jm permutation signs column-wise and obeys the
    conjugation law fbar* = (-1)^(j1+j2+j3) fbar.
    """
    j1, j2, j3 = HalfInt.of(j1), HalfInt.of(j2), HalfInt.of(j3)
    r = _as_fraction(r)

    def build() -> np.ndarray:
        p1 = phase_matrix(j1, r, -1)
        p2 = phase_matrix(j2, r, -1)
        p3 = phase_matrix(j3, r, -1)
        core = threejm_block(j1, j2, j3)
        norm = 1.0 / math.sqrt((j1.twice + 1) * (j2.twice + 1) * (j3.twice + 1))
        return norm * _phase_transform(p1, p2, p3, core)

    return default_table().get(("fbar", j1.twice, j2.twice, j3.twice, r.numerator, r.denominator), build)


def _stacked_residuals(j1, j2, first, second=None) -> tuple[float, float]:
    """Unitarity residuals of one pair's tables stacked over the coupled spin.

    first(j) returns a [s1, s2, s] table for each j in |j1-j2|..j1+j2; the
    tables are stacked as the columns of one (d1*d2, sum(2j+1)) matrix M, and
    likewise M' from second (default: first).  Returns max |M^H M' - I| and
    max |M M'^H - I|: orthonormal columns and the resolution of the identity.
    """
    def stack(table) -> np.ndarray:
        blocks = [table(j).reshape(-1, j.twice + 1) for j in halfint_range(abs(j1 - j2), j1 + j2)]
        return np.concatenate(blocks, axis=1)

    left = stack(first)
    right = left if second is None else stack(second)
    return identity_residual(left.conj().T, right), identity_residual(left, right.conj().T)


def verify_cg_ur_unitarity(j1, j2, r, tol: ToleranceRule | None = None) -> VerificationReport:
    """The block matrix [(s1 s2), (j s)] of coupling values must be unitary."""
    if tol is None:
        tol = ToleranceRule()
    j1, j2 = HalfInt.of(j1), HalfInt.of(j2)
    columns, rows = _stacked_residuals(j1, j2, lambda j: cg_ur_table(j1, j2, j, r))
    report = VerificationReport(suite="cg-ur-unitarity", k=None, r=float(r))
    report.add(Check.residual_check("columns_orthonormal", columns, tol.abs_tol))
    report.add(Check.residual_check("identity_resolution", rows, tol.abs_tol))
    return report


def verify_cg_ur_interchange(j1, j2, r, tol: ToleranceRule | None = None) -> VerificationReport:
    """Swapping the two coupled spaces matches the magnetic-basis law.

    The magnetic-basis coefficients pick up (-1)^(j1+j2-j) under the
    interchange; the phase transforms factor through column-wise, so the
    transformed tables must satisfy the same sign rule with the swapped
    s labels.  The sign is checked by recomputation here, not assumed.
    """
    if tol is None:
        tol = ToleranceRule()
    j1, j2 = HalfInt.of(j1), HalfInt.of(j2)
    report = VerificationReport(suite="cg-ur-interchange", k=None, r=float(r))
    for j in halfint_range(abs(j1 - j2), j1 + j2):
        direct = cg_ur_table(j1, j2, j, r)
        swapped = cg_ur_table(j2, j1, j, r)
        sign = -1.0 if ((j1.twice + j2.twice - j.twice) // 2) % 2 else 1.0
        residual = float(np.max(np.abs(np.transpose(swapped, (1, 0, 2)) - sign * direct)))
        report.add(Check.residual_check(f"interchange_2j_{j.twice}", residual, tol.abs_tol))
    return report


def verify_f_interchange(j1, j2, j3, r, tol: ToleranceRule | None = None) -> VerificationReport:
    """Interchanging the last two columns scales the first symbol by (-1)^(j1+j2+j3)."""
    if tol is None:
        tol = ToleranceRule()
    j1, j2, j3 = HalfInt.of(j1), HalfInt.of(j2), HalfInt.of(j3)
    direct = f_table(j1, j2, j3, r)
    swapped = f_table(j1, j3, j2, r)
    sign = -1.0 if ((j1.twice + j2.twice + j3.twice) // 2) % 2 else 1.0
    residual = float(np.max(np.abs(np.transpose(swapped, (0, 2, 1)) - sign * direct)))
    report = VerificationReport(suite="f-interchange", k=None, r=float(r))
    report.add(Check.residual_check("last_two_columns", residual, tol.abs_tol))
    return report


def verify_fbar_orthogonality(
    j1, j2, r, tol: ToleranceRule | None = None, *, mismatched_r=None
) -> VerificationReport:
    """Both orthogonality sums of the symmetric symbol.

    Summing conj(fbar) * fbar over the third column, weighted by 2j3+1,
    must resolve the identity on the (s1, s2) pairs; summing over the
    first two columns must give delta(j3, j3') delta(s3, s3')/(2j3+1).
    Together they say that the tables scaled by sqrt(2j3+1) and stacked
    over j3 form a unitary matrix, which is how both are checked.  The
    symbols at the first label beyond the triangle range must vanish; that
    is part of the pair sums.  The family parameter has to be one and the
    same in every factor; mismatched_r substitutes a different value into
    the second factor as a negative control, which makes the checks fail.
    """
    if tol is None:
        tol = ToleranceRule()
    j1, j2 = HalfInt.of(j1), HalfInt.of(j2)
    r2 = r if mismatched_r is None else mismatched_r

    def scaled(rv):
        return lambda j3: math.sqrt(j3.twice + 1) * fbar_table(j1, j2, j3, rv)

    pairs, third = _stacked_residuals(j1, j2, scaled(r), None if mismatched_r is None else scaled(r2))
    beyond = max(float(np.max(np.abs(fbar_table(j1, j2, j1 + j2 + 1, rv)))) for rv in (r, r2))
    report = VerificationReport(suite="fbar-orthogonality", k=None, r=float(r))
    report.add(Check.residual_check("third_column_sum_resolves_identity", third, tol.abs_tol))
    report.add(Check.residual_check("pair_sum_orthogonality", max(pairs, beyond), tol.abs_tol))
    return report


_COLUMN_PERMUTATIONS = [
    ((0, 1, 2), False),
    ((1, 2, 0), False),
    ((2, 0, 1), False),
    ((1, 0, 2), True),
    ((0, 2, 1), True),
    ((2, 1, 0), True),
]


def verify_fbar_permutation(j1, j2, j3, r, tol: ToleranceRule | None = None) -> VerificationReport:
    """Column permutations and complex conjugation of the symmetric symbol.

    Even permutations leave every value fixed; odd permutations and
    conjugation both scale by (-1)^(j1+j2+j3).  The table of the permuted
    spins is compared, over all label triples at once, with the base table
    whose axes are permuted alike.
    """
    if tol is None:
        tol = ToleranceRule()
    js = (HalfInt.of(j1), HalfInt.of(j2), HalfInt.of(j3))
    base = fbar_table(*js, r)
    odd_sign = -1.0 if ((js[0].twice + js[1].twice + js[2].twice) // 2) % 2 else 1.0
    report = VerificationReport(suite="fbar-permutation", k=None, r=float(r))
    for perm, is_odd in _COLUMN_PERMUTATIONS:
        permuted = fbar_table(js[perm[0]], js[perm[1]], js[perm[2]], r)
        sign = odd_sign if is_odd else 1.0
        worst = float(np.max(np.abs(permuted - sign * np.transpose(base, perm))))
        tag = "".join(str(p + 1) for p in perm)
        kind = "odd" if is_odd else "even"
        report.add(Check.residual_check(f"{kind}_permutation_{tag}", worst, tol.abs_tol))
    conj_residual = float(np.max(np.abs(np.conj(base) - odd_sign * base)))
    report.add(Check.residual_check("conjugation_law", conj_residual, tol.abs_tol))
    return report


@dataclass(frozen=True)
class NinejSubstitution:
    """Outcome of replacing the six 3-jm blocks by symmetric symbols."""

    value: complex
    reference: float
    residual: float


def ninej_from_fbar(j1, j2, j3, j4, j5, j6, j7, j8, j9, r) -> NinejSubstitution:
    """9-j evaluation with symmetric symbols in place of the 3-jm blocks.

    The three row symbols enter as they are and the three column symbols
    enter conjugated, so that each shift-basis label is paired with its
    own conjugate and the family phases cancel identically.  The result
    is compared against the magnetic-basis 9-j contraction; the residual
    is reported, never corrected.  An array with a triad that breaks the
    triangle rule is zero on both sides, and no table is built for it; a
    negative spin raises InvalidArgumentError.
    """
    js = [HalfInt.of(x) for x in (j1, j2, j3, j4, j5, j6, j7, j8, j9)]
    r = _as_fraction(r)
    triads = _ninej_triads([j.twice for j in js])
    if triads is None:
        return NinejSubstitution(value=0j, reference=0.0, residual=0.0)
    tables = [fbar_table(*(HalfInt(t) for t in triad), r) for triad in triads]
    value = complex(_ninej_network(tables[:3] + [np.conj(table) for table in tables[3:]]))
    reference = ninej(*js)
    return NinejSubstitution(value=value, reference=reference, residual=abs(value - reference))


@dataclass(frozen=True, eq=False)
class TensorComponents:
    """Irreducible tensor family on a pair of angular spaces.

    spherical is one read-only complex array of shape (2*rank+1, bra.dim,
    ket.dim): spherical[i] is the matrix of the component with magnetic
    label m = -rank + i, mapping the ket space into the bra space.  Any
    array-like of that shape is accepted and copied.
    """

    rank: HalfInt
    bra: AngularSpace
    ket: AngularSpace
    spherical: np.ndarray

    def __post_init__(self):
        rank = HalfInt.of(self.rank)
        object.__setattr__(self, "rank", rank)
        if rank.twice < 0:
            raise InvalidArgumentError("tensor rank must be nonnegative")
        shape = (rank.twice + 1, self.bra.dim, self.ket.dim)
        try:
            spherical = np.array(self.spherical, dtype=complex)
        except ValueError:
            raise InvalidArgumentError(f"components do not stack to the shape {shape}") from None
        if spherical.shape != shape:
            raise InvalidArgumentError(f"components of shape {spherical.shape} do not match {shape}")
        spherical.setflags(write=False)
        object.__setattr__(self, "spherical", spherical)


def identity_tensor(j) -> TensorComponents:
    """The rank-0 tensor whose single component is the identity."""
    space = AngularSpace(HalfInt.of(j))
    return TensorComponents(rank=HalfInt(0), bra=space, ket=space, spherical=[np.eye(space.dim)])


def angular_momentum_tensor(j, rank: int) -> TensorComponents:
    """Irreducible tensors built out of the angular momentum itself.

    Rank 1 is the spherical vector (J-/sqrt2, J3, -J+/sqrt2); higher
    integer ranks come from repeated coupling with that vector, weighted by
    one magnetic-basis cg block per step.  Components vanish identically
    once the rank exceeds 2j.
    """
    space = AngularSpace(HalfInt.of(j))
    if not isinstance(rank, int) or rank < 1:
        raise InvalidArgumentError(f"tensor rank must be a positive integer, got {rank!r}")
    jminus = _expected_ladder(space, -1) / math.sqrt(2.0)
    jz = np.diag([float(m) for m in space.m_values()]).astype(complex)
    vector = np.stack([jminus, jz, -_expected_ladder(space, +1) / math.sqrt(2.0)])
    parts = vector
    for target in range(2, rank + 1):
        weights = cg_block(target - 1, 1, target)  # [q1 + target - 1, q2 + 1, q + target]
        built = np.zeros((2 * target + 1, space.dim, space.dim), dtype=complex)
        for iq, q in enumerate(range(-target, target + 1)):
            for i1, q1 in enumerate(range(-(target - 1), target)):
                q2 = q - q1
                if abs(q2) > 1:
                    continue
                weight = weights[i1, q2 + 1, iq]
                if weight != 0.0:
                    built[iq] += weight * (parts[i1] @ vector[q2 + 1])
        parts = built
    return TensorComponents(rank=HalfInt.of(rank), bra=space, ket=space, spherical=parts)


def tensor_transform(t: TensorComponents, r) -> np.ndarray:
    """The shift-labeled components of t at r, stacked like t.spherical.

    Component s is (2k+1)^(-1/2) sum_m exp(2 pi i alpha_s m/(2k+1)) T_m,
    the same unitary map that carries the state basis over.
    """
    return np.einsum("ms,mij->sij", basis_transform_matrix(t.rank, r), t.spherical)


def tensor_transform_inverse(stack: np.ndarray, rank, r) -> np.ndarray:
    """The inverse of tensor_transform: the spherical components of a rank-`rank` tensor from its shift-labeled ones at r."""
    return np.einsum("ms,sij->mij", np.conj(basis_transform_matrix(rank, r)), stack)


def verify_tensor_transform(j, rank: int, r, tol: ToleranceRule | None = None) -> VerificationReport:
    """Unitarity round trip and the period-two relabeling of the component map."""
    if tol is None:
        tol = ToleranceRule()
    tensor = identity_tensor(j) if rank == 0 else angular_momentum_tensor(j, rank)
    moved = tensor_transform(tensor, r)
    back = tensor_transform_inverse(moved, tensor.rank, r)
    worst = float(np.max(np.abs(tensor.spherical - back)))
    report = VerificationReport(suite="tensor-transform", k=None, r=float(r))
    report.add(Check.residual_check("round_trip", worst, tol.abs_tol))

    count = tensor.rank.twice + 1
    mix = basis_transform_matrix(tensor.rank, r)
    gram = mix.conj().T @ mix
    report.add(
        Check.residual_check(
            "component_map_unitary", float(np.max(np.abs(gram - np.eye(count)))), tol.abs_tol
        )
    )

    if tensor.rank.is_integer:
        # stepped exactly: in floating point r + 2.0 rounds back to r once |r| >= 2**54
        shifted = tensor_transform(tensor, _as_fraction(r) + 2)
        cyclic = float(np.max(np.abs(shifted - np.roll(moved, -1, axis=0))))
        report.add(Check.residual_check("family_shift_relabels_cyclically", cyclic, tol.abs_tol))
    return report


@dataclass(frozen=True)
class WignerEckartResult:
    """Reduced matrix element and factorization quality."""

    reduced: complex
    max_residual: float
    ratio_spread: float


# Symbol moduli at or below this take no part in the ratios of wigner_eckart_check.
_SYMBOL_FLOOR = 1e-8


def wigner_eckart_check(t: TensorComponents, r) -> WignerEckartResult:
    """Factorize shift-basis matrix elements through the first symbol.

    Every matrix element of a transformed component between shift
    eigenstates must equal one common reduced element times the
    corresponding first-symbol value.  The reduced element is taken as
    the median of the elementwise ratios over entries whose symbol
    modulus exceeds _SYMBOL_FLOOR; when no entry qualifies the element is
    undetermined and an error is raised.  The components are transformed
    at r by tensor_transform.
    """
    v1 = basis_transform_matrix(t.bra.j, r)
    v2 = basis_transform_matrix(t.ket.j, r)
    elements = np.einsum("ma,xmn,nb->axb", np.conj(v1), tensor_transform(t, r), v2)

    symbols = f_table(t.bra.j, t.ket.j, t.rank, r)  # [s1, s2, s_k]
    aligned = np.transpose(symbols, (0, 2, 1))  # -> [s1, s_k, s2]
    mask = np.abs(aligned) > _SYMBOL_FLOOR
    if not np.any(mask):
        raise UndeterminedReducedElementError(
            "every symbol value vanishes; the reduced element is undetermined"
        )
    ratios = elements[mask] / aligned[mask]
    reduced = complex(np.median(ratios.real), np.median(ratios.imag))
    spread = float(np.max(np.abs(ratios - reduced)))
    residual = float(np.max(np.abs(elements - reduced * aligned)))
    return WignerEckartResult(reduced=reduced, max_residual=residual, ratio_spread=spread)


def verify_wigner_eckart(
    j, ranks, r, tol: ToleranceRule | None = None
) -> VerificationReport:
    """Factorization checks for tensors built from the angular momentum."""
    if tol is None:
        tol = ToleranceRule()
    j = HalfInt.of(j)
    report = VerificationReport(suite="wigner-eckart", k=None, r=float(r))
    for rank in ranks:
        rank = int(rank)
        tensor = identity_tensor(j) if rank == 0 else angular_momentum_tensor(j, rank)
        result = wigner_eckart_check(tensor, r)
        report.add(
            Check.residual_check(f"rank_{rank}_ratio_spread", result.ratio_spread, tol.abs_tol)
        )
        report.add(
            Check.residual_check(f"rank_{rank}_factorization", result.max_residual, tol.abs_tol)
        )
        if rank == 0:
            closed = abs(result.reduced - math.sqrt(j.twice + 1))
            report.add(Check.residual_check("scalar_reduced_closed_form", closed, tol.abs_tol))
    return report
