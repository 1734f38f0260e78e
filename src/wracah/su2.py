"""su(2) from the two deformed modes via a polar pair of operators.

The Hermitean modulus H = sqrt(N1(N2+1)) and a unitary cyclic shift built
from single-step ladders plus an order-(k-1) wraparound term generate the
angular momentum algebra on the subspace of constant total occupation
n1 + n2 = k - 1, with 2j = k - 1.  The shift depends on a real family
parameter r through the wrap phase angle pi*(k-1)*r; its eigenbasis is a
phase-weighted discrete Fourier transform of the magnetic basis and is the
common eigenbasis of the Casimir and the shift.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFactorialError,
    InvalidArgumentError,
    SubspaceLeakageError,
    UnsupportedLimitError,
)
from .fock import (
    FockSpace,
    Operator,
    QuonOps,
    _adjoint,
    _monomial_sum,
    _product,
    _spectral_norms,
    commutator,
    quon_operators,
)
from .qarith import (
    HalfInt,
    ToleranceRule,
    _as_fraction,
    _ratio,
    _require_order,
    _turn_phase,
    alpha_phase,
    alpha_value,
    halfint_range,
    q_factorial,
    q_factorial_is_degenerate,
)
from .report import Check, VerificationReport
from .serialize import complex_record, matrix_to_json_entries
from .wigner import default_table

__all__ = [
    "ShiftParams",
    "AngularSpace",
    "Su2Ops",
    "ShiftEigenbasis",
    "modulus_op",
    "shift_op",
    "restrict_to_angular",
    "angular_indices",
    "angular_momentum_ops",
    "verify_su2",
    "basis_transform_matrix",
    "phase_matrix",
    "shift_eigenvalue",
    "shift_eigenbasis",
    "verify_shift_eigenbasis",
    "clock_shift_monomial",
    "verify_sine_algebra",
]


@dataclass(frozen=True)
class ShiftParams:
    """Order k >= 2 and the real wrap-family parameter r."""

    k: int
    r: float

    def __post_init__(self):
        _require_order(self.k)
        if not isinstance(self.r, numbers.Real) or not math.isfinite(float(self.r)):
            raise InvalidArgumentError(f"family parameter r must be a finite real, got {self.r!r}")

    @property
    def j(self) -> HalfInt:
        return HalfInt(self.k - 1)

    @property
    def wrap_phase(self) -> complex:
        """exp(i pi (k-1) r), from the exact turn (k-1) p / 2q of r = p/q."""
        p, q = _ratio(self.r)
        return _turn_phase(p * (self.k - 1), 2 * q)

    @property
    def half_wrap_phase(self) -> complex:
        p, q = _ratio(self.r)
        return _turn_phase(p * (self.k - 1), 4 * q)


@dataclass(frozen=True)
class AngularSpace:
    """Spin-j space spanned by |j m> with m ascending from -j to j."""

    j: HalfInt

    def __post_init__(self):
        if not isinstance(self.j, HalfInt):
            object.__setattr__(self, "j", HalfInt.of(self.j))
        if self.j.twice < 0:
            raise InvalidArgumentError("j must be nonnegative")

    @property
    def dim(self) -> int:
        return self.j.twice + 1

    @property
    def k(self) -> int:
        return self.j.twice + 1

    def m_values(self) -> list[HalfInt]:
        return halfint_range(-self.j, self.j)


def angular_indices(k: int) -> list[int]:
    """Fock indices of the n1 + n2 = k - 1 states, ordered by ascending m."""
    space = FockSpace(_require_order(k))
    return [space.index(n1, space.k - 1 - n1) for n1 in range(space.k)]


def modulus_op(k: int) -> Operator:
    """The Hermitean modulus sqrt(N1 (N2 + 1)) of the ladder polar splitting."""
    space = FockSpace(_require_order(k))
    diag = [math.sqrt(n1 * (n2 + 1)) for n1 in range(space.k) for n2 in range(space.k)]
    return Operator.diagonal(space, diag)


def shift_op(params: ShiftParams) -> Operator:
    """Unitary cyclic shift: one bracket per mode, each a single-step ladder
    plus a phased order-(k-1) wraparound divided by [k-1]!."""
    return _shift_family(quon_operators(params.k))(params)


def _shift_family(ops: QuonOps):
    """The shift as a function of its parameters over one quon algebra.

    Only the wrap phase depends on r, so the two order-(k-1) wrap powers
    are built once and every family member reuses them.
    """
    k = ops.space.k
    if q_factorial_is_degenerate(k - 1, k):
        raise DegenerateFactorialError(f"[{k - 1}]! vanishes at order {k}")
    fact = q_factorial(k - 1, k)
    power1 = ops.lower1.power(k - 1)
    power2 = ops.raise2.power(k - 1)

    def shift(params: ShiftParams) -> Operator:
        scale = params.half_wrap_phase / fact
        return (ops.raise1 + power1 * scale) @ (ops.lower2 + power2 * scale)

    return shift


def restrict_to_angular(op: Operator, k: int | None = None) -> Operator:
    """Project onto the n1 + n2 = k - 1 subspace, refusing leaky operators."""
    if not isinstance(op.space, FockSpace):
        raise InvalidArgumentError("restriction expects an operator on a Fock space")
    if k is None:
        k = op.space.k
    elif k != op.space.k:
        raise InvalidArgumentError(f"order {k} does not match the operator space order {op.space.k}")
    tol = ToleranceRule.for_order(k)
    idx = np.array(angular_indices(k))
    position = np.full(op.space.dim, -1)
    position[idx] = np.arange(k)
    rows = position[op.target[idx]]
    weight = op.weight[idx]
    inside = rows >= 0
    worst = float(np.max(np.abs(weight[~inside]), initial=0.0))
    if worst > tol.abs_tol:
        raise SubspaceLeakageError(
            f"column weight {worst:.3e} escapes the angular subspace (tol {tol.abs_tol:.1e})"
        )
    rows = np.where(inside, rows, np.arange(k))
    return Operator(AngularSpace(HalfInt(k - 1)), rows, np.where(inside, weight, 0))


@dataclass(frozen=True)
class Su2Ops:
    """Ladder triple on the angular subspace."""

    space: AngularSpace
    plus: Operator
    minus: Operator
    z: Operator

    def casimir(self) -> Operator:
        return 0.5 * (self.plus @ self.minus + self.minus @ self.plus) + self.z @ self.z


def angular_momentum_ops(params: ShiftParams) -> Su2Ops:
    """J+ = H U, J- = U* H, J3 = (N1 - N2)/2, all restricted."""
    ops = quon_operators(params.k)
    return _ladders(ops, modulus_op(params.k), _shift_family(ops)(params))


def _ladders(ops: QuonOps, h: Operator, u: Operator) -> Su2Ops:
    k = ops.space.k
    plus = restrict_to_angular(h @ u, k)
    minus = restrict_to_angular(u.adjoint() @ h, k)
    z = restrict_to_angular((ops.number1 - ops.number2) * 0.5, k)
    return Su2Ops(space=AngularSpace(HalfInt(k - 1)), plus=plus, minus=minus, z=z)


def _expected_ladder(space: AngularSpace, sign: int) -> np.ndarray:
    j = float(space.j)
    ms = [float(m) for m in space.m_values()]
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for i, m in enumerate(ms):
        target = i + sign
        if 0 <= target < space.dim:
            mat[target, i] = math.sqrt((j - sign * m) * (j + sign * m + 1))
    return mat


def _shift_action_residuals(u: Operator, half: complex, wrap: complex) -> dict[str, float]:
    """Largest deviation of the shift from its literal action, per column family.

    Column (n1, n2) must hold one entry: interior steps go to (n1+1, n2-1)
    with weight 1, wrapping mode 1 goes to (0, n2-1) and wrapping mode 2 to
    (n1+1, k-1) with half the wrap phase, the double wrap goes to (0, k-1)
    with the full one.  A column's deviation is |weight - value| when its
    entry sits in the expected row, else the larger of the two moduli.
    Moduli come from np.hypot, which rounds as Python's abs of a complex
    does; np.abs of a complex array can differ in the last bit.
    """
    k = u.space.k
    n1, n2 = np.divmod(np.arange(k * k), k)
    wraps1, wraps2 = n1 == k - 1, n2 == 0
    row = np.where(wraps1, 0, n1 + 1) * k + np.where(wraps2, k - 1, n2 - 1)
    value = np.where(wraps1 & wraps2, wrap, np.where(wraps1 | wraps2, half, 1.0 + 0j))
    got = u.weight
    diff = got - value
    deviation = np.where(
        u.target == row,
        np.hypot(diff.real, diff.imag),
        np.maximum(np.hypot(got.real, got.imag), np.hypot(value.real, value.imag)),
    )
    families = {
        "interior_shift_action": ~wraps1 & ~wraps2,
        "mode1_wrap_action": wraps1 & ~wraps2,
        "mode2_wrap_action": ~wraps1 & wraps2,
        "double_wrap_action": wraps1 & wraps2,
    }
    return {name: float(np.max(deviation[mask], initial=0.0)) for name, mask in families.items()}


def verify_su2(
    params: ShiftParams,
    tol: ToleranceRule | None = None,
    *,
    seed: int = 0,
) -> VerificationReport:
    """Residuals for the polar construction on the angular subspace.

    Covers the literal shift action on every column family (interior
    steps, the two phased single-mode wraps, the phased double wrap),
    unitarity and monomial structure of the shift, Hermitecity
    of the modulus, the su(2) commutators and ladder matrix elements, the
    Casimir identity against H^2 + J3^2 - J3, cyclicity of the shift, and
    three family members, drawn with `seed`, whose shifts must not commute.
    One quon algebra serves every operator, the sampled shifts included.
    """
    k = params.k
    if tol is None:
        tol = ToleranceRule.for_order(k)
    report = VerificationReport(suite="su2-polar", k=k, r=float(params.r))
    fock = FockSpace(k)
    ops = quon_operators(k)
    shift = _shift_family(ops)
    u = shift(params)
    h = modulus_op(k)

    def add_norms(residuals: dict) -> None:
        for name, residual in residuals.items():
            report.add(Check.residual_check(name, residual.norm(), tol.abs_tol))

    for name, worst in _shift_action_residuals(u, params.half_wrap_phase, params.wrap_phase).items():
        report.add(Check.residual_check(name, worst, tol.abs_tol))

    add_norms({"shift_unitary": u.adjoint() @ u - Operator.identity(fock)})

    # each column must hold exactly one unit-modulus entry; the operator
    # type holds at most one per column, so only the modulus is left to check
    monomial = float(np.max(np.abs(np.abs(u.weight) - 1.0)))
    report.add(Check.residual_check("shift_monomial_columns", monomial, tol.abs_tol))

    su2 = _ladders(ops, h, u)
    plus, minus, z = su2.plus, su2.minus, su2.z
    add_norms(
        {
            "modulus_hermitean": h - h.adjoint(),
            "commutator_z_plus": commutator(z, plus) - plus,
            "commutator_z_minus": commutator(z, minus) + minus,
            "commutator_plus_minus": commutator(plus, minus) - 2.0 * z,
        }
    )

    space = su2.space
    z_expected = np.diag([float(m) for m in space.m_values()]).astype(complex)
    for name, got, expected in (
        ("raising_matrix_elements", plus, _expected_ladder(space, +1)),
        ("lowering_matrix_elements", minus, _expected_ladder(space, -1)),
        ("z_diagonal", z, z_expected),
    ):
        report.add(Check.residual_check(name, float(np.max(np.abs(got.mat - expected))), tol.abs_tol))

    h_ang = restrict_to_angular(h, k)
    u_ang = restrict_to_angular(u, k)
    casimir = su2.casimir()
    add_norms(
        {
            "casimir_polar_identity": casimir - (h_ang @ h_ang + z @ z - z),
            "casimir_shift_commute": commutator(casimir, u_ang),
            "shift_cyclicity": u_ang.power(k) - params.wrap_phase * Operator.identity(space),
        }
    )

    # distinct wrap phases must give non-commuting shifts; the offsets are
    # added exactly, because in floating point r0 + offset rounds back to r0
    # once |r0| is beyond 2**53
    rng = np.random.default_rng(seed)
    r0 = _as_fraction(params.r)
    wrap0 = params.wrap_phase
    smallest = math.inf
    found = 0
    attempts = 0
    while found < 3 and attempts < 300:
        attempts += 1
        s = r0 + _as_fraction(rng.uniform(0.1, 1.9))
        other = ShiftParams(k, s)
        if abs(other.wrap_phase - wrap0) < 0.5:
            continue
        found += 1
        smallest = min(smallest, commutator(u, shift(other)).norm())
    if found == 0:
        smallest = 0.0
    report.add(Check.threshold_check("distinct_shift_noncommuting", smallest, tol.abs_tol))
    return report


def phase_matrix(j, r, sign: int) -> np.ndarray:
    """Read-only P[s, m_index] = exp(sign * 2*pi*i * alpha_s * m / (2j+1)).

    alpha_s = -j*r + s.  Cached per (j, exact r, sign): the shift-basis
    table builders read each matrix many times.  The sign = -1 matrix is
    evaluated on its own: conjugating the sign = +1 one can differ in the
    last bit.
    """
    j = HalfInt.of(j)
    r = _as_fraction(r)
    key = ("phase", j.twice, r.numerator, r.denominator, sign)
    return default_table().get(key, lambda: _phases(j.twice, r.numerator, r.denominator, sign))


def _phases(tj: int, p: int, q: int, sign: int) -> np.ndarray:
    """The phase matrix for 2j = tj and r = p/q.

    The turn of each entry is the integer ratio
    sign*(2q*s - 2j*p)*2m / (4q*(2j+1)), so the entries equal the
    alpha_phase values bit for bit.
    """
    den = 4 * q * (tj + 1)
    return np.array(
        [
            [_turn_phase(sign * (2 * q * s - tj * p) * tm, den) for tm in range(-tj, tj + 1, 2)]
            for s in range(tj + 1)
        ],
        dtype=complex,
    )


def basis_transform_matrix(j, r) -> np.ndarray:
    """Columns are the shift eigenvectors: T[m_index, s] = q^(alpha_s m)/sqrt(2j+1).

    Built on every call rather than cached: verifiers that draw a fresh r
    per call would fill the cache with matrices never read again.
    """
    j = HalfInt.of(j)
    r = _as_fraction(r)
    phases = _phases(j.twice, r.numerator, r.denominator, +1)
    # a C-ordered copy: the einsums downstream would round differently on a transposed view
    return np.ascontiguousarray(phases.T) * (1.0 / math.sqrt(j.twice + 1))


def shift_eigenvalue(j, r, s: int) -> complex:
    """q^(-alpha_s) with q = exp(2*pi*i/(2j+1))."""
    return alpha_phase(j, r, s, HalfInt(2), sign=-1)


@dataclass(frozen=True, eq=False)
class ShiftEigenbasis:
    """Joint eigenbasis of the Casimir and the cyclic shift at parameter r.

    alphas[s] = -j*r + s for s = 0..2j; column s of transform holds the
    eigenvector with shift eigenvalue q^(-alphas[s]).  The inverse change of
    basis is the conjugate transpose.
    """

    j: HalfInt
    r: float
    alphas: tuple[float, ...]
    eigenvalues: np.ndarray
    transform: np.ndarray

    def vector(self, s: int) -> np.ndarray:
        return self.transform[:, s]

    def to_dict(self) -> dict:
        return {
            "j": str(self.j),
            "r": self.r,
            "alphas": list(self.alphas),
            "eigenvalues": [complex_record(z) for z in self.eigenvalues],
            "transform": matrix_to_json_entries(self.transform),
        }


def shift_eigenbasis(j, r) -> ShiftEigenbasis:
    j = HalfInt.of(j)
    if j.twice == 0:
        raise UnsupportedLimitError("j = 0 carries no shift; the eigenbasis needs j >= 1/2")
    order = j.twice + 1
    transform = basis_transform_matrix(j, r)
    transform.setflags(write=False)
    eigenvalues = np.array([shift_eigenvalue(j, r, s) for s in range(order)])
    eigenvalues.setflags(write=False)
    alphas = tuple(alpha_value(j, r, s) for s in range(order))
    return ShiftEigenbasis(j=j, r=float(r), alphas=alphas, eigenvalues=eigenvalues, transform=transform)


def verify_shift_eigenbasis(j, r, tol: ToleranceRule | None = None) -> VerificationReport:
    """Check the analytic eigenbasis against the shift it is supposed to diagonalize."""
    j = HalfInt.of(j)
    basis = shift_eigenbasis(j, r)
    k = j.twice + 1
    if tol is None:
        tol = ToleranceRule.for_order(k)
    # the exact r, so the shift and the basis see the same wrap turn
    params = ShiftParams(k, _as_fraction(r))
    u = restrict_to_angular(shift_op(params), k)
    report = VerificationReport(suite="shift-eigenbasis", k=k, r=float(r))

    residual = float(
        np.max(np.abs(u.mat @ basis.transform - basis.transform * basis.eigenvalues[None, :]))
    )
    report.add(Check.residual_check("eigenvector_residual", residual, tol.abs_tol))

    gram = basis.transform.conj().T @ basis.transform
    report.add(
        Check.residual_check(
            "transform_unitary", float(np.max(np.abs(gram - np.eye(k)))), tol.abs_tol
        )
    )

    sep = min(
        abs(basis.eigenvalues[a] - basis.eigenvalues[b])
        for a in range(k)
        for b in range(a + 1, k)
    )
    report.add(Check.threshold_check("eigenvalues_distinct", float(sep), tol.abs_tol))

    generic = np.linalg.eig(u.mat)[0]
    worst = max(float(np.min(np.abs(generic - lam))) for lam in basis.eigenvalues)
    report.add(Check.residual_check("generic_solver_agreement", worst, max(tol.abs_tol, 1e-9)))

    # the wrap phase must close the eigenvector ansatz: exp(i*phase) = exp(2*pi*i*j*r)
    p, q = _ratio(r)
    closure = abs(params.wrap_phase - _turn_phase(j.twice * p, 2 * q))
    report.add(Check.residual_check("wrap_phase_consistency", float(closure), tol.abs_tol))
    return report


def clock_shift_monomial(params: ShiftParams, m1: int, m2: int) -> Operator:
    """q^(m1 m2) U^m1 V^m2 on the angular space, V the diagonal clock q^(N1-N2)."""
    u = restrict_to_angular(shift_op(params), params.k)
    targets, weights = _monomial_grid(u, [m1], [m2])
    return Operator._built(u.space, targets[0, 0], weights[0, 0])


def _monomial_grid(u: Operator, shifts, clocks) -> tuple[np.ndarray, np.ndarray]:
    """Targets and weights of q^(m1 m2) U^m1 V^m2 for every m1 in `shifts` and
    m2 in `clocks`, stacked as [m1 position, m2 position, column], from the
    shift U already restricted to the angular space.

    All powers come from one chain P_n = U @ P_(n-1) from the identity, and
    likewise for U^H, which is how `Operator.power` forms each power; each
    clock V^m2 is one diagonal.  So every monomial has the bits of its
    own `power` chain times its clock times its phase.
    """
    if not all(isinstance(m, numbers.Integral) for m in (*shifts, *clocks)):
        raise InvalidArgumentError("monomial indices must be integers")
    shifts, clocks = [int(m) for m in shifts], [int(m) for m in clocks]
    k = u.space.k
    one = Operator.identity(u.space)
    powers = {0: (one.target, one.weight)}
    for sign, factor in ((1, u), (-1, u.adjoint())):
        power = powers[0]
        for n in range(1, max(0, *(sign * m for m in shifts)) + 1):
            power = _product(factor.target, factor.weight, *power)
            powers[sign * n] = power
    shift_target = np.stack([powers[m][0] for m in shifts])
    shift_weight = np.stack([powers[m][1] for m in shifts])

    tj = k - 1
    targets = np.empty((len(shifts), len(clocks), k), dtype=np.intp)
    weights = np.empty((len(shifts), len(clocks), k), dtype=complex)
    for col, m2 in enumerate(clocks):
        clock = np.array([_turn_phase(tm * m2, k) for tm in range(-tj, tj + 1, 2)])
        target, weight = _product(shift_target, shift_weight, one.target, clock)
        phases = np.array([_turn_phase(m1 * m2, k) for m1 in shifts])
        targets[:, col] = target
        weights[:, col] = weight * phases[:, None]
    return targets, weights


def _sine_factors(m, ns, k: int) -> np.ndarray:
    """2i sin((2*pi/k) (m1 n2 - m2 n1)) for each n: minus the structure
    constant, so that [T_m, T_n] + factor T_(m+n) vanishes."""
    m1, m2 = m
    return np.array([2j * math.sin(2 * math.pi * (m1 * n2 - m2 * n1) / k) for n1, n2 in ns])


def verify_sine_algebra(
    params: ShiftParams, index_range, tol: ToleranceRule | None = None
) -> VerificationReport:
    """Commutators of clock-shift monomials against the sine structure constants:
    [T_m, T_n] = -2i sin((2*pi/k) (m1 n2 - m2 n1)) T_(m+n),
    for every m and n with both components in `index_range` (which must not
    be empty), and the unitarity of every T_m.

    Every monomial is derived from one restricted shift, through one power
    chain of U and of U^H (`_monomial_grid`).  T_m^H T_m - I is evaluated
    for every m in one stack, and for each m the commutators with all n
    are evaluated at once, on stacks of |pairs| operators, with the fock
    module's stacked adjoint, product, sum and norm; memory stays at
    O(|pairs| k).  Each residual has the bits of the same chain of single
    `Operator` calls.
    """
    k = params.k
    if tol is None:
        tol = ToleranceRule.for_order(k)
    indices = list(index_range)
    if not indices:
        raise InvalidArgumentError("the sine algebra check needs at least one monomial index")
    pairs = [(a, b) for a in indices for b in indices]
    values = sorted(set(indices) | {a + b for a in indices for b in indices})
    u = restrict_to_angular(shift_op(params), k)
    targets, weights = _monomial_grid(u, values, values)
    at = {m: i for i, m in enumerate(values)}

    def stacked(keys):
        rows, cols = [at[a] for a, _ in keys], [at[b] for _, b in keys]
        return targets[rows, cols], weights[rows, cols]

    n_target, n_weight = stacked(pairs)
    eye = Operator.identity(u.space)
    gram = _product(*_adjoint(n_target, n_weight), n_target, n_weight)
    worst_unitary = float(np.max(_spectral_norms(*_monomial_sum(*gram, eye.target, -eye.weight))))
    worst_comm = 0.0
    for am, bm in pairs:
        t_m = Operator._built(u.space, targets[at[am], at[bm]], weights[at[am], at[bm]])
        mn = _product(t_m.target, t_m.weight, n_target, n_weight)
        nm_target, nm_weight = _product(n_target, n_weight, t_m.target, t_m.weight)
        commutators = _monomial_sum(*mn, nm_target, -nm_weight)
        sum_target, sum_weight = stacked([(am + an, bm + bn) for an, bn in pairs])
        terms = sum_weight * _sine_factors((am, bm), pairs, k)[:, None]
        residuals = _monomial_sum(*commutators, sum_target, terms)
        worst_comm = max(worst_comm, float(np.max(_spectral_norms(*residuals))))

    report = VerificationReport(suite="sine-algebra", k=k, r=float(params.r))
    report.add(Check.residual_check("monomial_unitary", worst_unitary, tol.abs_tol))
    report.add(Check.residual_check("sine_commutation", worst_comm, tol.abs_tol))
    return report
