"""Two-mode truncated Fock space and its deformed ladder operators.

Both modes are nilpotent of index k at q = exp(2*pi*i/k), acting on the
k*k-dimensional product space with lexicographic occupation labels (n1, n2).
The two modes carry intentionally asymmetric matrix elements (the bracket
factor sits on the lowering side of mode 1 and on the raising side of mode
2); the pairing is not unitary and nothing downstream assumes it is.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SpaceMismatchError
from .qarith import ToleranceRule, _require_order, q_bracket, root_of_unity
from .report import Check, VerificationReport

__all__ = [
    "FockSpace",
    "Operator",
    "QuonOps",
    "quon_operators",
    "verify_quon_relations",
    "commutator",
]


@dataclass(frozen=True)
class FockSpace:
    """Occupation pairs (n1, n2) with 0 <= n_i <= k-1, ordered lexicographically."""

    k: int

    def __post_init__(self):
        _require_order(self.k)

    @property
    def dim(self) -> int:
        return self.k * self.k

    def index(self, n1: int, n2: int) -> int:
        if not (0 <= n1 < self.k and 0 <= n2 < self.k):
            raise InvalidArgumentError(f"occupations ({n1}, {n2}) outside order {self.k}")
        return n1 * self.k + n2

    def occupations(self, index: int) -> tuple[int, int]:
        if not (0 <= index < self.dim):
            raise InvalidArgumentError(f"index {index} outside dimension {self.dim}")
        return divmod(index, self.k)

    def labels(self) -> list[tuple[int, int]]:
        return [(n1, n2) for n1 in range(self.k) for n2 in range(self.k)]


class Operator:
    """Immutable dense complex operator tied to a labeled space."""

    __slots__ = ("space", "mat")

    def __init__(self, space, mat):
        mat = np.array(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape != (space.dim, space.dim):
            raise InvalidArgumentError(
                f"matrix shape {mat.shape} does not match space dimension {space.dim}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mat", mat)

    def __setattr__(self, name, value):
        raise AttributeError("Operator is immutable")

    @staticmethod
    def identity(space) -> "Operator":
        return Operator(space, np.eye(space.dim, dtype=complex))

    @staticmethod
    def diagonal(space, entries) -> "Operator":
        entries = np.asarray(entries, dtype=complex)
        if entries.shape != (space.dim,):
            raise InvalidArgumentError("diagonal length does not match space dimension")
        return Operator(space, np.diag(entries))

    def _check_space(self, other: "Operator") -> None:
        if self.space != other.space:
            raise SpaceMismatchError(f"spaces differ: {self.space} vs {other.space}")

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.mat @ other.mat)

    def __add__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.mat + other.mat)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.mat - other.mat)

    def __mul__(self, scalar) -> "Operator":
        if not isinstance(scalar, numbers.Complex):
            return NotImplemented
        return Operator(self.space, self.mat * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(self.space, -self.mat)

    def adjoint(self) -> "Operator":
        return Operator(self.space, self.mat.conj().T)

    def power(self, n: int) -> "Operator":
        if not isinstance(n, numbers.Integral) or n < 0:
            raise InvalidArgumentError("power expects a nonnegative integer")
        return Operator(self.space, np.linalg.matrix_power(self.mat, int(n)))

    def norm(self) -> float:
        """Spectral norm."""
        return float(np.linalg.norm(self.mat, 2))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.mat))) if self.mat.size else 0.0

    def __repr__(self) -> str:
        return f"Operator({self.space!r}, dim={self.space.dim})"


def commutator(x: Operator, y: Operator) -> Operator:
    return x @ y - y @ x


@dataclass(frozen=True)
class QuonOps:
    """The six generators of the two commuting deformed oscillator algebras."""

    space: FockSpace
    raise1: Operator
    lower1: Operator
    raise2: Operator
    lower2: Operator
    number1: Operator
    number2: Operator


def _mode_matrices(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    brackets = [q_bracket(n, k) for n in range(k + 1)]
    raise1 = np.zeros((k, k), dtype=complex)
    lower1 = np.zeros((k, k), dtype=complex)
    raise2 = np.zeros((k, k), dtype=complex)
    lower2 = np.zeros((k, k), dtype=complex)
    for n in range(k - 1):
        raise1[n + 1, n] = 1.0
        lower1[n, n + 1] = brackets[n + 1]
        raise2[n + 1, n] = brackets[n + 1]
        lower2[n, n + 1] = 1.0
    number = np.diag(np.arange(k, dtype=float)).astype(complex)
    return raise1, lower1, raise2, lower2, number


def quon_operators(k: int) -> QuonOps:
    """Build both mode algebras on the k*k product space.

    Mode 1: raising appends a bare step, lowering carries the bracket;
    mode 2 is mirrored.  Raising out of n = k-1 and lowering out of n = 0
    annihilate.
    """
    space = FockSpace(k)
    r1, l1, r2, l2, num = _mode_matrices(space.k)
    eye = np.eye(space.k, dtype=complex)
    return QuonOps(
        space=space,
        raise1=Operator(space, np.kron(r1, eye)),
        lower1=Operator(space, np.kron(l1, eye)),
        raise2=Operator(space, np.kron(eye, r2)),
        lower2=Operator(space, np.kron(eye, l2)),
        number1=Operator(space, np.kron(num, eye)),
        number2=Operator(space, np.kron(eye, num)),
    )


def verify_quon_relations(ops: QuonOps, tol: ToleranceRule | None = None) -> VerificationReport:
    """Check both deformed algebras and their mutual commutativity."""
    k = ops.space.k
    if tol is None:
        tol = ToleranceRule.for_order(k)
    q = root_of_unity(k).to_complex()
    one = Operator.identity(ops.space)
    report = VerificationReport(suite="quon", k=k, r=None)

    modes = [
        ("mode1", ops.raise1, ops.lower1, ops.number1),
        ("mode2", ops.raise2, ops.lower2, ops.number2),
    ]
    for label, up, down, num in modes:
        deformed = down @ up - q * (up @ down) - one
        report.add(Check.residual_check(f"{label}_deformed_commutator", deformed.norm(), tol.abs_tol))
        report.add(
            Check.residual_check(
                f"{label}_number_raises", (commutator(num, up) - up).norm(), tol.abs_tol
            )
        )
        report.add(
            Check.residual_check(
                f"{label}_number_lowers", (commutator(num, down) + down).norm(), tol.abs_tol
            )
        )
        report.add(Check.residual_check(f"{label}_raise_nilpotent", up.power(k).norm(), tol.abs_tol))
        report.add(Check.residual_check(f"{label}_lower_nilpotent", down.power(k).norm(), tol.abs_tol))

    mode1_ops = (ops.raise1, ops.lower1, ops.number1)
    mode2_ops = (ops.raise2, ops.lower2, ops.number2)
    cross = max(commutator(x, y).norm() for x in mode1_ops for y in mode2_ops)
    report.add(Check.residual_check("cross_mode_commutators", cross, tol.abs_tol))
    return report
