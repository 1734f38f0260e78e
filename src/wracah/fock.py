"""Two-mode truncated Fock space and its deformed ladder operators.

Both modes are nilpotent of index k at q = exp(2*pi*i/k), acting on the
k*k-dimensional product space with lexicographic occupation labels (n1, n2).
The two modes carry intentionally asymmetric matrix elements (the bracket
factor sits on the lowering side of mode 1 and on the raising side of mode
2); the pairing is not unitary and nothing downstream assumes it is.

Every generator here is diagonal or a weighted permutation, and so is every
product, adjoint and power of them that the verifiers form.  `Operator` is
therefore monomial: one target row and one weight per column, with O(dim)
algebra and an exact spectral norm.  A sum or an adjoint that would leave
that form raises InvalidArgumentError.

The product, the adjoint, the sum and the norm are module functions on
(target, weight) arrays.  They also take a leading stack axis, so a
verifier can evaluate many operators of one space in one call; `Operator`
calls them on single operators, and a stacked row gets the same bits as
the single operator.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SpaceMismatchError
from .qarith import ToleranceRule, _require_order, _turn_phase, q_bracket
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
    """Immutable monomial operator tied to a labeled space.

    Column c holds the single entry weight[c] in row target[c], so every
    operation here costs O(dim).  The target of a column whose weight is
    zero carries no meaning.  `mat` is a dense, read-only view built on
    demand.
    """

    __slots__ = ("space", "target", "weight")

    def __new__(cls, space, target, weight):
        target = np.array(target)
        weight = np.array(weight, dtype=complex)
        if target.dtype.kind not in "iu" or {target.shape, weight.shape} != {(space.dim,)}:
            raise InvalidArgumentError(f"an operator needs {space.dim} integer target rows and {space.dim} weights")
        if target.min() < 0 or target.max() >= space.dim:
            raise InvalidArgumentError(f"target rows must lie in 0..{space.dim - 1}")
        return cls._built(space, target.astype(np.intp), weight)

    @classmethod
    def _built(cls, space, target: np.ndarray, weight: np.ndarray) -> "Operator":
        """Wrap arrays that an operation made valid by construction, unchecked and uncopied."""
        op = object.__new__(cls)
        target.setflags(write=False)
        weight.setflags(write=False)
        _set_space(op, space)
        _set_target(op, target)
        _set_weight(op, weight)
        return op

    def __setattr__(self, name, value):
        raise AttributeError("Operator is immutable")

    @staticmethod
    def identity(space) -> "Operator":
        return Operator.diagonal(space, np.ones(space.dim))

    @staticmethod
    def diagonal(space, entries) -> "Operator":
        return Operator(space, np.arange(space.dim), entries)

    @property
    def mat(self) -> np.ndarray:
        dense = np.zeros((self.space.dim, self.space.dim), dtype=complex)
        dense[self.target, np.arange(self.space.dim)] = self.weight
        dense.setflags(write=False)
        return dense

    def _check_space(self, other: "Operator") -> None:
        if self.space != other.space:
            raise SpaceMismatchError(f"spaces differ: {self.space} vs {other.space}")

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator._built(self.space, *_product(self.target, self.weight, other.target, other.weight))

    def __add__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator._built(self.space, *_monomial_sum(self.target, self.weight, other.target, other.weight))

    def __sub__(self, other: "Operator") -> "Operator":
        # x - y and x + (-y) are the same IEEE operation
        return self + -other

    def __mul__(self, scalar) -> "Operator":
        if not isinstance(scalar, numbers.Complex):
            return NotImplemented
        return Operator._built(self.space, self.target, self.weight * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator._built(self.space, self.target, -self.weight)

    def adjoint(self) -> "Operator":
        """The conjugate transpose, by `_adjoint`."""
        return Operator._built(self.space, *_adjoint(self.target, self.weight))

    def power(self, n: int) -> "Operator":
        """self^n as the chain P_i = self @ P_(i-1) from the identity.

        The chain runs on the raw arrays and is wrapped once; each link is
        the product `self @ result` would form, so the bits are those of n
        single products.  Repeated squaring would round differently.
        """
        if not isinstance(n, numbers.Integral) or n < 0:
            raise InvalidArgumentError("power expects a nonnegative integer")
        target, weight = np.arange(self.space.dim), np.ones(self.space.dim, dtype=complex)
        for _ in range(int(n)):
            target, weight = _product(self.target, self.weight, target, weight)
        return Operator._built(self.space, target, weight)

    def norm(self) -> float:
        """Spectral norm, exact: see `_spectral_norms`."""
        return float(_spectral_norms(self.target, self.weight))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.weight)))

    def __repr__(self) -> str:
        return f"Operator({self.space!r}, dim={self.space.dim})"


# the slot writers that Operator._built calls past the immutable __setattr__
_set_space, _set_target, _set_weight = (getattr(Operator, name).__set__ for name in Operator.__slots__)


def _gather(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """values[..., index[..., c]] per column c, for stacked or single operands.

    Plain fancy indexing wherever one side is a single operator; only two
    stacks take the slower take_along_axis.
    """
    if values.ndim == 1:
        return values[index]
    if index.ndim == 1:
        return values[:, index]
    return np.take_along_axis(values, index, axis=-1)


def _product(target_a, weight_a, target_b, weight_b) -> tuple[np.ndarray, np.ndarray]:
    """Target rows and weights of the monomial product A @ B.

    Column c of B sends its weight to row b = target_b[c], and column b of A
    moves it on to row target_a[b].  Either operand may be a stack along a
    leading axis; the result is then stacked too.
    """
    a, b = _gather(weight_a, target_b), weight_b
    # separate real ufuncs, never a fused multiply-add, so that the
    # product of two weights is the same bits in either order and in
    # every stack position
    weight = np.empty(a.shape if a.ndim >= b.ndim else b.shape, dtype=complex)
    weight.real = a.real * b.real - a.imag * b.imag
    weight.imag = a.real * b.imag + a.imag * b.real
    return _gather(target_a, target_b), weight


def _adjoint(target, weight) -> tuple[np.ndarray, np.ndarray]:
    """Target rows and weights of A^H, for a single operator or a stack.

    Column c of A with a nonzero weight becomes column target[c] of A^H,
    holding the conjugate weight in row c; columns of A^H that receive no
    entry keep their own row and a zero weight.  Two nonzero columns of
    one operator that share a row raise InvalidArgumentError.
    """
    shape, dim = target.shape, target.shape[-1]
    target, weight = target.reshape(-1, dim), weight.reshape(-1, dim)
    stack, cols = np.nonzero(weight)
    slots = stack * dim + target[stack, cols]
    if np.bincount(slots).max(initial=0) > 1:
        raise InvalidArgumentError("adjoint leaves monomial form: two columns share a nonzero row")
    adj_target = np.tile(np.arange(dim), len(target))
    adj_weight = np.zeros(target.size, dtype=complex)
    adj_target[slots] = cols
    adj_weight[slots] = weight[stack, cols].conj()
    return adj_target.reshape(shape), adj_weight.reshape(shape)


def _monomial_sum(target_a, weight_a, target_b, weight_b) -> tuple[np.ndarray, np.ndarray]:
    """Target rows and weights of A + B, which must stay monomial.

    A column may hold an entry in A and in B only when both sit in the
    same row; otherwise InvalidArgumentError.  Stacks broadcast.
    """
    mine = weight_a != 0
    if np.any(mine & (weight_b != 0) & (target_a != target_b)):
        raise InvalidArgumentError("sum leaves monomial form: a column holds entries in two rows")
    return np.where(mine, target_a, target_b), weight_a + weight_b


def _spectral_norms(target: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Spectral norm of each monomial along the last axis.

    With one entry per column, A A^H is diagonal and holds the squared
    row 2-norms, so the largest of those is exact, not a bound.  A stack
    gives one norm per operator; each row is summed by its own bins, in
    column order, as a single operator would be.
    """
    dim = target.shape[-1]
    squares = weight.real**2 + weight.imag**2
    if target.ndim > 1:
        target = target + dim * np.arange(target.shape[0])[:, None]
    rows = np.bincount(target.ravel(), weights=squares.ravel(), minlength=target.size)
    return np.sqrt(rows.reshape(target.shape).max(axis=-1))


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


def quon_operators(k: int) -> QuonOps:
    """Build both mode algebras on the k*k product space.

    Mode 1: raising appends a bare step, lowering carries the bracket;
    mode 2 is mirrored.  Raising out of n = k-1 and lowering out of n = 0
    annihilate.
    """
    space = FockSpace(k)
    column = np.arange(space.dim)
    n1, n2 = np.divmod(column, k)
    brackets = np.array([q_bracket(n, k) for n in range(k + 1)])

    def ladder(step: int, stays, weight) -> Operator:
        return Operator(space, np.where(stays, column + step, column), np.where(stays, weight, 0))

    return QuonOps(
        space=space,
        raise1=ladder(k, n1 < k - 1, 1.0),
        lower1=ladder(-k, n1 > 0, brackets[n1]),
        raise2=ladder(1, n2 < k - 1, brackets[n2 + 1]),
        lower2=ladder(-1, n2 > 0, 1.0),
        number1=Operator.diagonal(space, n1),
        number2=Operator.diagonal(space, n2),
    )


def verify_quon_relations(ops: QuonOps, tol: ToleranceRule | None = None) -> VerificationReport:
    """Check both deformed algebras and their mutual commutativity."""
    k = ops.space.k
    if tol is None:
        tol = ToleranceRule.for_order(k)
    q = _turn_phase(1, k)
    one = Operator.identity(ops.space)
    report = VerificationReport(suite="quon", k=k, r=None)

    mode1 = (ops.raise1, ops.lower1, ops.number1)
    mode2 = (ops.raise2, ops.lower2, ops.number2)
    for label, (up, down, num) in (("mode1", mode1), ("mode2", mode2)):
        residuals = {
            "deformed_commutator": down @ up - q * (up @ down) - one,
            "number_raises": commutator(num, up) - up,
            "number_lowers": commutator(num, down) + down,
            "raise_nilpotent": up.power(k),
            "lower_nilpotent": down.power(k),
        }
        for name, residual in residuals.items():
            report.add(Check.residual_check(sys.intern(f"{label}_{name}"), residual.norm(), tol.abs_tol))

    cross = max(commutator(x, y).norm() for x in mode1 for y in mode2)
    report.add(Check.residual_check("cross_mode_commutators", cross, tol.abs_tol))
    return report
