"""Two-mode Fock space, operator wrapper, and the deformed mode algebra."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wracah import (
    FockSpace,
    Operator,
    SpaceMismatchError,
    ToleranceRule,
    commutator,
    q_bracket,
    quon_operators,
    verify_quon_relations,
)

orders = st.integers(min_value=2, max_value=7)


@given(orders)
def test_index_occupation_bijection(k):
    space = FockSpace(k)
    assert space.dim == k * k
    seen = set()
    for n1 in range(k):
        for n2 in range(k):
            idx = space.index(n1, n2)
            assert space.occupations(idx) == (n1, n2)
            seen.add(idx)
    assert seen == set(range(space.dim))


def test_index_rejects_out_of_range():
    space = FockSpace(3)
    with pytest.raises(Exception):
        space.index(3, 0)


def test_mode_matrix_elements_k3():
    """Mode 1 raises with unit amplitude and lowers with a bracket, mode 2
    the other way around."""
    ops = quon_operators(3)
    space = ops.space
    k = 3

    def ket(n1, n2):
        v = np.zeros(space.dim, dtype=complex)
        v[space.index(n1, n2)] = 1.0
        return v

    for n1 in range(k - 1):
        out = ops.raise1.mat @ ket(n1, 0)
        assert abs(out[space.index(n1 + 1, 0)] - 1.0) < 1e-15

    for n1 in range(1, k):
        out = ops.lower1.mat @ ket(n1, 0)
        assert abs(out[space.index(n1 - 1, 0)] - q_bracket(n1, k)) < 1e-15

    for n2 in range(1, k):
        out = ops.lower2.mat @ ket(0, n2)
        assert abs(out[space.index(0, n2 - 1)] - 1.0) < 1e-15

    for n2 in range(k - 1):
        out = ops.raise2.mat @ ket(0, n2)
        assert abs(out[space.index(0, n2 + 1)] - q_bracket(n2 + 1, k)) < 1e-15


def test_number_operators_are_diagonal_counts():
    ops = quon_operators(4)
    space = ops.space
    for idx in range(space.dim):
        n1, n2 = space.occupations(idx)
        assert ops.number1.mat[idx, idx] == n1
        assert ops.number2.mat[idx, idx] == n2


@pytest.mark.parametrize("k", range(2, 10))
def test_deformed_commutation_all_orders(k):
    report = verify_quon_relations(quon_operators(k), ToleranceRule(1e-12))
    assert report.passed, [c.name for c in report.checks if not c.passed]
    assert report.max_residual <= 1e-12


@pytest.mark.parametrize("k", range(2, 8))
def test_nilpotency_is_exact(k):
    """k-th powers of single-mode ladders vanish identically, not just
    numerically."""
    ops = quon_operators(k)
    for op in (ops.raise1, ops.lower1, ops.raise2, ops.lower2):
        assert op.power(k).max_abs() == 0.0


def test_modes_commute_exactly():
    ops = quon_operators(5)
    pairs = [
        (ops.raise1, ops.raise2),
        (ops.raise1, ops.lower2),
        (ops.lower1, ops.raise2),
        (ops.lower1, ops.lower2),
    ]
    for a, b in pairs:
        assert commutator(a, b).max_abs() == 0.0


def test_operator_space_mismatch():
    a = Operator.identity(FockSpace(2))
    b = Operator.identity(FockSpace(3))
    with pytest.raises(SpaceMismatchError):
        _ = a @ b
    with pytest.raises(SpaceMismatchError):
        _ = a + b


def test_operator_algebra_basics():
    space = FockSpace(2)
    ident = Operator.identity(space)
    assert (2.0 * ident - ident - ident).max_abs() == 0.0
    assert ident.power(0).max_abs() == 1.0
    entries = np.arange(space.dim)
    diag = Operator.diagonal(space, entries)
    assert (diag.adjoint() - diag).max_abs() == 0.0
    # norm() is the spectral norm, so a diagonal operator gives its largest entry
    assert diag.norm() == pytest.approx(float(np.max(entries)))


def test_operators_are_immutable():
    ident = Operator.identity(FockSpace(2))
    with pytest.raises(Exception):
        ident.mat = np.zeros((4, 4))
    with pytest.raises(ValueError):
        ident.mat[0, 0] = 5.0
