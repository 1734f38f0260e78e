"""Polar su(2) construction, shift eigenbasis, and the sine algebra."""

import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wracah.su2
from wracah import (
    FockSpace,
    HalfInt,
    InvalidArgumentError,
    Operator,
    ShiftParams,
    SubspaceLeakageError,
    ToleranceRule,
    UnsupportedLimitError,
    alpha_phase,
    angular_momentum_ops,
    basis_transform_matrix,
    clock_shift_monomial,
    commutator,
    modulus_op,
    quon_operators,
    shift_eigenbasis,
    shift_op,
    verify_shift_eigenbasis,
    verify_sine_algebra,
    verify_su2,
)
from wracah.qarith import halfint_range
from wracah.serialize import dumps
from wracah.su2 import (
    AngularSpace,
    _expected_ladder,
    _shift_action_residuals,
    _shift_family,
    phase_matrix,
    restrict_to_angular,
    shift_eigenvalue,
)
from wracah.wigner import clear_cache, default_table

from _oracles import looped_expected_ladder, looped_shift_action

R_GRID = (0.0, 0.5, 1.0, 2.37)


def test_shift_params_derived_quantities():
    p = ShiftParams(4, 1.0)
    assert p.j == HalfInt(3)
    assert p.wrap_phase == pytest.approx(cmath.exp(1j * 3 * math.pi))
    assert abs(p.half_wrap_phase**2 - p.wrap_phase) < 1e-15


def test_shift_action_k3_literal():
    """Spot-check the three action regimes against hand values at k=3, r=1."""
    k, r = 3, 1.0
    params = ShiftParams(k, r)
    u = shift_op(params).mat
    fock = FockSpace(k)
    phase = cmath.exp(1j * math.pi * (k - 1) * r)
    half = cmath.exp(1j * math.pi * (k - 1) * r / 2)

    # interior: |0,2) -> |1,1)
    assert abs(u[fock.index(1, 1), fock.index(0, 2)] - 1.0) < 1e-14
    # mode-1 wrap: |2,1) -> half * |0,0)
    assert abs(u[fock.index(0, 0), fock.index(2, 1)] - half) < 1e-14
    # mode-2 wrap: |0,0) -> half * |1,2)
    assert abs(u[fock.index(1, 2), fock.index(0, 0)] - half) < 1e-14
    # double wrap: |2,0) -> full phase * |0,2)
    assert abs(u[fock.index(0, 2), fock.index(2, 0)] - phase) < 1e-14


@pytest.mark.parametrize("k", [*range(2, 31), 101])
def test_shift_action_matches_entrywise_loop_bitwise(k):
    """The masked literal-action check against the per-entry loop with
    Python's abs: on the shift, on the shift with perturbed weights, and on
    monomials whose entries mostly sit in the wrong rows.  Each order takes
    every third family parameter, so each parameter meets ten orders."""
    rng = np.random.default_rng(k)
    space = FockSpace(k)
    shift = _shift_family(quon_operators(k))
    family = (0, 1, 0.37, -2.37, 1 / 3, Fraction(7, 5), 1e-7, 2**60, rng.uniform(-3.0, 3.0))
    for i, r in enumerate(family[k % 3 :: 3]):
        params = ShiftParams(k, r)
        u = shift(params)
        noise = rng.normal(size=(2, space.dim)) * 1e-3
        ops = [u, Operator(space, u.target, u.weight * (1 + noise[0] + 1j * noise[1]))]
        if i == 0:
            weights = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
            ops += [
                Operator(space, rng.integers(0, space.dim, space.dim), weights),
                Operator(space, np.where(rng.random(space.dim) < 0.5, u.target, 0), u.weight + weights * 1e-2),
            ]
        for op in ops:
            got = _shift_action_residuals(op, params.half_wrap_phase, params.wrap_phase)
            want = looped_shift_action(op, params.half_wrap_phase, params.wrap_phase)
            assert {n: x.hex() for n, x in got.items()} == {n: x.hex() for n, x in want.items()}, r


def test_modulus_diagonal_values():
    k = 4
    h = modulus_op(k).mat
    fock = FockSpace(k)
    for idx in range(fock.dim):
        n1, n2 = fock.occupations(idx)
        assert h[idx, idx] == pytest.approx(math.sqrt(n1 * (n2 + 1)))


@pytest.mark.parametrize("k", range(2, 10))
@pytest.mark.parametrize("r", R_GRID)
def test_polar_construction_grid(k, r):
    report = verify_su2(ShiftParams(k, r))
    assert report.passed, [
        (c.name, c.residual) for c in report.checks if not c.passed
    ]


@given(
    st.integers(min_value=2, max_value=6),
    st.fractions(min_value=-2, max_value=3, max_denominator=12),
)
@settings(max_examples=15)
def test_polar_construction_random_rational_r(k, r):
    assert verify_su2(ShiftParams(k, float(r))).passed


def test_casimir_value_matches_spin():
    for k in (2, 3, 5):
        su2 = angular_momentum_ops(ShiftParams(k, 1.0))
        j = (k - 1) / 2
        expected = j * (j + 1) * np.eye(k)
        assert np.max(np.abs(su2.casimir().mat - expected)) < 1e-12


def test_shift_cyclicity_phase():
    for k, r in [(2, 0.5), (3, 2.37), (5, 1.0)]:
        params = ShiftParams(k, r)
        u = restrict_to_angular(shift_op(params))
        wrapped = u.power(k).mat
        expected = params.wrap_phase * np.eye(k)
        assert np.max(np.abs(wrapped - expected)) < 1e-12


def test_family_members_with_equal_wrap_phase_commute():
    """r and r + 4/(k-1) share the wrap phase and their shifts commute,
    so noncommutation sampling must avoid such pairs."""
    k = 2
    u0 = shift_op(ShiftParams(k, 0.0))
    u4 = shift_op(ShiftParams(k, 4.0))
    assert commutator(u0, u4).max_abs() < 1e-15

    u1 = shift_op(ShiftParams(k, 1.0))
    assert commutator(u0, u1).max_abs() > 0.5


def test_restrict_to_angular_rejects_leaky_operator():
    ops = quon_operators(3)
    with pytest.raises(SubspaceLeakageError):
        restrict_to_angular(ops.raise1)


class TestShiftEigenbasis:
    def test_analytic_transform_columns(self):
        j = HalfInt(2)
        basis = shift_eigenbasis(j, 1.0)
        dim = j.twice + 1
        for s in range(dim):
            alpha = -float(j) * 1.0 + s
            expected = np.array(
                [cmath.exp(2j * math.pi * alpha * (m - 1) / dim) for m in range(dim)]
            ) / math.sqrt(dim)
            # columns indexed by s, rows by m in descending-m storage order
            col = basis.transform[:, s]
            ratio = col / expected
            assert np.max(np.abs(ratio - ratio[0])) < 1e-12
            assert abs(abs(ratio[0]) - 1.0) < 1e-12

    def test_eigenvalue_formula(self):
        j = HalfInt(3)
        basis = shift_eigenbasis(j, 0.5)
        for s, lam in enumerate(basis.eigenvalues):
            assert abs(lam - shift_eigenvalue(j, 0.5, s)) < 1e-15
            assert abs(abs(lam) - 1.0) < 1e-14

    @pytest.mark.parametrize("k", range(2, 10))
    @pytest.mark.parametrize("r", R_GRID)
    def test_verified_grid(self, k, r):
        report = verify_shift_eigenbasis(HalfInt(k - 1), r)
        assert report.passed, [
            (c.name, c.residual) for c in report.checks if not c.passed
        ]

    def test_degenerate_j_zero_rejected(self):
        with pytest.raises(UnsupportedLimitError):
            shift_eigenbasis(HalfInt(0), 0.0)

    def test_eigenvalues_pairwise_distinct(self):
        basis = shift_eigenbasis(HalfInt(6), 2.37)
        vals = basis.eigenvalues
        for i in range(len(vals)):
            for l in range(i + 1, len(vals)):
                assert abs(vals[i] - vals[l]) > 1e-3

    @pytest.mark.parametrize(
        "k, r",
        [(2, Fraction(1, 2)), (4, Fraction(1, 3)), (10, Fraction(1, 3)), (7, Fraction(-5, 11)), (3, HalfInt(1))],
    )
    def test_exact_r_closes_wrap_phase_exactly(self, k, r):
        """The shift and the basis see the same exact turn, so they agree to the bit."""
        report = verify_shift_eigenbasis(HalfInt(k - 1), r)
        check = next(c for c in report.checks if c.name == "wrap_phase_consistency")
        assert check.residual == 0.0
        assert report.r == float(r)

    def test_equality_is_identity(self):
        """The basis holds arrays, so == compares identity and hash works, neither raising."""
        a, b = shift_eigenbasis(HalfInt(2), 0.3), shift_eigenbasis(HalfInt(2), 0.3)
        assert a == a and a != b
        assert len({a, b, a}) == 2
        assert hash(a) == hash(a)

    def test_to_dict_shape(self):
        """to_dict hands the basis's own arrays to dumps, which writes each complex entry as {"re", "im"}."""
        basis = shift_eigenbasis(HalfInt(1), 1.0)
        d = basis.to_dict()
        assert d["transform"] is basis.transform and d["eigenvalues"] is basis.eigenvalues
        loaded = json.loads(dumps(d))
        assert loaded["j"] == "1/2"
        assert loaded["r"] == 1.0
        assert len(loaded["alphas"]) == 2
        assert all(set(e) == {"re", "im"} for e in loaded["eigenvalues"])
        assert len(loaded["transform"]) == 2 and len(loaded["transform"][0]) == 2
        assert all(set(e) == {"re", "im"} for row in loaded["transform"] for e in row)


class TestSineAlgebra:
    @pytest.mark.parametrize("k", (3, 5))
    @pytest.mark.parametrize("r", (0.0, 1.0))
    def test_commutators_match_sine_rule(self, k, r):
        report = verify_sine_algebra(ShiftParams(k, r), index_range=range(-2, 3))
        assert report.passed
        assert report.max_residual <= 1e-10

    def test_empty_index_range_rejected(self):
        with pytest.raises(InvalidArgumentError):
            verify_sine_algebra(ShiftParams(3, 0.5), [])

    def test_non_integral_indices_rejected(self):
        """Indices are not truncated: 0.5 and 1.9 are not the monomials 0 and 1."""
        with pytest.raises(InvalidArgumentError):
            verify_sine_algebra(ShiftParams(3, 0.5), [0.5, 1.9])
        with pytest.raises(InvalidArgumentError):
            clock_shift_monomial(ShiftParams(3, 0.5), 0.5, 1)

    def test_negated_monomial_fails_commutation(self, monkeypatch):
        """-T_(1,0) is still unitary but breaks every bracket it enters."""
        build = wracah.su2._monomial_grid

        def negated(u, shifts, clocks):
            targets, weights = build(u, shifts, clocks)
            weights[shifts.index(1), clocks.index(0)] *= -1
            return targets, weights

        monkeypatch.setattr(wracah.su2, "_monomial_grid", negated)
        self._only_commutation_fails()

    def test_flipped_structure_constant_fails_commutation(self, monkeypatch):
        constants = wracah.su2._sine_constants
        monkeypatch.setattr(wracah.su2, "_sine_constants", lambda *args: -constants(*args))
        self._only_commutation_fails()

    # 25 pairs of range(-2, 3) at k = 5: every m in one block, one m per
    # block, and blocks of three that leave the last pair, m = (2, 2), alone
    @pytest.mark.parametrize(
        ("per_block", "blocks"), ((25, [25]), (1, [1] * 25), (3, [3] * 8 + [1])), ids=("one", "single", "short-last")
    )
    def test_last_block_enters_commutation_residual(self, monkeypatch, per_block, blocks):
        """The blocks of m run in order over every pair, and a residual
        poisoned in the last block alone fails the check.

        No mutation of a monomial or a constant singles out the last m:
        each bracket [T_m, T_n] with n != m is checked again, up to sign,
        as [T_n, T_m] in the block of n, and [T_m, T_m] vanishes.  So the
        poison goes into the commutator norms of the block that holds the
        last m.
        """
        norms = wracah.su2._spectral_norms
        seen = []

        def poisoned(target, weight):
            out = norms(target, weight)
            if target.ndim == 3:
                seen.append(target.shape[0])
                assert target.shape[1:] == (25, 5)
                if sum(seen) == 25:
                    out = out + 10.0
            return out

        monkeypatch.setattr(wracah.su2, "_spectral_norms", poisoned)
        monkeypatch.setattr(wracah.su2, "_SINE_BLOCK_ENTRIES", per_block * 25 * 5)
        self._only_commutation_fails()
        assert seen == blocks

    @staticmethod
    def _only_commutation_fails():
        report = verify_sine_algebra(ShiftParams(5, 0.3), range(-2, 3))
        checks = {c.name: c for c in report.checks}
        assert checks["monomial_unitary"].passed
        assert not checks["sine_commutation"].passed
        assert checks["sine_commutation"].residual > 1.0

    def test_sparse_large_indices_pass(self):
        """d = m1 n2 - m2 n1 reaches 10^6 here; its sine taken at the unreduced
        d read 2.26e-10, past the bound, for this true identity."""
        report = verify_sine_algebra(ShiftParams(3, 0.37), [0, 1000])
        checks = {c.name: c for c in report.checks}
        assert report.passed
        assert checks["sine_commutation"].residual <= 1e-13

    def test_huge_clock_index_keeps_every_bit(self):
        """Only m1 drives the power chain, so a clock index past the int64
        range costs nothing, and the monomial is the one of m2 mod k."""
        params = ShiftParams(3, 0.37)
        for m1 in (-1, 0, 1):
            for m2 in (2**62, 2**63, 2**64 + 1, -(2**63) - 1):
                big, small = clock_shift_monomial(params, m1, m2), clock_shift_monomial(params, m1, m2 % 3)
                assert big.target.tobytes() == small.target.tobytes(), (m1, m2)
                assert big.weight.tobytes() == small.weight.tobytes(), (m1, m2)

    def test_monomials_unitary(self):
        params = ShiftParams(5, 1.0)
        for m1, m2 in [(0, 0), (1, 0), (0, 1), (2, -1), (-2, 2)]:
            t = clock_shift_monomial(params, m1, m2)
            prod = t.adjoint().mat @ t.mat
            assert np.max(np.abs(prod - np.eye(t.mat.shape[0]))) < 1e-12

    def test_explicit_commutator_k3(self):
        """[T_(1,0), T_(0,1)] = -2i sin(2 pi / 3) T_(1,1) at k = 3."""
        params = ShiftParams(3, 0.0)
        t10 = clock_shift_monomial(params, 1, 0).mat
        t01 = clock_shift_monomial(params, 0, 1).mat
        t11 = clock_shift_monomial(params, 1, 1).mat
        lhs = t10 @ t01 - t01 @ t10
        rhs = -2j * math.sin(2 * math.pi / 3) * t11
        assert np.max(np.abs(lhs - rhs)) < 1e-13


@pytest.mark.parametrize("sign", (1, -1))
def test_expected_ladder_matches_entrywise_loop_bitwise(sign):
    for tj in range(61):
        space = AngularSpace(HalfInt(tj))
        assert _expected_ladder(space, sign).tobytes() == looped_expected_ladder(space, sign).tobytes(), tj


def test_basis_transform_matrix_is_unitary():
    for j, r in [(HalfInt(1), 0.0), (HalfInt(2), 1.0), (HalfInt(5), 2.37)]:
        v = basis_transform_matrix(j, r)
        dim = j.twice + 1
        assert v.shape == (dim, dim)
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-13


def test_distinct_shift_sampling_at_huge_r():
    """Offsets of order one vanish when added to 1e300 in floating point;
    drawn exactly, they still give distinct, non-commuting family members."""
    report = verify_su2(ShiftParams(3, 1e300))
    check = next(c for c in report.checks if c.name == "distinct_shift_noncommuting")
    assert check.passed, check


@pytest.mark.parametrize("seed", (-1, 1.5, "3", None))
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(InvalidArgumentError, match="seed"):
        verify_su2(ShiftParams(3, 0.37), seed=seed)


@pytest.mark.parametrize("seed", (0, True, 2**70, np.int64(5)))
def test_integer_seeds_are_accepted(seed):
    assert verify_su2(ShiftParams(3, 0.37), seed=seed).passed


def test_fresh_family_parameters_leave_the_cache_empty():
    """The eigenbasis builds its transform without caching it, so a verifier
    that draws a fresh r per call does not grow the shared cache."""
    clear_cache()
    for r in (0.11, 0.52, Fraction(7, 5)):
        assert verify_shift_eigenbasis(HalfInt(6), r).passed
    assert len(default_table()) == 0


@pytest.mark.parametrize("r", [0.0, 1.0, 0.37, -2.37, Fraction(1, 3), 1 / 3])
def test_phase_matrix_equals_alpha_phase_bitwise(r):
    """The one phase-matrix builder reproduces alpha_phase entry for entry,
    and the shift eigenbasis is its sign = +1 output, transposed and scaled."""
    for tj in range(0, 9):
        j = HalfInt(tj)
        ms = halfint_range(-j, j)
        for sign in (+1, -1):
            expected = np.array(
                [[alpha_phase(j, r, s, m, sign) for m in ms] for s in range(tj + 1)]
            )
            assert phase_matrix(j, r, sign).tobytes() == expected.tobytes()
        scale = 1.0 / math.sqrt(tj + 1)
        expected = np.array([[alpha_phase(j, r, s, m) * scale for s in range(tj + 1)] for m in ms])
        assert basis_transform_matrix(j, r).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "verify",
    [
        lambda: verify_sine_algebra(ShiftParams(5, 0.3), range(-2, 3)),
        lambda: verify_su2(ShiftParams(5, 0.3)),
    ],
    ids=["sine_algebra", "su2"],
)
def test_verifier_builds_one_quon_algebra(monkeypatch, verify):
    """Each verifier derives every operator it checks from one quon algebra."""
    calls = []
    build = wracah.su2.quon_operators

    def counting(k):
        calls.append(k)
        return build(k)

    monkeypatch.setattr(wracah.su2, "quon_operators", counting)
    assert verify().passed
    assert calls == [5]
