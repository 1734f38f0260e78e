"""The monomial operator type against dense numpy references.

Products, sums, adjoints, powers, restriction and the spectral norm are
compared with the same operations on the dense matrices, and their stacked
forms with single operators bit for bit; the residuals of the quon, su(2)
and sine-algebra verifiers are recomputed from the dense Kronecker
generators in tests/_oracles.py with SVD norms, and the sine-algebra ones
also from the per-pair loop of single operator calls, bit for bit.
"""

import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wracah.su2
from wracah import (
    FockSpace,
    InvalidArgumentError,
    Operator,
    ShiftParams,
    SubspaceLeakageError,
    quon_operators,
    shift_op,
    verify_quon_relations,
    verify_sine_algebra,
    verify_su2,
)
from wracah.fock import _adjoint, _monomial_sum, _product, _spectral_norms
from wracah.qarith import ToleranceRule
from wracah.su2 import restrict_to_angular

from _oracles import (
    angular_rows,
    chained_power,
    dense_modulus,
    dense_quon_generators,
    dense_shift,
    dense_sine_residuals,
    looped_sine_residuals,
    sorted_adjoint,
)

# both residuals sit at the rounding level of operators whose entries stay
# below 50 (k <= 7); they agreed to 8e-16 when this bound was set
RESIDUAL_MATCH = 1e-14


def _random_monomial(rng, space, *, target=None, injective=False) -> Operator:
    dim = space.dim
    if target is None:
        target = rng.permutation(dim) if injective else rng.integers(0, dim, dim)
    weight = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    weight[rng.random(dim) < 0.3] = 0.0
    return Operator(space, target, weight)


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) <= 1e-12 * scale


cases = st.tuples(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))


@given(cases)
@settings(max_examples=60)
def test_algebra_matches_dense(case):
    k, seed = case
    rng = np.random.default_rng(seed)
    space = FockSpace(k)
    a = _random_monomial(rng, space)
    b = _random_monomial(rng, space)
    assert _close((a @ b).mat, a.mat @ b.mat)

    # a summand that agrees with a wherever a holds an entry
    free = rng.integers(0, space.dim, space.dim)
    c = _random_monomial(rng, space, target=np.where(a.weight != 0, a.target, free))
    assert np.array_equal((a + c).mat, a.mat + c.mat)
    assert np.array_equal((a - c).mat, a.mat - c.mat)
    assert np.array_equal((2.5j * a).mat, 2.5j * a.mat)

    for n in range(5):
        assert _close(a.power(n).mat, np.linalg.matrix_power(a.mat, n))

    p = _random_monomial(rng, space, injective=True)
    assert np.array_equal(p.adjoint().mat, p.mat.conj().T)

    for op in (a, b, c, p, a @ b):
        assert math.isclose(op.norm(), float(np.linalg.norm(op.mat, 2)), rel_tol=1e-12)


@given(cases)
@settings(max_examples=40)
def test_restriction_matches_dense(case):
    k, seed = case
    rng = np.random.default_rng(seed)
    space = FockSpace(k)
    rows = np.array(angular_rows(k))
    target = rng.integers(0, space.dim, space.dim)
    # angular columns stay inside unless the draw lets one escape
    if rng.random() < 0.7:
        target[rows] = rng.choice(rows, size=k)
    op = _random_monomial(rng, space, target=target)
    dense = op.mat
    outside = np.setdiff1d(np.arange(space.dim), rows)
    leak = float(np.max(np.linalg.norm(dense[np.ix_(outside, rows)], axis=0)))
    if leak > ToleranceRule.for_order(k).abs_tol:
        with pytest.raises(SubspaceLeakageError):
            restrict_to_angular(op)
    else:
        assert np.array_equal(restrict_to_angular(op).mat, dense[np.ix_(rows, rows)])


@pytest.mark.parametrize("seed", range(4))
def test_stacked_algebra_matches_single_operators_bitwise(seed):
    """Product, sum and norm on a leading stack axis give every row the bits
    of the same call on single operators, whichever operand is stacked."""
    rng = np.random.default_rng(seed)
    space = FockSpace(4)
    xs = [_random_monomial(rng, space) for _ in range(5)]
    ys = [_random_monomial(rng, space) for _ in range(5)]
    x_t, x_w = np.stack([x.target for x in xs]), np.stack([x.weight for x in xs])
    y_t, y_w = np.stack([y.target for y in ys]), np.stack([y.weight for y in ys])
    single = xs[0]

    def rows(target, weight):
        return [(t.tobytes(), w.tobytes()) for t, w in zip(target, weight)]

    def ops(products):
        return [(p.target.tobytes(), p.weight.tobytes()) for p in products]

    assert rows(*_product(x_t, x_w, y_t, y_w)) == ops(x @ y for x, y in zip(xs, ys))
    assert rows(*_product(single.target, single.weight, y_t, y_w)) == ops(single @ y for y in ys)
    assert rows(*_product(y_t, y_w, single.target, single.weight)) == ops(y @ single for y in ys)

    # summands that agree with each x wherever it holds an entry
    free = rng.integers(0, space.dim, x_t.shape)
    zs = [_random_monomial(rng, space, target=np.where(x.weight != 0, x.target, f)) for x, f in zip(xs, free)]
    z_t, z_w = np.stack([z.target for z in zs]), np.stack([z.weight for z in zs])
    assert rows(*_monomial_sum(x_t, x_w, z_t, z_w)) == ops(x + z for x, z in zip(xs, zs))
    with pytest.raises(InvalidArgumentError):
        _monomial_sum(x_t, x_w, y_t, y_w)

    norms = _spectral_norms(x_t, x_w)
    assert [n.hex() for n in norms.tolist()] == [x.norm().hex() for x in xs]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("blocks", (1, 3))
def test_broadcast_stacks_match_single_operators_bitwise(seed, blocks):
    """A (blocks, 1) stack against a (1, pairs) stack gives entry [b, p] the
    bits of the single product, and the norm of each of its operators; one
    stack with a single row takes the plain gathers and keeps its axes."""
    rng = np.random.default_rng(seed)
    space = FockSpace(3)
    xs = [_random_monomial(rng, space, injective=True) for _ in range(blocks)]
    ys = [_random_monomial(rng, space, injective=True) for _ in range(7)]
    x_t, x_w = np.stack([x.target for x in xs])[:, None], np.stack([x.weight for x in xs])[:, None]
    y_t, y_w = np.stack([y.target for y in ys])[None], np.stack([y.weight for y in ys])[None]
    for (target, weight), pairs in (
        (_product(x_t, x_w, y_t, y_w), [[x @ y for y in ys] for x in xs]),
        (_product(y_t, y_w, x_t, x_w), [[y @ x for y in ys] for x in xs]),
    ):
        assert target.shape == weight.shape == (blocks, len(ys), space.dim)
        for b, row in enumerate(pairs):
            for p, op in enumerate(row):
                assert target[b, p].tobytes() == op.target.tobytes()
                assert weight[b, p].tobytes() == op.weight.tobytes()
        norms = _spectral_norms(target, weight)
        assert [[n.hex() for n in row] for row in norms.tolist()] == [[op.norm().hex() for op in row] for row in pairs]


# the orders and family parameters at which the raw-array paths are pinned
# to the chains of single Operator calls they replaced
ORACLE_ORDERS = [*range(2, 31), 101]


def _oracle_family(k: int):
    return (0, 1, 0.37, -2.37, 1 / 3, Fraction(7, 5), 1e-7, 2**60, random.Random(k).uniform(-3.0, 3.0))


def _same_operator(got: Operator, want: Operator) -> bool:
    return got.target.tobytes() == want.target.tobytes() and got.weight.tobytes() == want.weight.tobytes()


@pytest.mark.parametrize("k", ORACLE_ORDERS)
def test_power_is_the_chain_of_products_bitwise(k):
    """power runs the chain of `@` on raw arrays: the same bits at every n."""
    rng = np.random.default_rng(k)
    ops = quon_operators(k)
    shift = shift_op(ShiftParams(k, rng.uniform(-3.0, 3.0)))
    randoms = [_random_monomial(rng, ops.space), _random_monomial(rng, ops.space, injective=True)]
    for op in (ops.lower1, ops.raise2, shift, *randoms):
        for n in sorted({0, 1, 2, 3, 5, k - 1, k}):
            assert _same_operator(op.power(n), chained_power(op, n)), n
    assert _same_operator(shift.power(np.int64(3)), chained_power(shift, 3))


@pytest.mark.parametrize("seed", range(4))
def test_adjoint_matches_sorted_adjoint_bitwise(seed):
    """The stacked adjoint gives every row, and Operator.adjoint every single
    operator, the bits of the sorted single-operator adjoint; columns with a
    zero weight may share a row."""
    rng = np.random.default_rng(seed)
    space = FockSpace(5)
    xs = []
    for _ in range(6):
        x = _random_monomial(rng, space, injective=True)
        zero = x.weight == 0
        target = np.where(zero, rng.integers(0, space.dim, space.dim), x.target)
        xs.append(Operator(space, target, x.weight))
    x_t, x_w = np.stack([x.target for x in xs]), np.stack([x.weight for x in xs])
    adj_t, adj_w = _adjoint(x_t, x_w)
    for x, t, w in zip(xs, adj_t, adj_w):
        want = sorted_adjoint(x)
        assert _same_operator(x.adjoint(), want)
        assert t.tobytes() == want.target.tobytes() and w.tobytes() == want.weight.tobytes()

    # one stack row whose two nonzero columns share a target row spoils the stack
    bad_t = x_t.copy()
    nonzero = np.flatnonzero(x_w[3])
    bad_t[3, nonzero[0]] = x_t[3, nonzero[1]]
    with pytest.raises(InvalidArgumentError, match="adjoint leaves monomial form"):
        _adjoint(bad_t, x_w)
    _adjoint(np.delete(bad_t, 3, axis=0), np.delete(x_w, 3, axis=0))


@pytest.mark.parametrize("k", ORACLE_ORDERS)
def test_sine_residuals_match_looped_calls_across_orders(k):
    """The stacked unitarity and commutators against the per-m loop of single
    Operator calls with the sorted adjoint, bit for bit.  Each order below
    101 takes every third family parameter, so each parameter meets ten orders."""
    family = _oracle_family(k)
    for r in family if k == 101 else family[k % 3 :: 3]:
        params = ShiftParams(k, r)
        report = verify_sine_algebra(params, [-1, 2])
        looped = looped_sine_residuals(params, [-1, 2])
        assert [c.residual.hex() for c in report.checks] == [x.hex() for x in looped], r


def test_sum_leaving_monomial_form_raises():
    space = FockSpace(2)
    a = Operator(space, [1, 1, 2, 3], [1.0, 1.0, 1.0, 1.0])
    b = Operator(space, [0, 1, 2, 3], [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(InvalidArgumentError):
        _ = a + b
    with pytest.raises(InvalidArgumentError):
        _ = a - b
    # a zero weight puts no entry anywhere, so its row is free
    quiet = Operator(space, [0, 1, 2, 3], [0.0, 0.0, 0.0, 0.0])
    assert np.array_equal((a + quiet).mat, a.mat)


def test_adjoint_of_non_injective_operator_raises():
    space = FockSpace(2)
    with pytest.raises(InvalidArgumentError):
        Operator(space, [0, 0, 2, 3], [1.0, 2.0, 1.0, 1.0]).adjoint()
    # a shared row is fine when only one of the columns holds an entry
    single = Operator(space, [0, 0, 2, 3], [1.0, 0.0, 1.0, 1.0])
    assert np.array_equal(single.adjoint().mat, single.mat.conj().T)


def test_constructor_rejects_malformed_arrays():
    space = FockSpace(2)
    with pytest.raises(InvalidArgumentError):
        Operator(space, [0, 1, 2], [1.0, 1.0, 1.0])
    with pytest.raises(InvalidArgumentError):
        Operator(space, [0, 1, 2, 4], [1.0, 1.0, 1.0, 1.0])
    # rows are not truncated: 0.5 is no row
    with pytest.raises(InvalidArgumentError):
        Operator(space, [0.5, 1, 2, 3], [1.0, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("k", range(2, 8))
def test_generators_match_kronecker_oracle(k):
    ops = quon_operators(k)
    for name, dense in dense_quon_generators(k).items():
        assert _close(getattr(ops, name).mat, dense), name


def _svd(x: np.ndarray) -> float:
    return float(np.linalg.norm(x, 2))


def _dense_quon_residuals(k: int) -> dict[str, float]:
    g = dense_quon_generators(k)
    q = cmath.exp(2j * math.pi / k)
    one = np.eye(k * k)
    out = {}
    for label, up, down, num in (
        ("mode1", g["raise1"], g["lower1"], g["number1"]),
        ("mode2", g["raise2"], g["lower2"], g["number2"]),
    ):
        out[f"{label}_deformed_commutator"] = _svd(down @ up - q * (up @ down) - one)
        out[f"{label}_number_raises"] = _svd(num @ up - up @ num - up)
        out[f"{label}_number_lowers"] = _svd(num @ down - down @ num + down)
        out[f"{label}_raise_nilpotent"] = _svd(np.linalg.matrix_power(up, k))
        out[f"{label}_lower_nilpotent"] = _svd(np.linalg.matrix_power(down, k))
    out["cross_mode_commutators"] = max(
        _svd(x @ y - y @ x)
        for x in (g["raise1"], g["lower1"], g["number1"])
        for y in (g["raise2"], g["lower2"], g["number2"])
    )
    return out


def _dense_su2_residuals(k: int, r: float, seed: int) -> dict[str, float]:
    """Every verify_su2 residual, in the verifier's order."""
    u = dense_shift(k, r)
    h = dense_modulus(k)
    g = dense_quon_generators(k)
    half = cmath.exp(1j * math.pi * (k - 1) * r / 2)
    full = cmath.exp(1j * math.pi * (k - 1) * r)

    def action(cols_rows, value) -> float:
        worst = 0.0
        for col, row in cols_rows:
            column = u[:, col].copy()
            column[row] -= value
            worst = max(worst, float(np.max(np.abs(column))))
        return worst

    at = lambda n1, n2: n1 * k + n2  # noqa: E731
    out = {
        "interior_shift_action": action(
            [(at(n1, n2), at(n1 + 1, n2 - 1)) for n1 in range(k - 1) for n2 in range(1, k)], 1.0
        ),
        "mode1_wrap_action": action([(at(k - 1, n2), at(0, n2 - 1)) for n2 in range(1, k)], half),
        "mode2_wrap_action": action([(at(n1, 0), at(n1 + 1, k - 1)) for n1 in range(k - 1)], half),
        "double_wrap_action": action([(at(k - 1, 0), at(0, k - 1))], full),
        "shift_unitary": _svd(u.conj().T @ u - np.eye(k * k)),
    }
    moduli = np.sort(np.abs(u), axis=0)
    out["shift_monomial_columns"] = max(
        float(np.max(np.abs(moduli[-1] - 1.0))), float(np.max(moduli[-2]))
    )
    out["modulus_hermitean"] = _svd(h - h.conj().T)

    rows = angular_rows(k)
    block = np.ix_(rows, rows)
    plus = (h @ u)[block]
    minus = (u.conj().T @ h)[block]
    z = (0.5 * (g["number1"] - g["number2"]))[block]
    out["commutator_z_plus"] = _svd(z @ plus - plus @ z - plus)
    out["commutator_z_minus"] = _svd(z @ minus - minus @ z + minus)
    out["commutator_plus_minus"] = _svd(plus @ minus - minus @ plus - 2 * z)

    j = (k - 1) / 2
    ms = [-j + i for i in range(k)]
    up = np.zeros((k, k), dtype=complex)
    for i, m in enumerate(ms[:-1]):
        up[i + 1, i] = math.sqrt((j - m) * (j + m + 1))
    out["raising_matrix_elements"] = float(np.max(np.abs(plus - up)))
    out["lowering_matrix_elements"] = float(np.max(np.abs(minus - up.T)))
    out["z_diagonal"] = float(np.max(np.abs(z - np.diag(ms))))

    casimir = 0.5 * (plus @ minus + minus @ plus) + z @ z
    h_ang = h[block]
    u_ang = u[block]
    out["casimir_polar_identity"] = _svd(casimir - (h_ang @ h_ang + z @ z - z))
    out["casimir_shift_commute"] = _svd(casimir @ u_ang - u_ang @ casimir)
    out["shift_cyclicity"] = _svd(np.linalg.matrix_power(u_ang, k) - full * np.eye(k))

    # the same three sampled family members as the verifier draws
    rng = random.Random(seed)
    smallest = math.inf
    found = attempts = 0
    while found < 3 and attempts < 300:
        attempts += 1
        s = r + rng.uniform(0.1, 1.9)
        if abs(cmath.exp(1j * math.pi * (k - 1) * s) - full) < 0.5:
            continue
        found += 1
        other = dense_shift(k, s)
        smallest = min(smallest, _svd(u @ other - other @ u))
    floor = ToleranceRule.for_order(k).abs_tol
    out["distinct_shift_noncommuting"] = max(0.0, floor - (smallest if found else 0.0))
    return out


@pytest.mark.parametrize("k", range(2, 8))
def test_quon_residuals_match_dense_svd(k):
    report = verify_quon_relations(quon_operators(k))
    dense = _dense_quon_residuals(k)
    assert [c.name for c in report.checks] == list(dense)
    for check in report.checks:
        assert abs(check.residual - dense[check.name]) <= RESIDUAL_MATCH, check


@pytest.mark.parametrize("k", range(2, 8))
@pytest.mark.parametrize("r", (0.0, 0.37, 1.0, 2.37))
def test_su2_residuals_match_dense_svd(k, r):
    report = verify_su2(ShiftParams(k, r), seed=k)
    dense = _dense_su2_residuals(k, r, seed=k)
    assert [c.name for c in report.checks] == list(dense)
    for check in report.checks:
        assert abs(check.residual - dense[check.name]) <= RESIDUAL_MATCH, check


# index sets of the sine-algebra check, duplicates and gaps included; the
# 49 pairs of range(-3, 4) run at the largest order of each grid only
SINE_INDICES = (range(-2, 3), range(0, 2), [1, 1], [2, -1, 2])


def _sine_r_values(k: int):
    return (0.0, 1.0, 0.37, random.Random(k).uniform(-3.0, 3.0))


def _sine_grid(ks):
    return [(k, indices) for k in ks for indices in SINE_INDICES] + [(ks[-1], range(-3, 4))]


# sparse, large index sets, whose d = m1 n2 - m2 n1 lie far outside 0..k-1
SPARSE_SINE_GRID = [(k, indices) for k in (3, 4, 7) for indices in ([0, 1000], [-7, 3, 250])]


@pytest.mark.parametrize(("k", "indices"), _sine_grid((2, 3, 4, 7, 13)) + SPARSE_SINE_GRID, ids=str)
def test_sine_residuals_match_looped_operator_calls_bitwise(k, indices):
    """The stacked check reproduces the per-pair chain of Operator calls bit for bit."""
    for r in _sine_r_values(k):
        params = ShiftParams(k, r)
        report = verify_sine_algebra(params, indices)
        looped = looped_sine_residuals(params, list(indices))
        assert [c.residual.hex() for c in report.checks] == [x.hex() for x in looped], r


@pytest.mark.parametrize("k", (2, 3, 7, 13))
@pytest.mark.parametrize("indices", SINE_INDICES, ids=str)
def test_sine_block_boundaries_match_looped_operator_calls_bitwise(monkeypatch, k, indices):
    """One m per block, and blocks that leave a short last block, reproduce
    the per-pair chain of Operator calls bit for bit."""
    pairs = len(indices) ** 2
    short = pairs // 2 + 1
    assert pairs % short, "the last block must be short"
    for r in _sine_r_values(k):
        params = ShiftParams(k, r)
        looped = [x.hex() for x in looped_sine_residuals(params, list(indices))]
        for per_block in (1, short):
            monkeypatch.setattr(wracah.su2, "_SINE_BLOCK_ENTRIES", per_block * pairs * k)
            report = verify_sine_algebra(params, indices)
            assert [c.residual.hex() for c in report.checks] == looped, (r, per_block)


@pytest.mark.parametrize(("k", "indices"), _sine_grid(range(2, 8)), ids=str)
def test_sine_residuals_match_dense_svd(k, indices):
    for r in _sine_r_values(k):
        report = verify_sine_algebra(ShiftParams(k, r), indices)
        dense = dense_sine_residuals(k, r, list(indices))
        assert [c.name for c in report.checks] == ["monomial_unitary", "sine_commutation"]
        for check, want in zip(report.checks, dense):
            assert abs(check.residual - want) <= RESIDUAL_MATCH, (r, check, want)


# past the dense wall: one k^2 x k^2 complex matrix at k = 101 takes 1.7 GB


def test_quon_relations_pass_at_order_101():
    report = verify_quon_relations(quon_operators(101))
    assert report.passed, [(c.name, c.residual) for c in report.checks if not c.passed]


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_su2_passes_at_order_101(seed):
    r = random.Random(seed).uniform(0.05, 1.95)
    report = verify_su2(ShiftParams(101, r), seed=seed)
    assert report.passed, [(c.name, c.residual) for c in report.checks if not c.passed]


def _sine_peak(params, indices):
    tracemalloc.start()
    try:
        report = verify_sine_algebra(params, indices)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed, [(c.name, c.residual) for c in report.checks]
    return peak


def test_sine_algebra_memory_at_order_101():
    """Blocks of m keep the commutator stacks within a fixed entry budget;
    one (|pairs|^2, k) stack would peak near 35 MB here."""
    peak = _sine_peak(ShiftParams(101, 0.3), range(-3, 4))
    assert peak < 8_000_000, peak


def test_sine_algebra_memory_at_index_20():
    """The same budget holds for the 1,681 pairs of indices -20..20, whose
    commutators would fill a (1681^2, 3) stack."""
    peak = _sine_peak(ShiftParams(3, 0.37), range(-20, 21))
    assert peak < 8_000_000, peak


def test_monomial_memory_at_power_20000():
    """The power chain keeps only the powers it is asked for: keeping every
    U^1 .. U^20000 of order 3 peaked near 8 MB here."""
    params = ShiftParams(3, 0.37)
    wracah.su2.clock_shift_monomial(params, 1, 0)  # the shift and its caches, outside the measurement
    tracemalloc.start()
    try:
        wracah.su2.clock_shift_monomial(params, 20000, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
