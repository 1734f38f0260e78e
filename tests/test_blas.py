"""Products kept on the calling thread: blocks, values and the tables built on them."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wracah import HalfInt
from wracah._blas import PRODUCT_LIMIT, identity_residual, row_product
from wracah.su2 import phase_matrix
from wracah.urcoupling import _phase_transform
from wracah.wigner import cg_block, threejm_block


def _random(rng, shape, complex_):
    values = rng.standard_normal(shape)
    return values + 1j * rng.standard_normal(shape) if complex_ else values


@pytest.fixture
def matmul_shapes(monkeypatch):
    """Record the operand shapes of every np.matmul call."""
    shapes = []
    plain = np.matmul

    def recording(a, b, **kwargs):
        shapes.append((a.shape, b.shape))
        return plain(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    return shapes


@given(
    rows=st.integers(1, 300),
    inner=st.integers(1, 300),
    cols=st.integers(1, 300),
    complex_left=st.booleans(),
    complex_right=st.booleans(),
)
def test_row_product_matches_matmul(rows, inner, cols, complex_left, complex_right):
    rng = np.random.default_rng(rows * 90_001 + inner * 300 + cols)
    left = _random(rng, (rows, inner), complex_left)
    right = _random(rng, (inner, cols), complex_right)
    got = row_product(left, right)
    assert got.dtype == np.result_type(left, right)
    np.testing.assert_allclose(got, left @ right, rtol=0, atol=1e-12 * (inner + 1))


@pytest.mark.parametrize(
    "rows, inner, cols",
    [(169, 169, 169), (169, 25, 25), (13, 169, 13), (289, 289, 289), (5, 2000, 7), (300, 40, 1)],
)
def test_blocks_stay_within_the_limit_and_off_the_vector_routine(matmul_shapes, rows, inner, cols):
    rng = np.random.default_rng(0)
    left, right = _random(rng, (rows, inner), True), _random(rng, (inner, cols), True)
    product = row_product(left, right)
    np.testing.assert_allclose(product, left @ right, rtol=0, atol=1e-10)
    assert matmul_shapes
    for (height, k), (_, width) in matmul_shapes:
        assert k == inner
        assert height * k * width <= PRODUCT_LIMIT
        assert height >= min(2, rows) and width >= min(2, cols)


def test_whole_rows_while_two_rows_fit(matmul_shapes):
    rng = np.random.default_rng(1)
    row_product(_random(rng, (169, 169), True), _random(rng, (169, 169), True))
    assert {width for _, (_, width) in matmul_shapes} == {169}
    assert {height for (height, _), _ in matmul_shapes} == {2}


def test_identity_residual_reads_the_largest_deviation():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(_random(rng, (120, 120), True))
    assert identity_residual(q.conj().T, q) < 1e-13
    assert identity_residual(q, q.conj().T) < 1e-13
    bent = q.copy()
    bent[:, 7] *= 1.0 + 3e-6
    assert identity_residual(bent.conj().T, bent) == pytest.approx(6e-6, rel=1e-5)
    expected = np.max(np.abs(bent.conj().T @ bent - np.eye(120)))
    assert identity_residual(bent.conj().T, bent) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("tjs", [(12, 12, 24), (12, 12, 22), (12, 12, 20), (12, 10, 22), (10, 12, 22)])
@pytest.mark.parametrize("build", [cg_block, threejm_block])
@pytest.mark.parametrize("r", [1, 0.37])  # at r = 1 the phase matrices are symmetric
def test_large_phase_transforms_keep_numpys_bits(tjs, build, r):
    j1, j2, j3 = (HalfInt(t) for t in tjs)
    core = build(j1, j2, j3)
    assert core.size * core.shape[2] > PRODUCT_LIMIT
    p1, p2, p3 = phase_matrix(j1, r, -1), phase_matrix(j2, r, -1), phase_matrix(j3, r, +1)
    expected = np.einsum("am,bn,cp,mnp->abc", p1, p2, p3, core, optimize=True)
    assert _phase_transform(p1, p2, p3, core).tobytes() == expected.tobytes()
