"""Products on one owned BLAS thread: the cap, its restore, values and the tables built on them."""

import math
import sys
import threading

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from wracah import HalfInt
from wracah import _blas
from wracah._blas import identity_residual, one_thread, row_product
from wracah.cli import main
from wracah.su2 import phase_matrix, verify_shift_eigenbasis
from wracah.urcoupling import _RECIPES, _THIRD_AXIS_FIRST, _phase_transform, cg_ur_table, fbar_table
from wracah.wigner import cg_block, clear_cache, threejm_block

from _oracles import brute_cg_ur, brute_fbar
from test_wigner import _forbid_path_search


def _random(rng, shape, complex_):
    values = rng.standard_normal(shape)
    return values + 1j * rng.standard_normal(shape) if complex_ else values


@pytest.fixture
def two_threads():
    """The BLAS thread getter, with the count set to 2 for the test and restored after it."""
    functions = _blas._thread_count_functions()
    if functions is None:
        pytest.skip("numpy's BLAS exports no thread-count setter")
    setter, getter = functions
    before = getter()
    setter(2)
    yield getter
    setter(before)


@pytest.fixture
def matmul_calls(monkeypatch):
    """Record the operand shapes of every np.matmul call, and the BLAS thread count during it."""
    calls = []
    plain = np.matmul
    functions = _blas._thread_count_functions()

    def recording(a, b, **kwargs):
        calls.append((a.shape, b.shape, functions[1]() if functions else None))
        return plain(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    return calls


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
def test_one_call_on_one_thread(two_threads, matmul_calls, rows, inner, cols):
    rng = np.random.default_rng(0)
    left, right = _random(rng, (rows, inner), True), _random(rng, (inner, cols), True)
    product = row_product(left, right)
    np.testing.assert_allclose(product, left @ right, rtol=0, atol=1e-10)
    assert matmul_calls == [((rows, inner), (inner, cols), 1)]
    assert two_threads() == 2


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


def test_shift_eigenbasis_residuals_do_not_depend_on_the_thread_count(two_threads):
    """Every residual of the order-170 eigenbasis check has the bits it has on one thread.

    A plain product of the 170 x 170 transforms, split over two threads,
    moved transform_unitary in its last bits.
    """
    residuals = [c.residual.hex() for c in verify_shift_eigenbasis(HalfInt(169), 0.37).checks]
    assert two_threads() == 2
    with one_thread():
        alone = [c.residual.hex() for c in verify_shift_eigenbasis(HalfInt(169), 0.37).checks]
    assert residuals == alone


class TestOneThread:
    def test_caps_and_restores(self, two_threads):
        with one_thread():
            assert two_threads() == 1
        assert two_threads() == 2

    def test_restores_on_an_exception(self, two_threads):
        with pytest.raises(RuntimeError):
            with one_thread():
                assert two_threads() == 1
                raise RuntimeError("inside the cap")
        assert two_threads() == 2

    def test_nested(self, two_threads):
        with one_thread():
            with one_thread():
                assert two_threads() == 1
            assert two_threads() == 1
        assert two_threads() == 2

    def test_concurrent_users_share_one_cap(self, two_threads):
        """The count comes back only when the last of two overlapping threads leaves."""
        entered = [threading.Event(), threading.Event()]
        leave = [threading.Event(), threading.Event()]
        left = [threading.Event(), threading.Event()]
        seen = []

        def user(i):
            with one_thread():
                entered[i].set()
                leave[i].wait(timeout=30)
                seen.append(two_threads())
            left[i].set()

        threads = [threading.Thread(target=user, args=(i,)) for i in range(2)]
        threads[0].start()
        assert entered[0].wait(timeout=30)
        threads[1].start()
        assert entered[1].wait(timeout=30)
        leave[0].set()
        assert left[0].wait(timeout=30)
        assert two_threads() == 1  # the second user is still inside
        leave[1].set()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert seen == [1, 1]
        assert two_threads() == 2

    def test_many_threads_enter_and_leave(self, two_threads):
        """More users than cores, switching often: every user reads 1 inside, and 2 comes back at the end."""
        seen = []

        def user():
            for _ in range(200):
                with one_thread():
                    seen.append(two_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=user) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen == [1] * 1200
        assert two_threads() == 2

    def test_report_without_a_setter(self, monkeypatch):
        """Where the BLAS exports no setter, products run on its own threads and report keeps its bits."""
        args = ["report", "--max-j", "2", "--r", "1"]
        capped = CliRunner().invoke(main, args)
        monkeypatch.setattr(_blas, "_thread_count_functions", lambda: None)
        plain = CliRunner().invoke(main, args)
        assert capped.exit_code == plain.exit_code == 0, plain.output
        assert plain.output == capped.output


@pytest.mark.parametrize("tjs", [(12, 12, 24), (12, 12, 22), (12, 12, 20), (12, 10, 22), (10, 12, 22)])
@pytest.mark.parametrize("build", [cg_block, threejm_block])
@pytest.mark.parametrize("r", [1, 0.37])  # at r = 1 the phase matrices are symmetric
def test_large_phase_transforms_keep_numpys_bits(tjs, build, r):
    """Blocks whose third-axis product is contracted first; here numpy's own path takes that order too."""
    j1, j2, j3 = (HalfInt(t) for t in tjs)
    core = build(j1, j2, j3)
    assert core.size * core.shape[2] > 1 << 16
    p1, p2, p3 = phase_matrix(j1, r, -1), phase_matrix(j2, r, -1), phase_matrix(j3, r, +1)
    expected = np.einsum("am,bn,cp,mnp->abc", p1, p2, p3, core, optimize=True)
    assert _phase_transform(p1, p2, p3, core).tobytes() == expected.tobytes()


@pytest.mark.parametrize("tjs", [(8, 20, 18), (10, 18, 18), (16, 16, 16)])
@pytest.mark.parametrize("build", [cg_block, threejm_block])
@pytest.mark.parametrize("r", [1, 0.37])
def test_large_phase_transforms_contract_the_third_axis_first(tjs, build, r):
    """Above the bound the order is fixed, wherever numpy's path over the whole block would go."""
    j1, j2, j3 = (HalfInt(t) for t in tjs)
    core = build(j1, j2, j3)
    p1, p2, p3 = phase_matrix(j1, r, -1), phase_matrix(j2, r, -1), phase_matrix(j3, r, +1)
    step = (core.reshape(-1, core.shape[2]) @ p3.T).reshape(core.shape)
    expected = np.einsum("am,bn,mnc->abc", p1, p2, step, optimize=True)
    assert _phase_transform(p1, p2, p3, core).tobytes() == expected.tobytes()


@pytest.mark.parametrize("tjs", [(12, 12, 24), (12, 12, 22), (12, 12, 20), (12, 10, 22), (10, 12, 22), (8, 20, 18)])
@pytest.mark.parametrize("r", [1, 0.37])
def test_large_tables_match_brute_sums(tjs, r):
    """Sampled entries of the largest shift-basis tables against the direct sums of _oracles."""
    f1, f2, f3 = (HalfInt(t).as_fraction for t in tjs)
    oracles = {
        cg_ur_table: lambda s1, s2, s3: brute_cg_ur(f1, f2, s1, s2, f3, s3, r),
        fbar_table: lambda s1, s2, s3: brute_fbar(f1, f2, f3, s1, s2, s3, r),
    }
    rng = np.random.default_rng(sum(tjs))
    for table, brute in oracles.items():
        values = table(f1, f2, f3, r)
        for labels in zip(*(rng.integers(0, t + 1, size=6) for t in tjs)):
            assert values[labels] == pytest.approx(brute(*labels), abs=1e-12), (table.__name__, tjs, labels)


def _shapes(max_twice, beyond=True):
    """(2j1, 2j2, 2j3) for every triangle with 2j1, 2j2 <= max_twice, and with beyond the 2j3 one past each triangle.

    The one past is the out-of-triangle fbar table that fbar-orthogonality and
    the fbar command build.
    """
    for t1 in range(max_twice + 1):
        for t2 in range(max_twice + 1):
            yield from ((t1, t2, t3) for t3 in range(abs(t1 - t2), t1 + t2 + (3 if beyond else 1), 2))


def _searched_transform(p1, p2, p3, core):
    """The transform on numpy's path search: over the whole block up to the bound, after the matmul-first step above it."""
    with one_thread():
        if core.size * core.shape[2] <= _THIRD_AXIS_FIRST:
            return np.einsum("am,bn,cp,mnp->abc", p1, p2, p3, core, optimize=True)
        step = (core.reshape(-1, core.shape[2]) @ p3.T).reshape(core.shape)
        return np.einsum("am,bn,mnc->abc", p1, p2, step, optimize=True)


def test_products_go_in_the_stated_order(two_threads, matmul_calls):
    """Three products on one BLAS thread per block, on every shape up to 2j1, 2j2 = 40.

    Their inner dimensions descend, but above the bound the third axis goes first.
    """
    above = 0
    for tjs in _shapes(40):
        dims = [t + 1 for t in tjs]
        big = math.prod(dims) * dims[2] > _THIRD_AXIS_FIRST
        above += big
        # only the shapes matter here, and single precision halves the time
        _phase_transform(*(np.zeros((d, d), np.float32) for d in dims), np.zeros(dims, np.float32))
        inner = [dims[2], *sorted(dims[:2], reverse=True)] if big else sorted(dims, reverse=True)
        assert [(a[-1], b[0], threads) for a, b, threads in matmul_calls] == [(d, d, 1) for d in inner], tjs
        matmul_calls.clear()
    assert above == 21818  # of 25,502 shapes
    assert two_threads() == 2


@pytest.mark.parametrize("r", [1, 0.37])
def test_tables_keep_the_bits_of_numpys_search(r):
    """Every cg_ur and fbar table with 2j1, 2j2 <= 12 has the bits of the transform on numpy's searched path."""
    tables = {"cg_ur": cg_ur_table, "fbar": fbar_table}
    for kind, (signs, block) in _RECIPES.items():
        for tjs in _shapes(12, beyond=kind == "fbar"):
            js = [HalfInt(t) for t in tjs]
            core = block(*js)
            searched = _searched_transform(*(phase_matrix(j, r, sign) for j, sign in zip(js, signs)), core)
            norm = 1.0 / math.sqrt(math.prod(t + 1 for t in tjs))
            assert tables[kind](*js, r).tobytes() == (norm * searched).tobytes(), (kind, tjs)


def test_tables_are_stored_c_ordered_and_read_only():
    """Every cg_ur and fbar table with 2j1, 2j2 <= 12, whatever layout its last product leaves."""
    tables = {"cg_ur": cg_ur_table, "fbar": fbar_table}
    for kind, table in tables.items():
        for tjs in _shapes(12, beyond=kind == "fbar"):
            values = table(*(HalfInt(t) for t in tjs), 0.37)
            assert values.flags.c_contiguous and not values.flags.writeable, (kind, tjs)


def _refuse_einsum(*operands, **kwargs):
    raise AssertionError("a table was built with einsum")


# two shapes at or under the bound, two above it
@pytest.mark.parametrize("tjs", [(2, 2, 2), (4, 6, 8), (12, 12, 24), (8, 20, 18)])
def test_tables_build_without_a_path_search(monkeypatch, tjs):
    """Fresh tables build with einsum and its path search made to raise, and keep their bits."""
    js = [HalfInt(t) for t in tjs]
    before = [table(*js, 0.37).tobytes() for table in (cg_ur_table, fbar_table)]
    clear_cache()
    _forbid_path_search(monkeypatch)
    monkeypatch.setattr(np, "einsum", _refuse_einsum)
    try:
        assert [table(*js, 0.37).tobytes() for table in (cg_ur_table, fbar_table)] == before
    finally:
        clear_cache()
