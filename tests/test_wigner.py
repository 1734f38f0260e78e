"""Magnetic-basis coupling symbols against independent references.

The package computes these from the single-sum closed form with exact
integer internals; the tests compare against sympy's symbolic evaluator,
against the same closed form summed in Fractions, against the eigenvectors
of J^2 and the lowering-operator construction, and against frozen literals.
"""

import importlib
import itertools
import random
import sys
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from wracah import (
    CouplingTable,
    HalfInt,
    InvalidArgumentError,
    TableConflictError,
    cg,
    ninej,
    ninej_from_fbar,
    threejm,
    triangle,
)
from wracah import wigner
from wracah.wigner import (
    cg_block,
    clear_cache,
    default_table,
    export_table,
    load_table,
    threejm_block,
    verify_cg_against_lowering,
    verify_cg_orthogonality,
    verify_cg_pair_lowering,
)

from _oracles import brute_ninej, cg_fraction, cg_lowering_table, sympy_3jm, sympy_9j, sympy_cg

HALF = Fraction(1, 2)


def spins_upto(max_j, step=HALF):
    out = []
    j = Fraction(0)
    while j <= max_j:
        out.append(j)
        j += step
    return out


def m_values(j):
    m = -Fraction(j)
    while m <= j:
        yield m
        m += 1


class TestFrozenValues:
    """Literals computed once from the symbolic oracle and pinned."""

    def test_spin_half_singlet(self):
        assert cg(HALF, HALF, HALF, -HALF, 0, 0) == pytest.approx(0.7071067811865476, abs=1e-15)
        assert cg(HALF, -HALF, HALF, HALF, 0, 0) == pytest.approx(-0.7071067811865476, abs=1e-15)

    def test_two_spin_one(self):
        assert cg(1, 1, 1, -1, 2, 0) == pytest.approx(0.408248290463863, abs=1e-15)
        assert cg(1, 1, 1, -1, 1, 0) == pytest.approx(0.7071067811865476, abs=1e-15)
        assert cg(1, 1, 1, -1, 0, 0) == pytest.approx(0.5773502691896257, abs=1e-15)

    def test_mixed_spins(self):
        got = cg(Fraction(3, 2), HALF, 1, 0, Fraction(3, 2), HALF)
        assert got == pytest.approx(0.2581988897471611, abs=1e-15)

    def test_threejm_literals(self):
        assert threejm(1, 1, 1, -1, 0, 0) == pytest.approx(0.5773502691896257, abs=1e-15)
        assert threejm(2, 0, 1, 0, 1, 0) == pytest.approx(0.3651483716701107, abs=1e-15)

    def test_ninej_literals(self):
        # all-ones array vanishes identically
        assert ninej(1, 1, 1, 1, 1, 1, 1, 1, 1) == pytest.approx(0.0, abs=1e-15)
        assert ninej(1, 1, 1, 0, 1, 1, 1, 0, 1) == pytest.approx(-1.0 / 9.0, abs=1e-14)
        assert ninej(HALF, HALF, 1, HALF, HALF, 1, 1, 1, 2) == pytest.approx(1.0 / 9.0, abs=1e-14)


class TestSelectionRules:
    def test_magnetic_mismatch_gives_zero(self):
        assert cg(1, 1, 1, 1, 2, 0) == 0.0
        assert threejm(1, 1, 1, 0, 1, 0) == 0.0

    def test_triangle_violation_gives_zero(self):
        assert cg(1, 0, 1, 0, 3, 0) == 0.0
        assert ninej(1, 1, 3, 1, 1, 1, 1, 1, 1) == 0.0

    def test_triangle_predicate(self):
        assert triangle(1, 1, 2)
        assert triangle(HALF, HALF, 0)
        assert not triangle(1, 1, 3)
        assert not triangle(HALF, HALF, HALF)  # parity obstruction

    def test_parity_mismatch_raises(self):
        with pytest.raises(InvalidArgumentError):
            cg(HALF, 0, HALF, HALF, 1, HALF)

    def test_m_out_of_range_raises(self):
        with pytest.raises(InvalidArgumentError):
            threejm(1, 2, 1, -2, 1, 0)

    @pytest.mark.parametrize(
        "symbol", [ninej, lambda *js: ninej_from_fbar(*js, 0.37)], ids=["ninej", "ninej_from_fbar"]
    )
    def test_negative_spin_in_a_ninej_raises(self, symbol):
        """A negative label raises as it does for a cg block, not a zero for a broken triangle."""
        with pytest.raises(InvalidArgumentError) as expected:
            cg_block(-1, 0, 1)
        with pytest.raises(InvalidArgumentError) as raised:
            symbol(-1, 0, 1, 0, 0, 0, 1, 0, 1)
        assert str(raised.value) == str(expected.value)


class TestAgainstFractionKernel:
    """The integer kernel must round exactly like the Fraction closed form."""

    @staticmethod
    def assert_same_bits(j1, m1, j2, m2, j, m):
        """One entry straight from the kernel, without building its block."""
        tj1, tm1, tj2, tm2, tj = (int(2 * x) for x in (j1, m1, j2, m2, j))
        (got,) = wigner._cg_values(tj1, tj2, tj, [(tm1, tm2)])
        assert got.hex() == cg_fraction(j1, m1, j2, m2, j, m).hex(), (j1, m1, j2, m2, j, m)

    def test_every_entry_up_to_spin_four(self):
        """Every entry with m = m1 + m2 of every block with j1, j2 <= 4, the reflected half included."""
        checked = 0
        for j1, j2 in itertools.product(spins_upto(4), repeat=2):
            for j in spins_upto(j1 + j2):
                if not triangle(j1, j2, j):
                    continue
                for m1, m2 in itertools.product(m_values(j1), m_values(j2)):
                    if abs(m1 + m2) <= j:
                        self.assert_same_bits(j1, m1, j2, m2, j, m1 + m2)
                        checked += 1
        assert checked == 7_809

    def test_block_path_every_entry_up_to_spin_four(self):
        """Every entry of every cg_block with j1, j2 <= 4, structural zeros included."""
        clear_cache()
        checked = 0
        for tj1, tj2 in itertools.product(range(9), repeat=2):
            for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                block = cg_block(HalfInt(tj1), HalfInt(tj2), HalfInt(tj))
                for (i1, i2, i), value in np.ndenumerate(block):
                    labels = (tj1, 2 * i1 - tj1, tj2, 2 * i2 - tj2, tj, 2 * i - tj)
                    if labels[1] + labels[3] != labels[5]:
                        assert value.hex() == (0.0).hex(), labels  # as cg_fraction gives there
                        continue
                    expected = cg_fraction(*(Fraction(t, 2) for t in labels))
                    assert value.hex() == expected.hex(), labels
                    checked += 1
        assert checked == 7_809

    def test_seeded_entries_up_to_spin_twenty(self):
        rng = random.Random(5)
        checked = 0
        while checked < 200:
            tj1, tj2 = rng.randint(0, 40), rng.randint(0, 40)
            tj = rng.randrange(abs(tj1 - tj2), min(tj1 + tj2, 40) + 1, 2)
            tm1, tm2 = rng.randrange(-tj1, tj1 + 1, 2), rng.randrange(-tj2, tj2 + 1, 2)
            if abs(tm1 + tm2) > tj:
                continue
            half = [Fraction(t, 2) for t in (tj1, tm1, tj2, tm2, tj, tm1 + tm2)]
            self.assert_same_bits(*half)
            checked += 1

    # (2j1, 2m1, 2j2, 2m2, 2j) whose sum vanishes: two by parity (m1 = m2 = 0,
    # j1 + j2 + j odd), two by exchange (j1 = j2, m1 = m2, 2j1 - j odd), and
    # twelve with no symmetry behind them, found by scanning 2j1, 2j2 <= 40
    _vanishing = [
        (20, 0, 20, 0, 18),
        (8, 0, 12, 0, 6),
        (13, 3, 13, 3, 24),
        (40, -2, 40, -2, 78),
        (27, 7, 27, 21, 34),
        (33, 31, 39, 13, 58),
        (29, 5, 32, -10, 29),
        (25, -3, 22, -12, 31),
        (15, -3, 14, 0, 13),
        (39, -5, 37, -1, 52),
        (20, -10, 11, 5, 11),
        (22, 16, 29, -5, 31),
        (24, 16, 6, 4, 28),
        (30, -16, 33, -7, 43),
        (16, 4, 8, 2, 22),
        (26, 24, 38, -12, 38),
    ]

    def test_seeded_entries_and_vanishing_sums_up_to_spin_twenty(self):
        """1,500 seeded entries with 2j1, 2j2 <= 40 and any 2j up to 2j1 + 2j2,
        and the entries whose sum vanishes, which must be +0.0 as cg_fraction gives."""
        rng = random.Random(17)
        sample = []
        while len(sample) < 1_500:
            tj1, tj2 = rng.randint(0, 40), rng.randint(0, 40)
            tj = rng.randrange(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
            tm1, tm2 = rng.randrange(-tj1, tj1 + 1, 2), rng.randrange(-tj2, tj2 + 1, 2)
            if abs(tm1 + tm2) <= tj:
                sample.append((tj1, tm1, tj2, tm2, tj))
        for labels in sample + self._vanishing:
            tj1, tm1, tj2, tm2, tj = labels
            (got,) = wigner._cg_values(tj1, tj2, tj, [(tm1, tm2)])
            expected = cg_fraction(*(Fraction(t, 2) for t in (tj1, tm1, tj2, tm2, tj, tm1 + tm2)))
            assert got.hex() == expected.hex(), labels
            if labels in self._vanishing:
                assert expected == 0.0, labels


class TestAgainstSympy:
    def test_cg_random_sample(self):
        rng = random.Random(7)
        spins = spins_upto(Fraction(7, 2))
        checked = 0
        while checked < 120:
            j1, j2 = rng.choice(spins), rng.choice(spins)
            j = rng.choice(spins)
            if not triangle(j1, j2, j):
                continue
            m1 = rng.choice(list(m_values(j1)))
            m2 = rng.choice(list(m_values(j2)))
            m = m1 + m2
            if abs(m) > j:
                continue
            assert cg(j1, m1, j2, m2, j, m) == pytest.approx(
                sympy_cg(j1, m1, j2, m2, j, m), abs=1e-13
            )
            checked += 1

    def test_threejm_random_sample(self):
        rng = random.Random(11)
        spins = spins_upto(3)
        checked = 0
        while checked < 80:
            j1, j2, j3 = (rng.choice(spins) for _ in range(3))
            if not triangle(j1, j2, j3):
                continue
            m1 = rng.choice(list(m_values(j1)))
            m2 = rng.choice(list(m_values(j2)))
            m3 = -(m1 + m2)
            if abs(m3) > j3:
                continue
            assert threejm(j1, m1, j2, m2, j3, m3) == pytest.approx(
                sympy_3jm(j1, m1, j2, m2, j3, m3), abs=1e-13
            )
            checked += 1

    def test_ninej_sample(self):
        cases = [
            (1, 1, 1, 1, 1, 1, 1, 1, 2),
            (HALF, HALF, 1, HALF, HALF, 1, 1, 1, 0),
            (1, HALF, HALF, HALF, 1, HALF, HALF, HALF, 1),
            (2, 1, 1, 1, 1, 1, 1, 1, 1),
            (Fraction(3, 2), HALF, 1, HALF, HALF, 1, 1, 1, 2),
        ]
        for js in cases:
            assert ninej(*js) == pytest.approx(sympy_9j(*js), abs=1e-13)

    def test_ninej_brute_magnetic_sum(self):
        js = (1, HALF, HALF, HALF, 1, HALF, HALF, HALF, 1)
        assert ninej(*js) == pytest.approx(brute_ninej(*js), abs=1e-13)

    def test_ninej_seeded_sample_up_to_spin_four(self):
        """Twenty seeded arrays with every 2j <= 8 whose six triads obey the triangle rule."""
        rng = random.Random(24)

        def third(t1, t2):
            return [t for t in range(abs(t1 - t2), min(t1 + t2, 8) + 1, 2)]

        cases = []
        while len(cases) < 20:
            t1, t2, t4, t5 = (rng.randint(0, 8) for _ in range(4))
            t3, t6, t7, t8 = (rng.choice(third(*pair)) for pair in ((t1, t2), (t4, t5), (t1, t4), (t2, t5)))
            closing = [t for t in third(t7, t8) if t in third(t3, t6)]
            if closing:
                cases.append((t1, t2, t3, t4, t5, t6, t7, t8, rng.choice(closing)))
        assert max(map(max, cases)) == 8
        for twice in cases:
            js = [Fraction(t, 2) for t in twice]
            assert ninej(*js) == pytest.approx(sympy_9j(*js), abs=1e-13), twice


def _forbid_path_search(monkeypatch):
    """Make every einsum path search raise, in numpy's namespace and in the module where einsum looks it up."""

    def refuse(*args, **kwargs):
        raise AssertionError("einsum searched for a contraction path")

    try:
        einsumfunc = importlib.import_module("numpy._core.einsumfunc")
    except ImportError:  # numpy 1
        einsumfunc = importlib.import_module("numpy.core.einsumfunc")
    for module in (np, einsumfunc):
        monkeypatch.setattr(module, "einsum_path", refuse)


class TestNinejNetwork:
    """The 9-j contracts on one fixed path of pairwise products, with no path search."""

    def test_ninej_searches_no_path(self, monkeypatch):
        _forbid_path_search(monkeypatch)
        js = (Fraction(3, 2), HALF, 1, HALF, HALF, 1, 1, 1, 2)
        assert ninej(*js) == pytest.approx(sympy_9j(*js), abs=1e-13)
        assert ninej(*[4] * 9) == pytest.approx(sympy_9j(*[4] * 9), abs=1e-13)

    def test_ninej_from_fbar_searches_no_path(self, monkeypatch):
        """From a cold cache, the substituted 9-j and the tables it builds run no path search."""
        js = (1, 1, 1, 1, 1, 1, 1, 1, 2)
        clear_cache()
        _forbid_path_search(monkeypatch)
        try:
            cold = ninej_from_fbar(*js, 0.37)
            assert ninej_from_fbar(*js, 0.37) == cold
        finally:
            clear_cache()
        assert cold.residual <= 1e-10


class TestStructure:
    def test_condon_shortley_positivity(self):
        """The stretched coefficient (j1 j1, j2 j-j1 | j j) is positive."""
        for j1 in spins_upto(2):
            for j2 in spins_upto(2):
                j = abs(j1 - j2)
                while j <= j1 + j2:
                    if abs(j - j1) <= j2:
                        assert cg(j1, j1, j2, j - j1, j, j) > 0
                    j += 1

    def test_threejm_column_permutation_signs(self):
        even = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
        odd = [(1, 0, 2), (0, 2, 1), (2, 1, 0)]
        spins = spins_upto(Fraction(3, 2))
        for j1, j2, j3 in itertools.product(spins, repeat=3):
            if not triangle(j1, j2, j3):
                continue
            sign = (-1) ** int(j1 + j2 + j3)
            for m1 in m_values(j1):
                for m2 in m_values(j2):
                    m3 = -(m1 + m2)
                    if abs(m3) > j3:
                        continue
                    base = threejm(j1, m1, j2, m2, j3, m3)
                    cols = [(j1, m1), (j2, m2), (j3, m3)]
                    for perm in even:
                        a, b, c = (cols[i] for i in perm)
                        assert threejm(a[0], a[1], b[0], b[1], c[0], c[1]) == pytest.approx(
                            base, abs=1e-14
                        )
                    for perm in odd:
                        a, b, c = (cols[i] for i in perm)
                        assert threejm(a[0], a[1], b[0], b[1], c[0], c[1]) == pytest.approx(
                            sign * base, abs=1e-14
                        )

    def test_orthogonality_verifier(self):
        report = verify_cg_orthogonality(Fraction(5, 2))
        assert report.passed
        assert report.max_residual < 1e-12


class TestLoweringConstruction:
    def test_agrees_with_closed_form(self):
        report = verify_cg_against_lowering(3)
        assert report.passed
        assert report.max_residual <= 1e-12

    def test_table_entries_match_direct_calls(self):
        table = cg_lowering_table(1, HALF)
        for (tm1, tm2, tj, tm), value in table.items():
            direct = cg(1, Fraction(tm1, 2), HALF, Fraction(tm2, 2), Fraction(tj, 2), Fraction(tm, 2))
            assert value == pytest.approx(direct, abs=1e-13)

    def test_three_oracles_agree(self):
        """J^2 eigenvectors, lowering and sympy on every block with 2j1, 2j2 <= 6, on the subspaces of fixed m.

        The lowering table names every state of every subspace, the oracle is
        zero in the padding, and every entry of a cg block off m = m1 + m2 is zero.
        """
        for tj1, tj2 in itertools.product(range(7), repeat=2):
            labels, values, off = wigner._fixed_m_cg(tj1, tj2)
            _, m1s, js = labels  # the 2m1 and 2j of each subspace's states, [m, k]
            casimir = wigner._casimir_vectors(tj1, tj2, labels)
            lowering = cg_lowering_table(Fraction(tj1, 2), Fraction(tj2, 2))
            visited = np.zeros(casimir.shape, dtype=bool)
            for (tm1, tm2, tj, tm), value in lowering.items():
                m = (tm + tj1 + tj2) // 2
                at = (m, (tm1 - m1s[m, 0]) // 2, (tj - js[m, 0]) // 2)
                visited[at] = True
                expected = sympy_cg(*(Fraction(t, 2) for t in (tj1, tm1, tj2, tm2, tj, tm)))
                assert casimir[at] == pytest.approx(expected, abs=1e-14), (tj1, tm1, tj2, tm2, tj)
                assert value == pytest.approx(expected, abs=1e-13), (tj1, tm1, tj2, tm2, tj)
            real = js <= tj1 + tj2
            assert (visited == real[:, :, None] & real[:, None, :]).all()
            assert not casimir[~visited].any()  # the padding
            assert not values[~visited].any()
            assert not off.any()  # m != m1 + m2


def _planted_off_m(block):
    """block with 1e-6 at [0, 0, 0]: m1 + m2 = -(j1 + j2) there, off m = -j for the mutated labels."""
    planted = block.copy()
    planted[0, 0, 0] = 1e-6
    return planted


class TestCasimirOracle:
    """The J^2 oracle owes nothing to the closed form: it catches sign and row errors and stays accurate."""

    @pytest.mark.parametrize("labels", [(4, 3, 5), (6, 2, 4), (4, 4, 0)])
    @pytest.mark.parametrize(
        "mutation",
        [
            pytest.param(lambda block: -block, id="negated-block"),
            pytest.param(lambda block: np.where(block == block.flat[np.flatnonzero(block)[-2]], -block, block), id="negated-entry"),
            pytest.param(lambda block: block[[1, 0, *range(2, len(block))]], id="swapped-m1-rows"),
            pytest.param(_planted_off_m, id="off-m-entry"),
        ],
    )
    def test_mutated_closed_form_fails(self, monkeypatch, labels, mutation):
        """A corrupted canonical block fails its pair and, read through the exchange symmetry, the swapped pair."""
        closed_form = wigner._cg_block

        def mutated(tj1, tj2, tj):
            block = closed_form(tj1, tj2, tj)
            return mutation(block) if (tj1, tj2, tj) == labels else block

        monkeypatch.setattr(wigner, "_cg_block", mutated)
        report = verify_cg_against_lowering(3)
        failed = [check.name for check in report.checks if not check.passed]
        pairs = sorted({labels[:2], labels[1::-1]})  # 2j1 major, as the checks run
        assert failed == [f"lowering_agreement_2j1_{tj1}_2j2_{tj2}" for tj1, tj2 in pairs]

    def test_within_a_few_roundings_up_to_spin_six(self):
        assert verify_cg_against_lowering(6).max_residual <= 1e-14

    def test_accurate_where_lowering_is_not(self):
        """The residual compares every entry of the cg blocks: those on the subspaces of fixed m, and zero off them."""
        for tj1, tj2 in [(15, 16), (20, 20)]:
            assert verify_cg_pair_lowering(Fraction(tj1, 2), Fraction(tj2, 2)).max_residual <= 1e-13, (tj1, tj2)

    def test_padding_keeps_every_bit(self, monkeypatch):
        """Each subspace with 2j1, 2j2 <= 28, diagonalized padded in its pair's stack, gets the vectors it gets alone.

        The padded rows and columns of its vectors are zeros.
        """
        eigh = np.linalg.eigh
        calls = []

        def recorded(stack):
            result = eigh(stack)
            calls.append((stack.copy(), result[1].copy()))  # the signs are fixed in place
            return result

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        checked = 0
        for tj1, tj2 in itertools.product(range(29), repeat=2):
            labels = wigner._fixed_m_labels(tj1, tj2)
            wigner._casimir_vectors(tj1, tj2, labels)
            (stack, vectors), = calls
            calls.clear()
            for m, n in enumerate(np.count_nonzero(labels[2] <= tj1 + tj2, axis=1)):
                alone = eigh(stack[m, :n, :n].copy())[1]
                assert vectors[m, :n, :n].tobytes() == alone.tobytes(), (tj1, tj2, m)
                assert not vectors[m, n:, :n].any() and not vectors[m, :n, n:].any(), (tj1, tj2, m)
                checked += 1
        assert checked == 29**3

    def test_cold_run_caches_only_closed_form_blocks(self):
        clear_cache()
        verify_cg_against_lowering(2)
        entries = list(default_table()._entries.items())
        # one entry per canonical triple, 2j1 >= 2j2: the swapped blocks are read from them
        assert len(entries) == sum(tj2 + 1 for tj1 in range(5) for tj2 in range(tj1 + 1))
        assert all(key[0] == "cg" and key[1] >= key[2] for key, _ in entries)
        clear_cache()
        for key, block in entries:
            assert block.tobytes() == wigner._cg_block(*key[1:]).tobytes()  # built again, cold


class TestCaching:
    def test_cache_transparency_bit_identical(self):
        """Each value read from a cold cache equals, bit for bit, the value read warm in another order."""
        # the 9-j builds the 3-jm and cg blocks that the other two read
        calls = [
            (cg, (1, 0, HALF, HALF, HALF, HALF)),
            (threejm, (HALF, HALF, 1, -1, HALF, HALF)),
            (ninej, (1, HALF, HALF, HALF, 1, HALF, HALF, HALF, 1)),
        ]
        cold = []
        for symbol, args in calls:
            clear_cache()
            cold.append(symbol(*args).hex())
        clear_cache()
        warm = [symbol(*args).hex() for symbol, args in reversed(calls)][::-1]
        assert default_table().hits >= 2  # cg and threejm found their blocks
        assert warm == cold
        assert [symbol(*args).hex() for symbol, args in calls] == cold
        assert all(value != (0.0).hex() for value in cold)

    def test_ninej_caches_blocks_only(self):
        """A 9-j caches the cg blocks under the 3-jm blocks it contracts, never its value; a failing triangle caches nothing."""
        clear_cache()
        assert ninej(1, 1, 3, 1, 1, 1, 1, 1, 1) == 0.0
        assert len(default_table()) == 0
        ninej(1, HALF, HALF, HALF, 1, HALF, HALF, HALF, 1)
        assert {key[0] for key in default_table()._entries} == {"cg"}
        assert all(key[1] >= key[2] for key in default_table()._entries)

    def test_hit_and_miss_counters(self):
        """Both orientations of a pair of spins, and the 3-jm symbols, read one canonical entry."""
        clear_cache()
        table = default_table()
        args = (1, 0, HALF, HALF, HALF, HALF)
        cg(*args)
        assert (table.hits, table.misses, len(table)) == (0, 1, 1)
        cg(*args)
        assert (table.hits, table.misses) == (1, 1)
        cg(HALF, HALF, 1, 0, HALF, HALF)
        threejm(HALF, HALF, 1, 0, HALF, -HALF)
        assert (table.hits, table.misses, len(table)) == (3, 1, 1)
        assert list(table._entries) == [("cg", 2, 1, 1)]

    def test_load_rejects_conflicting_records(self, tmp_path):
        path = tmp_path / "table.dat"
        path.write_text("2 2 4 0 0 0 0.5\n2 2 4 0 0 0 0.5\n")  # a repeat is idempotent
        with pytest.raises(InvalidArgumentError):  # but one record leaves the block incomplete
            load_table(path)
        path.write_text("0 0 0 0 0 0 1\n0 0 0 0 0 0 1\n")
        loaded = load_table(path)
        assert list(loaded) == [(0, 0, 0)]
        assert loaded[0, 0, 0].tobytes() == cg_block(0, 0, 0).tobytes()
        path.write_text("0 0 0 0 0 0 1\n0 0 0 0 0 0 0.5\n")
        with pytest.raises(TableConflictError):
            load_table(path)

    def test_export_load_round_trip(self, tmp_path):
        """The file holds the records of the blocks it is given, whatever the cache holds."""
        triples = [(2, 2, 4), (3, 2, 1), (2, 2, 6), (2, 2, 4)]  # (2, 2, 6) breaks the triangle rule
        clear_cache()
        cg(0, 0, 0, 0, 0, 0)  # a cached block that was not asked for
        path = tmp_path / "table.dat"
        count = export_table(triples, path)
        assert count == 9 + 6
        # bit identical via 17 digits, in label order, one read-only block per admissible triple
        loaded = load_table(path)
        assert sorted(loaded) == [(2, 2, 4), (3, 2, 1)]
        for twice_j, block in loaded.items():
            assert block.tobytes() == cg_block(*(Fraction(t, 2) for t in twice_j)).tobytes()
            assert not block.flags.writeable
        lines = path.read_text().splitlines()
        assert lines == sorted(lines, key=lambda line: [int(x) for x in line.split()[:6]])

    def test_load_keeps_blocks_beyond_the_cache_bound(self, tmp_path, monkeypatch):
        """On a 64 KiB cache, a file of more block bytes than that loads back whole and bit for bit."""
        monkeypatch.setattr(wigner, "_CACHE_BOUND", 64 << 10)
        triples = [(t1, t2, t) for t1 in range(9) for t2 in range(9) for t in range(abs(t1 - t2), t1 + t2 + 1, 2)]
        path = tmp_path / "table.dat"
        export_table(triples, path)
        loaded = load_table(path)
        assert sorted(loaded) == sorted(triples)
        assert sum(block.nbytes for block in loaded.values()) > wigner._CACHE_BOUND
        for twice_j, block in loaded.items():
            assert block.tobytes() == cg_block(*(Fraction(t, 2) for t in twice_j)).tobytes(), twice_j

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("2 2 4 0 0\n")
        with pytest.raises(InvalidArgumentError):
            load_table(path)

    @pytest.mark.parametrize(
        "record",
        [
            pytest.param("0 0 4 0 0 0 1", id="j-above-j1-plus-j2"),
            pytest.param("2 0 0 0 0 0 1", id="j-below-j1-minus-j2"),
            pytest.param("0 0 0 0 0 0 1e999", id="infinite"),
            pytest.param("0 0 0 0 0 0 nan", id="nan"),
            pytest.param("0 0 0 0 0 0 one", id="value-not-a-number"),
            pytest.param("0 0 zero 0 0 0 1", id="label-not-a-number"),
            pytest.param("2 2 4 1 0 1 0.5", id="parity-mismatch"),
            pytest.param("2 2 4 4 0 4 0.5", id="m1-above-j1"),
            pytest.param("2 2 4 2 0 0 0.5", id="m-not-m1-plus-m2"),
            pytest.param("-2 0 2 0 0 0 1", id="negative-j"),
        ],
    )
    def test_load_rejects_bad_record(self, tmp_path, record):
        path = tmp_path / "bad.dat"
        path.write_text(record + "\n")
        with pytest.raises(InvalidArgumentError):
            load_table(path)


class TestBlocks:
    """Blocks are cached once, read-only, and take only valid spins."""

    def test_blocks_are_cached_and_read_only(self):
        clear_cache()
        first = cg_block(1, HALF, HALF)
        assert cg_block(1, HALF, HALF) is first
        assert len(default_table()) == 1
        with pytest.raises(ValueError):
            first[0, 0, 0] = 1.0

    def test_swapped_blocks_equal_the_kernels_bit_for_bit(self):
        """Every block with 2j1 < 2j2 <= 20, read from its canonical block, is the kernel's own for that orientation.

        The entries come from _cg_values in the swapped orientation, and no
        entry is -0.0, which a negation written -block would leave.
        """
        checked = 0
        for tj2 in range(21):
            for tj1 in range(tj2):
                for tj in range(tj2 - tj1, tj1 + tj2 + 1, 2):
                    pairs = [
                        (tm1, tm2)
                        for tm1 in range(-tj1, tj1 + 1, 2)
                        for tm2 in range(-tj2, tj2 + 1, 2)
                        if abs(tm1 + tm2) <= tj
                    ]
                    tm1s, tm2s = np.array(pairs).T
                    expected = np.zeros((tj1 + 1, tj2 + 1, tj + 1))
                    expected[(tm1s + tj1) // 2, (tm2s + tj2) // 2, (tm1s + tm2s + tj) // 2] = wigner._cg_values(
                        tj1, tj2, tj, pairs
                    )
                    block = wigner._cg_block(tj1, tj2, tj)
                    assert block.tobytes() == expected.tobytes(), (tj1, tj2, tj)
                    assert not np.signbit(block[block == 0.0]).any(), (tj1, tj2, tj)
                    assert block.flags.c_contiguous and not block.flags.writeable
                    checked += 1
        assert checked == 1_540

    def test_negative_spin_rejected(self):
        with pytest.raises(InvalidArgumentError):
            cg_block(-1, 0, 1)

    def test_scalars_equal_their_block_entries(self):
        """Every cg and 3-jm label with 2j1, 2j2, 2j <= 6, in both orientations, zeros included as +0.0."""
        for tj1, tj2, tj in itertools.product(range(7), repeat=3):
            spins = (HalfInt(tj1), HalfInt(tj2), HalfInt(tj))
            cg_entries, threejm_entries = cg_block(*spins), threejm_block(*spins)
            for (i1, tm1), (i2, tm2), (i, tm) in itertools.product(
                *(enumerate(range(-t, t + 1, 2)) for t in (tj1, tj2, tj))
            ):
                labels = (spins[0], HalfInt(tm1), spins[1], HalfInt(tm2), spins[2], HalfInt(tm))
                assert cg(*labels).hex() == float(cg_entries[i1, i2, i]).hex(), labels
                assert threejm(*labels).hex() == float(threejm_entries[i1, i2, i]).hex(), labels

    def test_scalars_read_the_canonical_block_only(self, monkeypatch):
        """A scalar cg or 3-jm reads one entry of a canonical block; it never derives a 3-jm block or a swapped cg block."""
        read = []
        canonical = wigner._cg_block

        def spy(tj1, tj2, tj):
            read.append((tj1, tj2, tj))
            return canonical(tj1, tj2, tj)

        def refuse(*labels):
            raise AssertionError(f"a scalar read derived the 3-jm block {labels}")

        monkeypatch.setattr(wigner, "_cg_block", spy)
        monkeypatch.setattr(wigner, "_threejm_block", refuse)
        assert cg(HALF, HALF, 1, 0, HALF, HALF) == pytest.approx(0.5773502691896257, abs=1e-15)
        assert threejm(HALF, HALF, 1, -1, HALF, HALF) == pytest.approx(-0.5773502691896257, abs=1e-15)
        assert threejm(1, 1, 1, -1, 0, 0) == pytest.approx(0.5773502691896257, abs=1e-15)
        assert read == [(2, 1, 1), (2, 1, 1), (2, 2, 0)]


class TestSharedCache:
    def test_bounded_lru(self, monkeypatch):
        """The bound counts the bytes of the arrays: the least recently used go first."""
        monkeypatch.setattr(wigner, "_CACHE_BOUND", 4096)
        table = CouplingTable()

        def block(i, size=1024):
            return lambda: np.full(size // 8, float(i))

        for i in range(4):
            table.get(("value", i), block(i))
        assert (len(table), table.bytes, table.evictions, table.misses) == (4, 4096, 0, 4)
        assert table.get(("value", 0), block(-1))[0] == 0.0  # read recently, so kept
        table.get(("value", 4), block(4))
        assert (len(table), table.bytes, table.evictions) == (4, 4096, 1)
        assert table.get(("value", 0), block(-1))[0] == 0.0
        assert table.misses == 5
        assert table.get(("value", 1), block(-1))[0] == -1.0  # the oldest was evicted
        assert table.misses == 6
        assert table.get(("value", 3), block(-1))[0] == 3.0  # so only ("value", 2) made room
        assert table.evictions == 2
        wide = table.get(("value", 5), block(5, size=8192))  # larger than the bound
        assert wide.nbytes == 8192 and wide[0] == 5.0 and not wide.flags.writeable
        assert ("value", 5) not in table._entries
        assert (len(table), table.bytes, table.evictions, table.misses) == (4, 4096, 2, 7)
        table.clear()
        assert (len(table), table.bytes, table.evictions, table.hits, table.misses) == (0, 0, 0, 0, 0)

    def test_results_do_not_depend_on_the_cache(self, monkeypatch):
        """Tables rebuilt after an eviction from a 64 KiB cache equal their first build bit for bit.

        Reports on different bounds, with and without a plan, are compared
        in test_report_does_not_depend_on_the_plan.
        """
        from wracah.urcoupling import cg_ur_table, fbar_table

        monkeypatch.setattr(wigner, "_CACHE_BOUND", 64 << 10)
        clear_cache()
        first = [build(3, 2, 4, 0.37).tobytes() for build in (cg_ur_table, fbar_table)]
        for r in (1, 2, 3):  # enough tables to evict the first ones
            for j in range(7):
                cg_ur_table(3, 3, j, r)
        misses = default_table().misses
        again = [build(3, 2, 4, 0.37).tobytes() for build in (cg_ur_table, fbar_table)]
        assert default_table().misses > misses  # built again, not read back
        assert again == first

    def test_holding_keeps_planned_entries_to_their_last_step(self, monkeypatch):
        """A planned entry is held apart from the LRU, never in it, and dropped at the end of its last step.

        Keys the plan does not name stay plain LRU entries within the bound.
        """
        monkeypatch.setattr(wigner, "_CACHE_BOUND", 2048)
        table = CouplingTable()
        builds = []

        def block(i):
            return lambda: builds.append(i) or np.full(128, float(i))  # 1 KiB

        planned = {("value", 0), ("value", 1)}
        with table.holding({("value", 0): 1, ("value", 1): 0}):
            for i in range(5):
                table.get(("value", i), block(i))
                assert not planned & table._entries.keys()
            assert (table.held_bytes, table.held_peak) == (2048, 2048)
            assert table.evictions == 1 and table.bytes == 2048  # ("value", 2) made room for ("value", 4)
            assert list(table._entries) == [("value", 3), ("value", 4)] and len(table) == 4
            table.end_step()  # the last step of ("value", 1)
            assert table.get(("value", 0), block(-1))[0] == 0.0  # still held
            assert table.get(("value", 1), block(1))[0] == 1.0  # dropped, built again, unplanned now
            assert table.held_bytes == 1024 and ("value", 1) in table._entries and table.evictions == 2
            table.end_step()
            assert table.held_bytes == 0 and ("value", 0) not in table._entries
        assert builds == [0, 1, 2, 3, 4, 1]
        assert table.held_peak == 2048 and len(table._held) == 0 and table.bytes == 2048
        with table.holding({("value", 5): 0}):
            table.get(("value", 5), block(5))
            assert ("value", 5) not in table._entries and table.held_bytes == 1024
        assert table.held_bytes == 0 and len(table) == 2  # the block's end drops it

    @pytest.mark.parametrize("bound", [None, 16 << 10], ids=["default-bound", "16KiB"])
    @pytest.mark.parametrize("max_j, r", [("2", "1"), ("2", "0.37"), ("4", "1"), ("4", "0.37")])
    def test_report_builds_each_entry_once(self, monkeypatch, bound, max_j, r):
        """report builds each cg block, phase matrix, cg_ur and fbar table once, whatever the bound.

        Kernel calls (_cg_values) equal the distinct canonical blocks inside
        the triangle that the report reads, phase matrices built through the
        cache (_phases) the distinct phase keys, and the builds of every kind
        its distinct keys.
        """
        from click.testing import CliRunner

        from wracah import su2
        from wracah.cli import main

        if bound is not None:
            monkeypatch.setattr(wigner, "_CACHE_BOUND", bound)
        reads, builds, calls = set(), Counter(), Counter()
        building = []
        get, cg_values, phases = wigner.CouplingTable.get, wigner._cg_values, su2._phases

        def counted_get(self, key, build):
            reads.add(key)

            def counted():
                builds[key[0]] += 1
                building.append(key[0])
                try:
                    return build()
                finally:
                    building.pop()

            return get(self, key, counted)

        def counted_values(*args):
            calls["kernel"] += 1
            return cg_values(*args)

        def counted_phases(*args):
            calls["phase"] += building[-1:] == ["phase"]  # basis_transform_matrix builds outside the cache
            return phases(*args)

        monkeypatch.setattr(wigner.CouplingTable, "get", counted_get)
        monkeypatch.setattr(wigner, "_cg_values", counted_values)
        monkeypatch.setattr(su2, "_phases", counted_phases)
        clear_cache()
        result = CliRunner().invoke(main, ["report", "--max-j", max_j, "--r", r, "--seed", "3"])
        assert result.exit_code == 0, result.output
        distinct = Counter(key[0] for key in reads)
        assert set(distinct) == {"cg", "phase", "cg_ur", "fbar"}
        assert builds == distinct
        assert calls["kernel"] == sum(1 for key in reads if key[0] == "cg" and wigner._triangle_twice(*key[1:]))
        assert calls["phase"] == distinct["phase"]
        assert len(default_table()._held) == 0  # nothing held after the report

    @pytest.mark.parametrize("max_j, r", [("2", "1"), ("2", "0.37"), ("4", "1"), ("4", "0.37")])
    def test_report_plan_is_exact(self, monkeypatch, max_j, r):
        """report holds every entry it reads and drops each at the end of the last step that reads it.

        So it evicts nothing and leaves nothing in the cache.  A plan that
        named a table's inputs at every read of the table held them past
        their last read; one that left out the cg blocks of the magnetic 9-j
        reference left them in the LRU.
        """
        from click.testing import CliRunner

        from wracah.cli import main

        last_read, dropped = {}, {}
        get, drop = wigner.CouplingTable.get, wigner.CouplingTable._drop

        def traced_get(self, key, build):
            last_read[key] = self._step
            return get(self, key, build)

        def traced_drop(self, keys):
            keys = list(keys)
            dropped.update(dict.fromkeys(keys, self._step))  # the block's end drops at the step after the last
            drop(self, keys)

        monkeypatch.setattr(wigner.CouplingTable, "get", traced_get)
        monkeypatch.setattr(wigner.CouplingTable, "_drop", traced_drop)
        clear_cache()
        result = CliRunner().invoke(main, ["report", "--max-j", max_j, "--r", r, "--seed", "3"])
        assert result.exit_code == 0, result.output
        assert last_read.keys() == dropped.keys()  # every entry read was held
        assert {key: (last_read[key], step) for key, step in dropped.items() if step != last_read[key]} == {}
        table = default_table()
        assert (len(table), table.evictions) == (0, 0)

    def test_report_does_not_depend_on_the_plan(self, monkeypatch):
        """Reports are equal byte for byte planned and with an empty plan, on a 1 GiB, the default and a 64 KiB bound.

        An empty plan puts every read on the plain LRU.  A planned report
        evicts nothing on any bound; the 64 KiB run without a plan evicts,
        and rebuilds what it evicted.
        """
        from click.testing import CliRunner

        from wracah.cli import main

        holding = wigner.CouplingTable.holding
        bounds = (1 << 30, wigner._CACHE_BOUND, 64 << 10)
        runs = [["report", "--max-j", "3", "--r", "0.37", "--seed", "2"]]
        runs += [["report", "--max-j", "4", "--r", r, "--seed", "3"] for r in ("1", "0.37")]
        for args in runs:
            outputs = []
            for planned in (True, False):
                with monkeypatch.context() as patch:
                    if not planned:
                        patch.setattr(wigner.CouplingTable, "holding", lambda self, plan: holding(self, {}))
                    for bound in bounds:
                        patch.setattr(wigner, "_CACHE_BOUND", bound)
                        clear_cache()
                        result = CliRunner().invoke(main, args)
                        assert result.exit_code == 0, result.output
                        outputs.append(result.output)
                        table = default_table()
                        assert (table.held_peak > 0) == planned, (args, bound)
                        assert table.bytes <= bound
                        if planned or bound == bounds[0]:
                            assert table.evictions == 0, (args, planned, bound)
            assert table.evictions > 0, args  # the 64 KiB run without a plan rebuilt what it evicted
            assert all(output == outputs[0] for output in outputs), args

    def test_threads_share_one_table(self):
        """Concurrent lookups lose no counter update and see the cold values."""
        labels = [tuple(Fraction(t, 2) for t in tj) for tj in itertools.product(range(5), repeat=3)]
        cold = {js: cg_block(*js).copy() for js in labels}
        clear_cache()
        table = default_table()
        results = []
        calls_per_thread = 3 * len(labels)

        def work():
            for _ in range(3):
                for js in labels:
                    results.append((js, cg_block(*js)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 6 * calls_per_thread
        assert table.hits + table.misses == 6 * calls_per_thread
        assert len(table) == sum(1 for js in labels if js[0] >= js[1])  # canonical blocks only
        assert all(block.tobytes() == cold[js].tobytes() for js, block in results)
