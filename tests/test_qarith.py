"""Half-integer bookkeeping, exact phases, and q-deformed arithmetic."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wracah import (
    HalfInt,
    InvalidArgumentError,
    InvalidOrderError,
    ToleranceRule,
    alpha_phase,
    alpha_value,
    halfint_range,
    q_bracket,
    q_factorial,
    q_factorial_is_degenerate,
    q_power,
)
from wracah.qarith import EXACT_DENOMINATOR_LIMIT, _turn_phase
from wracah.su2 import phase_matrix, shift_eigenvalue

from _oracles import (
    exact_fraction,
    fraction_alpha_phase,
    fraction_alpha_value,
    fraction_q_bracket,
    fraction_q_factorial,
    fraction_q_power,
    fraction_turn_phase,
    fraction_unit_phase,
)

halfints = st.integers(min_value=-12, max_value=12).map(HalfInt)
orders = st.integers(min_value=2, max_value=9)
turns = st.fractions(min_value=-3, max_value=3, max_denominator=64)
family_parameters = st.fractions(min_value=-3, max_value=3, max_denominator=10**7) | st.floats(
    min_value=-3, max_value=3
)


def bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


class TestHalfInt:
    def test_constructor_takes_twice_value(self):
        assert float(HalfInt(3)) == 1.5
        assert HalfInt(4) == HalfInt.of(2)

    @pytest.mark.parametrize(
        "text,twice",
        [("3/2", 3), ("1.5", 3), ("3", 6), ("0", 0), ("-1/2", -1), ("0.5", 1), ("2.0", 4)],
    )
    def test_parse_accepts_all_three_spellings(self, text, twice):
        assert HalfInt.parse(text).twice == twice

    @pytest.mark.parametrize("text", ["3/4", "0.3", "two", "", "1/0"])
    def test_parse_rejects_non_half_integers(self, text):
        with pytest.raises(InvalidArgumentError):
            HalfInt.parse(text)

    def test_of_rejects_quarter(self):
        with pytest.raises(InvalidArgumentError):
            HalfInt.of(0.25)

    @given(halfints, halfints)
    def test_addition_matches_fractions(self, a, b):
        assert (a + b).as_fraction == a.as_fraction + b.as_fraction

    @given(halfints)
    def test_string_round_trips(self, a):
        assert HalfInt.parse(str(a)) == a

    def test_ordering_and_integer_flag(self):
        assert HalfInt.of(Fraction(1, 2)) < HalfInt.of(1)
        assert HalfInt.of(2).is_integer
        assert not HalfInt.of(Fraction(3, 2)).is_integer

    def test_range_is_inclusive_with_unit_steps(self):
        values = halfint_range(HalfInt.of(Fraction(1, 2)), HalfInt.of(Fraction(5, 2)))
        assert [str(v) for v in values] == ["1/2", "3/2", "5/2"]


class TestUnitPhase:
    """Unit phases exp(2 pi i t) of rational turns t, through _turn_phase."""

    def test_exact_quarter_turns(self):
        assert _turn_phase(0, 1) == 1
        assert _turn_phase(1, 2) == -1
        assert _turn_phase(1, 4) == 1j
        assert _turn_phase(3, 4) == -1j

    @given(turns)
    def test_unit_modulus(self, t):
        assert abs(abs(_turn_phase(t.numerator, t.denominator)) - 1.0) < 1e-15


class TestTurnPhase:
    """The one switch from exact turns to complex numbers, against the
    Fraction path it replaced, bit for bit."""

    def test_quarter_turns_are_exact(self):
        for d, phases in ((1, [1 + 0j]), (2, [1 + 0j, -1 + 0j]), (4, [1 + 0j, 1j, -1 + 0j, -1j])):
            for n in range(-3 * d, 3 * d + 1):
                assert bits(_turn_phase(n, d)) == bits(phases[n % d])
        # unreduced spellings of the same turns
        assert bits(_turn_phase(6, 8)) == bits(-1j)
        assert bits(_turn_phase(-10, 40)) == bits(-1j)
        assert bits(_turn_phase(21, 14)) == bits(-1 + 0j)

    @pytest.mark.parametrize(
        "num, den", [(-1, 3), (-7, 12), (-13, 1), (-(10**6) - 4, 10**6 + 3), (-5, 10**9), (-(3**40), 7**20)]
    )
    def test_negative_numerators_reduce_like_fraction_mod_one(self, num, den):
        assert bits(_turn_phase(num, den)) == bits(fraction_turn_phase(Fraction(num, den)))

    @given(st.integers(min_value=-(10**8), max_value=10**8), st.integers(min_value=1, max_value=10**8))
    def test_matches_fraction_path(self, num, den):
        assert bits(_turn_phase(num, den)) == bits(fraction_turn_phase(Fraction(num, den)))

    def test_switch_sits_at_the_reduced_denominator(self):
        limit = EXACT_DENOMINATOR_LIMIT
        # 17 / (10**6 + 3) rounds differently through n/d and through 2*pi*n then /d
        assert cmath.exp(2j * math.pi * 17 / (limit + 3)) != cmath.exp(2j * math.pi * (17 / (limit + 3)))
        assert bits(_turn_phase(17, limit + 3)) == bits(cmath.exp(2j * math.pi * (17 / (limit + 3))))
        assert bits(_turn_phase(34, 2 * (limit + 3))) == bits(_turn_phase(17, limit + 3))
        # an unreduced denominator above the limit that reduces below it stays exact
        assert bits(_turn_phase(2 * 17, 2 * limit)) == bits(cmath.exp(2j * math.pi * 17 / limit))

    @pytest.mark.parametrize("r", [Fraction(1, 10**6 + 3), 0.37])
    def test_fine_family_parameters_take_the_float_path(self, r):
        j = HalfInt(6)
        float_only = 0
        for sign in (+1, -1):
            mat = phase_matrix(j, r, sign)
            for s in range(j.twice + 1):
                for col, tm in enumerate(range(-j.twice, j.twice + 1, 2)):
                    alpha = s - Fraction(j.twice, 2) * Fraction(r)
                    turn = sign * alpha * Fraction(tm, 2) / (j.twice + 1) % 1
                    if turn.denominator <= EXACT_DENOMINATOR_LIMIT:
                        assert turn == 0
                        continue
                    rounded = cmath.exp(2j * math.pi * float(turn))
                    assert bits(mat[s, col]) == bits(rounded)
                    assert bits(alpha_phase(j, r, s, HalfInt(tm), sign)) == bits(rounded)
                    exact = cmath.exp(2j * math.pi * turn.numerator / turn.denominator)
                    float_only += exact != rounded
        assert float_only > 0

    @given(
        st.fractions(min_value=-50, max_value=50, max_denominator=10**4)
        | st.floats(min_value=-50, max_value=50),
        st.integers(min_value=2, max_value=60),
    )
    def test_q_power_matches_fraction_path(self, x, k):
        assert bits(q_power(x, k)) == bits(fraction_q_power(x, k))

    @given(st.integers(min_value=0, max_value=24), family_parameters, st.sampled_from([1, -1]))
    def test_alpha_phase_matches_fraction_path(self, tj, r, sign):
        j = Fraction(tj, 2)
        for s in range(tj + 1):
            for tm in range(-tj, tj + 1, 2):
                got = alpha_phase(HalfInt(tj), r, s, HalfInt(tm), sign)
                assert bits(got) == bits(fraction_alpha_phase(j, r, s, Fraction(tm, 2), sign))

    @given(
        st.integers(min_value=-(10**7), max_value=10**7),
        st.integers(min_value=1, max_value=EXACT_DENOMINATOR_LIMIT),
    )
    def test_unit_phase_matches_fraction_path(self, n, d):
        assert bits(_turn_phase(n, d)) == bits(fraction_unit_phase(n, d))

    def test_unit_phase_above_the_limit_rounds_like_phase_from_turn(self):
        """Above the limit the phase is taken from the rounded quotient 17 / d, within an ulp of the exact route."""
        d = EXACT_DENOMINATOR_LIMIT + 3
        phase = _turn_phase(17, d)
        assert bits(phase) == bits(cmath.exp(2j * math.pi * (17 / d)))
        assert abs(phase - fraction_unit_phase(17, d)) < 1e-15


class TestDeformedArithmetic:
    def test_root_of_unity_small_orders(self):
        assert q_power(1, 2) == -1
        assert q_power(1, 4) == 1j
        q3 = q_power(1, 3)
        assert abs(q3 - complex(-0.5, math.sqrt(3) / 2)) < 1e-15

    @pytest.mark.parametrize("bad", [0, 1, -3, 2.5])
    def test_order_must_be_integer_at_least_two(self, bad):
        with pytest.raises(InvalidOrderError):
            q_power(1, bad)

    def test_bracket_endpoints_are_exact_zeros(self):
        for k in range(2, 10):
            assert q_bracket(0, k) == 0
            assert q_bracket(k, k) == 0

    def test_bracket_small_values(self):
        # [1] = 1 always, [2] at k=4 is 1 + i
        assert q_bracket(1, 5) == 1
        assert abs(q_bracket(2, 4) - (1 + 1j)) < 1e-15

    @given(st.integers(min_value=1, max_value=8), orders)
    def test_factorial_recurrence(self, n, k):
        assert abs(q_factorial(n, k) - q_factorial(n - 1, k) * q_bracket(n, k)) < 1e-14

    def test_factorial_degeneracy_flag(self):
        assert not q_factorial_is_degenerate(2, 3)
        assert q_factorial_is_degenerate(3, 3)
        assert q_factorial_is_degenerate(5, 3)
        assert q_factorial(3, 3) == 0

    @given(st.fractions(min_value=-4, max_value=4, max_denominator=32), orders)
    def test_q_power_matches_cmath(self, x, k):
        direct = cmath.exp(2j * math.pi * float(x) / k)
        assert abs(q_power(x, k) - direct) < 1e-12

    @given(orders, st.fractions(min_value=0, max_value=3, max_denominator=16))
    def test_q_power_periodicity(self, k, x):
        assert abs(q_power(x, k) - q_power(x + k, k)) < 1e-15


class TestAlphaPhases:
    @given(
        st.integers(min_value=1, max_value=8).map(HalfInt),
        st.fractions(min_value=-2, max_value=3, max_denominator=20),
    )
    def test_alpha_phase_matches_direct_exponential(self, j, r):
        dim = j.twice + 1
        for s in range(dim):
            alpha = alpha_value(j, r, s)
            assert abs(alpha - (s - float(j) * float(r))) < 1e-12
            for m in [HalfInt(t) for t in range(-j.twice, j.twice + 1, 2)]:
                direct = cmath.exp(2j * math.pi * alpha * float(m) / dim)
                assert abs(alpha_phase(j, r, s, m) - direct) < 1e-12
                assert abs(alpha_phase(j, r, s, m, sign=-1) - direct.conjugate()) < 1e-12

    def test_out_of_range_label_rejected(self):
        with pytest.raises(InvalidArgumentError):
            alpha_value(HalfInt.of(1), 0.0, 3)


# the orders and family parameters at which the integer-turn routes are
# pinned to the Fraction routes they replaced
TURN_ORDERS = [*range(2, 31), 101]
TURN_FAMILY = [
    0,
    1,
    0.37,
    -2.37,
    1 / 3,
    Fraction(1, 3),
    Fraction(7, 5),
    1e-7,
    2**60,
    np.int64(-3),
    np.float64(0.713),
    HalfInt(3),
    *(random.Random(seed).uniform(-3.0, 3.0) for seed in range(3)),
]


class TestIntegerTurns:
    """q-brackets, q-factorials and alpha from integer turns carry the bits
    of the Fraction routes, whatever the type of each argument."""

    @pytest.mark.parametrize("k", TURN_ORDERS)
    def test_brackets_match_fraction_route(self, k):
        xs = [
            *range(-k, 2 * k + 2),
            np.int64(3),
            np.int32(k - 1),
            Fraction(5, 3),
            Fraction(-7, 2),
            HalfInt(3),
            HalfInt(-5),
            *TURN_FAMILY,
        ]
        for x in xs:
            assert bits(q_bracket(x, k)) == bits(fraction_q_bracket(x, k)), x
            assert bits(q_power(x, k)) == bits(fraction_q_power(x, k)), x

    @pytest.mark.parametrize("k", TURN_ORDERS)
    def test_factorials_match_fraction_route(self, k):
        for n in [*range(k + 2), np.int64(k - 1)]:
            assert bits(q_factorial(n, k)) == bits(fraction_q_factorial(int(n), k)), n

    @pytest.mark.parametrize("k", TURN_ORDERS)
    def test_alpha_matches_fraction_route(self, k):
        """Each order below 101 takes every third family parameter, so each
        parameter meets ten orders."""
        tj = k - 1
        spins = [HalfInt(tj), Fraction(tj, 2)] + ([tj // 2, np.int64(tj // 2)] if tj % 2 == 0 else [])
        for r in TURN_FAMILY if k == 101 else TURN_FAMILY[k % 3 :: 3]:
            for s in (*range(k), np.int64(tj)):
                j = spins[s % len(spins)]
                assert alpha_value(j, r, s).hex() == fraction_alpha_value(j, r, s).hex(), (j, r, s)
                want = fraction_alpha_phase(Fraction(tj, 2), exact_fraction(r), int(s), 1, -1)
                assert bits(shift_eigenvalue(j, r, s)) == bits(want), (j, r, s)
                for tm, sign in ((-tj, 1), (1 - tj % 2, -1), (tj, -1)):
                    got = alpha_phase(j, r, s, HalfInt(tm), sign)
                    want = fraction_alpha_phase(Fraction(tj, 2), exact_fraction(r), int(s), Fraction(tm, 2), sign)
                    assert bits(got) == bits(want), (j, r, s, tm, sign)

    def test_arguments_are_still_checked(self):
        with pytest.raises(InvalidArgumentError):
            alpha_phase(HalfInt(2), 0.3, 3, HalfInt(0))
        with pytest.raises(InvalidArgumentError):
            q_bracket(float("nan"), 5)
        with pytest.raises(InvalidArgumentError):
            q_factorial(Fraction(3, 2), 5)
        with pytest.raises(InvalidOrderError):
            q_factorial(3, 1)
        with pytest.raises(InvalidOrderError):
            q_bracket(1, True)
        # an alpha beyond the float range raises as float() of the Fraction does
        with pytest.raises(OverflowError):
            alpha_value(HalfInt(4), 1e308, 0)


class TestToleranceRule:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            ToleranceRule(abs_tol=-1e-10)

    def test_for_order_scales_only_above_sixteen(self):
        base = ToleranceRule.for_order(9)
        assert base.abs_tol == 1e-10
        wide = ToleranceRule.for_order(32)
        assert wide.abs_tol == 1e-10 * 4.0
