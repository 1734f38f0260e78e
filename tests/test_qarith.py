"""Half-integer bookkeeping, exact phases, and q-deformed arithmetic."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wracah import (
    HalfInt,
    InvalidArgumentError,
    InvalidOrderError,
    ToleranceRule,
    UnitPhase,
    alpha_phase,
    alpha_value,
    halfint_range,
    phase_from_turn,
    q_bracket,
    q_factorial,
    q_factorial_is_degenerate,
    q_power,
    root_of_unity,
)

halfints = st.integers(min_value=-12, max_value=12).map(HalfInt)
orders = st.integers(min_value=2, max_value=9)
turns = st.fractions(min_value=-3, max_value=3, max_denominator=64)


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
    def test_exact_quarter_turns(self):
        assert UnitPhase.from_turn(Fraction(0)).to_complex() == 1
        assert UnitPhase.from_turn(Fraction(1, 2)).to_complex() == -1
        assert UnitPhase.from_turn(Fraction(1, 4)).to_complex() == 1j
        assert UnitPhase.from_turn(Fraction(3, 4)).to_complex() == -1j

    @given(turns, turns)
    def test_multiplication_adds_turns_mod_one(self, s, t):
        product = UnitPhase.from_turn(s) * UnitPhase.from_turn(t)
        assert product.turn == (s + t) % 1

    @given(turns)
    def test_unit_modulus(self, t):
        assert abs(abs(UnitPhase.from_turn(t).to_complex()) - 1.0) < 1e-15

    @given(turns, st.integers(min_value=-6, max_value=6))
    def test_power_and_conjugate(self, t, n):
        p = UnitPhase.from_turn(t)
        assert (p**n).turn == (n * t) % 1
        assert (p * p.conjugate()).turn == 0


class TestDeformedArithmetic:
    def test_root_of_unity_small_orders(self):
        assert root_of_unity(2).to_complex() == -1
        assert root_of_unity(4).to_complex() == 1j
        q3 = root_of_unity(3).to_complex()
        assert abs(q3 - complex(-0.5, math.sqrt(3) / 2)) < 1e-15

    @pytest.mark.parametrize("bad", [0, 1, -3, 2.5])
    def test_order_must_be_integer_at_least_two(self, bad):
        with pytest.raises(InvalidOrderError):
            root_of_unity(bad)

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


class TestToleranceRule:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            ToleranceRule(abs_tol=-1e-10)

    def test_for_order_scales_only_above_sixteen(self):
        base = ToleranceRule.for_order(9)
        assert base.abs_tol == 1e-10
        wide = ToleranceRule.for_order(32)
        assert wide.abs_tol == 1e-10 * 4.0

    def test_phase_from_turn_half(self):
        assert phase_from_turn(Fraction(1, 2)) == -1
