"""Scalar arithmetic at a root of unity.

q-brackets and q-factorials for q = exp(2*pi*i/k), exact unit phases kept as
rational turns, and half-integer bookkeeping for angular momentum labels.
Fractional powers q^x use the principal branch exp(2*pi*i*x/k); this is the
one choice under which the analytic eigenvectors of the cyclic shift
reproduce its claimed eigenvalues for every real family parameter, which the
verification suites exercise directly.

The scalar functions work on integer turns: an argument is read once as an
integer pair (numerator, denominator), the turn of a phase is formed from
integers and handed to `_turn_phase`, which reduces it by one gcd, and a
rational value such as alpha is rounded by one integer true division.  No
Fraction is built per call, and an unreduced pair gives the same bits as
the reduced one.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidArgumentError, InvalidOrderError

__all__ = [
    "HalfInt",
    "ToleranceRule",
    "EXACT_DENOMINATOR_LIMIT",
    "halfint_range",
    "all_spins",
    "integer_spins",
    "half_integer_spins",
    "q_power",
    "q_bracket",
    "q_factorial",
    "alpha_value",
    "alpha_phase",
    "check_label",
]

# Rational turns with denominators up to this bound take the exact path;
# anything finer (in practice: irrational family parameters stored as
# binary floats) falls back to one floating evaluation of exp.
EXACT_DENOMINATOR_LIMIT = 10**6


def _require_order(k) -> int:
    if not isinstance(k, numbers.Integral) or isinstance(k, bool) or k < 2:
        raise InvalidOrderError(f"order k must be an integer >= 2, got {k!r}")
    return int(k)


def _ratio(x) -> tuple[int, int]:
    """Exact rational value of x as Python integers (numerator, denominator > 0),
    not necessarily reduced.  Floats convert via their binary expansion."""
    if isinstance(x, HalfInt):
        return x.twice, 2
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise InvalidArgumentError(f"expected a real number, got {x!r}")
    if isinstance(x, numbers.Integral):
        return int(x), 1
    xf = float(x)
    if not math.isfinite(xf):
        raise InvalidArgumentError(f"expected a finite real number, got {x!r}")
    return xf.as_integer_ratio()


def _as_fraction(x) -> Fraction:
    """Exact rational value of x.  Floats convert via their binary expansion."""
    if isinstance(x, Fraction):
        return x
    return Fraction(*_ratio(x))


@dataclass(frozen=True, order=True)
class HalfInt:
    """Exact half-integer stored as twice its value."""

    twice: int

    @staticmethod
    def of(value) -> "HalfInt":
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, bool):
            raise InvalidArgumentError("booleans are not half-integers")
        if isinstance(value, numbers.Integral):
            return HalfInt(2 * int(value))
        frac = _as_fraction(value)
        doubled = 2 * frac
        if doubled.denominator != 1:
            raise InvalidArgumentError(f"{value!r} is not a half-integer")
        return HalfInt(int(doubled))

    @staticmethod
    def parse(text: str) -> "HalfInt":
        s = text.strip()
        try:
            if "/" in s:
                num, den = s.split("/", 1)
                return HalfInt.of(Fraction(int(num), int(den)))
            if "." in s or "e" in s.lower():
                return HalfInt.of(float(s))
            return HalfInt(2 * int(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidArgumentError(f"cannot parse {text!r} as a half-integer") from exc

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __float__(self) -> float:
        return self.twice / 2.0

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __add__(self, other):
        return HalfInt(self.twice + HalfInt.of(other).twice)

    def __sub__(self, other):
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __neg__(self):
        return HalfInt(-self.twice)

    def __abs__(self):
        return HalfInt(abs(self.twice))


def halfint_range(lo, hi) -> list[HalfInt]:
    """Half-integers from lo to hi inclusive, in steps of 1.

    The step is a whole unit, so from 0 this yields integer spins only; the
    spin grids below name what they hold.
    """
    lo, hi = HalfInt.of(lo), HalfInt.of(hi)
    return [HalfInt(t) for t in range(lo.twice, hi.twice + 1, 2)]


def all_spins(max_j) -> list[HalfInt]:
    """Every spin 0, 1/2, 1, ..., max_j."""
    return [HalfInt(t) for t in range(HalfInt.of(max_j).twice + 1)]


def integer_spins(max_j) -> list[HalfInt]:
    """The integer spins 0, 1, 2, ... up to max_j."""
    return all_spins(max_j)[::2]


def half_integer_spins(max_j) -> list[HalfInt]:
    """The half-integer spins 1/2, 3/2, ... up to max_j."""
    return all_spins(max_j)[1::2]


@dataclass(frozen=True)
class ToleranceRule:
    """Absolute comparison threshold for verification checks."""

    abs_tol: float = 1e-10

    def __post_init__(self):
        if not 0 < self.abs_tol < math.inf:
            raise InvalidArgumentError("tolerances must be positive and finite")

    @staticmethod
    def for_order(k: int) -> "ToleranceRule":
        k = _require_order(k)
        base = 1e-10
        if k > 16:
            base *= (k / 16.0) ** 2
        return ToleranceRule(base)


def _turn_phase(num: int, den: int) -> complex:
    """exp(2*pi*i * num/den) for integers num and den > 0.

    The package's one conversion of exact turns, the sines of the
    sine-algebra structure constants included: the turn is reduced into
    [0, 1) by one gcd, quarter turns are exact, turns with a reduced
    denominator d up to EXACT_DENOMINATOR_LIMIT evaluate 2*pi*i*n/d from
    the integers, finer ones 2*pi*i*(n/d) from the correctly rounded
    quotient.  So the value depends on num mod den only.
    """
    g = math.gcd(num, den)
    d = den // g
    n = (num // g) % d
    if d > EXACT_DENOMINATOR_LIMIT:
        return cmath.exp(2j * math.pi * (n / d))
    if d == 1:
        return 1 + 0j
    if d == 2:
        return -1 + 0j
    if d == 4:
        return 1j if n == 1 else -1j
    return cmath.exp(2j * math.pi * n / d)


def q_power(x, k) -> complex:
    """Principal fractional power exp(2*pi*i*x/k) of the order-k root."""
    k = _require_order(k)
    num, den = _ratio(x)
    return _turn_phase(num, den * k)


def q_bracket(x, k) -> complex:
    """(1 - q^x) / (1 - q) with q = exp(2*pi*i/k).

    Reduces to 1 + q + ... + q^(n-1) at nonnegative integers n and vanishes
    exactly at multiples of k, where the numerator is an exact zero.
    """
    k = _require_order(k)
    num, den = _ratio(x)
    return (1 - _turn_phase(num, den * k)) / (1 - _turn_phase(1, k))


def q_factorial(n, k) -> complex:
    """[n]! = [1][2]...[n] with [0]! = 1, built as the literal product.

    Each factor has the bits of q_bracket(i, k).  For n >= k the product
    carries the exactly vanishing bracket [k] and the result is an exact
    complex zero, so only n < k may be divided by; the shift divides by
    [k-1]!, the largest of them.
    """
    k = _require_order(k)
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 0:
        raise InvalidArgumentError(f"q-factorial needs an integer n >= 0, got {n!r}")
    base = 1 - _turn_phase(1, k)
    value = complex(1.0)
    for i in range(1, int(n) + 1):
        value *= (1 - _turn_phase(i, k)) / base
    return value


def check_label(j, s, name: str = "s") -> int:
    """The family label s as an int; InvalidArgumentError unless s is an integer with 0 <= s <= 2j."""
    tj = HalfInt.of(j).twice
    if not isinstance(s, numbers.Integral) or isinstance(s, bool):
        raise InvalidArgumentError(f"{name} must be an integer, got {s!r}")
    s = int(s)
    if not 0 <= s <= tj:
        raise InvalidArgumentError(f"{name} must lie in 0..2j = {tj}, got {s}")
    return s


def _alpha_ratio(j, r, s) -> tuple[int, int, int]:
    """2j and the integers (a, b) with alpha = -j*r + s = a / b, b > 0."""
    tj, s = HalfInt.of(j).twice, check_label(j, s)
    p, q = _ratio(r)
    return tj, 2 * q * s - tj * p, 2 * q


def alpha_value(j, r, s: int) -> float:
    """The s-th eigenvalue exponent alpha = -j*r + s of a size-(2j+1) family."""
    _, a, b = _alpha_ratio(j, r, s)
    return a / b


def alpha_phase(j, r, s: int, m, sign: int = 1) -> complex:
    """exp(sign * 2*pi*i * alpha*m / (2j+1)) with alpha = -j*r + s.

    The turn sign*alpha*m/(2j+1) is formed from integers and rounded once,
    so rational family parameters give bit-stable phases.
    """
    j = HalfInt.of(j)
    tm = HalfInt.of(m).twice
    tj, a, b = _alpha_ratio(j, r, s)
    return _turn_phase(sign * a * tm, 2 * b * (tj + 1))
