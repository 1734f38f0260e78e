"""Independent reference implementations used only by the tests.

Everything here is deliberately written against a different stack than the
package: coupling coefficients come from sympy's symbolic evaluator, from
the closed form summed in Fractions or from highest weights and lowering, phases are raw cmath exponentials or
reduced Fraction turns, the deformed coupling symbols are direct
brute-force sums over magnetic quantum numbers, and the Fock generators are
dense Kronecker products.  None of the package's integer kernels, phase
bookkeeping, caching, einsum wiring or monomial operator algebra is reused,
so agreement is meaningful.

Three functions are exceptions: they reuse the package to pin an
evaluation order bit for bit.  `looped_sine_residuals` keeps the per-pair
loop of single `Operator` calls that the stacked sine-algebra check
replaced; `dense_sine_residuals` is the independent oracle for the same
identity.  `looped_angular_momentum_tensor` and `looped_tensor_transform`
keep the scalar `cg` loop and the tuple of components that the stacked
tensor builder replaced.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from sympy import Rational
from sympy.physics.wigner import clebsch_gordan, wigner_3j, wigner_9j

from wracah import HalfInt, Operator, cg, commutator, shift_op
from wracah.su2 import AngularSpace, _expected_ladder, basis_transform_matrix, restrict_to_angular


def fr(x) -> Fraction:
    """Coerce a test argument (int, float, str, Fraction) to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    return Fraction(x)


def _sym(x: Fraction):
    return Rational(x.numerator, x.denominator)


@lru_cache(maxsize=None)
def _sympy_cg_cached(j1, m1, j2, m2, j, m) -> float:
    return float(clebsch_gordan(_sym(j1), _sym(j2), _sym(j), _sym(m1), _sym(m2), _sym(m)))


def sympy_cg(j1, m1, j2, m2, j, m) -> float:
    return _sympy_cg_cached(fr(j1), fr(m1), fr(j2), fr(m2), fr(j), fr(m))


@lru_cache(maxsize=None)
def _sympy_3jm_cached(j1, m1, j2, m2, j3, m3) -> float:
    return float(wigner_3j(_sym(j1), _sym(j2), _sym(j3), _sym(m1), _sym(m2), _sym(m3)))


def sympy_3jm(j1, m1, j2, m2, j3, m3) -> float:
    return _sympy_3jm_cached(fr(j1), fr(m1), fr(j2), fr(m2), fr(j3), fr(m3))


def sympy_9j(j1, j2, j3, j4, j5, j6, j7, j8, j9) -> float:
    args = [_sym(fr(j)) for j in (j1, j2, j3, j4, j5, j6, j7, j8, j9)]
    return float(wigner_9j(*args))


def cg_fraction(j1, m1, j2, m2, j, m) -> float:
    """<j1 m1 j2 m2 | j m> from the Racah single sum accumulated in Fractions.

    The sum and the squared prefactor are exact rationals; float() of their
    product rounds once, and the square root rounds once more.
    """
    tj1, tm1, tj2, tm2, tj, tm = (int(2 * fr(x)) for x in (j1, m1, j2, m2, j, m))
    if tm1 + tm2 != tm or not abs(tj1 - tj2) <= tj <= tj1 + tj2 or (tj1 + tj2 + tj) % 2:
        return 0.0
    f = math.factorial
    a = (tj1 + tj2 - tj) // 2
    prefactor = Fraction(
        (tj + 1)
        * f(a)
        * f((tj1 - tj2 + tj) // 2)
        * f((-tj1 + tj2 + tj) // 2)
        * f((tj1 + tm1) // 2)
        * f((tj1 - tm1) // 2)
        * f((tj2 + tm2) // 2)
        * f((tj2 - tm2) // 2)
        * f((tj + tm) // 2)
        * f((tj - tm) // 2),
        f((tj1 + tj2 + tj) // 2 + 1),
    )
    t_min = max(0, (tj2 - tj - tm1) // 2, (tj1 - tj + tm2) // 2)
    t_max = min(a, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for t in range(t_min, t_max + 1):
        total += Fraction(
            (-1) ** t,
            f(t)
            * f(a - t)
            * f((tj1 - tm1) // 2 - t)
            * f((tj2 + tm2) // 2 - t)
            * f((tj - tj2 + tm1) // 2 + t)
            * f((tj - tj1 - tm2) // 2 + t),
        )
    if total == 0:
        return 0.0
    magnitude = math.sqrt(float(total * total * prefactor))
    return magnitude if total > 0 else -magnitude


def cg_lowering_table(j1, j2) -> dict[tuple[int, int, int, int], float]:
    """Coupling coefficients from highest weights and lowering, for small spins.

    For each total j the highest-weight vector is found by orthogonalizing
    against the already-built towers inside the m = j subspace, its sign is
    fixed by a positive component on the maximal m1, and the rest of the
    tower follows by applying the total lowering operator.  Keys are
    (2m1, 2m2, 2j, 2m).  Each lowering step adds rounding error, which grows
    geometrically with j: about 1e-12 at 2j1 = 2j2 = 12 and 1e-9 at 20.
    """
    tj1, tj2 = int(2 * fr(j1)), int(2 * fr(j2))
    d1, d2 = tj1 + 1, tj2 + 1

    def lower_single(td: int) -> np.ndarray:
        mat = np.zeros((td + 1, td + 1))
        for i in range(1, td + 1):
            tm = -td + 2 * i
            mat[i - 1, i] = math.sqrt(((td + tm) // 2) * ((td - tm) // 2 + 1))
        return mat

    lowering = np.kron(lower_single(tj1), np.eye(d2)) + np.kron(np.eye(d1), lower_single(tj2))

    def pair_index(tm1: int, tm2: int) -> int:
        return ((tm1 + tj1) // 2) * d2 + (tm2 + tj2) // 2

    vectors: dict[tuple[int, int], np.ndarray] = {}
    for tj in range(tj1 + tj2, abs(tj1 - tj2) - 2, -2):
        seed = np.zeros(d1 * d2)
        seed[pair_index(tj1, tj - tj1)] = 1.0
        # project out the towers with larger total j at the same m, twice for stability
        for _ in range(2):
            for tjp in range(tj + 2, tj1 + tj2 + 2, 2):
                prev = vectors[(tjp, tj)]
                seed -= prev * float(prev @ seed)
        seed /= float(np.linalg.norm(seed))
        if seed[pair_index(tj1, tj - tj1)] < 0:
            seed = -seed
        vectors[(tj, tj)] = seed
        for tm in range(tj, -tj, -2):
            j_f, m_f = tj / 2.0, tm / 2.0
            vectors[(tj, tm - 2)] = (lowering @ vectors[(tj, tm)]) / math.sqrt(
                (j_f + m_f) * (j_f - m_f + 1.0)
            )

    result: dict[tuple[int, int, int, int], float] = {}
    for (tj, tm), vec in vectors.items():
        for tm1 in range(-tj1, tj1 + 1, 2):
            tm2 = tm - tm1
            if abs(tm2) > tj2:
                continue
            result[(tm1, tm2, tj, tm)] = float(vec[pair_index(tm1, tm2)])
    return result


def fraction_turn_phase(turn: Fraction) -> complex:
    """exp(2 pi i turn) by reducing the Fraction turn mod 1: quarter turns
    exactly, denominators up to 10**6 as 2 pi i n / d, finer ones as
    2 pi i float(n/d)."""
    reduced = Fraction(turn) % 1
    n, d = reduced.numerator, reduced.denominator
    if d > 10**6:
        return cmath.exp(2j * math.pi * float(reduced))
    if d == 1:
        return 1 + 0j
    if d == 2:
        return -1 + 0j
    if d == 4:
        return 1j if n == 1 else -1j
    return cmath.exp(2j * math.pi * n / d)


def fraction_q_power(x, k: int) -> complex:
    """q^x = exp(2 pi i x / k) through the Fraction turn x / k."""
    return fraction_turn_phase(Fraction(x) / k)


def fraction_alpha_phase(j, r, s: int, m, sign: int = 1) -> complex:
    """exp(sign 2 pi i alpha m / (2j + 1)), alpha = s - j r, through the Fraction turn."""
    j, m = fr(j), fr(m)
    return fraction_turn_phase(sign * (s - j * Fraction(r)) * m / (2 * j + 1))


def fraction_unit_phase(n: int, d: int) -> complex:
    """exp(2 pi i n / d) with the reduced turn always scaled as 2 pi i n / d,
    whatever its denominator, except at exact quarter turns."""
    reduced = Fraction(n, d) % 1
    n, d = reduced.numerator, reduced.denominator
    if d in (1, 2, 4):
        return fraction_turn_phase(reduced)
    return cmath.exp(2j * math.pi * n / d)


def _m_range(j: Fraction):
    m = -j
    while m <= j:
        yield m
        m += 1


def brute_cg_ur(j1, j2, s1: int, s2: int, j, s: int, r) -> complex:
    """Triple sum definition of the coupled shift-basis coefficient.

    Each factor space carries its own root of unity exp(2 pi i / (2j + 1)),
    the bra side enters with a positive alpha phase, the two ket sides with
    negative ones, and the magnetic-basis CG supplies the amplitude.
    """
    j1, j2, j = fr(j1), fr(j2), fr(j)
    rr = fr(r)
    a1 = s1 - j1 * rr
    a2 = s2 - j2 * rr
    a = s - j * rr
    total = 0.0 + 0.0j
    for m1 in _m_range(j1):
        for m2 in _m_range(j2):
            m = m1 + m2
            if abs(m) > j:
                continue
            amp = sympy_cg(j1, m1, j2, m2, j, m)
            if amp == 0.0:
                continue
            phase = (
                cmath.exp(2j * math.pi * float(a * m) / float(2 * j + 1))
                * cmath.exp(-2j * math.pi * float(a1 * m1) / float(2 * j1 + 1))
                * cmath.exp(-2j * math.pi * float(a2 * m2) / float(2 * j2 + 1))
            )
            total += phase * amp
    norm = math.sqrt(float((2 * j1 + 1) * (2 * j2 + 1) * (2 * j + 1)))
    return total / norm


def brute_fbar(j1, j2, j3, s1: int, s2: int, s3: int, r) -> complex:
    """Symmetric coupling symbol as a direct double sum over 3-jm entries."""
    js = (fr(j1), fr(j2), fr(j3))
    rr = fr(r)
    alphas = tuple(s - jj * rr for s, jj in zip((s1, s2, s3), js))
    total = 0.0 + 0.0j
    for m1 in _m_range(js[0]):
        for m2 in _m_range(js[1]):
            m3 = -(m1 + m2)
            if abs(m3) > js[2]:
                continue
            w = sympy_3jm(js[0], m1, js[1], m2, js[2], m3)
            if w == 0.0:
                continue
            phase = 1.0 + 0.0j
            for alpha, jj, mm in zip(alphas, js, (m1, m2, m3)):
                phase *= cmath.exp(-2j * math.pi * float(alpha * mm) / float(2 * jj + 1))
            total += phase * w
    norm = math.sqrt(float((2 * js[0] + 1) * (2 * js[1] + 1) * (2 * js[2] + 1)))
    return total / norm


def brute_ninej(j1, j2, j3, j4, j5, j6, j7, j8, j9) -> float:
    """Six-fold magnetic sum over products of six 3-jm symbols.

    Slow but conceptually primitive; only use for small spins.
    """
    rows = ((fr(j1), fr(j2), fr(j3)), (fr(j4), fr(j5), fr(j6)), (fr(j7), fr(j8), fr(j9)))
    total = 0.0
    for m1 in _m_range(rows[0][0]):
        for m2 in _m_range(rows[0][1]):
            m3 = -(m1 + m2)
            if abs(m3) > rows[0][2]:
                continue
            for m4 in _m_range(rows[1][0]):
                for m5 in _m_range(rows[1][1]):
                    m6 = -(m4 + m5)
                    if abs(m6) > rows[1][2]:
                        continue
                    m7 = -(m1 + m4)
                    m8 = -(m2 + m5)
                    m9 = -(m3 + m6)
                    if abs(m7) > rows[2][0] or abs(m8) > rows[2][1] or abs(m9) > rows[2][2]:
                        continue
                    term = (
                        sympy_3jm(rows[0][0], m1, rows[0][1], m2, rows[0][2], m3)
                        * sympy_3jm(rows[1][0], m4, rows[1][1], m5, rows[1][2], m6)
                        * sympy_3jm(rows[2][0], m7, rows[2][1], m8, rows[2][2], m9)
                        * sympy_3jm(rows[0][0], m1, rows[1][0], m4, rows[2][0], m7)
                        * sympy_3jm(rows[0][1], m2, rows[1][1], m5, rows[2][1], m8)
                        * sympy_3jm(rows[0][2], m3, rows[1][2], m6, rows[2][2], m9)
                    )
                    total += term
    return total


def looped_fbar_orthogonality(table, tj1: int, tj2: int) -> tuple[float, float]:
    """Both orthogonality residuals of the symmetric symbol, one j3 at a time.

    table(tj3) gives the [s1, s2, s3] symbol of (j1, j2, j3), all in
    twice-spins; only the summation is independent of the package here.
    Returns max |sum_j3 (2j3+1) sum_s3 conj(f) f - delta delta| and the worst
    |sum_s1,s2 conj(f_j3) f_j3' - delta/(2j3+1)| over j3, j3' in the triangle
    range and one label beyond it, where every symbol must vanish.
    """
    d1, d2 = tj1 + 1, tj2 + 1
    coupled = range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
    resolved = np.zeros((d1, d2, d1, d2), dtype=complex)
    for t3 in coupled:
        resolved += (t3 + 1) * np.einsum("abc,xyc->abxy", np.conj(table(t3)), table(t3))
    eye = np.einsum("ax,by->abxy", np.eye(d1), np.eye(d2))
    third = float(np.max(np.abs(resolved - eye)))

    pairs = 0.0
    probe = [*coupled, tj1 + tj2 + 2]
    for ta in probe:
        for tb in probe:
            overlap = np.einsum("abc,abd->cd", np.conj(table(ta)), table(tb))
            expected = np.zeros_like(overlap)
            if ta == tb and ta in coupled:
                expected = np.eye(ta + 1) / (ta + 1)
            pairs = max(pairs, float(np.max(np.abs(overlap - expected))))
    return third, pairs


def entrywise_fbar_permutation(table, tjs: tuple[int, int, int], perm: tuple[int, int, int], sign: float) -> float:
    """max |f(j_p0, j_p1, j_p2)[s_p0, s_p1, s_p2] - sign * f(j1, j2, j3)[s1, s2, s3]|, entry by entry.

    table(tj1, tj2, tj3) gives the [s1, s2, s3] symbol in twice-spins.
    """
    base = table(*tjs)
    permuted = table(*(tjs[p] for p in perm))
    worst = 0.0
    for s in itertools.product(*(range(t + 1) for t in tjs)):
        lhs = permuted[s[perm[0]], s[perm[1]], s[perm[2]]]
        worst = max(worst, abs(lhs - sign * base[s]))
    return worst


def cmath_bracket(n: int, k: int) -> complex:
    """(1 - q^n) / (1 - q) with q = exp(2 pi i / k), from raw exponentials."""
    return (1 - cmath.exp(2j * math.pi * n / k)) / (1 - cmath.exp(2j * math.pi / k))


def dense_quon_generators(k: int) -> dict[str, np.ndarray]:
    """The six generators as dense k^2 x k^2 matrices, one Kronecker factor
    per mode, with (n1, n2) stored at row n1 * k + n2.

    Mode 1 raises with a bare step and lowers with the bracket [n1]; mode 2
    raises with [n2 + 1] and lowers with a bare step.
    """
    eye = np.eye(k)
    step_up = np.diag(np.ones(k - 1), -1)
    bracket_up = np.diag([cmath_bracket(n + 1, k) for n in range(k - 1)], -1)
    number = np.diag(np.arange(k, dtype=float))
    return {
        "raise1": np.kron(step_up, eye),
        "lower1": np.kron(bracket_up.T, eye),
        "raise2": np.kron(eye, bracket_up),
        "lower2": np.kron(eye, step_up.T),
        "number1": np.kron(number, eye),
        "number2": np.kron(eye, number),
    }


def dense_shift(k: int, r: float) -> np.ndarray:
    """The cyclic shift built densely from the oracle generators:
    (R1 + s L1^(k-1)) (L2 + s R2^(k-1)), s = exp(i pi (k-1) r / 2) / [k-1]!."""
    gen = dense_quon_generators(k)
    factorial = 1.0 + 0.0j
    for n in range(1, k):
        factorial *= cmath_bracket(n, k)
    scale = cmath.exp(1j * math.pi * (k - 1) * r / 2) / factorial
    mode1 = gen["raise1"] + scale * np.linalg.matrix_power(gen["lower1"], k - 1)
    mode2 = gen["lower2"] + scale * np.linalg.matrix_power(gen["raise2"], k - 1)
    return mode1 @ mode2


def dense_modulus(k: int) -> np.ndarray:
    """sqrt(N1 (N2 + 1)) as a dense diagonal."""
    return np.diag([math.sqrt(n1 * (n2 + 1)) for n1 in range(k) for n2 in range(k)]).astype(complex)


def angular_rows(k: int) -> list[int]:
    """Rows of the n1 + n2 = k - 1 states, m = (n1 - n2) / 2 ascending."""
    return [n1 * k + (k - 1 - n1) for n1 in range(k)]


def dense_sine_residuals(k: int, r, indices) -> tuple[float, float]:
    """(monomial_unitary, sine_commutation) from dense k x k matrices with
    SVD norms: T_m = exp(2 pi i m1 m2 / k) U^m1 V^m2, U the angular block of
    the dense shift, negative powers from U^H, and V = diag(exp(2 pi i 2m / k))."""
    rows = angular_rows(k)
    u = dense_shift(k, float(r))[np.ix_(rows, rows)]
    clock = np.array([cmath.exp(2j * math.pi * tm / k) for tm in range(-(k - 1), k, 2)])

    @lru_cache(maxsize=None)
    def monomial(m1: int, m2: int) -> np.ndarray:
        shift = np.linalg.matrix_power(u if m1 >= 0 else u.conj().T, abs(m1))
        return cmath.exp(2j * math.pi * m1 * m2 / k) * shift @ np.diag(clock**m2)

    svd = lambda x: float(np.linalg.norm(x, 2))  # noqa: E731
    pairs = [(a, b) for a in indices for b in indices]
    unitary = max(svd(monomial(*m).conj().T @ monomial(*m) - np.eye(k)) for m in pairs)
    worst = 0.0
    for (am, bm), (an, bn) in itertools.product(pairs, pairs):
        x, y = monomial(am, bm), monomial(an, bn)
        factor = 2j * math.sin(2 * math.pi * (am * bn - bm * an) / k)
        worst = max(worst, svd(x @ y - y @ x + factor * monomial(am + an, bm + bn)))
    return unitary, worst


def looped_sine_residuals(params, indices) -> tuple[float, float]:
    """(monomial_unitary, sine_commutation) one pair at a time: each monomial
    from its own `Operator.power` chain, clock and phase from Fraction turns,
    and each commutator residual as a chain of single `Operator` calls."""
    k = params.k
    u = restrict_to_angular(shift_op(params), k)

    @lru_cache(maxsize=None)
    def monomial(m1: int, m2: int):
        shift_part = u.power(m1) if m1 >= 0 else u.adjoint().power(-m1)
        clock = [fraction_q_power(tm * m2, k) for tm in range(-(k - 1), k, 2)]
        return fraction_q_power(m1 * m2, k) * (shift_part @ Operator.diagonal(u.space, clock))

    pairs = [(a, b) for a in indices for b in indices]
    eye = Operator.identity(u.space)
    unitary = worst = 0.0
    for am, bm in pairs:
        t_m = monomial(am, bm)
        unitary = max(unitary, (t_m.adjoint() @ t_m - eye).norm())
        for an, bn in pairs:
            factor = 2j * math.sin(2 * math.pi * (am * bn - bm * an) / k)
            residual = commutator(t_m, monomial(an, bn)) + factor * monomial(am + an, bm + bn)
            worst = max(worst, residual.norm())
    return unitary, worst


def looped_angular_momentum_tensor(j, rank: int) -> tuple[np.ndarray, ...]:
    """The spherical components of the rank-`rank` tensor built from the angular momentum, as a tuple.

    The loop of the package's builder before it read whole cg blocks: each
    weight is a scalar `cg` lookup, and the components are summed in the
    same order, so the result is a bit-for-bit reference for that order.
    """
    space = AngularSpace(HalfInt.of(j))
    jz = np.diag([float(m) for m in space.m_values()]).astype(complex)
    vector = (_expected_ladder(space, -1) / math.sqrt(2.0), jz, -_expected_ladder(space, +1) / math.sqrt(2.0))
    parts = vector
    for target in range(2, rank + 1):
        prev = parts
        built = []
        for q in range(-target, target + 1):
            comp = np.zeros((space.dim, space.dim), dtype=complex)
            for i1, q1 in enumerate(range(-(target - 1), target)):
                q2 = q - q1
                if abs(q2) > 1:
                    continue
                weight = cg(target - 1, q1, 1, q2, target, q)
                if weight != 0.0:
                    comp += weight * (prev[i1] @ vector[q2 + 1])
            built.append(comp)
        parts = tuple(built)
    return parts


def looped_tensor_transform(parts: tuple[np.ndarray, ...], rank, r) -> tuple[np.ndarray, ...]:
    """The shift-labeled components of a tuple of spherical components, as a tuple."""
    transformed = np.einsum("ms,mij->sij", basis_transform_matrix(rank, r), np.stack(parts))
    return tuple(transformed[s] for s in range(transformed.shape[0]))
