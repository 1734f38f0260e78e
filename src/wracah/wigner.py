"""Standard angular momentum coupling symbols in the magnetic basis.

Vector coupling coefficients follow the Condon-Shortley convention (all
real, highest-weight component positive) and are evaluated from Racah's
single-sum closed form in exact integer arithmetic: every term of the
alternating sum is an integer over one common denominator, the squared
prefactor is a ratio of integers, and their product is rounded exactly
once, by one integer true division, before the square root.  An
independent construction by explicit highest-weight vectors and lowering
is provided as a cross-check oracle; the two routes are compared by the
verification suite, never merged.

Coefficients are computed a whole (j1, j2, j) block at a time and kept in
the package's one bounded cache; cg() and threejm() read single entries
of those blocks.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ._blas import identity_residual
from .errors import InvalidArgumentError, TableConflictError
from .qarith import HalfInt, ToleranceRule
from .report import Check, VerificationReport

__all__ = [
    "triangle",
    "cg",
    "cg_block",
    "threejm",
    "threejm_block",
    "ninej",
    "SymbolKey",
    "CouplingTable",
    "default_table",
    "clear_cache",
    "export_table",
    "load_table",
    "cg_lowering_table",
    "verify_cg_against_lowering",
    "verify_cg_orthogonality",
]

_FACT: list[int] = [1]


def _fact(n: int) -> int:
    while len(_FACT) <= n:
        _FACT.append(_FACT[-1] * len(_FACT))
    return _FACT[n]


def _twice(value) -> int:
    return HalfInt.of(value).twice


def _check_jm(tj: int, tm: int) -> None:
    if tj < 0:
        raise InvalidArgumentError(f"negative angular momentum 2j = {tj}")
    if (tj + tm) % 2 != 0:
        raise InvalidArgumentError(f"2j = {tj} and 2m = {tm} have different parity")


def triangle(j1, j2, j3) -> bool:
    """Triangle rule with integer perimeter."""
    return _triangle_twice(_twice(j1), _twice(j2), _twice(j3))


def _triangle_twice(t1: int, t2: int, t3: int) -> bool:
    """The triangle rule on twice-integer labels."""
    if min(t1, t2, t3) < 0 or (t1 + t2 + t3) % 2 != 0:
        return False
    return abs(t1 - t2) <= t3 <= t1 + t2


def _check_labels(twice_j, twice_m) -> None:
    for tj, tm in zip(twice_j, twice_m):
        _check_jm(tj, tm)
        if abs(tm) > tj:
            raise InvalidArgumentError(f"|2m| = {abs(tm)} exceeds 2j = {tj}")


@dataclass(frozen=True)
class SymbolKey:
    """Record key of one coupling coefficient: twice-integer labels plus a variant tag."""

    variant: str
    twice_j: tuple[int, ...]
    twice_m: tuple[int, ...]

    def __post_init__(self):
        if self.variant != "cg":
            raise InvalidArgumentError(f"unknown symbol variant {self.variant!r}")
        if len(self.twice_j) != 3 or len(self.twice_m) != 3:
            raise InvalidArgumentError("coupling keys carry three j and three m labels")
        _check_labels(self.twice_j, self.twice_m)


# Entries, not bytes: report --max-j 6 holds about 1,800 blocks, tables and values.
_CACHE_BOUND = 4096


class CouplingTable:
    """Bounded LRU memo with hit/miss counters, safe to share between threads.

    It is the one cache of the package.  Keys are tuples whose first item
    names the kind of entry ("cg", "threejm", "ninej", "phase", "cg_ur",
    "f", "fbar"); the rest are twice-integer labels and, for shift-basis
    entries, the numerator and denominator of the exact family parameter.
    Cached arrays are read-only.
    """

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple, build):
        """The value stored under key, built by build() and stored on a miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return value
            self.misses += 1
        # built outside the lock: builders look up other entries themselves
        value = build()
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        with self._lock:
            value = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            while len(self._entries) > _CACHE_BOUND:
                self._entries.popitem(last=False)
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        """(SymbolKey, value) records of every entry with m = m1 + m2 of the cached cg blocks."""
        with self._lock:
            blocks = [(key[1:], value) for key, value in self._entries.items() if key[0] == "cg"]
        for (tj1, tj2, tj), block in blocks:
            if (tj1 + tj2 + tj) % 2:
                continue
            for i1, tm1 in enumerate(range(-tj1, tj1 + 1, 2)):
                for i2, tm2 in enumerate(range(-tj2, tj2 + 1, 2)):
                    tm = tm1 + tm2
                    if abs(tm) <= tj:
                        key = SymbolKey("cg", (tj1, tj2, tj), (tm1, tm2, tm))
                        yield key, float(block[i1, i2, (tm + tj) // 2])

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


_DEFAULT_TABLE = CouplingTable()


def default_table() -> CouplingTable:
    return _DEFAULT_TABLE


def clear_cache() -> None:
    _DEFAULT_TABLE.clear()


def _cached(table: CouplingTable | None, key: tuple, build):
    return build() if table is None else table.get(key, build)


def _cg_exact(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int) -> float:
    if tm1 + tm2 != tm or not _triangle_twice(tj1, tj2, tj):
        return 0.0

    # all of these are guaranteed integers by the parity checks above
    a = (tj1 + tj2 - tj) // 2
    x = (tj1 - tm1) // 2
    y = (tj2 + tm2) // 2
    u = (tj - tj2 + tm1) // 2
    v = (tj - tj1 - tm2) // 2

    # squared prefactor num / den
    num = (
        (tj + 1)
        * _fact(a)
        * _fact((tj1 - tj2 + tj) // 2)
        * _fact((-tj1 + tj2 + tj) // 2)
        * _fact((tj1 + tm1) // 2)
        * _fact(x)
        * _fact(y)
        * _fact((tj2 - tm2) // 2)
        * _fact((tj + tm) // 2)
        * _fact((tj - tm) // 2)
    )
    den = _fact((tj1 + tj2 + tj) // 2 + 1)

    # sum over t of (-1)^t / (t! (a-t)! (x-t)! (y-t)! (u+t)! (v+t)!), as
    # total / common with every term the exact integer common // denominator_t
    t_min = max(0, -u, -v)
    t_max = min(a, x, y)
    common = (
        _fact(t_max)
        * _fact(a - t_min)
        * _fact(x - t_min)
        * _fact(y - t_min)
        * _fact(u + t_max)
        * _fact(v + t_max)
    )
    total = 0
    for t in range(t_min, t_max + 1):
        term = common // (
            _fact(t) * _fact(a - t) * _fact(x - t) * _fact(y - t) * _fact(u + t) * _fact(v + t)
        )
        total += -term if t % 2 else term
    if total == 0:
        return 0.0
    # an int / int true division rounds correctly, so this is rounded once
    magnitude = math.sqrt(total * total * num / (common * common * den))
    return magnitude if total > 0 else -magnitude


def _cg_block(tj1: int, tj2: int, tj: int, table: CouplingTable | None) -> np.ndarray:
    """Coupling coefficients as a dense (m1, m2, m) block, m ascending from -j.

    Only the entries with m = m1 + m2 can be nonzero; they are filled from
    the exact closed form, every other entry is an exact zero.
    """

    def build() -> np.ndarray:
        block = np.zeros((tj1 + 1, tj2 + 1, tj + 1))
        if _triangle_twice(tj1, tj2, tj):
            for i1, tm1 in enumerate(range(-tj1, tj1 + 1, 2)):
                for i2, tm2 in enumerate(range(-tj2, tj2 + 1, 2)):
                    tm = tm1 + tm2
                    if abs(tm) <= tj:
                        block[i1, i2, (tm + tj) // 2] = _cg_exact(tj1, tm1, tj2, tm2, tj, tm)
        return block

    return _cached(table, ("cg", tj1, tj2, tj), build)


def _threejm_block(tj1: int, tj2: int, tj3: int, table: CouplingTable | None) -> np.ndarray:
    """3-jm symbols as a dense (m1, m2, m3) block, from the cg block at m = -m3."""

    def build() -> np.ndarray:
        base = _cg_block(tj1, tj2, tj3, table)[:, :, ::-1]
        tm3 = np.arange(-tj3, tj3 + 1, 2)
        sign = np.where(((tj1 - tj2 - tm3) // 2) % 2, -1.0, 1.0)
        block = (sign * base) / math.sqrt(tj3 + 1)
        block[base == 0.0] = 0.0  # as in the scalar path, every zero is +0.0
        return block

    return _cached(table, ("threejm", tj1, tj2, tj3), build)


def _spins(*values) -> tuple[int, ...]:
    twice = tuple(_twice(v) for v in values)
    if min(twice) < 0:
        raise InvalidArgumentError(f"negative angular momentum 2j = {min(twice)}")
    return twice


def cg_block(j1, j2, j) -> np.ndarray:
    """Read-only (2j1+1, 2j2+1, 2j+1) block of <j1 m1 j2 m2 | j m>, each m ascending."""
    return _cg_block(*_spins(j1, j2, j), _DEFAULT_TABLE)


def threejm_block(j1, j2, j3) -> np.ndarray:
    """Read-only (2j1+1, 2j2+1, 2j3+1) block of 3-jm symbols, each m ascending."""
    return _threejm_block(*_spins(j1, j2, j3), _DEFAULT_TABLE)


def cg(j1, m1, j2, m2, j, m, table: CouplingTable | None = _DEFAULT_TABLE) -> float:
    """Vector coupling coefficient <j1 m1 j2 m2 | j m>, Condon-Shortley phases.

    Returns 0 unless m = m1 + m2 and (j1, j2, j) satisfies the triangle rule.
    Pass table=None to bypass the memo table and evaluate this one entry.
    """
    tj1, tm1 = _twice(j1), _twice(m1)
    tj2, tm2 = _twice(j2), _twice(m2)
    tj, tm = _twice(j), _twice(m)
    _check_labels((tj1, tj2, tj), (tm1, tm2, tm))
    if table is None:
        return _cg_exact(tj1, tm1, tj2, tm2, tj, tm)
    block = _cg_block(tj1, tj2, tj, table)
    return float(block[(tm1 + tj1) // 2, (tm2 + tj2) // 2, (tm + tj) // 2])


def threejm(j1, m1, j2, m2, j3, m3, table: CouplingTable | None = _DEFAULT_TABLE) -> float:
    """3-jm symbol via the standard phase conversion from the coupling coefficient."""
    tj1, tm1 = _twice(j1), _twice(m1)
    tj2, tm2 = _twice(j2), _twice(m2)
    tj3, tm3 = _twice(j3), _twice(m3)
    _check_labels((tj1, tj2, tj3), (tm1, tm2, tm3))
    if table is not None:
        block = _threejm_block(tj1, tj2, tj3, table)
        return float(block[(tm1 + tj1) // 2, (tm2 + tj2) // 2, (tm3 + tj3) // 2])
    base = _cg_exact(tj1, tm1, tj2, tm2, tj3, -tm3)
    if base == 0.0:
        return 0.0
    sign = -1.0 if ((tj1 - tj2 - tm3) // 2) % 2 else 1.0
    return sign * base / math.sqrt(tj3 + 1)


def ninej(j1, j2, j3, j4, j5, j6, j7, j8, j9, table: CouplingTable | None = _DEFAULT_TABLE) -> float:
    """9-j symbol by full contraction of the six 3-jm symbols of its rows and columns."""
    tj = tuple(_twice(x) for x in (j1, j2, j3, j4, j5, j6, j7, j8, j9))
    triads = [
        (tj[0], tj[1], tj[2]),
        (tj[3], tj[4], tj[5]),
        (tj[6], tj[7], tj[8]),
        (tj[0], tj[3], tj[6]),
        (tj[1], tj[4], tj[7]),
        (tj[2], tj[5], tj[8]),
    ]

    def build() -> float:
        if not all(_triangle_twice(*triad) for triad in triads):
            return 0.0
        blocks = [_threejm_block(*triad, table) for triad in triads]
        return float(np.einsum("abc,def,ghi,adg,beh,cfi->", *blocks, optimize=True))

    return _cached(table, ("ninej", *tj), build)


def export_table(table: CouplingTable, path) -> int:
    """Write the table's coupling records as '2j1 2j2 2j 2m1 2m2 2m value' lines.

    Values are rendered with 17 significant digits, so reloading
    reproduces them bit for bit.
    """
    records = sorted(table.items(), key=lambda kv: (kv[0].twice_j, kv[0].twice_m))
    lines = [" ".join(map(str, key.twice_j + key.twice_m)) + f" {value:.17g}" for key, value in records]
    text = "\n".join(lines) + ("\n" if lines else "")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return len(lines)


def load_table(path) -> CouplingTable:
    """Rebuild the cg blocks of an exported file.

    The records must fill their blocks completely, and a coefficient given
    twice must carry the same value both times.
    """
    records: dict[SymbolKey, float] = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 7:
                raise InvalidArgumentError(f"malformed coupling record: {line.strip()!r}")
            labels = [int(p) for p in parts[:6]]
            key = SymbolKey("cg", tuple(labels[:3]), tuple(labels[3:]))
            value = float(parts[6])
            stored = records.setdefault(key, value)
            if stored != value:
                raise TableConflictError(f"key {key} already stores {stored!r}, refused {value!r}")
    blocks: dict[tuple[int, ...], np.ndarray] = {}
    for key, value in records.items():
        (tj1, tj2, tj), (tm1, tm2, tm) = key.twice_j, key.twice_m
        block = blocks.setdefault(key.twice_j, np.zeros((tj1 + 1, tj2 + 1, tj + 1)))
        block[(tm1 + tj1) // 2, (tm2 + tj2) // 2, (tm + tj) // 2] = value
    table = CouplingTable()
    for twice_j, block in blocks.items():
        table.get(("cg", *twice_j), lambda block=block: block)
    if dict(table.items()) != records:
        raise InvalidArgumentError(f"{path}: the records do not fill complete cg blocks")
    return table


def cg_lowering_table(j1, j2) -> dict[tuple[int, int, int, int], float]:
    """Independent coupling coefficients from highest weights and lowering.

    For each total j the highest-weight vector is found by orthogonalizing
    against the already-built towers inside the m = j subspace, its sign is
    fixed by a positive component on the maximal m1, and the rest of the
    tower follows by applying the total lowering operator.  Keys are
    (2m1, 2m2, 2j, 2m).
    """
    tj1, tj2 = _twice(j1), _twice(j2)
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
        norm = float(np.linalg.norm(seed))
        seed /= norm
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


def verify_cg_against_lowering(max_j, tol: ToleranceRule | None = None) -> VerificationReport:
    """Compare the closed-form coefficients with the lowering construction."""
    if tol is None:
        tol = ToleranceRule()
    max_t = _twice(max_j)
    report = VerificationReport(suite="wigner-core", k=None, r=None)
    for tj1 in range(0, max_t + 1):
        for tj2 in range(0, max_t + 1):
            oracle = cg_lowering_table(HalfInt(tj1), HalfInt(tj2))
            worst = 0.0
            for (tm1, tm2, tj, tm), expected in oracle.items():
                block = _cg_block(tj1, tj2, tj, _DEFAULT_TABLE)
                value = float(block[(tm1 + tj1) // 2, (tm2 + tj2) // 2, (tm + tj) // 2])
                worst = max(worst, abs(value - expected))
            report.add(
                Check.residual_check(f"lowering_agreement_2j1_{tj1}_2j2_{tj2}", worst, tol.abs_tol)
            )
    return report


def verify_cg_orthogonality(max_j, tol: ToleranceRule | None = None) -> VerificationReport:
    """Row orthonormality of the coupling matrix for every (j1, j2) pair."""
    if tol is None:
        tol = ToleranceRule()
    max_t = _twice(max_j)
    report = VerificationReport(suite="wigner-core-orthogonality", k=None, r=None)
    for tj1 in range(0, max_t + 1):
        for tj2 in range(0, max_t + 1):
            # rows (j, m) ascending, columns (m1, m2) with m1 major
            mat = np.concatenate(
                [
                    _cg_block(tj1, tj2, tj, _DEFAULT_TABLE).reshape((tj1 + 1) * (tj2 + 1), tj + 1).T
                    for tj in range(abs(tj1 - tj2), tj1 + tj2 + 2, 2)
                ]
            )
            report.add(
                Check.residual_check(
                    f"orthonormal_2j1_{tj1}_2j2_{tj2}", identity_residual(mat, mat.T), tol.abs_tol
                )
            )
    return report
