"""Standard angular momentum coupling symbols in the magnetic basis.

Vector coupling coefficients follow the Condon-Shortley convention (all
real, highest-weight component positive) and are evaluated from Racah's
single-sum closed form in exact integer arithmetic.  One kernel serves a
whole (j1, j2, j) block: it takes the factorials that do not depend on m
once, sums each entry's alternating series by Horner's rule on the ratio
of consecutive terms as one integer over one common denominator, and
rounds the squared value exactly once, by one integer true division,
before the square root.

An independent oracle, the eigenvectors of J^2 on each subspace of fixed
m with signs fixed by the Condon-Shortley convention alone, is compared
with the closed form by the verification suite; the two routes are never
merged, and the oracle is never cached.

The package's one bounded cache keeps each cg block once, under its
canonical orientation 2j1 >= 2j2; the swapped block is read from it by the
exact exchange symmetry, and a 3-jm block is derived from its cg block on
every read.  Each value has one route: cg() and threejm() read one entry
of a canonical block, ninej() contracts 3-jm blocks without caching its
value, and the verifiers read cg blocks through one coupling-matrix helper.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from collections import Counter, OrderedDict

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
    "CouplingTable",
    "default_table",
    "clear_cache",
    "export_table",
    "load_table",
    "lowering_checks",
    "orthogonality_checks",
    "verify_cg_against_lowering",
    "verify_cg_orthogonality",
]


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


# Bytes of cached arrays.  The largest pair of integer spins at max-j 10,
# (10, 10), keeps about 4.7 MB of cg blocks and cg_ur tables resident while
# report checks it; a pair's tables are read together and then left for good.
_CACHE_BOUND = 5 << 20


class CouplingTable:
    """LRU memo bounded by the bytes of its arrays, with counters, safe to share between threads.

    It is the one cache of the package.  Keys are tuples whose first item
    names the kind of entry ("cg", "phase", "cg_ur", "f", "fbar"); the rest
    are twice-integer labels and, for shift-basis entries, the numerator and
    denominator of the exact family parameter.  cg entries hold the
    canonical blocks, 2j1 >= 2j2, only.
    Cached arrays are read-only.  When the entries hold more than
    _CACHE_BOUND bytes (ndarray.nbytes), the least recently used are
    evicted; an entry larger than the bound is returned without being kept.
    A value is the same whether it was cached or built again.
    """

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.bytes = 0
        self.evictions = 0

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
        value.setflags(write=False)
        size = value.nbytes
        if size > _CACHE_BOUND:
            return value
        with self._lock:
            stored = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            if stored is value:
                self.bytes += size
                while self.bytes > _CACHE_BOUND:
                    _, evicted = self._entries.popitem(last=False)
                    self.bytes -= evicted.nbytes
                    self.evictions += 1
        return stored

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        """(labels, value) records of the cached cg blocks, canonical ones only, as _block_records gives them."""
        with self._lock:
            blocks = [(key[1:], value) for key, value in self._entries.items() if key[0] == "cg"]
        for twice_j, block in blocks:
            yield from _block_records(twice_j, block)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.bytes = 0
            self.evictions = 0


def _block_records(twice_j: tuple[int, int, int], block: np.ndarray):
    """((2j1, 2j2, 2j, 2m1, 2m2, 2m), value) records of every entry with m = m1 + m2 of one cg block, m1 major.

    A block that breaks the triangle rule holds only zeros and gives no records.
    """
    tj1, tj2, tj = twice_j
    if not _triangle_twice(tj1, tj2, tj):
        return
    for i1, tm1 in enumerate(range(-tj1, tj1 + 1, 2)):
        for i2, tm2 in enumerate(range(-tj2, tj2 + 1, 2)):
            tm = tm1 + tm2
            if abs(tm) <= tj:
                yield (tj1, tj2, tj, tm1, tm2, tm), float(block[i1, i2, (tm + tj) // 2])


_DEFAULT_TABLE = CouplingTable()


def default_table() -> CouplingTable:
    return _DEFAULT_TABLE


def clear_cache() -> None:
    _DEFAULT_TABLE.clear()


def _cg_values(tj1: int, tj2: int, tj: int, pairs) -> list[float]:
    """<j1 m1 j2 m2 | j m> for each (2m1, 2m2) of pairs, with m = m1 + m2.

    (j1, j2, j) must obey the triangle rule and every |m| must be at most j.
    Each call builds its own list of factorials, with no state shared between
    calls, and takes the ones that do not depend on m once.  Racah's sum
    over t of (-1)^t / (t! (a-t)! (x-t)! (y-t)! (u+t)! (v+t)!) is taken by
    Horner's rule on the ratio of consecutive terms,
    -(a-t)(x-t)(y-t) / ((t+1)(u+t+1)(v+t+1)), as one integer total over one
    integer common denominator.  The squared value is then the ratio of two
    integers, and the one int / int true division rounds it correctly, so
    each value is rounded once before the square root.
    """
    fact = list(itertools.accumulate(range(1, (tj1 + tj2 + tj) // 2 + 2), operator.mul, initial=1))
    a = (tj1 + tj2 - tj) // 2
    fixed = (tj + 1) * fact[a] * fact[(tj1 - tj2 + tj) // 2] * fact[(-tj1 + tj2 + tj) // 2]
    den = fact[(tj1 + tj2 + tj) // 2 + 1]
    values = []
    for tm1, tm2 in pairs:
        tm = tm1 + tm2
        x = (tj1 - tm1) // 2
        y = (tj2 + tm2) // 2
        u = (tj - tj2 + tm1) // 2
        v = (tj - tj1 - tm2) // 2
        # squared prefactor num / den
        num = fixed * fact[tj1 - x] * fact[x] * fact[y] * fact[tj2 - y]
        num *= fact[(tj + tm) // 2] * fact[(tj - tm) // 2]
        t_min = max(0, -u, -v)
        t_max = min(a, x, y)
        # Horner from the last term: total / common becomes the sum divided by its first term
        total = common = 1
        for t in range(t_max - 1, t_min - 1, -1):
            step = (t + 1) * (u + t + 1) * (v + t + 1)
            total = step * common - (a - t) * (x - t) * (y - t) * total
            common *= step
        # times the first term, 1 / (t_min! (a-t_min)! ...), whose sign (-1)^t_min is applied last
        common *= (
            fact[t_min] * fact[a - t_min] * fact[x - t_min] * fact[y - t_min] * fact[u + t_min] * fact[v + t_min]
        )
        if total == 0:
            values.append(0.0)
            continue
        # an int / int true division rounds correctly, so this is rounded once
        magnitude = math.sqrt(total * total * num / (common * common * den))
        values.append(magnitude if (total > 0) == (t_min % 2 == 0) else -magnitude)
    return values


def _cg_block(tj1: int, tj2: int, tj: int) -> np.ndarray:
    """Coupling coefficients as a dense (m1, m2, m) block, m ascending from -j.

    Only the entries with m = m1 + m2 can be nonzero.  Blocks with 2j1 >= 2j2
    are the canonical ones, cached: one kernel pass fills the half with
    (m1, m2) first in ascending order, the m -> -m reflection the other half;
    every other entry is an exact zero.  A block with 2j1 < 2j2 is not cached
    but read from its canonical one by the exchange symmetry
    <j1 m1 j2 m2 | j m> = (-1)^(j1+j2-j) <j2 m2 j1 m1 | j m>, which is exact:
    the kernel rounds the same squared value once for both orientations.
    """
    if tj1 < tj2:
        # a C-ordered copy, as a built block is: einsum rounds differently on strided views
        block = _cg_block(tj2, tj1, tj).transpose(1, 0, 2).copy()
        if ((tj1 + tj2 - tj) // 2) % 2:
            np.subtract(0.0, block, out=block)  # a zero stays +0.0
        block.setflags(write=False)
        return block

    def build() -> np.ndarray:
        block = np.zeros((tj1 + 1, tj2 + 1, tj + 1))
        if _triangle_twice(tj1, tj2, tj):
            pairs = [
                (tm1, tm2)
                for tm1 in range(-tj1, tj1 + 1, 2)
                for tm2 in range(-tj2, tj2 + 1, 2)
                if abs(tm1 + tm2) <= tj
            ]
            # pair i and pair -1-i are (m1, m2) and (-m1, -m2), and the reflection
            # multiplies a coefficient by (-1)^(j1+j2-j), exactly
            half = np.array(_cg_values(tj1, tj2, tj, pairs[: (len(pairs) + 1) // 2]))
            mirrored = half[: len(pairs) // 2][::-1]
            if ((tj1 + tj2 - tj) // 2) % 2:
                mirrored = 0.0 - mirrored  # a zero stays +0.0
            tm1s, tm2s = np.array(pairs).T
            entries = ((tm1s + tj1) // 2, (tm2s + tj2) // 2, (tm1s + tm2s + tj) // 2)
            block[entries] = np.concatenate([half, mirrored])
        return block

    return _DEFAULT_TABLE.get(("cg", tj1, tj2, tj), build)


def _threejm_block(tj1: int, tj2: int, tj3: int) -> np.ndarray:
    """3-jm symbols as a dense (m1, m2, m3) block, from the cg block at m = -m3.

    Derived on every read and never cached: the cg block is.
    """
    base = _cg_block(tj1, tj2, tj3)[:, :, ::-1]
    tm3 = np.arange(-tj3, tj3 + 1, 2)
    sign = np.where(((tj1 - tj2 - tm3) // 2) % 2, -1.0, 1.0)
    block = (sign * base) / math.sqrt(tj3 + 1)
    block[base == 0.0] = 0.0  # every zero is +0.0
    block.setflags(write=False)
    return block


def _nonnegative(twice) -> None:
    if min(twice) < 0:
        raise InvalidArgumentError(f"negative angular momentum 2j = {min(twice)}")


def _spins(*values) -> tuple[int, ...]:
    twice = tuple(_twice(v) for v in values)
    _nonnegative(twice)
    return twice


def cg_block(j1, j2, j) -> np.ndarray:
    """Read-only (2j1+1, 2j2+1, 2j+1) block of <j1 m1 j2 m2 | j m>, each m ascending."""
    return _cg_block(*_spins(j1, j2, j))


def threejm_block(j1, j2, j3) -> np.ndarray:
    """Read-only (2j1+1, 2j2+1, 2j3+1) block of 3-jm symbols, each m ascending."""
    return _threejm_block(*_spins(j1, j2, j3))


def cg(j1, m1, j2, m2, j, m) -> float:
    """Vector coupling coefficient <j1 m1 j2 m2 | j m>, Condon-Shortley phases.

    Returns 0 unless m = m1 + m2 and (j1, j2, j) satisfies the triangle rule.
    The value is read from the cached (j1, j2, j) block.
    """
    tj1, tm1 = _twice(j1), _twice(m1)
    tj2, tm2 = _twice(j2), _twice(m2)
    tj, tm = _twice(j), _twice(m)
    _check_labels((tj1, tj2, tj), (tm1, tm2, tm))
    return _cg_entry(tj1, tm1, tj2, tm2, tj, tm)


def _cg_entry(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int) -> float:
    """One entry of a cg block on valid twice-labels, read from the canonical block without copying a block.

    The same IEEE operations as _cg_block's swap, so the same bits.
    """
    if tj1 >= tj2:
        return float(_cg_block(tj1, tj2, tj)[(tm1 + tj1) // 2, (tm2 + tj2) // 2, (tm + tj) // 2])
    value = float(_cg_block(tj2, tj1, tj)[(tm2 + tj2) // 2, (tm1 + tj1) // 2, (tm + tj) // 2])
    return 0.0 - value if ((tj1 + tj2 - tj) // 2) % 2 else value  # a zero stays +0.0


def threejm(j1, m1, j2, m2, j3, m3) -> float:
    """3-jm symbol via the standard phase conversion from the coupling coefficient.

    The same IEEE operations as _threejm_block on one entry, so the same bits.
    """
    tj1, tm1 = _twice(j1), _twice(m1)
    tj2, tm2 = _twice(j2), _twice(m2)
    tj3, tm3 = _twice(j3), _twice(m3)
    _check_labels((tj1, tj2, tj3), (tm1, tm2, tm3))
    value = _cg_entry(tj1, tm1, tj2, tm2, tj3, -tm3)
    if value == 0.0:
        return 0.0  # every zero is +0.0
    sign = -1.0 if ((tj1 - tj2 - tm3) // 2) % 2 else 1.0
    return (sign * value) / math.sqrt(tj3 + 1)


# Positions of the three row and three column triads among the nine labels of a 9-j array.
_NINEJ_TRIADS = ((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8))


def _ninej_triads(twice) -> list[tuple[int, int, int]] | None:
    """The six triads of the nine twice-labels, rows first, or None when one breaks the triangle rule.

    A negative label raises InvalidArgumentError, as it does for a cg block.
    """
    _nonnegative(twice)
    triads = [tuple(twice[i] for i in positions) for positions in _NINEJ_TRIADS]
    return triads if all(_triangle_twice(*triad) for triad in triads) else None


def _ninej_network(blocks):
    """Full contraction of six blocks, the rows abc, def, ghi and then the columns adg, beh, cfi of a 9-j array.

    One fixed path of pairwise products: each row block meets its column
    block in O(d^5), the first two of the resulting d^4 tensors meet over
    b and d in O(d^6), and the last product is O(d^4).  Plain einsum runs
    numpy's own loops, with no path search and no BLAS, so the value does
    not depend on the BLAS thread count.
    """
    abc, def_, ghi, adg, beh, cfi = blocks
    bcdg = np.einsum("abc,adg->bcdg", abc, adg)
    dfbh = np.einsum("def,beh->dfbh", def_, beh)
    ghcf = np.einsum("ghi,cfi->ghcf", ghi, cfi)
    cgfh = np.einsum("bcdg,dfbh->cgfh", bcdg, dfbh)
    return np.einsum("cgfh,ghcf->", cgfh, ghcf)


def ninej(j1, j2, j3, j4, j5, j6, j7, j8, j9) -> float:
    """9-j symbol by full contraction of the six 3-jm symbols of its rows and columns.

    Zero when a row or a column breaks the triangle rule; a negative spin
    raises InvalidArgumentError.  The contraction takes the one fixed
    O(d^6) path of _ninej_network, in plain einsum with no BLAS.  The cg
    blocks under the 3-jm blocks are cached, the value is not.
    """
    triads = _ninej_triads([_twice(x) for x in (j1, j2, j3, j4, j5, j6, j7, j8, j9)])
    if triads is None:
        return 0.0
    return float(_ninej_network([_threejm_block(*triad) for triad in triads]))


def export_table(triples, path) -> int:
    """Write the records of the cg blocks of the given (2j1, 2j2, 2j) triples as '2j1 2j2 2j 2m1 2m2 2m value' lines.

    The blocks are read through cg_block, so the file does not depend on
    what the cache holds.  A triple given twice is written once, and one
    that breaks the triangle rule gives no records.  Lines are sorted by
    their six labels.  Values are rendered with 17 significant digits, so
    load_table reproduces them bit for bit.
    """
    records = []
    for twice_j in dict.fromkeys(tuple(triple) for triple in triples):
        records.extend(_block_records(twice_j, cg_block(*map(HalfInt, twice_j))))
    records.sort()  # the labels of a record are unique
    lines = [" ".join(map(str, labels)) + f" {value:.17g}" for labels, value in records]
    text = "\n".join(lines) + ("\n" if lines else "")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return len(lines)


def load_table(path) -> dict[tuple[int, int, int], np.ndarray]:
    """The cg blocks of an exported file, as {(2j1, 2j2, 2j): read-only block}.

    The mapping is built apart from the cache and holds every block of the
    file.  Each record must carry valid labels with m = m1 + m2, obey the
    triangle rule and carry a finite value; a coefficient given twice must
    carry the same value both times, and the records must fill their blocks
    completely.
    """
    records: dict[tuple[int, ...], float] = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            malformed = InvalidArgumentError(f"malformed coupling record: {line.strip()!r}")
            if len(parts) != 7:
                raise malformed
            try:
                labels = tuple(int(p) for p in parts[:6])
                value = float(parts[6])
            except ValueError:
                raise malformed from None
            try:
                _check_labels(labels[:3], labels[3:])
            except InvalidArgumentError as err:
                raise InvalidArgumentError(f"record {line.strip()!r}: {err}") from None
            if labels[5] != labels[3] + labels[4]:
                raise InvalidArgumentError(f"record {line.strip()!r} has m != m1 + m2")
            if not _triangle_twice(*labels[:3]):
                raise InvalidArgumentError(f"record {line.strip()!r} breaks the triangle rule")
            if not math.isfinite(value):
                raise InvalidArgumentError(f"record {line.strip()!r} carries a value that is not finite")
            stored = records.setdefault(labels, value)
            if stored != value:
                raise TableConflictError(f"record {labels} already stores {stored!r}, refused {value!r}")
    blocks: dict[tuple[int, int, int], np.ndarray] = {}
    for (tj1, tj2, tj, tm1, tm2, tm), value in records.items():
        block = blocks.setdefault((tj1, tj2, tj), np.zeros((tj1 + 1, tj2 + 1, tj + 1)))
        block[(tm1 + tj1) // 2, (tm2 + tj2) // 2, (tm + tj) // 2] = value
    counts = Counter(labels[:3] for labels in records)
    for twice_j, block in blocks.items():
        # the records are distinct entries of the block, so as many as it has means all of them
        if counts[twice_j] != sum(1 for _ in _block_records(twice_j, block)):
            raise InvalidArgumentError(f"{path}: the records do not fill the cg block {twice_j}")
        block.setflags(write=False)
    return blocks


def _casimir_vectors(tj1: np.ndarray, tj2: np.ndarray, tm: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors of J^2 on the n product states of each (2j1, 2j2, 2m) in the columns tj1, tj2, tm.

    Returns the flat position of each entry in its pair's coupling matrix
    (laid out as in _casimir_coupling_matrices) and its value, both of shape
    (len(tm), n, n): [., i, c] is the i-th m1 and the c-th j, each ascending.
    """
    k = np.arange(n)
    tm1 = np.maximum(-tj1, tm - tj2) + 2 * k
    tm2 = tm - tm1
    lo = np.abs(tj1 - tj2)
    tj = np.maximum(np.abs(tm), lo) + 2 * k  # the j of each eigenvector
    # four times J^2, so that every entry is an integer or the root of one
    casimir = np.zeros((len(tm), n, n))
    casimir[:, k, k] = tj1 * (tj1 + 2) + tj2 * (tj2 + 2) + 2 * tm1 * tm2
    ladder = np.sqrt((tj1 - tm1) * (tj1 + tm1 + 2) * (tj2 + tm2) * (tj2 - tm2 + 2))[:, :-1]
    casimir[:, k[:-1], k[1:]] = ladder
    casimir[:, k[1:], k[:-1]] = ladder
    vectors = np.linalg.eigh(casimir)[1]
    phase = np.where(((tj1 + tj2 - tj) // 2) % 2, -1.0, 1.0)
    lead = np.where(tm >= tj1 - tj2, vectors[:, -1, :], phase * vectors[:, 0, :])
    vectors *= np.sign(lead)[:, None, :]
    rows = ((tm1 + tj1) // 2) * (tj2 + 1) + (tm2 + tj2) // 2
    p = (tj - lo) // 2
    columns = p * (lo + 1) + p * (p - 1) + (tm + tj) // 2
    return (rows * (tj1 + 1) * (tj2 + 1))[:, :, None] + columns[:, None, :], vectors


def _casimir_coupling_matrices(pairs: list[tuple[int, int]]):
    """The coupling matrix of each (2j1, 2j2) of pairs from eigenvectors of J^2, independent of the closed form.

    Yields one matrix at a time, in the order of pairs.  Rows are the
    product states (m1, m2), m1 major; columns are the coupled states
    (j, m), j ascending and m ascending within each j: the cg blocks of each
    j, reshaped to (d1 d2, 2j + 1) and set side by side.

    On the states of one m = m1 + m2, J^2 = J1^2 + J2^2 + 2 J1z J2z + J1+ J2-
    + J1- J2+ is a symmetric tridiagonal matrix in m1 (the three-term
    recursion of Schulten & Gordon, J. Math. Phys. 16, 1961 (1975)).  Its
    eigenvalues j(j+1) are at least 2 apart, so eigh returns the
    eigenvectors in order of ascending j.  The subspaces of one size, over
    all the pairs, are diagonalized in one stacked call.  The signs follow
    from the Condon-Shortley convention alone, never from the closed form:
      - <j1 j1, j2 m-j1 | j m> > 0 where m1 = j1 is allowed (the last m1);
      - otherwise <j1 m-j2, j2 j2 | j m> has the sign (-1)^(j1+j2-j);
      - otherwise, by m -> -m, <j1 -j1, j2 m+j1 | j m> has that sign.
    In the last two cases the entry is the one of the least m1.
    """
    twice_1, twice_2 = (np.array(labels) for labels in zip(*pairs))
    # one row per (pair, m)
    pair = np.repeat(np.arange(len(pairs)), twice_1 + twice_2 + 1)
    tj1, tj2 = twice_1[pair, None], twice_2[pair, None]
    tm = np.concatenate([np.arange(-t, t + 1, 2) for t in twice_1 + twice_2])[:, None]
    sizes = (tj1 + tj2 + 2 - np.maximum(np.abs(tm), np.abs(tj1 - tj2)))[:, 0] // 2  # as many m1 as j
    owners, places, values = [], [], []
    for n in np.unique(sizes):
        chosen = sizes == n
        place, vectors = _casimir_vectors(tj1[chosen], tj2[chosen], tm[chosen], n)
        owners.append(np.repeat(pair[chosen], n * n))
        places.append(place.ravel())
        values.append(vectors.ravel())
    owner, place, value = (np.concatenate(parts) for parts in (owners, places, values))
    for index, (t1, t2) in enumerate(pairs):
        dim = (t1 + 1) * (t2 + 1)
        matrix = np.zeros(dim * dim)
        mine = owner == index
        matrix[place[mine]] = value[mine]
        yield matrix.reshape(dim, dim)


def _coupling_matrix(tj1: int, tj2: int) -> np.ndarray:
    """The cg blocks of (2j1, 2j2) side by side, laid out as in _casimir_coupling_matrices.

    Rows are the product states (m1, m2), m1 major; columns are the coupled
    states (j, m), j ascending and m ascending within each j.
    """
    return np.concatenate(
        [
            _cg_block(tj1, tj2, tj).reshape((tj1 + 1) * (tj2 + 1), tj + 1)
            for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
        ],
        axis=1,
    )


def lowering_checks(max_j, tol: ToleranceRule | None = None):
    """wigner-core's check of each pair (2j1, 2j2) up to 2 max_j, 2j1 major: the closed form against J^2.

    A generator: the oracle matrices of one row of pairs (one 2j1) are
    diagonalized together when the row's first check is drawn, which bounds
    the oracle's memory by one row.  Oracle matrices are never cached.
    """
    if tol is None:
        tol = ToleranceRule()
    max_t = _twice(max_j)
    for tj1 in range(0, max_t + 1):
        oracles = _casimir_coupling_matrices([(tj1, tj2) for tj2 in range(0, max_t + 1)])
        for tj2, oracle in enumerate(oracles):
            worst = float(np.max(np.abs(_coupling_matrix(tj1, tj2) - oracle)))
            yield Check.residual_check(f"lowering_agreement_2j1_{tj1}_2j2_{tj2}", worst, tol.abs_tol)


def orthogonality_checks(max_j, tol: ToleranceRule | None = None):
    """wigner-core-orthogonality's check of each pair (2j1, 2j2) up to 2 max_j, 2j1 major."""
    if tol is None:
        tol = ToleranceRule()
    max_t = _twice(max_j)
    for tj1 in range(0, max_t + 1):
        for tj2 in range(0, max_t + 1):
            # mat.T @ mat over the coupled states (j, m), both operands views of one contiguous array
            mat = _coupling_matrix(tj1, tj2)
            yield Check.residual_check(f"orthonormal_2j1_{tj1}_2j2_{tj2}", identity_residual(mat.T, mat), tol.abs_tol)


def verify_cg_against_lowering(max_j, tol: ToleranceRule | None = None) -> VerificationReport:
    """Compare the closed-form coefficients with the eigenvectors of J^2, for every pair of spins up to max_j.

    The suite and check names keep the name of the lowering construction
    that this oracle replaced.
    """
    return VerificationReport(suite="wigner-core", checks=list(lowering_checks(max_j, tol)))


def verify_cg_orthogonality(max_j, tol: ToleranceRule | None = None) -> VerificationReport:
    """Row orthonormality of the coupling matrix for every (j1, j2) pair."""
    return VerificationReport(suite="wigner-core-orthogonality", checks=list(orthogonality_checks(max_j, tol)))
