"""Triple systems, partial triple systems, validation, closure, and file I/O.

Points are always dense indices 0..n-1.  Triples are stored as a numpy
(m, 3) array of row_dtype(n), uint16 up to 65,536 points and int32 above,
with each row sorted ascending and rows in lexicographic order, so two
systems with the same triples compare equal bit-for-bit.

Constructing a system validates it: a PartialTripleSystem has every pair in
at most one triple and a TripleSystem in exactly one, or the constructor
raises InvalidSystemError.
"""

from __future__ import annotations

import hashlib
import io
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

PointSet = frozenset  # frozenset[int]; subsets of 0..n-1


_KEY_MAX_N = 2_097_151  # largest n with n**3 < 2**63, so row keys fit int64
_INT32_MAX = np.iinfo(np.int32).max
_CHUNK = 1 << 17  # rows per step of the one pass over the rows: its scratch is a few MB


def _triple_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """One int64 key a*n^2 + b*n + c per row, n <= _KEY_MAX_N; keys order like the rows."""
    keys = rows[:, 0].astype(np.int64)
    keys *= n
    keys += rows[:, 1]
    keys *= n
    keys += rows[:, 2]
    return keys


def row_dtype(n: int) -> np.dtype:
    """The dtype of the rows of a system on n points: uint16 when every
    index 0..n-1 fits it, that is n <= 65,536, else int32.  Arithmetic on
    rows widens them first, since uint16 wraps silently."""
    return np.dtype(np.uint16 if n <= 1 << 16 else np.int32)


def _normal_form(n: int, triples) -> tuple:
    """(rows, distinct): the rows as read-only (m, 3) of row_dtype(n), each
    sorted, in lexicographic order, and whether their 3m pairs are distinct.

    The pairs do not depend on the row order, so the rows are sorted after
    the pass that checks them, and only if it met one out of order.  A
    read-only array in normal form of the row dtype that owns its data is
    adopted (its maker handed it over); any other array passed in is
    copied, so a system never shares a writable buffer.  Entries of any
    other dtype are checked before the cast.
    """
    if n < 0:
        raise ValueError(f"point count {n} is negative")
    dtype = row_dtype(n)
    if not (isinstance(triples, np.ndarray) and triples.dtype.kind in "iu"):
        triples = np.asarray(triples, dtype=np.int64)
    arr = triples
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("triples must be an (m, 3) array")
    if arr.dtype != dtype and arr.size:
        top = arr.max()
        if arr.min() < 0 or top >= n:
            raise ValueError("triple entry out of range 0..n-1")
        if top > _INT32_MAX:
            raise ValueError(f"triple entry {top} is above the int32 maximum {_INT32_MAX}")
    arr = np.ascontiguousarray(arr, dtype=dtype)
    ordered, distinct = _scan_rows(arr, n)
    if not ordered:
        arr = _sorted_rows(arr, n)
    elif np.may_share_memory(arr, triples) and not (
        triples.flags.owndata and not triples.flags.writeable
    ):
        arr = arr.copy()
    arr.setflags(write=False)
    if distinct is None:
        codes = np.sort(_pair_codes(arr, n))
        distinct = not (codes[1:] == codes[:-1]).any()
    return arr, distinct


def _scan_rows(rows: np.ndarray, n: int) -> tuple:
    """(ordered, distinct) from one pass over the rows, a chunk at a time
    on contiguous copies of its columns: sort them by a min/max network if
    a row is out of order, check their min and max lie in 0..n-1 and each
    key against the row before's, and mark each pair x < y at its upper-
    triangle index (_triangle_offsets) in a map of n(n-1)/2 bytes.  A row
    with a repeated point has no index: its chunk settles `distinct`
    unmarked.  distinct is None when the codes a*n+b take fewer bytes than
    the map: the caller sorts them."""
    cells = n * (n - 1) // 2
    seen = None
    if 3 * rows.shape[0] * (4 if n <= 65535 else 8) >= cells:
        seen, off = np.zeros(cells, dtype=bool), _triangle_offsets(n)
    distinct, last = True, -1
    ordered = n <= _KEY_MAX_N  # larger keys do not fit int64: such rows are always sorted
    for lo in range(0, rows.shape[0], _CHUNK):
        cols = rows[lo : lo + _CHUNK].T.copy()
        a, b, c = cols
        if (a > b).any() or (b > c).any():
            ordered = False
            _sort_columns(cols)
        if a.min() < 0 or c.max() >= n:
            raise ValueError("triple entry out of range 0..n-1")
        if ordered:
            keys = _triple_keys(cols.T, n)
            ordered = keys[0] >= last and not (keys[1:] < keys[:-1]).any()
            last = keys[-1]
        if seen is not None and distinct:
            distinct = not ((a == b).any() or (b == c).any())  # sorted: a <= b <= c
            if distinct:
                oa = off.take(a)
                seen[oa + b] = True
                oa += c
                seen[oa] = True
                ob = off.take(b)
                ob += c
                seen[ob] = True
    if seen is None:
        return ordered, None
    return ordered, distinct and int(np.count_nonzero(seen)) == 3 * rows.shape[0]


def _normalize(n: int, triples) -> np.ndarray:
    """The rows of _normal_form alone."""
    return _normal_form(n, triples)[0]


def _chunks(rows: np.ndarray) -> Iterator[np.ndarray]:
    return (rows[lo : lo + _CHUNK] for lo in range(0, rows.shape[0], _CHUNK))


def _sort_columns(cols: np.ndarray) -> None:
    """Sort each row's three entries in place by a min/max network; the
    rows of cols, (3, k), hold the first, second and third entries."""
    low = np.empty_like(cols[0])
    for i, j in ((0, 1), (1, 2), (0, 1)):
        np.minimum(cols[i], cols[j], out=low)
        np.maximum(cols[i], cols[j], out=cols[j])
        cols[i] = low


def _sorted_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """A new array of the rows, each sorted by the network, in
    lexicographic order: by their int64 keys, or for n above _KEY_MAX_N by
    (a*n + b, c)."""
    cols = rows.T.copy()
    _sort_columns(cols)
    if n > _KEY_MAX_N:
        order = np.lexsort((cols[2], cols[0].astype(np.int64) * n + cols[1]))
        return np.ascontiguousarray(cols.T[order])
    keys = _triple_keys(cols.T, n)
    del cols
    keys.sort(kind="stable")  # timsort: fast on nearly sorted rows
    out = np.empty((keys.size, 3), dtype=row_dtype(n))
    for j in (2, 1):
        out[:, j] = keys % n
        keys //= n
    out[:, 0] = keys
    return out


class VerificationError(RuntimeError):
    """A computed result failed the independent check made before returning it."""


class InvalidSystemError(ValueError):
    """The triples break the axioms of the system being built."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = tuple(violations)


class Incidence(NamedTuple):
    """Read-only arrays of a system's triples, built once per system.

    third[a, b] == third[b, a] is the third point of the triple on {a, b},
    and -1 on the diagonal and on every pair that no triple covers.  The
    spokes of p, the pairs (q, r), q < r, with {p, q, r} a triple, are the
    rows spokes[start[p]:start[p + 1]], in the order of their triples.
    """

    third: np.ndarray  # (n, n) int32: the third-point table above
    spokes: np.ndarray  # (3m, 2) int32: the spokes of each point in turn
    start: np.ndarray  # (n + 1,) intp: where each point's spokes begin

    def spoke_lists(self) -> list:
        """Per point, its spokes as a list of [q, r] lists."""
        rows, bounds = self.spokes.tolist(), self.start.tolist()
        return [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@dataclass(eq=False)
class _SystemBase:
    n: int
    triples: np.ndarray

    def __post_init__(self):
        self.triples, distinct = _normal_form(self.n, self.triples)
        size = _size_violations(self.n, self.n_triples) if isinstance(self, TripleSystem) else []
        if size or not distinct:
            structural = _structural_violations(self) + size
            raise InvalidSystemError(structural or _duplicate_pair_violations(self))

    @classmethod
    def from_triples(cls, n: int, triples: Iterable):
        return cls(n, list(triples))

    def __len__(self) -> int:
        return self.n

    @property
    def n_triples(self) -> int:
        return self.triples.shape[0]

    def iter_triples(self) -> Iterator[tuple[int, int, int]]:
        return map(tuple, self.triples.tolist())

    @cached_property
    def incidence(self) -> Incidence:
        """The pair and point views every closure and search step reads.

        Built on first use; the array path (construct, validate, write,
        read) never builds it.
        """
        n = self.n
        a, b, c = self.triples.T.astype(np.intp)  # flat cells x * n + y cannot wrap
        third = np.full(n * n, -1, dtype=np.int32)
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            third[x * n + y] = third[y * n + x] = z
        # the spokes of p are the cells q < r = third[p, q], in order of q as their triples
        third = third.reshape(n, n)
        cells = np.flatnonzero(third > np.arange(n, dtype=np.int32))
        spokes = np.stack([cells % n, third.reshape(-1).take(cells)], axis=1).astype(np.int32)
        start = np.searchsorted(cells, np.arange(n + 1) * n)
        for arr in (third, spokes, start):
            arr.setflags(write=False)
        return Incidence(third, spokes, start)

    def pair_third(self) -> dict:
        """Map each covered pair (a, b) with a < b to the third point (a copy)."""
        rows = self.triples.tolist()
        return {(x, y): z for a, b, c in rows for x, y, z in ((a, b, c), (a, c, b), (b, c, a))}

    def degrees(self) -> np.ndarray:
        return np.bincount(self.triples.ravel(), minlength=self.n)

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.n == other.n
            and self.triples.shape == other.triples.shape
            and bool(np.array_equal(self.triples, other.triples))
        )

    def __hash__(self):
        return hash((type(self).__name__, self.n, self.triples.tobytes()))


@dataclass(eq=False)
class TripleSystem(_SystemBase):
    """A Steiner triple system: every pair of points in exactly one triple."""


@dataclass(eq=False)
class PartialTripleSystem(_SystemBase):
    """A partial system: every pair of points in at most one triple."""


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def _pair_codes(triples: np.ndarray, n: int) -> np.ndarray:
    """Codes a*n+b (a < b) for the three pairs of every triple, concatenated."""
    dtype = np.uint32 if n <= 65535 else np.int64
    a, b, c = triples.T.astype(dtype)
    return np.concatenate([a * dtype(n) + b, a * dtype(n) + c, b * dtype(n) + c])


def _triangle_offsets(n: int) -> np.ndarray:
    """off[x] = x(2n-3-x)/2 - 1, so that off[x] + y for x < y numbers the
    pairs of 0..n-1 one-to-one onto 0..n(n-1)/2 - 1 in code order."""
    x = np.arange(n, dtype=np.intp)
    return x * (2 * n - 3 - x) // 2 - 1


def _structural_violations(ts: _SystemBase) -> list:
    bad = []
    rows = ts.triples
    same = (rows[:, 0] == rows[:, 1]) | (rows[:, 1] == rows[:, 2])
    for i in np.flatnonzero(same)[:20]:
        bad.append(f"triple {tuple(int(x) for x in rows[i])} has repeated points")
    dup = np.all(rows[1:] == rows[:-1], axis=1)
    for i in np.flatnonzero(dup)[:20]:
        bad.append(f"triple {tuple(int(x) for x in rows[i])} listed twice")
    return bad


def _duplicate_pair_violations(ts: _SystemBase) -> list:
    """One message for each of the first 20 pairs that two triples cover."""
    codes = np.sort(_pair_codes(ts.triples, ts.n))
    dupes = np.unique(codes[1:][codes[1:] == codes[:-1]])[:20]
    return [f"pair {divmod(int(code), ts.n)} covered twice" for code in dupes]


def _admissible(n: int) -> bool:
    """Whether some STS has n points: n = 0, or n > 0 with n = 1 or 3 mod 6."""
    return n == 0 or n > 0 and n % 6 in (1, 3)


def _size_violations(n: int, m: int) -> list:
    if n in (0, 1):
        return [f"degenerate system on {n} points must have no triples"] if m else []
    bad = []
    if not _admissible(n):
        bad.append(f"{n} points is inadmissible (need n = 1 or 3 mod 6)")
    if m != n * (n - 1) // 6:
        bad.append(f"triple count {m}, expected {n * (n - 1) // 6}")
    return bad


def validate_pstss(ps: _SystemBase) -> ValidationReport:
    """The partial-system axiom, which every system met when it was built."""
    return ValidationReport(True)


def validate_sts(ts: _SystemBase) -> ValidationReport:
    """The full axioms.  The pairs of ts were proved disjoint when it was
    built, so n(n-1)/6 triples at an admissible n cover every pair and
    only the size rules are left to check."""
    violations = _size_violations(ts.n, ts.n_triples)
    return ValidationReport(not violations, tuple(violations))


def span(ts: _SystemBase, seed: Iterable, cap: int | None = None) -> PointSet:
    """Smallest point set containing seed closed under third-point joins.

    With cap set, returns early (uncapped superset semantics are abandoned)
    as soon as the closure exceeds cap points; the partial result is still a
    subset of the true closure.  A seed point outside 0..n-1 raises
    ValueError.
    """
    current = set(seed)
    if current and (min(current) < 0 or max(current) >= ts.n):
        raise ValueError(f"seed points must lie in 0..{ts.n - 1}")
    third = ts.incidence.third
    frontier = list(current)
    while frontier:
        new = []
        pts = sorted(current)
        for p in frontier:
            row = third[p].tolist()  # one row at a time: a capped closure may stop early
            for q in pts:
                r = row[q]
                if r >= 0 and r not in current:
                    current.add(r)
                    new.append(r)
                    if cap is not None and len(current) > cap:
                        return frozenset(current)
        frontier = new
    return frozenset(current)


def is_subsystem(ts: _SystemBase, points: Iterable) -> bool:
    pts = frozenset(points)
    return span(ts, pts, cap=len(pts)) == pts


PLANE_STEP = 1 << 14  # plane tests per step; each step's scratch is a few int32 arrays
_FLAT_MAX_N = 46_340  # largest n with n * n < 2**31, so q * n + r fits int32


def fano_planes(ts: _SystemBase, p, q1, r1, q2, r2) -> tuple:
    """(hit, s, t) for arrays of at most PLANE_STEP pairs of distinct
    triples {p, q1, r1}, {p, q2, r2}: the indices of the pairs that lie in
    a PG(2, 2), and its other points s = q1q2 = r1r2 and t = q1r2 = r1q2,
    with st = p.  These five lookups find all seven lines.  Most pairs
    fail the first comparison and are dropped before the other three.
    """
    n, flat = ts.n, ts.incidence.third.reshape(-1)
    wide = np.int64 if n > _FLAT_MAX_N else np.int32

    def third(q, r):
        return flat.take(q.astype(wide, copy=False) * n + r)

    s = third(q1, q2)
    hit = np.flatnonzero((s >= 0) & (s == third(r1, r2)))
    s, p, q1, r1, q2, r2 = (x[hit] for x in (s, p, q1, r1, q2, r2))
    t = third(q1, r2)  # where t = -1, s * n + t is a cell that t >= 0 masks
    ok = (t >= 0) & (t == third(r1, q2)) & (third(s, t) == p)
    return hit[ok], s[ok], t[ok]


def pairs_within(keys: np.ndarray) -> Iterator[tuple]:
    """The index pairs (i, j), i < j, with keys[i] == keys[j], for sorted
    keys: in order of i then j, at most PLANE_STEP pairs per step."""
    rows = np.arange(keys.size)
    later = np.searchsorted(keys, keys, side="right") - rows - 1  # the partners of each row
    ends = np.cumsum(later)
    begin = ends - later  # pair k of row i is (i, k - begin[i] + i + 1)
    total = int(ends[-1]) if ends.size else 0
    for lo in range(0, total, PLANE_STEP):
        hi = min(lo + PLANE_STEP, total)
        first, last = np.searchsorted(ends, (lo, hi - 1), side="right")
        step = slice(first, last + 1)  # the rows holding pairs lo..hi-1
        i = np.repeat(rows[step], np.minimum(ends[step], hi) - np.maximum(begin[step], lo))
        yield i, np.arange(lo, hi) - begin.take(i) + i + 1


def restrict(ts: _SystemBase, points: Iterable) -> tuple:
    """Induced system on a closed point set.

    Returns (system, old_of_new) where old_of_new[i] is the ambient index of
    the i-th point of the restriction.  A full system restricted to a set
    that is not closed raises InvalidSystemError, and a point outside
    0..n-1 raises ValueError.
    """
    pts = np.unique(np.fromiter(points, dtype=np.int64))
    if pts.size and (pts[0] < 0 or pts[-1] >= ts.n):
        raise ValueError(f"restricted points must lie in 0..{ts.n - 1}")
    new_of_old = np.full(ts.n, -1, dtype=np.int32)
    new_of_old[pts] = np.arange(pts.size)
    rows = new_of_old[ts.triples]
    cls = TripleSystem if isinstance(ts, TripleSystem) else PartialTripleSystem
    return cls(pts.size, rows[np.all(rows >= 0, axis=1)]), pts.tolist()


# ---------------------------------------------------------------------------
# "sts/1" text format


_WRITE_ROWS = 1 << 18


def _decimal_cells(values: np.ndarray, width: int) -> np.ndarray:
    """Per entry of values: width + 1 bytes holding its decimal digits, a
    space (a newline after the last entry of a row) and zero padding."""
    cells = np.zeros(values.shape + (width + 1,), dtype=np.uint8)
    cells[..., :width] = values.astype(f"S{width}").view(np.uint8).reshape(values.shape + (width,))
    ends = np.count_nonzero(cells, axis=-1)[..., None]
    np.put_along_axis(cells, ends, ord(" "), axis=-1)
    np.put_along_axis(cells[..., -1, :], ends[..., -1, :], ord("\n"), axis=-1)
    return cells


def write_system(ts: _SystemBase, path) -> str:
    """Write the header line, then one line "a b c" per row; return the
    SHA-256 hex digest of the bytes written.

    Rows are written a chunk at a time, as their cells' nonzero bytes.  The
    cells of a chunk are taken one item per entry from a table holding
    each of 0..p, p the largest point in a triple, as "p " at 2p and "p\\n"
    at 2p + 1, unless that table would hold more entries than the rows do.
    """
    kind = "sts" if isinstance(ts, TripleSystem) else "pstss"
    m = ts.n_triples
    size = int(ts.triples.max()) + 1 if m else 0
    width = len(str(max(size - 1, 0)))
    if size <= 3 * m:
        pairs = np.arange(size).repeat(2).reshape(size, 2)
        tokens = _decimal_cells(pairs, width).view(f"V{width + 1}").reshape(2 * size)
    head = f"{kind} {ts.n}\n".encode()
    digest = hashlib.sha256(head)
    with open(path, "wb") as fh:
        fh.write(head)
        for lo in range(0, m, _WRITE_ROWS):
            rows = ts.triples[lo : lo + _WRITE_ROWS]
            if size > 3 * m:
                cells = _decimal_cells(rows, width)
            else:
                cells = tokens.take(rows.astype(np.intp) * 2 + (0, 0, 1)).view(np.uint8)
            lines = cells[cells != 0].tobytes()
            digest.update(lines)
            fh.write(lines)
    return digest.hexdigest()


class FormatError(ValueError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


_READ_BYTES = 1 << 20  # each step of the parse takes about 9 bytes of scratch per byte
_LINE_SEPARATORS = np.array([ord(" "), ord(" "), ord("\n")], dtype=np.uint8)


def _parse_rows(raw: bytes, start: int, n: int):
    """The rows of raw[start:] as an (m, 3) array of row_dtype(n), when
    every line is three in-range decimal indices joined by single spaces;
    else None.

    Reads about _READ_BYTES at a time, cut at line ends, into one array
    with a row per line; each step's values are summed in int32 and then
    stored.  A last line with no newline gets one appended to a copy of its
    chunk alone.
    """
    end = len(raw)
    width = min(len(str(n - 1)), 9) if n else 0  # longer tokens go to the line parser
    unterminated = end > start and raw[-1:] != b"\n"
    rows = np.empty((raw.count(b"\n", start) + unterminated, 3), dtype=row_dtype(n))
    values = rows.reshape(-1)
    done = 0
    while start < end:
        stop = raw.find(b"\n", min(start + _READ_BYTES, end) - 1) + 1 or end
        ended = raw[stop - 1 : stop] == b"\n"
        buf = np.frombuffer(memoryview(raw)[start:stop] if ended else raw[start:stop] + b"\n", "u1")
        start = stop
        seps = np.flatnonzero((buf < ord("0")) | (buf > ord("9")))
        if seps.size % 3 or not np.array_equal(
            buf[seps].reshape(-1, 3), np.broadcast_to(_LINE_SEPARATORS, (seps.size // 3, 3))
        ):
            return None
        lengths = np.diff(seps, prepend=-1) - 1  # digits before each separator
        if lengths.min() < 1 or lengths.max() > width:
            return None
        chunk = np.zeros(seps.size, dtype=np.int32)  # at most 9 digits each
        for k in range(1, int(lengths.max()) + 1):  # add the k-th digit from the right
            digit = buf[np.maximum(seps - k, 0)] - np.int32(ord("0"))
            digit *= lengths >= k
            digit *= 10 ** (k - 1)
            chunk += digit
        if chunk.max() >= n:
            return None
        values[done : done + seps.size] = chunk
        done += seps.size
    rows.setflags(write=False)  # handed over: the system adopts it
    return rows


def read_system(path):
    """Parse an "sts/1" file into a TripleSystem or PartialTripleSystem.

    A body of plain "a b c" lines is parsed by numpy; any other body is
    read line by line, which reports the first bad line.  The file's bytes
    are let go before the system the header names is built, which
    validates it; a file that breaks its axioms raises FormatError listing
    every violation found.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    cut = re.match(rb"[^\r\n]*", raw).end()  # the header ends at the first \r or \n
    header = raw[:cut].decode("utf-8", errors="replace")
    parts = header.split()
    if len(parts) != 2 or parts[0] not in ("sts", "pstss"):
        raise FormatError(path, 1, "expected header 'sts <n>' or 'pstss <n>'")
    try:
        n = int(parts[1])
    except ValueError:
        n = -1
    if n < 0:
        raise FormatError(path, 1, f"bad point count {parts[1]!r}")
    rows = None
    if raw[cut : cut + 1] == b"\n" and raw.startswith(header.encode()):
        rows = _parse_rows(raw, cut + 1, n)
    if rows is None:  # the line parser, whose text wrapper lives for the loop alone
        rows, top = [], min(n, _INT32_MAX + 1)  # entries must fit int32
        for line_no, line in enumerate(
            io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="replace"), start=1
        ):
            if line_no == 1 or not line.strip():  # the header, or a blank line
                continue
            fields = line.split()
            if len(fields) != 3:
                raise FormatError(path, line_no, "expected three indices")
            try:
                t = tuple(int(f) for f in fields)
            except ValueError:
                raise FormatError(path, line_no, "non-integer index") from None
            if any(p < 0 or p >= top for p in t):
                raise FormatError(path, line_no, f"index out of range 0..{top - 1}")
            rows.append(t)
    del raw
    cls = TripleSystem if parts[0] == "sts" else PartialTripleSystem
    try:
        return cls(n, rows)
    except InvalidSystemError as e:
        raise FormatError(path, 1, str(e)) from None
