"""Triple systems, partial triple systems, validation, closure, and file I/O.

Points are always dense indices 0..n-1.  Triples are stored as a numpy
(m, 3) int32 array with each row sorted ascending and rows in lexicographic
order, so two systems with the same triples compare equal bit-for-bit.

Constructing a system validates it: a PartialTripleSystem has every pair in
at most one triple and a TripleSystem in exactly one, or the constructor
raises InvalidSystemError.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

PointSet = frozenset  # frozenset[int]; subsets of 0..n-1


_KEY_MAX_N = 2_097_151  # largest n with n**3 < 2**63, so row keys fit int64


def _triple_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """One int64 key a*n^2 + b*n + c per row; keys order like the rows.

    Needs n <= _KEY_MAX_N.
    """
    keys = rows[:, 0].astype(np.int64)
    keys *= n
    keys += rows[:, 1]
    keys *= n
    keys += rows[:, 2]
    return keys


def _normalize(n: int, triples) -> np.ndarray:
    """Read-only int32 (m, 3) rows, each sorted, in lexicographic order.

    Rows are sorted only when one is out of order, and the row order is
    sorted only when the keys are not already non-decreasing; both checks
    run a chunk of rows at a time.  An array already in this form is
    adopted, not copied, when it is read-only and owns its data: whoever
    made it has handed it over.  Any other array the caller passed is
    copied, so a system never shares a writable buffer.
    """
    if n < 0:
        raise ValueError(f"point count {n} is negative")
    if not (isinstance(triples, np.ndarray) and triples.dtype == np.int32):
        triples = np.asarray(triples, dtype=np.int64)
    arr = triples
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("triples must be an (m, 3) array")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise ValueError("triple entry out of range 0..n-1")
    arr = np.ascontiguousarray(arr, dtype=np.int32)
    if any((c[:, 0] > c[:, 1]).any() or (c[:, 1] > c[:, 2]).any() for c in _chunks(arr)):
        arr = np.sort(arr, axis=1)
    if n > _KEY_MAX_N:
        arr = arr[np.lexsort((arr[:, 2], arr[:, 0].astype(np.int64) * n + arr[:, 1]))]
    elif _out_of_order(arr, n):
        keys = _triple_keys(arr, n)
        keys.sort(kind="stable")  # timsort: fast on nearly sorted rows
        arr = np.empty_like(arr)
        arr[:, 2] = keys % n
        keys //= n
        arr[:, 1] = keys % n
        keys //= n
        arr[:, 0] = keys
    handed_over = triples.flags.owndata and not triples.flags.writeable
    if np.may_share_memory(arr, triples) and not handed_over:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


_CHUNK = 1 << 18  # rows per step of the order checks and the pair scan


def _chunks(rows: np.ndarray) -> Iterator[np.ndarray]:
    return (rows[lo : lo + _CHUNK] for lo in range(0, rows.shape[0], _CHUNK))


def _out_of_order(rows: np.ndarray, n: int) -> bool:
    """Whether a row's key is below the key of the row before it; each
    chunk's keys start at the last row of the chunk before."""
    for lo in range(0, rows.shape[0] - 1, _CHUNK):
        keys = _triple_keys(rows[lo : lo + _CHUNK + 1], n)
        if (keys[1:] < keys[:-1]).any():
            return True
    return False


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
        self.triples = _normalize(self.n, self.triples)
        violations = self._violations()
        if violations:
            raise InvalidSystemError(violations)

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

    def _violations(self) -> list:
        """Empty when n(n-1)/6 triples with distinct pair codes cover all
        pairs at an admissible n; else the violations, size rules included."""
        size = _size_violations(self.n, self.n_triples)
        if not size and _scan_pair_coverage(self):
            return []
        return _structural_violations(self) + size or _duplicate_pair_violations(self)


@dataclass(eq=False)
class PartialTripleSystem(_SystemBase):
    """A partial system: every pair of points in at most one triple."""

    def _violations(self) -> list:
        """Empty when the pair codes are distinct; the violations are named
        only when they are not."""
        if _scan_pair_coverage(self):
            return []
        return _structural_violations(self) or _duplicate_pair_violations(self)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def _pair_codes(triples: np.ndarray, n: int) -> np.ndarray:
    """Codes a*n+b (a < b) for the three pairs of every triple, concatenated."""
    dtype = np.uint32 if n <= 65535 else np.int64
    a = triples[:, 0].astype(dtype)
    b = triples[:, 1].astype(dtype)
    c = triples[:, 2].astype(dtype)
    nn = dtype(n) if dtype is np.uint32 else n
    return np.concatenate([a * nn + b, a * nn + c, b * nn + c])


def _triangle_offsets(n: int) -> np.ndarray:
    """off[x] = x(2n-3-x)/2 - 1, so that off[x] + y for x < y numbers the
    pairs of 0..n-1 one-to-one onto 0..n(n-1)/2 - 1 in code order."""
    x = np.arange(n, dtype=np.intp)
    return x * (2 * n - 3 - x) // 2 - 1


def _scan_pair_coverage(ts: _SystemBase) -> bool:
    """Whether the 3m pairs the rows list are distinct, which a row with a
    repeated point never is (it lists one pair twice).

    Marks each pair x < y at its upper-triangle index (_triangle_offsets)
    in a boolean map of n(n-1)/2 entries, a chunk of rows at a time, and
    counts the marks; a chunk holding a row with a repeated point, which
    has no index, settles the answer before any of it is marked.  Sorts
    the codes a*n+b instead when they take fewer bytes than the map.
    """
    n = ts.n
    m = ts.n_triples
    cells = n * (n - 1) // 2
    if 3 * m * (4 if n <= 65535 else 8) < cells:
        codes = np.sort(_pair_codes(ts.triples, n))
        return not (codes[1:] == codes[:-1]).any()
    off = _triangle_offsets(n)
    seen = np.zeros(cells, dtype=bool)
    for rows in _chunks(ts.triples):
        a, b, c = rows.T.copy()  # contiguous columns
        if (a == b).any() or (b == c).any():  # rows are sorted: a <= b <= c
            return False
        oa = off.take(a)
        seen[oa + b] = True
        oa += c
        seen[oa] = True
        ob = off.take(b)
        ob += c
        seen[ob] = True
    return int(np.count_nonzero(seen)) == 3 * m


def _structural_violations(ts: _SystemBase) -> list:
    bad = []
    rows = ts.triples
    if rows.size:
        same = (rows[:, 0] == rows[:, 1]) | (rows[:, 1] == rows[:, 2])
        for i in np.flatnonzero(same)[:20]:
            bad.append(f"triple {tuple(int(x) for x in rows[i])} has repeated points")
        if rows.shape[0] > 1:
            dup = np.all(rows[1:] == rows[:-1], axis=1)
            for i in np.flatnonzero(dup)[:20]:
                bad.append(f"triple {tuple(int(x) for x in rows[i])} listed twice")
    return bad


def _duplicate_pair_violations(ts: _SystemBase) -> list:
    """One message for each of the first 20 pairs that two triples cover."""
    codes = np.sort(_pair_codes(ts.triples, ts.n))
    dupes = np.unique(codes[1:][codes[1:] == codes[:-1]])[:20]
    return [f"pair {divmod(int(code), ts.n)} covered twice" for code in dupes]


def _size_violations(n: int, m: int) -> list:
    if n in (0, 1):
        return [f"degenerate system on {n} points must have no triples"] if m else []
    bad = []
    if n % 6 not in (1, 3):
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


def _decimal_cells(values: np.ndarray, width: int) -> tuple:
    """Per value: width + 1 bytes holding its decimal digits, a space and
    zero padding; and its digit count."""
    cells = np.zeros(values.shape + (width + 1,), dtype=np.uint8)
    cells[..., :width] = values.astype(f"S{width}").view(np.uint8).reshape(values.shape + (width,))
    lengths = np.count_nonzero(cells, axis=-1)
    np.put_along_axis(cells, lengths[..., None], ord(" "), axis=-1)
    return cells, lengths


def write_system(ts: _SystemBase, path) -> None:
    """Write the header line, then one line "a b c" per row.

    Rows are written a chunk at a time.  Their bytes are gathered from a
    table of the decimal digits of 0..p, p the largest point in a triple,
    unless that table would hold more entries than the rows do.
    """
    kind = "sts" if isinstance(ts, TripleSystem) else "pstss"
    m = ts.n_triples
    size = int(ts.triples.max()) + 1 if m else 0
    width = len(str(max(size - 1, 0)))
    table = _decimal_cells(np.arange(size), width) if size <= 3 * m else None
    column = np.arange(width + 1)
    with open(path, "wb") as fh:
        fh.write(f"{kind} {ts.n}\n".encode())
        for lo in range(0, m, _WRITE_ROWS):
            rows = ts.triples[lo : lo + _WRITE_ROWS]
            if table is None:
                cells, ends = _decimal_cells(rows, width)
            else:
                cells, ends = table[0][rows], table[1][rows]
            cells[np.arange(rows.shape[0]), 2, ends[:, 2]] = ord("\n")
            fh.write(cells[column <= ends[..., None]].tobytes())


class FormatError(ValueError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


_READ_BYTES = 1 << 20  # each step of the parse takes about 9 bytes of scratch per byte
_LINE_SEPARATORS = np.array([ord(" "), ord(" "), ord("\n")], dtype=np.uint8)


def _parse_rows(raw: bytes, start: int, n: int):
    """The rows of raw[start:] as an int32 (m, 3) array, when every line is
    three in-range decimal indices joined by single spaces; else None.

    Reads about _READ_BYTES at a time, cut at line ends, into one array
    with a row per line.  A last line with no newline gets one appended to
    a copy of its chunk alone.
    """
    end = len(raw)
    width = min(len(str(n - 1)), 9) if n else 0  # longer tokens go to the line parser
    unterminated = end > start and raw[-1:] != b"\n"
    rows = np.empty((raw.count(b"\n", start) + unterminated, 3), dtype=np.int32)
    values = rows.reshape(-1)  # at most 9 digits each
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
        chunk = values[done : done + seps.size]
        chunk[:] = 0
        for k in range(1, int(lengths.max()) + 1):  # add the k-th digit from the right
            digit = buf[np.maximum(seps - k, 0)] - np.int32(ord("0"))
            digit *= lengths >= k
            digit *= 10 ** (k - 1)
            chunk += digit
        if chunk.max() >= n:
            return None
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
        rows = []
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
            if any(p < 0 or p >= n for p in t):
                raise FormatError(path, line_no, f"index out of range 0..{n - 1}")
            rows.append(t)
    del raw
    cls = TripleSystem if parts[0] == "sts" else PartialTripleSystem
    try:
        return cls(n, rows)
    except InvalidSystemError as e:
        raise FormatError(path, 1, str(e)) from None
