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
import itertools
import os
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

PointSet = frozenset  # frozenset[int]; subsets of 0..n-1


_KEY_MAX_N = 2_097_151  # largest n with n**3 < 2**63, so row keys fit int64
_INT32_MAX = np.iinfo(np.int32).max
_CHUNK = 1 << 17  # rows in the steps of the one pass over the rows that both workers hold


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share(budget: int) -> int:
    """One step's share of a budget that the steps of both workers hold together."""
    return max(budget // 2, 1)


def _steps(inputs: Iterable, step, scratch) -> Iterator:
    """Yield step(x, s) for each x of inputs, in order.

    The calling thread draws the inputs two at a time, the next two once
    both steps before have returned and their results were taken.  With
    two inputs or more and two CPUs, it runs the first step of each two
    and a helper thread, started here and joined before this returns,
    raises or is closed, the second; numpy lets go of the interpreter lock
    inside its loops, so the two overlap.  s is the scratch of the worker
    running the step, made by scratch() in the calling thread, so steps
    that write into it leave next to no freed memory in the helper's own
    malloc arena.  The error of the first step in order that raises is
    raised here, as if the steps ran one by one.
    """
    inputs = iter(inputs)
    two = list(itertools.islice(inputs, 2))
    if len(two) < 2 or _cpus() < 2:
        yield from map(step, itertools.chain(two, inputs), itertools.repeat(scratch()))
        return
    own, theirs = scratch(), scratch()
    from concurrent.futures import ThreadPoolExecutor  # not at import stslab: it loads logging

    with ThreadPoolExecutor(1, thread_name_prefix="stslab-step") as helper:
        while two:
            second = [helper.submit(step, x, theirs) for x in two[1:]]
            yield step(two[0], own)
            yield from (odd.result() for odd in second)
            two = list(itertools.islice(inputs, 2))


def _slices(arr: np.ndarray, size: int) -> Iterator[np.ndarray]:
    """arr[lo : lo + size] for lo = 0, size, 2 * size, ...: the inputs of a row pass's steps."""
    return (arr[lo : lo + size] for lo in range(0, len(arr), size))


def _triple_keys(rows: np.ndarray, n: int, out=None) -> np.ndarray:
    """One int64 key a*n^2 + b*n + c per row, n <= _KEY_MAX_N; keys order like the rows."""
    keys = np.multiply(rows[:, 0], n, out=out, dtype=np.int64)
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
    copied, so a system never shares a writable buffer.  Integer entries
    of another dtype are checked before the cast, other entries refused.
    A cast is let go before the sort, so sorting holds the caller's
    triples, the int64 keys and then the new rows.
    """
    if n < 0:
        raise ValueError(f"point count {n} is negative")
    dtype = row_dtype(n)
    arr = triples = np.asarray(triples)  # no forced dtype: 0.5 or "1" is refused, not cast
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"triple entries must be integers, got {arr.dtype}")
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
    shared = np.may_share_memory(arr, triples)
    adopt = shared and triples.flags.owndata and not triples.flags.writeable
    del triples  # an int64 array made from a list above is not needed again
    ordered, distinct = _scan_rows(arr, n)
    if not ordered and n > _KEY_MAX_N:
        arr = _lexsorted_rows(arr, n)
    elif not ordered:
        keys = _row_keys(arr, n)
        del arr  # a cast made above goes before the keys are sorted
        keys.sort(kind="stable")  # timsort: fast on nearly sorted rows
        arr = _rows_of_keys(keys, n)
    elif shared and not adopt:
        arr = arr.copy()
    arr.setflags(write=False)
    if distinct is None:
        codes = np.sort(_pair_codes(arr, n))
        distinct = not (codes[1:] == codes[:-1]).any()
    return arr, distinct


def _scan_rows(rows: np.ndarray, n: int) -> tuple:
    """(ordered, distinct) from one pass over the rows, a step at a time
    on contiguous copies of its columns: sort them by a min/max network if
    a row is out of order, check their min and max lie in 0..n-1 and each
    key against the row before's, and mark each pair x < y at its upper-
    triangle index (_triangle_offsets) in a map of n(n-1)/2 bytes.  A row
    with a repeated point has no index: its step marks nothing and settles
    `distinct`.  distinct is None when the codes a*n+b take fewer bytes
    than the map: the caller sorts them.  Two steps mark the map at once;
    they write only True, so neither can undo the other's marks."""
    m, size = rows.shape[0], _share(_CHUNK)
    cells = n * (n - 1) // 2
    seen = None
    if 3 * m * (4 if n <= 65535 else 8) >= cells:
        seen, off = np.zeros(cells, dtype=bool), _triangle_offsets(n)
    keyed = n <= _KEY_MAX_N  # larger keys do not fit int64: such rows are always sorted

    def scratch():
        k = min(size, m)
        return (np.empty((3, k), rows.dtype), np.empty(k, rows.dtype), np.empty(k, np.int64),
                np.empty(k, bool), np.empty((2, k), np.intp))

    def step(part, s):
        """(first key, last key) if the step's rows are in order, else None;
        and whether a row repeats a point."""
        k = part.shape[0]
        cols, low, keys, flags, (wide, oa) = (x[..., :k] for x in s)
        np.copyto(cols, part.T)
        a, b, c = cols
        inside = not (np.greater(a, b, out=flags).any() or np.greater(b, c, out=flags).any())
        if not inside:
            _sort_columns(cols, low)
        if a.min() < 0 or c.max() >= n:
            raise ValueError("triple entry out of range 0..n-1")
        bounds = None
        if keyed and inside:
            _triple_keys(cols.T, n, out=keys)
            if not np.less(keys[1:], keys[:-1], out=flags[1:]).any():
                bounds = keys[0], keys[-1]
        repeats = seen is not None and (
            np.equal(a, b, out=flags).any() or np.equal(b, c, out=flags).any()
        )
        if seen is not None and not repeats:  # sorted: a < b < c
            np.copyto(wide, a)  # take() would widen its indices into a new array
            np.take(off, wide, out=oa, mode="clip")
            np.add(oa, b, out=wide)
            seen[wide] = True
            oa += c
            seen[oa] = True
            np.copyto(wide, b)
            np.take(off, wide, out=oa, mode="clip")
            oa += c
            seen[oa] = True
        return bounds, repeats

    ordered, distinct, last = keyed, True, -1
    for bounds, repeats in _steps(_slices(rows, size), step, scratch):
        ordered = ordered and bounds is not None and bounds[0] >= last
        last = bounds[1] if ordered else last
        distinct = distinct and not repeats
    if seen is None:
        return ordered, None
    return ordered, distinct and int(np.count_nonzero(seen)) == 3 * m


def _sort_columns(cols: np.ndarray, low: np.ndarray) -> None:
    """Sort each row's three entries in place by a min/max network; the
    rows of cols, (3, k), hold the first, second and third entries, and
    low is scratch of k entries."""
    for i, j in ((0, 1), (1, 2), (0, 1)):
        np.minimum(cols[i], cols[j], out=low)
        np.maximum(cols[i], cols[j], out=cols[j])
        cols[i] = low


def _row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """The int64 keys of the rows, each sorted by the network, in row
    order, n <= _KEY_MAX_N; built a step at a time (_steps)."""
    m, size = rows.shape[0], _share(_CHUNK)
    keys = np.empty(m, dtype=np.int64)

    def scratch():
        return np.empty((3, min(size, m)), rows.dtype), np.empty(min(size, m), rows.dtype)

    def step(parts, s):
        part, into = parts
        cols, low = s[0][:, : part.shape[0]], s[1][: part.shape[0]]
        np.copyto(cols, part.T)
        _sort_columns(cols, low)
        _triple_keys(cols.T, n, out=into)

    for _ in _steps(zip(_slices(rows, size), _slices(keys, size)), step, scratch):
        pass
    return keys


def _rows_of_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """The rows whose keys are given, as a new array of row_dtype(n),
    unpacked in place a step at a time (_steps); keys is left holding the
    rows' first entries."""
    out = np.empty((keys.size, 3), dtype=row_dtype(n))
    size = _share(_CHUNK)

    def step(parts, s):
        part, rows = parts
        for j in (2, 1):
            np.remainder(part, n, out=rows[:, j], casting="unsafe")
            np.floor_divide(part, n, out=part)
        rows[:, 0] = part

    for _ in _steps(zip(_slices(keys, size), _slices(out, size)), step, lambda: None):
        pass
    return out


def _lexsorted_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """A new array of the rows, each sorted by the network, in
    lexicographic order by (a*n + b, c), for n above _KEY_MAX_N."""
    cols = rows.T.copy()
    _sort_columns(cols, np.empty_like(cols[0]))
    order = np.lexsort((cols[2], cols[0].astype(np.int64) * n + cols[1]))
    return np.ascontiguousarray(cols.T[order])


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


def fano_planes(ts: _SystemBase, p, q1, r1, q2, r2) -> tuple:
    """(hit, s, t) for arrays of at most PLANE_STEP pairs of distinct
    triples {p, q1, r1}, {p, q2, r2}: the indices of the pairs that lie in
    a PG(2, 2), and its other points s = q1q2 = r1r2 and t = q1r2 = r1q2,
    with st = p.  These five lookups find all seven lines.  Most pairs
    fail the first comparison and are dropped before the other three.
    """
    n, flat = ts.n, ts.incidence.third.reshape(-1)
    wide = np.int32 if n * n < 2**31 else np.int64  # so that q * n + r cannot wrap

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
    that is not closed raises InvalidSystemError, and a point that is no
    integer or lies outside 0..n-1 raises ValueError.
    """
    pts = np.unique(np.asarray(list(points)))
    if pts.size and pts.dtype.kind not in "iu":
        raise ValueError(f"restricted points must be integers, got {pts.dtype}")
    if pts.size and (pts[0] < 0 or pts[-1] >= ts.n):
        raise ValueError(f"restricted points must lie in 0..{ts.n - 1}")
    new_of_old = np.full(ts.n, -1, dtype=np.int32)
    new_of_old[pts.astype(np.intp)] = np.arange(pts.size)
    rows = new_of_old[ts.triples]
    cls = TripleSystem if isinstance(ts, TripleSystem) else PartialTripleSystem
    return cls(pts.size, rows[np.all(rows >= 0, axis=1)]), pts.tolist()


# ---------------------------------------------------------------------------
# "sts/1" text format


_WRITE_ROWS = 1 << 18  # rows in the steps of the writer that both workers hold


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

    Rows are formatted a step at a time (_steps), as their cells' nonzero
    bytes, and hashed and written in order, so at most two formatted steps
    wait.  The cells of a step are taken into its worker's scratch, one
    item per entry, from a table holding each of 0..p, p the largest point
    in a triple, as "p " at 2p and "p\\n" at 2p + 1; unless that table
    would hold more entries than the rows do, when each step formats its
    own rows.
    """
    kind = "sts" if isinstance(ts, TripleSystem) else "pstss"
    rows, m, size = ts.triples, ts.n_triples, _share(_WRITE_ROWS)
    top = int(rows.max()) + 1 if m else 0
    width = len(str(max(top - 1, 0)))
    tabled = top <= 3 * m
    if tabled:
        pairs = np.arange(top).repeat(2).reshape(top, 2)
        tokens = _decimal_cells(pairs, width).view(f"V{width + 1}").reshape(2 * top)

    def scratch():
        if not tabled:
            return None
        k = min(size, m)
        cells = np.empty((k, 3), tokens.dtype)
        keep, lines = np.empty(cells.nbytes, bool), np.empty(cells.nbytes, np.uint8)
        return np.empty((k, 3), np.intp), cells, keep, lines

    def step(part, s):
        if not tabled:
            cells = _decimal_cells(part, width)
            return cells[cells != 0].tobytes()
        index, cells = s[0][: part.shape[0]], s[1][: part.shape[0]]
        np.multiply(part, 2, out=index, dtype=np.intp)
        index += (0, 0, 1)
        np.take(tokens, index, out=cells, mode="clip")
        flat = cells.view(np.uint8).reshape(-1)
        keep = np.not_equal(flat, 0, out=s[2][: flat.size])
        lines = s[3][: np.count_nonzero(keep)]
        lines[:] = flat[keep]  # the step's one new array, let go at once
        return lines

    head = f"{kind} {ts.n}\n".encode()
    digest = hashlib.sha256(head)
    with open(path, "wb") as fh:
        fh.write(head)
        for lines in _steps(_slices(rows, size), step, scratch):
            digest.update(lines)
            fh.write(lines)
    return digest.hexdigest()


class FormatError(ValueError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


_READ_BYTES = 1 << 20  # bytes in the blocks of the two steps the workers hold at once
_FIELD = re.compile(rb"[^ \t\r\n]+")  # a field of a line: a maximal run of non-blank bytes


def _blocks(fh, size: int, tokens) -> Iterator[tuple]:
    """(block, lines, work, tok) for the rest of fh, read once: block views
    a blank, then size bytes read on to the end of their last line (which
    gets a newline if it has none); lines counts the newlines before it.
    Blocks take turns in two buffers, each with its step's scratch, work
    (three bytes a byte) and tok = tokens(k), k three per newline or more,
    replaced here when outgrown; so a block and its result must be done
    with before the block two after it is drawn, as _steps does."""
    cap = size + 2  # a blank, size bytes and a newline
    slots = [[bytearray(b" ") * cap, np.empty((3, cap), np.uint8), tokens(0)] for _ in range(2)]
    lines = 0
    for slot in itertools.cycle(slots):
        raw = slot[0]
        end = 1 + fh.readinto(memoryview(raw)[1 : size + 1])
        tail = fh.readline()  # the rest of the last line read
        if end + len(tail) >= len(raw):  # no room for a newline after it
            raw = slot[0] = raw[:end] + bytes(len(tail) + 1)
            slot[1] = np.empty((3, len(raw)), np.uint8)
        raw[end : end + len(tail)] = tail
        end += len(tail)
        if end == 1:
            return
        if raw[end - 1] != ord("\n"):
            raw[end], end = ord("\n"), end + 1
        count = raw.count(b"\n", 1, end)
        if slot[2][0].size < 3 * count:
            slot[2] = tokens(3 * count)
        yield np.frombuffer(raw, np.uint8, end), lines, slot[1], slot[2]
        lines += count


def _parse_rows(path, fh, n: int) -> np.ndarray:
    """The rows of the rest of fh, the body of the file at path, as a
    read-only (m, 3) array of row_dtype(n).

    The grammar of the body: every byte is a digit 0-9, a blank (space,
    tab or \\r) or a newline; a token is a maximal run of digits; every
    line that is not blank holds three tokens, each an index below n and
    below 2**31.  Leading zeros are fine.  The first line that breaks it
    raises FormatError with the first rule broken there, counting the
    fields between blanks: three fields, then digits only, then the range.

    The calling thread reads the body once, in blocks of whole lines
    (_blocks), which two workers parse (_steps): the falling edges of a
    block's digits end its tokens; one take checks the gaps between them
    when each is the one byte of an "a b c\\n" line, else the end bytes of
    each gap (a searchsorted into the newlines for a longer one) tell
    whether it holds a newline, and byte counts whether any byte is outside
    the grammar.  Values are summed from the last digits in int32 (int64
    for 10-digit indices); a longer token is in range only if its digits
    beyond those are 0.  The rows are made for the fewer of n(n-1)/6 and a
    row per six bytes of a file (of a block, for a pipe); more double them.
    A file smaller than a block is read in one block of its size.
    """
    top = min(n, _INT32_MAX + 1)  # the indices 0..top - 1 are in range
    width = len(str(max(top - 1, 0)))  # digits of the largest index, at most 10
    size = _share(_READ_BYTES)
    body = os.fstat(fh.fileno()).st_size - fh.tell() if fh.seekable() else size
    rows = np.empty((min(n * (n - 1) // 6, max(body, 0) // 6 + 1), 3), dtype=row_dtype(n))

    def tokens(k):
        return (np.tile(np.frombuffer(b"  \n", np.uint8), -(-k // 3))[:k], np.empty(k, np.intp),
                np.empty((2, k), np.uint8), np.empty((2, k), np.int64 if width > 9 else np.int32))

    def step(block, s):
        buf, lines, work, tok = block
        value, digit, edge = work[:, : buf.size]
        digit, edge = digit.view(bool), edge[:-1].view(bool)
        np.subtract(buf, ord("0"), out=value)
        np.less(value, 10, out=digit)
        value *= digit  # 0 at every other byte
        last = np.flatnonzero(np.greater(digit[:-1], digit[1:], out=edge))
        k = last.size  # the tokens, each buf[before + 1 : last + 1]
        pattern, before, (after, got), (total, part) = (
            a[..., :k] for a in (tok if k <= tok[0].size else tokens(k))
        )
        np.take(buf[1:], last, out=after, mode="clip")  # the first byte of each gap
        faults = []  # offsets on bad lines, one of them on the first
        gaps = buf.size - 1 - np.count_nonzero(digit)  # the bytes between the tokens
        if gaps == k and np.equal(after, pattern, out=got.view(bool)).all():  # "a b c\n" lines
            before[:1] = 0
            np.add(last[:-1], 1, out=before[1:])
        else:
            before[:] = np.flatnonzero(np.less(digit[:-1], digit[1:], out=edge))
            np.take(buf, before[1:], out=got[:-1], mode="clip")  # the last byte of each gap
            got[-1:] = ord("\n")
            ends = (after == ord("\n")) | (got == ord("\n"))  # whether a newline follows the token
            if (wide := np.flatnonzero(before[1:] - last[:-1] > 2)).size:  # gaps of 3 bytes or more
                nl = np.flatnonzero(buf == ord("\n"))
                ends[wide] = (np.searchsorted(nl, last[wide])
                              < np.searchsorted(nl, before[wide + 1], "right"))
            faults.append(before[ends != (pattern == ord("\n"))] + 1)
            if sum(np.count_nonzero(np.equal(buf[1:], c, out=edge)) for c in b" \t\r\n") != gaps:
                faults.append([re.search(rb"[^0-9 \t\r\n]", buf.tobytes()).start()])
        total[:] = 0
        for d in range(width):  # add the (d + 1)-th digit from the right
            np.take(value, last, out=got, mode="clip")
            np.multiply(got, 10**d, out=part, dtype=part.dtype)
            total += part
            last -= 1
            np.maximum(last, before, out=last)  # past a token's first digit: the 0 before it
        bad = np.greater_equal(total, top, out=got.view(bool))
        if (longer := np.flatnonzero(last > before)).size:  # digits past width: in range if all are 0
            at = np.column_stack((before, last))[longer].ravel() + 1  # spans of the extra digits
            bad[longer] |= np.maximum.reduceat(value, at)[::2] > 0
        faults.append(before[bad] + 1)
        if (where := np.concatenate(faults)).size:
            at, text = int(where.min()), buf.tobytes()
            fields = _FIELD.findall(text[text.rfind(b"\n", 0, at) + 1 : text.find(b"\n", at)])
            fault = ("expected three indices" if len(fields) != 3 else "non-integer index"
                     if not all(map(bytes.isdigit, fields)) else f"index out of range 0..{top - 1}")
            raise FormatError(path, lines + text.count(b"\n", 0, at) + 2, fault)
        return total

    m = 0  # the values stored: blank lines store none
    for total in _steps(_blocks(fh, min(size, max(body, 1)), tokens), step, lambda: None):
        if m + total.size > rows.size:
            rows.resize((max(2 * len(rows), (m + total.size) // 3), 3), refcheck=False)
        rows.reshape(-1)[m : m + total.size] = total
        m += total.size
    rows.resize((m // 3, 3), refcheck=False)
    rows.setflags(write=False)  # handed over: the system adopts it
    return rows


def read_system(path):
    """Parse an "sts/1" file into a TripleSystem or PartialTripleSystem.

    The first line is the header "sts <n>" or "pstss <n>"; the same handle
    reads the body on for _parse_rows, which states its grammar.  The
    system the header names is then built, which validates it; a file that
    breaks its axioms raises FormatError listing every violation found.
    """
    with open(path, "rb") as fh:
        parts = _FIELD.findall(fh.readline())
        if len(parts) != 2 or parts[0] not in (b"sts", b"pstss"):
            raise FormatError(path, 1, "expected header 'sts <n>' or 'pstss <n>'")
        try:
            n = int(parts[1]) if parts[1].isdigit() else -1
        except ValueError:  # more digits than int() converts
            n = -1
        if n < 0:
            raise FormatError(path, 1, f"bad point count {parts[1].decode('utf-8', 'replace')!r}")
        rows = _parse_rows(path, fh, n)
    cls = TripleSystem if parts[0] == b"sts" else PartialTripleSystem
    try:
        return cls(n, rows)
    except InvalidSystemError as e:
        raise FormatError(path, 1, str(e)) from None
