"""Triple systems, partial triple systems, validation, closure, and file I/O.

Points are always dense indices 0..n-1.  Triples are stored as a numpy
(m, 3) int32 array with each row sorted ascending and rows in lexicographic
order, so two systems with the same triples compare equal bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

PointSet = frozenset  # frozenset[int]; subsets of 0..n-1


def _normalize(n: int, triples) -> np.ndarray:
    arr = np.asarray(triples, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("triples must be an (m, 3) array")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise ValueError("triple entry out of range 0..n-1")
    arr = np.sort(arr, axis=1)
    order = np.lexsort((arr[:, 2], arr[:, 1], arr[:, 0]))
    arr = np.ascontiguousarray(arr[order], dtype=np.int32)
    arr.setflags(write=False)
    return arr


class VerificationError(RuntimeError):
    """A computed result failed the independent check made before returning it."""


@dataclass(eq=False)
class _SystemBase:
    n: int
    triples: np.ndarray

    def __post_init__(self):
        self.triples = _normalize(self.n, self.triples)

    @classmethod
    def from_triples(cls, n: int, triples: Iterable):
        return cls(n, list(triples))

    def __len__(self) -> int:
        return self.n

    @property
    def n_triples(self) -> int:
        return self.triples.shape[0]

    def iter_triples(self) -> Iterator[tuple[int, int, int]]:
        for row in self.triples:
            yield (int(row[0]), int(row[1]), int(row[2]))

    def triple_set(self) -> set:
        return set(self.iter_triples())

    def pair_third(self) -> dict:
        """Map each covered pair (a, b) with a < b to the third point."""
        out = {}
        for a, b, c in self.iter_triples():
            out[(a, b)] = c
            out[(a, c)] = b
            out[(b, c)] = a
        return out

    def point_triples(self) -> list:
        """Per-point list of incident triples."""
        out = [[] for _ in range(self.n)]
        for t in self.iter_triples():
            for p in t:
                out[p].append(t)
        return out

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
    a = triples[:, 0].astype(dtype)
    b = triples[:, 1].astype(dtype)
    c = triples[:, 2].astype(dtype)
    nn = dtype(n) if dtype is np.uint32 else n
    return np.concatenate([a * nn + b, a * nn + c, b * nn + c])

_CHUNK = 1 << 21


def _scan_pair_coverage(ts: _SystemBase) -> tuple:
    """Return (duplicate pair list (possibly truncated), covered-pair count).

    Memory-bounded: uses a bitmap of n^2 bits, processing triples in chunks.
    """
    n = ts.n
    bitmap = np.zeros((n * n + 7) // 8, dtype=np.uint8)
    dupes = []
    covered = 0
    m = ts.n_triples
    for lo in range(0, m, _CHUNK):
        chunk = ts.triples[lo : lo + _CHUNK]
        codes = _pair_codes(chunk, n)
        uniq, counts = np.unique(codes, return_counts=True)
        for code in uniq[counts > 1][:20]:
            dupes.append(int(code))
        idx = (uniq >> 3).astype(np.int64)
        bit = np.left_shift(1, (uniq & 7).astype(np.uint8)).astype(np.uint8)
        seen = (bitmap[idx] & bit) != 0
        for code in uniq[seen][:20]:
            dupes.append(int(code))
        covered += int(len(uniq)) - int(np.count_nonzero(seen))
        np.bitwise_or.at(bitmap, idx, bit)
    return dupes, covered


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


def validate_pstss(ps: _SystemBase) -> ValidationReport:
    """Check the partial-system axiom: each pair in at most one triple."""
    violations = _structural_violations(ps)
    if not violations:
        dupes, _ = _scan_pair_coverage(ps)
        for code in dupes:
            a, b = divmod(code, ps.n)
            violations.append(f"pair ({a}, {b}) covered twice")
    return ValidationReport(not violations, tuple(violations))


def validate_sts(ts: _SystemBase) -> ValidationReport:
    """Check the full axioms: each pair in exactly one triple, admissible size."""
    n = ts.n
    violations = list(_structural_violations(ts))
    if n in (0, 1):
        if ts.n_triples:
            violations.append(f"degenerate system on {n} points must have no triples")
        return ValidationReport(not violations, tuple(violations))
    if n % 6 not in (1, 3):
        violations.append(f"{n} points is inadmissible (need n = 1 or 3 mod 6)")
    want = n * (n - 1) // 6
    if ts.n_triples != want:
        violations.append(f"triple count {ts.n_triples}, expected {want}")
    if not violations:
        dupes, covered = _scan_pair_coverage(ts)
        for code in dupes:
            a, b = divmod(code, n)
            violations.append(f"pair ({a}, {b}) covered twice")
        if not dupes and covered != n * (n - 1) // 2:
            # count + distinctness normally implies full coverage; keep the
            # direct check so a bad bitmap scan can never pass silently
            violations.append(f"only {covered} of {n * (n - 1) // 2} pairs covered")
    return ValidationReport(not violations, tuple(violations))


def span(ts: _SystemBase, seed: Iterable, cap: int | None = None) -> PointSet:
    """Smallest point set containing seed closed under third-point joins.

    With cap set, returns early (uncapped superset semantics are abandoned)
    as soon as the closure exceeds cap points; the partial result is still a
    subset of the true closure.
    """
    third = ts.pair_third() if not hasattr(ts, "_third_cache") else ts._third_cache
    if not hasattr(ts, "_third_cache"):
        # cache on the instance: closure sweeps call this heavily
        object.__setattr__(ts, "_third_cache", third)
    current = set(seed)
    frontier = list(current)
    while frontier:
        new = []
        pts = sorted(current)
        for p in frontier:
            for q in pts:
                if q == p:
                    continue
                key = (p, q) if p < q else (q, p)
                r = third.get(key)
                if r is not None and r not in current:
                    current.add(r)
                    new.append(r)
                    if cap is not None and len(current) > cap:
                        return frozenset(current)
        frontier = new
    return frozenset(current)


def is_subsystem(ts: _SystemBase, points: Iterable) -> bool:
    pts = frozenset(points)
    return span(ts, pts, cap=len(pts)) == pts


def restrict(ts: _SystemBase, points: Iterable) -> tuple:
    """Induced system on a closed point set.

    Returns (system, old_of_new) where old_of_new[i] is the ambient index of
    the i-th point of the restriction.
    """
    pts = sorted(set(points))
    index = {p: i for i, p in enumerate(pts)}
    sub = [
        (index[a], index[b], index[c])
        for (a, b, c) in ts.iter_triples()
        if a in index and b in index and c in index
    ]
    cls = TripleSystem if isinstance(ts, TripleSystem) else PartialTripleSystem
    return cls.from_triples(len(pts), sub), pts


# ---------------------------------------------------------------------------
# "sts/1" text format


def write_system(ts: _SystemBase, path) -> None:
    kind = "sts" if isinstance(ts, TripleSystem) else "pstss"
    with open(path, "w") as fh:
        fh.write(f"{kind} {ts.n}\n")
        for a, b, c in ts.iter_triples():
            fh.write(f"{a} {b} {c}\n")


class FormatError(ValueError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def read_system(path):
    """Parse an "sts/1" file into a TripleSystem or PartialTripleSystem."""
    with open(path) as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2 or parts[0] not in ("sts", "pstss"):
            raise FormatError(path, 1, "expected header 'sts <n>' or 'pstss <n>'")
        try:
            n = int(parts[1])
        except ValueError:
            raise FormatError(path, 1, f"bad point count {parts[1]!r}") from None
        triples = []
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
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
            triples.append(t)
    cls = TripleSystem if parts[0] == "sts" else PartialTripleSystem
    return cls.from_triples(n, triples)
