"""Partial-system embedding pipeline: cyclic gadgets, the Boolean
projective space, triple replacement, and reconstruction.

The pipeline rigidifies a partial triple system V by attaching rigid
cyclic gadgets (V'), embeds V' as the singleton subsets of a projective
space over GF(2), and switches four triples per V'-triple so that the
resulting Steiner system U remembers V' exactly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .system import (
    PartialTripleSystem,
    PointSet,
    TripleSystem,
    VerificationError,
    _CHUNK,
    _share,
    _slices,
    _steps,
    is_subsystem,
    row_dtype,
)


class PstssError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Cyclic partial systems


@dataclass(frozen=True)
class CyclicPstss:
    """A partial system whose triple-intersection graph is one cycle."""

    t: int
    system: PartialTripleSystem


def cyclic_pstss(t: int) -> CyclicPstss:
    """Canonical cycle of t triples on 2t points.

    Triple j is {2j, 2j+1, (2j+2) mod 2t}: even points have degree 2,
    odd points degree 1.
    """
    if t < 3:
        raise PstssError(f"a cyclic system needs at least 3 triples, got {t}")
    cycle = tuple(
        tuple(sorted((2 * j, 2 * j + 1, (2 * j + 2) % (2 * t)))) for j in range(t)
    )
    return CyclicPstss(t=t, system=PartialTripleSystem.from_triples(2 * t, cycle))


# ---------------------------------------------------------------------------
# The rigid gadget


def build_qr(r: int) -> PartialTripleSystem:
    """Gadget with component sizes 2r+4 and 2r+6 on 4r+10 points: two
    cycles sharing the anchor 0 (point i > 0 of the second at 2r+3+i),
    and the pendant triple {2, 2r+5, 4r+9}, whose pendant point is the
    last.  Distinct component sizes and the pendant triple leave no
    symmetry."""
    if r < 1:
        raise PstssError(f"gadget parameter must be >= 1, got {r}")
    n1, n2 = 2 * r + 4, 2 * r + 6
    c1 = cyclic_pstss(n1 // 2).system.triples
    c2 = cyclic_pstss(n2 // 2).system.triples
    c2 = np.where(c2 == 0, 0, c2.astype(np.int32) + (n1 - 1))
    extra = np.array([[2, n1 + 1, n1 + n2 - 1]], dtype=np.int32)
    return PartialTripleSystem(4 * r + 10, np.concatenate([c1, c2, extra]))


# ---------------------------------------------------------------------------
# Attachment


def _attach(v, rs: list) -> PartialTripleSystem:
    """Attach one gadget per point, gadget k using parameter rs[k].

    Point layout: the base points 0..v.n-1 first, then each gadget's
    non-anchor points as one block, in base-point order.
    """
    n = v.n
    blocks = [v.triples]
    next_free = n
    gadgets = {r: build_qr(r) for r in dict.fromkeys(rs)}
    for p in range(n):
        q = gadgets[rs[p]]
        relabel = np.arange(next_free - 1, next_free + q.n - 1)
        relabel[0] = p  # the anchor
        blocks.append(relabel[q.triples])
        next_free += q.n - 1
    return PartialTripleSystem(next_free, np.concatenate(blocks))


def attach_gadgets(v) -> PartialTripleSystem:
    """One identical gadget per point: 4n^2 + 10n points, same symmetry;
    points 0..v.n-1 are v's."""
    if v.n < 1:
        raise PstssError("need at least one point")
    out = _attach(v, [v.n] * v.n)
    if out.n != 4 * v.n * v.n + 10 * v.n:
        raise VerificationError(f"attached system has {out.n} points")
    return out


# ---------------------------------------------------------------------------
# Boolean projective space and triple replacement


# The largest ground size of a Boolean space.  Its n = 2^n' - 1 points take
# about 1.5 n^2 bytes to build: n^2/6 uint16 rows of 6 bytes and the pair
# scan's map of n^2/2.  That is 0.4 GB at n' = 14, 1.6 GB at 15 and 6.4 GB
# at 16.
MAX_GROUND = 15


@dataclass(frozen=True)
class BooleanSpace:
    """Nonempty subsets of an n'-set; point index = bitmask - 1."""

    n_prime: int

    def __post_init__(self):
        if not 1 <= self.n_prime <= MAX_GROUND:
            raise PstssError(
                f"Boolean space ground size {self.n_prime} is outside 1..{MAX_GROUND}: "
                f"2^n' - 1 points take about 1.5 (2^n' - 1)^2 bytes"
            )

    @property
    def n(self) -> int:
        return (1 << self.n_prime) - 1

    def triples_array(self) -> np.ndarray:
        """All (mask-1) index triples {a, b, a xor b}, rows sorted, in
        lexicographic order; one block per top bit h of a, whose partners
        b > a with a xor b > b are the b >= 2^(h+1) with bit h clear."""
        n = self.n
        out = np.empty((n * (n - 1) // 6, 3), dtype=row_dtype(n))
        lo = 0
        for h in range(self.n_prime - 1):
            a = np.arange(1 << h, 2 << h, dtype=np.int32)[:, None]
            b = np.arange(2 << h, n + 1, dtype=np.int32)
            b = b[(b >> h) & 1 == 0]
            block = out[lo : lo + a.size * b.size].reshape(a.size, b.size, 3)
            block[..., 0] = a - 1
            block[..., 1] = b - 1
            block[..., 2] = (a ^ b) - 1
            lo += a.size * b.size
        return out

    def system(self) -> TripleSystem:
        rows = self.triples_array()
        rows.setflags(write=False)  # handed over: the system adopts it
        return TripleSystem(self.n, rows)


boolean_space = BooleanSpace


@dataclass(frozen=True)
class ReplacedSystem:
    """The switched system plus what is needed to audit the switch.

    Point i of the system is the subset with bitmask i+1; singletons
    1 << j are the points of vprime.
    """

    system: TripleSystem
    vprime: PartialTripleSystem
    removed: tuple  # triples of P no longer present (point indices)
    added: tuple  # new triples (point indices)
    _pair_override: dict = field(default_factory=dict, repr=False, compare=False)

    def third(self, x: int, y: int) -> int:
        """The third point of the triple through x, y in the system."""
        key = (x, y) if x < y else (y, x)
        got = self._pair_override.get(key)
        if got is not None:
            return got
        return ((x + 1) ^ (y + 1)) - 1


def replace_triples(space: BooleanSpace, vprime) -> ReplacedSystem:
    """Switch four triples per vprime-triple; the pair cover is unchanged.

    vprime's points index the singleton subsets (point j <-> mask 1<<j).
    The space's rows are switched in place and stay sorted, so the system
    adopts them with no copy.
    """
    if vprime.n > space.n_prime:
        raise PstssError("vprime has more points than the ground set")
    removed = []
    added = []
    for va, vb, vc in vprime.triples.tolist():
        a, b, c = 1 << va, 1 << vb, 1 << vc
        ab, ac, bc = a | b, a | c, b | c
        removed += [(ab, ac, bc), (a, b, ab), (a, c, ac), (b, c, bc)]
        added += [(a, b, c), (a, ab, ac), (b, ab, bc), (c, ac, bc)]
    removed = [tuple(sorted(m - 1 for m in t)) for t in removed]
    added = [tuple(sorted(m - 1 for m in t)) for t in added]

    rows = space.triples_array()
    drop = [bisect_left(rows, t, key=tuple) for t in removed]  # rows are sorted
    if len(set(drop)) != len(removed) or any(
        p == len(rows) or tuple(rows[p]) != t for p, t in zip(drop, removed)
    ):
        raise VerificationError("a removed triple was absent")
    _switch_rows(rows, sorted(drop), sorted(added))
    rows.setflags(write=False)  # handed over: the system adopts it
    system = TripleSystem(space.n, rows)
    override = {}
    for t in added:
        x, y, z = t
        override[(x, y)] = z
        override[(x, z)] = y
        override[(y, z)] = x
    return ReplacedSystem(
        system=system,
        vprime=vprime,
        removed=tuple(removed),
        added=tuple(added),
        _pair_override=override,
    )


def _switch_rows(rows: np.ndarray, drop: list, add: list) -> None:
    """Replace the sorted rows at the ascending positions drop by as many
    sorted rows add, in place and in order.

    Each run of kept rows moves once, by the rows added before it less
    the rows dropped before it: leftward runs from the left, then
    rightward runs from the right, so no run is overwritten before it
    moves.  Through a one-dimensional view numpy moves overlapping runs
    in place.
    """
    kept = rows.shape[0] - len(drop)
    after_drop = [p - i for i, p in enumerate(drop)]  # kept index after each dropped row
    slots = [bisect_left(rows, t, key=tuple) for t in add]
    slots = [s - bisect_left(drop, s) for s in slots]  # in kept indices
    cuts = sorted({0, kept, *after_drop, *slots})
    moves = [
        (u + bisect_right(after_drop, u), u + bisect_right(slots, u), v - u)
        for u, v in zip(cuts, cuts[1:])
    ]
    flat = rows.reshape(-1)
    left = [mv for mv in moves if mv[1] < mv[0]]
    right = [mv for mv in moves if mv[1] > mv[0]]
    for src, dst, size in left + right[::-1]:
        flat[3 * dst : 3 * (dst + size)] = flat[3 * src : 3 * (src + size)]
    for j, (s, t) in enumerate(zip(slots, add)):
        rows[s + j] = t


def nonspace_triples(rep: ReplacedSystem) -> list:
    """Triples of the switched system that are not lines of the space,
    found a step at a time (_steps).

    A line has the xor of its three masks zero; the switched-in triples
    do not.
    """
    rows, size = rep.system.triples, _share(_CHUNK)

    def scratch():
        k = min(size, rows.shape[0])
        return np.empty((k, 3), np.int32), np.empty(k, np.int32)

    def step(part, s):
        masks, xor = s[0][: part.shape[0]], s[1][: part.shape[0]]
        np.add(part, 1, out=masks, dtype=np.int32)
        np.bitwise_xor(masks[:, 0], masks[:, 1], out=xor)
        xor ^= masks[:, 2]
        return part[np.flatnonzero(xor)]

    out = []
    for hits in _steps(_slices(rows, size), step, scratch):
        out += map(tuple, hits.tolist())
    return out


def check_property_44(rep: ReplacedSystem) -> bool:
    """Each pair-type point of a switched triple is in exactly two
    non-line triples of the system."""
    degree = Counter(p for t in nonspace_triples(rep) for p in t)
    for va, vb, vc in rep.vprime.triples.tolist():
        a, b, c = 1 << va, 1 << vb, 1 << vc
        for pair_mask in (a | b, a | c, b | c):
            if degree.get(pair_mask - 1, 0) != 2:
                return False
    return True


# ---------------------------------------------------------------------------
# Reconstruction


def _u_set(rep: ReplacedSystem, p: int, x: int, y: int):
    """The 7-set {p, x, y, x1, y1, z, q}, or None if degenerate."""
    x1 = rep.third(p, x)
    y1 = rep.third(p, y)
    if x1 == y or y1 == x or x1 == y1:
        return None
    z = rep.third(x1, y1)
    if z in (p, x, y):
        return None
    q = rep.third(p, z)
    pts = {p, x, y, x1, y1, z, q}
    if len(pts) != 7:
        return None
    return frozenset(pts), z


def _closed_u_set(rep: ReplacedSystem, pts: frozenset, x: int, y: int, z: int) -> bool:
    """Condition (i): closed under joins by triples avoiding two of x, y, z."""
    special = {x, y, z}
    pl = sorted(pts)
    for i, u1 in enumerate(pl):
        for u2 in pl[i + 1 :]:
            w = rep.third(u1, u2)
            if len({u1, u2, w} & special) >= 2:
                continue
            if w not in pts:
                return False
    return True


def reconstruct_line(rep: ReplacedSystem, x: int, y: int) -> frozenset:
    """Recover the space line through x and y from the switched system.

    Tries every third point p in ascending order, forms the closed
    7-sets, and intersects the first two distinct ones; their common
    part is the line.
    """
    n = rep.system.n
    if x == y:
        raise PstssError("need two distinct points")
    if not (0 <= x < n and 0 <= y < n):
        raise PstssError(f"line points must lie in 0..{n - 1}, got {x}, {y}")
    found = set()
    for p in range(n):
        if p in (x, y):
            continue
        got = _u_set(rep, p, x, y)
        if got is not None and _closed_u_set(rep, got[0], x, y, got[1]):
            found.add(got[0])
            if len(found) == 2:
                break
    line = frozenset.intersection(*found) if len(found) == 2 else frozenset()
    if len(line) != 3:
        raise PstssError(
            f"could not reconstruct the line through {x}, {y} "
            f"from {len(found)} distinct closed 7-sets"
        )
    return line


def recover_vprime(rep: ReplacedSystem) -> PointSet:
    """The singleton points of vprime, from the switched system alone.

    Rule one: a point in more than two non-line triples.  Rule two: a
    point in exactly two, where one of those triples has both other
    points satisfying rule one.
    """
    xtr = nonspace_triples(rep)
    degree = Counter(p for t in xtr for p in t)
    rule1 = {p for p, d in degree.items() if d > 2}
    out = set(rule1)
    for t in xtr:
        for p in t:
            if degree.get(p) == 2:
                others = [q for q in t if q != p]
                if all(q in rule1 for q in others):
                    out.add(p)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Corollary builders


def corollary46_build(v: TripleSystem, w: TripleSystem) -> PartialTripleSystem:
    """Rigidify W with distinct gadget sizes, then adjoin V disjointly:
    W' is the first |W'| points of the result, and the V copy its last v.n.

    Gadget k on the k-th point of W uses parameter k|W|·rounds, so no
    two gadgets are isomorphic.  W' has n + Σ_k (4 r_k + 9) points, that
    is 10n + 2n²(n+1)·rounds, and `rounds` is the least that makes
    |W'| > |V|.
    """
    n = w.n
    if n < 1:
        raise PstssError("W needs at least one point")
    rounds = max(1, (v.n - 10 * n) // (2 * n * n * (n + 1)) + 1)
    wprime = _attach(w, [(k + 1) * n * rounds for k in range(n)])
    triples = np.concatenate([wprime.triples, v.triples.astype(np.int64) + wprime.n])
    return PartialTripleSystem(wprime.n + v.n, triples)


def corollary47_build(v: TripleSystem, v1) -> PartialTripleSystem:
    """Mark the subsystem v1 by pendant triples x, x', z: x' is point
    v.n + i for the i-th point x of sorted(v1), and z is the last point.

    The symmetry of the result is the set-stabilizer of v1 in the
    symmetry of v.
    """
    v1 = frozenset(v1)
    if any(not 0 <= x < v.n for x in v1):
        raise PstssError(f"v1 points must lie in 0..{v.n - 1}")
    if not is_subsystem(v, v1):
        raise PstssError("v1 is not a closed subsystem")
    if v1 == frozenset(range(v.n)):
        raise PstssError("v1 must be a proper subsystem")
    order = sorted(v1)
    z = v.n + len(order)
    x = np.array(order, dtype=np.int64)
    pendant = np.stack([x, v.n + np.arange(x.size), np.full(x.size, z)], axis=1)
    return PartialTripleSystem(z + 1, np.concatenate([v.triples, pendant]))
