"""Partial-system embedding pipeline: cyclic gadgets, the Boolean
projective space, triple replacement, and reconstruction.

The pipeline rigidifies a partial triple system V by attaching rigid
cyclic gadgets (V'), embeds V' as the singleton subsets of a projective
space over GF(2), and switches four triples per V'-triple so that the
resulting Steiner system U remembers V' exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .system import (
    PartialTripleSystem,
    PointSet,
    TripleSystem,
    VerificationError,
    validate_pstss,
)


class PstssError(ValueError):
    pass


def _check_pstss(system) -> None:
    report = validate_pstss(system)
    if not report.ok:
        raise VerificationError("; ".join(report.violations))


# ---------------------------------------------------------------------------
# Cyclic partial systems


@dataclass(frozen=True)
class CyclicPstss:
    """A partial system whose triple-intersection graph is one cycle."""

    t: int
    system: PartialTripleSystem
    cycle: tuple  # triples in cycle order

    @property
    def n(self) -> int:
        return 2 * self.t


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
    return CyclicPstss(t=t, system=PartialTripleSystem.from_triples(2 * t, cycle), cycle=cycle)


def is_cyclic_pstss(ps) -> bool:
    """Check the defining property: triples meeting pairwise form a cycle."""
    triples = list(ps.iter_triples())
    k = len(triples)
    if k < 3:
        return False
    adj = [[] for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if set(triples[i]) & set(triples[j]):
                adj[i].append(j)
                adj[j].append(i)
    if any(len(a) != 2 for a in adj):
        return False
    seen = {0}
    cur, prev = adj[0][0], 0
    while cur != 0:
        seen.add(cur)
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        prev, cur = cur, nxt
    return len(seen) == k


# ---------------------------------------------------------------------------
# The rigid gadget


@dataclass(frozen=True)
class GadgetQ:
    """Two cyclic systems sharing the anchor z, plus one pendant triple.

    The components have 2r+4 and 2r+6 points, so the gadget has 4r+10;
    distinct component sizes and the pendant triple leave no symmetry.
    """

    r: int
    system: PartialTripleSystem
    z: int
    z1: int
    z2: int
    zp1: int  # degree-3 neighbor of the pendant point in component 1
    zp2: int
    zp: int  # the pendant point
    c1_points: tuple
    c2_points: tuple

    @property
    def n(self) -> int:
        return 4 * self.r + 10


def build_qr(r: int) -> GadgetQ:
    """Gadget with component sizes 2r+4 and 2r+6 on 4r+10 points."""
    if r < 1:
        raise PstssError(f"gadget parameter must be >= 1, got {r}")
    n1, n2 = 2 * r + 4, 2 * r + 6
    # component 1 on points 0..n1-1 with z = 0
    c1 = [tuple(sorted((2 * j, 2 * j + 1, (2 * j + 2) % n1))) for j in range(n1 // 2)]
    # component 2 reuses z = 0 and fresh points n1..n1+n2-2
    off = n1 - 1

    def p2(i: int) -> int:
        return 0 if i == 0 else off + i

    c2 = [
        tuple(sorted((p2(2 * j), p2(2 * j + 1), p2((2 * j + 2) % n2))))
        for j in range(n2 // 2)
    ]
    zp = off + n2  # = 4r + 9, the pendant point
    extra = tuple(sorted((2, zp, p2(2))))
    triples = c1 + c2 + [extra]
    system = PartialTripleSystem.from_triples(4 * r + 10, triples)
    _check_pstss(system)
    return GadgetQ(
        r=r,
        system=system,
        z=0,
        z1=1,
        z2=p2(1),
        zp1=2,
        zp2=p2(2),
        zp=zp,
        c1_points=tuple(range(n1)),
        c2_points=tuple(sorted({p2(i) for i in range(n2)})),
    )


def build_q(n: int) -> GadgetQ:
    """The gadget attached to an n-point system (4n + 10 points)."""
    return build_qr(n)


# ---------------------------------------------------------------------------
# Attachment


@dataclass(frozen=True)
class AttachedSystem:
    system: PartialTripleSystem
    base_n: int  # points 0..base_n-1 are the original system
    gadget_of: tuple  # per base point: tuple of its gadget's point indices
    gadget_r: tuple  # per base point: the gadget parameter used


def _attach(v, rs: list) -> AttachedSystem:
    """Attach one gadget per point, gadget k using parameter rs[k].

    Point layout: the base points first, then each gadget's non-anchor
    points as one block, in base-point order.
    """
    n = v.n
    triples = list(v.iter_triples())
    gadget_points = []
    next_free = n
    for p in range(n):
        q = build_qr(rs[p])
        relabel = {}
        for local in range(q.n):
            if local == q.z:
                relabel[local] = p
            else:
                relabel[local] = next_free
                next_free += 1
        for t in q.system.iter_triples():
            triples.append(tuple(sorted(relabel[x] for x in t)))
        gadget_points.append(tuple(relabel[local] for local in range(q.n)))
    system = PartialTripleSystem.from_triples(next_free, triples)
    _check_pstss(system)
    return AttachedSystem(
        system=system, base_n=n, gadget_of=tuple(gadget_points), gadget_r=tuple(rs)
    )


def attach_gadgets(v) -> AttachedSystem:
    """One identical gadget per point: 4n^2 + 10n points, same symmetry."""
    if v.n < 1:
        raise PstssError("need at least one point")
    out = _attach(v, [v.n] * v.n)
    if out.system.n != 4 * v.n * v.n + 10 * v.n:
        raise VerificationError(f"attached system has {out.system.n} points")
    return out


# ---------------------------------------------------------------------------
# Boolean projective space and triple replacement


@dataclass(frozen=True)
class BooleanSpace:
    """Nonempty subsets of an n'-set; point index = bitmask - 1."""

    n_prime: int

    @property
    def n(self) -> int:
        return (1 << self.n_prime) - 1

    def triples_array(self) -> np.ndarray:
        """All (mask-1) index triples {a, b, a xor b}, rows sorted."""
        n = self.n
        chunks = []
        for a in range(1, n + 1):
            b = np.arange(a + 1, n + 1, dtype=np.int32)
            c = np.bitwise_xor(b, np.int32(a))
            keep = c > b
            b, c = b[keep], c[keep]
            rows = np.empty((b.size, 3), dtype=np.int32)
            rows[:, 0] = a - 1
            rows[:, 1] = b - 1
            rows[:, 2] = c - 1
            chunks.append(rows)
        return np.concatenate(chunks) if chunks else np.empty((0, 3), dtype=np.int32)

    def system(self) -> TripleSystem:
        return TripleSystem(self.n, self.triples_array())


def boolean_space(n_prime: int) -> BooleanSpace:
    if n_prime < 1:
        raise PstssError("ground set must be nonempty")
    return BooleanSpace(n_prime)


@dataclass(frozen=True)
class ReplacedSystem:
    """The switched system plus what is needed to audit the switch.

    Point i of the system is the subset with bitmask i+1; singletons
    1 << j are the points of vprime.
    """

    system: TripleSystem
    space: BooleanSpace
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


def _triple_codes(arr: np.ndarray, n: int) -> np.ndarray:
    a = arr.astype(np.int64)
    return (a[:, 0] * n + a[:, 1]) * n + a[:, 2]


def replace_triples(space: BooleanSpace, vprime, cap: int = 20) -> ReplacedSystem:
    """Switch four triples per vprime-triple; the pair cover is unchanged.

    vprime's points index the singleton subsets (point j <-> mask 1<<j).
    """
    np_ = space.n_prime
    if np_ > cap:
        raise PstssError(f"ground size {np_} exceeds cap {cap} (2^n' - 1 points)")
    if vprime.n > np_:
        raise PstssError("vprime has more points than the ground set")
    if not validate_pstss(vprime).ok:
        raise PstssError("vprime is not pair-disjoint")
    removed = []
    added = []
    for va, vb, vc in vprime.iter_triples():
        a, b, c = 1 << va, 1 << vb, 1 << vc
        ab, ac, bc = a | b, a | c, b | c
        removed += [(ab, ac, bc), (a, b, ab), (a, c, ac), (b, c, bc)]
        added += [(a, b, c), (a, ab, ac), (b, ab, bc), (c, ac, bc)]
    removed = [tuple(sorted(m - 1 for m in t)) for t in removed]
    added = [tuple(sorted(m - 1 for m in t)) for t in added]

    base = space.triples_array()
    n = space.n
    if removed:
        rem_codes = _triple_codes(np.array(removed, dtype=np.int64), n)
        keep = ~np.isin(_triple_codes(base, n), rem_codes)
        if int((~keep).sum()) != len(removed):
            raise VerificationError("a removed triple was absent")
        base = base[keep]
        base = np.concatenate([base, np.array(added, dtype=np.int32)])
    system = TripleSystem(n, base)
    override = {}
    for t in added:
        x, y, z = t
        override[(x, y)] = z
        override[(x, z)] = y
        override[(y, z)] = x
    return ReplacedSystem(
        system=system,
        space=space,
        vprime=vprime,
        removed=tuple(removed),
        added=tuple(added),
        _pair_override=override,
    )


def nonspace_triples(rep: ReplacedSystem) -> list:
    """Triples of the switched system that are not lines of the space.

    A line has the xor of its three masks zero; the switched-in triples
    do not.
    """
    arr = rep.system.triples
    masks = arr.astype(np.int64) + 1
    bad = (masks[:, 0] ^ masks[:, 1] ^ masks[:, 2]) != 0
    return [tuple(int(v) for v in row) for row in arr[bad]]


def check_property_44(rep: ReplacedSystem) -> bool:
    """Each pair-type point of a switched triple is in exactly two
    non-line triples of the system."""
    degree: dict = {}
    for t in nonspace_triples(rep):
        for p in t:
            degree[p] = degree.get(p, 0) + 1
    for va, vb, vc in rep.vprime.iter_triples():
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


def reconstruct_line(
    rep: ReplacedSystem, x: int, y: int, samples: int = 24, seed: int = 0
) -> frozenset:
    """Recover the space line through x and y from the switched system.

    Samples third points p, forms the closed 7-sets, and intersects two
    distinct ones; their common part is the line.
    """
    if x == y:
        raise PstssError("need two distinct points")
    rng = random.Random(f"{seed},{x},{y}")
    n = rep.system.n
    found: dict = {}
    tried = 0
    while tried < samples:
        p = rng.randrange(n)
        if p in (x, y):
            continue
        tried += 1
        got = _u_set(rep, p, x, y)
        if got is None:
            continue
        pts, z = got
        if not _closed_u_set(rep, pts, x, y, z):
            continue
        found.setdefault(pts, z)
        if len(found) >= 2:
            sets = list(found)
            inter = sets[0] & sets[1]
            if len(inter) == 3:
                return frozenset(inter)
    raise PstssError(
        f"could not reconstruct the line through {x}, {y}: "
        f"only {len(found)} valid sample sets (raise `samples`)"
    )


def recover_vprime(rep: ReplacedSystem) -> PointSet:
    """The singleton points of vprime, from the switched system alone.

    Rule one: a point in more than two non-line triples.  Rule two: a
    point in exactly two, where one of those triples has both other
    points satisfying rule one.
    """
    xtr = nonspace_triples(rep)
    degree: dict = {}
    for t in xtr:
        for p in t:
            degree[p] = degree.get(p, 0) + 1
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


@dataclass(frozen=True)
class Corollary46Result:
    """W decorated with distinct-size gadgets, next to an untouched V."""

    wprime: AttachedSystem
    combined: PartialTripleSystem
    w_points: tuple  # indices of the original W inside `combined`
    v_points: tuple  # indices of the V copy inside `combined`


def corollary46_build(v: TripleSystem, w: TripleSystem) -> Corollary46Result:
    """Rigidify W with distinct gadget sizes, then adjoin V disjointly.

    Gadget k on the k-th point of W uses parameter k|W|, so no two
    gadgets are isomorphic; repetition with fresh sizes enforces
    |W'| > |V|.
    """
    n = w.n
    if n < 1:
        raise PstssError("W needs at least one point")
    rounds = 1
    while True:
        rs = [(k + 1) * n * rounds for k in range(n)]
        wprime = _attach(w, rs)
        if wprime.system.n > v.n:
            break
        rounds += 1
    base = wprime.system
    triples = list(base.iter_triples())
    off = base.n
    for t in v.iter_triples():
        triples.append(tuple(sorted(p + off for p in t)))
    combined = PartialTripleSystem.from_triples(off + v.n, triples)
    return Corollary46Result(
        wprime=wprime,
        combined=combined,
        w_points=tuple(range(n)),
        v_points=tuple(range(off, off + v.n)),
    )


@dataclass(frozen=True)
class Corollary47Result:
    system: PartialTripleSystem
    v_points: tuple
    v1_points: tuple
    primed_of: dict  # v1 point -> its primed partner
    z: int


def corollary47_build(v: TripleSystem, v1) -> Corollary47Result:
    """Mark the subsystem v1 by pendant triples x, x', z.

    The symmetry of the result is the set-stabilizer of v1 in the
    symmetry of v.
    """
    from .system import is_subsystem

    v1 = frozenset(v1)
    if not is_subsystem(v, v1):
        raise PstssError("v1 is not a closed subsystem")
    if v1 == frozenset(range(v.n)):
        raise PstssError("v1 must be a proper subsystem")
    order = sorted(v1)
    primed = {x: v.n + i for i, x in enumerate(order)}
    z = v.n + len(order)
    triples = list(v.iter_triples())
    for x in order:
        triples.append(tuple(sorted((x, primed[x], z))))
    system = PartialTripleSystem.from_triples(z + 1, triples)
    return Corollary47Result(
        system=system,
        v_points=tuple(range(v.n)),
        v1_points=tuple(order),
        primed_of=primed,
        z=z,
    )
