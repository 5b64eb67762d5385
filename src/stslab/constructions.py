"""Triple-system constructions: base generators, doubling, products, the
Moore three-system product with its cyclic labeling, the pointedness and
pairing predicates, a finite subsystem-embedding toolbox, and a randomized
search for rigid systems.

All constructions number points 0..n-1 deterministically (lexicographic in
construction coordinates) so outputs are reproducible bit-for-bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .pstss import MAX_GROUND, BooleanSpace
from .search import automorphism_group
from .system import (
    PLANE_STEP,
    PointSet,
    TripleSystem,
    VerificationError,
    _admissible,
    fano_planes,
    is_subsystem,
    pairs_within,
    row_dtype,
    span,
)


class ConstructionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Base systems


def bose(n: int) -> TripleSystem:
    """STS(6t+3) over Z_{2t+1} x {0,1,2} via the idempotent quasigroup."""
    if n < 3 or n % 6 != 3:
        raise ConstructionError(f"bose needs n = 3 mod 6, n >= 3, got {n}")
    t = (n - 3) // 6
    q = 2 * t + 1
    half = (t + 1) % q  # multiplicative inverse of 2 mod q

    def pt(i, k):
        return i * 3 + k

    triples = [(pt(i, 0), pt(i, 1), pt(i, 2)) for i in range(q)]
    for i in range(q):
        for j in range(i + 1, q):
            mid = (i + j) * half % q
            for k in range(3):
                triples.append((pt(i, k), pt(j, k), pt(mid, (k + 1) % 3)))
    return TripleSystem.from_triples(n, triples)


def skolem(n: int) -> TripleSystem:
    """STS(6t+1) via the half-idempotent commutative quasigroup on Z_{2t}."""
    if n % 6 != 1 or n < 7:
        raise ConstructionError(f"skolem needs n = 1 mod 6, n >= 7, got {n}")
    t = (n - 1) // 6
    q = 2 * t

    def h(x):  # bijection making i*j := h(i+j) half-idempotent
        return x // 2 if x % 2 == 0 else (x - 1) // 2 + t

    def op(i, j):
        return h((i + j) % q)

    inf = 0

    def pt(i, k):
        return 1 + i * 3 + k

    triples = [(pt(i, 0), pt(i, 1), pt(i, 2)) for i in range(t)]
    for i in range(t):
        triples.append((inf, pt(t + i, 0), pt(i, 1)))
        triples.append((inf, pt(t + i, 1), pt(i, 2)))
        triples.append((inf, pt(t + i, 2), pt(i, 0)))
    for i in range(q):
        for j in range(i + 1, q):
            for k in range(3):
                triples.append((pt(i, k), pt(j, k), pt(op(i, j), (k + 1) % 3)))
    return TripleSystem.from_triples(n, triples)


def base_sts(n: int) -> TripleSystem:
    """Some STS(n) for any admissible n, by the cheapest generator."""
    if n in (0, 1):
        return TripleSystem.from_triples(n, [])
    if n % 6 == 3:
        return bose(n)
    if n % 6 == 1:
        return skolem(n)
    raise ConstructionError(f"no triple system on {n} points")


def pg_sts(d: int) -> TripleSystem:
    """Points and lines of the projective space of dimension d over GF(2):
    the Boolean space on d + 1 elements, point i the vector i + 1."""
    if not 1 <= d <= MAX_GROUND - 1:
        raise ConstructionError(f"dimension {d} is outside 1..{MAX_GROUND - 1}")
    return BooleanSpace(d + 1).system()


# ---------------------------------------------------------------------------
# Doubling and direct product


def double(y: TripleSystem) -> TripleSystem:
    """The system on 2|Y|+1 points: Y, a mirror copy, and a new point *.

    Y sits on indices 0..|Y|-1, its copy on |Y|..2|Y|-1, and * is the last
    point 2|Y|.  Each triple abc of Y gives abc and the three triples with
    two of a, b, c moved to the copy; each point a gives {a, a', *}.
    """
    k = y.n
    a = np.arange(k)
    spokes = np.stack([a, a + k, np.full(k, 2 * k)], axis=1)
    mirrored = y.triples[:, None, :] + k * (1 - np.eye(3, dtype=np.int64))
    return TripleSystem(2 * k + 1, np.concatenate([y.triples, spokes, mirrored.reshape(-1, 3)]))


def direct_product(a: TripleSystem, b: TripleSystem) -> TripleSystem:
    """Standard direct product; point (i, j) gets index i*|b| + j.

    Its triples are a copy of b in each row i, a copy of a in each column
    j, and for each triple of a and each of b the six ways of pairing
    their points.
    """
    nb, wide = b.n, a.triples.astype(np.int64)  # uint16 rows would wrap
    rows = np.arange(a.n)[:, None, None] * nb + b.triples
    columns = wide * nb + np.arange(nb)[:, None, None]
    orders = np.array(list(permutations(range(3))))
    mixed = wide[:, None, None, :] * nb + b.triples[:, orders]
    blocks = (rows, columns, mixed)
    return TripleSystem(a.n * nb, np.concatenate([t.reshape(-1, 3) for t in blocks]))


# ---------------------------------------------------------------------------
# Pointedness / pairing predicates


def _spokes_in_planes(ts, keep) -> bool:
    """Whether every two of the spokes (q, r) that `keep` selects, of one
    point p each, span a PG(2, 2) with p."""
    inc = ts.incidence
    owner = np.repeat(np.arange(ts.n, dtype=np.int32), np.diff(inc.start))[keep]
    q, r = inc.spokes[keep].T.copy()
    for i, j in pairs_within(owner):
        if fano_planes(ts, owner[i], q[i], r[i], q[j], r[j])[0].size < i.size:
            return False
    return True


def is_pg2_pointed(ts: TripleSystem, p: int) -> bool:
    """Any two triples through p generate a 7-point subsystem."""
    if not 0 <= p < ts.n:
        raise ValueError(f"point {p} is outside 0..{ts.n - 1}")
    return _spokes_in_planes(ts, slice(ts.incidence.start[p], ts.incidence.start[p + 1]))


def _is_projective_15(ts, points) -> bool:
    """A closed 15-set is PG(3,2) iff every two meeting lines in it lie in a plane."""
    inside, inc = np.isin(np.arange(ts.n), list(points)), ts.incidence
    # a spoke (q, r) of a point inside, with q inside, has r inside: the set is closed
    return _spokes_in_planes(ts, np.repeat(inside, np.diff(inc.start)) & inside[inc.spokes[:, 0]])


def is_pg3_2pointed(ts: TripleSystem, p: int, q: int) -> bool:
    """Any four points including p, q generate PG(2,2) or PG(3,2).

    A pair {x, y} inside a good closure S is skipped: its span is a
    subspace of S with at least four points, so a plane or S itself, and
    good either way.
    """
    if ts.n <= 7:
        raise ConstructionError("PG(3,2)-2-pointedness needs more than 7 points")
    if p == q or not (0 <= p < ts.n and 0 <= q < ts.n):
        raise ValueError(f"p, q must be two distinct points of 0..{ts.n - 1}, got {p}, {q}")
    others = [r for r in range(ts.n) if r not in (p, q)]
    near = [set() for _ in range(ts.n)]  # r -> points sharing a good closure with r
    for i, x in enumerate(others):
        for y in others[i + 1:]:
            if y in near[x]:
                continue
            closure = span(ts, {p, q, x, y}, cap=15)
            if len(closure) == 7 or (len(closure) == 15 and _is_projective_15(ts, closure)):
                for r in closure:
                    near[r].update(closure)
            else:
                return False
    return True


def is_pg2_paired(ts: TripleSystem) -> bool:
    """Any two points lie in at least two 7-point subsystems.

    The planes through a pair are those through its triple {a, b, c}.  Each
    holds two more triples through a, whose spokes each find it with (b, c),
    so three hits mean two planes.  Each round tries the next spokes of a on
    the triples short of three hits, more of them as fewer are left.
    """
    inc = ts.incidence
    sq, sr = inc.spokes.T.copy()  # contiguous columns
    for lo in range(0, ts.n_triples, PLANE_STEP // 4):  # at least 4 spokes per round
        a, b, c = ts.triples[lo : lo + PLANE_STEP // 4].T.copy()
        first, degree = inc.start.take(a), np.diff(inc.start).take(a)
        hits, live, k = np.zeros(a.size, dtype=np.intp), np.arange(a.size), 0
        while live.size:
            ks = np.arange(k, k + PLANE_STEP // live.size)  # the next spokes of each live row
            row, spoke = np.repeat(live, ks.size), np.tile(ks, live.size)
            ok = spoke < degree.take(row)  # the spoke (b, c) itself fails: third(b, b) = -1
            row, spoke = row[ok], spoke[ok] + first.take(row[ok])
            tests = [x.take(row) for x in (a, b, c)] + [x.take(spoke) for x in (sq, sr)]
            hits += np.bincount(row.take(fano_planes(ts, *tests)[0]), minlength=a.size)
            short, k = hits.take(live) < 3, k + ks.size
            if np.any(short & (k >= degree.take(live))):
                return False
            live = live[short]
    return True


# ---------------------------------------------------------------------------
# Cyclic labeling of Y - X  (anchor conditions of the lifting machinery)


@dataclass(frozen=True)
class CyclicLabeling:
    """Bijection between Z_m (additive) and the points of Y - X: a point
    order and a generator.

    point_of[a] is the point of Y at residue a.  Residue 0 plays the
    multiplicative identity, m/2 the involution -1, and y_star is the
    chosen generator.  `p7a_strict` and `anchors(y)` report which of the
    three anchor conditions the labeling satisfies; at desk scale the
    strict generator condition and the anchor triples can be unsatisfiable
    (see `label_per_p7`).
    """

    point_of: tuple  # residue -> point of Y (ambient index)
    y_star: int

    @property
    def m(self) -> int:
        return len(self.point_of)

    @property
    def p7a_strict(self) -> bool:
        """No nontrivial group automorphism maps a generator into its A6-coset.

        Additively: no unit c != 1 with 6(c - 1) = 0 mod m (the condition
        does not depend on the generator).
        """
        m = self.m
        return not any(math.gcd(c, m) == 1 and 6 * (c - 1) % m == 0 for c in range(2, m))

    def anchors(self, y: TripleSystem) -> tuple:
        """(P7b, P7c): whether {w, w + m/2, y_star} is a triple of Y for
        w = 0, and for both order-3 elements w = m/3, 2m/3."""
        m, point_of, third = self.m, self.point_of, y.incidence.third

        def is_anchor_triple(w):
            return third.item(point_of[w], point_of[(w + m // 2) % m]) == point_of[self.y_star]

        return is_anchor_triple(0), m % 3 == 0 and all(map(is_anchor_triple, (m // 3, 2 * m // 3)))

    def residue_of(self) -> dict:
        return {p: a for a, p in enumerate(self.point_of)}

    def a6(self) -> frozenset:
        """The 6-torsion subgroup {a : 6a = 0 mod m} in residue form."""
        if self.m == 0:
            return frozenset()
        step = self.m // math.gcd(6, self.m)
        return frozenset(range(0, self.m, step))

    def check(self, y: TripleSystem, x_points: PointSet) -> list:
        """What makes the labeling unusable for X inside Y; empty if nothing."""
        problems = []
        if sorted(self.point_of) != sorted(set(range(y.n)) - set(x_points)):
            problems.append("point_of is not a bijection onto Y - X")
        if x_points and self.m % 2 != 0:
            problems.append("cyclic group must have even order when X is nonempty")
        if not (0 <= self.y_star < self.m and math.gcd(self.y_star, self.m) == 1):
            problems.append(f"y_star = {self.y_star} is not a unit of Z_{self.m}")
        return problems


class LabelingError(ConstructionError):
    pass


def label_per_p7(y: TripleSystem, x_points) -> CyclicLabeling:
    """Deterministic labeling of Y - X with anchor triples where available.

    The generator condition and the anchor triples are unsatisfiable for
    some small groups (e.g. no triple of Y may lie inside Y - X, or the
    6-torsion subgroup may be all of Z_m); such anchors are skipped, and
    `p7a_strict` and `anchors(y)` of the result say which conditions hold.
    """
    x_points = frozenset(x_points)
    if not is_subsystem(y, x_points):
        raise LabelingError("X must be a closed subsystem of Y")
    comp = sorted(set(range(y.n)) - x_points)
    m = len(comp)
    if x_points and m % 2 != 0:
        raise LabelingError("|Y| - |X| must be even when X is nonempty")
    if m < 2:
        raise LabelingError(f"the labeling needs at least 2 points in Y - X, got {m}")

    units = [g for g in range(1, m) if math.gcd(g, m) == 1]
    order3 = (m // 3, 2 * m // 3) if m % 3 == 0 and m >= 6 else ()
    omega = {(w + h) % m for w in order3 for h in (0, m // 2)}
    # a generator off the anchors, unless in tiny groups every unit is one
    y_star = next((g for g in units if g not in omega and g != m // 2), units[0])
    w_anchor = (0, *order3) if order3 and y_star not in omega else (0,)

    comp_set = set(comp)
    spokes = y.incidence.spoke_lists()
    # the pairs completing the triples through r inside Y - X
    inside = {r: [(q, s) for q, s in spokes[r] if q in comp_set and s in comp_set] for r in comp}
    # y_star goes to the first r with all its anchors, else the first with one
    r = max(comp, key=lambda r: (len(inside[r]) >= len(w_anchor), len(inside[r]) > 0))
    if len(inside[r]) < len(w_anchor):
        w_anchor = (0,)
    anchored = {y_star: r} if inside[r] else {}
    for w, (q, s) in zip(w_anchor, inside[r]):
        anchored[w], anchored[(w + m // 2) % m] = q, s
    free = iter([p for p in comp if p not in anchored.values()])
    point_of = tuple(anchored[a] if a in anchored else next(free) for a in range(m))
    return CyclicLabeling(point_of, y_star)


# ---------------------------------------------------------------------------
# Moore's three-system product


@dataclass(frozen=True)
class MooreInput:
    """X subset of Y, a third system V, and the labeling of Y - X.

    The point map of the output: the points of X (ascending Y-index) come
    first as U-indices 0..|X|-1, then (v, a) sits at |X| + v*m + a.
    """

    y: TripleSystem
    x_points: PointSet
    v: TripleSystem
    labeling: CyclicLabeling

    def __post_init__(self):
        object.__setattr__(self, "x_points", frozenset(self.x_points))
        object.__setattr__(self, "x_sorted", tuple(sorted(self.x_points)))  # at U-indices 0..|X|-1
        if not is_subsystem(self.y, self.x_points):
            raise ConstructionError("X is not a closed subsystem of Y")
        problems = self.labeling.check(self.y, self.x_points)
        if problems:
            raise ConstructionError("bad labeling: " + "; ".join(problems))

    @classmethod
    def build(cls, y, x_points, v) -> "MooreInput":
        return cls(y, frozenset(x_points), v, label_per_p7(y, x_points))

    @property
    def m(self) -> int:
        return self.labeling.m

    @property
    def u_size(self) -> int:
        return len(self.x_points) + self.v.n * self.m

    def u_point(self, v: int, a: int) -> int:
        return len(self.x_points) + v * self.m + a

    def decode(self, u: int):
        """U-index -> Y-point of X, or the pair (v, residue)."""
        nx = len(self.x_points)
        if u < nx:
            return self.x_sorted[u]
        return divmod(u - nx, self.m)

    def point_names(self) -> list:
        """Sidecar labels: one string per U-point."""
        out = []
        for p in self.x_sorted:
            out.append(f"x:{p}")
        for v in range(self.v.n):
            for a in range(self.m):
                out.append(f"({v},{a})")
        return out


def _moore_triples(inp: MooreInput, sigma=None) -> np.ndarray:
    """The product's triples as an (m, 3) array of row_dtype(inp.u_size),
    rows unsorted: the (M1) and (M2) rows of each triple of Y in turn,
    then the (M3) rows of each triple of V.  Every row is written in
    place, into the one array returned.

    sigma, a residue permutation, twists the (M3) product triples.
    """
    m, nx, nv = inp.m, len(inp.x_points), inp.v.n
    xi = {p: i for i, p in enumerate(inp.x_sorted)}  # Y-point of X -> U-index
    res = inp.labeling.residue_of()
    splits = []  # per triple of Y: its residues outside X, then its U-indices in X
    for t in inp.y.triples.tolist():
        outs = [res[p] for p in t if p not in inp.x_points]
        if len(outs) == 1:  # X closed: a triple cannot meet X in exactly two points
            raise VerificationError("closed subsystem violated")
        splits.append((outs, [xi[p] for p in t if p in inp.x_points]))
    own = sum(nv if outs else 1 for outs, _ in splits)
    rows = np.empty((own + inp.v.n_triples * m * m, 3), dtype=row_dtype(inp.u_size))
    u_base = nx + np.arange(nv)[:, None] * m
    k = 0
    for outs, ins in splits:
        if not outs:  # (M1) triples inside X
            rows[k] = ins
            k += 1
        else:  # (M2) one row per point v of V: u_point(v, a) per residue, then X
            rows[k : k + nv, : len(outs)] = u_base + outs
            rows[k : k + nv, len(outs) :] = ins
            k += nv
    # (M3) product triples: labels multiplying to the identity, for every
    # triple (v1, v2, v3) of V and every a1, a2 in that order
    a1, a2 = np.divmod(np.arange(m * m, dtype=np.int32), m)
    labels = np.stack([a1, a2, (-a1 - a2) % m], axis=1)
    if sigma is not None:
        labels = np.asarray(sigma, dtype=np.int32)[labels]
    starts = nx + inp.v.triples[:, None, :].astype(np.int32) * m
    np.add(starts, labels, out=rows[k:].reshape(inp.v.n_triples, m * m, 3), casting="unsafe")
    return rows


def moore(inp: MooreInput) -> TripleSystem:
    """The three-system product on |X| + |V|(|Y|-|X|) points."""
    return TripleSystem(inp.u_size, _moore_triples(inp))


def moore_variant_sigma(inp: MooreInput, sigma) -> TripleSystem:
    """Variant twisting the product triples by a residue permutation.

    sigma must fix the generator y_star and the 6-torsion subgroup
    pointwise.
    """
    sigma = tuple(sigma)
    m = inp.m
    if sorted(sigma) != list(range(m)):
        raise ConstructionError("sigma is not a permutation of the residues")
    fixed = set(inp.labeling.a6()) | {inp.labeling.y_star}
    for a in fixed:
        if sigma[a] != a:
            raise ConstructionError(f"sigma must fix residue {a}")
    return TripleSystem(inp.u_size, _moore_triples(inp, sigma))


def lift_v_automorphism(inp: MooreInput, g) -> tuple:
    """Extend g in Aut V to the product: identity on X, (v, a) -> (g(v), a).
    A g that is not a permutation of V's points raises ConstructionError."""
    g = tuple(g)
    if sorted(g) != list(range(inp.v.n)):
        raise ConstructionError(f"g is not a permutation of 0..{inp.v.n - 1}")
    # row v: the slice of g(v)
    slices = inp.u_point(np.array(g, dtype=np.int64)[:, None], np.arange(inp.m))
    return (*range(len(inp.x_points)), *slices.ravel().tolist())


# ---------------------------------------------------------------------------
# Subsystem embedding toolbox


class UnsupportedEmbeddingError(ConstructionError):
    pass


def _embeds(x_size: int, y0_size: int) -> bool:
    """The toolbox's rule: both sizes admissible, y0 >= 2x + 1, and for
    x > 3 y0 on the doubling chain 2x + 1, 4x + 3, ... of x."""
    if not (_admissible(x_size) and _admissible(y0_size) and y0_size > 2 * x_size):
        return False
    q, r = divmod(y0_size + 1, x_size + 1)
    return x_size <= 3 or r == 0 and q & (q - 1) == 0


def reachable_sizes(x_size: int, limit: int = 1000) -> list:
    """Sizes y0 <= limit for which embed_subsystem(x_size, y0) succeeds."""
    return [y0 for y0 in range(limit + 1) if _embeds(x_size, y0)]


def embed_subsystem(x_size: int, y0_size: int):
    """An STS on y0_size points with a designated closed x_size subsystem,
    a proper one, so that Y - X is not empty.

    A finite toolbox (base generators, doubling chains); unsupported pairs
    fail loudly rather than falling back to unverified search.
    """
    if not _embeds(x_size, y0_size):
        raise UnsupportedEmbeddingError(
            f"pair ({x_size}, {y0_size}) is outside the toolbox: it needs sizes "
            f"0, 1 or 1/3 mod 6, y >= 2x + 1 and, for x > 3, y on the chain "
            f"2x + 1, 4x + 3, ..."
        )
    if x_size <= 1:
        return base_sts(y0_size), frozenset(range(x_size))
    if x_size == 3:
        ts = base_sts(y0_size)
        return ts, frozenset(ts.triples[0].tolist())
    if y0_size == 2 * x_size + 1:
        return double(base_sts(x_size)), frozenset(range(x_size))
    ts, xset = embed_subsystem(x_size, (y0_size - 1) // 2)
    return double(ts), xset


# ---------------------------------------------------------------------------
# Paired systems from a block design


@dataclass(frozen=True)
class BlockDesign:
    """2-(w, k, 1) design: every pair of points in exactly one block."""

    n: int
    blocks: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "blocks", tuple(tuple(sorted(b)) for b in self.blocks)
        )
        sizes = {len(b) for b in self.blocks}
        if len(sizes) > 1:
            raise ConstructionError("blocks must share one size")
        if any(b[0] < 0 or b[-1] >= self.n for b in self.blocks if b):
            raise ConstructionError(f"block points must lie in 0..{self.n - 1}")
        seen = set()
        for b in self.blocks:
            for i in range(len(b)):
                for j in range(i + 1, len(b)):
                    pair = (b[i], b[j])
                    if pair in seen:
                        raise ConstructionError(f"pair {pair} in two blocks")
                    seen.add(pair)
        if len(seen) != self.n * (self.n - 1) // 2:
            raise ConstructionError("some pair of points lies in no block")

    @property
    def k(self) -> int:
        return len(self.blocks[0]) if self.blocks else 0


def paired_via_design(s: TripleSystem, design: BlockDesign) -> TripleSystem:
    """Blow up each block of the design into a copy of s.

    Output on 2w+1 points: a new point at index 0, then the two point
    classes (1, b) -> 1 + b and (2, b) -> 1 + w + b.  Point 0 of s maps
    onto the new point and its i-th spoke (q, r) onto the points (1, b),
    (2, b) of the i-th point b of the block.  Every copy maps the spokes
    onto triples {0, 1 + b, 1 + w + b}; these are added once, and each
    copy adds the images of the triples of s off point 0.
    """
    k = design.k
    if s.n != 2 * k + 1:
        raise ConstructionError(f"|s| = {s.n} but blocks have size {k}")
    w = design.n
    through = s.triples[:, 0] == 0  # point 0 is least, so it leads its rows
    spokes = s.triples[through, 1:]
    blocks = np.array(design.blocks, dtype=np.int64)
    relabel = np.zeros((len(design.blocks), s.n), dtype=np.int64)  # one row per block
    relabel[:, spokes[:, 0]] = 1 + blocks
    relabel[:, spokes[:, 1]] = 1 + w + blocks
    b = np.arange(w)
    centre = np.stack([np.zeros(w, dtype=np.int64), 1 + b, 1 + w + b], axis=1)
    copies = relabel[:, s.triples[~through]].reshape(-1, 3)
    return TripleSystem(2 * w + 1, np.concatenate([centre, copies]))


# ---------------------------------------------------------------------------
# Rigid system search


def random_sts(n: int, rng: random.Random) -> TripleSystem:
    """Hill-climbing generator of a uniform-ish random STS(n)."""
    if not _admissible(n) or n < 7:
        raise ConstructionError(f"no interesting triple system on {n} points")
    want = n * (n - 1) // 6
    third = [[-1] * n for _ in range(n)]  # symmetric; -1 on uncovered pairs
    missing = [set(range(n)) - {p} for p in range(n)]
    triples: set = set()

    def add(t):
        a, b, c = t
        triples.add(t)
        for u_, v_, w_ in ((a, b, c), (a, c, b), (b, c, a)):
            third[u_][v_] = third[v_][u_] = w_
            missing[u_].discard(v_)
            missing[v_].discard(u_)

    def remove(t):
        a, b, c = t
        triples.discard(t)
        for u_, v_ in ((a, b), (a, c), (b, c)):
            third[u_][v_] = third[v_][u_] = -1
            missing[u_].add(v_)
            missing[v_].add(u_)

    while len(triples) < want:
        live = [p for p in range(n) if missing[p]]
        x = rng.choice(live)
        y, z = rng.sample(sorted(missing[x]), 2)
        old = third[y][z]
        if old >= 0:
            remove(tuple(sorted((y, z, old))))
        add(tuple(sorted((x, y, z))))
    return TripleSystem.from_triples(n, sorted(triples))


_RIGID_ATTEMPTS = 200  # random systems tried before the search gives up


def rigid_sts_search(n: int, seed: int = 0) -> TripleSystem:
    """Search for an STS(n) with trivial automorphism group.

    Rigid systems first exist at 15 points; smaller admissible sizes are
    rejected outright.
    """
    if n < 15:
        raise ConstructionError(
            f"no rigid triple system on {n} points (smallest is 15)"
        )
    if not _admissible(n):
        raise ConstructionError(f"{n} is not an admissible size")
    rng = random.Random(seed)
    for _ in range(_RIGID_ATTEMPTS):
        cand = random_sts(n, rng)
        if automorphism_group(cand).order == 1:
            return cand
    raise ConstructionError(
        f"no rigid system found on {n} points within {_RIGID_ATTEMPTS} attempts"
    )
