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

from .search import automorphism_group
from .system import (
    PointSet,
    TripleSystem,
    is_subsystem,
    span,
    validate_sts,
)


class ConstructionError(ValueError):
    pass


def _admissible(n: int) -> bool:
    return n in (0, 1) or n % 6 in (1, 3)


# ---------------------------------------------------------------------------
# Base systems


def bose(n: int) -> TripleSystem:
    """STS(6t+3) over Z_{2t+1} x {0,1,2} via the idempotent quasigroup."""
    if n % 6 != 3:
        raise ConstructionError(f"bose needs n = 3 mod 6, got {n}")
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
    if n == 3:
        return TripleSystem.from_triples(3, [(0, 1, 2)])
    if n % 6 == 3:
        return bose(n)
    if n % 6 == 1:
        return skolem(n)
    raise ConstructionError(f"no triple system on {n} points")


def pg_sts(d: int) -> TripleSystem:
    """Points and lines of the projective space of dimension d over GF(2)."""
    if d < 1:
        raise ConstructionError("dimension must be >= 1")
    n = (1 << (d + 1)) - 1
    triples = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            c = a ^ b
            if c > b:
                triples.append((a - 1, b - 1, c - 1))
    return TripleSystem.from_triples(n, triples)


# ---------------------------------------------------------------------------
# Doubling and direct product


def double(y: TripleSystem) -> TripleSystem:
    """The system on 2|Y|+1 points: Y, a mirror copy, and a new point *.

    Y sits on indices 0..|Y|-1, its copy on |Y|..2|Y|-1, and * is the last
    point 2|Y|.
    """
    k = y.n
    star = 2 * k
    triples = list(y.iter_triples())
    for a in range(k):
        triples.append((a, a + k, star))
    for a, b, c in y.iter_triples():
        triples.append((a + k, b + k, c))
        triples.append((a + k, b, c + k))
        triples.append((a, b + k, c + k))
    return TripleSystem.from_triples(2 * k + 1, triples)


def direct_product(a: TripleSystem, b: TripleSystem) -> TripleSystem:
    """Standard direct product; point (i, j) gets index i*|b| + j."""
    nb = b.n

    def pt(i, j):
        return i * nb + j

    triples = []
    for i in range(a.n):
        for t in b.iter_triples():
            triples.append((pt(i, t[0]), pt(i, t[1]), pt(i, t[2])))
    for j in range(b.n):
        for t in a.iter_triples():
            triples.append((pt(t[0], j), pt(t[1], j), pt(t[2], j)))
    from itertools import permutations

    for ta in a.iter_triples():
        for tb in b.iter_triples():
            for perm in permutations(range(3)):
                triples.append(
                    (
                        pt(ta[0], tb[perm[0]]),
                        pt(ta[1], tb[perm[1]]),
                        pt(ta[2], tb[perm[2]]),
                    )
                )
    return TripleSystem.from_triples(a.n * b.n, triples)


# ---------------------------------------------------------------------------
# Pointedness / pairing predicates


def _fano_through(ts, triple_a, triple_b):
    closure = span(ts, set(triple_a) | set(triple_b), cap=7)
    return closure if len(closure) == 7 else None


def is_pg2_pointed(ts: TripleSystem, p: int, explain: bool = False):
    """Any two triples through p generate a 7-point subsystem."""
    through = [t for t in ts.iter_triples() if p in t]
    for i in range(len(through)):
        for j in range(i + 1, len(through)):
            if _fano_through(ts, through[i], through[j]) is None:
                return (False, (through[i], through[j])) if explain else False
    return (True, None) if explain else True


def _is_projective_15(ts, points) -> bool:
    """A closed 15-set is PG(3,2) iff every two meeting lines span 7 points."""
    from .system import restrict

    sub, _ = restrict(ts, points)
    by_point = sub.point_triples()
    for pts in by_point:
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if _fano_through(sub, pts[i], pts[j]) is None:
                    return False
    return True


def is_pg3_2pointed(ts: TripleSystem, p: int, q: int, explain: bool = False):
    """Any four points including p, q generate PG(2,2) or PG(3,2)."""
    if ts.n <= 7:
        raise ConstructionError("PG(3,2)-2-pointedness needs more than 7 points")
    others = [r for r in range(ts.n) if r not in (p, q)]
    verdicts: dict = {}
    for i in range(len(others)):
        for j in range(i + 1, len(others)):
            closure = frozenset(span(ts, {p, q, others[i], others[j]}, cap=15))
            good = verdicts.get(closure)
            if good is None:
                if len(closure) == 7:
                    good = True
                elif len(closure) == 15:
                    good = _is_projective_15(ts, closure)
                else:
                    good = False
                verdicts[closure] = good
            if not good:
                witness = (p, q, others[i], others[j])
                return (False, witness) if explain else False
    return (True, None) if explain else True


def is_pg2_paired(ts: TripleSystem, explain: bool = False):
    """Any two points lie in at least two 7-point subsystems."""
    third = ts.pair_third()
    for a in range(ts.n):
        for b in range(a + 1, ts.n):
            c = third[(a, b)]
            base = (a, b, c)
            found = set()
            for w in range(ts.n):
                if w in base:
                    continue
                closure = span(ts, {a, b, c, w}, cap=7)
                if len(closure) == 7:
                    found.add(frozenset(closure))
                    if len(found) >= 2:
                        break
            if len(found) < 2:
                return (False, (a, b)) if explain else False
    return (True, None) if explain else True


# ---------------------------------------------------------------------------
# Cyclic labeling of Y - X  (anchor conditions of the lifting machinery)


@dataclass(frozen=True)
class CyclicLabeling:
    """Bijection between Z_m (additive) and the points of Y - X.

    Residue 0 plays the multiplicative identity, m/2 the involution -1,
    and y_star is the chosen generator.  The anchor flags record which of
    the three anchor conditions the labeling actually satisfies; at desk
    scale the strict generator condition and the anchor triples can be
    unsatisfiable (see `label_per_p7`).
    """

    m: int
    point_of: tuple  # residue -> point of Y (ambient index)
    y_star: int
    p7a_strict: bool
    p7b_anchor: bool
    p7c_anchor: bool

    def residue_of(self) -> dict:
        return {p: a for a, p in enumerate(self.point_of)}

    def a6(self) -> frozenset:
        """The 6-torsion subgroup {a : 6a = 0 mod m} in residue form."""
        if self.m == 0:
            return frozenset()
        step = self.m // math.gcd(6, self.m)
        return frozenset(range(0, self.m, step))

    def check(self, y: TripleSystem, x_points: PointSet) -> list:
        problems = []
        comp = sorted(set(range(y.n)) - set(x_points))
        if self.m != len(comp):
            problems.append("m does not match |Y| - |X|")
            return problems
        if sorted(self.point_of) != comp:
            problems.append("point_of is not a bijection onto Y - X")
        if x_points and self.m % 2 != 0:
            problems.append("cyclic group must have even order when X is nonempty")
        if math.gcd(self.y_star, self.m) != 1:
            problems.append(f"y_star = {self.y_star} does not generate Z_{self.m}")
        if self.p7a_strict and not _p7a_holds(self.m):
            problems.append("strict generator condition flagged but violated")
        triples = y.triple_set()
        if self.p7b_anchor:
            anchor = tuple(
                sorted(
                    (
                        self.point_of[0],
                        self.point_of[self.m // 2],
                        self.point_of[self.y_star],
                    )
                )
            )
            if anchor not in triples:
                problems.append("anchor triple {1, -1, y_star} is not a triple of Y")
        if self.p7c_anchor:
            m = self.m
            for w in (m // 3, 2 * m // 3):
                t = tuple(
                    sorted(
                        (
                            self.point_of[w],
                            self.point_of[(w + m // 2) % m],
                            self.point_of[self.y_star],
                        )
                    )
                )
                if t not in triples:
                    problems.append(f"anchor triple for order-3 element {w} missing")
        return problems


def _p7a_holds(m: int) -> bool:
    """No nontrivial group automorphism maps a generator into its A6-coset.

    Additively: no unit c != 1 with 6(c - 1) = 0 mod m (the condition does
    not depend on the generator).
    """
    for c in range(2, m):
        if math.gcd(c, m) == 1 and (6 * (c - 1)) % m == 0:
            return False
    return True


class LabelingError(ConstructionError):
    pass


def label_per_p7(
    y: TripleSystem, x_points, strict: bool = False
) -> CyclicLabeling:
    """Deterministic labeling of Y - X with anchor triples where available.

    The generator condition and the anchor triples are unsatisfiable for
    some small groups (e.g. no triple of Y may lie inside Y - X, or the
    6-torsion subgroup may be all of Z_m); with strict=False such anchors
    are skipped and flagged on the result, with strict=True they raise.
    """
    x_points = frozenset(x_points)
    if not is_subsystem(y, x_points):
        raise LabelingError("X must be a closed subsystem of Y")
    comp = sorted(set(range(y.n)) - x_points)
    m = len(comp)
    if x_points and m % 2 != 0:
        raise LabelingError("|Y| - |X| must be even when X is nonempty")
    if m == 0:
        raise LabelingError("Y - X is empty")

    p7a = _p7a_holds(m)
    if strict and not p7a:
        raise LabelingError(f"no generator of Z_{m} satisfies the P7(a) condition")

    comp_set = set(comp)
    inner = [
        t for t in y.iter_triples() if all(p in comp_set for p in t)
    ]
    by_point: dict = {}
    for t in inner:
        for p in t:
            by_point.setdefault(p, []).append(t)

    units = [g for g in range(1, m) if math.gcd(g, m) == 1]
    want_c = m % 3 == 0 and m >= 6
    omega_residues = (
        {m // 3, m // 3 + m // 2, 2 * m // 3, (2 * m // 3 + m // 2) % m}
        if want_c
        else set()
    )

    gen_candidates = [
        g for g in units if g not in omega_residues and g not in (0, m // 2)
    ]
    if not gen_candidates:
        gen_candidates = units  # tiny groups where generators are all anchors

    assignment = None  # residue -> point, partial
    y_star = gen_candidates[0]
    flags = (False, False)
    for r in sorted(by_point):
        cands = by_point[r]
        g = gen_candidates[0]
        base = {g: r}
        others = sorted(set(cands[0]) - {r})
        base[0], base[m // 2] = others[0], others[1]
        if want_c and len(cands) >= 3 and g not in omega_residues:
            o2 = sorted(set(cands[1]) - {r})
            o3 = sorted(set(cands[2]) - {r})
            base[m // 3], base[m // 3 + m // 2] = o2[0], o2[1]
            base[2 * m // 3], base[(2 * m // 3 + m // 2) % m] = o3[0], o3[1]
            assignment, y_star, flags = base, g, (True, True)
            break
        if assignment is None:
            assignment, y_star, flags = base, g, (True, False)
            if not want_c:
                break
    if assignment is None:
        if strict:
            raise LabelingError("no triple of Y lies inside Y - X for the anchors")
        assignment = {}
    if strict and want_c and not flags[1]:
        raise LabelingError("order-3 anchor triples unavailable inside Y - X")

    used_pts = set(assignment.values())
    free_pts = [p for p in comp if p not in used_pts]
    free_res = [a for a in range(m) if a not in assignment]
    for a, p in zip(free_res, free_pts):
        assignment[a] = p
    point_of = tuple(assignment[a] for a in range(m))
    return CyclicLabeling(
        m=m,
        point_of=point_of,
        y_star=y_star,
        p7a_strict=p7a,
        p7b_anchor=flags[0],
        p7c_anchor=flags[1],
    )


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
        if not is_subsystem(self.y, self.x_points):
            raise ConstructionError("X is not a closed subsystem of Y")
        problems = self.labeling.check(self.y, self.x_points)
        if problems:
            raise ConstructionError("bad labeling: " + "; ".join(problems))

    @classmethod
    def build(cls, y, x_points, v, strict_labeling: bool = False) -> "MooreInput":
        return cls(y, frozenset(x_points), v, label_per_p7(y, x_points, strict_labeling))

    @property
    def m(self) -> int:
        return self.labeling.m

    @property
    def u_size(self) -> int:
        return len(self.x_points) + self.v.n * self.m

    def x_index(self) -> dict:
        """Y-point -> U-index for the points of X."""
        return {p: i for i, p in enumerate(sorted(self.x_points))}

    def u_point(self, v: int, a: int) -> int:
        return len(self.x_points) + v * self.m + a

    def decode(self, u: int):
        """U-index -> Y-point of X, or the pair (v, residue)."""
        nx = len(self.x_points)
        if u < nx:
            return sorted(self.x_points)[u]
        v, a = divmod(u - nx, self.m)
        return (v, a)

    def point_names(self) -> list:
        """Sidecar labels: one string per U-point."""
        out = []
        for p in sorted(self.x_points):
            out.append(f"x:{p}")
        for v in range(self.v.n):
            for a in range(self.m):
                out.append(f"({v},{a})")
        return out


def _moore_triples(inp: MooreInput, residue_map=None):
    lab = inp.labeling
    m = lab.m
    xi = inp.x_index()
    res = lab.residue_of()
    sigma = residue_map or (lambda a: a)
    triples = []
    # (M1) triples inside X
    for t in inp.y.iter_triples():
        inside = [p in inp.x_points for p in t]
        if all(inside):
            triples.append(tuple(xi[p] for p in t))
            continue
        outs = [p for p, isin in zip(t, inside) if not isin]
        ins = [p for p, isin in zip(t, inside) if isin]
        if len(outs) == 2:  # (M2) crossing triples, one point in X
            a1, a2 = res[outs[0]], res[outs[1]]
            for v in range(inp.v.n):
                triples.append((inp.u_point(v, a1), inp.u_point(v, a2), xi[ins[0]]))
        elif len(outs) == 3:  # (M2) triples inside Y - X
            a1, a2, a3 = (res[p] for p in outs)
            for v in range(inp.v.n):
                triples.append(
                    (inp.u_point(v, a1), inp.u_point(v, a2), inp.u_point(v, a3))
                )
        else:  # X closed: a triple cannot meet X in exactly two points
            raise AssertionError("closed subsystem violated")
    # (M3) product triples: labels multiplying to the identity
    for v1, v2, v3 in inp.v.iter_triples():
        for a1 in range(m):
            for a2 in range(m):
                a3 = (-a1 - a2) % m
                triples.append(
                    (
                        inp.u_point(v1, sigma(a1)),
                        inp.u_point(v2, sigma(a2)),
                        inp.u_point(v3, sigma(a3)),
                    )
                )
    return triples


def moore(inp: MooreInput) -> TripleSystem:
    """The three-system product on |X| + |V|(|Y|-|X|) points."""
    return TripleSystem.from_triples(inp.u_size, _moore_triples(inp))


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
    return TripleSystem.from_triples(
        inp.u_size, _moore_triples(inp, residue_map=lambda a: sigma[a])
    )


def lift_v_automorphism(inp: MooreInput, g) -> tuple:
    """Extend g in Aut V to the product: identity on X, (v, a) -> (g(v), a)."""
    g = tuple(g)
    out = list(range(inp.u_size))
    for v in range(inp.v.n):
        for a in range(inp.m):
            out[inp.u_point(v, a)] = inp.u_point(g[v], a)
    return tuple(out)


# ---------------------------------------------------------------------------
# Subsystem embedding toolbox


class UnsupportedEmbeddingError(ConstructionError):
    pass


def reachable_sizes(x_size: int, limit: int = 1000) -> list:
    """Sizes y0 <= limit for which embed_subsystem(x_size, y0) succeeds."""
    if x_size <= 1:
        return [y0 for y0 in range(x_size, limit + 1) if _admissible(y0) and y0 > x_size]
    if x_size == 3:
        return [y0 for y0 in range(7, limit + 1) if _admissible(y0)]
    if not _admissible(x_size):
        return []
    out = []
    y0 = 2 * x_size + 1
    while y0 <= limit:
        out.append(y0)
        y0 = 2 * y0 + 1
    return out


def embed_subsystem(x_size: int, y0_size: int):
    """An STS on y0_size points with a designated closed x_size subsystem.

    A finite toolbox (base generators, doubling chains); unsupported pairs
    fail loudly rather than falling back to unverified search.
    """
    if not _admissible(x_size) or not _admissible(y0_size):
        raise ConstructionError(
            f"sizes ({x_size}, {y0_size}) must be 0, 1, or 1/3 mod 6"
        )
    if x_size > 1 and y0_size < 2 * x_size + 1:
        raise ConstructionError(
            f"need y0 >= 2x + 1, got ({x_size}, {y0_size})"
        )
    if x_size <= 1:
        return base_sts(y0_size), frozenset(range(x_size))
    if x_size == 3:
        ts = base_sts(y0_size)
        return ts, frozenset(ts.iter_triples().__next__())
    if y0_size == 2 * x_size + 1:
        inner = base_sts(x_size)
        return double(inner), frozenset(range(x_size))
    half = (y0_size - 1) // 2
    if y0_size == 2 * half + 1 and _admissible(half) and half >= x_size:
        try:
            ts, xset = embed_subsystem(x_size, half)
        except ConstructionError:
            pass
        else:
            return double(ts), xset
    raise UnsupportedEmbeddingError(
        f"pair ({x_size}, {y0_size}) is outside the toolbox; reachable sizes "
        f"for x = {x_size}: {reachable_sizes(x_size, max(4 * x_size + 3, 100))}"
    )


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

    @classmethod
    def from_sts(cls, ts: TripleSystem) -> "BlockDesign":
        return cls(ts.n, tuple(ts.iter_triples()))


def paired_via_design(s: TripleSystem, design: BlockDesign) -> TripleSystem:
    """Blow up each block of the design into a copy of the paired system s.

    Output on 2w+1 points: a new point at index 0, then the two point
    classes (1, b) -> 1 + b and (2, b) -> 1 + w + b.
    """
    k = design.k
    if s.n != 2 * k + 1:
        raise ConstructionError(f"|s| = {s.n} but blocks have size {k}")
    w = design.n
    inf = 0

    def pt(cls_, b):
        return 1 + (cls_ - 1) * w + b

    anchor = 0  # point of s mapped onto the new point
    through = sorted(t for t in s.iter_triples() if anchor in t)
    if len(through) != k:
        raise AssertionError("anchor point degree mismatch")
    spokes = [tuple(sorted(set(t) - {anchor})) for t in through]

    triples = set()
    for b in range(w):
        triples.add(tuple(sorted((inf, pt(1, b), pt(2, b)))))
    for block in design.blocks:
        mapping = {anchor: inf}
        for (u_, w_), b in zip(spokes, block):
            mapping[u_] = pt(1, b)
            mapping[w_] = pt(2, b)
        for t in s.iter_triples():
            img = tuple(sorted(mapping[p] for p in t))
            triples.add(img)
    out = TripleSystem.from_triples(2 * w + 1, sorted(triples))
    report = validate_sts(out)
    if not report.ok:
        raise ConstructionError(
            "no copy of s is compatible with the forced triples: "
            + "; ".join(report.violations[:3])
        )
    return out


# ---------------------------------------------------------------------------
# Rigid system search


def random_sts(n: int, rng: random.Random) -> TripleSystem:
    """Hill-climbing generator of a uniform-ish random STS(n)."""
    if not _admissible(n) or n < 7:
        raise ConstructionError(f"no interesting triple system on {n} points")
    want = n * (n - 1) // 6
    third: dict = {}
    missing = [set(range(n)) - {p} for p in range(n)]
    triples: set = set()

    def add(t):
        a, b, c = t
        triples.add(t)
        for u_, v_ in ((a, b), (a, c), (b, c)):
            third[(u_, v_)] = sum(t) - u_ - v_
            missing[u_].discard(v_)
            missing[v_].discard(u_)

    def remove(t):
        a, b, c = t
        triples.discard(t)
        for u_, v_ in ((a, b), (a, c), (b, c)):
            del third[(u_, v_)]
            missing[u_].add(v_)
            missing[v_].add(u_)

    while len(triples) < want:
        live = [p for p in range(n) if missing[p]]
        x = rng.choice(live)
        y, z = rng.sample(sorted(missing[x]), 2)
        key = (y, z) if y < z else (z, y)
        old = third.get(key)
        if old is not None:
            remove(tuple(sorted((y, z, old))))
        add(tuple(sorted((x, y, z))))
    return TripleSystem.from_triples(n, sorted(triples))


def rigid_sts_search(
    n: int, seed: int = 0, max_attempts: int = 200, budget: int | None = None
) -> TripleSystem:
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
    for _ in range(max_attempts):
        cand = random_sts(n, rng)
        if automorphism_group(cand, budget=budget).order == 1:
            return cand
    raise ConstructionError(
        f"no rigid system found on {n} points within {max_attempts} attempts"
    )
