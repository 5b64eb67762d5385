"""Enumeration and classification of 7-point projective subsystems.

A 7-point closed subsystem of any triple system is a copy of PG(2, 2).
Inside a three-system product these come in exactly three shapes: the
mixed type built over one X-point and a triple of V, subsystems living
inside a single slice Y_v, and graphs of 6-torsion-valued maps on a
projective subsystem of V.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .constructions import MooreInput
from .system import PointSet, fano_plane, is_subsystem


# ---------------------------------------------------------------------------
# Enumeration


def enumerate_fano(ts) -> list:
    """All PG(2, 2) subsystems, each as a sorted 7-tuple of points.

    Each plane is tested only from its least point p.  Its three lines
    through p are spokes (q, r) of p with p < q < r, and `fano_plane` on
    any two of them returns the plane.  So testing every pair of the
    spokes of p that lie above p finds every plane whose least point is
    p, and a plane it returns with a smaller least point is dropped here,
    because the pass over that point finds it.
    """
    found = set()
    for p, spokes in enumerate(ts.incidence.pairs):
        above = [spoke for spoke in spokes if spoke[0] > p]
        for pair_a, pair_b in combinations(above, 2):
            plane = fano_plane(ts, p, pair_a, pair_b)
            if plane is not None and plane[0] == p:
                found.add(plane)
    return sorted(found)


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class FanoClassification:
    """One of three shapes; exactly the fields for `kind` are set.

    kind = "type31": x_point (U-index), v_triple, a_values (3 residues
    with zero sum, one per triple entry).
    kind = "in_yv": v (slice index), or v = None when the subsystem lies
    inside X itself (hence inside every slice).
    kind = "vsf": s_points (7 V-points forming a projective subsystem)
    and f (map V-point -> 6-torsion residue).
    """

    kind: str
    x_point: int | None = None
    v_triple: tuple | None = None
    a_values: tuple | None = None
    v: int | None = None
    s_points: tuple | None = None
    f: tuple | None = None  # pairs (v, residue), sorted


class ClassificationError(ValueError):
    """A 7-point subsystem matching none of the three shapes."""


def classify_fano(inp: MooreInput, fano) -> FanoClassification:
    """Classify a PG(2, 2) subsystem of the product built from `inp`.

    The decomposition requires the cyclic group to have even order (the
    sign argument splitting the mixed case needs -1 to exist).
    """
    if inp.m % 2 != 0:
        raise ClassificationError("classification requires an even cyclic group")
    pts = sorted(fano)
    if len(pts) != 7:
        raise ClassificationError("expected 7 points")
    nx = len(inp.x_points)
    x_pts = [p for p in pts if p < nx]
    pairs = [inp.decode(p) for p in pts if p >= nx]
    vs = [v for v, _ in pairs]

    if len(set(vs)) <= 1:
        return FanoClassification(kind="in_yv", v=vs[0] if vs else None)

    if not x_pts and len(set(vs)) == 7:
        f = dict(pairs)
        s = tuple(sorted(f))
        if _is_vsf(inp, s, f):
            return FanoClassification(
                kind="vsf", s_points=s, f=tuple(sorted(f.items()))
            )
        raise ClassificationError(f"7 distinct slices but not a 6-torsion graph: {pts}")

    if len(x_pts) == 1 and len(set(vs)) == 3:
        got = _match_type31(inp, x_pts[0], pairs)
        if got is not None:
            v_triple, a_values = got
            return FanoClassification(
                kind="type31",
                x_point=x_pts[0],
                v_triple=v_triple,
                a_values=a_values,
            )
    raise ClassificationError(f"unclassifiable 7-point subsystem: {pts}")


def _is_vsf(inp: MooreInput, s: tuple, f: dict) -> bool:
    m = inp.m
    if not is_subsystem(inp.v, s):
        return False
    a6 = inp.labeling.a6()
    if any(a not in a6 for a in f.values()):
        return False
    sset = set(s)
    for t in inp.v.iter_triples():
        if set(t) <= sset and (f[t[0]] + f[t[1]] + f[t[2]]) % m != 0:
            return False
    return True


def _match_type31(inp: MooreInput, x_point: int, pairs: list):
    """Match the mixed shape: (v_i, a_i), (v_i, -a_i) over a V-triple."""
    m = inp.m
    by_v: dict = {}
    for v, a in pairs:
        by_v.setdefault(v, []).append(a)
    if len(by_v) != 3 or any(len(aa) != 2 for aa in by_v.values()):
        return None
    v_triple = tuple(sorted(by_v))
    if inp.v.incidence.third[v_triple[0]][v_triple[1]] != v_triple[2]:
        return None
    # each slice must hold a pair {a, a + m/2} (negation by the unique
    # involution) whose Y-triple passes through x
    x_y_point = inp.decode(x_point)  # ambient Y-index of the X point
    y_third = inp.y.incidence.third
    choices = []
    for v in v_triple:
        a1, a2 = by_v[v]
        if (a1 - a2) % m != m // 2:
            return None
        if y_third[inp.labeling.point_of[a1]][inp.labeling.point_of[a2]] != x_y_point:
            return None
        choices.append((a1, a2))
    # a sign choice with zero sum exists (epsilon_1 epsilon_2 epsilon_3 = 1)
    for s0 in choices[0]:
        for s1 in choices[1]:
            for s2 in choices[2]:
                if (s0 + s1 + s2) % m == 0:
                    return v_triple, (s0, s1, s2)
    return None


# ---------------------------------------------------------------------------
# Slice and graph subsystems


def yv_subsystem(inp: MooreInput, v: int) -> PointSet:
    """The closed point set X union ({v} x A), as U-indices."""
    xi = inp.x_index()
    pts = set(xi.values())
    for a in range(inp.m):
        pts.add(inp.u_point(v, a))
    return frozenset(pts)


def all_vsf(inp: MooreInput) -> list:
    """Every map f: V -> 6-torsion with zero sum on all triples of V.

    Returned as sorted tuples of (v, residue) pairs; the constant-zero
    map is always present.
    """
    m = inp.m
    a6 = sorted(inp.labeling.a6())
    triples = list(inp.v.iter_triples())
    n = inp.v.n
    out = []

    def rec(v: int, f: list):
        if v == n:
            out.append(tuple(enumerate(f)))
            return
        for a in a6:
            f.append(a)
            ok = all(
                (f[t[0]] + f[t[1]] + f[t[2]]) % m == 0
                for t in triples
                if max(t) == v
            )
            if ok:
                rec(v + 1, f)
            f.pop()

    rec(0, [])
    return sorted(out)


@dataclass(frozen=True)
class RecognitionVerdict:
    kind: str  # "is_yv" | "is_vvf" | "other"
    v: int | None = None
    f: tuple | None = None


def recognize_subsystem(inp: MooreInput, w) -> RecognitionVerdict:
    """Recognize a closed set as a slice Y_v or a full graph V_{V,f}."""
    pts = frozenset(w)
    if len(pts) == inp.y.n:
        for v in range(inp.v.n):
            if pts == yv_subsystem(inp, v):
                return RecognitionVerdict(kind="is_yv", v=v)
    nx = len(inp.x_points)
    if len(pts) == inp.v.n and all(p >= nx for p in pts):
        f = dict(inp.decode(p) for p in pts)
        if len(f) == inp.v.n and _is_vsf(inp, tuple(sorted(f)), f):
            return RecognitionVerdict(kind="is_vvf", f=tuple(sorted(f.items())))
    return RecognitionVerdict(kind="other")
