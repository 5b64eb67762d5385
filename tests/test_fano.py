"""Seven-point projective subsystems: enumeration, shapes, recognition."""

import random
import sys
from collections import Counter
from itertools import combinations

import pytest

from stslab import (
    ClassificationError,
    MooreInput,
    PartialTripleSystem,
    TripleSystem,
    all_vsf,
    are_isomorphic,
    attach_gadgets,
    base_sts,
    bose,
    classify_fano,
    direct_product,
    double,
    embed_subsystem,
    enumerate_fano,
    is_pg2_paired,
    is_pg2_pointed,
    is_pg3_2pointed,
    is_subsystem,
    moore,
    pg_sts,
    recognize_subsystem,
    restrict,
    yv_subsystem,
)
from stslab import fano as fano_module
from stslab.constructions import random_sts
from stslab.pstss import cyclic_pstss
from stslab.system import fano_planes
from fano_reference import _combinations, enumerate_fano_bruteforce, enumerate_fano_by_span


def _inp(x, y, v):
    ysys, xset = embed_subsystem(x, y)
    return MooreInput.build(ysys, xset, base_sts(v))


# ---------------------------------------------------------------------------
# enumeration


def test_pg2_is_its_own_fano():
    assert enumerate_fano(pg_sts(2)) == [tuple(range(7))]


def test_bose9_has_no_fano():
    assert enumerate_fano(bose(9)) == []


def test_pg3_fano_count():
    # PG(3, 2) contains exactly 15 planes
    assert len(enumerate_fano(pg_sts(3))) == 15


def test_planes_use_no_span(monkeypatch):
    def no_span(*args, **kwargs):
        raise AssertionError("span called")

    for name, module in list(sys.modules.items()):
        if name.startswith("stslab") and hasattr(module, "span"):
            monkeypatch.setattr(module, "span", no_span)
    pg3 = pg_sts(3)
    assert len(enumerate_fano(pg3)) == 15
    assert all(is_pg2_pointed(pg3, p) for p in range(pg3.n))
    assert is_pg2_paired(pg3)


def test_partial_plane_missing_a_line_is_no_plane():
    lines = list(pg_sts(2).iter_triples())
    for missing in lines:
        partial = PartialTripleSystem(7, [t for t in lines if t != missing])
        assert enumerate_fano(partial) == []
        assert enumerate_fano_bruteforce(partial) == []
    assert enumerate_fano(PartialTripleSystem(7, lines)) == [tuple(range(7))]


def test_bruteforce_subsets_are_every_combination():
    for n in range(11):
        for k in range(1, 8):
            assert [tuple(r) for r in _combinations(n, k).tolist()] == list(
                combinations(range(n), k)
            )


@pytest.mark.parametrize("ts", [pg_sts(2), bose(9), base_sts(13), pg_sts(3)])
def test_enumerate_matches_bruteforce(ts):
    assert enumerate_fano(ts) == sorted(enumerate_fano_bruteforce(ts))


def test_enumeration_on_product_matches_oracle():
    inp = _inp(1, 7, 3)
    u = moore(inp)
    assert u.n == 19
    fast = enumerate_fano(u)
    assert fast == sorted(enumerate_fano_bruteforce(u))
    assert fast  # the slices alone contribute planes


def _relabeled_pg5():
    ts = pg_sts(5)
    perm = list(range(ts.n))
    random.Random(5).shuffle(perm)
    return TripleSystem(ts.n, [[perm[x] for x in t] for t in ts.iter_triples()])


@pytest.mark.parametrize(
    "make,count",
    [
        (lambda: moore(_inp(3, 19, 9)), 144),
        (lambda: moore(_inp(7, 31, 7)), 1103),
        (_relabeled_pg5, 1395),  # the Gaussian binomial [6 choose 3]_2
    ],
    ids=["moore_3_19_9", "moore_7_31_7", "pg5_relabeled"],
)
def test_enumerate_matches_span_reference(make, count):
    ts = make()
    fast = enumerate_fano(ts)
    assert len(fast) == count
    assert fast == enumerate_fano_by_span(ts)


def _two_planes_and_strays():
    lines = list(pg_sts(2).iter_triples())
    second = [tuple(p + 7 for p in t) for t in lines]
    strays = [(0, 7, 14), (1, 8, 15), (2, 9, 16), (14, 15, 16)]
    return PartialTripleSystem(17, lines + second + strays)


@pytest.mark.parametrize(
    "make,count",
    [
        (lambda: pg_sts(3), 15),
        (lambda: pg_sts(4), 155),
        (lambda: bose(9), 0),
        (lambda: moore(_inp(3, 19, 9)), 144),
        (_two_planes_and_strays, 2),
    ],
    ids=["pg3", "pg4", "bose9", "moore_3_19_9", "two_planes_partial"],
)
def test_enumeration_commutes_with_relabeling(make, count):
    # each plane is tested only from its least point, which a relabeling moves
    ts = make()
    planes = enumerate_fano(ts)
    assert len(planes) == count
    for seed in range(3):
        perm = list(range(ts.n))
        random.Random(seed).shuffle(perm)
        moved = type(ts)(ts.n, [[perm[p] for p in t] for t in ts.iter_triples()])
        expected = sorted(tuple(sorted(perm[p] for p in plane)) for plane in planes)
        assert enumerate_fano(moved) == expected


@pytest.mark.parametrize(
    "make", [_relabeled_pg5, lambda: moore(_inp(7, 31, 7))], ids=["pg5_relabeled", "moore_7_31_7"]
)
def test_enumeration_tests_pairs_of_spokes_above_each_point(make, monkeypatch):
    ts = make()
    calls = 0

    def counted(system, p, *rest):
        nonlocal calls
        calls += len(p)  # one plane test per row handed over
        return fano_planes(system, p, *rest)

    monkeypatch.setattr(fano_module, "fano_planes", counted)
    enumerate_fano(ts)
    pairs = ts.incidence.spoke_lists()
    above = [sum(q > p for q, _ in spokes) for p, spokes in enumerate(pairs)]
    assert calls == sum(a * (a - 1) // 2 for a in above)
    assert calls <= 0.25 * sum(len(s) * (len(s) - 1) // 2 for s in pairs)


# ---------------------------------------------------------------------------
# plane predicates against the reference plane list


def _lines_through(ts, p):
    return [t for t in ts.iter_triples() if p in t]


def _pointed_by_definition(ts, planes, p):
    """Every two lines through p lie in one plane: their five points are
    five of its seven."""
    fives = {frozenset(five) for plane in planes if p in plane for five in combinations(plane, 5)}
    return all(
        frozenset(la) | frozenset(lb) in fives
        for la, lb in combinations(_lines_through(ts, p), 2)
    )


def _paired_by_definition(ts, planes):
    """Every two points lie in two planes."""
    count = Counter(pair for plane in planes for pair in combinations(plane, 2))
    return all(count[pair] >= 2 for pair in combinations(range(ts.n), 2))


@pytest.mark.parametrize(
    "make,n_planes,pointed,paired",
    [
        (lambda: double(bose(9)), 12, [18], False),
        (lambda: direct_product(pg_sts(2), pg_sts(2)), 182, [], False),
        (lambda: moore(_inp(1, 7, 3)), 3, [], False),
        (lambda: double(double(base_sts(7))), 155, list(range(31)), True),
        (lambda: direct_product(pg_sts(3), pg_sts(2)), 2640, [], False),
        (lambda: bose(27), 0, [], False),
        (lambda: double(base_sts(13)), 26, [26], False),
    ],
    ids=[
        "double_bose9", "pg2_x_pg2", "moore_1_7_3", "double_double_7",
        "pg3_x_pg2", "bose27", "double_13",
    ],
)
def test_predicates_match_plane_definitions(make, n_planes, pointed, paired):
    ts = make()
    planes = enumerate_fano_by_span(ts)
    assert len(planes) == n_planes
    got_pointed = []
    for p in range(ts.n):
        verdict = is_pg2_pointed(ts, p)
        assert verdict is _pointed_by_definition(ts, planes, p)
        if verdict:
            got_pointed.append(p)
    assert got_pointed == pointed
    verdict = is_pg2_paired(ts)
    assert verdict is _paired_by_definition(ts, planes)
    assert verdict is paired


def _closure(third: dict, points: set) -> set:
    """The points reached from `points` by third-point joins, from a dict
    of the system's triples."""
    closed = set(points)
    while True:
        more = {third[a, b] for a in closed for b in closed if (a, b) in third} - closed
        if not more:
            return closed
        closed |= more


def _pg3_2pointed_by_definition(ts, p, q):
    """Any four points including p and q generate a seven-point system
    (a PG(2, 2)) or a copy of PG(3, 2), told by the isomorphism search."""
    third = {}
    for a, b, c in ts.iter_triples():
        third[a, b] = third[b, a] = c
        third[a, c] = third[c, a] = b
        third[b, c] = third[c, b] = a
    pg3, projective = pg_sts(3), {}
    others = [r for r in range(ts.n) if r not in (p, q)]
    for x, y in combinations(others, 2):
        closed = frozenset(_closure(third, {p, q, x, y}))
        if len(closed) == 15 and closed not in projective:
            projective[closed] = are_isomorphic(restrict(ts, closed)[0], pg3).isomorphic
        if len(closed) != 7 and not projective.get(closed, False):
            return False
    return True


@pytest.mark.parametrize(
    "make,p,q,verdict",
    [
        (lambda: double(double(base_sts(9))), 18, 38, True),
        (lambda: double(double(base_sts(9))), 0, 38, False),
        (lambda: random_sts(15, random.Random(0)), 0, 1, False),  # a 15-closure not PG(3, 2)
        (lambda: bose(27), 0, 1, False),
        (lambda: double(base_sts(13)), 26, 0, False),
        (lambda: direct_product(pg_sts(3), pg_sts(2)), 0, 1, False),
    ],
    ids=["double_double_9", "double_double_9_off", "random15", "bose27", "double_13", "pg3_x_pg2"],
)
def test_pg3_2pointed_matches_definition(make, p, q, verdict):
    ts = make()
    assert is_pg3_2pointed(ts, p, q) is verdict
    assert _pg3_2pointed_by_definition(ts, p, q) is verdict


def _without_first_triple(ts):
    return PartialTripleSystem(ts.n, ts.triples[1:])


@pytest.mark.parametrize(
    "make",
    [
        lambda: cyclic_pstss(5).system,
        lambda: attach_gadgets(PartialTripleSystem(1, [])),
        lambda: _without_first_triple(moore(_inp(1, 7, 3))),
        lambda: _without_first_triple(pg_sts(3)),
    ],
    ids=["cyclic5", "gadgets_on_one_point", "moore_1_7_3_less_a_triple", "pg3_less_a_triple"],
)
def test_enumerate_on_partial_systems_matches_bruteforce(make):
    ts = make()
    assert enumerate_fano(ts) == sorted(enumerate_fano_bruteforce(ts))


# ---------------------------------------------------------------------------
# classification


@pytest.mark.parametrize("x,y,v", [(1, 7, 3), (3, 9, 3), (7, 15, 3)])
def test_every_fano_classifies(x, y, v):
    inp = _inp(x, y, v)
    u = moore(inp)
    fanos = enumerate_fano(u)
    assert fanos
    for f in fanos:
        got = classify_fano(inp, f)
        assert got.kind in ("type31", "in_yv", "vsf")
        if got.kind == "in_yv" and got.v is not None:
            assert set(f) <= yv_subsystem(inp, got.v)


def test_classification_fields_type31():
    inp = _inp(3, 9, 3)
    u = moore(inp)
    seen = False
    for f in enumerate_fano(u):
        got = classify_fano(inp, f)
        if got.kind != "type31":
            continue
        seen = True
        assert got.x_point is not None
        assert tuple(sorted(got.v_triple)) in set(inp.v.iter_triples())
        assert sum(got.a_values) % inp.m == 0
    assert seen


def test_classify_rejects_odd_group():
    y, x = embed_subsystem(0, 9)
    inp = MooreInput.build(y, x, base_sts(3))
    assert inp.m % 2 == 1
    with pytest.raises(ClassificationError):
        classify_fano(inp, tuple(range(7)))


def test_classify_rejects_non_fano():
    inp = _inp(1, 7, 3)
    with pytest.raises(ClassificationError):
        classify_fano(inp, (0, 1, 2))


_NOT_VSF = "7 distinct slices but not a 6-torsion graph"
_UNCLASSIFIABLE = "unclassifiable 7-point subsystem"
_NOT_CLOSED = "7 points in one slice but not closed"


@pytest.mark.parametrize(
    "slices,violation",
    [
        # seven slices, no X point: f(0) = 1 lies outside the 6-torsion {0, 2, ..., 10}
        ({0: [1], **{v: [0] for v in range(1, 7)}}, _NOT_VSF),
        # f in the 6-torsion, but it sums to 2 on the V-triples through 0
        ({0: [2], **{v: [0] for v in range(1, 7)}}, _NOT_VSF),
        # the X point with two residues in each of three slices:
        ({0: [0, 1], 1: [0, 1], 6: [0, 1]}, _UNCLASSIFIABLE),  # not pairs {a, a + 6}
        ({0: [0, 6], 1: [0, 6], 6: [0, 6]}, _UNCLASSIFIABLE),  # Y-triple misses the X point
        ({0: [3, 9], 1: [3, 9], 6: [3, 9]}, _UNCLASSIFIABLE),  # no zero-sum sign choice
        ({0: [3, 9], 1: [3, 9], 2: [3, 9]}, _UNCLASSIFIABLE),  # {0, 1, 2} is no V-triple
        ({0: [3], 1: [3, 9], 6: [0, 3, 9]}, _UNCLASSIFIABLE),  # 1, 2 and 3 per slice
        # seven points of one slice, no X point: not closed in Y_0
        ({0: list(range(7))}, _NOT_CLOSED),
    ],
    ids=["off_6_torsion", "nonzero_sum", "not_antipodal", "misses_x", "no_sign_choice",
         "not_a_v_triple", "uneven_slices", "open_in_one_slice"],
)
def test_classify_rejects_hand_built_seven_sets(slices, violation):
    """Hand-built 7-sets of the (1, 13) product over STS(7), none of them
    closed: m = 12, and of the pairs {a, a + 6} only {3, 9} has its
    Y-triple through the X point."""
    inp = _inp(1, 13, 7)
    y_third = inp.y.incidence.third
    through_x = [a for a in range(6) if y_third.item(
        inp.labeling.point_of[a], inp.labeling.point_of[a + 6]) == inp.x_sorted[0]]
    assert (inp.m, through_x, (0, 1, 6) in set(inp.v.iter_triples())) == (12, [3], True)
    x = [0] if sum(map(len, slices.values())) == 6 else []
    pts = x + [inp.u_point(v, a) for v, aa in slices.items() for a in aa]
    assert len(set(pts)) == 7 and not is_subsystem(moore(inp), pts)
    with pytest.raises(ClassificationError, match=violation):
        classify_fano(inp, pts)


def test_classify_rejects_seven_slices_off_a_subsystem_of_v():
    """Over STS(9), seven points (v, 0) lie in seven slices, but their V
    points {0, ..., 6} are no subsystem of V, so they are no 6-torsion
    graph."""
    inp = _inp(1, 13, 9)
    assert not is_subsystem(inp.v, range(7))
    with pytest.raises(ClassificationError, match=_NOT_VSF):
        classify_fano(inp, [inp.u_point(v, 0) for v in range(7)])


# ---------------------------------------------------------------------------
# slices, graphs, recognition


def test_yv_subsystems_closed():
    inp = _inp(3, 9, 3)
    u = moore(inp)
    for v in range(inp.v.n):
        sub = yv_subsystem(inp, v)
        assert len(sub) == inp.y.n
        assert is_subsystem(u, sub)


def test_all_vsf_contains_zero_map_and_closed_graphs():
    inp = _inp(1, 7, 3)
    u = moore(inp)
    maps = all_vsf(inp)
    zero = tuple((v, 0) for v in range(inp.v.n))
    assert zero in maps
    for f in maps:
        pts = {inp.u_point(v, a) for v, a in f}
        assert is_subsystem(u, pts)


def test_vsf_intersection_bound():
    # any slice meets any graph in at most one point
    for args in [(1, 7, 3), (3, 9, 3)]:
        inp = _inp(*args)
        for f in all_vsf(inp):
            pts = {inp.u_point(v, a) for v, a in f}
            for v in range(inp.v.n):
                assert len(pts & yv_subsystem(inp, v)) <= 1


def test_recognize_subsystem():
    inp = _inp(1, 7, 3)
    assert recognize_subsystem(inp, yv_subsystem(inp, 1)).kind == "is_yv"
    f = all_vsf(inp)[0]
    pts = {inp.u_point(v, a) for v, a in f}
    verdict = recognize_subsystem(inp, pts)
    assert verdict.kind == "is_vvf"
    assert verdict.f == tuple(sorted(f))
    assert recognize_subsystem(inp, {0, 1, 2}).kind == "other"
    inp = _inp(1, 13, 7)  # m = 12: residue 1 is off the 6-torsion
    assert recognize_subsystem(inp, {inp.u_point(v, 0) for v in range(7)}).kind == "is_vvf"
    assert recognize_subsystem(inp, {inp.u_point(v, 1) for v in range(7)}).kind == "other"
