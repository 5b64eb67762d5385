"""Constructions: base families, doubling, products, labelings, lifting."""

import hashlib
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stslab import (
    BlockDesign,
    ConstructionError,
    InvalidSystemError,
    LabelingError,
    MooreInput,
    TripleSystem,
    UnsupportedEmbeddingError,
    automorphism_group,
    base_sts,
    bose,
    direct_product,
    double,
    embed_subsystem,
    is_automorphism,
    is_pg2_paired,
    is_pg2_pointed,
    is_pg3_2pointed,
    is_subsystem,
    label_per_p7,
    lift_v_automorphism,
    moore,
    moore_variant_sigma,
    paired_via_design,
    pg_sts,
    reachable_sizes,
    rigid_sts_search,
    skolem,
    validate_sts,
)
from stslab import constructions
from stslab.perm import PermutationGroup
from stslab.constructions import _is_projective_15, _moore_triples, random_sts
from stslab.pstss import attach_gadgets, corollary46_build, corollary47_build, cyclic_pstss
from stslab.system import restrict, row_dtype, span
from random_reference import random_sts_reference
from test_core import _update_int32


# ---------------------------------------------------------------------------
# base families


@pytest.mark.parametrize("n", [3, 9, 15, 21, 27, 33])
def test_bose_valid(n):
    assert validate_sts(bose(n)).ok


@pytest.mark.parametrize("n", [7, 13, 19, 25, 31, 37])
def test_skolem_valid(n):
    assert validate_sts(skolem(n)).ok


@pytest.mark.parametrize("n", [1, 5, 6, 8])
def test_bad_orders_rejected(n):
    with pytest.raises(ConstructionError):
        base_sts(n) if n in (5, 8) else bose(n)
    with pytest.raises(ConstructionError):
        skolem(n)


@pytest.mark.parametrize(
    "build",
    [lambda: bose(-3), lambda: base_sts(-3), lambda: embed_subsystem(-3, 7)],
    ids=["bose", "base_sts", "embed_subsystem"],
)
def test_negative_sizes_rejected(build):
    # -3 % 6 == 3 in Python, so a residue test alone would admit -3
    with pytest.raises(ConstructionError):
        build()


@pytest.mark.parametrize("d,order", [(2, 168), (3, 20160)])
def test_pg_valid_with_known_aut(d, order):
    ts = pg_sts(d)
    assert ts.n == 2 ** (d + 1) - 1
    assert validate_sts(ts).ok
    assert automorphism_group(ts).order == order


def test_pg_triples_are_xor_lines():
    ts = pg_sts(3)
    for a, b, c in ts.iter_triples():
        assert (a + 1) ^ (b + 1) == (c + 1)


def _pg_loop(d: int) -> list:
    """The lines {a, b, a xor b} of PG(d, 2) as (mask - 1) rows, a < b <
    a xor b, by the double loop over the nonzero vectors."""
    n = (1 << (d + 1)) - 1
    rows = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            c = a ^ b
            if c > b:
                rows.append([a - 1, b - 1, c - 1])
    return rows


@pytest.mark.parametrize("d", range(1, 10))
def test_pg_sts_matches_the_xor_loop(d):
    ts = pg_sts(d)
    assert ts.n == 2 ** (d + 1) - 1
    assert ts.triples.tolist() == _pg_loop(d)


@pytest.mark.parametrize("d", [-1, 0, 15, 64])
def test_pg_sts_dimension_is_checked_before_building(d):
    with pytest.raises(ConstructionError, match=rf"dimension {d} is outside 1\.\.14"):
        pg_sts(d)


def test_base_sts_3_is_bose_3():
    assert base_sts(3) == bose(3) == TripleSystem.from_triples(3, [(0, 1, 2)])


# ---------------------------------------------------------------------------
# doubling and products


@pytest.mark.parametrize("n", [3, 7, 9, 13])
def test_double_valid(n):
    d = double(base_sts(n))
    assert d.n == 2 * n + 1
    assert validate_sts(d).ok
    assert is_subsystem(d, range(n))


def test_direct_product_valid():
    p = direct_product(base_sts(7), base_sts(9))
    assert p.n == 63
    assert validate_sts(p).ok


def test_pg2_pointed_on_double():
    d = double(base_sts(7))
    for p in range(d.n):
        assert is_pg2_pointed(d, p)


def test_pg2_pointed_fails_on_bose9():
    # STS(9) has no 7-point subsystem at all
    ts = bose(9)
    assert not any(is_pg2_pointed(ts, p) for p in range(ts.n))


@pytest.mark.parametrize(
    "call",
    [
        lambda: is_pg2_pointed(bose(9), -1),
        lambda: is_pg2_pointed(pg_sts(3), 15),
        lambda: is_pg3_2pointed(pg_sts(3), 3, 3),
        lambda: is_pg3_2pointed(pg_sts(3), 0, 15),
        lambda: is_pg3_2pointed(pg_sts(3), -1, 0),
    ],
    ids=["pg2_negative", "pg2_past_n", "pg3_same_point", "pg3_past_n", "pg3_negative"],
)
def test_pointedness_predicates_check_their_points(call):
    # unchecked, -1 cuts an empty spoke range, which passes vacuously: bose(9) has no plane
    with pytest.raises(ValueError, match="outside|distinct"):
        call()


def test_pg3_2pointed_on_double_double():
    dd = double(double(base_sts(7)))
    assert dd.n % 8 == 7
    pairs = [(0, 1), (0, dd.n - 1), (3, 10)]
    for p, q in pairs:
        assert is_pg3_2pointed(dd, p, q)


def _pg3_2pointed_every_pair(ts, p, q) -> bool:
    """The loop without the skip: every pair spanned, verdicts cached by closure."""
    others = [r for r in range(ts.n) if r not in (p, q)]
    verdicts = {}
    for i in range(len(others)):
        for j in range(i + 1, len(others)):
            closure = span(ts, {p, q, others[i], others[j]}, cap=15)
            good = verdicts.get(closure)
            if good is None:
                good = len(closure) == 7 or (
                    len(closure) == 15 and _is_projective_15(ts, closure)
                )
                verdicts[closure] = good
            if not good:
                return False
    return True


def _counting_span(monkeypatch) -> list:
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return span(*args, **kwargs)

    monkeypatch.setattr(constructions, "span", counted)
    return calls


def test_pg3_2pointed_spans_each_closure_once(monkeypatch):
    dd = double(double(base_sts(13)))  # apexes 26 (inner) and 54 (outer)
    calls = _counting_span(monkeypatch)
    assert is_pg3_2pointed(dd, 26, 54)
    assert len(calls) <= 30  # 1,378 without the skip


@pytest.mark.parametrize(
    "make, p, q",
    [
        (lambda: double(double(base_sts(13))), 26, 54),
        (lambda: double(double(base_sts(13))), 40, 13),  # fails at the 54th pair
        (lambda: double(double(base_sts(9))), 9, 19),
        (lambda: double(double(base_sts(7))), 0, 30),
        (lambda: pg_sts(4), 0, 1),
        (lambda: double(base_sts(15)), 30, 0),
    ],
)
def test_pg3_2pointed_matches_every_pair_loop(make, p, q):
    ts = make()
    assert is_pg3_2pointed(ts, p, q) is _pg3_2pointed_every_pair(ts, p, q)


def test_pg2_paired_on_pg3():
    # every pair of points of PG(3, 2) lies in one of its 15 planes
    assert is_pg2_paired(pg_sts(3))


def test_pg2_paired_fails_without_subsystems():
    assert not is_pg2_paired(bose(9))


# ---------------------------------------------------------------------------
# labeling


def test_labeling_fano_minus_point_invalid():
    # removing one point of the Fano plane leaves no closed subsystem
    with pytest.raises(LabelingError):
        label_per_p7(base_sts(7), {0, 1})


def test_labeling_basic_invariants():
    y = double(base_sts(7))  # |Y| = 15, |X| = 7, m = 8
    lab = label_per_p7(y, range(7))
    assert lab.m == 8
    assert not lab.check(y, frozenset(range(7)))
    assert sorted(lab.point_of) == list(range(7, 15))
    assert math.gcd(lab.y_star, 8) == 1
    assert lab.a6() == frozenset({0, 4})


def test_labeling_m12_anchors():
    y, x = embed_subsystem(1, 13)
    lab = label_per_p7(y, x)
    assert lab.m == 12
    assert lab.a6() == frozenset({0, 2, 4, 6, 8, 10})
    assert not lab.check(y, frozenset(x))


def test_labeling_flags_unsatisfiable_conditions():
    """Z_8 has a unit c = 5 with 6(c - 1) = 0, and the anchors are skipped;
    the labeling is still valid and its verdicts say so."""
    y = double(base_sts(7))
    lab = label_per_p7(y, range(7))
    assert (lab.p7a_strict, *lab.anchors(y)) == (False, False, False)
    assert not lab.check(y, frozenset(range(7)))


T, F = True, False


@pytest.mark.parametrize("x, y, verdicts", [
    (1, 3, (T, F, F)),
    (1, 7, (F, T, F)), (1, 9, (F, T, F)), (3, 9, (F, T, F)),
    (1, 13, (F, T, T)), (3, 15, (F, T, T)),
    (1, 15, (T, T, F)), (3, 13, (T, T, F)),
    (3, 7, (F, F, F)), (7, 15, (F, F, F)),
])
def test_labeling_p7_verdicts(x, y, verdicts):
    """(P7a, P7b, P7c) of the labeling on every toolbox pair with x >= 1 and
    y <= 15, as the labeling once stored them."""
    ysys, xset = embed_subsystem(x, y)
    lab = label_per_p7(ysys, xset)
    assert (lab.p7a_strict, *lab.anchors(ysys)) == verdicts


@pytest.mark.parametrize("case", [
    "missing_point", "repeated_point", "odd_m",
    "y_star_not_a_unit", "y_star_m_plus_1", "y_star_negative", "x_not_closed",
])
def test_moore_input_refuses_a_bad_labeling(case):
    y, x = embed_subsystem(1, 13)  # m = 12
    lab = label_per_p7(y, x)
    pts = lab.point_of
    bad = {  # case -> (X, the labeling, the problem named)
        "missing_point": (x, replace(lab, point_of=pts[:-2]), "not a bijection onto Y - X"),
        "repeated_point": (x, replace(lab, point_of=pts[:-1] + pts[:1]), "not a bijection"),
        "odd_m": (x, replace(lab, point_of=pts[:-1]), "must have even order"),
        "y_star_not_a_unit": (x, replace(lab, y_star=2), "y_star = 2 is not a unit of Z_12"),
        "y_star_m_plus_1": (x, replace(lab, y_star=13), "y_star = 13 is not a unit of Z_12"),
        "y_star_negative": (x, replace(lab, y_star=-1), "y_star = -1 is not a unit of Z_12"),
        "x_not_closed": (x | {pts[0]}, lab, "X is not a closed subsystem"),
    }
    x_points, labeling, problem = bad[case]
    with pytest.raises(ConstructionError, match=problem):
        MooreInput(y, x_points, base_sts(3), labeling)


# ---------------------------------------------------------------------------
# the product


def _inp(x, y, v):
    ysys, xset = embed_subsystem(x, y)
    return MooreInput.build(ysys, xset, base_sts(v))


def test_moore_size_and_validity():
    inp = _inp(1, 7, 3)
    u = moore(inp)
    assert u.n == 1 + 3 * (7 - 1) == 19
    assert validate_sts(u).ok


def test_moore_contains_yv_slices():
    inp = _inp(3, 9, 3)
    u = moore(inp)
    from stslab.fano import yv_subsystem

    for v in range(3):
        assert is_subsystem(u, yv_subsystem(inp, v))


def test_moore_decode_roundtrip():
    inp = _inp(3, 9, 3)
    for v in range(3):
        for a in range(inp.m):
            p = inp.u_point(v, a)
            assert inp.decode(p) == (v, a)
    names = inp.point_names()
    assert len(names) == inp.u_size


def test_lift_v_automorphism_exact():
    inp = _inp(1, 7, 3)
    u = moore(inp)
    g = automorphism_group(inp.v)
    assert g.order == 6
    for gen in g.generators:
        lifted = lift_v_automorphism(inp, gen)
        assert is_automorphism(u, lifted)


@pytest.mark.parametrize("g", [(0, 0, 0), (0, 1), (0, 1, 2, 3), (0, 1, 3), (2, 1, -1)])
def test_lift_v_automorphism_refuses_a_non_permutation(g):
    inp = MooreInput.build(*embed_subsystem(1, 7), base_sts(3))
    with pytest.raises(ConstructionError, match="not a permutation"):
        lift_v_automorphism(inp, g)


@pytest.mark.parametrize("x, y, v, order", [(3, 19, 9, 432), (7, 31, 7, 168)])
def test_aut_of_product_is_the_lifted_aut_v(x, y, v, order):
    inp = _inp(x, y, v)
    u = moore(inp)
    assert u.n in (147, 175)
    aut_u = automorphism_group(u)
    aut_v = automorphism_group(inp.v)
    lifts = [lift_v_automorphism(inp, g) for g in aut_v.generators]
    assert all(p in aut_u for p in lifts)
    lifted = PermutationGroup.from_generators(u.n, lifts)
    assert aut_u.order == lifted.order == aut_v.order == order


def test_moore_variant_sigma_validates():
    inp = _inp(1, 13, 3)
    fixed = set(inp.labeling.a6()) | {inp.labeling.y_star}
    free = [a for a in range(inp.m) if a not in fixed]
    assert len(free) >= 2
    sigma = list(range(inp.m))
    sigma[free[0]], sigma[free[1]] = sigma[free[1]], sigma[free[0]]
    variant = moore_variant_sigma(inp, sigma)
    assert validate_sts(variant).ok


def _moore_triples_loop(inp, sigma=None):
    """The per-triple loop that built the (M3) block before broadcasting."""
    lab = inp.labeling
    m = lab.m
    xi = {p: i for i, p in enumerate(sorted(inp.x_points))}  # X's points come first in U
    res = {p: a for a, p in enumerate(lab.point_of)}
    sig = (lambda a: sigma[a]) if sigma is not None else (lambda a: a)
    triples = []
    for t in inp.y.iter_triples():
        inside = [p in inp.x_points for p in t]
        if all(inside):
            triples.append(tuple(xi[p] for p in t))
            continue
        outs = [p for p, isin in zip(t, inside) if not isin]
        ins = [p for p, isin in zip(t, inside) if isin]
        if len(outs) == 2:
            a1, a2 = res[outs[0]], res[outs[1]]
            for v in range(inp.v.n):
                triples.append((inp.u_point(v, a1), inp.u_point(v, a2), xi[ins[0]]))
        else:
            a1, a2, a3 = (res[p] for p in outs)
            for v in range(inp.v.n):
                triples.append((inp.u_point(v, a1), inp.u_point(v, a2), inp.u_point(v, a3)))
    for v1, v2, v3 in inp.v.iter_triples():
        for a1 in range(m):
            for a2 in range(m):
                a3 = (-a1 - a2) % m
                triples.append(
                    (inp.u_point(v1, sig(a1)), inp.u_point(v2, sig(a2)), inp.u_point(v3, sig(a3)))
                )
    return triples


def _grid_inputs():
    """Every (x, y, v) product the tests build (the criterion-01 grid)."""
    for x in (1, 3, 7):
        for y in (7, 9, 13, 15):
            try:
                ysys, xset = embed_subsystem(x, y)
            except (UnsupportedEmbeddingError, ConstructionError):
                continue
            for v in (3, 7, 9):
                yield (x, y, v), MooreInput.build(ysys, xset, base_sts(v))


def test_moore_triples_match_loop_oracle():
    """The criterion grid, and three edges of the point map: an empty X
    ((0, 9, 7)) and a Y - X much wider than X ((1, 85, 7) and (3, 139, 7))."""
    wide = [((x, y, v), _inp(x, y, v)) for x, y, v in ((0, 9, 7), (1, 85, 7), (3, 139, 7))]
    built = 0
    for params, inp in [*_grid_inputs(), *wide]:
        got = _moore_triples(inp)
        want = np.array(_moore_triples_loop(inp), dtype=np.int32)
        assert got.dtype == row_dtype(inp.u_size) and np.array_equal(got, want), params
        built += 1
    assert built == 30


# SHA-256 of the rows of moore(_inp(x, y, v)) as int32, as built by the
# per-point (M2) loop the broadcast blocks replaced
_MOORE_ROWS_SHA256 = {
    (1, 7, 3): "be934a42a2428e3b4389f7673036c0713adf8d57d90e7bb4cc33940678d51783",
    (3, 9, 3): "3fa05263d9863632f0a9c671b75eb30009885d80ceacca3e710a4a2756cc29bf",
    (7, 15, 3): "99da9370e88fe784cb072636db45f60812590fc83cc0f66dcbd305958d92ab87",
    (1, 9, 7): "57314537e5ebc54f0932ed9d3470cc9a2d2c43763bcfdf6dd691849692464e44",
    (3, 9, 7): "a8e7cefd031f42db23a0edd6c55c37e1e37c83eca12b397c9a8b1807b1c5cd46",
    (7, 127, 31): "1c847f3cf1ba57d9d681176f0b13f3360567389f6c5619b239e4f633c68fd94e",
}


@pytest.mark.parametrize("params", sorted(_MOORE_ROWS_SHA256))
def test_moore_rows_match_recorded_digest(params):
    rows = moore(_inp(*params)).triples
    assert _update_int32(hashlib.sha256(), rows).hexdigest() == _MOORE_ROWS_SHA256[params]


def test_moore_rows_are_built_in_place():
    """_moore_triples writes every row into its one output array: the
    traced peak is that array and a little scratch, not an int32 product
    and its concatenation (4.2 times the uint16 output)."""
    inp = _inp(7, 63, 15)
    tracemalloc.start()
    try:
        rows = _moore_triples(inp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.dtype == np.uint16 and rows.shape == (119_427, 3)
    assert peak < 1.5 * rows.nbytes, f"{peak / 1e6:.2f} MB for {rows.nbytes / 1e6:.2f} MB of rows"


def test_moore_variant_sigma_triples_match_loop_oracle():
    inp = _inp(1, 13, 3)
    fixed = set(inp.labeling.a6()) | {inp.labeling.y_star}
    free = [a for a in range(inp.m) if a not in fixed]
    sigma = list(range(inp.m))
    sigma[free[0]], sigma[free[1]], sigma[free[2]] = sigma[free[1]], sigma[free[2]], sigma[free[0]]
    got = _moore_triples(inp, tuple(sigma))
    assert np.array_equal(got, np.array(_moore_triples_loop(inp, sigma), dtype=np.int32))
    assert moore_variant_sigma(inp, sigma) == TripleSystem(inp.u_size, got)


def test_moore_variant_sigma_rejects_bad_sigma():
    inp = _inp(1, 7, 3)
    sigma = list(range(inp.m))
    a6 = sorted(inp.labeling.a6())
    sigma[a6[0]], sigma[a6[1]] = sigma[a6[1]], sigma[a6[0]]
    with pytest.raises(ConstructionError):
        moore_variant_sigma(inp, sigma)


# ---------------------------------------------------------------------------
# embedding toolbox


def test_embed_subsystem_cases():
    for x, y in [(0, 7), (1, 9), (3, 13), (7, 15), (9, 19), (7, 31)]:
        ts, xset = embed_subsystem(x, y)
        assert ts.n == y
        assert len(xset) == x
        assert validate_sts(ts).ok
        assert is_subsystem(ts, xset)


def test_embed_subsystem_unsupported():
    with pytest.raises(UnsupportedEmbeddingError):
        embed_subsystem(7, 19)
    with pytest.raises(ConstructionError):
        embed_subsystem(7, 13)  # violates y >= 2x + 1


def test_reachable_sizes():
    assert 15 in reachable_sizes(7, 100)
    assert 31 in reachable_sizes(7, 100)
    assert 19 not in reachable_sizes(7, 100)
    assert reachable_sizes(3, 30) == [7, 9, 13, 15, 19, 21, 25, 27]


def test_embed_subsystem_succeeds_exactly_on_the_reachable_sizes():
    for x in range(-1, 40):
        reachable = reachable_sizes(x, 200)
        built = []
        for y in range(201):
            try:
                ts, xset = embed_subsystem(x, y)
            except UnsupportedEmbeddingError:
                continue
            assert ts.n == y and len(xset) == x and is_subsystem(ts, xset), (x, y)
            built.append(y)
        assert built == reachable, x


# ---------------------------------------------------------------------------
# designs and random systems


def _design_of(ts):
    """The triples of ts as a block design."""
    return BlockDesign(ts.n, ts.triples.tolist())


def test_block_design_validation():
    _design_of(base_sts(7))
    with pytest.raises(ConstructionError):
        BlockDesign(4, [(0, 1, 2), (0, 1, 3)])
    # three pairs match the pair count of 3 points: only the range check fails
    for block in [(0, 1, 5), (-1, 0, 1)]:
        with pytest.raises(ConstructionError, match=r"0\.\.2"):
            BlockDesign(3, [block])


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: is_pg3_2pointed(pg_sts(2), 0, 1), "needs more than 7 points"),
        (lambda: moore_variant_sigma(_inp(1, 7, 3), [0] * 6),  # m = 6
         "sigma is not a permutation of the residues"),
        (lambda: BlockDesign(3, ((0, 1), (0, 1, 2))), "blocks must share one size"),
        (lambda: BlockDesign(4, ((0, 1, 2),)), "some pair of points lies in no block"),
        (lambda: paired_via_design(bose(9), _design_of(base_sts(7))),
         r"\|s\| = 9 but blocks have size 3"),
        (lambda: random_sts(17, random.Random(0)), "no interesting triple system on 17 points"),
        (lambda: rigid_sts_search(17), "17 is not an admissible size"),
    ],
    ids=["pg3_2pointed_on_7", "sigma_not_a_permutation", "uneven_blocks", "uncovered_pair",
         "design_block_size", "random_sts_17", "rigid_search_17"],
)
def test_construction_input_errors(build, message):
    with pytest.raises(ConstructionError, match=message):
        build()


def test_rigid_search_that_runs_out_of_attempts(monkeypatch):
    monkeypatch.setattr(constructions, "_RIGID_ATTEMPTS", 0)
    with pytest.raises(ConstructionError, match="on 15 points within 0 attempts"):
        rigid_sts_search(15)


def test_paired_via_design_valid():
    s = base_sts(7)
    out = paired_via_design(s, _design_of(base_sts(7)))
    assert out.n == 15
    assert validate_sts(out).ok


def test_paired_via_design_anchor_degree_mismatch():
    """A system whose anchor lies in fewer than k triples is not an
    STS(2k+1), so it cannot be built and handed to paired_via_design."""
    with pytest.raises(InvalidSystemError, match="triple count 1, expected 7"):
        TripleSystem(7, [(0, 1, 2)])


# ---------------------------------------------------------------------------
# systems built from systems


_BASE = (3, 7, 9, 13, 15)


def _built_from_systems(family):
    """The systems one construction builds from others on a fixed grid."""
    if family == "double":
        yield from (double(base_sts(n)) for n in (*_BASE, 19, 21, 25, 27))
        yield from (double(pg_sts(d)) for d in (3, 4))
    elif family == "direct_product":
        yield from (direct_product(base_sts(a), base_sts(b)) for a in _BASE for b in _BASE)
    elif family == "attach_gadgets":
        yield from (attach_gadgets(base_sts(n)) for n in _BASE)
    elif family == "corollary46_build":
        for v in _BASE:
            yield from (corollary46_build(base_sts(v), base_sts(w)) for w in _BASE)
    elif family == "corollary47_build":
        for v in (base_sts(7), pg_sts(3)):
            yield corollary47_build(v, v.triples[0].tolist())
        yield corollary47_build(pg_sts(3), span(pg_sts(3), {0, 1, 3}))
    elif family == "paired_via_design":
        for d in (base_sts(7), base_sts(9), pg_sts(3)):
            yield paired_via_design(base_sts(7), _design_of(d))
    elif family == "restrict":
        pg4 = pg_sts(4)
        yield from (restrict(pg4, span(pg4, seed))[0] for seed in ({0, 1}, {0, 1, 3}, {0, 1, 3, 7}))
        for pts in ({0, 1, 2}, {0, 1, 3, 5, 7}, {1, 2, 3, 4, 9}):
            yield restrict(cyclic_pstss(5).system, pts)[0]


# SHA-256 over "n:" and the int32 row bytes of each system of the grid above, as
# built by the per-triple loops over relabel dicts that the row gathers
# replaced
_BUILT_FROM_SYSTEMS_SHA256 = {
    "double": "bf61893f65ecf839093f7fd4d3055fd893e981c7f35f823505c1eaa788c53241",
    "direct_product": "1009f13e22ebfdc3a1a8f944a491fc76d54336ec95a2f6a827fff5dcc16c12f7",
    "attach_gadgets": "86295806b57104d2d18cf44d8fe0519e57d723bb882c8903e59805564f98aa52",
    "corollary46_build": "c00ff3165e93514280d9e4d0222a6eeaf77f0e3e8729154547dfb608846cd7fb",
    "corollary47_build": "e857b5298d368c9d5189f2a6497b9702a2d9aa394aa11cfa6b8b8f404e85e4a9",
    "paired_via_design": "2c13ff7e2036bd5e105ad960acbdaf16899496815b06f806939f7e185fd98a48",
    "restrict": "60a49680438004ee7a214f8e6d3442fb664b619086d23561f31783fa9aab643f",
}


@pytest.mark.parametrize("family", sorted(_BUILT_FROM_SYSTEMS_SHA256))
def test_built_from_systems_match_recorded_digest(family):
    digest = hashlib.sha256()
    for ts in _built_from_systems(family):
        digest.update(f"{ts.n}:".encode())
        _update_int32(digest, ts.triples)
    assert digest.hexdigest() == _BUILT_FROM_SYSTEMS_SHA256[family]


def test_random_sts_valid():
    rng = random.Random(1)
    for n in (7, 9, 13, 15):
        assert validate_sts(random_sts(n, rng)).ok


@pytest.mark.parametrize("n", [7, 9, 13, 15, 19, 27, 45, 63, 99])
def test_random_sts_matches_reference_climber(n):
    """The climber that keeps only its table draws the same numbers, so it
    gives the same system as the one that kept a set of triples."""
    for seed in range(5):
        assert random_sts(n, random.Random(seed)) == random_sts_reference(n, random.Random(seed))


def test_rigid_sts_search():
    ts = rigid_sts_search(15)
    assert validate_sts(ts).ok
    assert automorphism_group(ts).order == 1
