"""Partial systems, rigid gadgets, and the triple-replacement pipeline."""

import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_core import _degrees, _lexsort_normalize

from stslab import (
    PartialTripleSystem,
    PstssError,
    TripleSystem,
    attach_gadgets,
    automorphism_group,
    base_sts,
    bose,
    boolean_space,
    build_qr,
    check_property_44,
    corollary46_build,
    corollary47_build,
    cyclic_pstss,
    pg_sts,
    reconstruct_line,
    recover_vprime,
    replace_triples,
    restrict,
    validate_pstss,
    validate_sts,
)
from stslab import pstss
from stslab.pstss import BooleanSpace, _switch_rows, nonspace_triples
from stslab.system import _CHUNK, _triple_keys


# ---------------------------------------------------------------------------
# cyclic systems


def is_cyclic_pstss(ps) -> bool:
    """Check the defining property: triples meeting pairwise form a cycle."""
    triples = ps.triples.tolist()
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


@pytest.mark.parametrize("t", [3, 4, 5, 8])
def test_cyclic_pstss_shape(t):
    c = cyclic_pstss(t)
    assert c.system.n == 2 * t
    assert c.system.n_triples == t
    assert validate_pstss(c.system).ok
    assert is_cyclic_pstss(c.system)


def test_cyclic_pstss_rejects_small():
    with pytest.raises(PstssError):
        cyclic_pstss(2)


def test_is_cyclic_rejects_non_cycles():
    # a path of three triples, not a cycle
    path = PartialTripleSystem.from_triples(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
    assert not is_cyclic_pstss(path)
    assert not is_cyclic_pstss(base_sts(7))


# ---------------------------------------------------------------------------
# gadgets


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_gadget_rigid(r):
    q = build_qr(r)
    assert q.n == 4 * r + 10
    assert automorphism_group(q).order == 1


def test_build_q_size_contract():
    for n in (1, 2, 3):
        assert build_qr(n).n == 4 * n + 10


def test_gadget_anchor_degree():
    q = build_qr(2)
    degs = _degrees(q)
    assert int(degs[0]) == 4  # the anchor: shared by both components, twice each
    assert int(degs[q.n - 1]) == 1  # the pendant point


def _build_qr_comprehensions(r: int) -> tuple:
    """(triples, zp) of the gadget with both cycles written out: component
    1 on 0..n1-1 with z = 0, component 2 on z and n1..n1+n2-2, then the
    pendant triple through point 2 of each."""
    n1, n2 = 2 * r + 4, 2 * r + 6
    c1 = [tuple(sorted((2 * j, 2 * j + 1, (2 * j + 2) % n1))) for j in range(n1 // 2)]
    off = n1 - 1

    def p2(i: int) -> int:
        return 0 if i == 0 else off + i

    c2 = [
        tuple(sorted((p2(2 * j), p2(2 * j + 1), p2((2 * j + 2) % n2))))
        for j in range(n2 // 2)
    ]
    zp = off + n2
    return c1 + c2 + [tuple(sorted((2, zp, p2(2))))], zp


@pytest.mark.parametrize("r", [*range(1, 9), 16382])  # 16382: cycle points reach 65,536
def test_build_qr_matches_the_comprehensions(r):
    triples, zp = _build_qr_comprehensions(r)
    q = build_qr(r)
    assert q == PartialTripleSystem.from_triples(4 * r + 10, triples)
    assert zp == q.n - 1


def test_attach_sizes_and_aut():
    for t in (3, 4):
        base = cyclic_pstss(t).system
        out = attach_gadgets(base)
        n = base.n
        assert out.n == 4 * n * n + 10 * n
        # points 0..n-1 are the base's, its triples unrelabeled
        assert set(map(tuple, base.triples.tolist())) <= set(map(tuple, out.triples.tolist()))


@pytest.mark.parametrize("n_pts,triples", [(1, []), (2, []), (3, [(0, 1, 2)])])
def test_attach_preserves_aut_order(n_pts, triples):
    base = PartialTripleSystem.from_triples(n_pts, triples)
    before = automorphism_group(base).order
    out = attach_gadgets(base)
    assert automorphism_group(out).order == before


# ---------------------------------------------------------------------------
# boolean space and replacement


def test_boolean_space_is_pg():
    sp = boolean_space(4)
    assert sp.system() == pg_sts(3)
    assert validate_sts(sp.system()).ok


def _triples_array_loop(n: int) -> np.ndarray:
    """The Boolean space's rows built one point a at a time: b > a with
    a xor b > b."""
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


@pytest.mark.parametrize("n_prime", range(1, 13))
def test_triples_array_matches_loop(n_prime):
    sp = boolean_space(n_prime)
    got = sp.triples_array()
    assert got.dtype == np.uint16 and got.flags.c_contiguous  # every Boolean space has n <= 65,536
    assert got.shape == (sp.n * (sp.n - 1) // 6, 3)
    assert np.array_equal(got, _triples_array_loop(sp.n))


def test_replace_triples_valid_and_audited():
    sp = boolean_space(6)
    vp = cyclic_pstss(3).system
    rep = replace_triples(sp, vp)
    assert validate_sts(rep.system).ok
    assert len(rep.removed) == 4 * vp.n_triples
    assert len(rep.added) == 4 * vp.n_triples
    assert rep.system.n_triples == sp.system().n_triples
    assert check_property_44(rep)
    assert sorted(nonspace_triples(rep)) == sorted(rep.added)


def _swap_in_place_reference(n_prime, vprime):
    """The switched rows as first built: each removed line's row is
    overwritten by the added triple paired with it, and all the rows are
    sorted again afterwards."""
    space = boolean_space(n_prime)
    rows = space.triples_array()
    keys = _triple_keys(rows, space.n)
    for va, vb, vc in vprime.iter_triples():
        a, b, c = 1 << va, 1 << vb, 1 << vc
        ab, ac, bc = a | b, a | c, b | c
        removed = [(ab, ac, bc), (a, b, ab), (a, c, ac), (b, c, bc)]
        added = [(a, b, c), (a, ab, ac), (b, ab, bc), (c, ac, bc)]
        for old, new in zip(removed, added):
            old = np.array([sorted(x - 1 for x in old)], dtype=np.int32)
            slot = np.searchsorted(keys, _triple_keys(old, space.n))[0]
            assert np.array_equal(rows[slot], old[0])
            rows[slot] = sorted(x - 1 for x in new)
    return _lexsort_normalize(space.n, rows)


def test_boolean_space_system_adopts_its_rows():
    """system() hands its fresh rows to the constructor, which keeps them:
    the peak is the rows, the pair scan's map and one chunk's scratch."""
    space = boolean_space(12)
    tracemalloc.start()
    try:
        rows = space.system().triples
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.flags.owndata and not rows.flags.writeable
    cells = space.n * (space.n - 1) // 2  # the pair scan's map
    bound = rows.nbytes + cells + 64 * _CHUNK  # 33.5 MB
    assert peak < bound, f"{peak / 1e6:.1f} MB for {rows.nbytes / 1e6:.1f} MB of rows"


@pytest.mark.parametrize(
    "n_prime,vprime",
    [
        (6, cyclic_pstss(3).system),
        (10, cyclic_pstss(5).system),
        (12, cyclic_pstss(6).system),
        (10, bose(9)),  # 12 triples through every pair of 9 points
        (10, pg_sts(2)),
    ],
)
def test_replace_triples_matches_swap_in_place(n_prime, vprime):
    got = replace_triples(boolean_space(n_prime), vprime).system.triples
    assert np.array_equal(got, _swap_in_place_reference(n_prime, vprime))


def test_replace_triples_peak_is_about_one_row_array():
    space = boolean_space(12)
    tracemalloc.start()
    try:
        rep = replace_triples(space, cyclic_pstss(6).system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = rep.system.triples
    assert rows.shape == (space.n * (space.n - 1) // 6, 3)
    assert peak <= 2.25 * rows.nbytes, f"{peak / 1e6:.1f} MB for {rows.nbytes / 1e6:.1f} MB of rows"


_ROW = st.tuples(*[st.integers(0, 6)] * 3)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_switch_rows_matches_sorting(data):
    rows = sorted(set(data.draw(st.lists(_ROW, max_size=30))))
    drop = sorted(data.draw(st.sets(st.sampled_from(range(len(rows))))) if rows else [])
    add = sorted(data.draw(st.lists(_ROW, min_size=len(drop), max_size=len(drop))))
    got = np.array(rows, dtype=np.int32).reshape(-1, 3)
    _switch_rows(got, drop, add)
    kept = [t for i, t in enumerate(rows) if i not in set(drop)]
    assert got.tolist() == [list(t) for t in sorted(kept + add)]


def test_replace_triples_third_is_consistent():
    sp = boolean_space(6)
    rep = replace_triples(sp, cyclic_pstss(3).system)
    pair_third = rep.system.pair_third()
    rng = random.Random(0)
    for _ in range(500):
        x, y = rng.sample(range(rep.system.n), 2)
        key = (x, y) if x < y else (y, x)
        assert rep.third(x, y) == pair_third[key]


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: build_qr(0), "gadget parameter must be >= 1, got 0"),
        (lambda: attach_gadgets(PartialTripleSystem(0, [])), "need at least one point"),
        (lambda: reconstruct_line(
            replace_triples(boolean_space(6), cyclic_pstss(3).system), 5, 5),
         "need two distinct points"),
        (lambda: corollary46_build(pg_sts(2), TripleSystem(0, [])), "W needs at least one point"),
        # the switched 7-point space: no third point gives a second closed 7-set
        (lambda: reconstruct_line(
            replace_triples(boolean_space(3), PartialTripleSystem(3, [])), 0, 1),
         "from 1 distinct closed 7-sets"),
    ],
    ids=["gadget_0", "gadgets_on_no_point", "line_of_one_point", "corollary46_empty_w",
         "line_of_the_7_point_space"],
)
def test_pstss_input_errors(build, message):
    with pytest.raises(PstssError, match=message):
        build()


def test_property_44_fails_off_the_switched_triples():
    """{0, 1, 3} is no triple of the vprime that was switched, so its
    pair-type points are not in two non-line triples each."""
    rep = replace_triples(boolean_space(6), cyclic_pstss(3).system)
    assert check_property_44(rep)
    assert not check_property_44(replace(rep, vprime=PartialTripleSystem(6, [(0, 1, 3)])))


def test_replace_triples_guards():
    with pytest.raises(PstssError):
        replace_triples(boolean_space(21), cyclic_pstss(3).system)
    with pytest.raises(PstssError):
        replace_triples(boolean_space(4), cyclic_pstss(3).system)


@pytest.mark.parametrize("n_prime", [-1, 0, 16, 36])
def test_boolean_space_ground_size_is_checked_where_it_is_built(n_prime):
    with pytest.raises(PstssError, match=rf"ground size {n_prime} is outside 1\.\.15"):
        BooleanSpace(n_prime)


def test_largest_boolean_space_is_allowed():
    assert BooleanSpace(15).n == 32767  # its rows are built only on demand


def test_reconstruct_line_matches_xor():
    """Every pair of the n' = 6 and 7 spaces switched along cyclic_pstss(3):
    1,953 and 8,001 lines."""
    for n_prime in (6, 7):
        rep = replace_triples(boolean_space(n_prime), cyclic_pstss(3).system)
        n = rep.system.n
        for x in range(n):
            for y in range(x + 1, n):
                assert reconstruct_line(rep, x, y) == {x, y, ((x + 1) ^ (y + 1)) - 1}


@pytest.mark.parametrize("x,y", [(5, 63), (5, 200), (63, 5), (-1, 5)])
def test_reconstruct_line_rejects_points_outside_the_system(x, y):
    # the xor rule has no bound: unchecked, (5, 63) gives the line {5, 63, 69}
    rep = replace_triples(boolean_space(6), cyclic_pstss(3).system)
    with pytest.raises(PstssError, match=r"0\.\.62"):
        reconstruct_line(rep, x, y)


def test_recover_vprime_exact():
    sp = boolean_space(6)
    vp = cyclic_pstss(3).system
    rep = replace_triples(sp, vp)
    singles = frozenset((1 << j) - 1 for j in range(vp.n))
    assert recover_vprime(rep) == singles


def test_recover_vprime_empty_without_replacement():
    sp = boolean_space(4)
    rep = replace_triples(sp, PartialTripleSystem.from_triples(3, []))
    assert recover_vprime(rep) == frozenset()
    assert rep.system == sp.system()


# ---------------------------------------------------------------------------
# corollary builders


def test_corollary46():
    v = bose(9)
    w = base_sts(3)
    out = corollary46_build(v, w)
    wprime, _ = restrict(out, range(out.n - v.n))
    assert wprime.n > v.n
    assert validate_pstss(out).ok
    assert automorphism_group(wprime).order == 1
    # the combined symmetry is exactly that of the untouched V copy
    assert automorphism_group(out).order == automorphism_group(v).order


def test_corollary46_places_v_past_the_uint16_points():
    """W = STS(33) gives |W'| = 74,382, so V's copy starts above 65,535."""
    v, w = base_sts(7), base_sts(33)
    out = corollary46_build(v, w)
    off = 74_382
    assert out.n == off + 7
    want = [[p + off for p in t] for t in v.triples.tolist()]
    assert out.triples[-v.n_triples :].tolist() == want


def _count_calls(monkeypatch, name) -> list:
    calls = []
    wrapped = getattr(pstss, name)
    monkeypatch.setattr(pstss, name, lambda *args: calls.append(args) or wrapped(*args))
    return calls


def test_attach_builds_each_gadget_once(monkeypatch):
    calls = _count_calls(monkeypatch, "build_qr")
    out = attach_gadgets(base_sts(9))
    assert calls == [(9,)]
    assert out.n == 4 * 81 + 90


def test_corollary46_attaches_once(monkeypatch):
    calls = _count_calls(monkeypatch, "_attach")
    out = corollary46_build(base_sts(999), base_sts(3))
    assert len(calls) == 1
    # the fewest rounds with |W'| > |V|: 14 rounds give 1,038 points, 13 give 966
    assert calls[0][1] == [42, 84, 126]
    assert out.n - 999 == 1038


def test_corollary47_stabilizer():
    v = bose(9)
    v1 = frozenset(next(v.iter_triples()))
    out = corollary47_build(v, v1)
    assert validate_pstss(out).ok
    aut_v = automorphism_group(v)
    stab = sum(
        1
        for g in aut_v.elements()
        if {g[p] for p in v1} == set(v1)
    )
    assert automorphism_group(out).order == stab


def test_corollary47_guards():
    v = base_sts(7)
    with pytest.raises(PstssError):
        corollary47_build(v, {0, 1, 2})  # not closed
    with pytest.raises(PstssError):
        corollary47_build(v, range(7))  # not proper
