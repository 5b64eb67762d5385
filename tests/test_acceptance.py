"""Acceptance suite: one criterion per test, one printed verdict line each.

Verdict lines go to the real stdout so they appear even under capture:

    criterion 01 PASS  product validity grid 27/27
    ...
"""

import hashlib
import random
import sys
import time

import pytest

from stslab import (
    MooreInput,
    PartialTripleSystem,
    all_vsf,
    attach_gadgets,
    automorphism_group,
    base_sts,
    boolean_space,
    bose,
    build_qr,
    check_property_44,
    choose_K,
    classify_fano,
    corollary47_build,
    delta_of,
    direct_product,
    double,
    embed_subsystem,
    enumerate_fano,
    global_threshold,
    is_automorphism,
    is_pg2_paired,
    is_pg2_pointed,
    is_pg3_2pointed,
    lift_v_automorphism,
    moore,
    moore_variant_sigma,
    pg_sts,
    recover_vprime,
    reconstruct_line,
    replace_triples,
    residue_coverage,
    solve_order,
    validate_sts,
    yv_subsystem,
)
from stslab.constructions import UnsupportedEmbeddingError, ConstructionError
from fano_reference import enumerate_fano_bruteforce
from test_core import _update_int32
from stslab.perm import PermutationGroup
from stslab.params import ADMISSIBLE_DELTAS
from stslab.pstss import cyclic_pstss


_CAPTURE = []


@pytest.fixture(autouse=True)
def _route_around_capture(capfd):
    _CAPTURE.append(capfd)
    yield
    _CAPTURE.pop()


def _verdict(num: int, ok: bool, detail: str) -> None:
    word = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {word}  {detail}"
    if _CAPTURE:
        with _CAPTURE[-1].disabled():
            print(line, file=sys.__stdout__, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


def _product_input(x, y, v):
    ysys, xset = embed_subsystem(x, y)
    return MooreInput.build(ysys, xset, base_sts(v))


def test_criterion_01_product_grid():
    start = time.monotonic()
    built = skipped = 0
    ok = True
    for x in (1, 3, 7):
        for y in (7, 9, 13, 15):
            try:
                ysys, xset = embed_subsystem(x, y)
            except (UnsupportedEmbeddingError, ConstructionError):
                skipped += 1
                continue
            for v in (3, 7, 9):
                inp = MooreInput.build(ysys, xset, base_sts(v))
                u = moore(inp)
                ok = ok and u.n == x + v * (y - x) and validate_sts(u).ok
                built += 1
    dt = time.monotonic() - start
    _verdict(
        1,
        ok and built == 27 and skipped == 3 and dt < 10,
        f"product validity grid {built}/27 valid, {skipped} size pairs "
        f"outside the embedding toolbox, {dt:.1f}s",
    )


def test_criterion_02_pointed_doubles():
    start = time.monotonic()
    pointed_ok = True
    for n in (7, 9, 13, 15):
        d = double(base_sts(n))
        # the apex of the doubling is the distinguished point
        pointed_ok = pointed_ok and bool(is_pg2_pointed(d, d.n - 1))
    two_ok = True
    for n in (7, 9):
        d = double(base_sts(n))
        dd = double(d)
        two_ok = two_ok and dd.n % 8 == 7
        # the two apexes (inner one keeps its index in the base copy)
        two_ok = two_ok and bool(is_pg3_2pointed(dd, d.n - 1, dd.n - 1))
    dt = time.monotonic() - start
    _verdict(
        2,
        pointed_ok and two_ok and dt < 30,
        f"doubles pointed at the apex, double doubles 2-pointed at both apexes "
        f"(sizes 7 mod 8), {dt:.1f}s",
    )


def test_criterion_03_paired_product():
    start = time.monotonic()
    p = direct_product(pg_sts(3), pg_sts(3))
    ok = p.n == 225 and p.n % 8 == 1 and is_pg2_paired(p)
    dt = time.monotonic() - start
    _verdict(3, ok and dt < 120, f"225-point product pair-covered, {dt:.1f}s")


_INSTANCES = [(1, 7, 3), (3, 9, 3), (7, 15, 3), (1, 9, 7), (3, 9, 7)]


def test_criterion_04_fano_classification_exhaustive():
    total = unclassified = 0
    oracle_ok = True
    for x, y, v in _INSTANCES:
        inp = _product_input(x, y, v)
        assert inp.m % 2 == 0 and inp.u_size <= 100
        u = moore(inp)
        fanos = enumerate_fano(u)
        if u.n <= 31:
            oracle_ok = oracle_ok and fanos == sorted(enumerate_fano_bruteforce(u))
        for f in fanos:
            total += 1
            try:
                classify_fano(inp, f)
            except Exception:
                unclassified += 1
    _verdict(
        4,
        unclassified == 0 and oracle_ok and total > 0,
        f"{total} subsystems over {len(_INSTANCES)} instances, "
        f"{unclassified} unclassifiable, enumeration matches the brute-force oracle",
    )


def test_criterion_05_slice_graph_bound():
    worst = 0
    checked = 0
    for x, y, v in _INSTANCES:
        inp = _product_input(x, y, v)
        for f in all_vsf(inp):
            pts = {inp.u_point(vv, a) for vv, a in f}
            for vv in range(inp.v.n):
                worst = max(worst, len(pts & yv_subsystem(inp, vv)))
                checked += 1
    _verdict(
        5,
        worst <= 1,
        f"slice/graph intersections bounded by 1 over {checked} pairs (max {worst})",
    )


def test_criterion_06_lifting():
    lift_ok = member_ok = surjects = True
    orders = []
    for x, y, v in _INSTANCES:
        inp = _product_input(x, y, v)
        u = moore(inp)
        aut_u = automorphism_group(u)
        aut_v = automorphism_group(inp.v)
        lifts = [lift_v_automorphism(inp, g) for g in aut_v.generators]
        lift_ok = lift_ok and all(is_automorphism(u, p) for p in lifts)
        member_ok = member_ok and all(p in aut_u for p in lifts)
        lifted = PermutationGroup.from_generators(u.n, lifts)
        surjects = surjects and aut_u.order == lifted.order == aut_v.order
        orders.append(aut_u.order)
    _verdict(
        6,
        lift_ok and member_ok and surjects,
        f"component symmetries lift exactly; full group orders {orders} "
        f"equal the lifted component groups on all {len(_INSTANCES)} products",
    )


def test_criterion_07_order_arithmetic():
    row1 = [delta_of(d, 0, 1, 3) % 24 for d in (1, 3, 7, 9)]
    row_k7 = {
        delta_of(d, r, 7, 3) % 24 for d in ADMISSIBLE_DELTAS for r in range(7)
    }
    rows_ok = row1 == [19, 15, 7, 3] and {1, 9, 13, 21} <= row_k7

    admissible = {x for x in range(24) if x % 6 in (1, 3)}
    cover = {x % 24 for x in residue_coverage(1, 21, 87)}
    cover |= {x % 24 for x in residue_coverage(31, 21, 87)}
    cover_ok = cover >= admissible

    v1, v2 = 21, 87
    _, K = choose_K(v1, v2)
    start = global_threshold(v1, v2, K)
    start += (1 - start) % 6
    solved = want = 0
    ident_ok = True
    for u in range(start, start + 48 * K, 2):
        if u % 6 not in (1, 3):
            continue
        want += 1
        sol = solve_order(u, v1, v2)
        ident_ok = (
            ident_ok
            and not sol.check()
            and sol.u == sol.x + sol.v_choice * (sol.y - sol.x)
        )
        solved += 1
    _verdict(
        7,
        rows_ok and cover_ok and ident_ok and solved == want == 16 * K,
        f"residue rows reproduced, coverage complete, window of {solved} "
        f"orders above threshold all solved exactly (K={K})",
    )


def test_criterion_08_gadgets():
    rigid_ok = all(automorphism_group(build_qr(n)).order == 1 for n in (1, 2, 3, 4))
    size_ok = all(build_qr(n).n == 4 * n + 10 for n in (1, 2, 3, 4))
    preserve_ok = True
    attach_size_ok = True
    for n_pts, triples in ((1, []), (2, []), (3, []), (3, [(0, 1, 2)])):
        base = PartialTripleSystem.from_triples(n_pts, triples)
        out = attach_gadgets(base)
        attach_size_ok = attach_size_ok and out.n == 4 * n_pts**2 + 10 * n_pts
        preserve_ok = preserve_ok and (
            automorphism_group(out).order == automorphism_group(base).order
        )
    _verdict(
        8,
        rigid_ok and size_ok and preserve_ok and attach_size_ok,
        "gadgets rigid for n <= 4, attachment preserves symmetry order, sizes exact",
    )


# SHA-256 of the n' = 14 switched rows as int32, as first built: each
# removed row overwritten by an added one, then every row sorted again
_GADGET_SWITCH_SHA256 = "117e01c48e126e620a7942eda34e3bf8dddca0352274f8bbdcf1d3d43bd84158"


def test_criterion_09_replacement_pipeline():
    start = time.monotonic()
    ok = True
    details = []
    cases = [
        (6, cyclic_pstss(3).system),
        (10, cyclic_pstss(5).system),
        (14, attach_gadgets(PartialTripleSystem.from_triples(1, []))),
    ]
    for n_prime, vp in cases:
        assert vp.n == n_prime
        rep = replace_triples(boolean_space(n_prime), vp)
        valid = validate_sts(rep.system).ok
        if n_prime == 14:
            digest = _update_int32(hashlib.sha256(), rep.system.triples).hexdigest()
            valid = valid and digest == _GADGET_SWITCH_SHA256
        prop = check_property_44(rep)
        rng = random.Random(n_prime)
        n = rep.system.n
        lines_ok = True
        for _ in range(1000):
            a, b = rng.sample(range(n), 2)
            want = frozenset({a, b, ((a + 1) ^ (b + 1)) - 1})
            lines_ok = lines_ok and reconstruct_line(rep, a, b) == want
        singles = frozenset((1 << j) - 1 for j in range(vp.n))
        recovered = recover_vprime(rep) == singles
        ok = ok and valid and prop and lines_ok and recovered
        details.append(f"n'={n_prime} ({rep.system.n_triples} triples)")
    dt = time.monotonic() - start
    _verdict(
        9,
        ok and dt < 300,
        "switched systems valid, pair property holds, 1000 lines reconstructed, "
        f"base points recovered exactly: {', '.join(details)}, {dt:.0f}s",
    )


def test_criterion_10_marked_subsystem_stabilizer():
    v = bose(9)
    v1 = frozenset(next(v.iter_triples()))
    w = corollary47_build(v, v1)
    aut_w = automorphism_group(w).order
    stab = sum(
        1 for g in automorphism_group(v).elements() if {g[p] for p in v1} == set(v1)
    )
    _verdict(
        10,
        aut_w == stab,
        f"marked-subsystem symmetry order {aut_w} equals the filtered stabilizer {stab}",
    )


def test_criterion_11_twisted_variant():
    from stslab import are_isomorphic

    inp = _product_input(1, 13, 3)
    assert inp.m == 12
    fixed = set(inp.labeling.a6()) | {inp.labeling.y_star}
    free = sorted(a for a in range(inp.m) if a not in fixed)
    sigma = list(range(inp.m))
    sigma[free[0]], sigma[free[1]] = sigma[free[1]], sigma[free[0]]
    plain = moore(inp)
    variant = moore_variant_sigma(inp, sigma)
    valid = validate_sts(variant).ok
    nontrivial = variant != plain
    verdict = are_isomorphic(plain, variant).isomorphic
    # the verdict is recorded, not asserted: twisting is not proven to
    # change the isomorphism class at desk scale
    _verdict(
        11,
        valid and nontrivial,
        f"twisted variant validates, differs from the plain product, "
        f"isomorphic={verdict} (recorded)",
    )
