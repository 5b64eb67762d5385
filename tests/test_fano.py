"""Seven-point projective subsystems: enumeration, shapes, recognition."""

import pytest

import stslab.fano
import stslab.system
from stslab import (
    ClassificationError,
    MooreInput,
    all_vsf,
    base_sts,
    bose,
    classify_fano,
    embed_subsystem,
    enumerate_fano,
    is_subsystem,
    moore,
    pg_sts,
    recognize_subsystem,
    yv_subsystem,
)
from stslab.fano import enumerate_fano_bruteforce


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


def test_enumerate_spans_each_seed_once(monkeypatch):
    calls = []
    real_span = stslab.system.span

    def counting_span(*args, **kwargs):
        calls.append(args)
        return real_span(*args, **kwargs)

    monkeypatch.setattr(stslab.fano, "span", counting_span)
    monkeypatch.setattr(stslab.system, "span", counting_span)
    assert len(enumerate_fano(pg_sts(3))) == 15
    # one span per intersecting triple pair: 15 points x C(7, 2) line pairs
    assert len(calls) == 15 * 21


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
        assert tuple(sorted(got.v_triple)) in inp.v.triple_set()
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
