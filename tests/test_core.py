"""Core data model: validation, closure, file I/O, and the exact engine."""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stslab import (
    FormatError,
    PartialTripleSystem,
    TripleSystem,
    VerificationError,
    are_isomorphic,
    automorphism_group,
    base_sts,
    bose,
    canonical_form,
    is_automorphism,
    is_subsystem,
    pg_sts,
    read_system,
    restrict,
    span,
    validate_pstss,
    validate_sts,
    write_system,
)
from stslab.pstss import cyclic_pstss


FANO = base_sts(7)


# ---------------------------------------------------------------------------
# validation


def test_validate_fano_ok():
    assert validate_sts(FANO).ok


def test_validate_duplicate_pair():
    ts = PartialTripleSystem.from_triples(7, [(0, 1, 2), (0, 1, 3)])
    report = validate_pstss(ts)
    assert not report.ok
    assert any("(0, 1)" in v for v in report.violations)


def test_validate_wrong_count():
    ts = TripleSystem.from_triples(7, [(0, 1, 2)])
    report = validate_sts(ts)
    assert not report.ok
    assert any("count" in v for v in report.violations)


def test_validate_inadmissible_size():
    ts = TripleSystem.from_triples(5, [])
    assert not validate_sts(ts).ok


def test_validate_degenerate_sizes():
    assert validate_sts(TripleSystem.from_triples(0, [])).ok
    assert validate_sts(TripleSystem.from_triples(1, [])).ok
    assert validate_sts(TripleSystem.from_triples(3, [(0, 1, 2)])).ok


def test_validate_pstss_examples():
    assert validate_pstss(PartialTripleSystem.from_triples(5, [])).ok
    assert validate_pstss(PartialTripleSystem.from_triples(4, [(0, 1, 2)])).ok
    c = cyclic_pstss(3)
    assert validate_pstss(c.system).ok
    degs = c.system.degrees()
    assert set(int(d) for d in degs) == {1, 2}


# ---------------------------------------------------------------------------
# closure


def test_span_singleton_and_triple():
    assert span(FANO, {3}) == frozenset({3})
    t = next(FANO.iter_triples())
    assert span(FANO, t) == frozenset(t)


def test_span_four_points_generate_pg3():
    ts = pg_sts(3)
    # masks 1, 2, 4, 8 are in general position
    seed = {0, 1, 3, 7}
    assert span(ts, seed) == frozenset(range(15))


def test_span_idempotent_monotone():
    ts = pg_sts(3)
    rng = random.Random(0)
    for _ in range(20):
        seed = set(rng.sample(range(ts.n), rng.randint(1, 5)))
        s1 = span(ts, seed)
        assert seed <= s1
        assert span(ts, s1) == s1


def test_restrict_roundtrip():
    ts = pg_sts(3)
    sub = span(ts, {0, 1, 3})
    small, old = restrict(ts, sub)
    assert small.n == len(sub)
    assert validate_sts(small).ok
    assert sorted(old) == sorted(sub)
    assert is_subsystem(ts, sub)


# ---------------------------------------------------------------------------
# file format


def test_io_roundtrip(tmp_path):
    path = tmp_path / "fano.sts"
    write_system(FANO, path)
    again = read_system(path)
    assert again == FANO


def test_io_pstss_roundtrip(tmp_path):
    ps = cyclic_pstss(4).system
    path = tmp_path / "c.pstss"
    write_system(ps, path)
    again = read_system(path)
    assert isinstance(again, PartialTripleSystem)
    assert again == ps


@pytest.mark.parametrize(
    "content,needle",
    [
        ("bad 7\n", "header"),
        ("sts x\n", "point count"),
        ("sts 7\n0 1\n", "three indices"),
        ("sts 7\n0 1 t\n", "non-integer"),
        ("sts 7\n0 1 9\n", "out of range"),
    ],
)
def test_io_errors(tmp_path, content, needle):
    path = tmp_path / "bad.sts"
    path.write_text(content)
    with pytest.raises(FormatError) as exc:
        read_system(path)
    assert needle in str(exc.value)


# ---------------------------------------------------------------------------
# engine


def test_aut_orders():
    assert automorphism_group(FANO).order == 168
    assert automorphism_group(bose(9)).order == 432


def test_aut_fano_exhaustive_oracle():
    import itertools

    count = sum(
        1 for p in itertools.permutations(range(7)) if is_automorphism(FANO, p)
    )
    assert count == 168


def test_aut_generators_pass_is_automorphism():
    for ts in (FANO, bose(9), pg_sts(3)):
        g = automorphism_group(ts)
        assert all(is_automorphism(ts, p) for p in g.generators)
        fact = 1
        for i in range(2, ts.n + 1):
            fact *= i
        assert fact % g.order == 0


def test_is_automorphism_basics():
    n = FANO.n
    assert is_automorphism(FANO, tuple(range(n)))
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    # a bare transposition does not preserve the triples
    assert not is_automorphism(FANO, tuple(swap))


def _relabel(ts, perm):
    return type(ts).from_triples(
        ts.n, [tuple(perm[p] for p in t) for t in ts.iter_triples()]
    )


def test_canonical_form_invariance():
    rng = random.Random(42)
    for ts in (FANO, bose(9), pg_sts(3)):
        base = canonical_form(ts)
        for _ in range(100):
            perm = list(range(ts.n))
            rng.shuffle(perm)
            assert canonical_form(_relabel(ts, perm)) == base


def test_two_sts13_classes_distinct():
    from stslab import skolem

    a = skolem(13)
    b = _find_other_sts13(a)
    assert canonical_form(a) != canonical_form(b)
    assert not are_isomorphic(a, b).isomorphic


def _find_other_sts13(a):
    """A representative of the second 13-point isomorphism class."""
    from stslab.constructions import random_sts

    rng = random.Random(5)
    target = canonical_form(a)
    for _ in range(200):
        cand = random_sts(13, rng)
        if canonical_form(cand) != target:
            return cand
    raise AssertionError("never found the second class")


def test_iso_certificate_verified_mapping():
    rng = random.Random(7)
    perm = list(range(9))
    rng.shuffle(perm)
    b = _relabel(bose(9), perm)
    cert = are_isomorphic(bose(9), b)
    assert cert.isomorphic
    triples_b = b.triple_set()
    for t in bose(9).iter_triples():
        assert tuple(sorted(cert.mapping[p] for p in t)) in triples_b


def test_iso_size_mismatch():
    cert = are_isomorphic(FANO, bose(9))
    assert not cert.isomorphic


def test_iso_wrong_labeling_raises_verification_error(monkeypatch):
    from stslab import search

    other = _relabel(FANO, [3, 0, 6, 1, 5, 2, 4])
    real = search._canonical_labeling

    def swap_two_labels(system, budget=None):
        result = real(system, budget)
        if system is not other:
            return result
        # no transposition is an automorphism of the Fano plane
        lab = [{0: 1, 1: 0}.get(label, label) for label in result.labeling]
        return result._replace(labeling=tuple(lab))

    monkeypatch.setattr(search, "_canonical_labeling", swap_two_labels)
    with pytest.raises(VerificationError):
        are_isomorphic(FANO, other)


def test_no_assert_statements_in_library():
    """Runtime checks raise typed errors; `python -O` strips assert."""
    src = Path(__file__).resolve().parents[1] / "src" / "stslab"
    paths = sorted(src.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert paths and not found, found


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_canonical_matches_iso_verdict(seed):
    rng = random.Random(seed)
    perm = list(range(7))
    rng.shuffle(perm)
    other = _relabel(FANO, perm)
    assert canonical_form(other) == canonical_form(FANO)
    assert are_isomorphic(FANO, other).isomorphic
