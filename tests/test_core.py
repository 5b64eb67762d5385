"""Core data model: validation, closure, file I/O, and the exact engine."""

import ast
import contextlib
import io
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stslab import (
    FormatError,
    InvalidSystemError,
    PartialTripleSystem,
    TripleSystem,
    VerificationError,
    are_isomorphic,
    automorphism_group,
    base_sts,
    boolean_space,
    bose,
    canonical_form,
    embed_subsystem,
    enumerate_fano,
    is_automorphism,
    is_subsystem,
    MooreInput,
    moore,
    pg_sts,
    read_system,
    replace_triples,
    restrict,
    span,
    validate_pstss,
    validate_sts,
    write_system,
)
import stslab.pstss
import stslab.system
from stslab.constructions import random_sts
from stslab.pstss import cyclic_pstss
from stslab.system import row_dtype
from read_reference import read_reference


FANO = base_sts(7)


def _normalize(n, triples):
    """The rows of the normal form alone."""
    return stslab.system._normal_form(n, triples)[0]


def _degrees(system):
    """The number of triples through each point."""
    return np.bincount(system.triples.ravel(), minlength=system.n)


# ---------------------------------------------------------------------------
# validation


def test_validate_fano_ok():
    assert validate_sts(FANO).ok


def test_validate_duplicate_pair():
    with pytest.raises(InvalidSystemError) as exc:
        PartialTripleSystem(4, [(0, 1, 2), (0, 1, 3)])
    assert exc.value.violations == ("pair (0, 1) covered twice",)
    assert isinstance(exc.value, ValueError)


def test_validate_wrong_count():
    with pytest.raises(InvalidSystemError) as exc:
        TripleSystem.from_triples(7, [(0, 1, 2)])
    assert exc.value.violations == ("triple count 1, expected 7",)
    assert str(exc.value) == "triple count 1, expected 7"


def test_validate_inadmissible_size():
    with pytest.raises(InvalidSystemError, match="5 points is inadmissible"):
        TripleSystem.from_triples(5, [])
    assert validate_sts(PartialTripleSystem(5, [])).violations == (
        "5 points is inadmissible (need n = 1 or 3 mod 6)",
        "triple count 0, expected 3",
    )


def test_validate_degenerate_sizes():
    assert validate_sts(TripleSystem.from_triples(0, [])).ok
    assert validate_sts(TripleSystem.from_triples(1, [])).ok
    assert validate_sts(TripleSystem.from_triples(3, [(0, 1, 2)])).ok


def test_validate_pstss_examples():
    assert validate_pstss(PartialTripleSystem.from_triples(5, [])).ok
    assert validate_pstss(PartialTripleSystem.from_triples(4, [(0, 1, 2)])).ok
    c = cyclic_pstss(3)
    assert validate_pstss(c.system).ok
    degs = _degrees(c.system)
    assert set(int(d) for d in degs) == {1, 2}


def test_valid_systems_never_run_the_diagnostics(monkeypatch):
    """Building a valid system decides it by the pair count alone, and
    validating it afterwards scans nothing; the code that names
    violations runs only when a system fails."""

    def diagnose(ts):
        raise AssertionError("diagnostics ran on a valid system")

    monkeypatch.setattr(stslab.system, "_structural_violations", diagnose)
    monkeypatch.setattr(stslab.system, "_duplicate_pair_violations", diagnose)
    ysys, xset = embed_subsystem(1, 7)
    product = moore(MooreInput.build(ysys, xset, base_sts(3)))
    replaced = replace_triples(boolean_space(10), cyclic_pstss(5).system).system
    systems = (pg_sts(3), product, replaced)
    partial = cyclic_pstss(5).system

    def rescan(*args):
        raise AssertionError("a built system was scanned again")

    monkeypatch.setattr(stslab.system, "_normal_form", rescan)
    for ts in systems:
        assert validate_sts(ts) == stslab.system.ValidationReport(True)
    assert validate_pstss(partial) == stslab.system.ValidationReport(True)


def _reference_report(n: int, triples, full: bool) -> tuple:
    """(ok, violations) with the library's messages, from Python sets over
    the normalized rows: rows with a repeated point, rows listed twice (the
    rows are in lexicographic order), and the first 20 pairs that two
    triples cover."""
    rows = [tuple(r) for r in _normalize(n, triples).tolist()]
    structural = [f"triple {r} has repeated points" for r in rows if len(set(r)) < 3][:20]
    structural += [f"triple {r} listed twice" for q, r in zip(rows, rows[1:]) if q == r][:20]
    seen, twice = set(), set()
    for a, b, c in rows:
        for pair in ((a, b), (a, c), (b, c)):
            (twice if pair in seen else seen).add(pair)
    pairs = [f"pair {pair} covered twice" for pair in sorted(twice)[:20]]
    if not full:
        violations = structural or pairs
    elif n in (0, 1):
        violations = structural + (
            [f"degenerate system on {n} points must have no triples"] if rows else []
        )
    else:
        violations = list(structural)
        if n % 6 not in (1, 3):
            violations.append(f"{n} points is inadmissible (need n = 1 or 3 mod 6)")
        if len(rows) != n * (n - 1) // 6:
            violations.append(f"triple count {len(rows)}, expected {n * (n - 1) // 6}")
        violations = violations or pairs
    return not violations, tuple(violations)


def _built(cls, n: int, rows) -> tuple:
    """(ok, violations) of building cls(n, rows)."""
    try:
        cls(n, rows)
    except InvalidSystemError as e:
        return False, e.violations
    return True, ()


def _check_against_reference(n: int, rows) -> None:
    """Building either kind of system fails exactly as the reference says,
    and validate_sts on a partial system that builds names its size faults."""
    partial = _reference_report(n, rows, False)
    assert _built(PartialTripleSystem, n, rows) == partial
    assert _built(TripleSystem, n, rows) == _reference_report(n, rows, True)
    if partial[0]:
        report = validate_sts(PartialTripleSystem(n, rows))
        assert (report.ok, report.violations) == _reference_report(n, rows, True)


def _faults(n: int, rows: list) -> dict:
    """One copy of rows per fault: a repeated point, a row listed twice,
    a pair covered twice (which also leaves a pair uncovered), a missing
    triple and an extra triple."""
    a, b, c = rows[0]
    d = next(p for p in range(n) if p not in rows[0])
    return {
        "clean": rows,
        "repeated point": [(a, a, c)] + rows[1:],
        "row twice": rows + [rows[-1]],
        "pair twice": [(a, b, d)] + rows[1:],
        "missing triple": rows[1:],
        "extra triple": rows + [(a, b, d)],
    }


_PG3 = [tuple(t) for t in pg_sts(3).triples.tolist()]
_SPARSE = [(0, 1, 2), (3, 4, 5), (0, 3, 6), (7, 8, 9), (1, 4, 7)]


@pytest.mark.parametrize(
    "n, rows",
    [
        (15, _PG3),  # 3m pair codes outweigh the n*n map: the map is counted
        (200, _SPARSE),  # the codes are lighter than the map: they are sorted
        (70_000, [(p, q, r + 69_990) for p, q, r in _SPARSE]),  # int64 codes
        (31, [tuple(t) for t in pg_sts(4).triples.tolist()][:20] + [(0, 1, 30)] * 25),  # 20 named
        (50, [(k, k + 1, k + 2) for k in range(40)]),  # 39 pairs twice: 20 named
        (20, [(k, k + 1, k + 2) for k in range(18)] + [(k, k + 2, k + 4) for k in range(16)]),
    ],
)
def test_validation_matches_set_reference(n, rows):
    for fault, faulty in _faults(n, rows).items():
        try:
            _check_against_reference(n, faulty)
        except AssertionError as e:
            raise AssertionError(fault) from e


@pytest.mark.parametrize(
    "n, rows",
    [
        (13, [tuple(t) for t in base_sts(13).triples.tolist()][1:]),  # wrong count
        (14, [(0, 1, 2)]),  # inadmissible
        (5, []),
        (0, []),
        (1, []),
        (1, [(0, 0, 0)]),
        (3, [(0, 1, 2)]),
        (3, [(0, 1, 2), (0, 1, 2)]),
        (7, [(0, 1, 2)] * 7),
    ],
)
def test_validate_sts_sizes_match_set_reference(n, rows):
    _check_against_reference(n, rows)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=13).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(*[st.integers(0, max(n - 1, 0))] * 3), max_size=30 if n else 0),
        )
    )
)
def test_validation_matches_set_reference_random(case):
    _check_against_reference(*case)


def test_triangle_index_numbers_the_pairs_in_code_order():
    for n in range(41):
        off = stslab.system._triangle_offsets(n).tolist()
        index = [off[x] + y for x in range(n) for y in range(x + 1, n)]
        assert index == list(range(n * (n - 1) // 2)), n


_B10 = boolean_space(10).triples_array()  # 174,251 rows: three scan chunks of 2**16


def _b10_fault(fault: str) -> np.ndarray:
    """The rows of boolean_space(10) with one fault put among the rows of
    the scan's last chunk."""
    rows = _B10.copy()
    n = boolean_space(10).n
    a, b, c = (int(v) for v in rows[-1])
    if fault == "repeats 0":  # (0, 0, c) sorts to the front: the first chunk stops the scan
        rows[-1] = (0, 0, c)
    elif fault == "repeats n-1":  # stays the last row
        rows[-1] = (a, n - 1, n - 1)
    else:
        # (x, a, c) covers the pair (a, c) of the last row a second time, in
        # its (b, c) column; the rows through x and a and through x and c
        # go, so no other pair is covered twice
        x = int(rows[-(1 << 14), 0])
        assert rows[2 << 16, 0] < x < a
        holds = [np.any(rows == p, axis=1) for p in (x, a, c)]
        gone = np.flatnonzero((holds[0] & holds[1]) | (holds[0] & holds[2]))
        rows = np.vstack([np.delete(rows, gone, axis=0), [(x, a, c)]])
    return rows


@pytest.mark.parametrize("fault", ["repeats 0", "repeats n-1", "pair twice"])
def test_map_scan_faults_in_the_last_chunk_match_set_reference(monkeypatch, fault):
    monkeypatch.setattr(stslab.system, "_CHUNK", 1 << 16)
    rows = _b10_fault(fault)
    n = boolean_space(10).n
    assert 3 * rows.shape[0] * 4 >= n * (n - 1) // 2  # the map side of the scan
    for cls, full in ((PartialTripleSystem, False), (TripleSystem, True)):
        ok, violations = _reference_report(n, rows, full)
        assert not ok
        with pytest.raises(InvalidSystemError) as exc:
            cls(n, rows)
        assert exc.value.violations == violations, cls.__name__


def test_scan_of_the_switched_space_stays_below_the_full_map():
    """The scan of the 8,191-point switched system holds less than the
    n*n bytes a map of every ordered pair would take."""
    system = replace_triples(boolean_space(13), cyclic_pstss(6).system).system
    tracemalloc.start()
    try:
        _, distinct = stslab.system._normal_form(system.n, system.triples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert distinct
    assert peak < system.n**2, f"{peak / 1e6:.1f} MB traced for n = {system.n}"


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


def test_restrict_to_an_open_set_raises():
    ts = pg_sts(3)
    assert not is_subsystem(ts, {0, 1, 3})
    with pytest.raises(InvalidSystemError, match="triple count 0, expected 1"):
        restrict(ts, {0, 1, 3})
    small, _ = restrict(cyclic_pstss(4).system, {0, 1, 3})  # any subset of a partial system
    assert small.n_triples == 0


@pytest.mark.parametrize("outside", [-1, 8, 99])
def test_restrict_rejects_points_out_of_range(outside):
    """A point outside 0..n-1 must not come back as a point of the
    restriction, nor wrap round to n - 1 as a gather index."""
    with pytest.raises(ValueError, match=r"0\.\.7"):
        restrict(cyclic_pstss(4).system, {0, 1, 2, outside})


@pytest.mark.parametrize("seed", [{-1, 0}, {-1}, {7}, {0, 99}])
def test_closure_rejects_seed_points_out_of_range(seed):
    """A seed point outside 0..n-1 must not wrap round to n - 1 as a
    third-point table index, nor fall off the table's end."""
    with pytest.raises(ValueError, match=r"0\.\.6"):
        span(FANO, seed)
    with pytest.raises(ValueError, match=r"0\.\.6"):
        is_subsystem(FANO, seed)


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
        ("sts 7\n0 1 +2\n", ":2: non-integer"),
        ("sts 7\n0 1 \u0662\n", ":2: non-integer"),
        ("sts 13\n0 1_2 3\n", ":2: non-integer"),
        ("sts 7\n0 1\f2\n", ":2: expected three indices"),
        ("sts 7\r0 1 2\r0 3 4\r", ":1: expected header"),
        ("sts 7\n0 1 2\r0 3 4\r", ":2: expected three indices"),
        ("pstss -3\n", "bad point count"),
        ("sts 7\n0 1 2\n0 1 3\n", "triple count 2, expected 7"),
        ("pstss 4\n0 1 2\n0 1 3\n", "pair (0, 1) covered twice"),
    ],
)
def test_io_errors(tmp_path, content, needle):
    path = tmp_path / "bad.sts"
    path.write_text(content)
    with pytest.raises(FormatError) as exc:
        read_system(path)
    assert needle in str(exc.value)


def test_a_point_count_longer_than_int_takes_is_a_format_error(tmp_path):
    path = tmp_path / "big.sts"
    path.write_text("sts " + "9" * 5000 + "\n")
    with pytest.raises(FormatError, match="bad point count"):
        read_system(path)


def test_read_system_lists_every_violation(tmp_path):
    path = tmp_path / "bad.sts"
    path.write_text("sts 6\n0 1 2\n")
    with pytest.raises(FormatError) as exc:
        read_system(path)
    with pytest.raises(InvalidSystemError) as built:
        TripleSystem(6, [(0, 1, 2)])
    violations = built.value.violations
    assert len(violations) == 2
    assert all(v in str(exc.value) for v in violations)


def test_negative_point_count_rejected():
    with pytest.raises(ValueError):
        PartialTripleSystem(-3, [])
    with pytest.raises(ValueError):
        TripleSystem.from_triples(-1, [])


# ---------------------------------------------------------------------------
# incidence


def test_incidence_built_once_per_instance():
    ts = pg_sts(3)
    inc = ts.incidence
    span(ts, {0, 1, 3})
    automorphism_group(ts)
    enumerate_fano(ts)
    assert ts.incidence is inc


def test_pair_third_returns_a_copy():
    ts = pg_sts(3)
    third = ts.pair_third()
    expected = {}
    for a, b, c in ts.iter_triples():
        expected[a, b], expected[a, c], expected[b, c] = c, b, a
    assert third == expected and list(third) == list(expected)
    third[(0, 1)] = 7
    third.pop((0, 2))
    assert span(ts, {0, 1}) == frozenset({0, 1, 2})
    assert span(ts, {0, 2}) == frozenset({0, 1, 2})


@pytest.mark.parametrize(
    "system",
    [
        FANO,
        cyclic_pstss(4).system,
        PartialTripleSystem(5, []),
        random_sts(15, random.Random(3)),
    ],
    ids=["fano", "cyclic4", "empty5", "random15"],
)
def test_incidence_agrees_with_rows(system):
    inc = system.incidence
    rows = [tuple(int(x) for x in row) for row in system.triples]
    third = inc.third
    assert len(third) == system.n and all(len(row) == system.n for row in third)
    covered = set()
    for a, b, c in rows:
        assert (third[a][b], third[a][c], third[b][c]) == (c, b, a)
        assert (third[b][a], third[c][a], third[c][b]) == (c, b, a)
        covered |= {(a, b), (b, a), (a, c), (c, a), (b, c), (c, b)}
    for p in range(system.n):
        for q in range(system.n):
            if (p, q) not in covered:
                assert third[p][q] == -1  # the diagonal and every uncovered pair
    assert sum(x >= 0 for row in third for x in row) == 6 * system.n_triples
    assert [len(spokes) for spokes in inc.spoke_lists()] == list(_degrees(system))
    for p, spokes in enumerate(inc.spoke_lists()):
        for q, r in spokes:
            assert q < r and third[p][q] == third[q][p] == r


def _python_incidence(system) -> tuple:
    """The third-point table and the spokes of each point as Python lists,
    built by the loop over the rows that the arrays replaced."""
    third = [[-1] * system.n for _ in range(system.n)]
    pairs = [[] for _ in range(system.n)]
    for a, b, c in system.triples.tolist():
        third[a][b] = third[b][a] = c
        third[a][c] = third[c][a] = b
        third[b][c] = third[c][b] = a
        pairs[a].append([b, c])
        pairs[b].append([a, c])
        pairs[c].append([a, b])
    return third, pairs


@pytest.mark.parametrize(
    "system",
    [
        FANO,
        cyclic_pstss(4).system,
        PartialTripleSystem(5, []),
        random_sts(15, random.Random(3)),
        moore(MooreInput.build(*embed_subsystem(3, 9), base_sts(7))),
        PartialTripleSystem(9, [(0, 4, 8), (1, 2, 3), (2, 5, 7)]),
    ],
    ids=["fano", "cyclic4", "empty5", "random15", "moore_3_9_7", "sparse9"],
)
def test_incidence_arrays_match_python_builder(system):
    inc = system.incidence
    third, pairs = _python_incidence(system)
    assert inc.third.dtype == np.int32 and inc.spokes.dtype == np.int32
    assert inc.third.tolist() == third
    assert inc.spoke_lists() == pairs
    for arr in inc:
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        inc.third[0, 0] = 1
    with pytest.raises(ValueError):
        inc.third.reshape(-1)[0] = 1  # a view of a read-only array is read-only too


def test_array_path_never_builds_incidence(tmp_path):
    rep = replace_triples(boolean_space(6), cyclic_pstss(3).system)
    assert validate_sts(rep.system).ok
    path = tmp_path / "rep.sts"
    write_system(rep.system, path)
    again = read_system(path)
    assert again == rep.system
    assert "incidence" not in vars(rep.system)
    assert "incidence" not in vars(again)


# ---------------------------------------------------------------------------
# array path: normalization, writer and reader against the code they replaced


def _lexsort_normalize(n, triples):
    """The int64 lexsort normalization the packed-key one replaced."""
    if n < 0:
        raise ValueError(f"point count {n} is negative")
    arr = np.asarray(triples, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("triples must be an (m, 3) array")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise ValueError("triple entry out of range 0..n-1")
    arr = np.sort(arr, axis=1)
    order = np.lexsort((arr[:, 2], arr[:, 1], arr[:, 0]))
    return np.ascontiguousarray(arr[order], dtype=np.int32)


def _update_int32(digest, rows):
    """Feed digest the rows' bytes as int32 a chunk at a time, so a digest
    recorded from int32 rows pins rows of any dtype."""
    for lo in range(0, rows.shape[0], 1 << 17):
        digest.update(rows[lo : lo + (1 << 17)].astype(np.int32).tobytes())
    return digest


# from 2,097,152 points on n^3 overflows int64, so rows are ordered by (a*n + b, c)
_NORMALIZE_SIZES = [0, 1, 2, 3, 7, 10, 50, 2_097_151, 2_097_152, 3_000_000]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_normalize_matches_lexsort_oracle(data):
    n = data.draw(st.sampled_from(_NORMALIZE_SIZES))
    point = st.integers(0, n - 1) if n else st.nothing()
    if n and data.draw(st.booleans()):  # points near n, where keys are largest
        point = st.integers(max(0, n - 4), n - 1) | point
    rows = data.draw(st.lists(st.tuples(point, point, point), max_size=40 if n else 0))
    rows += data.draw(st.lists(st.sampled_from(rows), max_size=5)) if rows else []
    shape = data.draw(st.sampled_from(["as drawn", "rows sorted", "normalized", "reversed"]))
    if shape != "as drawn":
        rows = [tuple(sorted(t)) for t in rows]
    if shape == "normalized":
        rows.sort()
    elif shape == "reversed":
        rows.sort(reverse=True)
    kinds = ["list", "int32", "int64"] + (["uint16"] if n <= 65536 else [])
    kind = data.draw(st.sampled_from(kinds))
    given_rows = rows if kind == "list" else np.array(rows, dtype=kind).reshape(-1, 3)
    got = _normalize(n, given_rows)
    want = _lexsort_normalize(n, rows)
    assert got.dtype == (np.uint16 if n <= 65536 else np.int32) and got.shape == want.shape
    assert np.array_equal(got, want)
    assert not got.flags.writeable
    if isinstance(given_rows, np.ndarray):
        assert not np.shares_memory(got, given_rows)


@pytest.mark.parametrize(
    "n,triples",
    [(7, [(0, 1, 7)]), (7, [(0, -1, 2)]), (0, [(0, 0, 0)]), (7, [(0, 1)]), (7, [[[0, 1, 2]]])],
)
def test_normalize_rejects_like_lexsort_oracle(n, triples):
    with pytest.raises(ValueError) as want:
        _lexsort_normalize(n, triples)
    with pytest.raises(ValueError) as got:
        _normalize(n, triples)
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError):
        _normalize(n, np.array(triples, dtype=np.int32))


def test_normalize_of_sorted_rows_allocates_one_copy_of_the_array():
    """A writable sorted array is copied once; the order checks add only
    bounded scratch space on top."""
    rng = np.random.default_rng(0)
    rows = np.sort(rng.integers(0, 300, size=(1_000_000, 3)), axis=1)
    rows = _lexsort_normalize(300, rows).astype(row_dtype(300))
    tracemalloc.start()
    try:
        got = _normalize(300, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not np.shares_memory(got, rows)
    assert peak <= 1.25 * rows.nbytes, f"{peak / 1e6:.1f} MB for a {rows.nbytes / 1e6:.0f} MB array"


def test_normalize_finds_a_descent_at_every_chunk_boundary(monkeypatch):
    monkeypatch.setattr(stslab.system, "_CHUNK", 4)
    rows = _lexsort_normalize(50, np.random.default_rng(3).integers(0, 50, size=(13, 3)))
    for i in range(rows.shape[0] - 1):
        swapped = rows.copy()
        swapped[[i, i + 1]] = swapped[[i + 1, i]]
        assert np.array_equal(_normalize(50, swapped), rows), i
        backwards = swapped[:, ::-1].copy()  # rows out of order inside too
        assert np.array_equal(_normalize(50, backwards), rows), i


def test_normalize_adopts_a_read_only_array_that_owns_its_data():
    rows = _lexsort_normalize(300, np.random.default_rng(1).integers(0, 300, size=(1000, 3)))
    rows = rows.astype(row_dtype(300))
    rows.setflags(write=False)
    got = _normalize(300, rows)
    assert got is rows and not got.flags.writeable
    assert TripleSystem(7, FANO.triples).triples is FANO.triples


def test_normalize_copies_what_it_cannot_adopt():
    rows = _lexsort_normalize(300, np.random.default_rng(2).integers(0, 300, size=(1000, 3)))
    rows = rows.astype(row_dtype(300))
    view = rows[:]  # read-only, but its owner can still write the rows
    view.setflags(write=False)
    unsorted = rows[::-1].copy()
    unsorted.setflags(write=False)
    for given_rows in (view, unsorted):
        got = _normalize(300, given_rows)
        assert np.array_equal(got, rows) and not got.flags.writeable
        assert not np.shares_memory(got, given_rows)


@pytest.mark.parametrize("chunk", [1, 2, 4])
def test_one_pass_at_chunk_edges_matches_the_oracles(monkeypatch, chunk):
    """Each fault in the one pass over the rows, at every chunk edge: the
    range check reads the columns' min and max, not the chunk's first
    entry, and a chunk's faults are found after an earlier chunk's."""
    monkeypatch.setattr(stslab.system, "_CHUNK", chunk)
    n, rows = 9, [tuple(t) for t in base_sts(9).triples.tolist()]  # 12 rows
    assert 3 * len(rows) * 4 >= n * (n - 1) // 2  # the map side of the pass
    a, b, c = rows[-1]
    refused = {
        "negative entry, not first, in a disordered chunk": (10, [(5, 6, 7), (-1, 2, 3)]),
        "entry n in the last chunk": (n, rows[:-2] + [(0, 1, n), rows[-1]]),
    }
    for name, (size, case) in refused.items():
        with pytest.raises(ValueError) as want:
            _lexsort_normalize(size, case)
        for cls in (PartialTripleSystem, TripleSystem):
            with pytest.raises(ValueError) as got:
                cls(size, np.array(case, dtype=np.int32))
            assert str(got.value) == str(want.value), name
    built = {
        "unsorted row in the last chunk": rows[:-1] + [(c, b, a)],
        "repeated point after a disordered chunk": [rows[1], rows[0], *rows[2:-1], (a, a, c)],
    }
    for name, case in built.items():
        given = np.array(case, dtype=np.int32)
        assert np.array_equal(_normalize(n, given), _lexsort_normalize(n, case)), name
        _check_against_reference(n, given)


@pytest.mark.parametrize("n", [0, 1, 7, 65535, 65536, 65537, 100_002, 3_000_000])
def test_rows_are_uint16_exactly_up_to_65536_points(n):
    want = np.uint16 if n <= 65536 else np.int32
    assert row_dtype(n) == want
    rows = [(0, 1, n - 1)] if n >= 3 else []
    for given_rows in (rows, np.array(rows, dtype=np.int64).reshape(-1, 3)):
        assert PartialTripleSystem(n, given_rows).triples.dtype == want


@pytest.mark.parametrize("n", [65536, 65537])
def test_systems_at_the_uint16_edge_round_trip(tmp_path, n):
    """Point n - 1 = 65,535 is the largest uint16 index, and 65,536 the
    first that needs int32.  3m >= n, so the writer takes the token path,
    whose cells index 2p + 1 for each point p."""
    triples = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(21845)] + [(0, 3, n - 1)]
    ts = PartialTripleSystem(n, triples)
    assert ts.triples.dtype == row_dtype(n) and int(ts.triples.max()) == n - 1
    assert ts.triples.tolist() == sorted(map(list, triples))
    write_system(ts, tmp_path / "new.sts")
    _fstring_write(ts, tmp_path / "old.sts")
    assert (tmp_path / "new.sts").read_bytes() == (tmp_path / "old.sts").read_bytes()
    back = read_system(tmp_path / "new.sts")
    assert back == ts and hash(back) == hash(ts) and back.triples.dtype == ts.triples.dtype
    again = PartialTripleSystem(n, np.array(triples, dtype=np.int64))
    assert again == ts and hash(again) == hash(ts)
    whole, old_of_new = restrict(ts, range(n))
    assert whole == ts and hash(whole) == hash(ts) and old_of_new == list(range(n))
    edge, old_of_new = restrict(ts, (0, 3, n - 2, n - 1))
    assert edge == PartialTripleSystem(4, [(0, 1, 3)]) and old_of_new == [0, 3, n - 2, n - 1]
    assert ts != PartialTripleSystem(n + 1, triples)


@pytest.mark.parametrize("entry", [65536, 99999, 131072])
def test_read_refuses_entries_past_the_uint16_points(tmp_path, entry):
    """The parser sums digits in int32: 99,999 would wrap to 34,463 in uint16."""
    path = tmp_path / "edge.pstss"
    path.write_text(f"pstss 65536\n0 1 {entry}\n")
    with pytest.raises(FormatError, match="out of range"):
        read_system(path)


def test_entries_above_the_int32_range_are_refused(tmp_path):
    """A point at or above 2**31 would wrap to a negative int32."""
    n = 3_000_000_000
    with pytest.raises(ValueError, match="int32"):
        PartialTripleSystem(n, [(0, 1, 2_500_000_000)])
    assert PartialTripleSystem(n, [(0, 2**31 - 1, 1)]).triples.tolist() == [[0, 1, 2**31 - 1]]
    path = tmp_path / "wide.pstss"
    path.write_text(f"pstss {n}\n0 1 2500000000\n")
    with pytest.raises(FormatError, match="out of range"):
        read_system(path)


def _fstring_write(ts, path):
    """The per-row f-string writer the digit-table writer replaced."""
    kind = "sts" if isinstance(ts, TripleSystem) else "pstss"
    with open(path, "w") as fh:
        fh.write(f"{kind} {ts.n}\n")
        for a, b, c in ts.iter_triples():
            fh.write(f"{a} {b} {c}\n")


@pytest.mark.parametrize(
    "system",
    [
        FANO,
        cyclic_pstss(4).system,
        PartialTripleSystem(0, []),
        PartialTripleSystem(1, []),
        PartialTripleSystem(10, [(0, 1, 9), (2, 8, 9), (3, 4, 5)]),
        PartialTripleSystem(11, [(0, 9, 10), (1, 2, 3), (4, 9, 8)]),
        PartialTripleSystem(100, [(0, 9, 99), (10, 11, 98), (1, 2, 3)]),
        PartialTripleSystem(101, [(9, 10, 100), (0, 99, 98), (1, 2, 3)]),
        base_sts(13),
        # the digit table with 6-digit points: 0..100,001 is 3m entries
        PartialTripleSystem(100_002, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(33_334)]),
    ],
    ids=lambda s: f"{type(s).__name__}-{s.n}-{s.n_triples}",
)
@pytest.mark.parametrize("chunk_rows", [1, 2, 1 << 18])
def test_write_matches_fstring_oracle(tmp_path, monkeypatch, system, chunk_rows):
    monkeypatch.setattr(stslab.system, "_WRITE_ROWS", chunk_rows)
    write_system(system, tmp_path / "new.sts")
    _fstring_write(system, tmp_path / "old.sts")
    assert (tmp_path / "new.sts").read_bytes() == (tmp_path / "old.sts").read_bytes()
    assert read_system(tmp_path / "new.sts") == system


def _read_peak_and_rows(path, system) -> tuple:
    """The traced peak of reading path, which must hold system, and the
    bytes of system's rows."""
    tracemalloc.start()
    try:
        got = read_system(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == system
    return peak, system.triples.nbytes


def test_read_holds_the_rows_once(tmp_path):
    """Reading a 2.8M-row file holds one copy of its rows, with less than
    a second copy's worth of scratch on top, and none of its bytes: the
    numpy parser reads the file a step at a time."""
    space = boolean_space(12)
    system = TripleSystem(space.n, space.triples_array())
    path = tmp_path / "b12.sts"
    write_system(system, path)
    peak, rows = _read_peak_and_rows(path, system)
    assert peak < 2 * rows, (
        f"{peak / 1e6:.1f} MB for {path.stat().st_size / 1e6:.1f} MB of file, "
        f"{rows / 1e6:.1f} MB of rows"
    )


def test_read_of_a_small_file_holds_no_full_block(tmp_path):
    """A file smaller than a block is read in one block of its own size,
    not in buffers of _READ_BYTES."""
    system = base_sts(31)
    path = tmp_path / "s31.sts"
    write_system(system, path)
    peak, _ = _read_peak_and_rows(path, system)
    assert peak < stslab.system._READ_BYTES / 10, f"{peak} bytes for {path.stat().st_size} of file"


def test_read_by_lines_holds_the_rows_once(tmp_path):
    """The same bound for the same file with \\r\\n line ends, whose
    steps check the bytes between their tokens apart from those of plain
    "a b c\\n" lines.  The steps' scratch does not shrink with the file,
    so the file is as large as the plain one."""
    space = boolean_space(12)
    system = TripleSystem(space.n, space.triples_array())
    path = tmp_path / "b12.sts"
    write_system(system, path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    peak, rows = _read_peak_and_rows(path, system)
    assert peak < 2 * rows, (
        f"{peak / 1e6:.2f} MB for {path.stat().st_size / 1e6:.2f} MB of file, "
        f"{rows / 1e6:.2f} MB of rows"
    )


def test_read_without_a_final_newline_copies_one_chunk(tmp_path):
    """A file whose last line has no newline reads within the traced peak
    of the same file with one, plus one chunk: only the last chunk is
    copied to end it, not the whole file."""
    space = boolean_space(11)
    system = TripleSystem(space.n, space.triples_array())
    ended = tmp_path / "ended.sts"
    write_system(system, ended)
    bare = tmp_path / "bare.sts"
    bare.write_bytes(ended.read_bytes()[:-1])
    peaks = []
    for path in (ended, bare):
        tracemalloc.start()
        try:
            got = read_system(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert got == system
    size = ended.stat().st_size
    assert peaks[1] <= peaks[0] + stslab.system._READ_BYTES, (
        f"{peaks[1] / 1e6:.1f} MB without the newline, {peaks[0] / 1e6:.1f} MB with it, "
        f"for {size / 1e6:.1f} MB of file"
    )


def test_read_lets_go_of_the_file_before_building(tmp_path, monkeypatch):
    """When the system is built, the file's bytes are no longer held: the
    memory traced then is the parsed rows, not the file on top of them."""
    space = boolean_space(10)
    system = TripleSystem(space.n, space.triples_array())
    path = tmp_path / "b10.sts"
    write_system(system, path)
    held = []
    post_init = stslab.system._SystemBase.__post_init__

    def traced_post_init(self):
        held.append(tracemalloc.get_traced_memory()[0])
        post_init(self)

    monkeypatch.setattr(stslab.system._SystemBase, "__post_init__", traced_post_init)
    tracemalloc.start()
    try:
        got = read_system(path)
    finally:
        tracemalloc.stop()
    assert got == system
    size, rows = path.stat().st_size, system.triples.nbytes
    assert held[0] < rows + size / 2, (
        f"{held[0] / 1e6:.2f} MB held for {size / 1e6:.2f} MB of file, {rows / 1e6:.2f} MB of rows"
    )


def _read_outcome(path, read_bytes=None, reader=read_system):
    """The reader's system or FormatError text; read_bytes sets _READ_BYTES."""
    with contextlib.ExitStack() as stack:
        if read_bytes is not None:
            stack.enter_context(mock.patch.object(stslab.system, "_READ_BYTES", read_bytes))
        try:
            return reader(path)
        except FormatError as exc:
            return f"FormatError: {exc}"


_HEADERS = [b"sts 7\n", b"pstss 12\n", b"sts 0\n", b"pstss 1\n", b"sts 13\r\n", b"bad\n", b"sts x\n", b"",
            b"pstss 3000000000\n", b"sts 3000000000\n"]
_TOKEN = st.sampled_from([b"0", b"1", b"2", b"3", b"4", b"5", b"6", b"7", b"9", b"11", b"12", b"007",
                          b"", b"+1", b"-0", b"2500000000", b"99999999999999999999", b"\xd9\xa3", b"x",
                          b"1_2"])
_SEP = st.sampled_from([b" "] * 8 + [b"  ", b"\t", b"", b"\x0c", b"\x0b", b"\xc2\xa0"])
_END = st.sampled_from([b"\n"] * 8 + [b"\r\n", b"\r", b" \n", b"\n\n", b""])
# mostly lines of three tokens, so most bodies parse or fail late
_BODY_BYTES = (
    st.lists(st.tuples(_TOKEN, _SEP, _TOKEN, _SEP, _TOKEN, _END).map(b"".join), max_size=12)
    .map(b"".join)
    | st.binary(max_size=120)
    | st.lists(
        st.sampled_from([b"0", b"1", b"2", b"3", b"5", b"9", b"11", b" ", b"  ", b"\n", b"\t",
                         b"\r", b"\r\n", b"+", b"-", b"x", b"\xff", b"\xc3\xa9", b"\x00", b"\x0c"]),
        max_size=60,
    ).map(b"".join)
)


@settings(max_examples=500, deadline=None)
@given(header=st.sampled_from(_HEADERS), body=_BODY_BYTES, read_bytes=st.sampled_from([None, 1, 7]))
def test_read_fuzz_raises_only_format_error(tmp_path_factory, header, body, read_bytes):
    path = tmp_path_factory.mktemp("fuzz") / "f.sts"
    path.write_bytes(header + body)
    got = _read_outcome(path, read_bytes=read_bytes)  # any other exception fails the test
    assert got == _read_outcome(path, reader=read_reference)


def _render(system, data):
    """The system's file with drawn whitespace: separators, blank lines, line ends."""
    kind = "sts" if isinstance(system, TripleSystem) else "pstss"
    sep = st.sampled_from([" ", " ", "  ", "\t", " \t"])
    end = st.sampled_from(["\n", "\n", "\r\n", " \n", "\t\n", "\n\n"])
    lines = [f"{kind} {system.n}" + data.draw(end)]
    for row in data.draw(st.permutations(system.triples.tolist())):
        lead = data.draw(st.sampled_from(["", "", " ", "\t"]))
        row = data.draw(st.permutations(row))
        lines.append(lead + data.draw(sep).join(map(str, row)) + data.draw(end))
    text = "".join(lines)
    return text.rstrip("\r\n") if data.draw(st.booleans()) else text


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_read_whitespace_variants_agree(tmp_path_factory, data):
    system = data.draw(st.sampled_from([FANO, bose(9), cyclic_pstss(4).system]))
    path = tmp_path_factory.mktemp("ws") / "f.sts"
    path.write_bytes(_render(system, data).encode())
    assert _read_outcome(path) == system
    assert _read_outcome(path, reader=read_reference) == system
    assert _read_outcome(path, read_bytes=data.draw(st.sampled_from([1, 5, 64]))) == system


# ---------------------------------------------------------------------------
# the two workers of the array passes


def _started_threads(monkeypatch) -> list:
    """The names of the threads started from now on, in a list that grows."""
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def _budgets(monkeypatch, budget):
    for name in ("_CHUNK", "_READ_BYTES", "_WRITE_ROWS"):
        monkeypatch.setattr(stslab.system, name, budget)


def _pass_results(tmp_path, name):
    """Every output of the four two-worker passes (and of the key build and
    unpack of an unsorted input) on a few inputs, valid and not."""
    rows = base_sts(31).triples  # 155 rows
    rng = np.random.default_rng(5)
    unsorted = rng.permutation(rows.astype(np.int32))[:, ::-1]
    twice = np.vstack([rows[:80], rows[79:]])  # a pair covered twice, mid-array
    repeated = rows.astype(np.int32)
    repeated[120] = (4, 4, 9)
    sparse = PartialTripleSystem(500, [(3 * i, 3 * i + 1, 499 - i) for i in range(40)])
    out = {}
    for label, given_rows in (("sorted", rows), ("unsorted", unsorted), ("twice", twice),
                              ("repeated", repeated)):
        arr = np.ascontiguousarray(given_rows, dtype=row_dtype(31))
        out[label, "scan"] = stslab.system._scan_rows(arr, 31)
        out[label, "rows"] = _normalize(31, given_rows).tolist()
    for system in (base_sts(31), sparse):
        path = tmp_path / f"{name}-{system.n}.sts"
        digest = write_system(system, path)
        out[system.n, "written"] = path.read_bytes(), digest
        out[system.n, "read"] = read_system(path)
    rep = replace_triples(boolean_space(6), cyclic_pstss(3).system)
    out["nonspace"] = stslab.pstss.nonspace_triples(rep)
    return out


@pytest.mark.parametrize("budget", [1, 2, 3, 64])
def test_two_worker_passes_match_one_step(tmp_path, monkeypatch, budget):
    """With budgets so small that each pass takes many steps on two
    workers, every result equals the one-step result, also when the
    interpreter switches threads as often as it can."""
    want = _pass_results(tmp_path, "one")
    assert want[31, "written"][0].count(b"\n") == 156  # one step each: 155 rows < 2**16
    _budgets(monkeypatch, budget)
    monkeypatch.setattr(stslab.system, "_cpus", lambda: 2)
    started = _started_threads(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _pass_results(tmp_path, "two") == want
    finally:
        sys.setswitchinterval(interval)
    assert started  # the passes ran on two workers


def test_steps_raise_the_first_error_in_step_order():
    """Whichever worker meets an error first, the one raised is that of
    the first failing step, and no thread outlives the call."""
    for bad in ((3, 4), (4, 3), (2, 6), (1, 5), (5, 6)):

        def step(i, s):
            if i in bad:
                raise ValueError(i)
            return i

        before = threading.active_count()
        with pytest.raises(ValueError) as exc:
            list(stslab.system._steps(range(8), step, lambda: None))
        assert exc.value.args == (min(bad),), bad
        assert threading.active_count() == before


def test_two_worker_scan_raises_on_an_entry_past_n(monkeypatch):
    monkeypatch.setattr(stslab.system, "_CHUNK", 4)  # steps of 2 rows
    monkeypatch.setattr(stslab.system, "_cpus", lambda: 2)
    rows = base_sts(31).triples.copy()  # the row dtype: only the scan checks the range
    rows[[7, 103]] = (0, 1, 31)  # steps 3 and 51, both the helper's
    before = threading.active_count()
    for cls in (PartialTripleSystem, TripleSystem):
        with pytest.raises(ValueError, match="out of range"):
            cls(31, rows)
    assert threading.active_count() == before


def test_two_worker_parse_falls_back_to_the_first_bad_line(tmp_path, monkeypatch):
    """Two bad lines in different steps, each parsed by either worker: the
    first is named, as it is with one step."""
    lines = [" ".join(map(str, row)) for row in base_sts(31).triples.tolist()]
    lines[30] = "0 1 x"
    lines[140] = "0 1"
    path = tmp_path / "bad.sts"
    path.write_text("sts 31\n" + "\n".join(lines) + "\n")
    want = _read_outcome(path)
    assert want == f"FormatError: {path}:32: non-integer index"
    monkeypatch.setattr(stslab.system, "_cpus", lambda: 2)
    before = threading.active_count()
    for read_bytes in (1, 40, 512):
        assert _read_outcome(path, read_bytes=read_bytes) == want, read_bytes
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [2, 1])
@pytest.mark.parametrize("bad", [None, 3, 6])
def test_steps_draw_the_next_two_inputs_after_both_steps_before(monkeypatch, cpus, bad):
    """Inputs i + 2 and i + 3 are drawn only once steps i and i + 1 have
    returned and their results were taken, so an input may reuse what the
    input two before it held.  Results come in order, and the failing
    step's error is raised."""
    monkeypatch.setattr(stslab.system, "_cpus", lambda: cpus)
    events, threads, taken = [], set(), []  # list.append is atomic: the helper records too

    def inputs():
        for i in range(9):
            events.append(("drawn", i))
            yield i

    def step(i, s):
        events.append(("returned", i))
        threads.add(threading.current_thread().name)
        if i == bad:
            raise ValueError(i)
        return i

    def consume():
        for x in stslab.system._steps(inputs(), step, lambda: None):
            events.append(("taken", x))
            taken.append(x)

    if bad is None:
        consume()
    else:
        with pytest.raises(ValueError) as exc:
            consume()
        assert exc.value.args == (bad,)
    assert taken == list(range(9 if bad is None else bad))
    drawn = [i for kind, i in events if kind == "drawn"]
    assert drawn == list(range(len(drawn))) and len(drawn) <= (9 if bad is None else bad + 2)
    for i in range(0, len(drawn) - 2, 2):
        before = set(events[: events.index(("drawn", i + 2))])
        assert {("returned", i), ("returned", i + 1), ("taken", i), ("taken", i + 1)} <= before
    assert (len(threads) == 2) == (cpus == 2), threads


@pytest.mark.parametrize("change", ["truncated", "overwritten"])
def test_read_of_a_file_changed_while_it_is_read(tmp_path, monkeypatch, change):
    """A file cut short, or with a byte changed, once its first block has
    been drawn: the one pass parses the bytes the handle gives, buffered
    before the change or read after it, so the read returns a system or
    raises FormatError, and leaves no thread running."""
    space = boolean_space(7)  # 25 KB of lines: more than one handle buffer
    system = TripleSystem(space.n, space.triples_array())
    path = tmp_path / "changed.sts"
    write_system(system, path)
    size = path.stat().st_size
    blocks = stslab.system._blocks

    def changing_blocks(*args):
        drawn = blocks(*args)
        yield next(drawn)
        if change == "truncated":
            os.truncate(path, size // 2)
        else:
            with open(path, "r+b") as fh:  # in place: the open handle sees it
                fh.seek(size - 2)  # the last digit of the last line
                fh.write(b"x")
        yield from drawn

    monkeypatch.setattr(stslab.system, "_READ_BYTES", 512)
    monkeypatch.setattr(stslab.system, "_cpus", lambda: 2)
    monkeypatch.setattr(stslab.system, "_blocks", changing_blocks)
    before = threading.active_count()
    got = _read_outcome(path)
    assert threading.active_count() == before
    assert got == system or isinstance(got, str) and got.startswith(f"FormatError: {path}:"), got


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_from_a_pipe(tmp_path):
    """A file that cannot seek is read once, and its bytes parsed in steps."""
    path, pipe = tmp_path / "fano.sts", tmp_path / "pipe"
    write_system(FANO, path)
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()), daemon=True)
    writer.start()
    got = read_system(pipe)
    writer.join(timeout=10)
    assert not writer.is_alive() and got == FANO


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_from_a_pipe_holds_the_rows_once(tmp_path):
    """A pipe streams as a file does: the 2.8M-row file read through a
    FIFO stays under the bound of test_read_holds_the_rows_once, though
    its rows cannot be sized from its length."""
    space = boolean_space(12)
    system = TripleSystem(space.n, space.triples_array())
    path, pipe = tmp_path / "b12.sts", tmp_path / "pipe"
    write_system(system, path)
    data = path.read_bytes()  # read before tracing starts: these are the writer's bytes
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(data), daemon=True)
    writer.start()
    peak, rows = _read_peak_and_rows(pipe, system)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert peak < 2 * rows, (
        f"{peak / 1e6:.1f} MB for {len(data) / 1e6:.1f} MB of pipe, {rows / 1e6:.1f} MB of rows"
    )


def test_two_worker_write_that_fails_joins_its_helper(tmp_path, monkeypatch):
    class Full(io.BytesIO):
        def write(self, data):
            if self.tell() > 100:
                raise OSError(28, "No space left on device")
            return super().write(data)

    monkeypatch.setattr(stslab.system, "_WRITE_ROWS", 8)
    monkeypatch.setattr(stslab.system, "_cpus", lambda: 2)
    monkeypatch.setattr(stslab.system, "open", lambda path, mode: Full(), raising=False)
    before = threading.active_count()
    with pytest.raises(OSError, match="No space"):
        write_system(base_sts(31), tmp_path / "full.sts")
    assert threading.active_count() == before


def test_one_allowed_cpu_starts_no_thread(tmp_path, monkeypatch):
    _budgets(monkeypatch, 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert stslab.system._cpus() == 1
    started = _started_threads(monkeypatch)
    _pass_results(tmp_path, "one-cpu")
    assert started == []


def test_importing_stslab_loads_no_executor():
    code = "import sys, stslab; assert 'concurrent.futures' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr


def test_sorting_unsorted_rows_holds_the_keys_and_one_copy():
    """Sorting an unsorted int32 array holds its uint16 cast and the int64
    keys while it builds them, then the keys and the sorted rows: the cast
    is let go before the keys are sorted, and the keys are unpacked in
    place, with no temporary as large as the keys."""
    space = boolean_space(11)
    rows = np.random.default_rng(7).permutation(space.triples_array().astype(np.int32))[:, ::-1]
    m = rows.shape[0]
    tracemalloc.start()
    try:
        got = TripleSystem(space.n, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.triples.dtype == np.uint16 and not np.shares_memory(got.triples, rows)
    bound = (6 + 8) * m + 16 * stslab.system._CHUNK  # 11.9 MB
    assert peak < bound, f"{peak / 1e6:.1f} MB for {m} rows"


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
    # the wrong length, and a map that is no permutation, are refused
    assert not is_automorphism(FANO, tuple(range(n + 1)))
    assert not is_automorphism(FANO, (0,) * n)
    group = automorphism_group(FANO)
    assert tuple(range(n)) in group and tuple(range(n + 1)) not in group


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
    triples_b = set(b.iter_triples())
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


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def _library_sites(match, skip=()) -> list:
    """The file:line of each AST node that match accepts, over the
    modules of src/stslab not named in skip."""
    src = Path(__file__).resolve().parents[1] / "src" / "stslab"
    paths = sorted(p for p in src.glob("*.py") if p.name not in skip)
    assert paths
    return [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if match(node)
    ]


def _calls(node, names) -> bool:
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", getattr(node.func, "attr", None)) in names
    )


def test_no_assert_statements_in_library():
    """Runtime checks raise typed errors, not assert (which `python -O`
    strips) or a bare AssertionError."""
    found = _library_sites(
        lambda node: isinstance(node, ast.Assert) or _raises_assertion_error(node)
    )
    assert not found, found


def test_only_the_system_module_validates():
    """A system is valid because it was built, so no other library module
    calls a validate function."""
    found = _library_sites(
        lambda node: _calls(node, ("validate_sts", "validate_pstss")), skip=("system.py",)
    )
    assert not found, found


def _library_functions(match, skip=()) -> set:
    """module:function for each function of src/stslab, outside the
    modules named in skip, whose body holds a node that match accepts."""
    src = Path(__file__).resolve().parents[1] / "src" / "stslab"
    paths = sorted(p for p in src.glob("*.py") if p.name not in skip)
    assert paths
    return {
        f"{path.name}:{fn.name}"
        for path in paths
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, ast.FunctionDef) and any(match(node) for node in ast.walk(fn))
    }


def _is_minus_one(node) -> bool:
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and getattr(node.operand, "value", None) == 1
    )


def _builds_third_table(node) -> bool:
    """A table of -1 per uncovered pair (np.full(..., -1) or a list
    comprehension of [-1] * k rows), or an array converted from a table
    read off .third."""
    if _calls(node, ("full",)) and len(node.args) > 1 and _is_minus_one(node.args[1]):
        return True
    if isinstance(node, ast.ListComp):
        row = node.elt
        return (
            isinstance(row, ast.BinOp)
            and isinstance(row.op, ast.Mult)
            and isinstance(row.left, ast.List)
            and any(_is_minus_one(x) for x in row.left.elts)
        )
    return _calls(node, ("array", "asarray", "ascontiguousarray", "tuple", "list")) and any(
        isinstance(sub, ast.Attribute) and sub.attr == "third"
        for arg in node.args
        for sub in ast.walk(arg)
    )


def test_only_the_system_module_builds_the_incidence():
    """Every closure, plane, predicate and search step reads the one
    read-only incidence of `system.py`, so no other library module builds
    or converts a third-point table.  The one exception is `random_sts`,
    whose table is the hill climber's own state: it changes at every step,
    before any system exists."""
    found = _library_functions(_builds_third_table, skip=("system.py",))
    assert found == {"constructions.py:random_sts"}, found
    with pytest.raises(ValueError):
        pg_sts(3).incidence.third[0, 1] = 5


def _draws_random_numbers(node) -> bool:
    """An import of the random module, or a .random attribute such as
    numpy's generator module."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "random" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and node.module.split(".")[0] == "random"
    return isinstance(node, ast.Attribute) and node.attr == "random"


def test_only_the_constructions_module_draws_random_numbers():
    """Every answer of the library is exact: line reconstruction scans
    every third point rather than sampling.  The seeded hill climber and
    rigid search of `constructions.py` are its only randomness."""
    found = _library_sites(_draws_random_numbers)
    assert found and {site.split(":")[0] for site in found} == {"constructions.py"}, found


def _evaluates_xor(node) -> bool:
    return (
        isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.BitXor)
    ) or _calls(node, ("bitwise_xor",))


def test_only_the_pstss_module_evaluates_xor():
    """The xor line rule of the binary projective spaces lives in
    `pstss.py`: `pg_sts` takes its lines from the Boolean space."""
    found = _library_functions(_evaluates_xor, skip=("pstss.py",))
    assert not found, found


def _imports_threads(node) -> bool:
    """An import of threading or of concurrent.futures."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return False
    return any(name.split(".")[0] in ("threading", "concurrent") for name in names)


def test_only_the_step_runner_uses_threads():
    """Every pass that runs on two workers goes through `system._steps`,
    whose one helper thread is made and joined inside the call, so no
    other place of the library imports a thread or executor module."""
    system = ast.parse(Path(stslab.system.__file__).read_text())
    runner = next(f for f in system.body if getattr(f, "name", None) == "_steps")
    inside = {f"system.py:{node.lineno}" for node in ast.walk(runner) if _imports_threads(node)}
    found = _library_sites(_imports_threads)
    assert inside and set(found) == inside, found


def test_no_library_module_reads_rows_through_iter_triples():
    """Constructions relabel the triples array by gathers, and the loops
    that remain read triples.tolist() once; iter_triples is for users."""
    found = _library_sites(lambda node: _calls(node, ("iter_triples",)))
    assert not found, found


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_canonical_matches_iso_verdict(seed):
    rng = random.Random(seed)
    perm = list(range(7))
    rng.shuffle(perm)
    other = _relabel(FANO, perm)
    assert canonical_form(other) == canonical_form(FANO)
    assert are_isomorphic(FANO, other).isomorphic
