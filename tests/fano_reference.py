"""Reference plane enumerations for the tests.

`stslab.fano.enumerate_fano` finds each PG(2, 2) subsystem from two of its
meeting triples by five third-point lookups.  The two enumerations here
decide planes another way, so the tests compare the library's list with
them:

- `enumerate_fano_bruteforce` tests every 7-point subset, so it reaches
  only small systems;
- `enumerate_fano_by_span` closes every meeting pair of triples with
  `span`, which is how the library enumerated planes before; on a
  `TripleSystem` it reaches the products of the benchmark.
"""

from itertools import combinations

from stslab.system import is_subsystem, span


def enumerate_fano_bruteforce(ts) -> list:
    """Every 7-point subset that is closed and covers all 21 of its pairs."""
    third = ts.incidence.third
    return [
        pts
        for pts in combinations(range(ts.n), 7)
        if is_subsystem(ts, pts) and all(pair in third for pair in combinations(pts, 2))
    ]


def enumerate_fano_by_span(ts) -> list:
    """Every 7-point closure of two meeting triples.

    On a partial system such a closure can miss a line, so use it on full
    systems only.
    """
    found = set()
    for p, spokes in enumerate(ts.incidence.pairs):
        for (q1, r1), (q2, r2) in combinations(spokes, 2):
            closure = span(ts, {p, q1, r1, q2, r2}, cap=7)
            if len(closure) == 7:
                found.add(tuple(sorted(closure)))
    return sorted(found)
