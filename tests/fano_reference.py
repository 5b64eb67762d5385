"""Reference plane enumerations for the tests.

`stslab.fano.enumerate_fano` finds each PG(2, 2) subsystem from two of its
meeting triples by five third-point lookups.  The two enumerations here
decide planes another way, so the tests compare the library's list with
them:

- `enumerate_fano_bruteforce` tests every 7-point subset from the triple
  array, so it reaches only small systems;
- `enumerate_fano_by_span` closes every meeting pair of triples with
  `span`, which is how the library enumerated planes before; on a
  `TripleSystem` it reaches the products of the benchmark.
"""

from itertools import combinations

import numpy as np

from stslab.system import span


def _combinations(n: int, k: int) -> np.ndarray:
    """Every k-subset of range(n) as a sorted row, rows in lexicographic
    order."""
    rows = np.arange(n, dtype=np.int16)[:, None]
    for _ in range(k - 1):
        last = rows[:, -1].astype(np.int64)
        counts = n - 1 - last  # the points above each row's last one
        starts = np.cumsum(counts) - counts
        nxt = np.arange(int(counts.sum())) - np.repeat(starts, counts)
        nxt += np.repeat(last + 1, counts)
        rows = np.column_stack([np.repeat(rows, counts, axis=0), nxt.astype(np.int16)])
    return rows


def enumerate_fano_bruteforce(ts) -> list:
    """Every 7-point subset whose 21 pairs are all covered by triples
    inside it, from ts.triples alone.

    All C(n, 7) subsets are tested, one pair position at a time; a subset
    is dropped at the first pair whose triple is missing or leaves it.
    """
    third = np.full((ts.n, ts.n), -1, dtype=np.int16)
    a, b, c = ts.triples.T
    third[a, b], third[a, c], third[b, c] = c, b, a
    third[b, a], third[c, a], third[c, b] = c, b, a
    subsets = _combinations(ts.n, 7)
    for i, j in combinations(range(7), 2):
        t = third[subsets[:, i], subsets[:, j]]
        subsets = subsets[(subsets == t[:, None]).any(axis=1)]
    return [tuple(row) for row in subsets.tolist()]


def enumerate_fano_by_span(ts) -> list:
    """Every 7-point closure of two meeting triples.

    On a partial system such a closure can miss a line, so use it on full
    systems only.
    """
    found = set()
    for p, spokes in enumerate(ts.incidence.spoke_lists()):
        for (q1, r1), (q2, r2) in combinations(spokes, 2):
            closure = span(ts, {p, q1, r1, q2, r2}, cap=7)
            if len(closure) == 7:
                found.add(tuple(sorted(closure)))
    return sorted(found)
