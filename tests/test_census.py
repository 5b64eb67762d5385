"""Census oracle: the two STS(13) and the 80 STS(15) classes, reached by
cycle switching and checked by the mass formula.

A switch takes a pair {a, b} on the triple {a, b, c} and one cycle of the
graph on V - {a, b, c} with edges x ~ third(a, x) and x ~ third(b, x)
(the union of two cycles of x -> third(b, third(a, x))).  Swapping a and b
in the triples along that cycle gives another STS; swapping along the whole
graph only relabels, so that case is skipped.  Classes are told apart by
`canonical_form`, and the labeled STS(n) number the sum of n!/|Aut| over
the classes: a wrong canonical form or a wrong |Aut| breaks the sum.
"""

import math

from stslab import TripleSystem, automorphism_group, base_sts, canonical_form, pg_sts


def switches(ts):
    """Every system one cycle switch away from `ts`."""
    n, third = ts.n, ts.incidence.third.tolist()
    for a in range(n):
        for b in range(a + 1, n):
            seen = {a, b, third[a][b]}
            for x in range(n):
                if x in seen:
                    continue
                cycle = set()
                while x not in cycle:
                    cycle.add(x)
                    x = third[a][x]
                    cycle.add(x)
                    x = third[b][x]
                seen |= cycle
                if len(cycle) == n - 3:
                    continue
                swap = {a: b, b: a}
                yield TripleSystem.from_triples(
                    n,
                    [
                        tuple(swap.get(p, p) for p in t)
                        if (a in t) != (b in t) and not cycle.isdisjoint(t)
                        else t
                        for t in ts.iter_triples()
                    ],
                )


def census(start) -> list:
    """One system per isomorphism class reachable from `start` by switches."""
    classes = {canonical_form(start): start}
    todo = [start]
    while todo:
        for other in switches(todo.pop()):
            form = canonical_form(other)
            if form not in classes:
                classes[form] = other
                todo.append(other)
    return list(classes.values())


def test_sts13_census_by_cycle_switching():
    orders = sorted(automorphism_group(ts).order for ts in census(base_sts(13)))
    assert orders == [6, 39]
    assert all(math.factorial(13) % k == 0 for k in orders)
    assert sum(math.factorial(13) // k for k in orders) == 1_197_504_000


def test_sts15_census_by_cycle_switching():
    """All 80 classes (Mathon, Phelps & Rosa 1983) from PG(3, 2).  Switching
    only 4-cycles (Pasch switches) reaches 79 of them and misses the
    anti-Pasch class, |Aut| = 60 (Kaski & Östergård, "Classification
    Algorithms for Codes and Designs", 2006)."""
    orders = [automorphism_group(ts).order for ts in census(pg_sts(3))]
    assert len(orders) == 80
    assert all(math.factorial(15) % k == 0 for k in orders)
    assert sum(math.factorial(15) // k for k in orders) == 60_281_712_691_200
    assert orders.count(20_160) == 1
