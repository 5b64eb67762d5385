"""Independent answer checks for the benchmark.

Nothing here calls stslab: every check works on plain triple lists read
from a system's `triples` array, so a wrong answer from the library cannot
be confirmed by the same code that produced it.
"""

from __future__ import annotations

from itertools import combinations, permutations


def triple_list(system) -> list:
    """The system's triples as sorted tuples of Python ints."""
    return [tuple(row) for row in system.triples.tolist()]


def third_table(n: int, triples) -> list:
    """n x n table: third[a][b] is the third point of the triple on a, b."""
    third = [[-1] * n for _ in range(n)]
    for a, b, c in triples:
        third[a][b] = third[b][a] = c
        third[a][c] = third[c][a] = b
        third[b][c] = third[c][b] = a
    return third


def maps_onto(triples_a, triples_b, mapping) -> bool:
    """True iff `mapping` is a bijection sending every triple of a to one of b."""
    if sorted(mapping) != list(range(len(mapping))) or len(triples_a) != len(triples_b):
        return False
    target = set(triples_b)
    return all(
        tuple(sorted((mapping[a], mapping[b], mapping[c]))) in target
        for a, b, c in triples_a
    )


def is_closed(points, third) -> bool:
    """True iff the point set contains the third point of each of its pairs."""
    pts = set(points)
    return all(third[a][b] in pts for a, b in combinations(sorted(pts), 2))


def relabel(triples, perm) -> list:
    return [tuple(sorted((perm[a], perm[b], perm[c]))) for a, b, c in triples]


def cycle_invariant(n: int, triples) -> tuple:
    """Sorted multiset, over all pairs {a, b}, of the cycle lengths of the
    graph on the other points with edges x ~ third(a, x) and x ~ third(b, x).

    It is unchanged by relabeling, so two systems with different values are
    not isomorphic.
    """
    third = third_table(n, triples)
    out = []
    for a, b in combinations(range(n), 2):
        c = third[a][b]
        seen = {a, b, c}
        lengths = []
        for start in range(n):
            if start in seen:
                continue
            length, x, use_a = 0, start, True
            while x not in seen:
                seen.add(x)
                length += 1
                x = third[a if use_a else b][x]
                use_a = not use_a
            lengths.append(length)
        out.append(tuple(sorted(lengths)))
    return tuple(sorted(out))


def gl_order(dim: int, q: int) -> int:
    """|GL(dim, q)|."""
    out = 1
    for i in range(dim):
        out *= q**dim - q**i
    return out


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def lift_from_v(x_count: int, m: int, v_perm) -> tuple:
    """Identity on the X points, (v, a) -> (g(v), a) on the product points.

    Product point (v, a) has index x_count + v*m + a.
    """
    out = list(range(x_count + len(v_perm) * m))
    for v, gv in enumerate(v_perm):
        for a in range(m):
            out[x_count + v * m + a] = x_count + gv * m + a
    return tuple(out)


def lifted_aut_order(v_n: int, v_triples, x_count: int, m: int, u_triples) -> int:
    """Order of Aut(V) after checking that every lift is an automorphism of U.

    Returns -1 if some lift fails, which no group order can equal.
    """
    auts = [p for p in permutations(range(v_n)) if maps_onto(v_triples, v_triples, p)]
    for g in auts:
        if not maps_onto(u_triples, u_triples, lift_from_v(x_count, m, g)):
            return -1
    return len(auts)


def xor_line(x: int, y: int) -> frozenset:
    """The line through points x, y of the binary projective space
    (point i is the nonzero vector i + 1)."""
    return frozenset((x, y, ((x + 1) ^ (y + 1)) - 1))
