"""Reference hill climber for the tests: `random_sts` as it kept a set of
its triples and two closures that add and remove one.

`stslab.constructions.random_sts` keeps only the third-point table and
each point's uncovered partners, and reads its rows off the table at the
end.  The climber here draws the same random numbers in the same order,
so the tests compare the two systems for the same seed.
"""

from stslab.system import TripleSystem


def random_sts_reference(n: int, rng) -> TripleSystem:
    want = n * (n - 1) // 6
    third = [[-1] * n for _ in range(n)]  # symmetric; -1 on uncovered pairs
    missing = [set(range(n)) - {p} for p in range(n)]
    triples: set = set()

    def add(t):
        a, b, c = t
        triples.add(t)
        for u_, v_, w_ in ((a, b, c), (a, c, b), (b, c, a)):
            third[u_][v_] = third[v_][u_] = w_
            missing[u_].discard(v_)
            missing[v_].discard(u_)

    def remove(t):
        a, b, c = t
        triples.discard(t)
        for u_, v_ in ((a, b), (a, c), (b, c)):
            third[u_][v_] = third[v_][u_] = -1
            missing[u_].add(v_)
            missing[v_].add(u_)

    while len(triples) < want:
        live = [p for p in range(n) if missing[p]]
        x = rng.choice(live)
        y, z = rng.sample(sorted(missing[x]), 2)
        old = third[y][z]
        if old >= 0:
            remove(tuple(sorted((y, z, old))))
        add(tuple(sorted((x, y, z))))
    return TripleSystem.from_triples(n, sorted(triples))
