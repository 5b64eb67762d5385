"""Reference automorphism search for the tests: orbit-stabilizer recursion.

This is the search that stslab.search used before automorphism groups came
from the canonical-labeling search.  It shares no code with stslab.search,
so the tests compare the library's |Aut| against it.  For each cell point
it runs a separate backtracking search (`find_map`) for a map between two
individualized sequences, and builds the group level by level with the
orbit-stabilizer count checked at every level.

Refinement starts from each point's Pasch count: the number of Pasch
configurations (four triples on six points, each point on two of them)
through the point, counted as the pairs of triples {p, q1, r1}, {p, q2, r2}
with q1q2 = r1r2 or q1r2 = r1q2.  The count is read from the triples alone,
so relabeling a system by g relabels the counts by g, and every automorphism
keeps them.  Refinement only splits cells by data that an automorphism
keeps, so an automorphism taking one marked sequence to another still takes
the first refined coloring to the second: `find_map` prunes no branch that
holds one, and it accepts a map only after checking every triple.  The seed
only makes the refined colorings finer, so the search branches less.
"""

from stslab import perm as pm
from stslab.perm import PermutationGroup


class _Data:
    def __init__(self, system):
        self.n = system.n
        self.triples = list(system.iter_triples())
        self.triple_set = set(self.triples)
        self.inc = [[] for _ in range(self.n)]
        for a, b, c in self.triples:
            self.inc[a].append((b, c))
            self.inc[b].append((a, c))
            self.inc[c].append((a, b))
        self.seed = self._pasch_counts()
        self._cache = {}

    def _pasch_counts(self) -> list:
        third = [[-1] * self.n for _ in range(self.n)]
        for a, b, c in self.triples:
            third[a][b] = third[b][a] = c
            third[a][c] = third[c][a] = b
            third[b][c] = third[c][b] = a
        counts = []
        for spokes in self.inc:
            count = 0
            for i, (q1, r1) in enumerate(spokes):
                for q2, r2 in spokes[i + 1:]:
                    s = third[q1][q2]
                    count += s >= 0 and s == third[r1][r2]
                    t = third[q1][r2]
                    count += t >= 0 and t == third[r1][q2]
            counts.append(count)
        return counts

    def refine(self, marked: tuple) -> tuple:
        cached = self._cache.get(marked)
        if cached is not None:
            return cached
        n = self.n
        mrank = {p: i for i, p in enumerate(marked)}
        colors = self.seed
        n_classes = len(set(colors))
        while True:
            sigs = []
            for p in range(n):
                row = sorted(
                    (min(colors[q], colors[r]), max(colors[q], colors[r]))
                    for q, r in self.inc[p]
                )
                sigs.append((mrank.get(p, n), colors[p], tuple(row)))
            distinct = sorted(set(sigs))
            index = {s: i for i, s in enumerate(distinct)}
            colors = [index[s] for s in sigs]
            if len(distinct) == n_classes:
                break
            n_classes = len(distinct)
        self._cache[marked] = result = tuple(colors)
        return result


def _target_cell(colors: tuple) -> list:
    """Points of the smallest non-singleton cell (lowest color breaks ties)."""
    cells = {}
    for p, c in enumerate(colors):
        cells.setdefault(c, []).append(p)
    big = [(len(pts), c) for c, pts in cells.items() if len(pts) > 1]
    return cells[min(big)[1]] if big else []


def _histogram(colors: tuple) -> tuple:
    return tuple(sorted((c, colors.count(c)) for c in set(colors)))


def find_map(data: _Data, marked_a: tuple, marked_b: tuple):
    """An automorphism extending marked_a -> marked_b, or None."""
    ca = data.refine(marked_a)
    cb = data.refine(marked_b)
    if _histogram(ca) != _histogram(cb):
        return None
    cell = _target_cell(ca)
    if not cell:
        rank_b = {c: p for p, c in enumerate(cb)}
        mapping = tuple(rank_b[c] for c in ca)
        for a, b, c in data.triples:
            if tuple(sorted((mapping[a], mapping[b], mapping[c]))) not in data.triple_set:
                return None
        return mapping
    for b in (p for p, c in enumerate(cb) if c == ca[cell[0]]):
        found = find_map(data, marked_a + (cell[0],), marked_b + (b,))
        if found is not None:
            return found
    return None


def _aut_group(data: _Data, marked: tuple) -> PermutationGroup:
    cell = _target_cell(data.refine(marked))
    if not cell:
        return PermutationGroup.trivial(data.n)
    base = cell[0]
    stab = _aut_group(data, marked + (base,))
    group = PermutationGroup.from_generators(data.n, stab.generators)
    for cand in cell[1:]:
        if cand in pm.orbit_of(base, group.generators):
            continue
        g = find_map(data, marked + (base,), marked + (cand,))
        if g is not None:
            group.extend(g)
    orbit = pm.orbit_of(base, group.generators)
    if group.order != stab.order * len(orbit):
        raise AssertionError("orbit-stabilizer mismatch")
    return group


def reference_automorphism_group(system) -> PermutationGroup:
    return _aut_group(_Data(system), ())
