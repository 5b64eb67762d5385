"""Exact automorphism / isomorphism engine for (partial) triple systems.

One individualization-refinement search answers every question.  A
depth-first search individualizes points of the smallest non-singleton cell
until the coloring is discrete.  Each leaf is a labeling; its key is the
relabeled sorted triple list.  Leaves are ranked by the traces of the nodes
on their path and then by key, and the smallest leaf gives the canonical
form and the canonical labeling.  Everything here is exact: refinement and
traces only prune, they never decide.

Refinement starts from the Pasch-count seed of `_pasch_seed` (Pasch
configurations, Colbourn & Rosa, "Triple Systems", 1999, ch. 7), not from
one cell.  The counts are read from the triples alone, so relabeling a
system by g relabels its seed by g.  Where pairs differ in Pasch count the
seed splits the points, and a random STS(27) needs one node instead of
17,578.  A system whose pairs all share one count, such as PG(n, 2), gets
one cell.

A node refines its parent's coloring.  The point individualized last gets
the color just after the earlier ones, which keeps the marked points first.
Each round then recolors every point by its color and the sorted color
pairs it sees through its triples, until no cell splits.  By induction the
parent's coloring is the coarsest equitable partition refining the seed
with the earlier points individualized.  Every equitable partition that
refines the seed with the whole sequence individualized therefore refines
the parent's coloring too, so starting from the parent reaches the same
partition as starting from the seed; only the order of the cells may
differ.  So a node's coloring is a function of the system and its sequence
that commutes with relabeling.

A node's trace lists each round's sorted distinct signatures.  These hold
colors and color pairs, never points, so the trace commutes with relabeling
too: relabeling the system and the sequence by g leaves the trace as it
was, and an automorphism maps each node to a node with the same trace.  A
leaf's rank is the traces of the nodes on its path, root first, then its
key, compared in that order (the Traces order of McKay & Piperno,
"Practical graph isomorphism, II", J. Symb. Comput. 60, 2014).  The rank
is invariant, so the smallest rank and the key in it are the same for
isomorphic systems, and that key is the canonical form.  Nodes whose
parents have equal traces start with equally many cells, so equal rounds
end together.  While a node's path has the best path's trace, it compares
each round with the best path's node at its depth.  At the first greater
round, or a round past the end of the best's, every leaf below ranks above
the best and the node is stopped; at the first smaller round every leaf
below ranks below the best, so it stops comparing and the first leaf it
reaches becomes the best.  Only a strictly smaller rank replaces the best.

Two leaves with equal keys differ by an automorphism, which maps one path
onto the other.  The search keeps the automorphisms found against the
current best leaf and drops them all when the best is replaced.  Those
kept, all found against the final best leaf, generate the whole group.
Follow the path to the final best leaf, with prefixes s_0, s_1, ..., and
let G_k be the automorphisms fixing s_k pointwise.  At level k, no child
before the path's child b_k lies in the G_k-orbit of b_k: its subtree
would hold a leaf of the best rank, reached before the best leaf, which
then could not have replaced it.  So children skipped before b_k, on
automorphisms since dropped, need no cover.  A child c after b_k in that
orbit is reached after the final best is set.  It is either pruned as the
image of a searched child under kept automorphisms fixing s_k, or searched.
If searched, some g in G_k maps b_k to c, so c and the nodes below it on
the image of the best path have the best path's traces and are never
stopped; the search meets a leaf of the best rank below c, and its
automorphism fixes s_k and maps c to b_k.  So the kept automorphisms that
fix s_k reach the whole G_k-orbit of b_k.  By induction from the discrete
leaf (G trivial) upwards, with |G_k| = |orbit of b_k| * |G_{k+1}|, they
generate G_k at every level, and G_0 = Aut.

So the best path is a base of Aut and the kept automorphisms are a strong
generating set relative to it, and `automorphism_group` reads the
stabilizer chain off them with one orbit per level, sifting nothing.  It is
a base because a node's coloring commutes with relabeling: an automorphism
fixing the whole path maps the best leaf's coloring to itself, and that
coloring is discrete, so the automorphism fixes every point.  None of them
is redundant.  After the final best is set, the common prefix of a leaf
with the best path only shrinks, so one found at level k comes after kept
ones that all fix s_k.  It maps to b_k a child that was not pruned, so not
in the orbit of b_k under those, and it lies outside the group they
generate.  An automorphism found against a best that was replaced later
gives no such guarantee, which is why those are dropped.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import perm as pm
from .perm import PermutationGroup
from .system import VerificationError, _triple_keys

DEFAULT_NODE_BUDGET = 10**8
BUDGET_ENV_VAR = "STSLAB_NODE_BUDGET"
SEED_BLOCK = 2**16  # entries compared per seed block; larger blocks fall out of cache


@dataclass
class SearchStats:
    """What one search did.  Each refine call is one node of the tree."""

    refine_calls: int = 0
    leaves: int = 0
    pruned: int = 0  # children skipped as images of explored siblings
    max_depth: int = 0  # longest individualized sequence refined
    seed_points: int = 0  # points whose pairs the seed has counted
    seed_s: float = 0.0
    rounds: int = 0  # refinement rounds, summed over all refine calls
    trace_stopped: int = 0  # refine calls stopped by a round past the best path's


class BudgetExceededError(RuntimeError):
    """The refinement-pruned search tree passed the node limit."""

    def __init__(self, budget: int, stats: SearchStats, automorphisms: int):
        super().__init__(
            f"search exceeded node budget {budget}: the seed counted the pairs "
            f"of {stats.seed_points} points, then {stats.refine_calls} nodes "
            f"visited ({stats.trace_stopped} stopped by the trace), depth "
            f"{stats.max_depth}, {automorphisms} automorphisms found (set "
            f"{BUDGET_ENV_VAR} to override)"
        )
        self.stats = stats
        self.automorphisms = automorphisms


class BudgetSettingError(ValueError):
    """The node budget variable is set to something other than a budget."""


def parse_node_budget(text: str) -> int:
    """A node budget written as a whole number of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise ValueError(f"{text!r} is not a whole number of at least 1")
    return int(text)


def node_budget(override: int | None = None) -> int:
    """`override`, else the budget variable's value, else the default."""
    if override is not None:
        return override
    text = os.environ.get(BUDGET_ENV_VAR)
    if text is None:
        return DEFAULT_NODE_BUDGET
    try:
        return parse_node_budget(text)
    except ValueError as e:
        raise BudgetSettingError(f"{BUDGET_ENV_VAR}: {e}") from None


def _pasch_seed(system, charge) -> list:
    """Isomorphism-invariant point colors from the Pasch counts of pairs.

    With third(a, a) = a, f = x -> third(b, third(a, x)) permutes the points.
    The triple {a, b, c} is a 3-cycle of f, b = a gives the identity, and each
    Pasch configuration with a, b on no common triple gives two 2-cycles.  The
    pair {a, b} counts the x with f(x) = f^-1(x) = third(a, third(b, x)); a
    point's color is the rank of its sorted row of counts.  `charge` runs once
    per point before its block is counted.  A system gets all zeros unless it
    covers every pair, which its m pair-disjoint triples do iff 3m = n(n-1)/2.
    """
    n = system.n
    if n < 2 or 3 * system.n_triples != n * (n - 1) // 2:
        return [0] * n  # under two points the one cell needs no table
    points = np.arange(n)
    t = system.incidence.third.copy()
    t[points, points] = points
    counts = np.empty((n, n), dtype=np.intp)
    step = max(1, SEED_BLOCK // (n * n))
    for start in range(0, n, step):
        block = points[start : start + step]
        for _ in block:
            charge()
        # [b, i, x]: third(b, third(a, x)) == third(a, third(b, x)), a = block[i]
        same = t[:, t[block]] == t[block][:, t].swapaxes(0, 1)
        counts[:, block] = same.sum(axis=2)
    counts.sort(axis=1)
    rows = list(map(tuple, counts.tolist()))
    index = {row: i for i, row in enumerate(sorted(set(rows)))}
    return [index[row] for row in rows]


class _SearchData:
    """One search: the system's incidence, its seed colors, the best leaf so
    far and its path's traces, the automorphisms found against it and the
    work charged against the budget."""

    def __init__(self, system, budget: int | None = None):
        self.n = system.n
        self.third = system.incidence.third
        self.spokes = system.incidence.spoke_lists()
        self.triples = system.triples
        self.budget = node_budget(budget)
        self.stats = SearchStats()
        self.best_key = None
        self.best_colors = None
        self.best_seq = None
        self.best_trace = []  # the trace of each node on the best path
        self.path_trace = []  # the trace of each node on the current path
        self.auts = []
        start = time.perf_counter()
        self.seed = _pasch_seed(system, self._charge_seed)
        self.stats.seed_s = time.perf_counter() - start

    def charge(self) -> None:
        """Raise if one more seed point or refine call would pass the budget."""
        if self.stats.seed_points + self.stats.refine_calls >= self.budget:
            raise BudgetExceededError(self.budget, self.stats, len(self.auts))

    def _charge_seed(self) -> None:
        self.charge()
        self.stats.seed_points += 1

    def refine(self, colors: tuple, seq: tuple, best: list | None = None) -> tuple:
        """Equitable coloring refining `colors`, the coloring of the node
        for seq[:-1] (the seed at the root), with seq[-1], a point of a
        non-singleton cell, individualized.

        Returns (colors, trace, order).  The trace lists each round's sorted
        distinct signatures.  `best` is the best path's trace at this depth,
        or None when the path is already smaller.  Order is 0 while the
        rounds equal best's and -1 from the first smaller round on (or with
        no `best`); the comparison stops there.  At the first greater round,
        or a round past the end of best's, the node is stopped: order 1 and
        colors None."""
        self.charge()
        self.stats.refine_calls += 1
        self.stats.max_depth = max(self.stats.max_depth, len(seq))
        n = self.n
        spokes = self.spokes
        if seq:  # the new point goes right after the marked ones
            k = len(seq) - 1
            colors = [c + 1 if c >= k else c for c in colors]
            colors[seq[-1]] = k
        n_classes = len(set(colors))
        trace = []
        order = -1 if best is None else 0
        while True:
            self.stats.rounds += 1
            sizes = [0] * n_classes
            for c in colors:
                sizes[c] += 1
            sigs = []
            for p, c in enumerate(colors):
                if sizes[c] == 1:  # a singleton's color already fixes its place
                    sigs.append((c, ()))
                    continue
                row = []
                for q, r in spokes[p]:
                    cq, cr = colors[q], colors[r]
                    row.append(cq * n + cr if cq <= cr else cr * n + cq)
                row.sort()
                sigs.append((c, tuple(row)))
            distinct = sorted(set(sigs))
            if order == 0:
                other = best[len(trace)] if len(trace) < len(best) else None
                if distinct == other:
                    distinct = other  # share the best path's round, not a copy
                elif other is None or distinct > other:
                    self.stats.trace_stopped += 1
                    return None, trace, 1
                else:
                    order = -1
            trace.append(distinct)
            index = {s: i for i, s in enumerate(distinct)}
            colors = [index[s] for s in sigs]
            if len(distinct) == n_classes:
                break
            n_classes = len(distinct)
        return tuple(colors), trace, order


def _target_cell(colors: tuple) -> list:
    """Points of the smallest non-singleton cell, the lowest color breaking
    ties; empty when the coloring is discrete."""
    cells: dict = {}
    for p, c in enumerate(colors):
        cells.setdefault(c, []).append(p)
    sizes = [(len(pts), c) for c, pts in cells.items() if len(pts) > 1]
    return cells[min(sizes)[1]] if sizes else []


def _maps_into(triples: np.ndarray, third: np.ndarray, p) -> bool:
    """True iff the permutation p sends every row of `triples` to a triple
    of the system whose third-point table is `third`: one gather."""
    a, b, c = np.asarray(p, dtype=np.intp)[triples.T]
    return bool(np.array_equal(third[a, b], c))


def is_automorphism(system, p) -> bool:
    """True iff p maps every triple of the system to a triple."""
    p = tuple(p)
    if len(p) != system.n or not pm.is_permutation(p):
        return False
    return _maps_into(system.triples, system.incidence.third, p)


def _leaf_key(data: _SearchData, colors: tuple) -> bytes:
    """The sorted keys a*n^2 + b*n + c of the relabeled triples, as
    big-endian int64 bytes, which compare like the sorted triple tuples."""
    rows = np.asarray(colors, dtype=np.int64)[data.triples]  # discrete: p -> colors[p]
    rows.sort(axis=1)
    keys = _triple_keys(rows, data.n)
    keys.sort()
    return keys.astype(">i8").tobytes()


def _canon_dfs(data: _SearchData, seq: tuple, parent: tuple, compare: bool) -> int:
    """Explore the individualization tree below the node for `seq`, whose
    parent's coloring is `parent`; returns unwind depth.  `compare` says the
    path so far has the best path's traces, so the node is compared with the
    best path's node at its depth; otherwise the path is already smaller."""
    depth = len(seq)
    best = data.best_trace[depth] if compare else None
    colors, trace, order = data.refine(parent, seq, best)
    if order > 0:
        return depth
    del data.path_trace[depth:]
    data.path_trace.append(trace)
    cell = _target_cell(colors)
    if not cell:
        data.stats.leaves += 1
        key = _leaf_key(data, colors)
        if order < 0 or key < data.best_key:
            data.best_key = key
            data.best_colors = colors
            data.best_seq = seq
            data.best_trace = list(data.path_trace)
            data.auts = []  # those found against the old best are dropped
            return depth
        if key == data.best_key:
            # same canonical image: best_labeling^-1 . leaf_labeling is an
            # automorphism fixing the common prefix of the two sequences
            inv_best = pm.inverse(data.best_colors)
            g = tuple(inv_best[colors[p]] for p in range(data.n))
            if not _maps_into(data.triples, data.third, g):
                raise VerificationError("equal-key leaves gave a non-automorphism")
            data.auts.append(g)
            common = 0
            while (
                common < len(seq)
                and common < len(data.best_seq)
                and seq[common] == data.best_seq[common]
            ):
                common += 1
            return common
        return depth
    explored: list = []
    # the kept automorphisms that fix seq, and the union of the explored
    # children's orbits under them; rebuilt when a new one fixes seq, and
    # emptied when a new best drops them
    fixing: list = []
    covered: set = set()
    auts, seen = data.auts, 0
    compare = order == 0  # after the first child the node is on the best path
    for cand in cell:
        if data.auts is not auts:
            fixing, covered, auts, seen = [], set(explored), data.auts, 0
        if len(auts) != seen:
            new = [g for g in auts[seen:] if all(g[s] == s for s in seq)]
            seen = len(auts)
            if new:
                fixing += new
                covered = set().union(*(pm.orbit_of(e, fixing) for e in explored))
        if cand in covered:
            data.stats.pruned += 1
            continue
        explored.append(cand)
        covered |= pm.orbit_of(cand, fixing)
        unwind = _canon_dfs(data, seq + (cand,), colors, compare)
        if unwind < depth:
            return unwind
        compare = True
    return depth


class _Canon(NamedTuple):
    form: tuple  # (n, sorted triples under the canonical labeling)
    labeling: tuple  # point -> canonical index
    automorphisms: list  # generate Aut (see the module docstring)
    base: tuple  # the best leaf's sequence: a base for the automorphisms
    stats: SearchStats


def _canonical_labeling(system, budget: int | None = None) -> _Canon:
    """The one search: canonical form, canonical labeling and automorphisms."""
    data = _SearchData(system, budget)
    _canon_dfs(data, (), data.seed, False)
    n = system.n
    keys = np.frombuffer(data.best_key, dtype=">i8").tolist()
    form = (n, tuple((k // (n * n), k // n % n, k % n) for k in keys))
    return _Canon(form, data.best_colors, data.auts, data.best_seq, data.stats)


def automorphism_group(system, budget: int | None = None) -> PermutationGroup:
    """Exact automorphism group of a (partial) triple system."""
    c = _canonical_labeling(system, budget)
    return PermutationGroup.from_base(system.n, c.base, c.automorphisms)


def canonical_form(system, budget: int | None = None) -> tuple:
    """Relabeling-invariant triple list; equal forms iff isomorphic systems."""
    return _canonical_labeling(system, budget).form


@dataclass(frozen=True)
class IsoCertificate:
    """Either an explicit isomorphism or a non-isomorphism verdict."""

    isomorphic: bool
    mapping: tuple | None = None


def are_isomorphic(a, b, budget: int | None = None) -> IsoCertificate:
    """Decide isomorphism; a returned map is verified triple-to-triple."""
    if type(a) is not type(b) or a.n != b.n or a.n_triples != b.n_triples:
        return IsoCertificate(False)
    ca = _canonical_labeling(a, budget)
    cb = _canonical_labeling(b, budget)
    if ca.form != cb.form:
        return IsoCertificate(False)
    inv_b = pm.inverse(cb.labeling)
    mapping = tuple(inv_b[label] for label in ca.labeling)
    if not _maps_into(a.triples, b.incidence.third, mapping):
        raise VerificationError("canonical labelings disagree")
    return IsoCertificate(True, mapping=mapping)
