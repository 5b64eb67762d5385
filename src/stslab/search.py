"""Exact automorphism / isomorphism engine for (partial) triple systems.

One individualization-refinement search answers every question.  The
refinement invariant colors each point by the multiset of color pairs it
sees through its triples, iterated to a fixpoint; individualized points
carry their sequence rank so refined colors are relabeling-invariant.  A
depth-first search individualizes points of the smallest non-singleton cell
until the coloring is discrete.  Each leaf is a labeling; its key is the
relabeled sorted triple list, and the leaf with the smallest key gives the
canonical form and the canonical labeling.  Everything here is exact:
refinement only prunes, it never decides.

Two leaves with equal keys differ by an automorphism, and the search keeps
every such automorphism.  These generate the whole group (McKay & Piperno,
"Practical graph isomorphism, II", J. Symb. Comput. 60, 2014).
Follow the path to the final best leaf, with prefixes s_0, s_1, ..., and
let G_k be the automorphisms fixing s_k pointwise.  At level k, no child
before the path's child b_k lies in the G_k-orbit of b_k: its subtree would
hold a leaf with the best key, visited before the best leaf, which then
could not have replaced it (only a strictly smaller key does).  Every
child after b_k in that orbit either is searched, and meets an equal-key
leaf whose automorphism fixes s_k and maps it to b_k, or is pruned as the
image of a searched child under automorphisms already found that fix s_k.
So the automorphisms found that fix s_k reach the whole G_k-orbit of b_k.
By induction from the discrete leaf (G trivial) upwards, with
|G_k| = |orbit of b_k| * |G_{k+1}|, they generate G_k at every level, and
G_0 = Aut.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

from . import perm as pm
from .perm import PermutationGroup
from .system import VerificationError

DEFAULT_NODE_BUDGET = 10**8
BUDGET_ENV_VAR = "STSLAB_NODE_BUDGET"


class BudgetExceededError(RuntimeError):
    """The refinement-pruned search tree passed the node limit."""


def node_budget(override: int | None = None) -> int:
    if override is not None:
        return override
    return int(os.environ.get(BUDGET_ENV_VAR, DEFAULT_NODE_BUDGET))


class _SearchData:
    """Preprocessed incidence structure for one system."""

    def __init__(self, system, budget: int | None = None):
        self.n = system.n
        self.triples = list(system.iter_triples())
        self.triple_set = set(self.triples)
        inc = [[] for _ in range(self.n)]
        for a, b, c in self.triples:
            inc[a].append((b, c))
            inc[b].append((a, c))
            inc[c].append((a, b))
        self.inc = inc
        self.nodes = 0
        self.budget = node_budget(budget)

    def charge(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceededError(
                f"search exceeded node budget {self.budget} "
                f"(set {BUDGET_ENV_VAR} to override)"
            )

    def refine(self, marked: tuple) -> tuple:
        """Equitable coloring with the points of `marked` individualized."""
        self.charge()
        n = self.n
        mrank = {p: i for i, p in enumerate(marked)}
        colors = [0] * n
        n_classes = 1 if n else 0
        while True:
            sigs = []
            for p in range(n):
                row = sorted(
                    (colors[q], colors[r]) if colors[q] <= colors[r] else (colors[r], colors[q])
                    for q, r in self.inc[p]
                )
                sigs.append((mrank.get(p, n), colors[p], tuple(row)))
            distinct = sorted(set(sigs))
            index = {s: i for i, s in enumerate(distinct)}
            colors = [index[s] for s in sigs]
            if len(distinct) == n_classes:
                break
            n_classes = len(distinct)
        return tuple(colors)


def _cells(colors: tuple) -> dict:
    out: dict = {}
    for p, c in enumerate(colors):
        out.setdefault(c, []).append(p)
    return out


def _target_color(colors: tuple):
    """Color of the smallest non-singleton cell (lowest color breaks ties)."""
    best = None
    for c, pts in _cells(colors).items():
        if len(pts) < 2:
            continue
        key = (len(pts), c)
        if best is None or key < best:
            best = key
    return None if best is None else best[1]


def _maps_into(triples, target: set, p) -> bool:
    """True iff p sends every sorted triple of `triples` to a member of `target`."""
    for a, b, c in triples:
        if tuple(sorted((p[a], p[b], p[c]))) not in target:
            return False
    return True


def is_automorphism(system, p) -> bool:
    """True iff p maps every triple of the system to a triple."""
    p = tuple(p)
    if len(p) != system.n or not pm.is_permutation(p):
        return False
    triples = set(system.iter_triples())
    return _maps_into(triples, triples, p)


class _CanonState:
    __slots__ = ("best_key", "best_colors", "best_seq", "auts")

    def __init__(self):
        self.best_key = None
        self.best_colors = None
        self.best_seq = None
        self.auts = []


def _leaf_key(data: _SearchData, colors: tuple) -> tuple:
    lab = colors  # discrete: point p gets label colors[p]
    return tuple(
        sorted(tuple(sorted((lab[a], lab[b], lab[c]))) for a, b, c in data.triples)
    )


def _canon_dfs(data: _SearchData, seq: tuple, state: _CanonState) -> int:
    """Explore the individualization tree; returns unwind depth."""
    colors = data.refine(seq)
    target = _target_color(colors)
    if target is None:
        key = _leaf_key(data, colors)
        if state.best_key is None or key < state.best_key:
            state.best_key = key
            state.best_colors = colors
            state.best_seq = seq
            return len(seq)
        if key == state.best_key:
            # same canonical image: best_labeling^-1 . leaf_labeling is an
            # automorphism fixing the common prefix of the two sequences
            inv_best = pm.inverse(state.best_colors)
            g = tuple(inv_best[colors[p]] for p in range(data.n))
            if not _maps_into(data.triples, data.triple_set, g):
                raise VerificationError("equal-key leaves gave a non-automorphism")
            state.auts.append(g)
            common = 0
            while (
                common < len(seq)
                and common < len(state.best_seq)
                and seq[common] == state.best_seq[common]
            ):
                common += 1
            return common
        return len(seq)
    cell = [p for p, c in enumerate(colors) if c == target]
    depth = len(seq)
    explored: list = []
    for cand in cell:
        fixing = [g for g in state.auts if all(g[s] == s for s in seq)]
        if any(cand in pm.orbit_of(e, fixing) for e in explored):
            continue
        explored.append(cand)
        unwind = _canon_dfs(data, seq + (cand,), state)
        if unwind < depth:
            return unwind
    return depth


class _Canon(NamedTuple):
    form: tuple  # (n, sorted triples under the canonical labeling)
    labeling: tuple  # point -> canonical index
    automorphisms: list  # generate Aut (see the module docstring)
    data: _SearchData


def _canonical_labeling(system, budget: int | None = None) -> _Canon:
    """The one search: canonical form, canonical labeling and automorphisms."""
    data = _SearchData(system, budget)
    state = _CanonState()
    _canon_dfs(data, (), state)
    return _Canon((system.n, state.best_key), state.best_colors, state.auts, data)


def automorphism_group(system, budget: int | None = None) -> PermutationGroup:
    """Exact automorphism group of a (partial) triple system."""
    auts = _canonical_labeling(system, budget).automorphisms
    return PermutationGroup.from_generators(system.n, auts)


def canonical_form(system, budget: int | None = None) -> tuple:
    """Relabeling-invariant triple list; equal forms iff isomorphic systems."""
    return _canonical_labeling(system, budget).form


@dataclass(frozen=True)
class IsoCertificate:
    """Either an explicit isomorphism or a non-isomorphism verdict."""

    isomorphic: bool
    mapping: tuple | None = None
    canonical_a: tuple | None = None
    canonical_b: tuple | None = None


def are_isomorphic(a, b, budget: int | None = None) -> IsoCertificate:
    """Decide isomorphism; a returned map is verified triple-to-triple."""
    if type(a) is not type(b) or a.n != b.n or a.n_triples != b.n_triples:
        return IsoCertificate(False, canonical_a=(a.n, None), canonical_b=(b.n, None))
    ca = _canonical_labeling(a, budget)
    cb = _canonical_labeling(b, budget)
    if ca.form != cb.form:
        return IsoCertificate(False, canonical_a=ca.form, canonical_b=cb.form)
    inv_b = pm.inverse(cb.labeling)
    mapping = tuple(inv_b[label] for label in ca.labeling)
    if not _maps_into(ca.data.triples, cb.data.triple_set, mapping):
        raise VerificationError("canonical labelings disagree")
    return IsoCertificate(True, mapping=mapping, canonical_a=ca.form, canonical_b=cb.form)
