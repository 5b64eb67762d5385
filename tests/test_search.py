"""The search's starting coloring and what the search reports about itself."""

import random

import pytest
from aut_reference import _Data

from stslab import (
    MooreInput,
    PartialTripleSystem,
    TripleSystem,
    are_isomorphic,
    automorphism_group,
    base_sts,
    bose,
    canonical_form,
    double,
    embed_subsystem,
    moore,
    pg_sts,
)
from stslab import search
from stslab.constructions import random_sts
from stslab.perm import PermutationGroup, compose
from stslab.search import (
    BudgetExceededError,
    _canonical_labeling,
    _leaf_key,
    _SearchData,
    is_automorphism,
)
from stslab.system import InvalidSystemError


def _moore(x, y, v):
    ysys, xset = embed_subsystem(x, y)
    return moore(MooreInput.build(ysys, xset, base_sts(v)))


def _seed(ts) -> list:
    return _SearchData(ts).seed


SEEDED = {
    "random15": lambda: random_sts(15, random.Random(1)),
    "random19": lambda: random_sts(19, random.Random(2)),
    "moore_1_7_3": lambda: _moore(1, 7, 3),
    "moore_3_9_7": lambda: _moore(3, 9, 7),
}


@pytest.mark.parametrize("name", SEEDED)
def test_seed_is_invariant_under_relabeling(name):
    ts = SEEDED[name]()
    seed = _seed(ts)
    assert len(set(seed)) > 1  # the seed splits these systems
    rng = random.Random(name)
    for _ in range(3):
        perm = list(range(ts.n))
        rng.shuffle(perm)
        other = type(ts).from_triples(
            ts.n, [tuple(perm[p] for p in t) for t in ts.iter_triples()]
        )
        relabeled = _seed(other)
        assert [relabeled[perm[p]] for p in range(ts.n)] == seed


@pytest.mark.parametrize(
    "n, rows",
    [
        (9, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 6, 7)]),
        # 3m = n(n-1)/2 = 6, but the pair {0, 1} is listed twice and {2, 3} never
        (4, [(0, 1, 2), (0, 1, 3)]),
    ],
    ids=["uncovered", "pair_twice"],
)
def test_partial_system_starts_from_zeros(n, rows):
    """The seed's guard is the triple count alone, so a system that passes
    the count but lists a pair twice must never be built."""
    if 3 * len(rows) == n * (n - 1) // 2:
        with pytest.raises(InvalidSystemError, match=r"pair \(0, 1\) covered twice"):
            PartialTripleSystem(n, rows)
    else:
        assert _seed(PartialTripleSystem(n, rows)) == [0] * n


@pytest.mark.parametrize("n, seed", [(19, 0), (21, 0), (27, 0)])
def test_rigid_random_systems_need_few_nodes(n, seed):
    ts = random_sts(n, random.Random(seed))
    canon = _canonical_labeling(ts)
    assert canon.stats.refine_calls <= 2  # 5,834 / 8,002 / 17,578 from all zeros
    assert canon.stats.seed_points == n
    assert canon.automorphisms == []  # rigid, as the search from all zeros finds too


def test_budget_error_reports_progress():
    u = _moore(3, 19, 9)  # 147 points, |Aut| = 432
    canon = _canonical_labeling(u, budget=500)  # seeded: 147 points + 13 nodes
    full = canon.stats
    assert full.seed_points == 147 and full.refine_calls > 2
    # each automorphism comes from a leaf after the first; symmetric
    # siblings of explored children are pruned
    assert len(canon.automorphisms) < full.leaves < full.refine_calls
    assert full.pruned > 0

    with pytest.raises(BudgetExceededError) as err:
        _canonical_labeling(u, budget=147 + full.refine_calls - 1)
    stats = err.value.stats
    assert stats.seed_points == 147
    assert stats.refine_calls == full.refine_calls - 1
    assert 1 <= stats.max_depth <= full.max_depth
    assert 0 <= err.value.automorphisms < len(canon.automorphisms)
    message = str(err.value)
    assert f"{stats.refine_calls} nodes visited" in message
    assert f"{stats.trace_stopped} stopped by the trace" in message
    assert f"depth {stats.max_depth}" in message
    assert f"{err.value.automorphisms} automorphisms found" in message


def test_small_budget_stops_the_seed(monkeypatch):
    u = _moore(3, 19, 9)
    with pytest.raises(BudgetExceededError) as err:
        _canonical_labeling(u, budget=1)
    assert err.value.stats.seed_points == 1
    assert err.value.stats.refine_calls == 0

    monkeypatch.setenv(search.BUDGET_ENV_VAR, "3")
    with pytest.raises(BudgetExceededError) as err:
        automorphism_group(u)
    assert err.value.stats.seed_points == 3


def _from_seed(data: _SearchData, marked: tuple) -> list:
    """The fixpoint refined from the seed with every point of `marked`
    individualized at once, each by its rank in `marked`."""
    n, pairs = data.n, data.spokes
    rank = {p: i for i, p in enumerate(marked)}
    colors = data.seed

    def row(p):
        return sorted(tuple(sorted((colors[q], colors[r]))) for q, r in pairs[p])

    while True:
        sigs = [(rank.get(p, n), colors[p], tuple(row(p))) for p in range(n)]
        index = {s: i for i, s in enumerate(sorted(set(sigs)))}
        if len(index) == len(set(colors)):
            return colors
        colors = [index[s] for s in sigs]


def _cells(colors) -> set:
    cells: dict = {}
    for p, c in enumerate(colors):
        cells.setdefault(c, set()).add(p)
    return {frozenset(cell) for cell in cells.values()}


CHAINED = {
    "pg3": lambda: pg_sts(3),
    "bose27": lambda: bose(27),
    "double_base13": lambda: double(base_sts(13)),
}


@pytest.mark.parametrize("name", CHAINED)
def test_child_refinement_matches_refinement_from_seed(name):
    """Refining the parent's coloring gives the cells that refining the seed
    with the whole sequence individualized gives."""
    ts = CHAINED[name]()
    rng = random.Random(name)
    for _ in range(6):
        data = _SearchData(ts)
        colors, _, _ = data.refine(data.seed, ())
        seq = ()
        assert _cells(colors) == _cells(_from_seed(data, seq))
        for depth in range(1, 4):
            cells = [c for c in _cells(colors) if len(c) > 1]
            if not cells:
                break
            seq += (rng.choice(sorted(rng.choice(sorted(cells, key=min)))),)
            colors, _, _ = data.refine(colors, seq)
            assert _cells(colors) == _cells(_from_seed(data, seq))
            assert [colors[p] for p in seq] == list(range(depth))  # marked points first


FROM_SEED_REFINE_CALLS = {
    "pg3": (lambda: pg_sts(3), 24),
    "pg4": (lambda: pg_sts(4), 40),
    "bose9": (lambda: bose(9), 13),
    "bose27": (lambda: bose(27), 277),
    "double_bose9": (lambda: double(bose(9)), 24),
    "moore_1_7_3": (lambda: _moore(1, 7, 3), 6),
}


@pytest.mark.parametrize("name", FROM_SEED_REFINE_CALLS)
def test_oracle_systems_need_no_more_nodes(name):
    """Nodes per search on the benchmark's oracle systems, at most their
    count when every node refined from the seed."""
    make, calls = FROM_SEED_REFINE_CALLS[name]
    stats = _canonical_labeling(make()).stats
    assert stats.refine_calls <= calls
    assert stats.rounds >= stats.refine_calls  # each node refines at least once


REFERENCE_SEEDED = {
    **SEEDED,
    **CHAINED,
    **{name: make for name, (make, _) in FROM_SEED_REFINE_CALLS.items()},
}


@pytest.mark.parametrize("name", REFERENCE_SEEDED)
def test_seed_refines_the_reference_pasch_counts(name):
    """Points with different Pasch counts in the reference search get
    different seed colors: the points on 2-cycles, summed over a point's
    pairs, are 4 times its Pasch count plus n."""
    ts = REFERENCE_SEEDED[name]()
    seed = _seed(ts)
    reference = _Data(ts).seed
    assert len(set(zip(seed, reference))) == len(set(seed))


def _relabeled_triples(ts, lab) -> tuple:
    return tuple(sorted(tuple(sorted(lab[p] for p in t)) for t in ts.iter_triples()))


def test_leaf_keys_compare_like_sorted_triples():
    ts = bose(27)
    data = _SearchData(ts)
    rng = random.Random(0)
    labelings = []
    for _ in range(12):
        lab = list(range(ts.n))
        rng.shuffle(lab)
        labelings.append(tuple(lab))
        lab[0], lab[1] = lab[1], lab[0]  # a near neighbour: keys share a long prefix
        labelings.append(tuple(lab))
    keys = [_leaf_key(data, lab) for lab in labelings]
    rows = [_relabeled_triples(ts, lab) for lab in labelings]
    for i in range(len(labelings)):
        for j in range(len(labelings)):
            assert (keys[i] < keys[j]) == (rows[i] < rows[j])
            assert (keys[i] == keys[j]) == (rows[i] == rows[j])
    canon = _canonical_labeling(ts)
    assert canon.form == (ts.n, _relabeled_triples(ts, canon.labeling))
    assert all(type(x) is int for t in canon.form[1] for x in t)


CHAIN_SYSTEMS = {
    **{name: make for name, (make, _) in FROM_SEED_REFINE_CALLS.items()},
    "random15": SEEDED["random15"],
    "bose45": lambda: bose(45),
    "pg5": lambda: pg_sts(5),
    "empty30": lambda: PartialTripleSystem(30, []),
}
# adding a transposition to these 2-transitive groups gives S_31 and S_63,
# 3 s and 40 s of Schreier-Sims whichever chain it starts from
EXTEND_TOO_SLOW = {"pg4", "pg5"}


@pytest.mark.parametrize("name", CHAIN_SYSTEMS)
def test_chain_from_search_path_matches_schreier_sims(name):
    """The chain read off the search path answers as Schreier-Sims does on
    the same generators."""
    ts = CHAIN_SYSTEMS[name]()
    group = automorphism_group(ts)
    ref = PermutationGroup.from_generators(ts.n, group.generators)
    assert group.order == ref.order
    assert group.generators == ref.generators
    rng = random.Random(name)
    words = group.generators or [tuple(range(ts.n))]
    candidates = []
    for _ in range(8):
        p = tuple(range(ts.n))
        for g in rng.choices(words, k=rng.randint(1, 6)):
            p = compose(p, g)
        candidates.append(p)
        swap = list(p)  # a near miss: one transposition away from a member
        i, j = rng.sample(range(ts.n), 2)
        swap[i], swap[j] = swap[j], swap[i]
        candidates.append(tuple(swap))
        shuffled = list(range(ts.n))
        rng.shuffle(shuffled)
        candidates.append(tuple(shuffled))
    for p in candidates:
        assert (p in group) == (p in ref) == is_automorphism(ts, p)
    if group.order <= 10**5:
        assert len(set(group.elements())) == group.order
        assert len(set(ref.elements())) == ref.order
    if name not in EXTEND_TOO_SLOW:
        transposition = (1, 0) + tuple(range(2, ts.n))
        group.extend(transposition)
        ref.extend(transposition)
        assert group.order == ref.order


def test_bose81_group():
    """39,121 leaves and 30-39 s before leaves were ranked by their traces."""
    ts = bose(81)
    group = automorphism_group(ts)
    assert group.order == 1458
    assert all(is_automorphism(ts, g) for g in group.generators)
    assert PermutationGroup.from_generators(ts.n, group.generators).order == 1458


LEAF_CEILINGS = {
    "bose27": (lambda: bose(27), 10),  # 233 leaves when ranked by key alone
    "bose45": (lambda: bose(45), 30),  # 2,139
}


@pytest.mark.parametrize("name", LEAF_CEILINGS)
def test_trace_keeps_leaves_near_the_group(name):
    make, ceiling = LEAF_CEILINGS[name]
    stats = _canonical_labeling(make()).stats
    assert stats.leaves <= ceiling
    assert 0 < stats.trace_stopped < stats.refine_calls


def _relabeled(ts, rng):
    perm = list(range(ts.n))
    rng.shuffle(perm)
    return TripleSystem.from_triples(
        ts.n, [tuple(perm[p] for p in t) for t in ts.iter_triples()]
    )


def _triple_set(ts) -> set:
    return {frozenset(t) for t in ts.iter_triples()}


RELABELED = {
    "bose27": (lambda: bose(27), 8),
    "bose45": (lambda: bose(45), 1),
    "pg4": (lambda: pg_sts(4), 3),
}


@pytest.mark.parametrize("name", RELABELED)
def test_relabeled_copies_share_the_canonical_form(name):
    """Each copy starts the search from other points, so its first leaves
    and the bests it replaces differ; the form may not, and no generator
    found may be redundant."""
    make, copies = RELABELED[name]
    ts = make()
    form = canonical_form(ts)
    rng = random.Random(name)
    for _ in range(copies):
        other = _relabeled(ts, rng)
        canon = _canonical_labeling(other)
        assert canon.form == form
        ref = PermutationGroup.from_generators(ts.n, canon.automorphisms)
        assert ref.generators == canon.automorphisms
        cert = are_isomorphic(ts, other)
        assert cert.isomorphic
        mapped = {frozenset(cert.mapping[p] for p in t) for t in ts.iter_triples()}
        assert mapped == _triple_set(other)


def _pasch_switched(ts):
    """`ts` with one Pasch configuration abc, ayz, xbz, xyc traded for
    xyz, xbc, ayc, abz (found with c = third(a, b), z = third(x, b),
    y = third(x, c))."""
    third = ts.incidence.third
    a, b, c = ts.triples[0].tolist()
    for x in range(ts.n):
        if x in (a, b, c):
            continue
        z, y = third[x][b], third[x][c]
        if third[y][z] == a:
            old = {frozenset(t) for t in ((a, b, c), (a, y, z), (x, b, z), (x, y, c))}
            rows = [t for t in ts.iter_triples() if frozenset(t) not in old]
            rows += [(x, y, z), (x, b, c), (a, y, c), (a, b, z)]
            return TripleSystem.from_triples(ts.n, rows)
    raise AssertionError("no Pasch configuration through the first triple")


def test_switched_copy_is_not_isomorphic():
    ts = pg_sts(4)
    other = _pasch_switched(_relabeled(ts, random.Random(4)))
    assert _triple_set(other) != _triple_set(ts)
    assert canonical_form(other) != canonical_form(ts)
    assert not are_isomorphic(ts, other).isomorphic
    assert automorphism_group(other).order < automorphism_group(ts).order
