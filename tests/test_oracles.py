"""The search engine against independent oracles.

- |Aut| against the orbit-stabilizer reference search in `aut_reference`;
- |Aut| against brute force over S_n for n <= 9;
- |Aut| of PG(d, 2) and AG(2, 3) against |GL(d+1, 2)| and |AGL(2, 3)|;
- `are_isomorphic` verdicts against networkx VF2 on point-triple incidence
  graphs for n <= 21.
"""

import functools
import itertools
import math
import random

import networkx as nx
import pytest
from aut_reference import reference_automorphism_group

from stslab import (
    MooreInput,
    PartialTripleSystem,
    are_isomorphic,
    automorphism_group,
    base_sts,
    bose,
    build_qr,
    direct_product,
    double,
    embed_subsystem,
    is_automorphism,
    moore,
    pg_sts,
)
from stslab.constructions import random_sts
from stslab.pstss import cyclic_pstss


def _moore(x, y, v):
    return moore(MooreInput.build(*embed_subsystem(x, y), base_sts(v)))


def _random(n, seed):
    return random_sts(n, random.Random(seed))


# double(base_sts(13)) and the Moore product (1,9,3) are left out: the
# reference search takes tens of seconds on each.
SYSTEMS = {
    "fano": lambda: base_sts(7),
    "bose9": lambda: bose(9),
    "pg3": lambda: pg_sts(3),
    **{f"base{n}": lambda n=n: base_sts(n) for n in (13, 15, 19, 21, 27)},
    "double_bose9": lambda: double(bose(9)),
    "product_3_pg2": lambda: direct_product(base_sts(3), pg_sts(2)),
    "moore_1_7_3": lambda: _moore(1, 7, 3),
    "moore_3_7_3": lambda: _moore(3, 7, 3),
    **{f"qr{r}": lambda r=r: build_qr(r) for r in (1, 2, 3, 4)},
    **{f"cyclic{t}": lambda t=t: cyclic_pstss(t).system for t in (3, 4, 6)},
    **{f"empty{n}": lambda n=n: PartialTripleSystem(n, []) for n in range(6)},
    **{f"random{n}_seed{s}": lambda n=n, s=s: _random(n, s) for n in (13, 15) for s in (0, 1)},
}
LABELINGS = (0, 1, 2)  # 0 is the system as built; 1 and 2 are seeded relabelings


def _relabel(ts, seed):
    perm = list(range(ts.n))
    random.Random(seed).shuffle(perm)
    return type(ts).from_triples(ts.n, [tuple(perm[p] for p in t) for t in ts.iter_triples()])


@functools.lru_cache(maxsize=None)
def _system(name, labeling):
    ts = SYSTEMS[name]()
    return _relabel(ts, f"{name}/{labeling}") if labeling else ts


SMALL = [name for name in SYSTEMS if _system(name, 0).n <= 9]


@functools.lru_cache(maxsize=None)
def _reference_order(name):
    # |Aut| does not depend on the labeling, so the slow reference runs once
    return reference_automorphism_group(_system(name, 0)).order


def _brute_force_order(ts):
    triples = list(ts.iter_triples())
    target = set(triples)
    return sum(
        all(tuple(sorted((p[a], p[b], p[c]))) in target for a, b, c in triples)
        for p in itertools.permutations(range(ts.n))
    )


@pytest.mark.parametrize("labeling", LABELINGS)
@pytest.mark.parametrize("name", SYSTEMS)
def test_aut_order_matches_reference_search(name, labeling):
    assert automorphism_group(_system(name, labeling)).order == _reference_order(name)


@pytest.mark.parametrize("labeling", LABELINGS)
@pytest.mark.parametrize("name", SMALL)
def test_aut_order_matches_brute_force(name, labeling):
    ts = _system(name, labeling)
    assert automorphism_group(ts).order == _brute_force_order(ts)


def _gl_order(k, q):
    """|GL(k, q)| = (q^k - 1)(q^k - q)...(q^k - q^(k-1))."""
    return math.prod(q**k - q**i for i in range(k))


CLASSICAL = {
    **{f"pg{d}": (lambda d=d: pg_sts(d), _gl_order(d + 1, 2)) for d in (2, 3, 4)},
    "bose9": (lambda: bose(9), 3**2 * _gl_order(2, 3)),  # AG(2, 3): |AGL(2, 3)|
}


@pytest.mark.parametrize("name", CLASSICAL)
def test_aut_order_matches_classical_group(name):
    build, order = CLASSICAL[name]
    ts = build()
    group = automorphism_group(ts)
    assert group.order == order
    assert all(is_automorphism(ts, g) for g in group.generators)


def test_empty_system_has_full_symmetric_group():
    assert automorphism_group(PartialTripleSystem(30, [])).order == math.factorial(30)


def _incidence_graph(ts):
    """Point-triple incidence graph; each node is labeled by its Pasch count.

    The label (Pasch configurations through a triple, summed over the
    triples through a point) is an isomorphism invariant, so it leaves the
    verdict unchanged; it only keeps VF2 from backtracking for minutes on
    non-isomorphic pairs.
    """
    third = {}
    for a, b, c in ts.iter_triples():
        third[a, b] = third[b, a] = c
        third[a, c] = third[c, a] = b
        third[b, c] = third[c, b] = a
    g = nx.Graph()
    g.add_nodes_from(range(ts.n), label=0)
    for j, (a, b, c) in enumerate(ts.iter_triples()):
        pasch = 0
        for x in range(ts.n):
            y, z = third.get((a, x)), third.get((b, x))
            if y is not None and z is not None and third.get((c, y)) == z:
                pasch += 1
        g.add_node(ts.n + j, label=-1 - pasch)  # negative: triple nodes
        for p in (a, b, c):
            g.add_edge(p, ts.n + j)
            g.nodes[p]["label"] += pasch
    return g


def _vf2_isomorphic(a, b):
    return nx.is_isomorphic(
        _incidence_graph(a),
        _incidence_graph(b),
        node_match=lambda x, y: x["label"] == y["label"],
    )


# Relabeled copies of base21, product_3_pg2 and double_bose9 are left out:
# VF2 takes 25 s to 5 min to match them on a 2-vCPU machine.
ISO_PAIRS = {
    **{
        f"{name}_relabeled": lambda name=name: (_system(name, 0), _system(name, 1))
        for name in (
            "fano", "bose9", "pg3", "base13", "random13_seed0", "random15_seed1", "cyclic6", "qr2",
        )
    },
    "base15_pg3": lambda: (_system("base15", 0), _system("pg3", 1)),
    "base21_product": lambda: (_system("base21", 1), _system("product_3_pg2", 0)),
    "double_bose9_base19": lambda: (_system("double_bose9", 0), _system("base19", 2)),
    "random13_pair": lambda: (_random(13, 0), _relabel(_random(13, 2), 0)),
    "random15_pair": lambda: (_random(15, 3), _relabel(_random(15, 4), 0)),
    "random19_pair": lambda: (_random(19, 0), _relabel(_random(19, 1), 0)),
}


@pytest.mark.parametrize("pair", ISO_PAIRS)
def test_iso_verdict_matches_vf2(pair):
    a, b = ISO_PAIRS[pair]()
    cert = are_isomorphic(a, b)
    assert cert.isomorphic == _vf2_isomorphic(a, b)
    if cert.isomorphic:
        target = set(b.iter_triples())
        assert all(tuple(sorted(cert.mapping[p] for p in t)) in target for t in a.iter_triples())
