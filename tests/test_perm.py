"""Permutation group machinery: composition, sifting, chains, orbits."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stslab import automorphism_group, pg_sts
from stslab.perm import (
    PermutationGroup,
    compose,
    cycle_string,
    identity,
    inverse,
    is_permutation,
    orbit_of,
    orbits_of,
)


def _random_perm(n, rng):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def test_compose_inverse_identity():
    rng = random.Random(0)
    for _ in range(50):
        p = _random_perm(8, rng)
        assert compose(p, inverse(p)) == identity(8)
        assert compose(inverse(p), p) == identity(8)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_compose_associative(seed):
    rng = random.Random(seed)
    p, q, r = (_random_perm(6, rng) for _ in range(3))
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_is_permutation():
    assert is_permutation((2, 0, 1))
    assert not is_permutation((0, 0, 1))
    assert not is_permutation((0, 3, 1))


def test_cycle_string():
    assert cycle_string((0, 1, 2)) == "()"
    assert cycle_string((1, 2, 0)) == "(0 1 2)"
    assert cycle_string((1, 0, 3, 2)) == "(0 1)(2 3)"


@pytest.mark.parametrize(
    "degree,gens,order",
    [
        (4, [(1, 0, 2, 3), (1, 2, 3, 0)], 24),  # S4
        (5, [(1, 2, 3, 4, 0)], 5),  # C5
        (6, [(1, 2, 3, 4, 5, 0), (5, 4, 3, 2, 1, 0)], 12),  # D6
        (8, [(1, 0) + tuple(range(2, 8)), (1, 2, 3, 4, 5, 6, 7, 0)], 40320),  # S8
        (3, [], 1),
    ],
)
def test_group_orders(degree, gens, order):
    g = PermutationGroup.from_generators(degree, gens)
    assert g.order == order


def test_membership_matches_bruteforce_s4():
    g = PermutationGroup.from_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    for p in itertools.permutations(range(4)):
        assert p in g


def test_membership_alternating():
    # A4 from two 3-cycles: odd permutations must be rejected
    g = PermutationGroup.from_generators(4, [(1, 2, 0, 3), (0, 2, 3, 1)])
    assert g.order == 12
    assert (1, 0, 2, 3) not in g
    assert (1, 2, 0, 3) in g


def test_elements_distinct_and_closed():
    g = PermutationGroup.from_generators(6, [(1, 2, 3, 4, 5, 0), (5, 4, 3, 2, 1, 0)])
    elems = list(g.elements())
    assert len(elems) == len(set(elems)) == 12
    eset = set(elems)
    for p in elems:
        for q in elems:
            assert compose(p, q) in eset


def test_extend_incremental():
    g = PermutationGroup.trivial(5)
    assert g.order == 1
    assert g.extend((1, 2, 3, 4, 0))
    assert g.order == 5
    assert not g.extend((1, 2, 3, 4, 0))  # already present
    assert g.extend((1, 0, 2, 3, 4))
    assert g.order == 120


def test_chain_keeps_only_sifted_residues():
    # only nontrivial residues enter the chain, each at the level where it
    # fell out of the sift: it fixes the base points above and moves its own
    group = automorphism_group(pg_sts(4))
    assert len(group._strong) <= 30
    for level, g in group._strong:
        bases = [lvl.base_point for lvl in group._levels[: level + 1]]
        assert all(g[b] == b for b in bases[:-1]) and g[bases[-1]] != bases[-1]


def test_orbit_functions():
    gens = [(1, 2, 0, 3, 4), (0, 1, 2, 4, 3)]
    assert orbit_of(0, gens) == frozenset({0, 1, 2})
    assert orbits_of(range(5), gens) == [frozenset({0, 1, 2}), frozenset({3, 4})]
    g = PermutationGroup.from_generators(5, gens)
    assert g.orbit(3) == frozenset({3, 4})


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 7), st.integers(1, 3))
def test_order_divides_factorial_and_contains_gens(seed, n, ngens):
    rng = random.Random(seed)
    gens = [_random_perm(n, rng) for _ in range(ngens)]
    g = PermutationGroup.from_generators(n, gens)
    fact = 1
    for i in range(2, n + 1):
        fact *= i
    assert fact % g.order == 0
    for p in gens:
        assert p in g
    assert len(set(g.elements())) == g.order


def _closure(n, gens):
    """The group generated by gens, by BFS from the identity; no chain involved."""
    seen = {identity(n)}
    frontier = [identity(n)]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in seen:
                    seen.add(q)
                    new.append(q)
        frontier = new
    return seen


@pytest.mark.parametrize("seed", range(40))
def test_chain_matches_bruteforce_closure(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    g = PermutationGroup.trivial(n)
    added, group = [], {identity(n)}
    for _ in range(rng.randint(1, 4)):
        # an element already in the group must not grow it
        assert not g.extend(rng.choice(sorted(group)))
        # generators fixing points 0 and 1 put their residues on deep levels
        low = 2 if n >= 4 and rng.random() < 0.5 else 0
        p = tuple(range(low)) + tuple(low + i for i in _random_perm(n - low, rng))
        assert g.extend(p) == (p not in group)
        added.append(p)
        group = _closure(n, added)
        assert g.order == len(group)
    for p in itertools.permutations(range(n)):
        assert (p in g) == (p in group)
