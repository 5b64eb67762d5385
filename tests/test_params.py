"""Exact big-integer order arithmetic."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stslab import (
    ParameterError,
    ParameterSolution,
    choose_K,
    corollary26_bounds,
    delta_of,
    global_threshold,
    k_bound_expression,
    n_bound,
    residue_coverage,
    solve_order,
    threshold,
)
from stslab.params import ADMISSIBLE_DELTAS, _is_prime


def test_admissible_deltas():
    assert ADMISSIBLE_DELTAS == (1, 3, 7, 9, 13, 15, 19, 21)
    assert all(d % 6 in (1, 3) for d in ADMISSIBLE_DELTAS)


def test_choose_K_smallest():
    k, K = choose_K(3, 9)
    assert K == (1 << k) - 1
    assert K % 24 == 7
    assert math.gcd(K, 2) == 1


def test_choose_K_order_strategy_sufficient():
    for v1, v2 in [(3, 9), (7, 15), (9, 87)]:
        k, K = choose_K(v1, v2)
        assert K == (1 << k) - 1 and K % 24 == 7
        assert math.gcd(K, v1 - 1) == 1 and math.gcd(K, v2 - 1) == 1


def test_choose_K_skips_mersenne_numbers_sharing_a_factor():
    # 31 divides 62 = v1 - 1, so k = 5 is passed over for k = 7
    assert choose_K(63, 9) == (7, 127)
    # 127 divides 254 = v2 - 1 as well, and k = 9 is not prime
    assert choose_K(63, 255) == (11, 2047)


def test_choose_K_rejects_even():
    with pytest.raises(ParameterError):
        choose_K(4, 9)


def test_delta_of_validation():
    with pytest.raises(ParameterError):
        delta_of(2, 0, 1, 3)
    with pytest.raises(ParameterError):
        delta_of(1, 5, 1, 3)


def test_residue_row_K1():
    got = [delta_of(d, 0, 1, 3) % 24 for d in (1, 3, 7, 9)]
    assert got == [19, 15, 7, 3]


def test_residue_row_K7_class():
    vals = {delta_of(d, r, 7, 3) % 24 for d in ADMISSIBLE_DELTAS for r in range(7)}
    assert {1, 9, 13, 21} <= vals


def test_residue_coverage_complete():
    admissible_mod24 = {x for x in range(24) if x % 6 in (1, 3)}
    both = {x % 24 for x in residue_coverage(1, 3, 9)}
    both |= {x % 24 for x in residue_coverage(31, 3, 9)}
    assert both >= admissible_mod24


def test_residue_coverage_precondition():
    with pytest.raises(ParameterError):
        residue_coverage(7, 15, 9)  # gcd(24*14, 7) = 7


def test_threshold_formula():
    assert threshold(3, 1, 0) == 1536 * 9
    assert threshold(5, 7, 10) == 10 + 1536 * 343 * 25


def test_solver_window_total():
    v1, v2 = 3, 9
    _, K = choose_K(v1, v2)
    start = global_threshold(v1, v2, K)
    start += (1 - start) % 6  # first admissible order at or after start
    solved = 0
    for u in range(start, start + 48 * K, 2):
        if u % 6 not in (1, 3):
            continue
        sol = solve_order(u, v1, v2)
        assert sol.check() == []
        assert sol.u == sol.x + sol.v_choice * (sol.y - sol.x)
        solved += 1
    # the window holds 8K full residue cycles, two admissible orders each
    assert solved == 16 * K


def test_solver_below_threshold_raises():
    with pytest.raises(ParameterError):
        solve_order(25, 3, 9)


def test_solver_rejects_inadmissible():
    with pytest.raises(ParameterError):
        solve_order(10**6, 3, 9)  # 10**6 = 4 mod 6


def test_certificate_roundtrip():
    v1, v2 = 3, 9
    _, K = choose_K(v1, v2)
    u = global_threshold(v1, v2, K)
    u += (1 - u) % 6
    sol = solve_order(u, v1, v2)
    again = ParameterSolution.from_text(sol.to_text())
    assert again == sol
    assert again.check() == []


# field -> (its tampered value, given the solution; the violation it names)
_TAMPERED = {
    "u": (lambda s: s.u + 1, "u is not an admissible order"),
    "v1": (lambda s: 4, "component orders must be odd and >= 3"),
    "v2": (lambda s: s.v2 + 24, "v_choice is neither component order"),
    "k": (lambda s: s.k + 1, "K is neither 1 nor a Mersenne number = 7 mod 24"),
    "K": (lambda s: s.K + 24, "K is neither 1 nor a Mersenne number = 7 mod 24"),
    "delta": (lambda s: s.delta + 24, "delta must be in"),
    "r": (lambda s: s.K, "need 0 <= r < K"),
    "t": (lambda s: s.a, "need a > t >= 0"),
    "a": (lambda s: s.a - 1, "need a >= 8K*v2"),
    "v_choice": (lambda s: s.v_choice + 24, "v_choice is neither component order"),
    "x": (lambda s: s.x + 24, "x formula violated"),
    "y": (lambda s: s.y + 24, "y formula violated"),
    "delta_offset": (lambda s: s.delta_offset + 24, "offset formula violated"),
    "branch": (lambda s: "y mod 8 = 9", "branch tag does not match y"),
}
# v1 = 63 keeps every formula (v_choice = 9), but K = 31 divides v1 - 1 = 62
_SHARED_FACTOR = ("v1", lambda s: 63, "K shares a factor with v1 - 1 or v2 - 1")


@pytest.mark.parametrize(
    "field,tamper,violation",
    [(f, *case) for f, case in _TAMPERED.items()] + [_SHARED_FACTOR],
    ids=[*_TAMPERED, "v1_shares_a_factor_with_K"],
)
def test_certificate_check_catches_tampering(field, tamper, violation):
    v1, v2 = 3, 9
    _, K = choose_K(v1, v2)
    u = global_threshold(v1, v2, K)
    u += (1 - u) % 6
    sol = solve_order(u, v1, v2)
    assert (sol.K, sol.v_choice) == (31, 9)
    bad = dataclasses.replace(sol, **{field: tamper(sol)})
    assert any(p.startswith(violation) for p in bad.check())


def test_is_prime_matches_a_sieve():
    sieve = [False, False] + [True] * 9998
    for p in range(2, 100):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
    assert [_is_prime(k) for k in range(10_000)] == sieve


def test_certificate_parse_errors():
    with pytest.raises(ParameterError):
        ParameterSolution.from_text("u = 3\n")
    with pytest.raises(ParameterError):
        ParameterSolution.from_text("garbage line\n")
    with pytest.raises(ParameterError, match=r"line 2: u = 'abc' is not an integer"):
        ParameterSolution.from_text("v1 = 3\nu = abc\n")
    with pytest.raises(ParameterError, match=r"line 1: unknown key 'colour'"):
        ParameterSolution.from_text("colour = 3\n")


def test_corollary_bounds_and_symbolic_K():
    lo, hi = corollary26_bounds(3)
    assert lo == 2**24 * 3**5
    assert hi == 2**144 * 3**25
    assert k_bound_expression(3) == "2**(2**169 * 3**30)"
    bound = n_bound(3, K=7)
    assert bound == 24 * 7 + 1536 * 7**3 * hi**2


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(ADMISSIBLE_DELTAS),
    st.integers(0, 6),
    st.integers(0, 10**6),
    st.integers(1, 10**6),
)
def test_order_identity_random(delta, r, t, a_extra):
    # the expanded identity u = offset + 1536 K^2 v a + 24 K t holds exactly
    K, v, v2 = 7, 9, 9
    a = 8 * K * v2 + a_extra
    off = delta_of(delta, r, K, v)
    x = delta + 24 * r + 24 * K * t
    y = K * (-1 + 8 * 24 * K * a + 24 * t)
    u = x + v * (y - x)
    assert u == off + 8 * 24 * K * K * v * a + 24 * K * t
