"""Order arithmetic for the three-system product at astronomical sizes.

Everything here is exact big-integer arithmetic: choosing the Mersenne
factor K, the residue bookkeeping for Delta mod 24K, and solving for the
parameter tuple realizing a target order u = x + v(y - x).  No triple
system is ever materialized at these sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .system import VerificationError

ADMISSIBLE_DELTAS = (1, 3, 7, 9, 13, 15, 19, 21)  # residues = 1, 3 mod 6 below 24


class ParameterError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    """Trial division up to sqrt(n): exact, and `choose_K` only asks about
    small exponents."""
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def choose_K(v1: int, v2: int) -> tuple:
    """Pick (k, K) with K = 2^k - 1 = 7 (mod 24) coprime to v1-1, v2-1.

    Every odd k >= 3 already gives 2^k = 8 (mod 24), hence K = 7 (mod 24);
    k is the smallest prime above 3 with gcd(K, vi - 1) = 1, checked
    directly.
    """
    if v1 % 2 == 0 or v2 % 2 == 0 or v1 < 3 or v2 < 3:
        raise ParameterError("component orders must be odd and >= 3")
    k = 5
    while not _is_prime(k) or math.gcd((1 << k) - 1, (v1 - 1) * (v2 - 1)) != 1:
        k += 2
    K = (1 << k) - 1
    if K % 24 != 7 or math.gcd(K, v1 - 1) != 1 or math.gcd(K, v2 - 1) != 1:
        raise VerificationError(f"K = 2^{k} - 1 fails K = 7 (mod 24) or coprimality")
    return k, K


def delta_of(delta: int, r: int, K: int, v: int) -> int:
    """The exact offset delta(1 - v) - vK + 24r(1 - v)."""
    _check_delta_r(delta, r, K)
    return delta * (1 - v) - v * K + 24 * r * (1 - v)


def _check_delta_r(delta: int, r: int, K: int) -> None:
    if delta not in ADMISSIBLE_DELTAS:
        raise ParameterError(f"delta must be in {ADMISSIBLE_DELTAS}, got {delta}")
    if not 0 <= r < K:
        raise ParameterError(f"need 0 <= r < K, got r={r}, K={K}")


def residue_coverage(K: int, v1: int, v2: int) -> frozenset:
    """All values of the offset mod 24K over admissible (delta, r, v)."""
    for v in (v1, v2):
        if math.gcd(24 * (v - 1), K) != 1:
            raise ParameterError(
                f"need gcd(24(v - 1), K) = 1, violated for v = {v}, K = {K}"
            )
    mod = 24 * K
    return frozenset(
        delta_of(d, r, K, v) % mod
        for d in ADMISSIBLE_DELTAS
        for r in range(K)
        for v in (v1, v2)
    )


def threshold(v2: int, K: int, delta_offset: int) -> int:
    """First order from which the (delta, r, v) residue class is realized."""
    return delta_offset + 8 * 24 * K * K * v2 * 8 * K * v2


def global_threshold(v1: int, v2: int, K: int) -> int:
    """Order from which every admissible residue class is solvable.

    Considers both construction branches (factor 1 and factor K); above
    the worst per-class threshold the solver is total.
    """
    return max(
        threshold(v2, kk, delta_of(d, r, kk, v))
        for kk in (1, K)
        for d in ADMISSIBLE_DELTAS
        for r in range(kk)
        for v in (v1, v2)
    )


def corollary26_bounds(v_star: int) -> tuple:
    """Worst-case component sizes (max |V1|, bound on |V2|)."""
    return (2**24 * v_star**5, 2**144 * v_star**25)


def k_bound_expression(v_star: int) -> str:
    """Symbolic bound on K; far too large to materialize."""
    return f"2**(2**169 * {v_star}**30)"


def n_bound(v_star: int, K: int | None = None) -> int:
    """Upper bound on the first realizable order, for worst-case |V2|.

    With K supplied the bound is 24K + 1536 K^3 |V2|^2 at the Corollary
    |V2| bound (the additive offset is below 24K in absolute value).
    Without K the Mersenne factor for the two bound sizes is used.
    """
    _, v2 = corollary26_bounds(v_star)
    if K is None:
        # the bound sizes are even, so apply the coprimality condition to
        # the nearest odd sizes
        _, K = choose_K(2**24 * v_star**5 + 1, v2 + 1)
    return 24 * K + 1536 * K**3 * v2**2


@dataclass(frozen=True)
class ParameterSolution:
    """A certified parameter tuple realizing the order u exactly."""

    u: int
    v1: int
    v2: int
    k: int
    K: int
    delta: int
    r: int
    t: int
    a: int
    v_choice: int  # the v actually used (v1 or v2)
    x: int
    y: int
    delta_offset: int
    branch: str  # congruence class of y mod 8 selecting the construction path

    def check(self) -> list:
        """Re-derive every invariant; returns a list of violations."""
        problems = []
        d, r, K, t, a, v = self.delta, self.r, self.K, self.t, self.a, self.v_choice
        try:
            if self.delta_offset != delta_of(d, r, K, v):
                problems.append("offset formula violated")
        except ParameterError as e:
            problems.append(str(e))
        if K != (1 << self.k) - 1 or (K != 1 and K % 24 != 7):
            problems.append("K is neither 1 nor a Mersenne number = 7 mod 24")
        if any(w % 2 == 0 or w < 3 for w in (self.v1, self.v2)):
            problems.append("component orders must be odd and >= 3")
        if math.gcd(K, (self.v1 - 1) * (self.v2 - 1)) != 1:
            problems.append("K shares a factor with v1 - 1 or v2 - 1")
        if v not in (self.v1, self.v2):
            problems.append("v_choice is neither component order")
        if not (a > t >= 0):
            problems.append(f"need a > t >= 0, got a={a}, t={t}")
        if self.x != d + 24 * r + 24 * K * t:
            problems.append("x formula violated")
        if self.y != K * (-1 + 8 * 24 * K * a + 24 * t):
            problems.append("y formula violated")
        if self.u != self.x + v * (self.y - self.x):
            problems.append("u != x + v(y - x)")
        if self.u != self.delta_offset + 8 * 24 * K * K * v * a + 24 * K * t:
            problems.append("expanded order identity violated")
        if a < 8 * K * self.v2:
            problems.append(f"need a >= 8K*v2 = {8 * K * self.v2}, got {a}")
        if self.y - self.x <= 6 * self.v2:
            problems.append("need y - x > 6*v2")
        if self.y < (8 * self.x + 7) * K:
            problems.append("need y >= (8x + 7)K")
        if self.u % 6 not in (1, 3):
            problems.append("u is not an admissible order")
        if self.branch != f"y mod 8 = {self.y % 8}":
            problems.append("branch tag does not match y")
        return problems

    def to_text(self) -> str:
        lines = [f"{k} = {getattr(self, k)}" for k in (
            "u", "v1", "v2", "k", "K", "delta", "r", "t", "a",
            "v_choice", "x", "y", "delta_offset",
        )]
        lines.append(f"branch = {self.branch}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ParameterSolution":
        fields: dict = {}
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            if "=" not in line:
                raise ParameterError(f"line {line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in cls.__dataclass_fields__:
                raise ParameterError(f"line {line_no}: unknown key {key!r}")
            try:
                fields[key] = value if key == "branch" else int(value)
            except ValueError:
                raise ParameterError(f"line {line_no}: {key} = {value!r} is not an integer")
        missing = {f for f in cls.__dataclass_fields__} - set(fields)
        if missing:
            raise ParameterError(f"certificate missing fields: {sorted(missing)}")
        return cls(**fields)


def solve_order(u: int, v1: int, v2: int) -> ParameterSolution:
    """Realize the order u exactly; total above the residue threshold.

    Tries both construction branches (factor 1 and the Mersenne factor),
    scans admissible (delta, r, v) for the residue class of u, then splits
    the quotient by the division algorithm into the (a, t) pair.  The
    Mersenne factor is `choose_K(v1, v2)`.  When several branches work,
    the smallest resulting y wins.
    """
    if u % 6 not in (1, 3):
        raise ParameterError(f"{u} is not an admissible order (need 1 or 3 mod 6)")
    k, K = choose_K(v1, v2)
    best: ParameterSolution | None = None
    min_threshold = None
    for kk, KK in ((1, 1), (k, K)):
        mod = 24 * KK
        for v in (v1, v2):
            for d in ADMISSIBLE_DELTAS:
                for r in range(KK):
                    off = delta_of(d, r, KK, v)
                    if (u - off) % mod != 0:
                        continue
                    thresh = threshold(v2, KK, off)
                    if min_threshold is None or thresh < min_threshold:
                        min_threshold = thresh
                    if u < thresh:
                        continue
                    a, t = divmod((u - off) // mod, 8 * KK * v)
                    x = d + 24 * r + 24 * KK * t
                    y = KK * (-1 + 8 * 24 * KK * a + 24 * t)
                    sol = ParameterSolution(
                        u=u, v1=v1, v2=v2, k=kk, K=KK, delta=d, r=r, t=t, a=a,
                        v_choice=v, x=x, y=y, delta_offset=off,
                        branch=f"y mod 8 = {y % 8}",
                    )
                    if sol.check():
                        continue
                    if best is None or y < best.y:
                        best = sol
    if best is None:
        hint = (
            f"; the matching residue classes start at {min_threshold}"
            if min_threshold is not None
            else "; no (delta, r, v) branch matches u mod 24K"
        )
        raise ParameterError(f"order {u} is below the solvable range{hint}")
    return best
