"""Permutations and permutation groups with exact order and membership.

Permutations are image tuples over 0..n-1.  Groups carry a deterministic
stabilizer chain so order and membership are exact: read off a known base
and strong generating set, or built from arbitrary generators by
Schreier-Sims.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def identity(n: int) -> tuple:
    return tuple(range(n))


def compose(p: tuple, q: tuple) -> tuple:
    """First apply p, then q: (p*q)(i) = q(p(i))."""
    return tuple(q[p[i]] for i in range(len(p)))


def inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


def is_permutation(p) -> bool:
    return sorted(p) == list(range(len(p)))


def cycle_string(p: tuple) -> str:
    seen = set()
    parts = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc = [i]
        j = p[i]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = p[j]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) or "()"


_ELEMENTS_LIMIT = 1_000_000  # elements() refuses larger groups: a million take seconds


class _ChainLevel:
    __slots__ = ("base_point", "transversal", "inverses", "checked")

    def __init__(self, base_point: int, degree: int):
        self.base_point = base_point
        # point -> perm mapping base->point; entries are never replaced, so
        # the Schreier generator of a checked pair stays the same element
        self.transversal: dict = {base_point: identity(degree)}
        self.inverses: dict = {base_point: identity(degree)}  # point -> inverse entry
        self.checked: set = set()  # (point, strong-generator index) pairs sifted

    def add(self, point: int, rep: tuple) -> None:
        self.transversal[point] = rep
        self.inverses[point] = inverse(rep)

    def grow(self, gens: list) -> None:
        """Close the orbit of the base point under gens, by breadth first."""
        frontier = list(self.transversal)
        while frontier:
            new = []
            for pt in frontier:
                for g in gens:
                    if g[pt] not in self.transversal:
                        self.add(g[pt], compose(self.transversal[pt], g))
                        new.append(g[pt])
            frontier = new


@dataclass
class PermutationGroup:
    """Group generated by `generators`, with a stabilizer chain for order.

    `from_generators` builds the chain by incremental Schreier-Sims (Sims
    1970; Seress, *Permutation Group Algorithms*, 2003, sec. 4.2), for any
    generators.  `from_base` reads it off a base and strong generating set
    known in advance (Seress, ch. 4): its precondition is that for every k
    the generators fixing base[:k] generate the stabilizer of base[:k], and
    that only the identity fixes the whole base.  Then each level is one
    orbit computation and no Schreier generator is sifted.

    `_strong` holds (level, perm) pairs.  A strong generator of level i
    fixes the base points of levels 0..i-1 and moves that of level i; under
    Schreier-Sims it is a residue that fell out of the sift at level i.  So
    the strong generators of level >= i are those fixing the first i base
    points, and level i records the orbit of its base point under them.
    """

    degree: int
    generators: list = field(default_factory=list)
    _levels: list = field(default_factory=list, repr=False)
    _strong: list = field(default_factory=list, repr=False)

    @classmethod
    def from_generators(cls, degree: int, generators) -> "PermutationGroup":
        g = cls(degree)
        for p in generators:
            g.extend(tuple(p))
        return g

    @classmethod
    def from_base(cls, degree: int, base, generators) -> "PermutationGroup":
        """The group of a base and strong generating set (see the class
        docstring for the precondition, which is not checked).  A base point
        fixed by every generator fixing the earlier ones gets no level."""
        g = cls(degree, [tuple(p) for p in generators])
        fixing = g.generators  # those fixing the base points so far
        for b in base:
            moving = [p for p in fixing if p[b] != b]
            if not moving:
                continue
            lvl = _ChainLevel(b, degree)
            lvl.grow(fixing)
            g._strong += [(len(g._levels), p) for p in moving]
            g._levels.append(lvl)
            fixing = [p for p in fixing if p[b] == b]
        return g

    @classmethod
    def trivial(cls, degree: int) -> "PermutationGroup":
        return cls(degree)

    @property
    def order(self) -> int:
        out = 1
        for lvl in self._levels:
            out *= len(lvl.transversal)
        return out

    def _sift(self, p: tuple, start: int = 0):
        """Reduce p through levels start..; return (residue, level_index)."""
        for i in range(start, len(self._levels)):
            lvl = self._levels[i]
            inv = lvl.inverses.get(p[lvl.base_point])
            if inv is None:
                return p, i
            p = compose(p, inv)
        return p, len(self._levels)

    def __contains__(self, p) -> bool:
        p = tuple(p)
        if len(p) != self.degree:
            return False
        residue, _ = self._sift(p)
        return residue == identity(self.degree)

    def extend(self, p: tuple) -> bool:
        """Add p to the group; return True if the group grew.

        A nontrivial residue of p becomes a strong generator at the level
        where it fell out, and the levels from there up to 0 are closed.  A
        residue found while closing is added the same way, restarting there.
        """
        p = tuple(p)
        residue, level = self._sift(p)
        if residue == identity(self.degree):
            return False
        self.generators.append(p)
        i = self._add_strong(residue, level)
        while i >= 0:
            found = self._close_level(i)
            i = self._add_strong(*found) if found else i - 1
        return True

    def _add_strong(self, g: tuple, level: int) -> int:
        if level == len(self._levels):  # g fixes every base point
            base_point = next(i for i in range(self.degree) if g[i] != i)
            self._levels.append(_ChainLevel(base_point, self.degree))
        self._strong.append((level, g))
        return level

    def _close_level(self, idx: int):
        """Close level idx; return the first nontrivial (residue, level) or None.

        The orbit grows under the strong generators of level >= idx, then
        each unchecked Schreier generator is sifted through the deeper levels.
        """
        lvl = self._levels[idx]
        gens = [(k, g) for k, (level, g) in enumerate(self._strong) if level >= idx]
        lvl.grow([g for _, g in gens])
        ident = identity(self.degree)
        for pt, rep in lvl.transversal.items():
            for k, g in gens:
                if (pt, k) in lvl.checked:
                    continue
                lvl.checked.add((pt, k))
                schreier = compose(compose(rep, g), lvl.inverses[g[pt]])
                residue, level = self._sift(schreier, idx + 1)
                if residue != ident:
                    return residue, level
        return None

    def elements(self):
        """Iterate all elements (products of transversal reps)."""
        if self.order > _ELEMENTS_LIMIT:
            raise ValueError(f"group order {self.order} exceeds limit {_ELEMENTS_LIMIT}")

        def rec(idx: int, acc: tuple):
            if idx < 0:
                yield acc
                return
            lvl = self._levels[idx]
            for rep in lvl.transversal.values():
                yield from rec(idx - 1, compose(acc, rep))

        if not self._levels:
            yield identity(self.degree)
            return
        yield from rec(len(self._levels) - 1, identity(self.degree))

    def orbit(self, point: int) -> frozenset:
        return orbit_of(point, self.generators)


def orbit_of(point: int, gens: list) -> frozenset:
    seen = {point}
    frontier = [point]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                img = g[p]
                if img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    return frozenset(seen)
