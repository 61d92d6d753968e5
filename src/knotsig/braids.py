"""Braid words and the Seifert matrix of a braid closure.

A braid word on n strands is a sequence of nonzero integers, +-i standing
for the Artin generator sigma_i or its inverse (1 <= i < n).  The closure
must be a knot, i.e. the underlying permutation an n-cycle.

The Seifert matrix comes from the band surface of Seifert's algorithm on
the closed braid: one disc per strand, one band per letter.  A homology
basis is given by loops through consecutive bands on the same generator
index; their linking numbers depend only on the signs of the two bands, on
the sign of a shared band, and on how loops on adjacent indices interleave
in time.  The sign convention makes the closure of sigma_1^3 the trefoil
with signature -2.
"""

from __future__ import annotations

from .errors import BraidError
from .record import Record
from .seifert import SeifertMatrix


class BraidWord(Record):
    """strands >= 2; letters are nonzero ints with |letter| < strands."""

    __slots__ = ("strands", "letters")

    strands: int
    letters: tuple

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(int(c) for c in self.letters))
        if self.strands < 2:
            raise BraidError("a braid needs at least two strands")
        for s in self.letters:
            if s == 0 or abs(s) >= self.strands:
                raise BraidError(f"letter {s} is out of range for {self.strands} strands")

    def permutation(self) -> list[int]:
        p = list(range(self.strands))
        for s in self.letters:
            i = abs(s) - 1
            p[i], p[i + 1] = p[i + 1], p[i]
        return p

    def closure_is_knot(self) -> bool:
        p = self.permutation()
        seen, j = 1, p[0]
        while j != 0:
            seen += 1
            j = p[j]
        return seen == self.strands

    def mirror(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-s for s in self.letters))


def torus_braid(p: int, q: int) -> BraidWord:
    """The standard braid (sigma_1 ... sigma_{p-1})^q on min(p, q) strands."""
    if p < 2 or q < 2:
        raise BraidError("torus parameters must be at least 2")
    from math import gcd

    if gcd(p, q) != 1:
        raise BraidError(f"T({p},{q}) is a link, not a knot (gcd {gcd(p, q)})")
    if p > q:
        p, q = q, p
    return BraidWord(p, tuple(i for _ in range(q) for i in range(1, p)))


def seifert_from_braid(b: BraidWord) -> SeifertMatrix:
    """Seifert matrix of the band surface of the braid closure.

    Raises BraidError when the closure has more than one component.
    """
    if not b.closure_is_knot():
        raise BraidError("braid closure is not a knot (permutation is not a full cycle)")

    occurrences: dict[int, list[tuple[int, int]]] = {}
    for t, s in enumerate(b.letters):
        occurrences.setdefault(abs(s) - 1, []).append((t, 1 if s > 0 else -1))

    # loop (i, j): through bands j and j+1 on generator index i
    gens = []
    for i in sorted(occurrences):
        occ = occurrences[i]
        for j in range(len(occ) - 1):
            (t1, e1), (t2, e2) = occ[j], occ[j + 1]
            gens.append((i, t1, t2, e1, e2))

    g = len(gens)
    V = [[0] * g for _ in range(g)]
    for a, (i, t1, t2, e1, e2) in enumerate(gens):
        if e1 == e2:
            V[a][a] = -e1  # two positive bands give a -1 framing
    for a, (ia, t1a, t2a, _e1a, e2a) in enumerate(gens):
        for c, (ic, t1c, t2c, _e1c, _e2c) in enumerate(gens):
            if a == c:
                continue
            if ia == ic and t2a == t1c:
                # consecutive loops sharing the middle band
                if e2a > 0:
                    V[c][a] = 1
                else:
                    V[a][c] = -1
            elif ic == ia + 1:
                # adjacent indices: only temporally interleaved loops link
                if t1c < t1a < t2c < t2a:
                    V[c][a] = 1
                elif t1a < t1c < t2a < t2c:
                    V[c][a] = -1
    return SeifertMatrix(V)
