"""Braid words and the Seifert matrix of a braid closure.

A braid word on n strands is a sequence of nonzero integers, +-i standing
for the Artin generator sigma_i or its inverse (1 <= i < n).  The closure
must be a knot, i.e. the underlying permutation an n-cycle.

The Seifert matrix comes from the band surface of Seifert's algorithm on
the closed braid: one disc per strand, one band per letter.  A homology
basis is given by loops through consecutive bands on the same generator
index; their linking numbers depend only on the signs of the two bands, on
the sign of a shared band, and on how loops on adjacent indices interleave
in time.  So a loop links only its neighbours on its own index and at
most two loops on each adjacent index: the matrix is built as its O(g)
nonzeros, one dict per row, which SeifertMatrix checks without dense
rows.  The sign convention makes the closure of sigma_1^3 the trefoil with
signature -2.
"""

from __future__ import annotations

from bisect import bisect

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
    """Seifert matrix of the band surface of the braid closure, built from
    its nonzeros.

    Raises BraidError when the closure has more than one component.
    """
    if not b.closure_is_knot():
        raise BraidError("braid closure is not a knot (permutation is not a full cycle)")

    times: dict[int, list[int]] = {}  # generator index -> the times of its bands
    for t, s in enumerate(b.letters):
        times.setdefault(abs(s) - 1, []).append(t)
    # loop j on index i runs through the bands at times[i][j] and
    # times[i][j + 1]; loops are numbered by index, then by j
    first, g = {}, 0
    for i in sorted(times):
        first[i] = g
        g += len(times[i]) - 1

    V: list[dict] = [{} for _ in range(g)]
    for i, T in times.items():
        U = times.get(i + 1, ())
        for j in range(len(T) - 1):
            a, t1, t2 = first[i] + j, T[j], T[j + 1]
            e1, e2 = b.letters[t1] > 0, b.letters[t2] > 0
            if e1 == e2:
                V[a][a] = -1 if e1 else 1  # two positive bands give a -1 framing
            if j + 2 < len(T):
                # the next loop on index i shares the band at t2
                if e2:
                    V[a + 1][a] = 1
                else:
                    V[a][a + 1] = -1
            # adjacent indices: only temporally interleaved loops link, at
            # most two loops c on index i + 1, the ones around t1 and t2
            m = bisect(U, t1) - 1  # U[m] < t1 < U[m + 1]
            if 0 <= m < len(U) - 1 and U[m + 1] < t2:
                V[first[i + 1] + m][a] = 1
            m = bisect(U, t2) - 1  # U[m] < t2 < U[m + 1]
            if 0 <= m < len(U) - 1 and U[m] > t1:
                V[first[i + 1] + m][a] = -1
    return SeifertMatrix(V)
