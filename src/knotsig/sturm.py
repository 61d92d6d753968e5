"""Sturm chains, real root counting, and certified root isolation.

Roots are represented by RealRoot: a squarefree integer polynomial together
with either an exact rational value or an isolating interval with a sign
change.  Intervals only ever shrink; the represented number never changes.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache

from . import intpoly as ip
from .errors import SquarefreeError


def sign_at(f, x: Fraction) -> int:
    """Sign of f(x) at a rational x = n/d, d > 0, by integer Horner on the
    homogenized sum d**k * f(n/d) = sum c_i n**i d**(k-i), which has the
    same sign and needs no Fraction arithmetic."""
    n, d = x.numerator, x.denominator
    v, dk = 0, 1
    for c in reversed(f):
        v = v * n + c * dk
        dk *= d
    return (v > 0) - (v < 0)


@lru_cache(maxsize=None)
def sturm_chain(q: tuple) -> tuple:
    """The Sturm chain of q, with positive-rational rescaling only."""
    chain = [ip.trim(q), ip.derivative(q)]
    while not ip.is_zero(chain[-1]) and ip.degree(chain[-1]) > 0:
        r = ip.pseudo_rem(chain[-2], chain[-1])
        if ip.is_zero(r):
            break
        c = ip.content(r)  # positive: the chain keeps its signs
        chain.append(tuple(-a // c for a in r))
    return tuple(chain)


def _variations(chain, x: Fraction) -> int:
    signs = [s for s in (sign_at(f, x) for f in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def is_squarefree(q) -> bool:
    return ip.degree(ip.gcd_int_poly(q, ip.derivative(q))) == 0


def _deflate_root(q, x: Fraction):
    """Divide out an exact rational root x of the primitive q."""
    return ip.primitive(ip.div_exact(q, (-x.numerator, x.denominator)))[1]


def count_roots_open(q, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of squarefree q in the open interval."""
    if not is_squarefree(q):
        raise SquarefreeError("root counting requires a squarefree polynomial")
    if lo >= hi:
        return 0
    return len(isolate_real_roots(q, lo, hi))


class RealRoot:
    """A real algebraic number: a root of a squarefree integer polynomial.

    Either exact (lo == hi, a rational root) or given by an isolating
    interval (lo, hi) on which the polynomial changes sign exactly once.
    """

    __slots__ = ("poly", "_lo", "_hi", "_sign_lo")

    def __init__(self, poly, lo: Fraction, hi: Fraction):
        self.poly = ip.trim(poly)
        self._lo = Fraction(lo)
        self._hi = Fraction(hi)
        if lo > hi:
            raise ValueError("empty interval")
        # the sign at lo never changes: lo only moves to a midpoint of that sign
        self._sign_lo = sign_at(self.poly, lo)
        if lo == hi:
            if self._sign_lo != 0:
                raise ValueError("claimed exact root does not vanish")
        elif self._sign_lo * sign_at(self.poly, hi) >= 0:
            raise ValueError("interval endpoints must straddle a sign change")

    @classmethod
    def exact(cls, poly, value: Fraction) -> "RealRoot":
        return cls(poly, value, value)

    @property
    def lo(self) -> Fraction:
        return self._lo

    @property
    def hi(self) -> Fraction:
        return self._hi

    @property
    def is_exact(self) -> bool:
        return self._lo == self._hi

    @property
    def mid(self) -> Fraction:
        return (self._lo + self._hi) / 2

    def width(self) -> Fraction:
        return self._hi - self._lo

    def refine(self) -> None:
        """Halve the isolating interval (no-op for exact roots)."""
        if self.is_exact:
            return
        m = self.mid
        sm = sign_at(self.poly, m)
        if sm == 0:
            self._lo = self._hi = m
        elif sm == self._sign_lo:
            self._lo = m
        else:
            self._hi = m

    def refine_below(self, width: Fraction) -> None:
        while not self.is_exact and self.width() >= width:
            self.refine()

    def separate_from(self, other: "RealRoot") -> None:
        """Shrink both intervals until they are disjoint (distinct numbers)."""
        for _ in range(10_000):
            if self._hi < other._lo or other._hi < self._lo:
                return
            if self.is_exact and other.is_exact and self._lo == other._lo:
                raise ValueError("roots are equal; cannot separate")
            self.refine()
            other.refine()
        raise ArithmeticError("failed to separate roots (equal numbers?)")

    def refine_strictly_inside(self, lo: Fraction, hi: Fraction) -> None:
        """Shrink until the interval sits strictly inside (lo, hi)."""
        while not (self.is_exact or (lo < self._lo and self._hi < hi)):
            self.refine()
        if self.is_exact and not (lo < self._lo < hi):
            raise ValueError("exact root is not inside the interval")

    def __repr__(self) -> str:
        if self.is_exact:
            return f"RealRoot({self._lo})"
        return f"RealRoot([{self._lo}, {self._hi}])"


def _bisect_by_guesses(q, lo: Fraction, hi: Fraction, guesses) -> list[RealRoot] | None:
    """isolate_real_roots' bisection with the float guesses in place of the
    Sturm counts, or None where a check fails (isolate_real_roots)."""
    leaves = []

    def rec(x: Fraction, y: Fraction, zs: list, depth: int) -> None:
        # zs: the guesses in (x, y]; past 64 halvings they are equal floats
        if len(zs) == 1:
            leaves.append(RealRoot(q, x, y))  # checks the sign change
        elif zs:
            m = (x + y) / 2
            if sign_at(q, m) == 0 or depth == 64:
                raise ValueError("a bisection point is a root, or guesses coincide")
            k = bisect_right(zs, float(m))
            rec(x, m, zs[:k], depth + 1)
            rec(m, y, zs[k:], depth + 1)

    try:
        rec(lo, hi, sorted(guesses), 0)
    except ValueError:
        return None
    return leaves if len(leaves) == ip.degree(q) else None


def isolate_real_roots(q, lo: Fraction, hi: Fraction, guesses=None) -> list[RealRoot]:
    """Isolating intervals for all roots of squarefree q in the open (lo, hi).

    The returned RealRoots are pairwise disjoint, sorted increasing, strictly
    inside (lo, hi), and jointly exhaustive (Sturm-certified counts).

    guesses, if given, are floats proposed as all deg q roots of q, every
    one in (lo, hi), such as the trace roots 2 cos(2 pi k/n) of Phi_n.  They
    take the place of the Sturm counts in the same bisection, and each step
    is checked exactly: every bisection point has a nonzero sign, every leaf
    a sign change, and there are deg q leaves.  Then each leaf holds exactly
    one root and q has no other, so the counts are Sturm's and so are the
    intervals.  Any failed check falls back to Sturm.
    """
    q = ip.primitive(q)[1]
    if ip.degree(q) < 0:
        raise ValueError("cannot isolate roots of the zero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    def solve(poly, a: Fraction, b: Fraction) -> list[RealRoot]:
        # roots strictly inside (a, b); poly may vanish at the endpoints
        sub = poly
        while sign_at(sub, a) == 0:
            sub = _deflate_root(sub, a)
        while sign_at(sub, b) == 0:
            sub = _deflate_root(sub, b)
        if ip.degree(sub) < 1:
            return []
        chain = sturm_chain(tuple(sub))

        def rec(x: Fraction, y: Fraction, vx: int, vy: int) -> list[RealRoot]:
            n = vx - vy
            if n == 0:
                return []
            if n == 1:
                return [RealRoot(sub, x, y)]
            m = (x + y) / 2
            if sign_at(sub, m) == 0:
                return solve(sub, x, m) + [RealRoot.exact(sub, m)] + solve(sub, m, y)
            vm = _variations(chain, m)
            return rec(x, m, vx, vm) + rec(m, y, vm, vy)

        return rec(a, b, _variations(chain, a), _variations(chain, b))

    roots = None if guesses is None else _bisect_by_guesses(q, lo, hi, guesses)
    if roots is None:
        if not is_squarefree(q):
            raise SquarefreeError("root isolation requires a squarefree polynomial")
        roots = solve(q, lo, hi)
    for r in roots:
        r.refine_strictly_inside(lo, hi)
    for a, b in zip(roots, roots[1:]):
        a.separate_from(b)
    return roots
