"""Sturm chains, real root counting, and certified root isolation.

Roots are represented by RealRoot: a squarefree integer polynomial together
with either an exact rational value or an isolating interval with a sign
change.  Intervals only ever shrink; the represented number never changes.

An interval [a/d, b/d] is kept as ints a <= b over one denominator d > 0:
its ends are dyadic bisection points of the starting interval (Collins and
Akritas, SYMSAC 1976).  A halving doubles d and evaluates once, at (a+b)/2d,
by integer Horner; comparisons cross-multiply; no Fraction is normalized.
lo, hi, mid and width() are Fraction views for callers, reduced on each read.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import intpoly as ip
from .errors import SquarefreeError

_HALVINGS = 10_000  # the most separate_from or refine_strictly_inside makes


def sign_at(f, n, d: int = 1) -> int:
    """Sign of f(n/d) for ints n and d > 0, in any terms, or of f(n) for a
    rational n, by integer Horner on the homogenized sum d**k * f(n/d) =
    sum c_i n**i d**(k-i), which has the same sign."""
    if d == 1:
        n, d = n.numerator, n.denominator
    v, dk = 0, 1
    for c in reversed(f):
        v = v * n + c * dk
        dk *= d
    return (v > 0) - (v < 0)


def _over_lcm(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """(a, b, d): lo = a/d and hi = b/d over the lcm d of their denominators."""
    d = lcm(lo.denominator, hi.denominator)
    return int(lo * d), int(hi * d), d


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


def _variations(chain, n: int, d: int) -> int:
    signs = [s for s in (sign_at(f, n, d) for f in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def is_squarefree(q) -> bool:
    return ip.degree(ip.gcd_int_poly(q, ip.derivative(q))) == 0


def count_roots_open(q, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of squarefree q in the open interval."""
    if not is_squarefree(q):
        raise SquarefreeError("root counting requires a squarefree polynomial")
    return len(isolate_real_roots(q, lo, hi)) if lo < hi else 0


class RealRoot:
    """A real algebraic number: a root of a squarefree integer polynomial.

    Either exact (lo == hi, a rational root) or given by an isolating
    interval [lo, hi] = [a/d, b/d] on which the polynomial changes sign
    exactly once.  Built from rationals lo and hi, or from ints a, b, d (read-only).
    """

    __slots__ = ("poly", "a", "b", "d", "_sign_lo")

    def __init__(self, poly, lo: Fraction, hi: Fraction, d: int | None = None):
        if d is None:
            lo, hi, d = _over_lcm(Fraction(lo), Fraction(hi))
        if lo > hi:
            raise ValueError("empty interval")
        self.poly = ip.trim(poly)
        self.a, self.b, self.d = lo, hi, d
        # the sign at a never changes: a only moves to a midpoint of that sign
        self._sign_lo = sign_at(self.poly, lo, d)
        if lo == hi:
            if self._sign_lo != 0:
                raise ValueError("claimed exact root does not vanish")
        elif self._sign_lo * sign_at(self.poly, hi, d) >= 0:
            raise ValueError("interval endpoints must straddle a sign change")

    @classmethod
    def exact(cls, poly, value: Fraction) -> "RealRoot":
        return cls(poly, value, value)

    @property
    def lo(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.b, self.d)

    @property
    def is_exact(self) -> bool:
        return self.a == self.b

    @property
    def mid(self) -> Fraction:
        return Fraction(self.a + self.b, 2 * self.d)

    def width(self) -> Fraction:
        return Fraction(self.b - self.a, self.d)

    def refine(self) -> None:
        """Halve the isolating interval (no-op for exact roots)."""
        if self.a == self.b:
            return
        m = self.a + self.b
        self.d *= 2
        sm = sign_at(self.poly, m, self.d)
        if sm == 0:
            self.a = self.b = m
        elif sm == self._sign_lo:
            self.a, self.b = m, 2 * self.b
        else:
            self.a, self.b = 2 * self.a, m

    def refine_below(self, width: Fraction) -> None:
        """Halve until the interval is exact or narrower than width > 0.
        Each halving halves the width, so that takes k halvings, k the bit
        length of floor(width() / width), known before the first."""
        if width <= 0:
            raise ValueError(f"width {width} is not positive")
        for _ in range(((self.b - self.a) * width.denominator
                        // (width.numerator * self.d)).bit_length()):
            self.refine()

    def below(self, other: "RealRoot") -> bool:
        """Whether this interval lies strictly below the other one."""
        return self.b * other.d < other.a * self.d

    def separate_from(self, other: "RealRoot") -> None:
        """Shrink both intervals until they are disjoint (distinct numbers)."""
        for _ in range(_HALVINGS):
            if self.below(other) or other.below(self):
                return
            if self.is_exact and other.is_exact:
                raise ValueError("roots are equal; cannot separate")
            self.refine()
            other.refine()
        raise ArithmeticError("failed to separate roots (equal numbers?)")

    def refine_strictly_inside(self, lo: Fraction, hi: Fraction) -> None:
        """Shrink until the interval sits strictly inside (lo, hi);
        ArithmeticError after _HALVINGS halvings (the root is not inside)."""
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        for _ in range(_HALVINGS):
            if ln * self.d < self.a * ld and self.b * hd < hn * self.d:
                return
            if self.is_exact:
                raise ValueError("exact root is not inside the interval")
            self.refine()
        raise ArithmeticError(f"root not inside ({lo}, {hi}) after {_HALVINGS} halvings")

    def __repr__(self) -> str:
        if self.is_exact:
            return f"RealRoot({self.lo})"
        return f"RealRoot([{self.lo}, {self.hi}])"


def _bisect_by_guesses(q, lo: Fraction, hi: Fraction, guesses) -> list[RealRoot] | None:
    """isolate_real_roots' bisection with the float guesses in place of the
    Sturm counts, or None where a check fails (isolate_real_roots)."""
    leaves = []

    def rec(x: int, y: int, e: int, zs: list, depth: int) -> None:
        # zs: the guesses in (x/e, y/e]; past 64 halvings they are equal floats
        if len(zs) == 1:
            leaves.append(RealRoot(q, x, y, e))  # checks the sign change
        elif zs:
            m, e = x + y, 2 * e
            if sign_at(q, m, e) == 0 or depth == 64:
                raise ValueError("a bisection point is a root, or guesses coincide")
            k = bisect_right(zs, m / e)  # rounded as float(Fraction(m, e))
            rec(2 * x, m, e, zs[:k], depth + 1)
            rec(m, 2 * y, e, zs[k:], depth + 1)

    try:
        rec(*_over_lcm(lo, hi), sorted(guesses), 0)
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
    def solve(poly, x: int, y: int, e: int) -> list[RealRoot]:
        # roots strictly inside (x/e, y/e); divide out rational roots at the ends
        sub = poly
        for n, g in ((x, gcd(x, e)), (y, gcd(y, e))):
            while sign_at(sub, n, e) == 0:
                sub = ip.primitive(ip.div_exact(sub, (-n // g, e // g)))[1]
        if ip.degree(sub) < 1:
            return []
        chain = sturm_chain(tuple(sub))

        def rec(x: int, y: int, e: int, vx: int, vy: int) -> list[RealRoot]:
            n = vx - vy
            if n == 0:
                return []
            if n == 1:
                return [RealRoot(sub, x, y, e)]
            m, e = x + y, 2 * e
            if sign_at(sub, m, e) == 0:
                return solve(sub, 2 * x, m, e) + [RealRoot(sub, m, m, e)] + solve(sub, m, 2 * y, e)
            vm = _variations(chain, m, e)
            return rec(2 * x, m, e, vx, vm) + rec(m, 2 * y, e, vm, vy)

        return rec(x, y, e, _variations(chain, x, e), _variations(chain, y, e))

    roots = None if guesses is None else _bisect_by_guesses(q, lo, hi, guesses)
    if roots is None:
        if not is_squarefree(q):
            raise SquarefreeError("root isolation requires a squarefree polynomial")
        roots = solve(q, *_over_lcm(lo, hi))
    for r in roots:
        r.refine_strictly_inside(lo, hi)
    for a, b in zip(roots, roots[1:]):
        a.separate_from(b)
    return roots
