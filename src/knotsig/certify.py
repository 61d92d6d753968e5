"""Certified decimal rendering of algebraic data, with no floating point.

The exact core works in the trace coordinate z = 2*cos(2*pi*t); for display
the angle parameter t must be recovered with certified digits ("no digit
printed that the isolating interval does not pin down").  A printed decimal
is the floor of the value at `digits` places, so z = 2*cos(3*pi/5) =
-0.6180339887... prints as -0.618034.

t comes from one monotone enclosure.  With x = tan(pi*t), x*x =
(2 - z)/(2 + z), and t = arctan(x)/pi decreases in z, so a root in
[a/d, b/d] has t between a lower bound of t(b/d) and an upper bound of
t(a/d).  Each bound is integer arithmetic at 2**bits, rounded outward at
every step (argument halving and the alternating series, after Brent,
J. ACM 23, 1976):

1. w = x or 1/x, whichever is at most 1, by isqrt; below z = 0,
   t = 1/2 - arctan(1/x)/pi.
2. Two half-angle steps w -> w/(1 + sqrt(1 + w*w)) bring w below
   tan(pi/16) < 0.2.
3. The alternating arctan series, its floored terms covered by a slack of
   2 units a term.
4. pi by Machin's formula, its alternating series brackets summed exactly.

A root's interval is read as the ints a <= b over d of sturm.RealRoot: each
enclosure of t, floor of z and sign of a trace polynomial at an end starts
from those integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import intpoly as ip
from .sturm import RealRoot, sign_at


def _round_out(lo: int, hi: int, den: int) -> tuple[int, int]:
    """Divide the interval [lo, hi] by den > 0, rounding outward (floor of
    lo, ceiling of hi), so the integer result still contains the quotient."""
    return lo // den, -(-hi // den)


def _arctan_inv_bounds(n: int, inv_eps: int) -> tuple[int, int, int]:
    """Exact brackets lo/den < arctan(1/n) < hi/den from the alternating
    series: the partial sums on both sides of the first term (k >= 1)
    below 1/inv_eps."""
    k = 1
    while (2 * k + 1) * n ** (2 * k + 1) <= inv_eps:
        k += 1
    den = n ** (2 * k + 1) * math.lcm(*range(1, 2 * k + 2, 2))
    before = sum((-1) ** j * (den // ((2 * j + 1) * n ** (2 * j + 1))) for j in range(k))
    last = before + (-1) ** k * (den // ((2 * k + 1) * n ** (2 * k + 1)))
    return min(before, last), max(before, last), den


@lru_cache(maxsize=None)
def pi_bounds(scale: int) -> tuple[int, int]:
    """Integers lo < pi * 10**(scale+2) < hi with hi - lo <= 2, a bracket
    narrower than 10**-scale (Machin's formula)."""
    one = 10 ** (scale + 2)
    a_lo, a_hi, a_den = _arctan_inv_bounds(5, 32 * one)
    b_lo, b_hi, b_den = _arctan_inv_bounds(239, 8 * one)
    lo = 16 * a_lo * b_den - 4 * b_hi * a_den
    hi = 16 * a_hi * b_den - 4 * b_lo * a_den
    return _round_out(lo * one, hi * one, a_den * b_den)


def _tan_quarter(num: int, den: int, bits: int, up: bool) -> int:
    """An integer below tan(arctan(w)/4) * 2**bits, or above it if up, for
    w = sqrt(num/den) with 0 <= num <= den.

    w by isqrt, then two half-angle steps x -> x/(1 + sqrt(1 + x*x)), each
    rounded outward (the step increases in x).  The result is at most
    tan(pi/16) < 0.2 plus an ulp."""
    one = 1 << bits
    y = math.isqrt((num << 2 * bits) // den) + up
    for _ in range(2):
        r = math.isqrt(one * one + y * y)  # r <= sqrt(one**2 + y**2) < r + 1
        y = -(-(y << bits) // (one + r)) if up else (y << bits) // (one + r + 1)
    return y


def _arctan(y: int, bits: int, up: bool) -> int:
    """An integer below arctan(y / 2**bits) * 2**bits, or above it if up,
    for 0 <= y < 2**bits, by the alternating series.

    Powers and terms are floored.  The k-th power loses under k units (each
    step loses under one and y < 1 shrinks what came before), so a term is
    low by under 3/2 units.  The sum stops at the first power that floors to
    0; that term is below 1/2, and so is the tail it bounds.  2 units a term
    is a slack that covers both."""
    y2, p = y * y, y
    s = k = 0
    while p:
        term = p // (2 * k + 1)
        s += -term if k & 1 else term
        p = p * y2 >> 2 * bits
        k += 1
    return s + 2 * k if up else s - 2 * k


def _t_bound(p: int, d: int, scale: int, up: bool) -> Fraction:
    """A bound on t(z) = arccos(z/2)/(2*pi) at z = p/d in [-2, 2], d > 0:
    above t if up, below it otherwise, about 10**-scale from t.

    t = arctan(x)/pi with x*x = (2 - z)/(2 + z); below z = 0, x > 1 and
    t = 1/2 - arctan(1/x)/pi.  So arctan is bounded at w = min(x, 1/x) <= 1,
    on the side that t's bound asks for."""
    flip = p < 0
    above = up != flip
    # 10/3 > log2(10) bits a digit, bit_length for the slack, 16 to spare
    bits = 10 * scale // 3 + scale.bit_length() + 16
    a = 4 * _arctan(_tan_quarter(*sorted((2 * d - p, 2 * d + p)), bits, above), bits, above)
    plo, phi = pi_bounds(scale)
    q = Fraction(a * 10 ** (scale + 2), (plo if above else phi) << bits)
    return Fraction(1, 2) - q if flip else q


def t_interval_of_root(root: RealRoot, digits: int) -> tuple[Fraction, Fraction]:
    """An interval of width below 10**-(digits+1) pinning
    t = arccos(z/2)/(2*pi) for a z-root in [-2, 2].

    t(z) decreases, so t lies between a lower bound of t at the interval's
    upper end and an upper bound of t at its lower end, clamped to
    [0, 1/2].  The root is refined to 10**-(digits+8) first; where t moves
    too fast for that (near z = +-2), the guard digits double until the
    interval is narrow enough."""
    guard = 8
    while True:
        scale = digits + guard
        root.refine_below(Fraction(1, 10**scale))
        lo = max(Fraction(0), _t_bound(root.b, root.d, scale, False))
        hi = min(Fraction(1, 2), _t_bound(root.a, root.d, scale, True))
        if (hi - lo) * 10 ** (digits + 1) < 1:
            return lo, hi
        guard *= 2


def certified_decimal(lo: Fraction, hi: Fraction, digits: int) -> str | None:
    """Floored decimal string valid for everything in [lo, hi], or None.

    The printed value d satisfies d <= x < d + 10**-digits for all x in the
    interval; when the interval straddles a multiple of 10**-digits nothing
    is certified and None is returned (caller refines and retries).
    """
    if lo > hi:
        raise ValueError("empty interval")
    scale = 10**digits
    flo = (lo * scale).__floor__()
    return _decimal(flo, digits) if flo == (hi * scale).__floor__() else None


def _decimal(n: int, digits: int) -> str:
    """The decimal string of n / 10**digits."""
    whole, frac = divmod(abs(n), 10**digits)
    body = f"{whole}.{str(frac).zfill(digits)}" if digits else f"{whole}"
    return ("-" if n < 0 else "") + body


def decimal_of_root(root: RealRoot, digits: int) -> str:
    """Certified floor of the z-value of a root at `digits` places."""
    if len(root.poly) == 2:
        # a rational root: an interval around a non-dyadic value such as 9/5
        # straddles its own floor point for ever, so use the value
        return decimal_of_fraction(Fraction(-root.poly[0], root.poly[1]), digits)
    grid = 10**digits
    while True:
        fhi = root.b * grid // root.d
        # where the interval straddles the grid point fhi/grid, the root may
        # be that point itself, since an isolating interval holds one root
        if root.a * grid // root.d == fhi or sign_at(root.poly, fhi, grid) == 0:
            return _decimal(fhi, digits)
        root.refine()


def _is_two_cos(root: RealRoot, m: Fraction) -> bool:
    """Whether the root is one of the numbers 2*cos(2*pi*a'/b), a' prime to
    b, for m = a/b in lowest terms: a root of psi_b, the trace polynomial of
    the b-th cyclotomic polynomial.  Phi_1 and Phi_2 have odd degree, and
    psi_b divides the squarefree root.poly only when deg psi_b = phi(b)/2
    <= deg root.poly.  Then gcd(root.poly, psi_b) has the root exactly when
    it changes sign across the interval, whose ends are not roots."""
    b = m.denominator
    if b < 3 or ip.totient(b) > 2 * ip.degree(root.poly):
        return False
    psi = ip.to_trace_poly(ip.cyclotomic(b))
    if root.is_exact:
        return sign_at(psi, root.a, root.d) == 0
    g = ip.gcd_int_poly(root.poly, psi)
    return sign_at(g, root.a, root.d) * sign_at(g, root.b, root.d) < 0


def decimal_of_t(root: RealRoot, digits: int) -> str:
    """Certified floor of t = arccos(z/2)/(2*pi) at `digits` places.

    A t-interval that straddles a grid point m = a/b never certifies when t
    is m itself, so that case is decided exactly: the interval is narrower
    than 10**-(digits+1) < 1/b (b divides 10**digits), so if the root is
    2*cos(2*pi*a'/b) for some a', then a' = a.
    """
    extra = 0
    grid = 10**digits
    while True:
        lo, hi = t_interval_of_root(root, digits + extra)
        s = certified_decimal(lo, hi, digits)
        if s is not None:
            return s
        m = Fraction((hi * grid).__floor__(), grid)
        if lo < m and _is_two_cos(root, m):
            return decimal_of_fraction(m, digits)
        extra += 2  # t sits near a decimal boundary; pin it tighter


def decimal_of_fraction(x: Fraction, digits: int) -> str:
    """Exact floor of a rational at `digits` decimal places."""
    return _decimal((x * 10**digits).__floor__(), digits)
