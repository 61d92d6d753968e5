"""Certified decimal rendering of algebraic data, with no floating point.

The exact core works in the trace coordinate z = 2*cos(2*pi*t); for display
the angle parameter t must be recovered with certified digits ("no digit
printed that the isolating interval does not pin down").

The certified arithmetic is on integers at a fixed scale 10**scale, and
every intermediate is rounded outward: pi by Machin's formula with its
alternating series brackets summed exactly, cos by its Taylor bracket plus
a Lipschitz widening.  t comes from a Newton proposal, two exact checks and
a bisection fallback:

1. Newton's method on 2*cos(2*pi*t) = z, started from the float arccos and
   run in fixed point, proposes t to about digits+8 places.  Nothing it
   computes is trusted.
2. The proposal, padded on the grid 10**-(digits+4), is accepted only when
   z(lo) certifiably lies above and z(hi) below the root's interval
   (z(t) decreases on [0, 1/2]).  Normally this passes at the first pad.
3. Otherwise certified bisection narrows [0, 1/2].  It is the only route
   near t = 0 and t = 1/2, where sin(2*pi*t) vanishes and Newton's step
   degrades, and it serves any proposal that misses.

A root's interval is read as the ints a <= b over d of sturm.RealRoot: each
comparison with a certified cosine, truncation of z and sign of a trace
polynomial at an end is an integer product, and no Fraction is built.
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


def cos_bounds(x2lo: int, x2hi: int, scale: int, eps: int) -> tuple[int, int]:
    """Integers lo <= cos(x) * 10**(scale+2) <= hi for every real x with
    x2lo <= x*x * 10**scale <= x2hi.

    Taylor bracket with every partial sum rounded outward to an integer at
    10**scale.  It stops once a term is below eps (in units of 10**-scale)
    and the terms decrease, and adds the alternating tail's next term on its
    open side, rounded at the finer 10**-(scale+2) so that it does not widen
    a narrow bracket by a whole unit.
    """
    one = 10**scale
    tlo = thi = slo = shi = one
    k = 0
    while True:
        k += 1
        tlo, thi = _round_out(tlo * x2lo, thi * x2hi, (2 * k - 1) * (2 * k) * one)
        if k % 2 == 1:
            slo, shi = slo - thi, shi - tlo
        else:
            slo, shi = slo + tlo, shi + thi
        d = (2 * k + 1) * (2 * k + 2)
        if thi < eps and d * one > x2hi:
            nxt = -(-100 * thi * x2hi // (d * one))
            slo, shi = 100 * slo, 100 * shi
            return (slo, shi + nxt) if k % 2 == 1 else (slo - nxt, shi)


def two_cos_two_pi(t: Fraction, scale: int) -> tuple[int, int]:
    """Integers lo <= 2*cos(2*pi*t) * 10**(scale+8) <= hi, t in [0, 1/2]
    rational; the bracket is narrower than about 10**-(scale+2)."""
    t = Fraction(t)
    if t < 0 or t > Fraction(1, 2):
        raise ValueError("t must lie in [0, 1/2]")
    a, b = t.numerator, t.denominator
    plo, phi = pi_bounds(scale + 2)
    # cos at x = 2*p*t / 10**(scale+4) for p = plo and phi, with
    # x*x * 10**(scale+6) = (2*p*a)**2 / (10**(scale+2) * b*b)
    den = 10 ** (scale + 2) * b * b
    (lo1, hi1), (lo2, hi2) = (cos_bounds(*_round_out(x2, x2, den), scale + 6, 10**4)
                              for x2 in ((2 * plo * a) ** 2, (2 * phi * a) ** 2))
    w = -(-20000 * (phi - plo) * a // b)  # |cos'| <= 1 covers the sliver between the x's
    return 2 * (min(lo1, lo2) - w), 2 * (max(hi1, hi2) + w)


def _propose_t(z: Fraction, places: int) -> Fraction | None:
    """Newton's method on cos(theta) = z/2, theta = 2*pi*t, in fixed point
    at 10**places, from the float arccos.  Each step doubles the correct
    digits until a step falls below 10**-(places/2).  Nothing here is
    certified; None means sin(theta) vanished and there is no proposal."""
    one = 10**places
    half_z = z.numerator * one // (2 * z.denominator)
    theta = int(math.acos(max(-1.0, min(1.0, float(z) / 2))) * 2**60) * one >> 60
    for _ in range(8):
        t2 = theta * theta
        c_lo, c_hi = cos_bounds(*_round_out(t2, t2, one), places, 10)
        c = (c_lo + c_hi) // 200
        if c * c >= one * one:
            return None
        step = (c - half_z) * one // math.isqrt(one * one - c * c)
        theta += step
        if step * step < one:
            break
    return Fraction(theta, 2 * (pi_bounds(places)[0] // 100))


def t_interval_of_root(root: RealRoot, digits: int) -> tuple[Fraction, Fraction]:
    """An interval of width below 10**-(digits+1) pinning
    t = arccos(z/2)/(2*pi) for a z-root in (-2, 2).

    Newton proposal, two exact checks, bisection fallback.  z(t) =
    2*cos(2*pi*t) decreases on [0, 1/2], so t_lo < t < t_hi exactly when
    z(t_lo) lies above and z(t_hi) below the root's interval, each decided
    by an exact integer comparison with the certified cosine.  The Newton
    proposal (`_propose_t`) padded on the grid 10**-(digits+4) is the first
    bracket tried; it is accepted only when both ends pass.  If no pad
    passes, certified bisection starts from [0, 1/2].  Floats and Newton
    iterates only ever propose; every accepted comparison is exact.
    """
    target = Fraction(1, 10 ** (digits + 1))
    scale = digits + 8
    root.refine_below(Fraction(1, 10**scale))

    def side(t: Fraction) -> int:
        """+1 if z(t) certifiably lies above the root, -1 below, 0 undecided."""
        zlo, zhi = two_cos_two_pi(t, scale)
        one = 10 ** (scale + 8)
        if zlo * root.d > root.b * one:
            return 1
        if zhi * root.d < root.a * one:
            return -1
        return 0

    ta, tb = Fraction(0), Fraction(1, 2)
    proposal = _propose_t(root.mid, scale)
    if proposal is not None:
        grid = 10 ** (digits + 4)
        t = math.floor(proposal * grid)
        for pad in (10, 1000, 10**5):
            lo = Fraction(min(max(0, t - pad), grid // 2), grid)
            hi = Fraction(min(max(0, t + 1 + pad), grid // 2), grid)
            if side(lo) == 1 and side(hi) == -1:
                ta, tb = lo, hi
                break

    attempts = 0
    while tb - ta >= target:
        tm = (ta + tb) / 2
        s = side(tm)
        if s > 0:
            ta = tm
        elif s < 0:
            tb = tm
        else:
            root.refine()
            attempts += 1
            if attempts % 8 == 0:
                scale += 4
    return ta, tb


def certified_decimal(lo: Fraction, hi: Fraction, digits: int) -> str | None:
    """Truncated decimal string valid for everything in [lo, hi], or None.

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
    """Certified truncation of the z-value of a root to `digits` places."""
    if len(root.poly) == 2:
        # a rational root: an interval around a non-dyadic value such as 9/5
        # straddles its own truncation point for ever, so use the value
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
    """Certified truncation of t = arccos(z/2)/(2*pi) to `digits` places.

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
    """Exact truncation of a rational to `digits` decimal places."""
    return _decimal((x * 10**digits).__floor__(), digits)
