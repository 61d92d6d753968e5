"""Certified decimal rendering of algebraic data, with no floating point.

The exact core works in the trace coordinate z = 2*cos(2*pi*t); for display
the angle parameter t must be recovered with certified digits ("no digit
printed that the isolating interval does not pin down").  Everything here
is rational interval arithmetic: pi by Machin's formula with alternating
series brackets, cos by its Taylor bracket plus a Lipschitz widening, and
t by bisection against the certified cosine.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .sturm import RealRoot


def _round_out(lo: Fraction, hi: Fraction, scale: int) -> tuple[Fraction, Fraction]:
    """Widen an interval to endpoints with denominator 10**scale.

    Keeping denominators capped makes long certified computations cheap
    without giving up rigor (rounding is always outward)."""
    s = 10**scale
    return (Fraction(math.floor(lo * s), s), Fraction(math.ceil(hi * s), s))


def _arctan_inv_bounds(n: int, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Brackets for arctan(1/n) from the alternating series."""
    s = Fraction(1, n)
    k = 0
    while True:
        k += 1
        t_next = Fraction(1, (2 * k + 1) * n ** (2 * k + 1))
        lo, hi = (s - t_next, s) if k % 2 == 1 else (s, s + t_next)
        if t_next < eps:
            return lo, hi
        s = lo if k % 2 == 1 else hi


@lru_cache(maxsize=None)
def pi_bounds(scale: int) -> tuple[Fraction, Fraction]:
    """Rational lo < pi < hi with hi - lo < 10**-scale (Machin's formula)."""
    eps = Fraction(1, 10 ** (scale + 2))
    a5 = _arctan_inv_bounds(5, eps / 32)
    a239 = _arctan_inv_bounds(239, eps / 8)
    lo = 16 * a5[0] - 4 * a239[1]
    hi = 16 * a5[1] - 4 * a239[0]
    return _round_out(lo, hi, scale + 2)


def cos_bounds(x: Fraction, eps: Fraction, scale: int = 40) -> tuple[Fraction, Fraction]:
    """Brackets for cos(x), x >= 0 rational: Taylor bracket with outward
    rounding of every intermediate to denominator 10**scale."""
    x2lo, x2hi = _round_out(x * x, x * x, scale)
    tlo = thi = Fraction(1)
    slo = shi = Fraction(1)
    k = 0
    while True:
        k += 1
        d = (2 * k - 1) * (2 * k)
        tlo, thi = _round_out(tlo * x2lo / d, thi * x2hi / d, scale)
        if k % 2 == 1:
            slo, shi = _round_out(slo - thi, shi - tlo, scale)
        else:
            slo, shi = _round_out(slo + tlo, shi + thi, scale)
        if thi < eps and (2 * k + 1) * (2 * k + 2) > x2hi:
            # remaining tail is alternating with decreasing terms
            nxt = thi * x2hi / ((2 * k + 1) * (2 * k + 2))
            return (slo, shi + nxt) if k % 2 == 1 else (slo - nxt, shi)


def two_cos_two_pi(t: Fraction, scale: int) -> tuple[Fraction, Fraction]:
    """Certified brackets for 2*cos(2*pi*t), t in [0, 1/2]."""
    t = Fraction(t)
    if t < 0 or t > Fraction(1, 2):
        raise ValueError("t must lie in [0, 1/2]")
    eps = Fraction(1, 10 ** (scale + 2))
    plo, phi = pi_bounds(scale + 2)
    xlo, xhi = 2 * plo * t, 2 * phi * t
    clo1, chi1 = cos_bounds(xlo, eps, scale + 6)
    clo2, chi2 = cos_bounds(xhi, eps, scale + 6)
    w = xhi - xlo  # |cos'| <= 1 covers the sliver between the endpoints
    return 2 * (min(clo1, clo2) - w), 2 * (max(chi1, chi2) + w)


def t_interval_of_root(root: RealRoot, digits: int) -> tuple[Fraction, Fraction]:
    """An interval pinning t = arccos(z/2)/(2*pi) for a z-root in (-2, 2).

    A floating-point guess proposes a bracket which is then *certified*
    rationally (z(t) = 2 cos(2 pi t) is decreasing: t_lo < t < t_hi iff
    z(t_lo) lies above and z(t_hi) below the root's interval); certified
    bisection narrows it to width below 10**-(digits+1).  Floats only ever
    propose, every accepted comparison is exact.
    """
    target = Fraction(1, 10 ** (digits + 1))
    scale = digits + 8
    root.refine_below(Fraction(1, 10 ** (digits + 8)))

    def above(t: Fraction) -> bool:  # certified: z(t) > root
        zlo, _ = two_cos_two_pi(t, scale)
        return zlo > root.hi

    def below(t: Fraction) -> bool:  # certified: z(t) < root
        _, zhi = two_cos_two_pi(t, scale)
        return zhi < root.lo

    ta, tb = Fraction(0), Fraction(1, 2)
    guess = math.acos(max(-1.0, min(1.0, float(root.mid) / 2))) / (2 * math.pi)
    grid = 10 ** (digits + 4)
    for pad in (10, 1000, 10**5):
        lo = Fraction(max(0, math.floor(guess * grid) - pad), grid)
        hi = Fraction(min(grid // 2, math.ceil(guess * grid) + pad), grid)
        if above(lo) and below(hi):
            ta, tb = lo, hi
            break

    attempts = 0
    while tb - ta >= target:
        tm = (ta + tb) / 2
        if above(tm):
            ta = tm
        elif below(tm):
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
    fhi = (hi * scale).__floor__()
    if flo != fhi:
        return None
    neg = flo < 0
    mag = -flo if neg else flo
    whole, frac = divmod(mag, scale)
    body = f"{whole}.{str(frac).zfill(digits)}" if digits else f"{whole}"
    return ("-" if neg else "") + body


def decimal_of_root(root: RealRoot, digits: int) -> str:
    """Certified truncation of the z-value of a root to `digits` places."""
    if root.is_exact:
        s = certified_decimal(root.lo, root.lo, digits)
        assert s is not None
        return s
    if len(root.poly) == 2:
        # a rational root: an interval around a non-dyadic value such as 9/5
        # straddles its own truncation point for ever, so use the value
        return decimal_of_fraction(Fraction(-root.poly[0], root.poly[1]), digits)
    while True:
        s = certified_decimal(root.lo, root.hi, digits)
        if s is not None:
            return s
        root.refine()


def decimal_of_t(root: RealRoot, digits: int) -> str:
    """Certified truncation of t = arccos(z/2)/(2*pi) to `digits` places."""
    extra = 0
    while True:
        lo, hi = t_interval_of_root(root, digits + extra)
        s = certified_decimal(lo, hi, digits)
        if s is not None:
            return s
        extra += 2  # t sits near a decimal boundary; pin it tighter


def decimal_of_fraction(x: Fraction, digits: int) -> str:
    """Exact truncation of a rational to `digits` decimal places."""
    s = certified_decimal(x, x, digits)
    assert s is not None
    return s
