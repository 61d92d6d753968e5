"""Dense univariate polynomial arithmetic over the integers.

A polynomial is a tuple of coefficients in ascending order of degree, so
``(1, -3, 1)`` is ``1 - 3x + x^2``.  The zero polynomial is the empty tuple.
Coefficients are ints: every division here is exact in Z[x] or a pseudo-
remainder, so no rational ever arises.  The one exception takes rationals
on purpose: `rational_primitive`, which clears the denominators of the
public `factor.factor_rational_poly`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import DivisibilityError, ParityError, SymmetryError

Poly = tuple  # tuple[int, ...]


def trim(c) -> Poly:
    """Drop trailing zero coefficients."""
    c = tuple(c)
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return c[:n]


def degree(f: Poly) -> int:
    """Degree of f; the zero polynomial has degree -1."""
    return len(f) - 1


def is_zero(f: Poly) -> bool:
    return len(f) == 0


def add(f: Poly, g: Poly) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return trim(out)


def neg(f: Poly) -> Poly:
    return tuple(-c for c in f)


def sub(f: Poly, g: Poly) -> Poly:
    return add(f, neg(g))


def mul(f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim(out)


def scale(f: Poly, c) -> Poly:
    return tuple(a * c for a in f) if c else ()


def shift(f: Poly, k: int) -> Poly:
    """Multiply by x^k (k >= 0)."""
    return (0,) * k + tuple(f) if f else ()


def derivative(f: Poly) -> Poly:
    return trim(tuple(i * c for i, c in enumerate(f))[1:])


def div_exact(f: Poly, g: Poly) -> Poly:
    """The quotient f / g in Z[x]; DivisibilityError unless g divides f there.

    For a primitive g this is division over Q: by Gauss's lemma a primitive
    divisor of an integer polynomial leaves an integer quotient.
    """
    if is_zero(g):
        raise ZeroDivisionError("polynomial division by zero")
    r = list(trim(f))
    dg, lg = degree(g), g[-1]
    q = [0] * max(0, len(r) - dg)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + dg], lg)
        if rem:
            raise DivisibilityError("polynomial quotient is not in Z[x]")
        q[k] = c
        if c:
            for i in range(dg):
                r[k + i] -= c * g[i]
    if any(r[:dg]):
        raise DivisibilityError("polynomial division left a nonzero remainder")
    return tuple(q)


def mod_monic(f: Poly, g: Poly) -> Poly:
    """Remainder of f by a *monic* g, staying in the integers."""
    dg = degree(g)
    if degree(f) < dg:
        return trim(f)
    r = list(f)
    for k in range(len(r) - 1, dg - 1, -1):
        c = r[k]
        if c:
            for i in range(dg):
                r[k - dg + i] -= c * g[i]
            r[k] = 0
    return trim(r[:dg])


def content(f: Poly) -> int:
    """Positive gcd of the integer coefficients (0 for the zero polynomial)."""
    return gcd(*f)


def primitive(f: Poly) -> tuple[int, Poly]:
    """Split f = c * pp(f) with c integer of the sign of the leading coefficient."""
    if is_zero(f):
        return 0, ()
    c = content(f)
    if f[-1] < 0:
        c = -c
    return c, tuple(a // c for a in f)


def rational_primitive(f: Poly) -> tuple[Fraction, Poly]:
    """Split a rational polynomial f = c * g with g primitive integer, lc(g) > 0."""
    if is_zero(f):
        return Fraction(0), ()
    fracs = [Fraction(c) for c in f]
    den = lcm(*(c.denominator for c in fracs))
    ints = tuple(int(c * den) for c in fracs)
    c, pp = primitive(ints)
    return Fraction(c, den), pp


def gcd_int_poly(f: Poly, g: Poly) -> Poly:
    """Gcd of integer polynomials, primitive with positive leading coefficient."""
    f, g = primitive(f)[1], primitive(g)[1]
    if is_zero(f):
        return g
    if is_zero(g):
        return f
    if degree(f) < degree(g):
        f, g = g, f
    while not is_zero(g):
        # primitive pseudo-remainder sequence keeps the coefficients integral
        r = pseudo_rem(f, g)
        f, g = g, primitive(r)[1]
    return f


def pseudo_rem(f: Poly, g: Poly) -> Poly:
    """s * rem(f, g) for a *positive* rational s, over the integers.

    Each step replaces r by lc(g)*r - lc(r)*x^(dr-dg)*g, which kills the
    leading term without leaving the integers; the sign of every negative
    lc(g) factor is undone, so the result has the sign of the remainder
    (the Sturm chain relies on it).  It is zero exactly when g divides f
    over Q.
    """
    r = list(trim(f))
    dg, lg = degree(g), g[-1]
    flips = 0
    while len(r) - 1 >= dg and r:
        dr, lr = len(r) - 1, r[-1]
        if lg < 0:
            flips ^= 1
        r = [c * lg for c in r]
        for i in range(dg + 1):
            r[dr - dg + i] -= lr * g[i]
        while r and r[-1] == 0:
            r.pop()
    return neg(r) if flips else tuple(r)


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm over the integers.

    Returns [(g_1, 1), (g_2, 2), ...] with f = c * prod g_i^i, each g_i
    squarefree and primitive, pairwise coprime; factors with g_i = 1 omitted.
    """
    _, f = primitive(f)
    if degree(f) < 1:
        return []
    out = []
    fp = derivative(f)
    a = gcd_int_poly(f, fp)
    b = div_exact(f, a)
    c = sub(div_exact(fp, a), derivative(b))
    i = 1
    while degree(b) >= 1:
        d = gcd_int_poly(b, c)
        if degree(d) >= 1:
            out.append((d, i))
        b2 = div_exact(b, d)
        c = sub(div_exact(c, d), derivative(b2))
        b = b2
        i += 1
    return out


def to_trace_poly(p: Poly) -> Poly:
    """The tuple q, ascending in z, with p(x) = x^m * q(x + 1/x) for a
    palindromic p of even degree 2m: the trace substitution z = x + 1/x,
    under which roots of p on the unit circle become roots of q in (-2, 2).

    q is built from p's own coefficients, with no unit: lc(q) = lc(p), and
    q is primitive when p is.

    Anti-palindromic input (p(1/x) = -x^k p(x)) cannot be a polynomial in
    x + 1/x and raises SymmetryError, as does asymmetric input; odd degree
    raises ParityError.
    """
    p = trim(p)
    if is_zero(p):
        raise SymmetryError("the zero polynomial has no trace form")
    rev = p[::-1]
    if rev != p and rev != neg(p):
        raise SymmetryError("polynomial is not self-reciprocal")
    if degree(p) % 2 != 0:
        raise ParityError("self-reciprocal polynomial has odd span")
    if rev != p:
        raise SymmetryError("anti-palindromic polynomial is not a polynomial in x + 1/x")
    m = degree(p) // 2
    # x^j + x^-j as monic integer polynomials in z (T~_0 = 2, T~_1 = z, ...)
    tj = [(2,), (0, 1)]
    for _ in range(2, m + 1):
        tj.append(sub(shift(tj[-1], 1), tj[-2]))
    q = trim((p[m],))
    for j in range(1, m + 1):
        q = add(q, scale(tj[j], p[m + j]))
    assert from_trace_poly(q) == p
    return q


def from_trace_poly(q: Poly) -> Poly:
    """The pull-back x^(deg q) * q(x + 1/x), palindromic of degree 2 deg q."""
    q = trim(q)
    out: Poly = ()
    for j, c in enumerate(reversed(q)):
        out = add(mul(out, (1, 0, 1)), shift((c,), j))
    return out


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> Poly:
    """The n-th cyclotomic polynomial as an integer tuple."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    # x^n - 1 divided by the cyclotomics of the proper divisors
    f: Poly = tuple([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            f = div_exact(f, cyclotomic(d))
    return f


def totient(n: int) -> int:
    """Euler's phi(n), the degree of the n-th cyclotomic polynomial."""
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def interval_eval(f: Poly, lo: int, hi: int, d: int = 1) -> tuple[int, int]:
    """Rigorous enclosure of d**deg f * f([lo/d, hi/d]), d > 0: interval
    Horner over the rationals scaled by d**deg f, on ints as in sturm.sign_at."""
    rlo, rhi, dk = 0, 0, 1
    for c in reversed(f):
        cands = (rlo * lo, rlo * hi, rhi * lo, rhi * hi)
        rlo, rhi = min(cands) + c * dk, max(cands) + c * dk
        dk *= d
    return rlo, rhi


def format_poly(f: Poly, var: str = "x") -> str:
    """Human-readable form, highest degree first, e.g. 'x^2 - x + 1'."""
    if is_zero(f):
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == 0:
            continue
        sign = " + " if (c > 0 and parts) else " - " if (c < 0 and parts) else "" if c > 0 else "-"
        mag = abs(c)
        if i == 0:
            body = f"{mag}"
        else:
            coeff = "" if mag == 1 else f"{mag}*"
            body = f"{coeff}{var}" if i == 1 else f"{coeff}{var}^{i}"
        parts.append(f"{sign}{body}")
    return "".join(parts)
