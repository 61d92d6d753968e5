"""Factorization of univariate polynomials over the rationals.

The pipeline is content extraction, then a modular screen that splits off
every cyclotomic factor Phi_m with its multiplicity (knot-theoretic inputs
are cyclotomic-rich; Bradford and Davenport, Effective tests for cyclotomic
polynomials, ISSAC '88), then Yun squarefree decomposition of the cofactor,
then Zassenhaus: factor modulo a good small prime, Hensel lift to a modulus
beyond the Mignotte bound, and recombine modular factors by subset search.

The screen evaluates f at a primitive m-th root of unity w modulo a prime
p = 1 (mod m), for each m with phi(m) <= deg f; since phi(m) >= sqrt(m/2),
these m lie below 2 d^2 + 2.  The primitive m-th roots of unity mod p are
the roots of Phi_m mod p, so a nonzero f(w) proves that Phi_m does not
divide f; a zero is confirmed, and the multiplicity counted, by exact
division.  Only per-m data is cached: the totient sieve and each m's (p, w).

All polynomials follow the intpoly convention (ascending coefficient tuples).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import ceil, isqrt, log, log2

from . import gfpoly as gp
from . import intpoly as ip

_PRIME_LIMIT = 2000


def _primes(limit: int = _PRIME_LIMIT) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(3, limit + 1) if sieve[i]]


_ODD_PRIMES = _primes()


def _smod(c: int, m: int) -> int:
    """Symmetric representative of c modulo m, in (-m/2, m/2]."""
    c %= m
    if 2 * c > m:
        c -= m
    return c


def _trunc(f, m: int):
    return ip.trim(tuple(_smod(c, m) for c in f))


def _divmod_monic(f, g):
    """Integer polynomial division by a monic g (exact at every step)."""
    r = list(f)
    dg = len(g) - 1
    q = [0] * max(0, len(r) - dg)
    while len(ip.trim(r)) - 1 >= dg:
        r = list(ip.trim(r))
        c = r[-1]
        k = len(r) - 1 - dg
        q[k] = c
        for i in range(dg + 1):
            r[k + i] -= c * g[i]
    return ip.trim(q), ip.trim(r)


def _gp_gcdex(f, g, p):
    """Extended Euclid over GF(p): returns (s, t, h) with s*f + t*g = h monic."""
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while g:
        q, r = gp.gp_divmod(f, g, p)
        f, g = g, r
        s0, s1 = s1, gp.gp_sub(s0, gp.gp_mul(q, s1, p), p)
        t0, t1 = t1, gp.gp_sub(t0, gp.gp_mul(q, t1, p), p)
    inv = pow(f[-1], p - 2, p)
    return ([c * inv % p for c in s0], [c * inv % p for c in t0],
            gp.gp_monic(f, p))


def _hensel_step(m, f, g, h, s, t):
    """Quadratic Hensel step: from f = g*h (mod m) to modulus m**2.

    Requires s*g + t*h = 1 (mod m) and h monic; returns (G, H, S, T) with the
    same invariants modulo m**2.
    """
    M = m * m
    e = _trunc(ip.sub(f, ip.mul(g, h)), M)
    q, r = _divmod_monic(ip.mul(s, e), h)
    q, r = _trunc(q, M), _trunc(r, M)
    u = ip.add(ip.mul(t, e), ip.mul(q, g))
    G = _trunc(ip.add(g, u), M)
    H = _trunc(ip.add(h, r), M)
    u = ip.add(ip.mul(s, G), ip.mul(t, H))
    b = _trunc(ip.sub(u, (1,)), M)
    c, d = _divmod_monic(ip.mul(s, b), H)
    c, d = _trunc(c, M), _trunc(d, M)
    S = _trunc(ip.sub(s, d), M)
    u = ip.add(ip.mul(t, b), ip.mul(c, G))
    T = _trunc(ip.sub(t, u), M)
    return G, H, S, T


def _hensel_lift(p, f, factors, l):
    """Lift monic factors of f modulo p to monic factors modulo p**l.

    Satisfies f = lc(f) * prod(lifted) (mod p**l), lifting by recursive
    bisection with quadratic steps.
    """
    r = len(factors)
    lc = f[-1]
    pl = p**l
    if r == 1:
        inv = pow(lc % pl, -1, pl)
        return [_trunc(ip.scale(f, inv), pl)]
    k = r // 2
    steps = ceil(log2(l)) if l > 1 else 0

    g = [lc % p]
    for fi in factors[:k]:
        g = gp.gp_mul(g, [c % p for c in fi], p)
    h = [1]
    for fi in factors[k:]:
        h = gp.gp_mul(h, [c % p for c in fi], p)
    s, t, one = _gp_gcdex(g, h, p)
    assert one == [1], "modular factors are not coprime"

    g, h = _trunc(g, p), _trunc(h, p)
    s, t = _trunc(s, p), _trunc(t, p)
    m = p
    for _ in range(steps):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
    return _hensel_lift(p, g, factors[:k], l) + _hensel_lift(p, h, factors[k:], l)


def _rng_for(f, p: int) -> random.Random:
    # deterministic across runs: factorization feeds byte-identical reports
    seed = p
    for c in f:
        seed = (seed * 1000003 + c) % (2**61 - 1)
    return random.Random(seed)


def _zassenhaus(f) -> list[tuple]:
    """Irreducible factors of a primitive squarefree f, deg >= 1, lc > 0."""
    n = ip.degree(f)
    if n == 1:
        return [f]
    A = max(abs(c) for c in f)
    b = f[-1]
    B = (isqrt(n + 1) + 1) * (1 << n) * A * abs(b)

    candidates = []
    for p in _ODD_PRIMES:
        if b % p == 0:
            continue
        fp = gp.gp_monic([c % p for c in f], p)
        if len(fp) != n + 1 or not gp.gp_is_squarefree(fp, p):
            continue
        mod_factors = gp.gp_factor_squarefree(fp, p, _rng_for(f, p))
        candidates.append((len(mod_factors), p, mod_factors))
        if len(mod_factors) < 8 or len(candidates) >= 4:
            break
    if not candidates:
        raise ArithmeticError("no usable prime found for factorization")
    _, p, mod_factors = min(candidates, key=lambda c: c[0])
    if len(mod_factors) == 1:
        return [f]

    l = ceil(log(2 * B + 1, p))
    pl = p**l
    lifted = _hensel_lift(p, f, [_trunc(g, p) for g in mod_factors], l)

    remaining = list(range(len(lifted)))
    factors = []
    s = 1
    fc = f[0]
    while 2 * s <= len(remaining):
        progressed = False
        for S in itertools.combinations(remaining, s):
            G = (b,)
            for i in S:
                G = _trunc(ip.mul(G, lifted[i]), pl)
            Gp = ip.primitive(G)[1]
            # a true factor's extreme coefficients divide those of f
            if Gp:
                if Gp[0] == 0:
                    if fc != 0:
                        continue
                elif fc % Gp[0] != 0 or b % Gp[-1] != 0:
                    continue
            H = (b,)
            for i in remaining:
                if i not in S:
                    H = _trunc(ip.mul(H, lifted[i]), pl)
            norm_G = sum(abs(c) for c in G)
            norm_H = sum(abs(c) for c in H)
            if norm_G * norm_H <= B:
                factors.append(Gp)
                f = ip.primitive(H)[1]
                fc, b = f[0], f[-1]
                remaining = [i for i in remaining if i not in S]
                progressed = True
                break
        if not progressed:
            s += 1
    factors.append(f)
    return [g for g in factors if ip.degree(g) >= 1]


_TOTIENTS = [0, 1]


def _totients(n: int) -> list[int]:
    """Euler's phi of 0..n (or further), from a sieve kept between calls."""
    global _TOTIENTS
    if len(_TOTIENTS) <= n:
        phi = list(range(n + 1))
        for i in range(2, n + 1):
            if phi[i] == i:  # untouched by every smaller prime: i is prime
                phi[i::i] = [v - v // i for v in phi[i::i]]
        _TOTIENTS = phi
    return _TOTIENTS


@lru_cache(maxsize=None)
def _unity_root(m: int) -> tuple[int, int]:
    """(p, w): the least prime p = 1 (mod m) and a primitive m-th root of
    unity w modulo p."""
    p = m + 1
    while any(p % e == 0 for e in range(2, isqrt(p) + 1)):
        p += m
    for g in range(1, p):
        w = pow(g, (p - 1) // m, p)
        # of order exactly m: w**k != 1 for every proper divisor k of m
        if all(pow(w, k, p) != 1 for k in range(1, m) if m % k == 0):
            return p, w
    raise ArithmeticError("no primitive root of unity")  # unreachable: GF(p)* is cyclic


def _cyclotomic_split(f) -> tuple[tuple, list[tuple[tuple, int, int]]]:
    """(cofactor, [(Phi_m, k, m), ...]) with f = cofactor * prod Phi_m**k and
    no Phi_m dividing the cofactor, for a primitive f with lc > 0 (module
    docstring)."""
    out = []
    d = ip.degree(f)
    phi = _totients(2 * d * d + 2)
    m = 0
    while m < 2 * d * d + 2:
        m += 1
        if phi[m] > d:
            continue
        p, w = _unity_root(m)
        k = 0
        while True:
            v = 0
            for c in reversed(f):
                v = (v * w + c) % p
            if v:
                break
            q, r = _divmod_monic(f, ip.cyclotomic(m))
            if r:
                break
            f, k = q, k + 1
        if k:
            out.append((ip.cyclotomic(m), k, m))
            d = ip.degree(f)
    return f, out


def factor_int_poly(f, indexed: bool = False) -> tuple[int, list[tuple]]:
    """Factor an integer polynomial into content and irreducible parts.

    Returns (c, [(g, k), ...]) with f = c * prod g**k, each g irreducible
    over Q, primitive with positive leading coefficient, sorted by degree
    then coefficients.  With indexed, each entry is (g, k, m), where m is
    the n with g = Phi_n, or None when g is not cyclotomic.
    """
    f = ip.trim(f)
    if ip.is_zero(f):
        raise ValueError("cannot factor the zero polynomial")
    c, pp = ip.primitive(f)
    rest, factors = _cyclotomic_split(pp)
    for part, mult in ip.squarefree_decomposition(rest):
        factors.extend((g, mult, None) for g in _zassenhaus(part))
    factors.sort(key=lambda gkm: (len(gkm[0]), gkm[0]))
    return c, factors if indexed else [(g, k) for g, k, _ in factors]


def factor_rational_poly(f) -> tuple[Fraction, list[tuple[tuple, int]]]:
    """Factor a polynomial with rational coefficients; unit is a Fraction."""
    unit, pp = ip.rational_primitive(tuple(f))
    if ip.is_zero(pp):
        raise ValueError("cannot factor the zero polynomial")
    c, factors = factor_int_poly(pp)
    return unit * c, factors


def is_irreducible(f) -> bool:
    """Irreducibility over Q of a nonconstant integer polynomial."""
    c, factors = factor_int_poly(f)
    return len(factors) == 1 and factors[0][1] == 1
