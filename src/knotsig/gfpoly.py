"""Polynomial arithmetic and factorization over GF(p), p an odd prime.

Polynomials are lists/tuples of ints in [0, p), ascending degree.  Only
what the rational factorization in factor.py needs is implemented:
squarefreeness testing and complete factorization of squarefree monic
polynomials (distinct-degree followed by Cantor-Zassenhaus splitting).
"""

from __future__ import annotations

import random


def gp_trim(f: list[int]) -> list[int]:
    n = len(f)
    while n and f[n - 1] == 0:
        n -= 1
    return f[:n]


def gp_sub(f: list[int], g: list[int], p: int) -> list[int]:
    out = list(f) + [0] * max(0, len(g) - len(f))
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return gp_trim(out)


def gp_mul(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return gp_trim(out)


def gp_divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    if not g:
        raise ZeroDivisionError
    r = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], p - 2, p)
    q = [0] * max(0, len(r) - dg)
    while len(gp_trim(r)) - 1 >= dg:
        r = gp_trim(r)
        c = r[-1] * inv % p
        k = len(r) - 1 - dg
        q[k] = c
        for i in range(dg + 1):
            r[k + i] = (r[k + i] - c * g[i]) % p
    return gp_trim(q), gp_trim(r)


def gp_rem(f: list[int], g: list[int], p: int) -> list[int]:
    return gp_divmod(f, g, p)[1]


def gp_monic(f: list[int], p: int) -> list[int]:
    if not f:
        return []
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]


def gp_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    while g:
        f, g = g, gp_rem(f, g, p)
    return gp_monic(f, p)


def gp_deriv(f: list[int], p: int) -> list[int]:
    return gp_trim([i * c % p for i, c in enumerate(f)][1:])


def gp_pow_mod(f: list[int], n: int, g: list[int], p: int) -> list[int]:
    r = [1]
    f = gp_rem(f, g, p)
    while n:
        if n & 1:
            r = gp_rem(gp_mul(r, f, p), g, p)
        f = gp_rem(gp_mul(f, f, p), g, p)
        n >>= 1
    return r


def gp_is_squarefree(f: list[int], p: int) -> bool:
    return len(gp_gcd(f, gp_deriv(f, p), p)) == 1


def gp_distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Split monic squarefree f into products of irreducibles of equal degree.

    Returns pairs (g, d) where g is the product of all irreducible factors
    of degree d.
    """
    out = []
    h = [0, 1]  # x
    rest = list(f)
    d = 0
    while len(rest) - 1 > 0:
        d += 1
        if 2 * d > len(rest) - 1:
            out.append((rest, len(rest) - 1))
            break
        h = gp_pow_mod(h, p, rest, p)
        g = gp_gcd(gp_sub(h, [0, 1], p), rest, p)
        if len(g) > 1:
            out.append((g, d))
            rest, r = gp_divmod(rest, g, p)
            assert not r
            h = gp_rem(h, rest, p)
    return out


def gp_equal_degree(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus splitting of monic squarefree f, all factors of degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    half = (p**d - 1) // 2
    while True:
        r = [rng.randrange(p) for _ in range(n - 1)] + [1]
        h = gp_pow_mod(r, half, f, p)
        g = gp_gcd(gp_sub(h, [1], p), f, p)
        if 1 < len(g) < len(f):
            q, rem = gp_divmod(f, g, p)
            assert not rem
            return gp_equal_degree(g, d, p, rng) + gp_equal_degree(q, d, p, rng)


def gp_factor_squarefree(f: list[int], p: int, rng: random.Random) -> list[list[int]]:
    """All monic irreducible factors of a monic squarefree f over GF(p)."""
    out = []
    for g, d in gp_distinct_degree(f, p):
        out.extend(gp_equal_degree(g, d, p, rng))
    out.sort(key=lambda h: (len(h), tuple(h)))
    return out
