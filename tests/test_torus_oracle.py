"""Exact regression gate for the signature kernels: Litherland's count.

For the torus knot T(p,q) the hermitian form at exp(2*pi*i*x), 0 < x < 1,
has signature -(#inside - #outside) over the pairs 1 <= i < p, 1 <= j < q:
s = i/p + j/q is inside when x < s < x + 1 and outside when s < x or
s > x + 1, and each pair with s = x or s = x + 1 adds one to the nullity
(Litherland, Signatures of iterated torus knots, LNM 722, 1979).  Only
Fractions are used, so there is no tolerance and no skipped point.
"""

from fractions import Fraction
from math import gcd

import pytest
from conftest import assert_walks_match_all_samples, sparse

from knotsig.expressions import resolve
from knotsig.hermitian import signatures_at_roots
from knotsig.seifert import alexander_polynomial
from knotsig.signature import breakpoint_candidates, step_function

HALF = Fraction(1, 2)

SMALL_TORUS = [(p, q) for p in range(2, 9) for q in range(p + 1, 62)
               if gcd(p, q) == 1 and (p - 1) * (q - 1) <= 60]

NONBALANCED_TORUS = [(4, 9), (3, 11), (5, 6), (2, 21)]


def litherland(p: int, q: int, x: Fraction) -> tuple[int, int]:
    """(signature, nullity) of T(p,q) at exp(2*pi*i*x), 0 < x < 1."""
    sig = null = 0
    for i in range(1, p):
        for j in range(1, q):
            s = Fraction(i, p) + Fraction(j, q)
            if s in (x, x + 1):
                null += 1
            else:
                sig += -1 if x < s < x + 1 else 1
    return sig, null


def singular_angles(p: int, q: int) -> set[Fraction]:
    """Angles x in (0, 1/2) where the form of T(p,q) is singular."""
    out = set()
    for i in range(1, p):
        for j in range(1, q):
            x = (Fraction(i, p) + Fraction(j, q)) % 1
            if 0 < x < HALF:
                out.add(x)
    return out


def expected_plateaus(summands, angles) -> list[int]:
    """Plateau values of a sum of signed torus knots between the angles."""
    edges = [Fraction(0)] + sorted(angles) + [HALF]
    return [sum(sign * litherland(p, q, (a + b) / 2)[0] for sign, p, q in summands)
            for a, b in zip(edges, edges[1:])]


def test_small_torus_list():
    assert len(SMALL_TORUS) == 75
    assert (5, 7) in SMALL_TORUS and (2, 25) in SMALL_TORUS and (3, 13) in SMALL_TORUS
    assert (2, 41) in SMALL_TORUS and (5, 11) in SMALL_TORUS and (6, 7) in SMALL_TORUS
    assert (2, 61) in SMALL_TORUS and (7, 11) in SMALL_TORUS and (8, 9) in SMALL_TORUS
    assert (3, 31) in SMALL_TORUS and (4, 21) in SMALL_TORUS and (5, 16) in SMALL_TORUS


@pytest.mark.parametrize("p,q", SMALL_TORUS)
def test_plateaus_match_litherland(p, q):
    # plateaus and non-balanced values from one step_function call, and the
    # walk's values at every plateau sample
    V = resolve(f"T({p},{q})")
    sf = step_function(V)
    assert_walks_match_all_samples(V)
    angles = singular_angles(p, q)
    ts = [bp.root.exact_t for bp in sf.breakpoints]
    assert ts == sorted(angles)
    assert list(sf.plateaus) == expected_plateaus([(1, p, q)], angles)
    assert [bp.nonbalanced for bp in sf.breakpoints] == [litherland(p, q, t)[0] for t in ts]


@pytest.mark.parametrize("p,q", NONBALANCED_TORUS)
def test_nonbalanced_match_litherland(p, q):
    V = resolve(f"T({p},{q})")
    sf = step_function(V)
    ts = [bp.root.exact_t for bp in sf.breakpoints]
    assert ts == sorted(singular_angles(p, q))
    assert [bp.nonbalanced for bp in sf.breakpoints] == [litherland(p, q, t)[0] for t in ts]
    # the kernel's nullities too, one elimination per factor
    for bf in breakpoint_candidates(alexander_polynomial(V)):
        got = signatures_at_roots(sparse(V.rows), bf.roots[0].trace, [ur.root for ur in bf.roots])
        assert got == [litherland(p, q, ur.exact_t) for ur in bf.roots], bf.x_factor


def test_connected_sum_is_additive():
    summands = [(1, 3, 4), (-1, 2, 5), (1, 2, 3)]
    sf = step_function(resolve("T(3,4) # -T(2,5) # T(2,3)"))
    angles = set().union(*(singular_angles(p, q) for _s, p, q in summands))
    ts = [bp.root.exact_t for bp in sf.breakpoints]
    assert ts == sorted(angles)
    assert list(sf.plateaus) == expected_plateaus(summands, angles)
    assert [bp.nonbalanced for bp in sf.breakpoints] == [
        sum(sign * litherland(p, q, t)[0] for sign, p, q in summands) for t in ts]
