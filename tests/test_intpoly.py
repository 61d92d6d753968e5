from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eval_at
from knotsig import intpoly as ip
from knotsig.errors import DivisibilityError, ParityError, SymmetryError

small_polys = st.lists(st.integers(-6, 6), min_size=0, max_size=7).map(ip.trim)


def test_trim_and_degree():
    assert ip.trim((0, 1, 0, 0)) == (0, 1)
    assert ip.degree(()) == -1
    assert ip.degree((5,)) == 0


@given(small_polys, small_polys)
@settings(max_examples=60)
def test_mul_degree_and_commutativity(f, g):
    assert ip.mul(f, g) == ip.mul(g, f)
    if f and g:
        assert ip.degree(ip.mul(f, g)) == ip.degree(f) + ip.degree(g)


@given(small_polys, small_polys)
@settings(max_examples=60)
def test_exact_division_of_products(f, g):
    if ip.is_zero(g):
        return
    fg = ip.mul(f, g)
    assert ip.div_exact(fg, g) == f
    assert ip.pseudo_rem(fg, g) == ()
    with pytest.raises(DivisibilityError):
        ip.div_exact((1, 1), (2, 2))  # divides over Q, not in Z[x]


def test_pseudo_rem_keeps_the_sign():
    # x^2 = (1 - x)(-1 - x) + 1: the remainder 1 stays positive although
    # lc(g) = -1 scales every step
    assert ip.pseudo_rem((0, 0, 1), (1, -1)) == (1,)
    assert ip.pseudo_rem((0, 0, 0, 1), (1, 0, -2)) == (0, 1)  # x^3 rem (1 - 2x^2) = x/2


def test_div_exact_raises_on_remainder():
    with pytest.raises(DivisibilityError):
        ip.div_exact((1, 1), (1, 2))


def test_gcd_known():
    f = ip.mul((1, 1), (2, 0, 1))
    g = ip.mul((1, 1), (1, 1, 1))
    assert ip.gcd_int_poly(f, g) == (1, 1)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=40)
def test_gcd_divides_both(f, g, h):
    a, b = ip.mul(f, h), ip.mul(g, h)
    if ip.is_zero(a) and ip.is_zero(b):
        return
    d = ip.gcd_int_poly(a, b)
    if ip.is_zero(a):
        assert d == ip.primitive(b)[1]
        return
    for target in (a, b):
        if not ip.is_zero(target):
            assert ip.is_zero(ip.pseudo_rem(target, d))
            assert ip.mul(ip.div_exact(target, d), d) == target


def test_squarefree_decomposition():
    f = ip.mul(ip.mul((1, 1), (1, 1)), (-1, 0, 1))  # (x+1)^3 (x-1)
    parts = ip.squarefree_decomposition(f)
    assert parts == [((-1, 1), 1), ((1, 1), 3)]


def test_cyclotomic_values():
    assert ip.cyclotomic(1) == (-1, 1)
    assert ip.cyclotomic(6) == (1, -1, 1)
    assert ip.cyclotomic(10) == (1, -1, 1, -1, 1)
    assert ip.cyclotomic(30) == (1, 1, 0, -1, -1, -1, 0, 1, 1)
    # product of phi_d over d | n gives x^n - 1
    n = 12
    prod = (1,)
    for d in range(1, n + 1):
        if n % d == 0:
            prod = ip.mul(prod, ip.cyclotomic(d))
    assert prod == ip.trim((-1,) + (0,) * (n - 1) + (1,))


def test_interval_eval_contains_true_values():
    f = (1, -3, 0, 2)
    lo, hi = ip.interval_eval(f, Fraction(-1, 2), Fraction(3, 4))
    for k in range(21):
        x = Fraction(-1, 2) + Fraction(k, 16)
        if x > Fraction(3, 4):
            break
        assert lo <= eval_at(f, x) <= hi


def test_mod_monic_matches_divmod():
    f = (3, -1, 4, 1, -5)
    g = (2, -1, 1)  # monic
    r = ip.mod_monic(f, g)
    assert r == ip.pseudo_rem(f, g)
    assert ip.mul(ip.div_exact(ip.sub(f, r), g), g) == ip.sub(f, r)


def test_trace_examples():
    assert ip.to_trace_poly((1, -1, 1)) == (-1, 1)              # z - 1
    assert ip.to_trace_poly((1, -1, 1, -1, 1)) == (-1, -1, 1)   # z^2 - z - 1
    assert ip.to_trace_poly((1, -3, 1)) == (-3, 1)              # z - 3


def test_trace_errors():
    with pytest.raises(SymmetryError):
        ip.to_trace_poly((1, 2))         # not self-reciprocal
    with pytest.raises(SymmetryError):
        ip.to_trace_poly((-1, 0, 1))     # x^2 - 1: anti-palindromic
    with pytest.raises(ParityError):
        ip.to_trace_poly((1, 1))         # odd span


def test_trace_roundtrip_explicit():
    q = ip.to_trace_poly((1, -1, 1, -1, 1))
    assert ip.from_trace_poly(q) == (1, -1, 1, -1, 1)


@given(st.lists(st.sampled_from([(1, -1, 1), (1, -3, 1), (1, 0, 1), (1, 1, 1),
                                 (1, -1, 1, -1, 1), (4, -7, 4)]),
                min_size=1, max_size=3))
@settings(max_examples=40)
def test_trace_roundtrip_products(factors):
    f = (1,)
    for g in factors:
        f = ip.mul(f, g)
    assert ip.from_trace_poly(ip.to_trace_poly(f)) == f


def test_irreducible_pullback_stays_irreducible():
    # if q is irreducible with a root in (-2, 2), the pull-back is irreducible
    from knotsig.factor import factor_int_poly

    for q in [(-1, 1), (-3, 1), (-1, -1, 1), (1, -4, -1, 1)]:
        _, prim = ip.primitive(ip.from_trace_poly(q))
        _, fs = factor_int_poly(prim)
        assert len(fs) == 1 and fs[0][1] == 1, (q, fs)
