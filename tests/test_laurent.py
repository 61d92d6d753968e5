from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotsig import intpoly as ip
from knotsig.errors import DivisibilityError, ParityError, SymmetryError
from knotsig.laurent import (LaurentPoly, from_trace_poly, normalize_alexander,
                             to_trace_poly)


def L(low, *coeffs):
    return LaurentPoly(low, coeffs)


def test_product_example():
    # (x - 1)(1/x - 1) = -x + 2 - 1/x
    a = L(0, -1, 1)
    b = L(-1, 1, -1)
    assert a * b == L(-1, -1, 2, -1)


def test_coefficients_are_integers():
    assert all(type(c) is int for c in L(0, 2, -3, 2).coeffs)
    with pytest.raises(TypeError):
        LaurentPoly(0, (Fraction(1, 2),))


def test_gcd_with_own_power():
    f = L(0, 1, -1, 1)
    g = f * f
    d = f.gcd(g)
    assert d == L(0, 1, -1, 1)


def test_exact_div_divisibility_error():
    phi10 = L(0, 1, -1, 1, -1, 1)
    phi6 = L(0, 1, -1, 1)
    with pytest.raises(DivisibilityError):
        phi10.exact_div(phi6)


def test_exact_div_units():
    f = L(-2, 3, 0, 1)
    g = L(1, 1, 2)
    assert (f * g).exact_div(g) == f


def test_trace_examples():
    assert to_trace_poly(L(0, 1, -1, 1)) == (-1, 1)          # z - 1
    assert to_trace_poly(L(0, 1, -1, 1, -1, 1)) == (-1, -1, 1)  # z^2 - z - 1
    assert to_trace_poly(L(0, 1, -3, 1)) == (-3, 1)          # z - 3


def test_trace_errors():
    with pytest.raises(SymmetryError):
        to_trace_poly(L(0, 1, 2))           # not self-reciprocal
    with pytest.raises(SymmetryError):
        to_trace_poly(L(0, -1, 0, 1))       # x^2 - 1: anti-palindromic
    with pytest.raises(ParityError):
        to_trace_poly(L(0, 1, 1))           # odd span


def test_trace_roundtrip_explicit():
    q = to_trace_poly(L(0, 1, -1, 1, -1, 1))
    back = from_trace_poly(q)
    # equal up to a unit x^k
    assert back.coeffs == (1, -1, 1, -1, 1)


@given(st.lists(st.sampled_from([(1, -1, 1), (1, -3, 1), (1, 0, 1), (1, 1, 1),
                                 (1, -1, 1, -1, 1), (4, -7, 4)]),
                min_size=1, max_size=3))
@settings(max_examples=40)
def test_trace_roundtrip_products(factors):
    f = (1,)
    for g in factors:
        f = ip.mul(f, g)
    p = LaurentPoly(0, f)
    q = to_trace_poly(p)
    back = from_trace_poly(q)
    quotient = back.exact_div(p)  # must be a unit monomial
    assert quotient.span == 0 and abs(quotient.coeffs[0]) == 1


def test_irreducible_pullback_stays_irreducible():
    # if q is irreducible with a root in (-2, 2), the pull-back is irreducible
    from knotsig.factor import factor_int_poly

    for q in [(-1, 1), (-3, 1), (-1, -1, 1), (1, -4, -1, 1)]:
        back = from_trace_poly(q)
        _, prim = back.int_coeffs()
        _, fs = factor_int_poly(prim)
        assert len(fs) == 1 and fs[0][1] == 1, (q, fs)


def test_normalize_alexander():
    d = normalize_alexander(L(3, -1, 3, -1))  # -x^3 + 3x^4 - x^5, value 1 at 1
    assert d == L(-1, -1, 3, -1)
    assert sum(d.coeffs) == 1
    with pytest.raises(ParityError):
        normalize_alexander(L(0, 1, 1))
    with pytest.raises(SymmetryError):
        normalize_alexander(L(0, 1, 2, 2))


def test_reciprocal_and_signs():
    assert L(0, 1, -1, 1).self_reciprocal_sign() == 1
    assert L(0, -1, 0, 1).self_reciprocal_sign() == -1
    assert L(0, 1, 2).self_reciprocal_sign() is None
