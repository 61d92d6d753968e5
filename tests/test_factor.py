import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kronecker_has_factor
from knotsig import intpoly as ip
from knotsig.factor import (_cyclotomic_split, _zassenhaus, factor_int_poly,
                            factor_rational_poly, is_irreducible)


def reassemble(c, factors):
    out = (c,)
    for g, k in factors:
        for _ in range(k):
            out = ip.mul(out, g)
    return out


def test_perfect_square_difference():
    # z^4 - 2 z^2 + 1 = (z-1)^2 (z+1)^2
    c, factors = factor_int_poly((1, 0, -2, 0, 1))
    assert c == 1
    assert factors == [((-1, 1), 2), ((1, 1), 2)]


def test_trace_of_squared_hexagonal_factor():
    # the trace polynomial of (x^2 - x + 1)^2 is (z - 1)^2
    sq = ip.mul((1, -1, 1), (1, -1, 1))
    q = ip.to_trace_poly(sq)
    _, qi = ip.primitive(q)
    c, factors = factor_int_poly(qi)
    assert factors == [((-1, 1), 2)]


def test_torus_connected_sum_trace_factors():
    # Delta of T(3,10) # -T(2,15) # -T(5,6) has trace factors of
    # phi6^2 phi10^2 phi15^2 phi30^3
    from knotsig.expressions import resolve
    from knotsig.seifert import alexander_polynomial

    V = resolve("T(3,10) # -T(2,15) # -T(5,6)")
    delta = alexander_polynomial(V)
    q = ip.to_trace_poly(delta)
    _, qi = ip.primitive(q)
    _, factors = factor_int_poly(qi)

    def trace_of(n):
        t = ip.to_trace_poly(ip.cyclotomic(n))
        return ip.primitive(t)[1]

    expected = sorted(
        [(trace_of(6), 2), (trace_of(10), 2), (trace_of(15), 2), (trace_of(30), 3)],
        key=lambda fk: (len(fk[0]), fk[0]))
    assert factors == expected


def test_cyclotomic_products_factor_back():
    f = (1,)
    for n in (1, 2, 4, 6, 10, 12, 30):
        f = ip.mul(f, ip.cyclotomic(n))
    _, factors = factor_int_poly(f)
    assert sorted(g for g, _ in factors) == sorted(
        ip.cyclotomic(n) for n in (1, 2, 4, 6, 10, 12, 30))
    assert all(k == 1 for _, k in factors)


def test_non_monic_factorization():
    # (2x - 1)(3x + 2) = 6x^2 + x - 2
    c, factors = factor_int_poly((-2, 1, 6))
    assert c == 1
    assert factors == [((-1, 2), 1), ((2, 3), 1)]
    # 4z - 7 irreducible
    assert is_irreducible((-7, 4))


def test_rational_input():
    from fractions import Fraction

    unit, factors = factor_rational_poly((Fraction(1, 2), Fraction(-1, 2)))
    assert unit == Fraction(-1, 2)
    assert factors == [((-1, 1), 1)]


def test_zero_poly_rejected():
    with pytest.raises(ValueError):
        factor_int_poly(())


_KNOWN_IRREDUCIBLES = [
    (1, 1), (-1, 1), (2, 1), (1, 0, 1), (1, -1, 1), (-1, 1, 1), (2, 0, 1),
    (1, 1, 0, 1), (3, -3, 0, 2), (1, -1, 1, -1, 1), (-1, -1, 1),
]


@given(st.lists(st.sampled_from(range(len(_KNOWN_IRREDUCIBLES))), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_factor_roundtrip_on_products(idxs):
    f = (1,)
    for i in idxs:
        f = ip.mul(f, _KNOWN_IRREDUCIBLES[i])
    c, factors = factor_int_poly(f)
    assert reassemble(c, factors) == f
    for g, _ in factors:
        assert g[-1] > 0
        assert ip.primitive(g)[1] == g


def test_factors_are_irreducible_by_kronecker():
    rng = random.Random(4)
    for _ in range(12):
        f = (1,)
        for _ in range(rng.randint(1, 3)):
            f = ip.mul(f, rng.choice(_KNOWN_IRREDUCIBLES))
        if ip.degree(f) > 6:
            continue
        _, factors = factor_int_poly(f)
        for g, _ in factors:
            assert not kronecker_has_factor(g), f"factor {g} of {f} is reducible"


def test_big_cyclotomic_beyond_trial_range():
    # index 127 is prime and far beyond the trial-division window
    f = ip.cyclotomic(127)
    assert ip.degree(f) == 126
    _, factors = factor_int_poly(ip.mul(f, (1, 1)))
    assert (tuple(f), 1) in factors


LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)  # irreducible, not cyclotomic


@pytest.mark.parametrize("cyclotomics", [{122: 1}, {134: 1, 402: 1}, {121: 2}])
def test_screen_splits_cyclotomics_past_120(cyclotomics):
    # Phi_122 is the first factor of a torus knot's Delta past the old
    # trial-division range (T(2,61)); Phi_134 Phi_402 Phi_6 is T(2,201)'s
    f = LEHMER
    for m, k in cyclotomics.items():
        for _ in range(k):
            f = ip.mul(f, ip.cyclotomic(m))
    rest, split = _cyclotomic_split(f)
    assert {m: k for _g, k, m in split} == cyclotomics
    assert all(g == ip.cyclotomic(m) for g, _k, m in split)
    back = rest
    for g, k, _m in split:
        for _ in range(k):
            back = ip.mul(back, g)
    assert back == f
    assert rest == LEHMER and _zassenhaus(rest) == [LEHMER]
    _, factors = factor_int_poly(f, indexed=True)
    assert factors == sorted([(ip.cyclotomic(m), k, m) for m, k in cyclotomics.items()]
                             + [(LEHMER, 1, None)], key=lambda gkm: (len(gkm[0]), gkm[0]))
    assert factor_int_poly(f)[1] == [(g, k) for g, k, _m in factors]


def test_swinnerton_dyer_recombination():
    # x^4 - 10x^2 + 1 (minimal polynomial of sqrt2 + sqrt3) is irreducible
    # over Q but splits modulo every prime: the worst case for naive
    # recombination, so it exercises the subset search honestly
    sd = (1, 0, -10, 0, 1)
    assert is_irreducible(sd)
    # and a fully split relative: (x^2-2)(x^2-3)(x^2-6)
    f = ip.mul(ip.mul((-2, 0, 1), (-3, 0, 1)), (-6, 0, 1))
    c, factors = factor_int_poly(f)
    assert c == 1
    assert factors == [((-6, 0, 1), 1), ((-3, 0, 1), 1), ((-2, 0, 1), 1)]
    # product of the hard ones
    c, factors = factor_int_poly(ip.mul(sd, f))
    assert reassemble(c, factors) == ip.mul(sd, f)
    assert (sd, 1) in factors
