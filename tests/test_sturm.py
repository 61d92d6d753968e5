import random
from fractions import Fraction
from math import cos, gcd, pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eval_at
from knotsig import intpoly as ip
from knotsig import sturm
from knotsig.errors import SquarefreeError
from knotsig.sturm import (RealRoot, _bisect_by_guesses, count_roots_open,
                           isolate_real_roots, sign_at, sturm_chain)


def test_golden_pair():
    # z^2 - z - 1 has roots (1 +- sqrt 5)/2, both inside (-2, 2)
    roots = isolate_real_roots((-1, -1, 1), Fraction(-2), Fraction(2))
    assert len(roots) == 2
    lo, hi = roots
    lo.refine_below(Fraction(1, 1000))
    hi.refine_below(Fraction(1, 1000))
    assert Fraction(-0.619) < lo.mid < Fraction(-0.617)
    assert Fraction(1.617) < hi.mid < Fraction(1.619)


def test_single_rational_root():
    roots = isolate_real_roots((-1, 1), Fraction(-2), Fraction(2))
    assert len(roots) == 1 and roots[0].is_exact and roots[0].lo == 1


def test_root_outside_interval():
    assert isolate_real_roots((-5, 1), Fraction(-2), Fraction(2)) == []


def test_non_squarefree_rejected():
    with pytest.raises(SquarefreeError):
        isolate_real_roots(ip.mul((1, 1), (1, 1)), Fraction(-3), Fraction(3))
    with pytest.raises(SquarefreeError):
        count_roots_open(ip.mul((-1, 1), (-1, 1)), Fraction(0), Fraction(2))


def test_count_matches_variation_difference():
    q = (-1, -1, 1)
    chain = sturm_chain(q)
    assert count_roots_open(q, Fraction(-2), Fraction(2)) == 2
    assert len(chain) >= 2


def test_endpoint_roots_excluded():
    # roots of z(z-2)(z+1) = z^3 - z^2 - 2z at 0, 2, -1; count in open (0, 2) is 0
    q = (0, -2, -1, 1)
    assert count_roots_open(q, Fraction(0), Fraction(2)) == 0
    assert count_roots_open(q, Fraction(-2), Fraction(2)) == 2
    roots = isolate_real_roots(q, Fraction(0), Fraction(2))
    assert roots == []


@given(st.lists(st.integers(-4, 4), min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_isolation_against_numpy(coeffs):
    q = ip.trim(coeffs)
    if ip.degree(q) < 1:
        return
    # make squarefree by dividing out the gcd with the derivative
    g = ip.gcd_int_poly(q, ip.derivative(q))
    if ip.degree(g) > 0:
        q = ip.div_exact(q, g)
        q = ip.primitive(q)[1]
    if ip.degree(q) < 1:
        return
    lo, hi = Fraction(-8), Fraction(8)
    roots = isolate_real_roots(q, lo, hi)
    np_roots = np.roots(list(reversed(q)))
    real = [r.real for r in np_roots
            if abs(r.imag) < 1e-9 and float(lo) + 1e-7 < r.real < float(hi) - 1e-7]
    assert len(roots) == len(real)
    for rr, fr in zip(roots, sorted(real)):
        rr.refine_below(Fraction(1, 10**6))
        assert abs(float(rr.mid) - fr) < 1e-5


def test_counts_against_numpy_seeded():
    # 200 seeded squarefree integer polynomials of degree 2-14: the Sturm
    # count and the isolation agree with numpy's real roots in (-8, 8).  Half
    # the coefficients are zero: sparse polynomials have remainder sequences
    # that drop more than one degree, where a wrong pseudo-remainder sign shows
    rng = random.Random(20261018)
    lo, hi = Fraction(-8), Fraction(8)
    checked = 0
    while checked < 200:
        deg = rng.randint(2, 14)
        q = tuple(rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(deg))
        q += (rng.choice([-1, 1]) * rng.randint(1, 4),)
        if not sturm.is_squarefree(q):
            continue
        np_roots = np.roots(list(reversed(q)))
        real = [r.real for r in np_roots if abs(r.imag) < 1e-9]
        if any(abs(x - float(lo)) < 1e-7 or abs(x - float(hi)) < 1e-7 for x in real):
            continue
        want = sum(1 for x in real if float(lo) < x < float(hi))
        assert count_roots_open(q, lo, hi) == want, q
        assert len(isolate_real_roots(q, lo, hi)) == want, q
        checked += 1


def test_refine_evaluates_once(monkeypatch):
    # the sign at lo is kept from the constructor, so a halving evaluates
    # the polynomial only at the midpoint
    root = isolate_real_roots((-2, 0, 1), Fraction(0), Fraction(2))[0]
    calls = []
    real_sign_at = sturm.sign_at
    monkeypatch.setattr(sturm, "sign_at",
                        lambda f, n, d=1: calls.append((n, d)) or real_sign_at(f, n, d))
    for k in range(1, 41):
        root.refine()
        assert len(calls) == k
    assert root.lo * root.lo < 2 < root.hi * root.hi


def test_refinement_and_comparison():
    a, b = isolate_real_roots((-1, -1, 1), Fraction(-2), Fraction(2))
    c = RealRoot.exact((-1, 1), Fraction(1))
    for x, y in ((a, b), (a, c), (c, b)):  # -0.618 < 1 < 1.618
        x.separate_from(y)
        assert x.hi < y.lo


def test_refine_below_rejects_a_width_not_positive():
    # no interval of sqrt 2 is narrower than 0: the call stops at once
    root = RealRoot((-2, 0, 1), 1, 2)
    for width in (Fraction(0), Fraction(-1, 3)):
        with pytest.raises(ValueError, match="is not positive"):
            root.refine_below(width)
    assert (root.lo, root.hi) == (1, 2)
    root.refine_below(Fraction(1, 1000))
    assert root.width() < Fraction(1, 1000) and root.lo * root.lo < 2 < root.hi * root.hi


def test_refine_strictly_inside_stops_for_a_root_outside():
    # sqrt 2 is not inside (0, 1): the halvings stop, as separate_from's do
    root = RealRoot((-2, 0, 1), 1, 2)
    with pytest.raises(ArithmeticError, match=r"not inside \(0, 1\) after 10000 halvings"):
        root.refine_strictly_inside(Fraction(0), Fraction(1))
    assert root.lo * root.lo < 2 < root.hi * root.hi
    exact = RealRoot.exact((-1, 1), Fraction(1))
    with pytest.raises(ValueError, match="exact root is not inside"):
        exact.refine_strictly_inside(Fraction(0), Fraction(1))


def test_refine_below_halves_as_often_as_the_width_needs():
    # past the 10 000 halvings that bound separate_from: the count of
    # halvings is known from the width asked for, and none is spared
    root = RealRoot((-2, 0, 1), 1, 2)
    target = Fraction(1, 2**10010)
    root.refine_below(target)
    assert target / 2 <= root.width() < target
    assert root.lo * root.lo < 2 < root.hi * root.hi


def test_sign_at():
    assert sign_at((-1, 1), Fraction(2)) == 1
    assert sign_at((-1, 1), Fraction(1)) == 0
    assert sign_at((-1, 1), Fraction(0)) == -1


def test_integer_sign_at_matches_fraction_horner():
    # seeded random integer polynomials of degree 0-30 at rationals with
    # denominators up to 2**200 and either sign, plus exact rational roots
    rng = random.Random(20261018)
    zeros = 0
    for k in range(400):
        deg = rng.randint(0, 30)
        bits = rng.choice([4, 40, 120])
        lead = rng.choice([-1, 1]) * rng.randint(1, 2**bits)
        f = tuple(rng.randint(-2**bits, 2**bits) for _ in range(deg)) + (lead,)
        den = rng.choice([1, 2**rng.randint(1, 200), rng.randint(1, 2**200)])
        x = Fraction(rng.randint(-4 * den, 4 * den), den)
        if k % 4 == 0:
            f = ip.mul(f, (-x.numerator, x.denominator))  # x is an exact root
        v = eval_at(f, x)
        assert sign_at(f, x) == (v > 0) - (v < 0), (f, x)
        zeros += v == 0
    assert zeros >= 100
    assert sign_at((5, -3), 2) == -1  # an int point


def _angles(n: int) -> list[float]:
    # the roots 2 cos(2 pi k/n) of the trace polynomial of Phi_n
    return [2 * cos(2 * pi * k / n) for k in range(1, (n + 1) // 2) if gcd(k, n) == 1]


def _intervals(roots) -> list:
    return [(r.lo, r.hi) for r in roots]


def test_cyclotomic_angles_give_sturm_intervals():
    # the guided bisection certifies every Phi_n, n <= 150, without Sturm
    two = Fraction(2)
    for n in range(3, 151):
        q = ip.to_trace_poly(ip.cyclotomic(n))
        assert _bisect_by_guesses(q, -two, two, _angles(n)) is not None, n
        assert _intervals(isolate_real_roots(q, -two, two, _angles(n))) == \
            _intervals(isolate_real_roots(q, -two, two)), n


@pytest.mark.parametrize("n,guesses,certified", [
    (7, _angles(7)[:1], False),                      # too few: one leaf on (-2, 2)
    (31, _angles(31)[:5] + _angles(31)[7:], False),  # two roots missing
    (31, _angles(31) + [1.5], False),                # one too many
    (30, [-g for g in _angles(30)], False),          # mirrored: two roots in a leaf
    (45, _angles(90), False),                        # another polynomial's roots
    (45, _angles(45)[:1] * 12, False),               # all equal
    (30, [g + 0.02 for g in _angles(30)], True),     # every angle off, none past a midpoint
    (12, [0.0, 1.7], True),                          # a midpoint and a near miss
    (5, [-3.0, 3.0], True),                          # outside (-2, 2), on the right sides
])
def test_wrong_guesses_still_give_sturm_intervals(n, guesses, certified):
    # a wrong proposal either fails a check or still isolates every root
    two = Fraction(2)
    q = ip.to_trace_poly(ip.cyclotomic(n))
    assert (_bisect_by_guesses(q, -two, two, guesses) is not None) == certified
    assert _intervals(isolate_real_roots(q, -two, two, guesses)) == \
        _intervals(isolate_real_roots(q, -two, two))


def test_guesses_do_not_skip_the_squarefree_check():
    with pytest.raises(SquarefreeError):
        isolate_real_roots(ip.mul((1, 1), (1, 1)), Fraction(-3), Fraction(3), [-1.0, -1.0])
