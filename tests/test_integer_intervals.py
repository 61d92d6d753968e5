"""RealRoot's ints over a common denominator against the Fraction reference
in conftest: the same halvings in the same order give the same intervals,
separations, plateau samples and signs; and the plateau samples are the
shortest rational points of the circle in their gaps."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from conftest import (MIXED_SUMS, ReferenceRealRoot, _reference_bisect_by_guesses, circle_z,
                      eval_at, mixed_sum, reference_circle_point, reference_interval_eval,
                      reference_isolate_real_roots, reference_plateau_points, trace_angles)
from knotsig import intpoly as ip
from knotsig import sturm
from knotsig.certify import _is_two_cos
from knotsig.expressions import resolve
from knotsig.hermitian import ScaledOrder
from knotsig.signature import _block_factors, _circle_point, _plateau_points
from knotsig.sturm import RealRoot, _bisect_by_guesses, count_roots_open, isolate_real_roots

# non-dyadic bounds put a common denominator other than a power of 2 under
# every interval
BOUNDS = [(Fraction(-7, 3), Fraction(5, 2)), (Fraction(-2), Fraction(2)),
          (Fraction(-8), Fraction(8)), (Fraction(1, 3), Fraction(22, 7)),
          (Fraction(-5, 7), Fraction(-1, 9))]


def ends(roots) -> list:
    return [(r.lo, r.hi) for r in roots]


def fresh(roots) -> tuple[list, list]:
    """RealRoots and reference roots on the same intervals."""
    return ([RealRoot(r.poly, r.lo, r.hi) for r in roots],
            [ReferenceRealRoot(r.poly, r.lo, r.hi) for r in roots])


def squarefree_polys(count: int, seed: int) -> list:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        deg = rng.randint(1, 12)
        q = tuple(rng.randint(-4, 4) if rng.random() < 0.6 else 0 for _ in range(deg))
        q += (rng.choice([-1, 1]) * rng.randint(1, 5),)
        if sturm.is_squarefree(q):
            out.append(q)
    return out


def test_each_halving_matches_the_fraction_reference():
    # one halving at a time from non-dyadic ends, so a broken halving fails
    # here at once rather than stalling an isolation; 2/3 is hit exactly
    for q, lo, hi in (((-2, 0, 1), Fraction(1, 3), Fraction(7, 3)),
                      ((-1, -1, 1), Fraction(-5, 7), Fraction(-1, 9)),
                      ((-2, 3), Fraction(1, 3), Fraction(1))):
        mine, ref = RealRoot(q, lo, hi), ReferenceRealRoot(q, lo, hi)
        for _ in range(60):
            mine.refine()
            ref.refine()
            assert (mine.lo, mine.hi, mine.is_exact) == (ref.lo, ref.hi, ref.is_exact), q
    assert mine.lo == Fraction(2, 3) and mine.is_exact


def test_sturm_path_matches_the_fraction_reference():
    found = 0
    for k, q in enumerate(squarefree_polys(150, seed=27)):
        lo, hi = BOUNDS[k % len(BOUNDS)]
        got = isolate_real_roots(q, lo, hi)
        assert ends(got) == ends(reference_isolate_real_roots(q, lo, hi)), (q, lo, hi)
        assert all(isinstance(x, int) for r in got for x in (r.a, r.b, r.d))
        found += len(got)
    assert found > 100


def test_guided_path_matches_the_fraction_reference():
    for n in range(3, 151):
        q = ip.to_trace_poly(ip.cyclotomic(n))
        leaves = _bisect_by_guesses(q, Fraction(-2), Fraction(2), trace_angles(n))
        assert leaves is not None, n
        assert ends(leaves) == ends(_reference_bisect_by_guesses(q, Fraction(-2), Fraction(2),
                                                                 trace_angles(n))), n
        assert ends(isolate_real_roots(q, -2, 2, trace_angles(n))) == \
            ends(reference_isolate_real_roots(q, -2, 2, trace_angles(n))), n


@pytest.mark.parametrize("lo,hi", BOUNDS[:4])
def test_exact_roots_at_midpoints_match(lo, hi):
    # rational roots at bisection points of (lo, hi), beside irrational ones:
    # the bisection lands on them, records them exact and deflates
    q = ip.mul(ip.mul((-2, 0, 1), (-1, -1, 1)), (1, -3, 0, 1))
    for k in (1, 3, 4, 6):
        m = lo + (hi - lo) * Fraction(k, 8)
        q = ip.mul(q, (-m.numerator, m.denominator))
    if not sturm.is_squarefree(q):
        q = ip.primitive(ip.div_exact(q, ip.gcd_int_poly(q, ip.derivative(q))))[1]
    got = isolate_real_roots(q, lo, hi)
    want = reference_isolate_real_roots(q, lo, hi)
    assert ends(got) == ends(want)
    assert [r.is_exact for r in got] == [r.is_exact for r in want]
    assert sum(r.is_exact for r in got) >= 3


def test_refinements_match_the_fraction_reference():
    rng = random.Random(2027)
    polys = squarefree_polys(80, seed=28)
    for k, q in enumerate(polys):
        lo, hi = BOUNDS[k % len(BOUNDS)]
        got, want = fresh(isolate_real_roots(q, lo, hi))
        for g, w in zip(got, want):
            width = Fraction(1, rng.choice([3, 10, 1000, 10**9, 2**40 + 1]))
            g.refine_below(width)
            w.refine_below(width)
            assert ends([g]) == ends([w]), (q, width)
        # refine_strictly_inside bounds just off a root's fine interval,
        # started again from its isolating interval
        for r in isolate_real_roots(q, lo, hi):
            fine = ReferenceRealRoot(r.poly, r.lo, r.hi)
            fine.refine_below(Fraction(1, 10**12))
            inner = (fine.lo - Fraction(1, rng.choice([3 * 10**6, 7 * 10**9])),
                     fine.hi + Fraction(1, rng.choice([11 * 10**5, 10**8 + 1])))
            (g,), (w,) = fresh([r])
            g.refine_strictly_inside(*inner)
            w.refine_strictly_inside(*inner)
            assert ends([g]) == ends([w]), (q, inner)
    # separate_from on pairs of coprime polynomials' roots whose intervals
    # overlap, as in signature._separate_all
    pairs = 0
    for k, (p, q) in enumerate(zip(polys, polys[1:])):
        if ip.degree(ip.gcd_int_poly(p, q)) > 0:
            continue
        lo, hi = BOUNDS[k % len(BOUNDS)]
        for x in isolate_real_roots(p, lo, hi):
            for y in isolate_real_roots(q, lo, hi):
                if x.hi < y.lo or y.hi < x.lo:
                    continue
                (g1, g2), (w1, w2) = fresh([x, y])
                g1.separate_from(g2)
                w1.separate_from(w2)
                assert ends([g1, g2]) == ends([w1, w2]), (p, q)
                assert g1.below(g2) or g2.below(g1)
                pairs += 1
    assert pairs >= 20


def _torus_knots() -> list[str]:
    return [f"T({p},{q})" for p in range(2, 10) for q in range(p + 1, 82)
            if gcd(p, q) == 1 and (p - 1) * (q - 1) <= 80]


def _plateau_matrices(corpus) -> list:
    """The corpus, the congruent mixed sums and the small torus knots."""
    matrices = [V for _label, V, _sf in corpus]
    for expr in MIXED_SUMS:
        matrices += mixed_sum(expr)
    return matrices + [resolve(name) for name in _torus_knots()]


def test_plateau_points_match_the_fraction_reference(corpus):
    for V in _plateau_matrices(corpus):
        roots, samples = _plateau_points(_block_factors(V)[2])
        assert ([(u.root.lo, u.root.hi) for u in roots], samples) == \
            reference_plateau_points(V), V


def test_plateau_samples_are_the_shortest_circle_points(corpus):
    # each sample z = zhat/l lies strictly inside its gap between the root
    # intervals (and z = 2, z = -2) with 4l^2 - zhat^2 a square, and its
    # c = cot(angle/2), or 1/c below z = 0, is a dyadic m/2^k whose
    # neighbours (m - 1)/2^k and (m + 1)/2^k (for k > 0) lie outside the
    # gap: the gap is an interval in c, so no dyadic with a smaller power
    # of 2 fits it, nor a smaller one with the same
    counts = {"zero": 0, "integer": 0, "dyadic": 0}
    for V in _plateau_matrices(corpus):
        roots, samples = _plateau_points(_block_factors(V)[2])
        uppers = [Fraction(2)] + [u.root.lo for u in roots]
        lowers = [u.root.hi for u in roots] + [Fraction(-2)]
        for lo, hi, z in zip(lowers, uppers, samples, strict=True):
            assert lo < z < hi, (V, lo, z, hi)
            zhat, l = z.numerator, z.denominator
            assert isqrt(4 * l * l - zhat * zhat) ** 2 == 4 * l * l - zhat * zhat, (V, z)
            if lo < 0 < hi:
                assert z == 0, (V, z)
                counts["zero"] += 1
                continue
            w, lo, hi = (z, lo, hi) if z > 0 else (-z, -hi, -lo)
            c2 = (2 + w) / (2 - w)
            m, den = isqrt(c2.numerator), isqrt(c2.denominator)
            assert Fraction(m * m, den * den) == c2 and den & (den - 1) == 0, (V, z)
            assert not lo < circle_z(Fraction(m - 1, den)) < hi, (V, z)
            assert den == 1 or not lo < circle_z(Fraction(m + 1, den)) < hi, (V, z)
            counts["integer" if den == 1 else "dyadic"] += 1
    # the corpus counts 78 gaps around z = 0, 1230 integer c and 1378 others
    assert min(counts.values()) >= 50, counts


def test_circle_point_stays_off_gap_ends_on_circle_points():
    # isolation leaves dyadic gap ends, and no dyadic z but 0 and +-2 is a
    # circle point; at rational ends that are (z = 6/5 is c = 2, z = 0 is
    # c = 1, z = 8/5 is c = 3) the sample is still strictly inside, and
    # mirrored gaps take mirrored samples
    cases = {((1, 1), (6, 5)): circle_z(Fraction(7, 4)),
             ((0, 1), (6, 5)): circle_z(Fraction(3, 2)),
             ((6, 5), (8, 5)): circle_z(Fraction(5, 2)),
             ((6, 5), (2, 1)): Fraction(8, 5)}
    for (lo, hi), z in cases.items():
        assert _circle_point(lo, hi) == z == reference_circle_point(Fraction(*lo), Fraction(*hi))
        assert _circle_point((-hi[0], hi[1]), (-lo[0], lo[1])) == -z


def test_interval_horner_on_ints_scales_the_fraction_bounds():
    # d**deg f times the Fraction enclosure, on seeded polynomials and ends
    rng = random.Random(5)
    for _ in range(300):
        f = tuple(rng.randint(-50, 50) for _ in range(rng.randint(1, 9)))
        d = rng.choice([1, 3, 2**20, 10**9 + 7])
        lo = rng.randint(-5 * d, 5 * d)
        hi = lo + rng.randint(0, 2 * d)
        flo, fhi = reference_interval_eval(f, Fraction(lo, d), Fraction(hi, d))
        scale = d ** max(len(f) - 1, 0)
        assert ip.interval_eval(f, lo, hi, d) == (scale * flo, scale * fhi)
        assert scale * flo <= scale * eval_at(f, Fraction(lo, d)) <= scale * fhi


# five orders: the golden ratio, the cyclotomic traces psi_7 and psi_11, and
# two with leading coefficient l > 1, where zhat = l * root
ORDERS = [(-1, -1, 1), ip.to_trace_poly(ip.cyclotomic(7)),
          ip.to_trace_poly(ip.cyclotomic(11)), (-4, -2, 3), (1, -4, -1, 2)]


def _reference_sign(order: ScaledOrder, a, root: ReferenceRealRoot) -> int:
    """ScaledOrder.real_sign by the Fraction interval Horner."""
    while True:
        lo, hi = reference_interval_eval(a, order.l * root.lo, order.l * root.hi)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        root.refine()


@pytest.mark.parametrize("q", ORDERS)
def test_real_sign_matches_the_fraction_interval_horner(q):
    order = ScaledOrder(q)
    rng = random.Random(sum(q))
    roots = isolate_real_roots(q, -2, 2)
    assert len(roots) == order.m
    for r in roots:
        (mine,), (ref,) = fresh([r])
        # b*zhat - c with c/b near l*root: values near 0 need many halvings
        near = ReferenceRealRoot(r.poly, r.lo, r.hi)
        near.refine_below(Fraction(1, 2**40))
        x = order.l * near.lo
        elements = [(-x.numerator, x.denominator)]
        elements += [tuple(rng.randint(-9, 9) for _ in range(order.m)) for _ in range(40)]
        for a in elements:
            if ip.is_zero(ip.trim(a)):
                continue
            assert order.real_sign(a, mine) == _reference_sign(order, a, ref), (q, a)
            assert ends([mine]) == ends([ref]), (q, a)
        assert mine.width() < Fraction(1, 2**35)


def test_is_two_cos_matches_the_sturm_count():
    # roots at t = 1/8, 3/8, 1/10, 3/10 and roots of non-cyclotomic traces,
    # against every grid point a/b with b <= 20
    polys = [(-2, 0, 1), (-1, -1, 1), (-4, -2, 3), ip.to_trace_poly(ip.cyclotomic(7)),
             ip.mul((-2, 0, 1), (1, -3, 0, 1))]
    hits = 0
    for poly in polys:
        for r in isolate_real_roots(poly, -2, 2):
            r.refine_below(Fraction(1, 10**6))
            for b in range(1, 21):
                for a in range(0, b // 2 + 1):
                    m = Fraction(a, b)
                    want = m.denominator >= 3 and count_roots_open(ip.gcd_int_poly(
                        r.poly, ip.to_trace_poly(ip.cyclotomic(m.denominator))), r.lo, r.hi) > 0
                    assert _is_two_cos(r, m) == want, (poly, r, m)
                    hits += want
    assert hits >= 8
