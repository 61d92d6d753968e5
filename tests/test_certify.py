"""Certified decimals of t and z against the Fraction bisection reference,
the integer arctan enclosure against Euler's series, and the integer pi
bracket."""

import random
from fractions import Fraction

import pytest

from conftest import (_pi_bounds_fraction, _t_interval_bisect, arctan_reference,
                      decimal_of_root_reference, decimal_of_t_reference,
                      random_seifert_matrices)
from knotsig.certify import (_arctan, _tan_quarter, decimal_of_root, decimal_of_t,
                             pi_bounds, t_interval_of_root)
from knotsig.signature import step_function
from knotsig.sturm import RealRoot, isolate_real_roots

PRECISIONS = (6, 20, 30)
PI_60 = Fraction("3.14159265358979323846264338327950288419716939937510582097494")

# z-decimals of the rational roots of two reducible polynomials, in
# increasing z: each root is a point of the decimal grid, which its
# isolating interval converges on from both sides
RATIONAL_Z = {
    (-1, 0, 10**6): {
        6: ("-0.001000", "0.001000"),
        20: ("-0.00100000000000000000", "0.00100000000000000000"),
        30: ("-0.001000000000000000000000000000", "0.001000000000000000000000000000"),
    },
    (-4, 0, 100): {
        6: ("-0.200000", "0.200000"),
        20: ("-0.20000000000000000000", "0.20000000000000000000"),
        30: ("-0.200000000000000000000000000000", "0.200000000000000000000000000000"),
    },
}


def _fresh(root: RealRoot) -> RealRoot:
    return RealRoot(root.poly, root.lo, root.hi)


@pytest.fixture(scope="module")
def cases(corpus):
    """(label, root, {precision: (t string, z string or None)}) for every
    non-cyclotomic breakpoint of the corpus and of 20 random Seifert
    matrices, and for roots near t = 0, 1/4 and 1/2."""
    roots = {}
    for label, _V, sf in corpus:
        for factor, _mult, bps in sf.factor_groups():
            for i, bp in enumerate(bps):
                if bp.root.exact_t is None:
                    roots.setdefault(f"{factor}#{i}", bp.root.root)
    for k, V in enumerate(random_seifert_matrices(20, seed=20261018)):
        for i, bp in enumerate(step_function(V, include_nonbalanced=False).breakpoints):
            if bp.root.exact_t is None:
                roots[f"random{k}#{i}"] = bp.root.root
    # 10000 z^2 - 39999: z = +-1.99997..., t near 0 and 1/2; 10^6 z^2 - 1: t near
    # 1/4.  The z of RATIONAL_Z are rational, which the reference cannot render
    # (an isolating interval never certifies the truncation of a decimal it
    # converges to), so z is compared with the exact strings there.
    rational_z = {}
    for poly in ((-39999, 0, 10000), *RATIONAL_Z):
        for i, r in enumerate(isolate_real_roots(poly, Fraction(-2), Fraction(2))):
            roots[f"{poly}#{i}"] = r
            if poly in RATIONAL_Z:
                rational_z[f"{poly}#{i}"] = {p: zs[i] for p, zs in RATIONAL_Z[poly].items()}
    out = []
    for label, root in roots.items():
        # floor(t * 10**p) is floor(t * 10**30) cut to p places, since t > 0
        t30 = decimal_of_t_reference(_fresh(root), 30)
        refs = {p: (t30[:2 + p],
                    rational_z[label][p] if label in rational_z
                    else decimal_of_root_reference(_fresh(root), p))
                for p in PRECISIONS}
        out.append((label, root, refs))
    return out


def test_cases_cover_the_corpus_and_the_ends(cases):
    labels = [label for label, _r, _refs in cases]
    assert sum(label.startswith("random") for label in labels) >= 4
    assert len(labels) >= 12
    ts = sorted(refs[6][0] for _l, _r, refs in cases)
    assert ts[0] < "0.001" and ts[-1] > "0.499"


def test_decimals_match_the_bisection_reference(cases):
    for label, root, refs in cases:
        shared = _fresh(root)  # the CLI renders one root at one precision after another
        for digits in PRECISIONS:
            t, z = refs[digits]
            for r in (_fresh(root), shared):
                assert decimal_of_t(r, digits) == t, (label, digits)
                assert decimal_of_root(r, digits) == z, (label, digits)


def test_t_interval_contains_the_bisection_interval(cases):
    # the series slack leaves the enclosure a margin of several units at
    # 2**-bits, wider than a bisection interval 16 places finer
    for label, root, _refs in cases:
        for digits in (6, 20):
            lo, hi = t_interval_of_root(_fresh(root), digits)
            ra, rb = _t_interval_bisect(root, digits + 16)
            assert lo <= ra <= rb <= hi, (label, digits)
            assert hi - lo < Fraction(1, 10 ** (digits + 1)), (label, digits)


def _arguments(rng, k: int) -> list[Fraction]:
    """w in [0, 1] near 0, near tan(pi/8) and near 1, with denominators
    up to 10**k."""
    tan_pi_8 = Fraction(41421356237309504880168872420969807857, 10**38)
    near = [Fraction(0), Fraction(1), Fraction(1, 10**k)]
    for _ in range(6):
        d = Fraction(rng.randint(0, 1000), 10**k)
        near += [d, tan_pi_8 + d, tan_pi_8 - d, 1 - d]
    return [Fraction(round(w * 10**k), 10**k) for w in near]


@pytest.mark.parametrize("scale", [10, 28, 40])
def test_arctan_enclosure_contains_euler_series(scale):
    bits = 10 * scale // 3
    one = 1 << bits
    for w in _arguments(random.Random(scale), scale // 2):
        num, den = w.numerator ** 2, w.denominator ** 2
        lo, hi = (4 * _arctan(_tan_quarter(num, den, bits, up), bits, up)
                  for up in (False, True))
        rlo, rhi = arctan_reference(w, Fraction(1, 2 ** (bits + 8)))
        assert Fraction(lo, one) <= rlo <= rhi <= Fraction(hi, one), w
        assert hi - lo < 8 * bits, w


def _tan_4(y: Fraction) -> Fraction:
    """tan(4*phi) for y = tan(phi), increasing in y on [0, tan(pi/8))."""
    return (4 * y - 4 * y**3) / (1 - 6 * y**2 + y**4)


@pytest.mark.parametrize("bits", [8, 33, 93, 133])
def test_quarter_angle_brackets_the_argument(bits):
    # tan(4*arctan(y)) = w decides each side exactly: lo <= y(w) <= hi
    rng = random.Random(bits)
    one = 1 << bits
    for k in range(300):
        if k % 2:
            den = rng.randint(1, 10**12)
            num = rng.choice((0, den, rng.randint(0, den), rng.randint(0, den // 10**6)))
        else:  # w = m / 2**j: isqrt is exact, and only the steps round
            j = rng.randint(1, bits)
            num, den = rng.randint(0, 2**j) ** 2, 4**j
        lo, hi = (Fraction(_tan_quarter(num, den, bits, up), one) for up in (False, True))
        assert hi < Fraction(1, 4), (num, den)
        assert _tan_4(lo) ** 2 <= Fraction(num, den) <= _tan_4(hi) ** 2, (num, den)


@pytest.mark.parametrize("end,t", [(2, "0.000000"), (-2, "0.499999")])
def test_intervals_touching_the_ends_clamp(end, t):
    # z = +-sqrt(4 - 10**-30) = +-(2 - 2.5e-31): the interval keeps its end
    # at z = +-2 until it is narrower than 2.5e-31
    poly = (-(4 * 10**30 - 1), 0, 10**30)
    ends = sorted((Fraction(end), Fraction(end, 2)))
    root = RealRoot(poly, *ends)
    lo, hi = t_interval_of_root(root, 6)
    assert end in (root.lo, root.hi)
    assert (lo if end > 0 else hi) == Fraction(2 - end, 8)  # t = 0 or 1/2
    assert hi - lo < Fraction(1, 10**7)
    assert decimal_of_t(RealRoot(poly, *ends), 6) == t


def test_exact_root_at_z_zero_is_enclosed():
    zero = RealRoot.exact((0, 1), Fraction(0))
    for digits in (0, 6, 30):
        lo, hi = t_interval_of_root(zero, digits)
        assert lo < Fraction(1, 4) < hi and hi - lo < Fraction(1, 10 ** (digits + 1))


@pytest.mark.parametrize("scale", list(range(0, 48, 3)) + [28, 40])
def test_pi_bounds_bracket_pi(scale):
    lo, hi = pi_bounds(scale)
    one = 10 ** (scale + 2)
    assert Fraction(lo, one) < PI_60 < Fraction(hi, one)
    assert hi - lo <= 2 and Fraction(hi - lo, one) < Fraction(1, 10**scale)
    assert (Fraction(lo, one), Fraction(hi, one)) == _pi_bounds_fraction(scale)


# t of roots that are 2*cos(2*pi*a/b) with a/b a terminating decimal: the
# t-interval straddles t itself for ever, so t is certified as a/b exactly
DECIMAL_T = [
    ((-2, 0, 1), ("0.375000", "0.125000")),   # z = -+sqrt 2: t = 3/8, 1/8
    ((-1, -1, 1), ("0.300000", "0.100000")),  # z^2 - z - 1: t = 3/10, 1/10
]


@pytest.mark.parametrize("poly,ts", DECIMAL_T)
def test_terminating_t_is_certified_exactly(poly, ts):
    roots = isolate_real_roots(poly, Fraction(-2), Fraction(2))
    assert [decimal_of_t(r, 6) for r in roots] == list(ts)
    assert [decimal_of_t(r, 20) for r in roots] == [t + "0" * 14 for t in ts]


def test_exact_root_at_a_terminating_t():
    zero = RealRoot.exact((0, 1), Fraction(0))  # z = 0: t = 1/4
    assert decimal_of_t(zero, 6) == "0.250000"
    assert decimal_of_t(zero, 20) == "0.25000000000000000000"
