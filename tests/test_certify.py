"""Certified decimals of t and z against the Fraction bisection reference,
the Newton proposal's fallback, and the integer pi and cosine brackets."""

import random
from fractions import Fraction

import pytest

from conftest import (_pi_bounds_fraction, _two_cos_two_pi_fraction,
                      decimal_of_root_reference, decimal_of_t_reference,
                      random_seifert_matrices)
from knotsig import certify
from knotsig.certify import (decimal_of_root, decimal_of_t, pi_bounds,
                             t_interval_of_root, two_cos_two_pi)
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


def test_proposal_needs_two_checks(cases, monkeypatch):
    calls = []

    def counted(t, scale):
        calls.append(t)
        return two_cos_two_pi(t, scale)

    monkeypatch.setattr(certify, "two_cos_two_pi", counted)
    for label, root, _refs in cases:
        if label.startswith("random"):
            calls.clear()
            lo, hi = t_interval_of_root(_fresh(root), 20)
            assert len(calls) == 2 and hi - lo < Fraction(1, 10**21), label


@pytest.mark.parametrize("miss", ["zero", "half", "off", "none"])
def test_a_missed_proposal_falls_back_to_bisection(cases, monkeypatch, miss):
    for label, root, refs in cases:
        t30 = Fraction(refs[30][0])
        wrong = {"zero": Fraction(0), "half": Fraction(1, 2),
                 "off": t30 + Fraction(1, 10**8), "none": None}[miss]
        monkeypatch.setattr(certify, "_propose_t", lambda z, places: wrong)
        for digits in PRECISIONS:
            assert decimal_of_t(_fresh(root), digits) == refs[digits][0], (label, digits)


@pytest.mark.parametrize("scale", [10, 28, 40])
def test_integer_cosine_contains_the_fraction_bracket(scale):
    rng = random.Random(7000 + scale)
    one = 10 ** (scale + 8)
    for k in range(200):
        if k % 4 == 0:
            t = Fraction(rng.randint(0, 2**60), 2**61)
        elif k % 4 == 1:
            t = Fraction(rng.randint(0, 5 * 10**24), 10**25)
        elif k % 4 == 2:
            t = Fraction(rng.randint(0, 10**6), rng.randint(2 * 10**6, 10**9))
        else:
            t = Fraction(1, rng.randint(1, 10**30) + 1)
        t = min(t, Fraction(1, 2))
        lo, hi = two_cos_two_pi(t, scale)
        flo, fhi = _two_cos_two_pi_fraction(t, scale)
        assert Fraction(lo, one) <= flo <= fhi <= Fraction(hi, one), t
        assert Fraction(hi - lo, one) <= 2 * (fhi - flo), t
    assert two_cos_two_pi(Fraction(0), scale) == (2 * one, 2 * one)


def test_two_cos_two_pi_rejects_t_outside_the_half_circle():
    for t in (Fraction(-1, 10**9), Fraction(1, 2) + Fraction(1, 10**9)):
        with pytest.raises(ValueError):
            two_cos_two_pi(t, 10)


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
