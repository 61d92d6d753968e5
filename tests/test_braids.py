import math
import random
from fractions import Fraction

import pytest

from knotsig.braids import BraidWord, seifert_from_braid, torus_braid
from knotsig.errors import BraidError
from knotsig.seifert import (SeifertMatrix, alexander_polynomial, murasugi_signature,
                             normalize_alexander)
from knotsig import intpoly as ip


def test_trefoil_braid():
    V = seifert_from_braid(BraidWord(2, (1, 1, 1)))
    assert V.size == 2
    assert alexander_polynomial(V) == (1, -1, 1)
    assert murasugi_signature(V) == -2


def test_cinquefoil_braid():
    V = seifert_from_braid(BraidWord(2, (1,) * 5))
    assert V.size == 4
    assert alexander_polynomial(V) == (1, -1, 1, -1, 1)


def test_torus_3_10():
    V = seifert_from_braid(torus_braid(3, 10))
    assert V.size == 18
    delta = alexander_polynomial(V)
    _, prim = ip.primitive(delta)
    assert ip.is_zero(ip.mod_monic(prim, ip.cyclotomic(30))), "phi_30 must divide Delta of T(3,10)"


def torus_alexander(p, q):
    # (1 - x)(1 - x^{pq}) / ((1 - x^p)(1 - x^q)), normalized
    def one_minus(k):
        return ip.trim((1,) + (0,) * (k - 1) + (-1,))

    num = ip.mul(one_minus(1), one_minus(p * q))
    den = ip.mul(one_minus(p), one_minus(q))
    quo = ip.div_exact(num, den)
    return normalize_alexander(quo)


def test_torus_alexander_formula_up_to_60():
    # every torus knot T(p, q) with a Seifert matrix of size (p-1)(q-1) <= 60
    from math import gcd

    knots = [(p, q) for p in range(2, 9) for q in range(p + 1, 62)
             if (p - 1) * (q - 1) <= 60 and gcd(p, q) == 1]
    assert len(knots) == 75 and (2, 61) in knots and (7, 11) in knots
    for p, q in knots:
        V = seifert_from_braid(torus_braid(p, q))
        assert V.size == (p - 1) * (q - 1)
        assert alexander_polynomial(V) == torus_alexander(p, q), (p, q)


def test_torus_validation():
    with pytest.raises(BraidError):
        torus_braid(2, 4)  # link
    with pytest.raises(BraidError):
        torus_braid(1, 5)
    # symmetric parameters use the smaller strand count
    assert torus_braid(10, 3).strands == 3


def test_non_knot_closure_rejected():
    with pytest.raises(BraidError, match="not a knot"):
        seifert_from_braid(BraidWord(2, (1, 1)))  # Hopf link
    with pytest.raises(BraidError):
        seifert_from_braid(BraidWord(3, (1, 1, 1)))  # split component


def test_braid_word_validation():
    with pytest.raises(BraidError):
        BraidWord(2, (0,))
    with pytest.raises(BraidError):
        BraidWord(2, (2,))
    with pytest.raises(BraidError):
        BraidWord(1, ())


def test_random_closures_are_seifert_matrices():
    rng = random.Random(7)
    produced = 0
    while produced < 120:
        n = rng.randint(2, 5)
        length = rng.randint(n, 12)
        word = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length))
        b = BraidWord(n, word)
        if not b.closure_is_knot():
            continue
        V = seifert_from_braid(b)  # constructor validates det(V - V^T) = 1
        assert isinstance(V, SeifertMatrix)
        produced += 1


def test_mirror_braid_negates_signature():
    b = BraidWord(3, (1, 1, 2, -1, 2, 2))
    if not b.closure_is_knot():
        pytest.skip("fixture braid must close to a knot")
    V = seifert_from_braid(b)
    W = seifert_from_braid(b.mirror())
    assert murasugi_signature(W) == -murasugi_signature(V)
    from knotsig.hermitian import signature_at_sample

    for z in (Fraction(1, 7), Fraction(-5, 4)):
        assert signature_at_sample(W.rows, z) == -signature_at_sample(V.rows, z)


def test_large_torus_braids_resolve_from_their_nonzeros():
    # each loop links its neighbours on its own index and at most two
    # loops on each adjacent index, so the matrix has O(g) nonzeros, and
    # validation runs on them: no g x g scan, in the braid or the check
    import time

    from knotsig.expressions import resolve

    for expr, size, most in (("T(2,2001)", 2000, 3), ("T(3,301)", 600, 5)):
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            V = resolve(expr)
            best = min(best, time.perf_counter() - t0)
        assert best < 0.3, (expr, best)
        assert V.size == size and len(V.blocks) == 1, expr
        assert sum(map(len, V._nz)) <= most * size, expr
