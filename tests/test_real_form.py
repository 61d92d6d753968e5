"""The plateau values of step_function against the real-form oracle of
conftest (integer Faddeev-LeVerrier and Descartes' rule), which shares no
code with the hermitian kernel: no pivot, no repair and no int-pair ring."""

import random
from fractions import Fraction

import pytest
from conftest import (MIXED_SUMS, _TABLE_NAMES, check_real_form_plateaus, mixed_sum,
                      plateau_s_points, random_seifert_matrices, real_form_signature)

from knotsig.hermitian import IntPairOrder, signature_triple
from knotsig.knot_table import lookup
from knotsig.signature import step_function


def test_real_form_of_the_trefoil():
    # Delta = x^2 - x + 1: sigma is 0 for z > 1 and -2 for z < 1; s = 1 is
    # z = 0 and s = 2 is z = 6/5
    V = lookup("3_1").rows
    assert real_form_signature(V, Fraction(1)) == (-4, 0)
    assert real_form_signature(V, Fraction(2)) == (0, 0)
    # s^2 = 3 is z = 1, the breakpoint, where the form has nullity 1
    sf = step_function(lookup("3_1"))
    s_points = plateau_s_points(sf)
    assert len(s_points) == 2 and s_points[0] ** 2 > 3 > s_points[1] ** 2


@pytest.mark.parametrize("name", _TABLE_NAMES)
def test_table_plateaus(name):
    V = lookup(name)
    check_real_form_plateaus(V, step_function(V, include_nonbalanced=False))


@pytest.mark.parametrize("expr", MIXED_SUMS)
def test_mixed_sum_plateaus(expr):
    # the congruent copy with one block, whose elimination mixes the summands
    _V, W = mixed_sum(expr)
    check_real_form_plateaus(W, step_function(W, include_nonbalanced=False))


def test_random_seifert_plateaus():
    for V in random_seifert_matrices(60, seed=1616):
        check_real_form_plateaus(V, step_function(V, include_nonbalanced=False))


def test_sparse_forms_with_zero_diagonals():
    # integer matrices whose diagonal entries are mostly zero, so the
    # hermitian diagonal vanishes and the kernel repairs, before and after
    # pivots; singular forms included
    rng = random.Random(16)
    singular = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        V = [[rng.choice((-2, -1, 1, 2)) if rng.random() < (0.2 if i == j else 0.4) else 0
              for j in range(n)] for i in range(n)]
        s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        order = IntPairOrder(2 * (s * s - 1) / (s * s + 1))
        pos, neg, null = signature_triple(order.hermitian_rows(V), order)
        assert real_form_signature(V, s) == (2 * (pos - neg), 2 * null), (V, s)
        singular += null > 0
    assert singular >= 30, singular
