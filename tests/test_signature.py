from fractions import Fraction

import pytest

from knotsig import intpoly as ip
from knotsig.errors import SingularSampleError
from knotsig.expressions import resolve
from knotsig.knot_table import lookup
from knotsig.seifert import SeifertMatrix, alexander_polynomial
from knotsig.signature import (_cyclotomic_index, breakpoint_candidates, nonbalanced_at_root,
                               signature_at_sample, step_function)


def test_breakpoints_of_cinquefoil():
    bfs = breakpoint_candidates(alexander_polynomial(lookup("5_1")))
    assert len(bfs) == 1
    bf = bfs[0]
    assert bf.x_factor == (1, -1, 1, -1, 1)
    assert bf.multiplicity == 1
    assert [r.exact_t for r in bf.roots] == [Fraction(1, 10), Fraction(3, 10)]
    assert all(r.cyclotomic == 10 for r in bf.roots)


def test_figure_eight_has_no_breakpoints():
    bfs = breakpoint_candidates(alexander_polynomial(lookup("4_1")))
    assert bfs == []


def test_section5_knot_has_three_factors():
    delta = alexander_polynomial(resolve("2*3_1 # -5_1 # -8_2 # 10_132 # -11n6"))
    bfs = breakpoint_candidates(delta)
    assert [(len(bf.x_factor) - 1, len(bf.roots)) for bf in bfs] == [(2, 1), (4, 2), (6, 2)]
    assert [bf.multiplicity for bf in bfs] == [2, 2, 2]


def test_example_1_5_step_function():
    sf = step_function(resolve("-5_1 # -10_132"))
    assert sf.plateaus == (0, 0, 4)
    assert [bp.jump for bp in sf.breakpoints] == [0, 2]
    assert [bp.balanced2 // 2 for bp in sf.breakpoints] == [0, 2]


def test_unknot_step_function():
    sf = step_function(SeifertMatrix.empty())
    assert sf.plateaus == (0,)
    assert sf.breakpoints == ()
    assert sf.sigma_at_minus_one == 0


def test_torus_example_phi30_data():
    sf = step_function(resolve("T(3,10) # -T(2,15) # -T(5,6)"),
                       include_nonbalanced=False)
    phi30 = [bp for bp in sf.breakpoints if bp.root.cyclotomic == 30]
    assert [bp.jump for bp in phi30] == [1, 1, -1, 3]
    assert [bp.balanced2 // 2 for bp in phi30] == [1, 7, 11, 13]
    assert [bp.root.exact_t for bp in phi30] == [
        Fraction(1, 30), Fraction(7, 30), Fraction(11, 30), Fraction(13, 30)]
    lo, hi = sf.extremes()
    assert (lo, hi) == (0, 16)


def test_sample_preconditions():
    V = lookup("3_1")
    with pytest.raises(ValueError):
        signature_at_sample(V, Fraction(5, 2))
    with pytest.raises(SingularSampleError):
        signature_at_sample(V, Fraction(1))


def test_nonbalanced_slice_knot():
    sf = step_function(lookup("8_20"))
    assert sf.plateaus == (0, 0)
    bp = sf.breakpoints[0]
    assert bp.jump == 0 and bp.balanced2 == 0
    assert bp.nonbalanced == 1
    assert nonbalanced_at_root(lookup("8_20"), bp.root) == 1


def test_nonbalanced_at_plateau_point_equals_balanced():
    # a unit root where Delta does not vanish: s equals the step value there
    sf = step_function(lookup("3_1"))
    root = sf.breakpoints[0].root  # t = 1/6
    V = lookup("5_1")
    s = nonbalanced_at_root(V, root)
    assert s == signature_at_sample(V, Fraction(1))


def test_jobs_do_not_change_anything():
    V = resolve("8_2 # -5_1")
    a = step_function(V, jobs=1)
    b = step_function(V, jobs=4)
    assert a.summary() == b.summary()


def test_multiplicity_does_not_hide_breakpoints():
    # Delta of 3_1 # 3_1 is (x^2-x+1)^2; the breakpoint must still appear
    sf = step_function(resolve("2*3_1"))
    assert len(sf.breakpoints) == 1
    assert sf.breakpoints[0].multiplicity == 2
    assert sf.breakpoints[0].jump == -2


def test_factor_groups_ordering():
    sf = step_function(resolve("2*3_1 # -5_1 # -8_2 # 10_132 # -11n6"),
                       include_nonbalanced=False)
    degrees = [len(f) - 1 for f, _, _ in sf.factor_groups()]
    assert degrees == [2, 4, 6]


def _cyclotomic_index_brute(f):
    # every Phi_n with n <= 2 d^2 + 2, whatever its degree
    d = ip.degree(f)
    for n in range(1, 2 * d * d + 3):
        if ip.cyclotomic(n) == tuple(f):
            return n
    return None


@pytest.mark.parametrize("f", [ip.cyclotomic(n) for n in range(1, 61)] + [
    (1, -3, 1),                                   # 4_1
    (1, -2, 3, -2, 1),                            # (x^2 - x + 1)^2
    (1, -1, -1, -1, 1),
    (2, -3, 2), (1, 1, -1, 1, 1), (1, 0, -1, 1, -1, 0, 1),
    (262, -1446, 3431, -4493, 3431, -1446, 262),  # a random 6x6 Seifert matrix
    (1, -1, 0, 1, -1, 1, 0, -1, 1),
])
def test_cyclotomic_index_scans_only_matching_degrees(f):
    assert _cyclotomic_index(f) == _cyclotomic_index_brute(f)
