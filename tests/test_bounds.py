import pytest

from knotsig.bounds import (FactorInvariants, SignedBound, bound_report,
                            clasp_bound, classical_bound, combine,
                            factor_invariants, g4_bound, gordian_bound,
                            gordian_report, nonbalanced_bound, signed_bounds,
                            unknotting_bound)
from knotsig.errors import ParityError
from knotsig.expressions import resolve
from knotsig.signature import Breakpoint, SignatureFunction, step_function


def FI(j, smin, smax):
    return FactorInvariants((), j, 2 * smin, 2 * smax)


def test_factor_invariants_examples():
    rep = bound_report("-5_1 # -10_132", include_nonbalanced=False)
    inv = rep.factors[0].invariants
    assert (inv.jump_max, inv.sigma_min, inv.sigma_max) == (2, 0, 2)

    # the op applied directly to a step function
    sf = step_function(resolve("-5_1 # -10_132"), include_nonbalanced=False)
    direct = factor_invariants(sf, (1, -1, 1, -1, 1))
    assert direct == inv
    with pytest.raises(ValueError):
        factor_invariants(sf, (1, -1, 1))  # no such breakpoints

    rep = bound_report("-5_1 # 10_132", include_nonbalanced=False)
    inv = rep.factors[0].invariants
    assert (inv.jump_max, inv.sigma_min, inv.sigma_max) == (2, 2, 4)

    rep = gordian_report("T(3,10)", "T(2,15) # T(5,6)", include_nonbalanced=False)
    phi30 = [f for f in rep.factors if f.cyclotomic == 30][0]
    inv = phi30.invariants
    assert (inv.jump_max, inv.sigma_min, inv.sigma_max) == (3, 1, 13)


def test_factor_invariants_validation():
    with pytest.raises(ParityError):
        FactorInvariants((), 1, 0, 4)  # jump odd, signatures even
    with pytest.raises(ValueError):
        FactorInvariants((), 0, 4, 0)
    with pytest.raises(ParityError):
        FactorInvariants((), 0, 1, 3)  # doubled values must be even


def test_unknotting_bound_cases():
    assert unknotting_bound(FI(2, 0, 2)) == 3
    assert unknotting_bound(FI(3, 1, 13)) == 9
    assert unknotting_bound(FI(0, 0, 0)) == 0
    # mirror case
    assert unknotting_bound(FI(2, -2, 0)) == 3
    # both formulas agree on the overlap smin == j
    assert unknotting_bound(FI(2, 2, 6)) == (2 + 6) // 2 == 2 + (6 - 2) // 2


def test_signed_bounds_table():
    assert signed_bounds(FI(2, 0, 2)) == SignedBound(2, 1)
    assert signed_bounds(FI(2, 2, 4)) == SignedBound(3, 0)
    assert signed_bounds(FI(3, 1, 13)) == SignedBound(8, 1)
    # negative rows
    assert signed_bounds(FI(2, -4, -2)) == SignedBound(0, 3)
    assert signed_bounds(FI(4, -6, -2)) == SignedBound(1, 5)


def test_signed_total_equals_unknotting_bound_exhaustively():
    for j in range(0, 21):
        for smin in range(-20, 21):
            if (smin - j) % 2:
                continue
            for smax in range(smin, 21):
                if (smax - j) % 2:
                    continue
                f = FI(j, smin, smax)
                assert signed_bounds(f).total == unknotting_bound(f), (j, smin, smax)


def test_mirror_swaps_signed_bounds():
    for j in range(0, 13):
        for smin in range(-12, 13):
            if (smin - j) % 2:
                continue
            for smax in range(smin, 13):
                if (smax - j) % 2:
                    continue
                f = FI(j, smin, smax)
                a = signed_bounds(f)
                b = signed_bounds(f.mirrored())
                assert (a.negative_to_positive, a.positive_to_negative) == \
                    (b.positive_to_negative, b.negative_to_positive)


def test_combine():
    assert combine([SignedBound(2, 1), SignedBound(3, 0), SignedBound(2, 0)], 2) == 4
    assert combine([SignedBound(2, 1)], 2) == 3
    assert combine([], 0) == 0
    assert combine([SignedBound(1, 0)], 5) == 5  # classical floor wins


def test_classical_bound_examples():
    sf = step_function(resolve("T(3,10) # -T(2,15) # -T(5,6)"), include_nonbalanced=False)
    assert classical_bound(sf) == 8
    sf = step_function(resolve("-5_1 # -10_132"), include_nonbalanced=False)
    assert classical_bound(sf) == 2
    sf = step_function(resolve("unknot"))
    assert classical_bound(sf) == 0


def test_gordian_examples():
    assert gordian_bound("T(3,10)", "T(2,15) # T(5,6)") == 9
    assert gordian_bound("5_1", "unknot") == bound_report("5_1", include_nonbalanced=False).u2
    assert gordian_bound("8_2", "8_2") == 0


def test_gordian_symmetry():
    pairs = [("3_1", "5_1"), ("5_1", "10_132"), ("8_2", "-3_1")]
    for a, b in pairs:
        assert gordian_bound(a, b) == gordian_bound(b, a)


def test_clasp_examples():
    assert clasp_bound("5_1", "-10_132") == 3
    assert clasp_bound("T(3,10)", "T(2,15) # T(5,6)") == 9
    assert clasp_bound("10_132", "10_132") == 0


def test_g4_examples():
    rep = gordian_report("T(3,10)", "T(2,15) # T(5,6)", include_nonbalanced=False)
    assert rep.g4 == 8
    rep = bound_report("5_1 # 10_132", include_nonbalanced=False)
    assert rep.g4 == 2
    sf = step_function(resolve("5_1 # 10_132"), include_nonbalanced=False)
    assert g4_bound(sf) == 2
    assert bound_report("unknot").g4 == 0


def test_nonbalanced_bound_examples():
    rep = bound_report("8_20")
    assert rep.nonbalanced == 1
    assert rep.double_slice == 1
    assert rep.u1 == 0  # slice knot: balanced function identically zero
    assert bound_report("unknot").nonbalanced == 0


def test_nonbalanced_bound_on_synthetic_values():
    # a function taking non-balanced values 3 and -3 only forces at least 4
    sf = step_function(resolve("unknot"))
    synthetic = SignatureFunction(
        plateaus=(0, 0, 0),
        breakpoints=(
            Breakpoint(step_function(resolve("3_1")).breakpoints[0].root, 1, 0, 0, 0, 0, 3),
            Breakpoint(step_function(resolve("5_1")).breakpoints[0].root, 1, 0, 0, 0, 0, -3),
        ))
    assert nonbalanced_bound(synthetic) == 4
    assert nonbalanced_bound(sf) == 0


def test_nonbalanced_matches_sigma_formula_when_they_agree():
    # for knots whose non-balanced function equals the balanced one
    # everywhere, the bound reduces to ceil(max/2) - floor(min/2) of sigma
    for expr in ("3_1", "5_1", "-8_2", "5_1 # 3_1"):
        sf = step_function(resolve(expr))
        if any(2 * bp.nonbalanced != bp.balanced2 for bp in sf.breakpoints):
            continue
        vals = list(sf.plateaus) + [bp.nonbalanced for bp in sf.breakpoints]
        m, M = min(vals), max(vals)
        assert nonbalanced_bound(sf) == -((-M) // 2) - (m // 2)


def test_triple_slice_sum_bound():
    # three copies of the slice knot: s at the breakpoint becomes 3
    rep = bound_report("3*8_20")
    assert rep.u1 == 0
    assert rep.nonbalanced == 2  # ceil(3/2) - floor(0/2)


def test_report_fields():
    rep = bound_report("-5_1 # -10_132")
    assert rep.u1 == 2 and rep.u2 == 3 and rep.clasp == 3
    assert rep.gordian is None
    assert rep.notes  # the sec-9 style provenance note is present
    rep = gordian_report("3_1", "3_1")
    assert rep.gordian == rep.u2 == 0


def test_reports_on_sums_build_no_rows(monkeypatch):
    from knotsig import bounds

    seen = []
    real = bounds.report_for_matrix

    def spy(V, *args, **kwargs):
        seen.append(V)
        return real(V, *args, **kwargs)

    monkeypatch.setattr(bounds, "report_for_matrix", spy)
    assert bound_report("300*3_1").u2 == 300
    gordian_report("3_1 # 5_1", "10_132")
    assert [V.size for V in seen] == [600, 10]
    assert [V._rows for V in seen] == [None, None]


def test_u_factor_consistency():
    rep = bound_report("2*3_1 # -5_1 # -8_2 # 10_132 # -11n6", include_nonbalanced=False)
    assert rep.u2 == 4
    assert max(f.u_factor for f in rep.factors) == 3
    ns = [f.signed.negative_to_positive for f in rep.factors]
    ps = [f.signed.positive_to_negative for f in rep.factors]
    assert max(ns) + max(ps) == 4
