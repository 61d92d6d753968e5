"""The built-in table against its frozen signature staircases.

Expected step data (plateaus on t in (0, 1/2] and per-breakpoint
jump / doubled balanced value / non-balanced value, in increasing t) were
computed with this package's exact engine and cross-checked against a
floating eigenvalue scan; several are pinned by published example values.
"""

import pytest

from knotsig.errors import TableError
from knotsig.knot_table import knot_names, lookup, table_rows
from knotsig.signature import step_function

EXPECTED_STEPS = {
    "3_1": ((0, -2), ((-1, -2, -1),)),
    "4_1": ((0,), ()),
    "5_1": ((0, -2, -4), ((-1, -2, -1), (-1, -6, -3))),
    "7_4": ((0, -2), ((-1, -2, -1),)),
    "8_2": ((0, -2, -4), ((-1, -2, -1), (-1, -6, -3))),
    "8_20": ((0, 0), ((0, 0, 1),)),
    "10_132": ((0, 2, 0), ((1, 2, 1), (-1, 2, 1))),
    "11n6": ((0, 2, 0), ((1, 2, 1), (-1, 2, 1))),
}


def test_names():
    assert knot_names()[0] == "unknot"
    assert set(EXPECTED_STEPS) <= set(knot_names())


def test_unknown_name():
    with pytest.raises(TableError, match="unknown"):
        lookup("12n9999")


def test_aliases():
    assert lookup("0_1") == lookup("unknot")


@pytest.mark.parametrize("name", sorted(EXPECTED_STEPS))
def test_step_staircase(name):
    sf = step_function(lookup(name))
    plateaus, bps = EXPECTED_STEPS[name]
    assert sf.plateaus == plateaus
    got = tuple((bp.jump, bp.balanced2, bp.nonbalanced) for bp in sf.breakpoints)
    assert got == bps


def test_rows_report():
    rows = table_rows()
    assert [r[0] for r in rows] == list(EXPECTED_STEPS)
    for name, V, delta, sig in rows:
        assert V.size % 2 == 0
        assert sum(delta) == 1
        assert sig == sf_last(name)


def sf_last(name):
    return step_function(lookup(name), include_nonbalanced=False).sigma_at_minus_one


def test_trace_roundtrip_for_every_table_factor():
    # every self-reciprocal factor of every table knot survives the trace
    # substitution round trip
    from knotsig import intpoly as ip
    from knotsig.factor import factor_int_poly
    from knotsig.seifert import alexander_polynomial

    for name in EXPECTED_STEPS:
        delta = alexander_polynomial(lookup(name))
        _, prim = ip.primitive(delta)
        for f, _mult in factor_int_poly(prim)[1]:
            if tuple(f) != tuple(reversed(f)):
                continue
            assert ip.from_trace_poly(ip.to_trace_poly(f)) == f


def test_breakpoint_angles():
    sf = step_function(lookup("5_1"), include_nonbalanced=False)
    from fractions import Fraction

    assert [bp.root.exact_t for bp in sf.breakpoints] == [Fraction(1, 10), Fraction(3, 10)]
    sf = step_function(lookup("8_20"), include_nonbalanced=False)
    assert [bp.root.exact_t for bp in sf.breakpoints] == [Fraction(1, 6)]
    assert sf.breakpoints[0].multiplicity == 2
