import pytest

from knotsig.errors import ExpressionError
from knotsig.expressions import (Mirror, NamedKnot, Sum, TorusKnot, parse_expression,
                                 resolve)
from knotsig.knot_table import lookup
from knotsig.seifert import SeifertMatrix
from knotsig.signature import step_function


def test_parse_shapes():
    e = parse_expression("-5_1 # -10_132")
    assert isinstance(e, Sum)
    assert isinstance(e.left, Mirror) and isinstance(e.right, Mirror)
    assert e.left.inner == NamedKnot("5_1")

    e = parse_expression("2*3_1 - 5_1")
    assert isinstance(e, Sum) and isinstance(e.right, Mirror)

    e = parse_expression("2(3_1)")  # paper-style multiple
    assert e == parse_expression("2 * 3_1")

    assert parse_expression("T(3,10)") == TorusKnot(3, 10)
    assert parse_expression("  t( 2 , 5 ) ") == TorusKnot(2, 5)


def test_whitespace_insensitive():
    a = resolve("-5_1#-10_132")
    b = resolve(" - 5_1  #  - 10_132 ")
    assert a == b
    assert a.size == 8


def test_parse_errors():
    for bad in ("", "3_1 #", "T(2)", "2 3_1", "3_1 @", "((3_1)", "unknot unknot",
                "T(3_1,2)", "T(2,3_1)", "T(-2,3)", "T(,3)"):
        with pytest.raises(ExpressionError):
            parse_expression(bad)


def test_unknown_name():
    with pytest.raises(ExpressionError, match="unknown"):
        resolve("12a1")


def test_zero_multiple_is_unknot():
    assert resolve("0*3_1") == SeifertMatrix.empty()
    assert resolve("unknot") == SeifertMatrix.empty()


def test_torus_2_3_is_trefoil():
    a = step_function(resolve("T(2,3)"), include_nonbalanced=False)
    b = step_function(lookup("3_1"), include_nonbalanced=False)
    assert a.summary() == b.summary()


def test_resolution_size_adds():
    assert resolve("-5_1 # -10_132").size == 8
    assert resolve("2*3_1 # 4_1").size == 6


def test_extra_table():
    extra = {"mytrefoil": lookup("3_1")}
    with pytest.raises(ExpressionError):
        resolve("mytrefoil", extra)  # names must still match the grammar
    # grammar-compatible custom names work
    extra = {"9_99": lookup("3_1")}
    assert resolve("9_99", extra) == lookup("3_1")


def test_invalid_torus():
    with pytest.raises(ExpressionError):
        resolve("T(2,4)")
    with pytest.raises(ExpressionError):
        resolve("T(1,3)")
