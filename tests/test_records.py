"""The frozen records: constructor, repr, equality, hash, immutability and
the validations their __post_init__ keeps."""

import copy
import pickle
from fractions import Fraction

import pytest

from knotsig.bounds import BoundReport, FactorInvariants, FactorReport, SignedBound
from knotsig.braids import BraidWord
from knotsig.errors import BraidError, ParityError
from knotsig.expressions import Mirror, Multiple, NamedKnot, Sum, TorusKnot, parse_expression
from knotsig.knot_table import TableEntry
from knotsig.oracle import ExhaustiveReport, LatticeState, Mismatch, MovesResult
from knotsig.signature import Breakpoint, BreakpointFactor, SignatureFunction, UnitRoot

INV = FactorInvariants((1, -1, 1), 1, -2, -2)
SF = SignatureFunction((0, -2), ())

# (class, field values, repr text); each repr is the text the frozen
# dataclasses these classes replaced printed for the same values
CASES = [
    (FactorInvariants, ((1, -1, 1), 1, -2, -2),
     "FactorInvariants(factor=(1, -1, 1), jump_max=1, sigma_min2=-2, sigma_max2=-2)"),
    (SignedBound, (2, 1), "SignedBound(negative_to_positive=2, positive_to_negative=1)"),
    (FactorReport, (INV, 1, SignedBound(1, 0), 1, (), 6),
     "FactorReport(invariants=FactorInvariants(factor=(1, -1, 1), jump_max=1, sigma_min2=-2, "
     "sigma_max2=-2), multiplicity=1, signed=SignedBound(negative_to_positive=1, "
     "positive_to_negative=0), u_factor=1, breakpoints=(), cyclotomic=6)"),
    (BoundReport, ("3_1", None, 2, (), 1, 1, 1, 1, 1, 1, None, ("note",), SF),
     "BoundReport(expression='3_1', other_expression=None, matrix_size=2, factors=(), u1=1, "
     "u2=1, g4=1, clasp=1, nonbalanced=1, double_slice=1, gordian=None, notes=('note',), "
     "signature_function=SignatureFunction(plateaus=(0, -2), breakpoints=()))"),
    (BraidWord, (2, (1, 1, 1)), "BraidWord(strands=2, letters=(1, 1, 1))"),
    (NamedKnot, ("3_1",), "NamedKnot(name='3_1')"),
    (TorusKnot, (2, 5), "TorusKnot(p=2, q=5)"),
    (Mirror, (NamedKnot("3_1"),), "Mirror(inner=NamedKnot(name='3_1'))"),
    (Sum, (Multiple(2, TorusKnot(2, 5)), Mirror(NamedKnot("3_1"))),
     "Sum(left=Multiple(count=2, inner=TorusKnot(p=2, q=5)), "
     "right=Mirror(inner=NamedKnot(name='3_1')))"),
    (Multiple, (2, TorusKnot(2, 5)), "Multiple(count=2, inner=TorusKnot(p=2, q=5))"),
    (TableEntry, ("3_1", None, (2, (1, 1, 1)), (1, -1, 1), -2, "band surface"),
     "TableEntry(name='3_1', matrix=None, braid=(2, (1, 1, 1)), alexander=(1, -1, 1), "
     "signature=-2, note='band surface')"),
    (LatticeState, (1, -1, 1), "LatticeState(j=1, smin=-1, smax=1)"),
    (MovesResult, (1, ("G1+",), 0, 1, (0, 1)),
     "MovesResult(total=1, witness=('G1+',), min_negative_to_positive=0, "
     "min_positive_to_negative=1, lex_split=(0, 1))"),
    (Mismatch, ((0, 0, 0), "total", (0,), (1,)),
     "Mismatch(state=(0, 0, 0), kind='total', bfs=(0,), formula=(1,))"),
    (ExhaustiveReport, (2, 6, 10, ()),
     "ExhaustiveReport(bound_range=2, margin=6, states_checked=10, mismatches=())"),
    (UnitRoot, ((1, -1, 1), (1, 1), None, 6, Fraction(1, 6)),
     "UnitRoot(x_factor=(1, -1, 1), trace=(1, 1), root=None, cyclotomic=6, "
     "exact_t=Fraction(1, 6))"),
    (BreakpointFactor, ((1, -1, 1), 1, ()),
     "BreakpointFactor(x_factor=(1, -1, 1), multiplicity=1, roots=())"),
    (Breakpoint, (None, 1, 0, -2, -1, -2, -2),
     "Breakpoint(root=None, multiplicity=1, left=0, right=-2, jump=-1, balanced2=-2, "
     "nonbalanced=-2)"),
    (SignatureFunction, ((0, -2), ()), "SignatureFunction(plateaus=(0, -2), breakpoints=())"),
]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_record(cls, fields, text):
    rec = cls(*fields)
    assert repr(rec) == text
    names = cls.__slots__
    assert tuple(cls.__annotations__) == names
    assert tuple(getattr(rec, name) for name in names) == fields
    assert rec == cls(**dict(zip(names, fields)))
    assert rec == cls(*fields[:1], **dict(zip(names[1:], fields[1:])))
    assert hash(rec) == hash(fields) == hash(cls(*fields))
    assert rec != fields and not (rec == fields)
    assert copy.copy(rec) == rec == pickle.loads(pickle.dumps(rec))
    with pytest.raises(AttributeError):
        setattr(rec, names[0], fields[0])
    with pytest.raises(AttributeError):
        delattr(rec, names[-1])
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert tuple(getattr(rec, name) for name in names) == fields
    with pytest.raises(TypeError):
        cls(*fields, 0)
    with pytest.raises(TypeError):
        cls(*fields[:-1], unknown=0)


def test_equality_needs_the_same_class():
    assert NamedKnot("3_1") != Mirror("3_1")
    assert hash(NamedKnot("3_1")) == hash(Mirror("3_1")) == hash(("3_1",))
    assert Sum(NamedKnot("3_1"), TorusKnot(2, 5)) == parse_expression("3_1 # T(2,5)")


def test_unit_root_defaults():
    root = UnitRoot((1, -1, 1), (1, 1), None)
    assert (root.cyclotomic, root.exact_t) == (None, None)
    assert root == UnitRoot((1, -1, 1), (1, 1), None, None, None)
    assert UnitRoot((1, 1), (2,), None, exact_t=Fraction(1, 3)).exact_t == Fraction(1, 3)
    with pytest.raises(TypeError):
        UnitRoot((1, -1, 1), (1, 1))


def test_braid_letters_become_a_tuple():
    assert BraidWord(3, [1, -2]).letters == (1, -2)


@pytest.mark.parametrize("make, error", [
    (lambda: FactorInvariants((), 0, 2, 0), ValueError),
    (lambda: FactorInvariants((), 0, 1, 3), ParityError),
    (lambda: FactorInvariants((), 1, 0, 0), ParityError),
    (lambda: SignedBound(-1, 0), ValueError),
    (lambda: SignedBound(negative_to_positive=0, positive_to_negative=-1), ValueError),
    (lambda: LatticeState(-1, 1, 1), ValueError),
    (lambda: LatticeState(0, 2, 0), ValueError),
    (lambda: LatticeState(1, 0, 0), ParityError),
    (lambda: BraidWord(1, ()), BraidError),
    (lambda: BraidWord(2, (0,)), BraidError),
    (lambda: BraidWord(strands=2, letters=(2,)), BraidError),
])
def test_post_init_validations(make, error):
    with pytest.raises(error):
        make()
