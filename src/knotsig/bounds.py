"""Lower bounds on unknotting numbers and relatives from the step function.

Per irreducible self-reciprocal factor of the Alexander polynomial, three
integers summarize the breakpoints: the largest absolute jump J and the
extremes S_min <= S_max of the balanced signature over the factor's full
set of upper-circle roots (balanced values stored doubled; halving is
always guarded by a parity check).  From these:

* unknotting (per factor):  J + (S_max - S_min)/2  when S_min <= J,
  (J + S_max)/2 when S_min >= J, after mirroring so S_max >= 0;
* signed counts: the four-case table giving independent minima N (negative
  to positive changes) and P (positive to negative);
* combined unknotting bound: u2 = max(max_f N_f + max_f P_f, u1), with
  u1 the classical bound (max sigma - min sigma)/2;
* Gordian and clasp distance: u2 of K # -J, under the two labels;
* four-genus: half of max|J| + max|sigma| per factor, at least the
  classical half-spread of the plateaus;
* non-balanced: ceil(M/2) - floor(m/2) over the extremes of the
  non-balanced function, also reported as the double-slicing bound.

The closed forms need only errors and record; the report builders import
the signature stack when they run, so the move-lattice oracle can use the
closed forms without loading it.
"""

from __future__ import annotations

from .errors import ParityError
from .record import Record

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotation names only; typing itself stays unloaded
    from .expressions import KnotExpression
    from .seifert import SeifertMatrix
    from .signature import SignatureFunction


class FactorInvariants(Record):
    """(J, S_min, S_max) of one irreducible factor, balanced values doubled."""

    __slots__ = ("factor", "jump_max", "sigma_min2", "sigma_max2")

    factor: tuple
    jump_max: int
    sigma_min2: int
    sigma_max2: int

    def __post_init__(self):
        if self.sigma_min2 > self.sigma_max2:
            raise ValueError("sigma_min exceeds sigma_max")
        if self.sigma_min2 % 2 or self.sigma_max2 % 2:
            raise ParityError("balanced values at roots must be integers (even doubled storage)")
        if (self.sigma_min - self.jump_max) % 2 or (self.sigma_max - self.jump_max) % 2:
            raise ParityError("jumps and signatures of one factor must share parity")

    @property
    def sigma_min(self) -> int:
        return self.sigma_min2 // 2

    @property
    def sigma_max(self) -> int:
        return self.sigma_max2 // 2

    def mirrored(self) -> "FactorInvariants":
        return FactorInvariants(self.factor, self.jump_max, -self.sigma_max2, -self.sigma_min2)


class SignedBound(Record):
    """Independent minima of signed crossing changes.

    negative_to_positive is the count the tables call N, positive_to_negative
    is P; both are valid simultaneously for any unknotting sequence.
    """

    __slots__ = ("negative_to_positive", "positive_to_negative")

    negative_to_positive: int
    positive_to_negative: int

    def __post_init__(self):
        if self.negative_to_positive < 0 or self.positive_to_negative < 0:
            raise ValueError("signed bounds are nonnegative")

    @property
    def total(self) -> int:
        return self.negative_to_positive + self.positive_to_negative


def factor_invariants(sf: SignatureFunction, factor: tuple) -> FactorInvariants:
    """Collect (J, S_min, S_max) for one factor from a step function."""
    bps = [bp for bp in sf.breakpoints if bp.root.x_factor == tuple(factor)]
    if not bps:
        raise ValueError("factor has no breakpoints in this step function")
    return FactorInvariants(
        tuple(factor),
        max(abs(bp.jump) for bp in bps),
        min(bp.balanced2 for bp in bps),
        max(bp.balanced2 for bp in bps),
    )


def unknotting_bound(f: FactorInvariants) -> int:
    """The per-factor lower bound on the unknotting number; see
    unknotting_bound_of."""
    return unknotting_bound_of(f.jump_max, f.sigma_min, f.sigma_max)


def unknotting_bound_of(j: int, smin: int, smax: int) -> int:
    """The per-factor lower bound for (J, S_min, S_max) given as ints.

    Mirrors internally when S_max < 0 (the unknotting number is mirror
    invariant); the two case formulas agree on the overlap S_min = J.
    """
    if smax < 0:
        smin, smax = -smax, -smin
    if smin <= j:
        return j + (smax - smin) // 2
    return (j + smax) // 2


def signed_bounds(f: FactorInvariants) -> SignedBound:
    """The four-case table of signed lower bounds; see signed_bounds_of."""
    return SignedBound(*signed_bounds_of(f.jump_max, f.sigma_min, f.sigma_max))


def signed_bounds_of(j: int, smin: int, smax: int) -> tuple[int, int]:
    """(negative_to_positive, positive_to_negative) for (J, S_min, S_max)
    given as ints: the four-case table, implemented verbatim."""
    if smax >= 0:
        if smin <= j:
            return (j + smax) // 2, (j - smin) // 2
        return (j + smax) // 2, 0
    if -smax <= j:
        return (j + smax) // 2, (j - smin) // 2
    return 0, (j - smin) // 2


def combine(per_factor: list[SignedBound], classical: int) -> int:
    """u2: independent signed maxima summed, floored by the classical bound."""
    if not per_factor:
        return classical
    best_n = max(sb.negative_to_positive for sb in per_factor)
    best_p = max(sb.positive_to_negative for sb in per_factor)
    return max(best_n + best_p, classical)


def classical_bound(sf: SignatureFunction) -> int:
    """(max sigma - min sigma)/2 over the whole function."""
    lo, hi = sf.extremes()
    return (hi - lo) // 2


def g4_bound(sf: SignatureFunction) -> int:
    """Lower bound for the four-genus.

    Per factor, half of (max |jump| + max |balanced|) over its roots; never
    less than half the largest plateau magnitude.
    """
    lo, hi = sf.extremes()
    best = max(abs(lo), abs(hi)) // 2
    for factor, _mult, bps in sf.factor_groups():
        j = max(abs(bp.jump) for bp in bps)
        s = max(abs(bp.balanced2) for bp in bps) // 2
        if (j + s) % 2:
            raise ParityError("jump and signature maxima of one factor must share parity")
        best = max(best, (j + s) // 2)
    return best


def nonbalanced_bound(sf: SignatureFunction) -> int:
    """ceil(M/2) - floor(m/2) for the extremes of the non-balanced function.

    Also the bound on the number of crossing changes to reach a doubly
    slice knot.
    """
    m, M = sf.nonbalanced_extremes()
    return -((-M) // 2) - (m // 2)


class FactorReport(Record):
    __slots__ = ("invariants", "multiplicity", "signed", "u_factor", "breakpoints", "cyclotomic")

    invariants: FactorInvariants
    multiplicity: int
    signed: SignedBound
    u_factor: int
    breakpoints: tuple  # the factor's Breakpoints, increasing t
    cyclotomic: int | None

    @property
    def roots(self) -> tuple:
        return tuple(bp.root for bp in self.breakpoints)


class BoundReport(Record):
    """Everything the bounds CLI reports for one knot (or a pair)."""

    __slots__ = ("expression", "other_expression", "matrix_size", "factors", "u1", "u2", "g4",
                 "clasp", "nonbalanced", "double_slice", "gordian", "notes",
                 "signature_function")

    expression: str
    other_expression: str | None
    matrix_size: int
    factors: tuple
    u1: int
    u2: int
    g4: int
    clasp: int
    nonbalanced: int
    double_slice: int
    gordian: int | None
    notes: tuple
    signature_function: SignatureFunction


_NONBALANCED_NOTE = (
    "nonbalanced/double_slice use the extremes of the non-balanced function, "
    "which the balanced function cannot see at singular points")


def report_for_matrix(V: SeifertMatrix, expression: str,
                      other_expression: str | None = None,
                      include_nonbalanced: bool = True) -> BoundReport:
    from .signature import step_function

    sf = step_function(V, include_nonbalanced=include_nonbalanced)
    factors = []
    signed_list = []
    for factor, mult, bps in sf.factor_groups():
        inv = factor_invariants(sf, factor)
        sb = signed_bounds(inv)
        signed_list.append(sb)
        factors.append(FactorReport(
            invariants=inv, multiplicity=mult, signed=sb,
            u_factor=unknotting_bound(inv),
            breakpoints=tuple(bps),
            cyclotomic=bps[0].root.cyclotomic))
    u1 = classical_bound(sf)
    u2 = combine(signed_list, u1)
    notes = [_NONBALANCED_NOTE] if include_nonbalanced else []
    nb = nonbalanced_bound(sf) if include_nonbalanced else 0
    return BoundReport(
        expression=expression,
        other_expression=other_expression,
        matrix_size=V.size,
        factors=tuple(factors),
        u1=u1,
        u2=u2,
        g4=g4_bound(sf),
        clasp=u2,
        nonbalanced=nb,
        double_slice=nb,
        gordian=u2 if other_expression is not None else None,
        notes=tuple(notes),
        signature_function=sf,
    )


def _as_expression(k) -> KnotExpression:
    from .expressions import parse_expression

    return parse_expression(k) if isinstance(k, str) else k


def bound_report(knot, include_nonbalanced: bool = True,
                 extra_table=None) -> BoundReport:
    """BoundReport for a knot given as expression text, tree, or matrix."""
    from .expressions import expression_to_str, resolve
    from .seifert import SeifertMatrix

    if isinstance(knot, SeifertMatrix):
        return report_for_matrix(knot, "<matrix>", include_nonbalanced=include_nonbalanced)
    expr = _as_expression(knot)
    V = resolve(expr, extra_table)
    return report_for_matrix(V, expression_to_str(expr),
                             include_nonbalanced=include_nonbalanced)


def gordian_report(knot, other, include_nonbalanced: bool = True,
                   extra_table=None) -> BoundReport:
    """Bounds for the Gordian / singular-concordance distance of two knots.

    Everything is computed on K # -J; the distance bounds are its u2.
    """
    from .expressions import Mirror, expression_to_str, resolve
    from .seifert import connected_sum

    ek, ej = _as_expression(knot), _as_expression(other)
    V = connected_sum(resolve(ek, extra_table), resolve(Mirror(ej), extra_table))
    return report_for_matrix(V, expression_to_str(ek), expression_to_str(ej),
                             include_nonbalanced=include_nonbalanced)


def gordian_bound(knot, other, extra_table=None) -> int:
    """Lower bound on the Gordian distance d_g(K, J)."""
    return gordian_report(knot, other, include_nonbalanced=False,
                          extra_table=extra_table).u2


def clasp_bound(knot, other, extra_table=None) -> int:
    """Lower bound on the singular-concordance distance d_c(K, J); same
    kernel as the Gordian bound, reported under its own name."""
    return gordian_bound(knot, other, extra_table=extra_table)


def root_to_dict(root, digits: int, bp=None) -> dict:
    """JSON-ready view of one circle point: exact rational angle when the
    factor is cyclotomic, certified decimal truncations otherwise."""
    from .certify import decimal_of_fraction, decimal_of_root, decimal_of_t

    t_exact = None
    if root.exact_t is not None:
        t_exact = f"{root.exact_t.numerator}/{root.exact_t.denominator}"
        t_dec = decimal_of_fraction(root.exact_t, digits)
    else:
        t_dec = decimal_of_t(root.root, digits)
    out = {"t_exact": t_exact, "t": t_dec, "z": decimal_of_root(root.root, digits)}
    if bp is not None:
        out["jump"] = bp.jump
        out["balanced_x2"] = bp.balanced2
        out["nonbalanced"] = bp.nonbalanced
    return out


def report_to_dict(rep: BoundReport, digits: int = 6) -> dict:
    """The deterministic JSON document for a BoundReport (ints and certified
    decimal strings only, fixed key order)."""
    out: dict = {"expression": rep.expression}
    if rep.other_expression is not None:
        out["second_expression"] = rep.other_expression
    out["matrix_size"] = rep.matrix_size
    out["factors"] = [
        {
            "coefficients": list(fr.invariants.factor),
            "cyclotomic": fr.cyclotomic,
            "multiplicity": fr.multiplicity,
            "roots": [root_to_dict(bp.root, digits, bp) for bp in fr.breakpoints],
            "jump_max": fr.invariants.jump_max,
            "sigma_min": fr.invariants.sigma_min,
            "sigma_max": fr.invariants.sigma_max,
            "negative_to_positive": fr.signed.negative_to_positive,
            "positive_to_negative": fr.signed.positive_to_negative,
            "u_bound": fr.u_factor,
        }
        for fr in rep.factors
    ]
    out["u1"] = rep.u1
    out["u2"] = rep.u2
    out["g4"] = rep.g4
    out["clasp"] = rep.clasp
    if rep.gordian is not None:
        out["gordian"] = rep.gordian
    out["nonbalanced"] = rep.nonbalanced
    out["double_slice"] = rep.double_slice
    out["notes"] = list(rep.notes)
    return out
