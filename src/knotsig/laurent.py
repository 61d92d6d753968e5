"""Laurent polynomials over the integers, and the trace substitution.

A LaurentPoly stores the lowest exponent and a dense tuple of int
coefficients whose first and last entries are nonzero (unless zero); the
Alexander polynomial of an integer Seifert matrix and all its factors are
of this kind.  The trace substitution z = x + 1/x turns a palindromic
polynomial p of even span into an integer polynomial q with
p(x) = x^(deg q) * q(x + 1/x); unit-circle roots of p correspond to roots
of q in (-2, 2).
"""

from __future__ import annotations

import operator

from . import intpoly as ip
from .errors import ParityError, SymmetryError


class LaurentPoly:
    """Immutable integer Laurent polynomial."""

    __slots__ = ("low", "coeffs")

    def __init__(self, low: int, coeffs):
        cs = [operator.index(c) for c in coeffs]  # TypeError for a non-integer
        while cs and cs[0] == 0:
            cs.pop(0)
            low += 1
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "low", low if cs else 0)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # immutability
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls(0, ())

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls(0, (1,))

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        return cls(0, (c,))

    # -- basic structure ---------------------------------------------------

    @property
    def span(self) -> int:
        """Highest minus lowest exponent; 0 for monomials and for the zero
        polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def int_coeffs(self):
        """Primitive integer coefficients (unit and content dropped).

        Returns (unit, prim) with self = unit * x^low * prim as polynomials.
        """
        return ip.primitive(self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly) and self.low == other.low
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.low, self.coeffs))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.low, ip.neg(self.coeffs))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        low = min(self.low, other.low)
        a = ip.shift(self.coeffs, self.low - low)
        b = ip.shift(other.coeffs, other.low - low)
        return LaurentPoly(low, ip.add(a, b))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero() or other.is_zero():
            return LaurentPoly.zero()
        return LaurentPoly(self.low + other.low, ip.mul(self.coeffs, other.coeffs))

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient; DivisibilityError unless it has integer coefficients."""
        return LaurentPoly(self.low - other.low, ip.div_exact(self.coeffs, other.coeffs))

    def gcd(self, other: "LaurentPoly") -> "LaurentPoly":
        """Gcd up to units: primitive integer, positive leading coefficient,
        lowest exponent 0."""
        return LaurentPoly(0, ip.gcd_int_poly(self.coeffs, other.coeffs))

    # -- symmetry ------------------------------------------------------------

    def self_reciprocal_sign(self) -> int | None:
        """+1 / -1 when p(1/x) = +-x^k p(x) for some k, else None."""
        rev = tuple(reversed(self.coeffs))
        if rev == self.coeffs:
            return 1
        if rev == ip.neg(self.coeffs):
            return -1
        return None

    def __repr__(self) -> str:
        if self.is_zero():
            return "LaurentPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.low + i
            terms.append(f"{c}" if e == 0 else f"{c}*x^{e}")
        return "LaurentPoly(" + " + ".join(terms) + ")"


def to_trace_poly(p: LaurentPoly) -> tuple:
    """The integer tuple q, ascending in z, with p = x^low * x^m * q(x + 1/x)
    for a self-reciprocal p of even span 2m.

    q is built from p's own coefficients, with no unit: lc(q) = lc(p), and
    q is primitive when p is.

    Anti-palindromic input (p(1/x) = -x^k p(x)) cannot be a polynomial in
    x + 1/x and raises SymmetryError, as does asymmetric input; odd span
    raises ParityError.
    """
    if p.is_zero():
        raise SymmetryError("the zero polynomial has no trace form")
    sign = p.self_reciprocal_sign()
    if sign is None:
        raise SymmetryError("polynomial is not self-reciprocal")
    if p.span % 2 != 0:
        raise ParityError("self-reciprocal polynomial has odd span")
    if sign == -1:
        raise SymmetryError("anti-palindromic polynomial is not a polynomial in x + 1/x")
    m = p.span // 2
    cs = p.coeffs  # palindromic, length 2m+1
    # x^j + x^-j as monic integer polynomials in z (T~_0 = 2, T~_1 = z, ...)
    tj = [(2,), (0, 1)]
    for _ in range(2, m + 1):
        tj.append(ip.sub(ip.shift(tj[-1], 1), tj[-2]))
    q = ip.trim((cs[m],))
    for j in range(1, m + 1):
        q = ip.add(q, ip.scale(tj[j], cs[m + j]))
    assert from_trace_poly(q).coeffs == p.coeffs
    return q


def from_trace_poly(q) -> LaurentPoly:
    """The pull-back x^(deg q) * q(x + 1/x) as a LaurentPoly."""
    q = ip.trim(q)
    z = LaurentPoly(-1, (1, 0, 1))  # x + 1/x
    out = LaurentPoly.zero()
    for c in reversed(q):
        out = out * z + LaurentPoly.constant(c)
    m = ip.degree(q)
    return LaurentPoly(out.low + m, out.coeffs)


def normalize_alexander(p: LaurentPoly) -> LaurentPoly:
    """The canonical symmetric representative with value 1 at x = 1.

    Input may be any unit multiple; the result is palindromic about 0 with
    even span and p(1) = 1, which pins the representative uniquely.
    """
    if p.is_zero():
        raise ValueError("Alexander polynomial cannot be zero")
    if p.self_reciprocal_sign() is None:
        raise SymmetryError("not symmetric up to units")
    if p.span % 2 != 0:
        raise ParityError("Alexander polynomial must have even span")
    at1 = sum(p.coeffs)
    if abs(at1) != 1:
        raise ValueError(f"p(1) = {at1}, expected a unit (is this det(V - xV^T)?)")
    cs = ip.scale(p.coeffs, 1 if at1 > 0 else -1)
    return LaurentPoly(-(len(cs) - 1) // 2, cs)
