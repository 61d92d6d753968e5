"""The signature step function of a knot from its Seifert matrix.

The function t -> signature((1-w)V + (1-conj(w))V^T), w = exp(2*pi*i*t), is
an even-valued step function on t in (0, 1/2] that can only jump at roots
of the Alexander polynomial.  Everything is computed in the trace
coordinate z = 2*cos(2*pi*t), which runs from 2 down to -2 as t runs from
0 to 1/2: breakpoints are the roots in (-2, 2) of the trace polynomials of
the self-reciprocal irreducible factors of the Alexander polynomial, and
each plateau value is one exact signature at a rational z between
consecutive roots.

At a breakpoint three numbers are recorded: the jump (half the difference
of one-sided limits), the balanced value (their average, stored doubled so
reports never need fractions), and the non-balanced value, the honest
signature of the singular hermitian matrix at the root.

The non-balanced value is the balanced one at every root of an irreducible
factor f that is simple (multiplicity <= 1) in the Alexander polynomial
Delta_B of each connected block B.  Proof: H_B(t) = (1-conj(w))(V_B^T - w V_B)
with 1-conj(w) != 0 on (0, 1/2], so det H_B(t) vanishes at a root w0 to
exactly the order of w0 as a root of Delta_B.  By Rellich's theorem the
eigenvalues of H_B(t) are real-analytic branches whose vanishing orders at
w0 add up to that order (Kato, Perturbation Theory for Linear Operators,
ch. II).  For order 1 exactly one branch vanishes, to first order, so it
changes sign and the block's signature at w0 is the average of its two
one-sided values; for order 0 the block is continuous at w0.  Signatures
add over blocks.  Where f repeats inside one block (Phi_6^2 in 8_20) the
value is not determined by the plateaus, and it is computed by exact
congruence diagonalization over the number field of f.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import intpoly as ip
from .errors import KnotsigError
from .hermitian import (signature_at_root, signature_at_sample as _sig_sample_raw,
                        signatures_at_roots)
from .laurent import LaurentPoly, to_trace_poly
from .factor import factor_int_poly
from .record import Record
from .seifert import SeifertMatrix, alexander_polynomial, block_alexander_polynomials
from .sturm import RealRoot, isolate_real_roots


class UnitRoot(Record):
    """A point on the open upper unit circle, algebraically certified.

    x_factor is the irreducible self-reciprocal factor of the Alexander
    polynomial it comes from; trace its trace polynomial (irreducible over
    Q); root isolates z = 2*cos(2*pi*t) in (-2, 2).  For cyclotomic factors
    the angle is exactly rational and exact_t is set.
    """

    __slots__ = ("x_factor", "trace", "root", "cyclotomic", "exact_t")
    _defaults = {"cyclotomic": None, "exact_t": None}

    x_factor: tuple
    trace: tuple
    root: RealRoot
    cyclotomic: int | None
    exact_t: Fraction | None


class BreakpointFactor(Record):
    """An irreducible self-reciprocal factor with its upper-circle roots."""

    __slots__ = ("x_factor", "multiplicity", "roots")

    x_factor: tuple
    multiplicity: int
    roots: tuple  # UnitRoots ordered by increasing t (decreasing z)


class Breakpoint(Record):
    __slots__ = ("root", "multiplicity", "left", "right", "jump", "balanced2", "nonbalanced")

    root: UnitRoot
    multiplicity: int
    left: int           # plateau value on the smaller-t side
    right: int          # plateau value on the larger-t side
    jump: int           # (right - left) / 2
    balanced2: int      # left + right  (twice the two-sided average)
    nonbalanced: int | None


class SignatureFunction(Record):
    """Plateau values and breakpoint data on t in (0, 1/2].

    plateaus has one entry per open interval between consecutive
    breakpoints, starting with the interval at t -> 0+ (always value 0)
    and ending with the interval reaching t = 1/2; breakpoints are ordered
    by increasing t.
    """

    __slots__ = ("plateaus", "breakpoints")

    plateaus: tuple
    breakpoints: tuple

    @property
    def sigma_at_minus_one(self) -> int:
        return self.plateaus[-1]

    def extremes(self) -> tuple[int, int]:
        """(min, max) of the step function over the whole circle.

        Balanced breakpoint values are averages of the adjacent plateaus,
        so the plateau extremes already decide these.
        """
        return min(self.plateaus), max(self.plateaus)

    def nonbalanced_extremes(self) -> tuple[int, int]:
        vals = list(self.plateaus)
        for bp in self.breakpoints:
            if bp.nonbalanced is None:
                raise KnotsigError("step function computed without non-balanced values")
            vals.append(bp.nonbalanced)
        return min(vals), max(vals)

    def factor_groups(self) -> list[tuple[tuple, int, tuple]]:
        """[(x_factor, multiplicity, breakpoints-of-that-factor), ...] ordered
        by factor degree then coefficients."""
        groups: dict[tuple, list] = {}
        mults: dict[tuple, int] = {}
        for bp in self.breakpoints:
            groups.setdefault(bp.root.x_factor, []).append(bp)
            mults[bp.root.x_factor] = bp.multiplicity
        keys = sorted(groups, key=lambda f: (len(f), f))
        return [(f, mults[f], tuple(groups[f])) for f in keys]

    def negated(self) -> "SignatureFunction":
        return SignatureFunction(
            tuple(-p for p in self.plateaus),
            tuple(Breakpoint(bp.root, bp.multiplicity, -bp.left, -bp.right, -bp.jump,
                             -bp.balanced2,
                             None if bp.nonbalanced is None else -bp.nonbalanced)
                  for bp in self.breakpoints))

    def summary(self):
        """Hash-friendly content view used by the property tests."""
        return (self.plateaus,
                tuple((bp.root.x_factor, bp.multiplicity, bp.jump, bp.balanced2,
                       bp.nonbalanced) for bp in self.breakpoints))


def _cyclotomic_index(f) -> int | None:
    d = ip.degree(f)
    # deg Phi_n = totient(n) >= sqrt(n/2), so n <= 2 d^2 + 2 covers every
    # candidate index; only the Phi_n of degree d are built
    for n in range(1, 2 * d * d + 3):
        if ip.totient(n) == d and ip.cyclotomic(n) == tuple(f):
            return n
    return None


def breakpoint_candidates(delta: LaurentPoly) -> list[BreakpointFactor]:
    """The irreducible self-reciprocal factors of delta with circle roots.

    Factors without unit-circle roots are dropped; multiplicity never
    affects which roots appear (a factor of even multiplicity still yields
    breakpoints, where the jump may well be 0).
    """
    if delta.is_zero():
        raise ValueError("zero Alexander polynomial")
    _, prim = delta.int_coeffs()
    _, factors = factor_int_poly(prim)
    out = []
    for f, mult in factors:
        if tuple(f) != tuple(reversed(f)) or ip.degree(f) % 2 != 0 or ip.degree(f) == 0:
            continue
        q = to_trace_poly(LaurentPoly(0, f))
        roots = isolate_real_roots(q, Fraction(-2), Fraction(2))
        if not roots:
            continue
        roots = list(reversed(roots))  # decreasing z = increasing t
        n = _cyclotomic_index(f)
        exact_ts: list[Fraction | None] = [None] * len(roots)
        if n is not None:
            ks = [k for k in range(1, (n + 1) // 2) if gcd(k, n) == 1 and 2 * k < n]
            assert len(ks) == len(roots)
            exact_ts = [Fraction(k, n) for k in sorted(ks)]
        unit_roots = tuple(
            UnitRoot(x_factor=tuple(f), trace=q, root=r, cyclotomic=n, exact_t=t)
            for r, t in zip(roots, exact_ts))
        out.append(BreakpointFactor(tuple(f), mult, unit_roots))
    out.sort(key=lambda bf: (len(bf.x_factor), bf.x_factor))
    return out


def signature_at_sample(V: SeifertMatrix, z: Fraction) -> int:
    """Exact signature at the circle point with omega + 1/omega = z.

    z must be rational in (-2, 2) and off the trace roots of the
    breakpoint factors; hitting a root raises SingularSampleError.
    """
    return _sig_sample_raw(V.rows, Fraction(z))


def nonbalanced_at_root(V: SeifertMatrix, r: UnitRoot) -> int:
    """The non-balanced signature: the honest signature (zero eigenvalues
    contribute nothing) of the hermitian matrix at the algebraic point r."""
    s, _null = signature_at_root(V.rows, r.trace, r.root)
    return s


def _separate_all(roots: list[UnitRoot]) -> None:
    while True:
        order = sorted(roots, key=lambda u: u.root.lo)
        clean = True
        for a, b in zip(order, order[1:]):
            if not (a.root.hi < b.root.lo or b.root.hi < a.root.lo):
                a.root.separate_from(b.root)
                clean = False
        if clean:
            return


def _repeated_in_a_block(blocks, factors) -> list[BreakpointFactor]:
    """The factors whose square divides one of the block polynomials
    (block_alexander_polynomials); every other factor is simple in each
    block.

    A factor of total multiplicity 1 is simple in every block, and with one
    block the total multiplicity is the block's, so the block polynomials
    are only divided for a repeated factor of a matrix with several blocks.
    """
    repeated = [bf for bf in factors if bf.multiplicity >= 2]
    if not repeated or len(blocks) == 1:
        return repeated
    return [bf for bf in repeated
            if any(ip.is_zero(ip.pseudo_rem(b.coeffs, ip.mul(bf.x_factor, bf.x_factor)))
                   for b in blocks)]


def step_function(V: SeifertMatrix, include_nonbalanced: bool = True) -> SignatureFunction:
    """The full signature step function of the knot with Seifert matrix V.

    The non-balanced value at a root of a factor that is simple in every
    connected block is its balanced value (module docstring).  A factor
    repeated inside one block takes one elimination, read at each of its
    roots.  Samples and eliminations run serially; a thread pool gave no
    speedup under the GIL.
    """
    blocks = block_alexander_polynomials(V)
    delta = alexander_polynomial(V, blocks)
    factors = breakpoint_candidates(delta)
    roots = [ur for bf in factors for ur in bf.roots]
    mult_of = {bf.x_factor: bf.multiplicity for bf in factors}
    _separate_all(roots)
    roots.sort(key=lambda u: u.root.lo, reverse=True)  # decreasing z = increasing t

    samples: list[Fraction] = []
    if roots:
        samples.append((roots[0].root.hi + 2) / 2)
        for a, b in zip(roots, roots[1:]):
            samples.append((a.root.lo + b.root.hi) / 2)
        samples.append((roots[-1].root.lo - 2) / 2)
    else:
        samples.append(Fraction(0))

    plateaus = tuple(signature_at_sample(V, z) for z in samples)
    if plateaus[0] != 0:
        raise AssertionError("signature near omega = 1 must vanish")
    for p in plateaus:
        if p % 2 != 0:
            raise AssertionError("plateau values must be even")

    nb_of: dict[UnitRoot, int] = {}
    if include_nonbalanced:
        for bf in _repeated_in_a_block(blocks, factors):
            values = signatures_at_roots(V.rows, bf.roots[0].trace, [ur.root for ur in bf.roots])
            nb_of.update((ur, s) for ur, (s, _null) in zip(bf.roots, values))

    bps = []
    for i, ur in enumerate(roots):
        left, right = plateaus[i], plateaus[i + 1]
        if (right - left) % 2 != 0:
            raise AssertionError("adjacent plateaus differ by an odd amount")
        balanced2 = left + right
        nonbalanced = nb_of.get(ur, balanced2 // 2) if include_nonbalanced else None
        bps.append(Breakpoint(root=ur, multiplicity=mult_of[ur.x_factor],
                              left=left, right=right, jump=(right - left) // 2,
                              balanced2=balanced2, nonbalanced=nonbalanced))
    return SignatureFunction(plateaus, tuple(bps))
