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
add over blocks.  Where f repeats inside a block (Phi_6^2 in 8_20) that
block's value is not determined by its plateaus, and it is computed by
exact congruence diagonalization over the number field of f; the other
blocks still take the rule above.

The same branches bound each block's jumps.  Across w0 a branch that
vanishes to order k changes its sign only when k is odd, and the block's
signature moves by 2 for each branch that does, so its jump
J_B(w0) = sigma_B(w0+) - sigma_B(w0-) has |J_B(w0)| <= 2*ord_{w0} Delta_B.
Between two samples the block's value therefore moves by at most M, the sum
of 2*ord Delta_B over the roots between them, and it moves by exactly M
only if every one of those jumps is 2*ord Delta_B with one sign: the values
in between are forced.  So each block's plateau values come from a
bisection of its walk (_walk): its first and last samples are eliminated,
an interval whose two ends differ by M is filled, and any other interval
is split at the sample that halves M most evenly.  An interval without
roots of Delta_B (M = 0) is filled at once, so a block is never eliminated
at the roots of another.

Connected sums are block sums: Delta = prod Delta_B^c over the distinct
blocks B of V, each of count c.  Each distinct block is factored, walked and
eliminated once, and its multiplicities and values count c times, so the
product Delta is never formed.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import cos, gcd, pi

from . import intpoly as ip
from .errors import KnotsigError
from .gfmat import block_alexander_polynomials
from .hermitian import sampler, signature_at_root, signatures_at_roots
from .factor import factor_int_poly
from .record import Record
from .seifert import SeifertMatrix
from .sturm import RealRoot, isolate_real_roots


class UnitRoot(Record):
    """A point on the open upper unit circle, algebraically certified.

    x_factor is the irreducible self-reciprocal factor of the Alexander
    polynomial it comes from; trace its trace polynomial (irreducible over
    Q); root isolates z = 2*cos(2*pi*t) in (-2, 2).  For x_factor = Phi_n,
    cyclotomic is n, carried from the modular screen of factor_int_poly, and
    the angle t = k/n is exact and set as exact_t.
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

    def summary(self):
        """Hash-friendly content view used by the property tests."""
        return (self.plateaus,
                tuple((bp.root.x_factor, bp.multiplicity, bp.jump, bp.balanced2,
                       bp.nonbalanced) for bp in self.breakpoints))


def breakpoint_candidates(delta: tuple) -> list[BreakpointFactor]:
    """The irreducible self-reciprocal factors of delta with circle roots.

    Factors without unit-circle roots are dropped; multiplicity never
    affects which roots appear (a factor of even multiplicity still yields
    breakpoints, where the jump may well be 0).
    """
    return _breakpoint_factors(factor_int_poly(delta, indexed=True)[1])


def _breakpoint_factors(factors) -> list[BreakpointFactor]:
    """BreakpointFactors, sorted by degree then coefficients, for the distinct
    (f, multiplicity, n) of factor_int_poly(..., indexed=True) whose f is
    self-reciprocal with circle roots; each f's roots are isolated once."""
    out = []
    for f, mult, n in factors:
        f = tuple(f)
        if f != f[::-1] or ip.degree(f) % 2 != 0 or ip.degree(f) == 0:
            continue
        q = ip.to_trace_poly(f)
        if n is None:
            roots = isolate_real_roots(q, Fraction(-2), Fraction(2))
            exact_ts: list[Fraction | None] = [None] * len(roots)
        else:
            # the roots of q are 2 cos(2 pi k/n), k < n/2 prime to n
            ks = [k for k in range(1, (n + 1) // 2) if gcd(k, n) == 1]
            roots = isolate_real_roots(q, Fraction(-2), Fraction(2),
                                       [2 * cos(2 * pi * k / n) for k in ks])
            assert len(ks) == len(roots)
            exact_ts = [Fraction(k, n) for k in ks]
        if not roots:
            continue
        unit_roots = tuple(UnitRoot(x_factor=f, trace=q, root=r, cyclotomic=n, exact_t=t)
                           for r, t in zip(reversed(roots), exact_ts))  # increasing t
        out.append(BreakpointFactor(f, mult, unit_roots))
    out.sort(key=lambda bf: (len(bf.x_factor), bf.x_factor))
    return out


def signature_at_sample(V: SeifertMatrix, z: Fraction) -> int:
    """Exact signature at the circle point with omega + 1/omega = z.

    z must be rational in (-2, 2) and off the trace roots of the
    breakpoint factors; hitting a root raises SingularSampleError.
    """
    z = Fraction(z)
    return sum(sampler(B, 0)(z) for B in V.blocks)


def nonbalanced_at_root(V: SeifertMatrix, r: UnitRoot) -> int:
    """The non-balanced signature: the honest signature (zero eigenvalues
    contribute nothing) of the hermitian matrix at the algebraic point r."""
    return sum(signature_at_root(B, r.trace, r.root)[0] for B in V.blocks)


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


def _plateau_points(factors) -> tuple[list[UnitRoot], list[Fraction]]:
    """(roots, samples): the circle roots of the breakpoint factors,
    separated and ordered by increasing t, and the plateau samples, one
    rational z before, between and after them (z = 0 without roots)."""
    roots = [ur for bf in factors for ur in bf.roots]
    _separate_all(roots)
    roots.sort(key=lambda u: u.root.lo, reverse=True)  # decreasing z = increasing t
    if not roots:
        return roots, [Fraction(0)]
    samples = [(roots[0].root.hi + 2) / 2]
    samples += [(a.root.lo + b.root.hi) / 2 for a, b in zip(roots, roots[1:])]
    samples.append((roots[-1].root.lo - 2) / 2)
    return roots, samples


def _block_factors(V: SeifertMatrix) -> tuple[Counter, dict, list[BreakpointFactor]]:
    """(counts, mults, factors): the count c_B of each distinct block B of V,
    {B: {f: ord_f Delta_B}} from one factorization of each Delta_B, and the
    breakpoint factors of Delta = prod Delta_B^c_B, of order sum c_B ord_f."""
    counts = Counter(V.blocks)
    polys = dict(zip(V.blocks, block_alexander_polynomials(V)))
    mults, total, index = {}, Counter(), {}
    for B, c in counts.items():
        _, factors = factor_int_poly(polys[B], indexed=True)
        mults[B] = {f: m for f, m, _n in factors}
        for f, m, n in factors:
            total[f] += c * m
            index[f] = n
    return counts, mults, _breakpoint_factors((f, k, index[f]) for f, k in total.items())


def _walk(B, samples: list, weights: list) -> list[int]:
    """The signatures of the block B at every sample, by bisecting its walk
    (module docstring).  weights[k] is 2*ord Delta_B at the root between
    samples k and k + 1; only the samples that the jump bound leaves open
    are eliminated, in the order the bisection reaches them.

    Raises AssertionError where two evaluated samples differ by more than
    the bound allows.
    """
    at = sampler(B, len(weights) - weights.count(0))
    last = len(samples) - 1
    values = [at(samples[0])] + [None] * last
    if last:
        values[last] = at(samples[last])
    todo = [(0, last)]
    while todo:
        i, j = todo.pop()
        bound, step = sum(weights[i:j]), values[j] - values[i]
        if abs(step) > bound:
            raise AssertionError("a block's signature moved past its jump bound")
        if abs(step) == bound:
            sign = 1 if step > 0 else -1
            for k in range(i + 1, j):
                values[k] = values[k - 1] + sign * weights[k - 1]
        elif j - i > 1:
            # the sample k that splits the bound most evenly
            below = list(accumulate(weights[i:j - 1]))
            k = i + 1 + min(range(j - i - 1), key=lambda n: abs(2 * below[n] - bound))
            values[k] = at(samples[k])
            todo += [(k, j), (i, k)]
    return values


def step_function(V: SeifertMatrix, include_nonbalanced: bool = True) -> SignatureFunction:
    """The full signature step function of the knot with Seifert matrix V.

    Delta = prod Delta_B^c over the distinct blocks B of V, each of count c;
    each is factored, walked and eliminated once and counts c times.  The
    non-balanced value at a root of a factor simple in every block is its
    balanced value (module docstring).  A block where the factor repeats
    takes one elimination, read at each of the factor's roots; every other
    block adds the average of its two plateau values next to the root
    (Rellich, block by block), and the blocks' values add up.
    """
    counts, mults, factors = _block_factors(V)
    roots, samples = _plateau_points(factors)
    mult_of = {bf.x_factor: bf.multiplicity for bf in factors}
    walks = {B: _walk(B, samples, [2 * m.get(ur.x_factor, 0) for ur in roots])
             for B, m in mults.items()}
    plateaus = tuple(sum(c * w[i] for c, w in zip(counts.values(), walks.values()))
                     for i in range(len(samples)))
    if plateaus[0] != 0:
        raise AssertionError("signature near omega = 1 must vanish")
    for p in plateaus:
        if p % 2 != 0:
            raise AssertionError("plateau values must be even")

    nb_of: dict[UnitRoot, int] = {}
    if include_nonbalanced:
        at = {ur: i for i, ur in enumerate(roots)}
        for bf in factors:
            repeating = [B for B, m in mults.items() if m.get(bf.x_factor, 0) >= 2]
            if not repeating:
                continue
            q, rs = bf.roots[0].trace, [ur.root for ur in bf.roots]
            kernel = {B: signatures_at_roots(B, q, rs) for B in repeating}
            for k, ur in enumerate(bf.roots):
                i = at[ur]
                nb_of[ur] = sum(c * (kernel[B][k][0] if B in kernel
                                     else (walks[B][i] + walks[B][i + 1]) // 2)
                                for B, c in counts.items())

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
