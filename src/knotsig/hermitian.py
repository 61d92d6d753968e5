"""Exact signatures of hermitian forms attached to Seifert matrices.

For a point omega on the upper unit circle with 2*cos(angle) = z0 a root of
an integer polynomial q, the matrix (1-omega)V + (1-conj(omega))V^T is
hermitian over the field Q(omega).  Writing l = lc(q), zhat = l*z and
what = l*omega, everything is scaled into the order

    Z[zhat, what] / (qhat(zhat), what^2 - zhat*what + l^2),

whose involution fixes zhat and sends what to zhat - what; diagonal entries
of hermitian matrices land in the real (involution-fixed) subring and their
signs are decided at the embedding.  There are two rings for it:

- ScaledOrder, for deg q >= 2: elements are pairs (a, b) of integer
  polynomials in zhat of degree less than deg q, meaning a + b*what; the
  sign of a real element at a root of q is decided by interval evaluation
  at an isolating interval of that root.
- IntPairOrder, for deg q = 1, that is a rational z = zhat/l (every plateau
  sample and every rational trace root): zhat is an integer, elements are
  int pairs (a, b), real elements are plain ints and their sign is the
  int's sign.

Both rings offer the same operations, and one kernel runs over either: a
fraction-free (Bareiss) symmetric elimination whose divisions are exact in
the order, whose pivots are real, and whose step signs are
sign(d_s * d_{s-1}).  A final all-zero block is nullity.  When every
active diagonal entry vanishes but the block is nonzero, the congruence
row i += c*row j, column i += conj(c)*column j (c = A[i][j] != 0) makes
the pivot 2*c*conj(c) in place, after earlier pivots too: the active
entries are minors of the input bordered by the pivot rows and columns
(Sylvester's identity; Bareiss, Math. Comp. 22, 1968), linear in their row
and column, so the repair is that congruence on the input, and the later
exact divisions and the sign rule carry over.

The ring is per trace polynomial q, and so are the pivot choice, the
repair and every division; the embedding is per root of q.  So one
elimination per irreducible q records a sign-free PivotTrace, read at
each root (signatures_at_roots).

Each function eliminates exactly the matrix it is given.  Callers pass the
connected blocks of a Seifert matrix (SeifertMatrix.blocks) one at a time
and add up the signatures.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from . import intpoly as ip
from .errors import SingularSampleError
from .sturm import RealRoot

Pair = tuple  # (a, b): two int-coefficient tuples, ascending powers of zhat


class ScaledOrder:
    """The order Z[zhat, what] above for deg q >= 2, for every root of q at
    once: real_sign takes the root (irrational, as q is irreducible)."""

    def __init__(self, q):
        q = ip.trim(q)
        if ip.is_zero(q) or q[-1] <= 0:
            raise ValueError("defining polynomial must have positive leading coefficient")
        self.q = q
        self.m = ip.degree(q)
        self.l = q[-1]
        l, m = self.l, self.m
        self.qhat = tuple(q[k] * l ** (m - 1 - k) for k in range(m)) + (1,)
        self.e = l * l
        self.zero: Pair = ((), ())
        self.one: Pair = ((1,), ())

    # -- ring operations ------------------------------------------------

    def reduce(self, a):
        return ip.mod_monic(a, self.qhat)

    def add(self, x: Pair, y: Pair) -> Pair:
        return (ip.add(x[0], y[0]), ip.add(x[1], y[1]))

    def sub(self, x: Pair, y: Pair) -> Pair:
        return (ip.sub(x[0], y[0]), ip.sub(x[1], y[1]))

    def mul(self, x: Pair, y: Pair) -> Pair:
        a1, b1 = x
        a2, b2 = y
        bb = ip.mul(b1, b2)
        re = ip.sub(ip.mul(a1, a2), ip.scale(bb, self.e))
        im = ip.add(ip.add(ip.mul(a1, b2), ip.mul(a2, b1)), ip.shift(bb, 1))
        return (self.reduce(re), self.reduce(im))

    def conj(self, x: Pair) -> Pair:
        a, b = x
        return (self.reduce(ip.add(a, ip.shift(b, 1))), ip.neg(b))

    def is_zero(self, x: Pair) -> bool:
        return ip.is_zero(x[0]) and ip.is_zero(x[1])

    def size(self, x: Pair) -> int:
        return sum(abs(c).bit_length() for c in x[0]) + sum(abs(c).bit_length() for c in x[1])

    # -- real (involution-fixed) elements --------------------------------

    def real_part_only(self, x: Pair):
        assert ip.is_zero(x[1]), "expected an involution-fixed element"
        return x[0]

    def real_sign(self, a, root: RealRoot) -> int:
        """Sign of a real element (an integer polynomial in zhat) at the
        embedding zhat = l*root, root a root of q; refines root as needed."""
        if ip.is_zero(a):
            return 0
        l = self.l
        while True:
            lo, hi = ip.interval_eval(a, l * root.lo, l * root.hi)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            root.refine()

    def real_inverse(self, d):
        """(num, den) with num/den the inverse of the real element d mod qhat.

        Solves M x = e_0 for the integer multiplication matrix M of d (column
        j is d * zhat^j mod qhat) by fraction-free (Bareiss) elimination and
        back substitution, which stay in the integers: det(M) * x is the
        adjugate column.  The pair is reduced by its common content.
        """
        if len(d) == 1:
            return ((1,), d[0])
        m = self.m
        a = [[0] * (m + 1) for _ in range(m)]
        col = d
        for j in range(m):
            for i, c in enumerate(col):
                a[i][j] = c
            col = self.reduce(ip.shift(col, 1))
        a[0][m] = 1
        prev = 1
        for k in range(m):
            if a[k][k] == 0:
                swap = next((i for i in range(k + 1, m) if a[i][k]), None)
                assert swap is not None, "pivot not invertible modulo qhat"
                a[k], a[swap] = a[swap], a[k]
            row_k, akk = a[k], a[k][k]
            for row in a[k + 1:]:
                aik = row[k]
                for j in range(k + 1, m + 1):
                    row[j] = (akk * row[j] - aik * row_k[j]) // prev
            prev = akk
        det = prev
        x = [0] * m
        for i in range(m - 1, -1, -1):
            row = a[i]
            s = det * row[m] - sum(row[j] * x[j] for j in range(i + 1, m))
            x[i] = s // row[i]
        g = gcd(det, *x)
        if det < 0:
            g = -g
        return (ip.trim(v // g for v in x), det // g)

    def divide_real(self, x: Pair, inv) -> Pair:
        """Divide x by a real element given as (num, den); must be exact."""
        num, den = inv
        out = []
        for comp in x:
            v = self.reduce(ip.mul(comp, num))
            if den != 1:
                assert all(c % den == 0 for c in v), "inexact Bareiss division"
                v = tuple(c // den for c in v)
            out.append(v)
        return (out[0], out[1])

    def hermitian_entries(self, V) -> list[list[Pair]]:
        """l * [(1-omega)V + (1-conj(omega))V^T] over the order.

        The positive rescale by l leaves the signature unchanged.
        """
        n, l = len(V), self.l
        return [[(self.reduce(ip.trim((l * (V[i][j] + V[j][i]), -V[j][i]))),
                  ip.trim((V[j][i] - V[i][j],)))
                 for j in range(n)] for i in range(n)]


class IntPairOrder:
    """The order above for a rational trace value z = zhat/l in (-2, 2)
    (deg q = 1).

    zhat is an integer, so an element is an int pair (a, b) meaning
    a + b*what, with what^2 = zhat*what - l^2.  Real elements are plain ints
    and their sign at the (only) embedding is their own, so real_sign
    ignores its root.  Division by a real element needs no inverse:
    real_inverse hands the int back and divide_real divides exactly.
    """

    def __init__(self, z: Fraction):
        z = Fraction(z)
        if not -2 < z < 2:
            raise ValueError("sample must lie strictly inside (-2, 2)")
        self.zhat, self.l = z.numerator, z.denominator
        self.e = self.l * self.l
        self.zero = (0, 0)
        self.one = (1, 0)

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def sub(self, x, y):
        return (x[0] - y[0], x[1] - y[1])

    def mul(self, x, y):
        a1, b1 = x
        a2, b2 = y
        bb = b1 * b2
        return (a1 * a2 - self.e * bb, a1 * b2 + a2 * b1 + self.zhat * bb)

    def conj(self, x):
        a, b = x
        return (a + self.zhat * b, -b)

    def is_zero(self, x) -> bool:
        return not (x[0] or x[1])

    def size(self, x) -> int:
        return abs(x[0]).bit_length() + abs(x[1]).bit_length()

    def real_part_only(self, x) -> int:
        assert x[1] == 0, "expected an involution-fixed element"
        return x[0]

    def real_sign(self, a: int, root=None) -> int:
        return (a > 0) - (a < 0)

    def real_inverse(self, d: int) -> int:
        return d

    def divide_real(self, x, d: int):
        """Divide x by the nonzero int d; must be exact."""
        a, ra = divmod(x[0], d)
        b, rb = divmod(x[1], d)
        assert ra == 0 and rb == 0, "inexact Bareiss division"
        return (a, b)

    def hermitian_entries(self, V) -> list[list[tuple]]:
        """l * [(1-omega)V + (1-conj(omega))V^T] over the order."""
        n, l, zhat = len(V), self.l, self.zhat
        return [[(l * (V[i][j] + V[j][i]) - zhat * V[j][i], V[j][i] - V[i][j])
                 for j in range(n)] for i in range(n)]


Ring = ScaledOrder | IntPairOrder


PivotTrace = namedtuple("PivotTrace", "pivots null")
PivotTrace.__doc__ = """What a fraction-free elimination leaves once signs are set aside.

A named tuple (pivots, null): pivots are the real pivot elements d_1, d_2,
... in order, repaired ones included, and null the size of the final
all-zero block.
"""


def signature_triple(A: list[list[Pair]], order: Ring) -> tuple[int, int, int]:
    """(positive, negative, nullity) of a hermitian matrix over the order."""
    n = len(A)
    return _trace_signs(_eliminate([row[:] for row in A], list(range(n)), order), order)


def _trace_signs(trace: PivotTrace, order: Ring, root=None) -> tuple[int, int, int]:
    """(positive, negative, nullity) of a pivot trace at the root's embedding."""
    pos = neg = 0
    prev_sign = 1
    for d in trace.pivots:
        d_sign = order.real_sign(d, root)
        if d_sign * prev_sign > 0:
            pos += 1
        else:
            neg += 1
        prev_sign = d_sign
    return pos, neg, trace.null


def _eliminate(A, idx: list[int], order: Ring) -> PivotTrace:
    pivots = []
    prev = order.one
    while idx:
        piv, best = None, None
        for i in idx:
            d = A[i][i]
            if not order.is_zero(d):
                sz = order.size(d)
                if best is None or sz < best:
                    piv, best = i, sz
        if piv is None:
            pair = next(((i, j) for a_pos, i in enumerate(idx) for j in idx[a_pos + 1:]
                         if not order.is_zero(A[i][j])), None)
            if pair is None:
                return PivotTrace(tuple(pivots), len(idx))
            # congruence repair in place; the Bareiss scaling carries over
            i, j = pair
            c = A[i][j]
            cc = order.conj(c)
            for k in idx:
                A[i][k] = order.add(A[i][k], order.mul(c, A[j][k]))
            for k in idx:
                A[k][i] = order.add(A[k][i], order.mul(A[k][j], cc))
            continue

        pivots.append(order.real_part_only(A[piv][piv]))
        inv_prev = order.real_inverse(order.real_part_only(prev))
        rest = [i for i in idx if i != piv]
        dpair = A[piv][piv]
        for k in rest:
            aki = A[k][piv]
            if order.is_zero(aki):
                for m_ in rest:
                    if not order.is_zero(A[k][m_]):
                        A[k][m_] = order.divide_real(order.mul(dpair, A[k][m_]), inv_prev)
                continue
            for m_ in rest:
                t = order.sub(order.mul(dpair, A[k][m_]), order.mul(aki, A[piv][m_]))
                A[k][m_] = order.divide_real(t, inv_prev)
        idx = rest
        prev = dpair
    return PivotTrace(tuple(pivots), 0)


def signature_at_sample(V, z: Fraction) -> int:
    """Exact signature of (1-omega)V + (1-conj(omega))V^T at the unit-circle
    point with omega + conj(omega) = z, z rational in (-2, 2), off the roots
    of the Alexander polynomial.

    Raises SingularSampleError when the matrix is singular there (z hit a
    root of a symmetric factor).
    """
    if len(V) == 0:
        return 0
    order = IntPairOrder(z)
    pos, neg, null = signature_triple(order.hermitian_entries(V), order)
    if null:
        raise SingularSampleError(f"sample z = {z} is a root of the Alexander polynomial")
    sig = pos - neg
    assert sig % 2 == 0, "signature at a nonsingular point must be even"
    return sig


def signatures_at_roots(V, q, roots) -> list[tuple[int, int]]:
    """[(signature, nullity), ...] of the hermitian matrix at algebraic circle
    points, one per root, in the order given.

    q is the (irreducible, positive-leading) trace polynomial shared by the
    points and roots are isolating intervals of some of its roots in
    (-2, 2); the matrix may be singular there.  One elimination over the
    order of q serves every root; a rational root (deg q = 1) is eliminated
    over the int-pair ring.
    """
    if not roots:
        return []
    q = ip.trim(q)
    order = IntPairOrder(Fraction(-q[0], q[1])) if ip.degree(q) == 1 else ScaledOrder(q)
    trace = _eliminate(order.hermitian_entries(V), list(range(len(V))), order)
    return [(pos - neg, null)
            for pos, neg, null in (_trace_signs(trace, order, root) for root in roots)]


def signature_at_root(V, q, root: RealRoot) -> tuple[int, int]:
    """(signature, nullity) at one algebraic circle point; see signatures_at_roots."""
    return signatures_at_roots(V, q, [root])[0]


def symmetric_signature(M) -> tuple[int, int, int]:
    """(positive, negative, nullity) of an integer symmetric matrix.

    The kernel above over the int-pair ring, with every entry c as (c, 0).
    Elements with b = 0 are closed under add, sub, mul, conj and
    divide_real, and with b = 0 none of these reads zhat or l^2, so the ring
    is plain Z and the z chosen is irrelevant.  Used for the Murasugi
    signature at omega = -1 and for validating the knot table.
    """
    return signature_triple([[(c, 0) for c in row] for row in M], IntPairOrder(Fraction(0)))
