"""Exact signatures of hermitian forms attached to Seifert matrices.

For a point omega on the upper unit circle with 2*cos(angle) = z0 a root of
an integer polynomial q, the matrix (1-omega)V + (1-conj(omega))V^T is
hermitian over the field Q(omega).  There are two rings for it:

- ScaledOrder, for deg q >= 2.  Writing l = lc(q), zhat = l*z and
  what = l*omega, everything is scaled into the order

      Z[zhat, what] / (qhat(zhat), what^2 - zhat*what + l^2),

  whose involution fixes zhat and sends what to zhat - what.  Elements are
  pairs (a, b) of integer polynomials in zhat of degree less than deg q,
  meaning a + b*what; diagonal entries of hermitian matrices land in the
  real (involution-fixed) subring, and the sign of a real element at a
  root of q is decided by interval evaluation at an isolating interval of
  that root.
- IntPairOrder, for deg q = 1, that is a rational z = zhat/l (every plateau
  sample and every rational trace root).  With c = cot(angle/2),
  1 - omega = 2 sin^2(angle/2) (1 - i c), so the matrix is
  2 sin^2(angle/2) [(V + V^T) + i c (V^T - V)], and
  c^2 = (2 + z)/(2 - z) gives c = sqrt(D)/(2l - zhat) with
  D = 4l^2 - zhat^2 > 0.  Scaled by the positive (2l - zhat)/(2 sin^2),
  the matrix lies in Z[sqrt(-D)]: elements are int pairs (a, b) meaning
  a + b*sqrt(-D), a product has no term in zhat or l, conjugation negates
  b, and real elements are plain ints whose sign is the int's sign.  Where
  D is a perfect square, as at every plateau sample (z a rational point of
  the circle, signature._plateau_points), sqrt(D) moves into the entries
  and the ring is the Gaussian integers, D = 1.

Both rings offer the same operations, and one kernel runs over either: a
fraction-free (Bareiss) symmetric elimination whose divisions are exact in
the order, whose pivots are real, and whose step signs are
sign(d_s * d_{s-1}).  Every entry it computes in a step is one fused ring
call bareiss(d, x, a, y, t) = (d*x - a*y)/t with d and t real (t passed as
its real_inverse) and x possibly absent, and every rescale is one ring
call rescale(d, x, t) = d*x/t: IntPairOrder does both inline on ints, and
ScaledOrder reduces modulo qhat once per part, after the multiplication
by the inverse.  A final all-zero block is nullity.  When every active
diagonal entry vanishes but the block is nonzero, the congruence
row i += c*row j, column i += conj(c)*column j (c = A[i][j] != 0) makes
the pivot 2*c*conj(c) in place, after earlier pivots too: the active
entries are minors of the input bordered by the pivot rows and columns
(Sylvester's identity; Bareiss, Math. Comp. 22, 1968), linear in their row
and column, so the repair is that congruence on the input, and the later
exact divisions and the sign rule carry over.

The kernel is sparse.  Each active row is a dict of its nonzero entries,
each a pair (s, x) with s the step at which x was last computed.  Step
k + 1, with pivot p and pivot element d_{k+1}, takes the entry (r, m) to
(d_{k+1}*A[r][m] - A[r][p]*A[p][m]) / d_k, so where A[r][p] or A[p][m] is
zero it is only rescaled, by d_{k+1}/d_k.  These factors telescope: at
step k an entry that no pivot has met since step s is exactly (d_k/d_s) x,
and being a bordered minor, it stays in the order.  So a step rewrites
only the entries (r, m) with r and m in the support of the pivot row (by
hermitian symmetry, the rows with a nonzero entry in the pivot column);
every other entry keeps its stamp and is not touched.  An entry is brought
up to date only when it is read.  The pivot row is brought to step k, each
entry by one rescale(d_k, x, d_s).  The entry (r, m), stored as x at step
s, and a = A[r][p], stored at step t, are both brought to u, the later of
s and t (a once per u and row), and (d_{k+1}*x - a*A[p][m]) / d_u is one
bareiss.  The entry (m, r) is a bordered minor at the same step and the
conjugate of (r, m), so it is set to conj of it: a step computes only the
diagonal and one triangle.  A repair brings its rows i and j to step k,
and its column update A[r][i] += A[r][j]*conj(c) first brings the two
entries of row r to the later of their steps; both are untouched since
then, so the combination is the repaired entry at that step.  The inverse
of each d_t is made once, at the step after it, and kept.  Pivots have the
fewest nonzeros in their row, then the least index (minimum degree: Rose,
1972; George and Liu, Computer Solution of Large Sparse Positive Definite
Systems, 1981), so the work on a banded matrix stays near its band.  The
candidates sit in a list of (len(row), i), sorted and kept so with bisect,
over the rows with a nonzero diagonal entry: a step moves only the rows it
updates, and a repair rebuilds the list.  The rows themselves are built
from seifert.support of the block (hermitian_rows), each entry stamped 0,
so no step of a sample, the set-up included, scans a dense n x n grid.

The ring is per trace polynomial q, and so are the pivot choice, the
repair and every division; the embedding is per root of q.  So one
elimination per irreducible q records a sign-free PivotTrace, read at
each root (signatures_at_roots).

The plateau samples of one block nearly always share their pattern of
nonzeros, and with it their pivot order and ring calls: the kernel branches
only on whether a bareiss or add result is zero (a product, rescale or
conjugate of nonzero elements is nonzero, Z[sqrt(-D)] being a domain).  So
a block's sampler eliminates the first sample it is given over
plan.Recorder, an IntPairOrder whose elements carry the slot they were
written to, and which writes each ring call as one op (opcode and slots)
of a plan: symbolic analysis once, numeric factorisation per sample
(George and Liu 1981).  Each later sample replays the ops on ints
(plan.replay), with the exact-division and real-pivot asserts, and checks
that each bareiss and add result is zero exactly where it was when
recorded.  A replay that passes every check has made _eliminate's ring
calls, so it returns _eliminate's PivotTrace; at the first mismatch
(entries that cancel at that sample only, as in T(3,16) at z = 0) the
sample goes through _eliminate and the plan is kept, unless that is the
second fallback in a row.  A block with fewer than _PLAN_MIN_ROOTS
breakpoints of its own makes no plan, and no plan outlives its sampler.

Each function eliminates exactly the block it is given, in the sparse
format of SeifertMatrix.blocks.  Callers pass the connected blocks of a
Seifert matrix one at a time and add up the signatures.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt

from . import intpoly as ip
from .errors import SeifertInvariantError, SingularSampleError
from .seifert import support
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

    def mul(self, x: Pair, y: Pair) -> Pair:
        return tuple(map(self.reduce, self._mul(x, y)))

    def _mul(self, x: Pair, y: Pair) -> Pair:
        """x * y with both parts left unreduced modulo qhat."""
        a1, b1 = x
        a2, b2 = y
        bb = ip.mul(b1, b2)
        re = ip.sub(ip.mul(a1, a2), ip.scale(bb, self.e))
        im = ip.add(ip.add(ip.mul(a1, b2), ip.mul(a2, b1)), ip.shift(bb, 1))
        return re, im

    def bareiss(self, d, x, a: Pair, y: Pair, t) -> Pair:
        """(d*x - a*y)/t for real d, x a pair or None (zero), and t the
        real_inverse (num, den) of a real element; the division must be
        exact.  Reduction modulo qhat is a ring map, so the parts are
        reduced once, after the multiplication by num: d*x takes two
        polynomial products, a*y four."""
        re, im = self._mul(a, y)
        if x is None:
            re, im = ip.neg(re), ip.neg(im)
        else:
            re, im = ip.sub(ip.mul(d, x[0]), re), ip.sub(ip.mul(d, x[1]), im)
        num, den = t
        out = []
        for v in (re, im):
            if num != (1,):
                v = ip.mul(v, num)
            v = self.reduce(v)
            if den != 1:
                assert all(c % den == 0 for c in v), "inexact Bareiss division"
                v = tuple(c // den for c in v)
            out.append(v)
        return (out[0], out[1])

    def rescale(self, d, x: Pair, t) -> Pair:
        """d*x/t, as bareiss(d, x, 0, 0, t)."""
        return self.bareiss(d, x, self.zero, self.zero, t)

    def conj(self, x: Pair) -> Pair:
        a, b = x
        return (self.reduce(ip.add(a, ip.shift(b, 1))), ip.neg(b))

    # -- real (involution-fixed) elements --------------------------------

    def real_part_only(self, x: Pair):
        assert ip.is_zero(x[1]), "expected an involution-fixed element"
        return x[0]

    def real_sign(self, a, root: RealRoot) -> int:
        """Sign of a real element (an integer polynomial in zhat) at the
        embedding zhat = l*root, root a root of q; refines root as needed."""
        if ip.is_zero(a):
            return 0
        while True:
            lo, hi = ip.interval_eval(a, self.l * root.a, self.l * root.b, root.d)
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

    def entry(self, a: int, b: int) -> Pair:
        """The entry of hermitian_rows where B[i][j] = a and B[j][i] = b."""
        return (self.reduce(ip.trim((self.l * (a + b), -b))), ip.trim((b - a,)))


class IntPairOrder:
    """The ring Z[sqrt(-D)] above for a rational trace value z = zhat/l in
    (-2, 2) (deg q = 1).

    D = 4l^2 - zhat^2, and the entry (i, j) of the matrix, where V[i][j] = a
    and V[j][i] = b, is p(a + b) + s(b - a) sqrt(-D) for p = 2l - zhat and
    s = 1; where D is a perfect square, D is replaced by 1 and s by sqrt(D),
    and p and s are divided by their gcd.  An element is an int pair (a, b)
    meaning a + b*sqrt(-D), and its conjugate is (a, -b).  Real elements
    are plain ints and their sign at the (only) embedding is their own, so
    real_sign ignores its root.  Division by a real element needs no
    inverse: real_inverse hands the int back and bareiss divides exactly.
    """

    def __init__(self, z: Fraction):
        z = Fraction(z)
        if not -2 < z < 2:
            raise ValueError("sample must lie strictly inside (-2, 2)")
        self.z = z
        zhat, l = z.numerator, z.denominator
        D, p = 4 * l * l - zhat * zhat, 2 * l - zhat
        s = isqrt(D)
        if s * s == D:
            D, g = 1, gcd(p, s)
            p, s = p // g, s // g
        else:
            s = 1
        self.D, self.p, self.s = D, p, s
        self.zero = (0, 0)
        self.one = (1, 0)

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def mul(self, x, y):
        a1, b1 = x
        a2, b2 = y
        return (a1 * a2 - self.D * b1 * b2, a1 * b2 + a2 * b1)

    def conj(self, x):
        return (x[0], -x[1])

    def real_part_only(self, x) -> int:
        assert x[1] == 0, "expected an involution-fixed element"
        return x[0]

    def real_sign(self, a: int, root=None) -> int:
        return (a > 0) - (a < 0)

    def real_inverse(self, d: int) -> int:
        return d

    def bareiss(self, d: int, x, a, y, t: int):
        """(d*x - a*y)/t for ints d and t != 0, x a pair or None (zero);
        the division must be exact."""
        a0, a1 = a
        y0, y1 = y
        re = a0 * y0 - self.D * a1 * y1
        im = a0 * y1 + a1 * y0
        if x is None:
            re, im = -re, -im
        else:
            re, im = d * x[0] - re, d * x[1] - im
        re, r_re = divmod(re, t)
        im, r_im = divmod(im, t)
        assert not (r_re or r_im), "inexact Bareiss division"
        return (re, im)

    def rescale(self, d: int, x, t: int):
        """d*x/t for ints d and t != 0; the division must be exact."""
        re, r_re = divmod(d * x[0], t)
        im, r_im = divmod(d * x[1], t)
        assert not (r_re or r_im), "inexact Bareiss division"
        return (re, im)

    def entry(self, a: int, b: int):
        """The entry of hermitian_rows where B[i][j] = a and B[j][i] = b."""
        return (self.p * (a + b), self.s * (b - a))


Ring = ScaledOrder | IntPairOrder


def hermitian_rows(B, order) -> dict:
    """The hermitian matrix of the block B over the order (module
    docstring), as sparse rows {i: {j: (0, entry)}} of its nonzero entries
    stamped 0 (see _eliminate): order.entry(a, b) at each (i, j, a, b) of
    seifert.support(B).

    The entry is nonzero exactly on that support, where a or b is nonzero.
    Over IntPairOrder it is (p(a + b), s(b - a)) with p, s > 0, zero only
    for a + b = b - a = 0.  Over ScaledOrder it is
    l(a + b) - b zhat + (b - a) what: its part at what is b - a, and where
    that vanishes, the rest is (2 l - zhat) a with |zhat| < 2 l.  Either
    matrix is a positive multiple of the form, with its signature.
    """
    rows = {i: {} for i in range(len(B))}
    entry = order.entry
    for i, j, a, b in support(B):
        rows[i][j] = (0, entry(a, b))
    return rows


PivotTrace = namedtuple("PivotTrace", "pivots null")
PivotTrace.__doc__ = """What a fraction-free elimination leaves once signs are set aside.

A named tuple (pivots, null): pivots are the real pivot elements d_1, d_2,
... in order, repaired ones included, and null the size of the final
all-zero block.
"""


def signature_triple(rows: dict, order: Ring) -> tuple[int, int, int]:
    """(positive, negative, nullity) of a hermitian matrix over the order,
    given as sparse rows {i: {j: (0, entry)}} of its nonzero entries (as
    hermitian_rows makes them), which the elimination consumes."""
    return _trace_signs(_eliminate(rows, order), order)


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


def _eliminate(rows: dict, order: Ring) -> PivotTrace:
    """The sparse fraction-free elimination (module docstring) of the
    hermitian matrix with sparse rows {i: {j: (s, entry)}}, stamps s = 0,
    which it consumes.

    Both rings keep their elements canonical, so an element is zero exactly
    when it equals order.zero.
    """
    bareiss, rescale, conj, zero = order.bareiss, order.rescale, order.conj, order.zero
    d, inv, pivots = [order.real_part_only(order.one)], [], []  # inv[t]: real_inverse of d[t]
    queue = sorted((len(row), i) for i, row in rows.items() if i in row)

    def catch_up(i, k):
        # every entry of row i brought to step k
        row = rows[i]
        dk = d[k]
        for j, (s, x) in row.items():
            if s != k:
                row[j] = (k, rescale(dk, x, inv[s]))
        return row

    while rows:
        k = len(pivots)
        if not queue:
            i = min((i for i, row in rows.items() if row), default=None)
            if i is None:
                return PivotTrace(tuple(pivots), len(rows))
            # congruence repair in place: rows i and j are brought to step k,
            # then column i += conj(c) * column j combines two entries of
            # row r, first brought to the later of their two steps
            j = min(rows[i])
            row_i, row_j = catch_up(i, k), catch_up(j, k)
            c = row_i[j][1]
            cc = conj(c)
            for m, (_, x) in row_j.items():
                _put(row_i, m, order.add(row_i.get(m, (k, zero))[1], order.mul(c, x)), k, zero)
            for r in row_j:
                row_r = rows[r]
                u, y = row_r[j]
                s, x = row_r.get(i, (u, zero))
                if s < u:
                    x = rescale(d[u], x, inv[s])
                elif u < s:
                    y, u = rescale(d[s], y, inv[u]), s
                _put(row_r, i, order.add(x, order.mul(y, cc)), u, zero)
            queue = sorted((len(row), r) for r, row in rows.items() if r in row)
            continue

        p = queue.pop(0)[1]
        inv.append(order.real_inverse(d[k]))
        # row p brought to step k: the pivot, and (m, row_m, entry) for the
        # rows m that meet it
        row_p, dk = rows.pop(p), d[k]
        cols = []
        for m, (s, y) in row_p.items():
            if s != k:
                y = rescale(dk, y, inv[s])
            if m == p:
                dp = order.real_part_only(y)
            else:
                x = rows[m]
                cols.append((m, x, y))
                if m in x:
                    del queue[bisect_left(queue, (len(x), m))]
        pivots.append(dp)
        d.append(dp)
        # row r meets the pivot with a = its entry in column p, stored at
        # step t: the Bareiss step of entry (r, m), stored as x at step s, is
        # (dp * x - a * row_p[m]) / d_u once x and a are brought to u, the
        # later of s and t.  Entries off the columns of row_p keep their
        # stamps.  (m, r) is the conjugate of (r, m), so only the diagonal
        # and one triangle are computed, and both get the stamp k + 1.  The
        # queue keeps (len(row), r) for the rows with a nonzero diagonal.
        k += 1
        for n, (r, x, _) in enumerate(cols):
            t, a = x.pop(p)
            inv_t, at = inv[t], {}  # at[s]: a brought to step s > t
            for m, row_m, y in cols[n:]:
                e = x.get(m)
                if e is None:
                    v = bareiss(dp, None, a, y, inv_t)
                else:
                    s, v = e
                    if s == t:
                        v = bareiss(dp, v, a, y, inv_t)
                    elif s < t:
                        v = bareiss(dp, rescale(d[t], v, inv[s]), a, y, inv_t)
                    else:
                        a_s = at.get(s)
                        if a_s is None:
                            a_s = at[s] = rescale(d[s], a, inv_t)
                        v = bareiss(dp, v, a_s, y, inv[s])
                if v != zero:
                    x[m] = (k, v)
                    if m != r:
                        row_m[r] = (k, conj(v))
                elif e is not None:
                    del x[m]
                    if m != r:
                        del row_m[r]
        for r, x, _ in cols:
            if r in x:
                insort(queue, (len(x), r))
    return PivotTrace(tuple(pivots), 0)


def _put(row: dict, m, x, s, zero) -> None:
    """Store x at column m of a sparse row with stamp s, or drop the entry
    if x is zero."""
    if x == zero:
        row.pop(m, None)
    else:
        row[m] = (s, x)


# A block makes a plan only from this many breakpoints of its own on.  Its
# walk (signature._walk) evaluates at most one sample more than that, and
# often fewer, so the rule reads the roots, not the samples.  In-process,
# recording costs about 1.7 eliminations of the sample and a replay about
# 0.6, and a fresh process also compiles knotsig.plan first (~1.7 ms).
_PLAN_MIN_ROOTS = 3
# A plan is dropped after this many fallbacks in a row: where the block's
# entries keep cancelling, a replay that stops part way only adds to the
# _eliminate run after it.
_PLAN_MAX_MISSES = 2


def sampler(V, roots: int):
    """The function z -> exact signature of (1-omega)V + (1-conj(omega))V^T
    at the unit-circle point with omega + conj(omega) = z, for z rational in
    (-2, 2) and off the roots of the Alexander polynomial; roots is the
    number of breakpoints of V's own (circle roots of its Alexander
    polynomial) that the caller walks across.

    With roots >= _PLAN_MIN_ROOTS, the first sample it is called at is
    eliminated over a plan.Recorder and every later one replays its plan,
    or goes through _eliminate where the replay finds another zero
    pattern.  After _PLAN_MAX_MISSES such fallbacks in a row the plan is
    dropped and later samples go through _eliminate.  The plan lives as
    long as the function.

    The function raises SingularSampleError when the matrix is singular at
    its sample (z hit a root of a symmetric factor).
    """
    if len(V) == 0:
        return lambda z: 0
    planned = roots >= _PLAN_MIN_ROOTS
    if planned:
        from .plan import record, replay
    plan, misses = None, 0

    def signature_at(z) -> int:
        nonlocal planned, plan, misses
        order = IntPairOrder(z)
        trace = None
        if plan is not None:
            trace = replay(plan, order)
            misses = 0 if trace is not None else misses + 1
            if misses == _PLAN_MAX_MISSES:
                plan = None
        elif planned:
            trace, plan = record(V, order)
            planned = False
        if trace is None:
            trace = _eliminate(hermitian_rows(V, order), order)
        pos, neg, null = _trace_signs(trace, order)
        if null:
            raise SingularSampleError(f"sample z = {z} is a root of the Alexander polynomial")
        sig = pos - neg
        assert sig % 2 == 0, "signature at a nonsingular point must be even"
        return sig

    return signature_at


def signatures_at_samples(V, samples) -> list[int]:
    """The sampler's signatures at every z in samples, in order: the
    plateau samples of a walk across len(samples) - 1 roots."""
    at = sampler(V, len(samples) - 1)
    return [at(z) for z in samples]


def signature_at_sample(V, z: Fraction) -> int:
    """Exact signature at one sample; see signatures_at_samples."""
    return signatures_at_samples(V, [z])[0]


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
    trace = _eliminate(hermitian_rows(V, order), order)
    return [(pos - neg, null)
            for pos, neg, null in (_trace_signs(trace, order, root) for root in roots)]


def signature_at_root(V, q, root: RealRoot) -> tuple[int, int]:
    """(signature, nullity) at one algebraic circle point; see signatures_at_roots."""
    return signatures_at_roots(V, q, [root])[0]


def symmetric_signature(B) -> tuple[int, int, int]:
    """(positive, negative, nullity) of the integer symmetric matrix
    B + B^T for a block B; for a symmetric B these are B's own, as 2B has
    the signature of B.

    The kernel above over the int-pair ring, with every entry c as (c, 0).
    Elements with b = 0 are closed under add, mul, conj and bareiss, and
    with b = 0 none of these reads D, so the ring is plain Z and the z
    chosen is irrelevant.  Used for the Murasugi signature at
    omega = -1 and for validating the knot table.
    """
    rows = {i: {} for i in range(len(B))}
    for i, j, a, b in support(B):
        if a + b:
            rows[i][j] = (0, (a + b, 0))
    return signature_triple(rows, IntPairOrder(Fraction(0)))


def murasugi_signature(V) -> int:
    """The classical signature sigma(-1): the signature of V + V^T, summed
    over the blocks."""
    total = 0
    for B in V.blocks:
        pos, neg, null = symmetric_signature(B)
        if null:
            raise SeifertInvariantError("V + V^T is singular; not a knot Seifert matrix")
        total += pos - neg
    return total
