"""Seifert matrices: validation, mirror, connected sum, Alexander polynomial.

A Seifert matrix is a square integer matrix V of even size with
det(V - V^T) = 1; the empty 0x0 matrix is the unknot.  A matrix given whole
(table, JSON file, braid) is split once, on construction, into connected
blocks on the union of the supports of V and V^T, and each block is
checked.  Connected sums are block sums, so a sum takes its blocks from
its checked summands and a mirror -V^T has the blocks -B^T: neither is
checked again, and its padded rows are built only when first read.
det(V - V^T) and the Alexander polynomial det(V - x V^T) are products over
the blocks, each distinct block polynomial computed exactly as a
characteristic polynomial and a Taylor shift modulo one proven prime just
above twice a Hadamard bound, by a Krylov pass on vectors packed one per
int (see _det_poly).
"""

from __future__ import annotations

from math import isqrt, prod
from operator import index

from .errors import ParityError, SeifertInvariantError, SymmetryError


class SeifertMatrix:
    """Immutable integer Seifert matrix; blocks holds the matrices (tuples of
    rows) of its connected blocks, in the order of connected_blocks.

    SeifertMatrix(rows) checks its input.  connected_sum and mirror build
    their results from checked parts without checking again, and a sum
    builds its padded rows on first read.
    """

    __slots__ = ("_rows", "_parts", "blocks", "size")

    def __init__(self, rows):
        rows = tuple(tuple(map(_entry, row)) for row in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise SeifertInvariantError("matrix is not square")
        if n % 2 != 0:
            raise SeifertInvariantError(f"size {n} is odd; Seifert matrices have even size")
        blocks = tuple(tuple(tuple(rows[i][j] for j in block) for i in block)
                       for block in connected_blocks(rows))
        self._set(rows, None, blocks, n)
        d = prod(_int_det([[B[i][j] - B[j][i] for j in range(len(B))] for i in range(len(B))])
                 for B in blocks)
        if d != 1:
            raise SeifertInvariantError(f"det(V - V^T) = {d}, expected 1")

    def _set(self, rows, parts, blocks, size) -> "SeifertMatrix":
        object.__setattr__(self, "_rows", rows)  # None for a sum until first read
        object.__setattr__(self, "_parts", parts)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "size", size)
        return self

    def __setattr__(self, *a):
        raise AttributeError("SeifertMatrix is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return SeifertMatrix, (self.rows,)

    @classmethod
    def empty(cls) -> "SeifertMatrix":
        return cls(())

    @property
    def rows(self) -> tuple:
        """The n x n rows; a sum pads its parts' rows on first read."""
        rows = self._rows
        if rows is None:
            n, rows, left = self.size, [], 0
            for a in self._parts:
                right = n - left - a.size
                rows += [(0,) * left + r + (0,) * right for r in a.rows]
                left += a.size
            rows = tuple(rows)
            object.__setattr__(self, "_rows", rows)
        return rows

    @property
    def genus(self) -> int:
        return self.size // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, SeifertMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"SeifertMatrix({[list(r) for r in self.rows]})"

    def mirror(self) -> "SeifertMatrix":
        """-V^T, a Seifert matrix of the mirror image: the sum of the parts'
        mirrors, or with the blocks -B^T; det(B - B^T) is unchanged."""
        if self._parts is not None:
            return connected_sum(*(a.mirror() for a in self._parts))
        return object.__new__(SeifertMatrix)._set(
            _neg_transpose(self._rows), None, tuple(map(_neg_transpose, self.blocks)), self.size)


def _neg_transpose(rows) -> tuple:
    return tuple(tuple(-c for c in col) for col in zip(*rows))


def _entry(c) -> int:
    try:
        return index(c)
    except TypeError:
        raise SeifertInvariantError(f"matrix entry {c!r} is not an integer") from None


def connected_blocks(V) -> list[list[int]]:
    """Index sets of the connected components of the union of the supports
    of V and V^T, each sorted, in the order of their smallest index.

    Not the support of V + V^T: V[i][j] = 1 and V[j][i] = -1 cancel there
    but still link i and j in V - x V^T.
    """
    todo, blocks = set(range(len(V))), []
    while todo:
        stack = [min(todo)]
        comp = set(stack)
        while stack:
            i = stack.pop()
            linked = {j for j in todo - comp if V[i][j] or V[j][i]}
            comp |= linked
            stack += linked
        todo -= comp
        blocks.append(sorted(comp))
    return blocks


def connected_sum(*summands: SeifertMatrix) -> SeifertMatrix:
    """Block sum of the summands in order; realizes the connected sum of the
    underlying knots (of none, the unknot).  The summands are checked, so the
    sum is not checked again: its blocks are theirs, concatenated."""
    return object.__new__(SeifertMatrix)._set(None, summands,
                                              tuple(B for a in summands for B in a.blocks),
                                              sum(a.size for a in summands))


def mirror(a: SeifertMatrix) -> SeifertMatrix:
    return a.mirror()


def stabilize(a: SeifertMatrix) -> SeifertMatrix:
    """Add a trivial hyperbolic 2x2 block (used to test stability invariance)."""
    n = a.size
    rows = [list(r) + [0, 0] for r in a.rows]
    rows.append([0] * n + [0, 1])
    rows.append([0] * n + [0, 0])
    return SeifertMatrix(rows)


def _int_det(M) -> int:
    """Exact integer determinant (fraction-free Bareiss): the validation
    det(V - V^T) = 1, and the tests' reference values for _det_poly.

    Step k + 1 takes row i to (d_{k+1} * row_i - A[i][k] * row_k) / d_k, so
    a row whose column-k entry is 0 is only rescaled, by d_{k+1}/d_k.  These
    factors telescope, so such a row is not touched: it keeps the step t at
    which it was last updated, and is brought up by d_k/d_t only when it
    becomes the pivot row (swapped in or not), or when it next meets a
    pivot, in the one pass (d_{k+1} * row_i - A[i][k] * row_k) / d_t.
    """
    n = len(M)
    if n == 0:
        return 1
    A = [list(map(int, row)) for row in M]
    stamp, d, sign = [0] * n, [1], 1
    for k in range(n):
        if A[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if piv is None:
                return 0
            A[k], A[piv] = A[piv], A[k]
            stamp[k], stamp[piv] = stamp[piv], stamp[k]
            sign = -sign
        row_k, t = A[k], stamp[k]
        if t != k:
            dk, dt = d[k], d[t]
            row_k[k:] = [x * dk // dt for x in row_k[k:]]
        dp = row_k[k]
        d.append(dp)
        for i in range(k + 1, n):
            row = A[i]
            a = row[k]
            if a:
                dt = d[stamp[i]]
                row[k + 1:] = [(dp * x - a * y) // dt for x, y in zip(row[k + 1:], row_k[k + 1:])]
                stamp[i] = k + 1
    return sign * d[n]


def block_alexander_polynomials(V: SeifertMatrix) -> list[tuple]:
    """det(B - x B^T) for each block B in V.blocks, unnormalized (see
    _det_poly), computed once per distinct block."""
    polys: dict = {}
    for B in V.blocks:
        if B not in polys:
            polys[B] = _det_poly(B)
    return [polys[B] for B in V.blocks]


def alexander_polynomial(V: SeifertMatrix) -> tuple:
    """det(V - x V^T), normalized symmetric with value 1 at x = 1 (see
    normalize_alexander): the product of the block polynomials.  The tuple d
    holds the coefficients of x^low .. x^-low in ascending order,
    low = -(len(d) - 1) // 2."""
    from . import intpoly as ip  # polynomials only: validation needs no intpoly

    total = (1,)
    for p in block_alexander_polynomials(V):
        total = ip.mul(total, p)
    return normalize_alexander(total)


def normalize_alexander(p) -> tuple:
    """The canonical symmetric representative with value 1 at x = 1.

    Input may be any unit multiple +-x^k p, as an ascending tuple from x^0;
    the result is palindromic of even degree 2m with p(1) = 1, which pins
    the representative uniquely, and stands for x^-m times that tuple.
    """
    from . import intpoly as ip  # polynomials only: validation needs no intpoly

    p = ip.trim(p)
    k = 0
    while k < len(p) and p[k] == 0:
        k += 1
    p = p[k:]  # drop the factor x^k
    if ip.is_zero(p):
        raise ValueError("Alexander polynomial cannot be zero")
    rev = p[::-1]
    if rev != p and rev != ip.neg(p):
        raise SymmetryError("not symmetric up to units")
    if ip.degree(p) % 2 != 0:
        raise ParityError("Alexander polynomial must have even span")
    at1 = sum(p)
    if abs(at1) != 1:
        raise ValueError(f"p(1) = {at1}, expected a unit (is this det(V - xV^T)?)")
    return p if at1 > 0 else ip.neg(p)


def _det_poly(M) -> tuple:
    """det(M - x M^T) as an ascending tuple from x^0, trailing zeros
    trimmed and leading ones kept (det M = 0 gives a leading 0), for a
    square integer M with det(M - M^T) = 1.

    With D = M - M^T the matrix B = D^-1 M^T has integer entries, and
    M - x M^T = D (I - (x - 1) B), so det(M - x M^T) = sum_k chi_k (x - 1)^(n-k)
    where chi = det(lambda I - B) in ascending coefficients: one
    characteristic polynomial and one Taylor shift.  Both are computed in
    one pass modulo a single prime p (_det_poly_mod) on vectors packed one
    per int (gfmat.Slots): solve D B = M^T (gfmat.solve), reduce B^T to
    Hessenberg form by Krylov (gfmat.hessenberg), read chi off the
    Hessenberg recurrence (gfmat.charpoly), then substitute y = x - 1.  B^T has the characteristic
    polynomial of B, since det(lambda I - B^T) is the determinant of the
    transpose of lambda I - B.  Slots are wide enough that no sum between
    two reductions carries into the next slot, and a Krylov basis that
    closes an invariant subspace early restarts at a unit vector, leaving a
    zero on the subdiagonal of H.  The pass takes O(n^2) big-integer
    operations (the LU-Krylov characteristic polynomial of Dumas, Pernet
    and Wan, ISSAC 2005).

    On |x| = 1 every entry of column j of M - x M^T is at most the entry of
    |M| + |M^T| in absolute value, so by Hadamard |det(M - x M^T)| <= H, the
    product over j of the ceiling of the 2-norm of column j of |M| + |M^T|,
    and every coefficient, a mean of the polynomial over the circle, is at
    most H too.  p is a Proth prime k 2^m + 1 with small k and m the bit
    length of 2 H (_prime), so p > 2 H: the coefficients lie in [-H, H], an
    interval shorter than p, and the residue in the symmetric range
    (-p/2, p/2] is the coefficient itself.  One pass modulo a prime just
    above 2 H costs less than the several word-size passes and the CRT
    that would reach the same modulus.
    """
    from . import intpoly as ip  # polynomials only: validation needs no intpoly

    n = len(M)
    bound = 1
    for j in range(n):
        s = sum((abs(M[i][j]) + abs(M[j][i])) ** 2 for i in range(n))
        r = isqrt(s)
        bound *= r if r * r == s else r + 1
    p = _prime((2 * bound).bit_length())
    half = p // 2
    return ip.trim(c - p if c > half else c for c in _det_poly_mod(M, p))


def _det_poly_mod(M, p: int) -> list:
    """The n + 1 ascending coefficients of det(M - x M^T) mod p (see _det_poly)."""
    from . import gfmat  # only block polynomials need it, not validation

    n = len(M)
    S = gfmat.Slots(p, n)
    det, B = gfmat.solve(M, S)
    if det != 1:
        raise SeifertInvariantError("det(M - M^T) is not 1")
    chi = S.unpack(gfmat.charpoly(gfmat.hessenberg(B, S), S), n + 1)
    # det(M - x M^T) = g(x - 1) with g(y) = sum_k chi_k y^(n-k): Horner in x - 1
    out = [0] * (n + 1)
    for g in chi:  # g is the coefficient of y^(n-k)
        for j in range(n, 0, -1):
            out[j] = (out[j - 1] - out[j]) % p
        out[0] = (g - out[0]) % p
    return out


# the odd primes below 256, a sieve for the candidates of _prime and the
# bases of its Proth test: Fermat's test to base 2 is exact below 341
_SMALL_PRIMES = tuple(q for q in range(3, 256, 2) if pow(2, q - 1, q) == 1)
_PROTH: dict = {}  # m -> _prime(m)


def _prime(m: int) -> int:
    """A prime p = k 2^m + 1 with k odd and k < 2^m, for m >= 2: the one
    with the least k that a base a < 256 proves prime.

    Proth's theorem (1878): such a p is prime if a^((p-1)/2) = -1 mod p for
    some a.  For a prime p every quadratic nonresidue a is such a witness,
    and by Euler's criterion a^((p-1)/2) is 1 or -1 for every 0 < a < p, so
    any other value proves p composite.  Candidates divisible by a small
    prime q < 2^m < p are skipped first, and p is cached per m.
    """
    p = _PROTH.get(m)
    if p is not None:
        return p
    step = 1 << m
    # q divides k 2^m + 1 exactly when k = -2^-m mod q
    sieve = [(q, -pow(step, -1, q) % q) for q in _SMALL_PRIMES if q < step]
    for k in range(1, step, 2):
        if any(k % q == r for q, r in sieve):
            continue
        p = k * step + 1
        for a in _SMALL_PRIMES:
            if a >= p:
                break
            x = pow(a, p >> 1, p)
            if x == p - 1:
                _PROTH[m] = p
                return p
            if x != 1:
                break
    raise AssertionError(f"no Proth prime k 2^{m} + 1 with k < 2^{m} found")


def murasugi_signature(V: SeifertMatrix) -> int:
    """The classical signature sigma(-1): the signature of V + V^T, summed
    over the blocks."""
    from .hermitian import symmetric_signature  # signatures only, not validation

    total = 0
    for B in V.blocks:
        pos, neg, null = symmetric_signature([[B[i][j] + B[j][i] for j in range(len(B))]
                                              for i in range(len(B))])
        if null:
            raise SeifertInvariantError("V + V^T is singular; not a knot Seifert matrix")
        total += pos - neg
    return total
