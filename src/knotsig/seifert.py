"""Seifert matrices: validation, mirror, connected sum, Alexander polynomial.

A Seifert matrix is a square integer matrix V of even size with
det(V - V^T) = 1; the empty 0x0 matrix is the unknot.  The Alexander
polynomial det(V - x V^T) is computed exactly by evaluation at integer
points and Newton interpolation, block by block on the connected
components of the support of V + V^T (connected sums are block sums, so
this keeps the determinants small).
"""

from __future__ import annotations

from .errors import SeifertInvariantError
from .hermitian import connected_blocks, symmetric_signature
from .laurent import LaurentPoly, normalize_alexander


class SeifertMatrix:
    """Immutable integer Seifert matrix."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(int(c) for c in row) for row in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise SeifertInvariantError("matrix is not square")
        if n % 2 != 0:
            raise SeifertInvariantError(f"size {n} is odd; Seifert matrices have even size")
        object.__setattr__(self, "rows", rows)
        d = _int_det([[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)])
        if d != 1:
            raise SeifertInvariantError(f"det(V - V^T) = {d}, expected 1")

    def __setattr__(self, *a):
        raise AttributeError("SeifertMatrix is immutable")

    @classmethod
    def empty(cls) -> "SeifertMatrix":
        return cls(())

    @property
    def size(self) -> int:
        return len(self.rows)

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
        """-V^T, a Seifert matrix of the mirror image."""
        n = self.size
        return SeifertMatrix(tuple(tuple(-self.rows[j][i] for j in range(n))
                                   for i in range(n)))


def connected_sum(a: SeifertMatrix, b: SeifertMatrix) -> SeifertMatrix:
    """Block sum; realizes the connected sum of the underlying knots."""
    n, m = a.size, b.size
    rows = [[0] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = a.rows[i][j]
    for i in range(m):
        for j in range(m):
            rows[n + i][n + j] = b.rows[i][j]
    return SeifertMatrix(rows)


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
    """Exact integer determinant (fraction-free Bareiss)."""
    n = len(M)
    if n == 0:
        return 1
    A = [list(map(int, row)) for row in M]
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if piv is None:
                return 0
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[k][k] * A[i][j] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def block_alexander_polynomials(V: SeifertMatrix) -> list[LaurentPoly]:
    """det(V_B - x V_B^T) for each connected block B of V, in the order of
    connected_blocks, unnormalized."""
    return [_det_poly([[V.rows[i][j] for j in block] for i in block])
            for block in connected_blocks(V.rows)]


def alexander_polynomial(V: SeifertMatrix) -> LaurentPoly:
    """det(V - x V^T), normalized symmetric with value 1 at x = 1: the
    product of the block polynomials."""
    total = LaurentPoly.one()
    for p in block_alexander_polynomials(V):
        total = total * p
    return normalize_alexander(total)


def _det_poly(M) -> LaurentPoly:
    """det(M - x M^T) by evaluation-interpolation, as a LaurentPoly."""
    n = len(M)
    x0 = -(n // 2)
    vals = [_int_det([[M[i][j] - x * M[j][i] for j in range(n)] for i in range(n)])
            for x in range(x0, x0 + n + 1)]
    return LaurentPoly(0, _interpolate(x0, vals))


def _interpolate(x0: int, vals) -> tuple:
    """Ascending integer coefficients of the polynomial of degree < len(vals)
    with integer coefficients taking vals[k] at x = x0 + k.

    Newton's form at consecutive integers: the k-th divided difference is the
    k-th forward difference over k!, built one level (division by k) at a
    time.  Each division is exact for integer-coefficient polynomials,
    because divided differences of x^d at integer points are integers.
    The Newton form is then expanded by Horner in O(n^2) integer steps.
    """
    c = list(vals)
    n = len(c)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            d, r = divmod(c[i] - c[i - 1], k)
            assert r == 0, "values are not those of an integer polynomial"
            c[i] = d
    coeffs = [0] * n
    for k in range(n - 1, -1, -1):
        # coeffs <- coeffs * (x - (x0 + k)) + c[k]
        root = x0 + k
        for j in range(n - 1, 0, -1):
            coeffs[j] = coeffs[j - 1] - root * coeffs[j]
        coeffs[0] = c[k] - root * coeffs[0]
    return tuple(coeffs)


def murasugi_signature(V: SeifertMatrix) -> int:
    """The classical signature sigma(-1): the signature of V + V^T."""
    n = V.size
    if n == 0:
        return 0
    M = [[V.rows[i][j] + V.rows[j][i] for j in range(n)] for i in range(n)]
    pos, neg, null = symmetric_signature(M)
    if null:
        raise SeifertInvariantError("V + V^T is singular; not a knot Seifert matrix")
    return pos - neg
