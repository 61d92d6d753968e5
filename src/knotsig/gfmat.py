"""The Alexander polynomial of a Seifert matrix, exactly.

alexander_polynomial normalizes (normalize_alexander) the product of the
block polynomials det(B - x B^T), one per distinct block
(block_alexander_polynomials).  Each is a characteristic polynomial and a
Taylor shift modulo one proven prime just above twice a Hadamard bound
(_det_poly), by linear algebra over F_p on vectors packed one per int
(Slots, solve, hessenberg, charpoly).  Each block comes in the sparse
format of SeifertMatrix.blocks and is read through seifert.support.

Validating a Seifert matrix needs none of this: seifert imports this
module only inside its alexander_polynomial and normalize_alexander
wrappers, and signature for the step function's block polynomials.
"""

from __future__ import annotations

from math import isqrt

from . import intpoly as ip
from .errors import ParityError, SeifertInvariantError, SymmetryError
from .seifert import support


class Slots:
    """Vectors over F_p, at most n + 1 long, packed into ints: slot j, w = 8 nb
    bits wide, holds coordinate j (Dumas, Fousse and Salvy, J. Symb. Comput.
    46, 2011), so a multiply-add, a scalar multiple or a slot read is one
    big-integer operation instead of n scalar ones.

    Subtracting c v is adding (p - c) v, so slots stay nonnegative and never
    carry.  Every slot is reduced to [0, p) before it is multiplied, and
    between reductions it sums at most 2n terms below p^2 (the n rows of B
    in B^T x and n eliminations in hessenberg, fewer in solve and
    charpoly).  So w, the bit length of (2n + 2) p^2 plus one, rounded up
    to whole bytes, keeps every slot below 2^(w-1), as reduce needs.
    """

    __slots__ = ("p", "nb", "w", "m", "even", "ones", "bias")

    def __init__(self, p: int, n: int):
        self.p = p
        self.nb = nb = (((2 * n + 2) * p * p).bit_length() + 8) // 8
        self.w = w = 8 * nb
        self.m = (1 << w) // p
        self.even = int.from_bytes((b"\xff" * nb + bytes(nb)) * (n // 2 + 1), "little")
        self.ones = int.from_bytes((b"\x01" + bytes(nb - 1)) * (n + 1), "little")
        self.bias = self.ones * ((1 << w - 1) - p)  # r + bias reaches 2^(w-1) iff r >= p

    def unpack(self, x: int, k: int) -> list:
        nb = self.nb
        b = x.to_bytes(k * nb, "little")
        return [int.from_bytes(b[i:i + nb], "little") for i in range(0, k * nb, nb)]

    def reduce(self, x: int) -> int:
        """Every slot of x mod p, for slots below 2^(w-1), in O(1) big-integer
        operations: the Barrett quotient of each slot, taken for the even and
        the odd slots apart so that each product has 2w bits of room, is q or
        q - 1, and one conditional p per slot fixes the rest."""
        p, w, m, even = self.p, self.w, self.m, self.even
        q = ((x & even) * m >> w & even) + (((x >> w & even) * m >> w & even) << w)
        r = x - p * q  # slots in [0, 2p)
        return r - p * ((r + self.bias) >> w - 1 & self.ones)


def solve(M, S: Slots) -> tuple:
    """(det D, the packed rows of B = D^-1 M^T) mod p for the block M and
    D = M - M^T, rows reduced; (0, None) when D is singular mod p.

    Forward elimination on [D | M^T], then back substitution: the D half
    as sparse rows {column: entry} (banded D stays banded), the M^T half
    one packed int per row, both read off seifert.support.
    """
    n, p, w = len(M), S.p, S.w
    D, R = [{} for _ in range(n)], [0] * n
    for i, j, a, b in support(M):
        if a != b:
            D[i][j] = (a - b) % p
        if b:
            R[i] += b % p << j * w
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if D[i].get(c)), None)
        if piv is None:
            return 0, None
        if piv != c:
            D[c], D[piv], R[c], R[piv] = D[piv], D[c], R[piv], R[c]
            det = -det
        d = D[c].pop(c)
        det = det * d % p
        inv = pow(d, -1, p)
        # the pivot row, scaled to a unit pivot and reduced: every axpy
        # below adds less than p^2 to a slot
        Dc = D[c] = {j: v * inv % p for j, v in D[c].items() if v}
        Rc = R[c] = S.reduce(S.reduce(R[c]) * inv)
        for i in range(c + 1, n):
            u = D[i].pop(c, 0)
            if u:
                Di = D[i]
                for j, v in Dc.items():
                    Di[j] = (Di.get(j, 0) - u * v) % p
                R[i] += (p - u) * Rc
    for i in reversed(range(n)):  # row i of B is R_i - sum_(j>i) D_ij B_j
        if D[i]:
            R[i] = S.reduce(R[i] + sum((p - v) * R[j] for j, v in D[i].items() if v))
    return det, R


def hessenberg(B, S: Slots) -> list:
    """An upper Hessenberg H with B^T X = X H for an invertible X, from the
    packed rows of B, as columns: H[k] holds rows 0 .. k + 1 of column k
    (rows 0 .. k for the last).

    Column k of X is x_k, zero at the pivot coordinates of x_0 .. x_(k-1)
    and 1 at its own.  B^T x_k is the sum of the rows of B weighted by the
    coordinates of x_k; eliminating it against x_0 .. x_k at their pivots
    leaves H[k+1][k] x_(k+1), its first nonzero coordinate the next pivot.
    A zero remainder closes an invariant subspace, as it does early for a
    block congruent to a sum of equal blocks (B then has a minimal
    polynomial of lower degree): H[k+1][k] = 0, where the recurrence of
    charpoly stops, and x_(k+1) is the least unit vector that is not a
    pivot yet.
    """
    n, p, w = len(B), S.p, S.w
    mask = (1 << w) - 1
    H, X, pivots = [], [1], [0]
    for k in range(n):
        y = sum(c * B[j] for j, c in enumerate(S.unpack(X[k], n)) if c)
        col = []
        for i, t in enumerate(pivots):
            h = (y >> t * w & mask) % p
            col.append(h)
            if h:
                y += (p - h) * X[i]
        H.append(col)
        if k == n - 1:
            return H
        y = S.reduce(y)
        if y:
            t = ((y & -y).bit_length() - 1) // w
            col.append(y >> t * w & mask)
            X.append(S.reduce(y * pow(col[-1], -1, p)))
        else:
            col.append(0)
            t = min(set(range(n)).difference(pivots))
            X.append(1 << t * w)
        pivots.append(t)
    return H


def charpoly(H, S: Slots) -> int:
    """det(lambda I - H) mod p for H in the column form of hessenberg,
    packed: slot k holds the coefficient of lambda^k.

    chi_m = (lambda - h_mm) chi_(m-1)
            - sum_(i<m) h_im h_(i+1,i) ... h_(m,m-1) chi_(i-1)
    """
    p, w = S.p, S.w
    chis = [1]
    for m, col in enumerate(H):
        prev = chis[m]
        acc = (prev << w) + (-col[m] % p) * prev
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * H[i][i + 1] % p
            if not t:
                break
            u = col[i] * t % p
            if u:
                acc += (p - u) * chis[i]
        chis.append(S.reduce(acc))
    return chis[-1]


def alexander_polynomial(V) -> tuple:
    """det(V - x V^T), normalized symmetric with value 1 at x = 1 (see
    normalize_alexander): the product of the block polynomials.  The tuple d
    holds the coefficients of x^low .. x^-low in ascending order,
    low = -(len(d) - 1) // 2."""
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


def block_alexander_polynomials(V) -> list[tuple]:
    """det(B - x B^T) for each block B in V.blocks, unnormalized (see
    _det_poly), computed once per distinct block."""
    polys: dict = {}
    for B in V.blocks:
        if B not in polys:
            polys[B] = _det_poly(B)
    return [polys[B] for B in V.blocks]


def _det_poly(M) -> tuple:
    """det(M - x M^T) as an ascending tuple from x^0, trailing zeros
    trimmed and leading ones kept (det M = 0 gives a leading 0), for a
    square integer M with det(M - M^T) = 1.

    With D = M - M^T the matrix B = D^-1 M^T has integer entries, and
    M - x M^T = D (I - (x - 1) B), so det(M - x M^T) = sum_k chi_k (x - 1)^(n-k)
    where chi = det(lambda I - B) in ascending coefficients: one
    characteristic polynomial and one Taylor shift.  Both are computed in
    one pass modulo a single prime p (_det_poly_mod) on vectors packed one
    per int (Slots): solve D B = M^T (solve), reduce B^T to
    Hessenberg form by Krylov (hessenberg), read chi off the
    Hessenberg recurrence (charpoly), then substitute y = x - 1.  B^T has the characteristic
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
    col = [0] * len(M)  # col[j]: the squared 2-norm of column j of |M| + |M^T|
    for _i, j, a, b in support(M):
        col[j] += (abs(a) + abs(b)) ** 2
    bound = 1
    for s in col:
        r = isqrt(s)
        bound *= r if r * r == s else r + 1
    p = _prime((2 * bound).bit_length())
    half = p // 2
    return ip.trim(c - p if c > half else c for c in _det_poly_mod(M, p))


def _det_poly_mod(M, p: int) -> list:
    """The n + 1 ascending coefficients of det(M - x M^T) mod p (see _det_poly)."""
    n = len(M)
    S = Slots(p, n)
    det, B = solve(M, S)
    if det != 1:
        raise SeifertInvariantError("det(M - M^T) is not 1")
    chi = S.unpack(charpoly(hessenberg(B, S), S), n + 1)
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
