"""Linear algebra over F_p on vectors packed one per int: the solve, the
Krylov Hessenberg form and the characteristic polynomial behind the
Alexander polynomial of a Seifert block (seifert._det_poly_mod, which
imports this module only when it computes one).
"""

from __future__ import annotations


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

    def pack(self, vals) -> int:
        nb = self.nb
        return int.from_bytes(b"".join([v.to_bytes(nb, "little") for v in vals]), "little")

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
    """(det D, the packed rows of B = D^-1 M^T) mod p for D = M - M^T,
    rows reduced; (0, None) when D is singular mod p.

    Forward elimination on [D | M^T], then back substitution: the D half
    as sparse rows {column: entry} (banded D stays banded), the M^T half
    one packed int per row.
    """
    n, p = len(M), S.p
    D = [{j: (M[i][j] - M[j][i]) % p for j in range(n) if M[i][j] != M[j][i]}
         for i in range(n)]
    R = [S.pack([M[j][i] % p for j in range(n)]) for i in range(n)]
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
