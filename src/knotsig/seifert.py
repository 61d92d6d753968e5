"""Seifert matrices: validation, mirror, connected sum, Alexander polynomial.

A Seifert matrix is a square integer matrix V of even size with
det(V - V^T) = 1; the empty 0x0 matrix is the unknot.  It is kept as two
things: its connected blocks (the components of the union of the supports
of V and V^T, by smallest index), each as sparse rows, per row the
(column, entry) pairs sorted by column in the block's own indices; and the
ascending index set of each block.  Equal matrices give equal pairs.
Every kernel reads a block through support; none builds a dense block.

A matrix given whole (table, JSON file, braid) is split into its blocks
over adjacency lists and checked in the nonzeros and the fill: det(V - V^T)
is the product over the blocks of a sparse Bareiss elimination in reverse
Cuthill-McKee order (_int_det).  Sums and mirrors are built from checked
blocks and not checked again; unpickling checks each distinct block once.

det(V - x V^T) is the product of the block polynomials.  They are computed
in gfmat, which alexander_polynomial imports only when it runs, so neither
validation nor resolving an expression compiles that code.
"""

from __future__ import annotations

from math import prod
from operator import index

from .errors import SeifertInvariantError


class SeifertMatrix:
    """Immutable integer Seifert matrix, kept as blocks and indices (module
    docstring).  SeifertMatrix(rows) checks its input: a row is a sequence
    of its n entries or a dict {column: entry} of its nonzero ones."""

    __slots__ = ("blocks", "indices")

    def __init__(self, rows):
        rows = list(rows)
        n = len(rows)
        nz, square = [], True
        for row in rows:
            if isinstance(row, dict):
                cols, row = list(row), list(row.values())
                square = (square and _INT.issuperset(map(type, cols))
                          and (not cols or min(cols) >= 0 and max(cols) < n))
            else:
                row = list(row)
                cols = range(len(row))
                square = square and len(row) == n
            if not _INT.issuperset(map(type, row)):
                row = list(map(_entry, row))
            nz.append({j: c for j, c in zip(cols, row) if c})
        if not square:
            raise SeifertInvariantError("matrix is not square")
        if n % 2 != 0:
            raise SeifertInvariantError(f"size {n} is odd; Seifert matrices have even size")
        links = _links(nz)
        comps = _components(links)
        d = prod(_int_det(_skew(nz, links, c)) for c in comps)
        if d != 1:
            raise SeifertInvariantError(f"det(V - V^T) = {d}, expected 1")
        blocks, indices = [], []
        for comp in comps:
            comp.sort()
            at = {j: k for k, j in enumerate(comp)}
            blocks.append(tuple(tuple(sorted([(at[j], c) for j, c in nz[i].items()]))
                                for i in comp))
            indices.append(tuple(comp))
        self._set(tuple(blocks), tuple(indices))

    def _set(self, blocks, indices) -> "SeifertMatrix":
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "indices", indices)
        return self

    def __setattr__(self, *a):
        raise AttributeError("SeifertMatrix is immutable")

    def __reduce__(self):
        """Copy and pickle by (blocks, indices), checked again on load."""
        return _checked, (self.blocks, self.indices)

    @classmethod
    def empty(cls) -> "SeifertMatrix":
        return cls(())

    @property
    def size(self) -> int:
        return sum(map(len, self.indices))

    @property
    def genus(self) -> int:
        return self.size // 2

    @property
    def rows(self) -> tuple:
        """The n x n rows, built from the blocks on each read."""
        n = self.size
        return tuple(tuple(map(row.get, range(n), [0] * n)) for row in self._nonzeros())

    def _nonzeros(self) -> list:
        """One dict {column: entry} per row, in the matrix's own indices."""
        nz = [None] * self.size
        for B, I in zip(self.blocks, self.indices):
            for i, row in zip(I, B):
                nz[i] = {I[j]: c for j, c in row}
        return nz

    def __eq__(self, other) -> bool:
        return (isinstance(other, SeifertMatrix) and self.blocks == other.blocks
                and self.indices == other.indices)

    def __hash__(self):
        return hash((self.blocks, self.indices))

    def __repr__(self) -> str:
        """The constructor call on the nonzeros, one dict per row."""
        return f"SeifertMatrix({self._nonzeros()})"

    def mirror(self) -> "SeifertMatrix":
        """-V^T, a Seifert matrix of the mirror image: the blocks -B^T on the
        same index sets; det(B - B^T) is unchanged.  Each distinct block is
        mirrored once, and its copies share the result."""
        mirrored = {B: _mirror_block(B) for B in dict.fromkeys(self.blocks)}
        return object.__new__(SeifertMatrix)._set(tuple(map(mirrored.__getitem__, self.blocks)),
                                                  self.indices)


_INT = frozenset((int,))


def _entry(c) -> int:
    try:
        return index(c)
    except TypeError:
        raise SeifertInvariantError(f"matrix entry {c!r} is not an integer") from None


def _mirror_block(B) -> tuple:
    """-B^T in the block format: row j holds (i, -B[i][j]), by increasing i."""
    cols = [[] for _ in B]
    for i, row in enumerate(B):
        for j, c in row:
            cols[j].append((i, -c))
    return tuple(map(tuple, cols))


def support(B):
    """(i, j, B[i][j], B[j][i]) once for each position (i, j) in the union
    of the supports of the block B and B^T: the nonzeros of B row by row,
    each followed by its transposed position where B is zero there."""
    nz = [dict(row) for row in B]
    for i, row in enumerate(B):
        for j, a in row:
            b = nz[j].get(i, 0)
            yield i, j, a, b
            if not b:
                yield j, i, 0, a


def _checked(blocks, indices) -> SeifertMatrix:
    """The matrix with these blocks and index sets, once the constructor
    has checked each distinct block on its own rows."""
    for B in dict.fromkeys(blocks):
        SeifertMatrix(map(dict, B))
    return object.__new__(SeifertMatrix)._set(blocks, indices)


def _links(nz) -> list[set]:
    """For each index i, the j with V[i][j] or V[j][i] nonzero: linked in
    V - x V^T even where V[i][j] = -V[j][i] cancels in V + V^T."""
    links = [set(row) for row in nz]
    for i, row in enumerate(nz):
        for j in row:
            links[j].add(i)
    return links


def _components(links) -> list[list[int]]:
    """The connected components of the graph, in the order of their
    smallest index, each in reverse Cuthill-McKee order: breadth first from
    that index, each index's new neighbours by increasing number of links,
    then reversed.  A band matrix keeps a narrow band in this order, so
    elimination fills little: T(3, q) has band q - 1 in the braid's order
    and 2 in this one."""
    degree = list(map(len, links)).__getitem__
    seen, comps = [False] * len(links), []
    for start, done in enumerate(seen):
        if done:
            continue
        seen[start] = True
        order = [start]
        for i in order:  # breadth first: order grows while it is read
            new = sorted([j for j in links[i] if not seen[j]], key=degree)
            for j in new:
                seen[j] = True
            order += new
        order.reverse()
        comps.append(order)
    return comps


def _skew(nz, links, order) -> list[dict]:
    """The sparse rows of P (V - V^T) P^T, restricted to the indices in
    order (a union of components) and relabelled by their place in it."""
    at = {j: k for k, j in enumerate(order)}
    return [{at[j]: c for j in links[i] if (c := nz[i].get(j, 0) - nz[j].get(i, 0))}
            for i in order]


def connected_sum(*summands: SeifertMatrix) -> SeifertMatrix:
    """Block sum of the summands in order; realizes the connected sum of the
    underlying knots (of none, the unknot).  The summands are checked, so the
    sum is not checked again: its blocks are theirs, concatenated, and their
    index sets are moved past the summands before them."""
    blocks, indices, left = [], [], 0
    for a in summands:
        blocks += a.blocks
        for I in a.indices:
            indices.append(tuple(map(left.__add__, I)))
        left += a.size
    return object.__new__(SeifertMatrix)._set(tuple(blocks), tuple(indices))


def mirror(a: SeifertMatrix) -> SeifertMatrix:
    return a.mirror()


def stabilize(a: SeifertMatrix) -> SeifertMatrix:
    """Add a trivial hyperbolic 2x2 block (used to test stability invariance)."""
    return connected_sum(a, SeifertMatrix([[0, 1], [0, 0]]))


def _int_det(rows) -> int:
    """Exact determinant of the integer matrix with the given sparse rows
    (dicts {column: entry}, zeros allowed): fraction-free Bareiss on the
    nonzeros.

    Step k picks as pivot the least row not yet a pivot with a nonzero in
    column k, and takes every other row i with one to
    (d_{k+1} * row_i - A[i][k] * row_k) / d_k, over the union of the two
    supports (the fill).  A row whose column-k entry is 0 is only rescaled,
    by d_{k+1}/d_k.  These factors telescope, so such a row is not touched:
    it keeps the step t at which it was last updated, and is brought up by
    d_k/d_t only when it becomes the pivot row, or when it next meets a
    pivot, in the one pass (d_{k+1} * row_i - A[i][k] * row_k) / d_t.  The
    determinant is d_n times the sign of the permutation taking step k to
    its pivot row.
    """
    n = len(rows)
    A = list(map(dict, rows))
    holders = [set() for _ in range(n)]  # column -> the rows not yet pivots with an entry there
    for i, row in enumerate(A):
        for j in row:
            holders[j].add(i)
    stamp, d, pivots = [0] * n, [1], []
    for k in range(n):
        col = holders[k]
        live = [i for i in col if A[i][k]]
        if not live:
            return 0
        piv = min(live)
        pivots.append(piv)
        row_k, t = A[piv], stamp[piv]
        for j in row_k:
            holders[j].discard(piv)
        if t != k:
            dk, dt = d[k], d[t]
            row_k = {j: x * dk // dt for j, x in row_k.items()}
        dp = row_k.pop(k)
        d.append(dp)
        for i in col:
            row = A[i]
            a = row.pop(k)
            if a:
                for j in row_k.keys() - row.keys():  # the fill
                    holders[j].add(i)
                    row[j] = 0
                dt = d[stamp[i]]
                A[i] = {j: (dp * x - a * row_k.get(j, 0)) // dt for j, x in row.items()}
                stamp[i] = k + 1
    sign = 1
    for k in range(n):  # sort the pivots by swaps, each flipping the sign
        while pivots[k] != k:
            j = pivots[k]
            pivots[k], pivots[j] = pivots[j], j
            sign = -sign
    return sign * d[n]


# The Alexander polynomial and the classical signature are computed in
# gfmat and hermitian, imported only when these run: validation and
# resolving compile neither.

def alexander_polynomial(V: SeifertMatrix) -> tuple:
    """det(V - x V^T), normalized (gfmat.alexander_polynomial)."""
    from . import gfmat

    return gfmat.alexander_polynomial(V)


def normalize_alexander(p) -> tuple:
    """The canonical symmetric representative of +-x^k p with value 1 at
    x = 1 (gfmat.normalize_alexander)."""
    from . import gfmat

    return gfmat.normalize_alexander(p)


def murasugi_signature(V: SeifertMatrix) -> int:
    """The classical signature sigma(-1) (hermitian.murasugi_signature)."""
    from . import hermitian

    return hermitian.murasugi_signature(V)
