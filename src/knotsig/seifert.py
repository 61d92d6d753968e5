"""Seifert matrices: validation, mirror, connected sum, Alexander polynomial.

A Seifert matrix is a square integer matrix V of even size with
det(V - V^T) = 1; the empty 0x0 matrix is the unknot.  A matrix given whole
(table, JSON file, braid) is kept as its nonzeros, one dict {column: entry}
per row, and checked once, on construction, at a cost in the nonzeros and
the fill: its connected blocks on the union of the supports of V and V^T
come from adjacency lists, and det(V - V^T) is the product over the blocks
of a sparse Bareiss elimination in reverse Cuthill-McKee order (_int_det).
Connected sums are block sums, so a sum takes its blocks from its checked
summands and a mirror -V^T has the nonzeros and blocks of the transpose,
negated: neither is checked again.  Dense rows are built only when first
read.

det(V - x V^T) is the product of the block polynomials.  They are computed
in gfmat, which alexander_polynomial imports only when it runs, so neither
validation nor resolving an expression compiles that code.
"""

from __future__ import annotations

from math import prod
from operator import index

from .errors import SeifertInvariantError


class SeifertMatrix:
    """Immutable integer Seifert matrix; blocks holds the matrices (tuples of
    rows) of its connected blocks, in the order of connected_blocks.

    SeifertMatrix(rows) checks its input.  A row is a sequence of its n
    entries or a dict {column: entry} of its nonzero ones; either way the
    matrix is kept as its nonzeros.  connected_sum and mirror build their
    results from checked parts without checking again, and rows are built
    on first read.
    """

    __slots__ = ("_rows", "_nz", "_parts", "blocks", "size")

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
        nz = tuple(nz)
        links = _links(nz)
        comps = _components(links)
        self._set(None, nz, None, tuple(_dense(nz, sorted(c)) for c in comps), n)
        d = prod(_int_det(_skew(nz, links, c)) for c in comps)
        if d != 1:
            raise SeifertInvariantError(f"det(V - V^T) = {d}, expected 1")

    def _set(self, rows, nz, parts, blocks, size) -> "SeifertMatrix":
        object.__setattr__(self, "_rows", rows)  # None until first read
        object.__setattr__(self, "_nz", nz)  # a matrix given whole or mirrored
        object.__setattr__(self, "_parts", parts)  # a sum
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "size", size)
        return self

    def __setattr__(self, *a):
        raise AttributeError("SeifertMatrix is immutable")

    def __reduce__(self):
        """Copy and pickle: a sum by its parts, a matrix given whole by its
        nonzeros, through the constructor."""
        if self._parts is not None:
            return connected_sum, self._parts
        return SeifertMatrix, (self._nz,)

    @classmethod
    def empty(cls) -> "SeifertMatrix":
        return cls(())

    @property
    def rows(self) -> tuple:
        """The n x n rows, built on first read: from the nonzeros, or for a
        sum by padding its parts' rows."""
        rows = self._rows
        if rows is None:
            n = self.size
            if self._parts is None:
                rows = _dense(self._nz, range(n))
            else:
                rows, left = [], 0
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
        mirrors, or with the nonzeros and blocks -B^T; det(B - B^T) is
        unchanged."""
        if self._parts is not None:
            return connected_sum(*(a.mirror() for a in self._parts))
        nz = [{} for _ in self._nz]
        for i, row in enumerate(self._nz):
            for j, c in row.items():
                nz[j][i] = -c
        return object.__new__(SeifertMatrix)._set(
            None, tuple(nz), None, tuple(map(_neg_transpose, self.blocks)), self.size)


_INT = frozenset((int,))


def _neg_transpose(rows) -> tuple:
    return tuple(tuple(-c for c in col) for col in zip(*rows))


def _entry(c) -> int:
    try:
        return index(c)
    except TypeError:
        raise SeifertInvariantError(f"matrix entry {c!r} is not an integer") from None


def _links(nz) -> list[set]:
    """For each index i, the j with V[i][j] or V[j][i] nonzero."""
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


def connected_blocks(V) -> list[list[int]]:
    """Index sets of the connected components of the union of the supports
    of V and V^T, each sorted, in the order of their smallest index.  V is
    a sequence of rows as SeifertMatrix takes them.

    Not the support of V + V^T: V[i][j] = 1 and V[j][i] = -1 cancel there
    but still link i and j in V - x V^T.
    """
    return [sorted(c) for c in _components(_links(
        [row if isinstance(row, dict) else {j: c for j, c in enumerate(row) if c} for row in V]))]


def _dense(nz, comp) -> tuple:
    """The rows and columns comp of the matrix with nonzeros nz, as tuples;
    every nonzero of these rows lies in columns comp."""
    at = {j: k for k, j in enumerate(comp)}
    out = []
    for i in comp:
        row = [0] * len(comp)
        for j, c in nz[i].items():
            row[at[j]] = c
        out.append(tuple(row))
    return tuple(out)


def _skew(nz, links, order) -> list[dict]:
    """The sparse rows of P (V - V^T) P^T, restricted to the indices in
    order (a union of components) and relabelled by their place in it."""
    at = {j: k for k, j in enumerate(order)}
    return [{at[j]: c for j in links[i] if (c := nz[i].get(j, 0) - nz[j].get(i, 0))}
            for i in order]


def connected_sum(*summands: SeifertMatrix) -> SeifertMatrix:
    """Block sum of the summands in order; realizes the connected sum of the
    underlying knots (of none, the unknot).  The summands are checked, so the
    sum is not checked again: its blocks are theirs, concatenated."""
    return object.__new__(SeifertMatrix)._set(None, None, summands,
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
