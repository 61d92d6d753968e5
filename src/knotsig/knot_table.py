"""Built-in Seifert matrices for the knots the package knows by name.

Entries come from three constructions: band surfaces of braid closures
(via seifert_from_braid), plumbing forms of two-bridge knots, and integer
realizations chosen to match the tabulated invariants.  Every entry is
validated on first access against its recorded Alexander polynomial and
classical signature; a mismatch raises TableError rather than silently
serving a wrong matrix.

Sign conventions follow the standard tables: the named trefoil 3_1 has
signature -2 (its mirror is written -3_1).
"""

from __future__ import annotations

from functools import lru_cache

from .braids import BraidWord, seifert_from_braid
from .errors import TableError
from .laurent import LaurentPoly, normalize_alexander
from .record import Record
from .seifert import SeifertMatrix, alexander_polynomial, murasugi_signature


class TableEntry(Record):
    __slots__ = ("name", "matrix", "braid", "alexander", "signature", "note")

    name: str
    matrix: tuple | None          # literal rows, or None when built from a braid
    braid: tuple | None           # (strands, letters)
    alexander: tuple              # det(V - xV^T) up to units, ascending, primitive
    signature: int                # value at omega = -1
    note: str


_ENTRIES = (
    TableEntry("3_1", None, (2, (1, 1, 1)), (1, -1, 1), -2,
               "band surface of the closed braid"),
    TableEntry("4_1", None, (3, (1, -2, 1, -2)), (-1, 3, -1), 0,
               "band surface of the closed braid"),
    TableEntry("5_1", None, (2, (1, 1, 1, 1, 1)), (1, -1, 1, -1, 1), -4,
               "band surface of the closed braid"),
    TableEntry("7_4", ((-2, 1), (0, -2)), None, (4, -7, 4), -2,
               "genus-one double-twist form"),
    TableEntry("8_2", ((1, 1, 0, 0, 0, 0),
                       (0, -1, 1, 0, 0, 0),
                       (0, 0, -1, 1, 0, 0),
                       (0, 0, 0, -1, 1, 0),
                       (0, 0, 0, 0, -1, 1),
                       (0, 0, 0, 0, 0, -1)), None,
               (-1, 3, -3, 3, -3, 3, -1), -4,
               "two-bridge plumbing form, 17/6 = [2,-2,-2,-2,-2,-2]"),
    TableEntry("8_20", None, (3, (1, 1, 1, -2, -1, -1, -1, -2)), (1, -2, 3, -2, 1), 0,
               "band surface of the closed braid"),
    TableEntry("10_132", ((-1, 0, -1, -1),
                          (-1, 0, 0, -1),
                          (-1, 0, 1, 0),
                          (-1, -1, -1, 1)), None,
               (1, -1, 1, -1, 1), 0,
               "integer realization of the tabulated signature data"),
    TableEntry("11n6", ((-2, 1, 1, 0, 0, 0),
                        (0, 0, 1, 0, 0, 0),
                        (1, 0, 2, 1, -1, 0),
                        (0, 0, 0, 1, 1, -1),
                        (0, 0, -1, 0, 0, 1),
                        (0, 0, 0, -1, 0, 1)), None,
               (-1, 3, -3, 3, -3, 3, -1), 0,
               "integer realization of the tabulated signature data"),
)

_ALIASES = {"0_1": "unknot"}


def knot_names() -> list[str]:
    """Canonical names, unknot first."""
    return ["unknot"] + [e.name for e in _ENTRIES]


@lru_cache(maxsize=None)
def _validated(name: str) -> SeifertMatrix:
    if name == "unknot":
        return SeifertMatrix.empty()
    entry = next((e for e in _ENTRIES if e.name == name), None)
    if entry is None:
        raise TableError(f"unknown knot name: {name!r}")
    if entry.braid is not None:
        V = seifert_from_braid(BraidWord(entry.braid[0], entry.braid[1]))
    else:
        V = SeifertMatrix(entry.matrix)
    delta = alexander_polynomial(V)
    expected = normalize_alexander(LaurentPoly(0, entry.alexander))
    if delta != expected:
        raise TableError(f"{name}: Alexander polynomial mismatch (table data corrupt)")
    sig = murasugi_signature(V)
    if sig != entry.signature:
        raise TableError(f"{name}: signature {sig} != recorded {entry.signature}")
    return V


def lookup(name: str) -> SeifertMatrix:
    """Validated Seifert matrix for a named knot; TableError when unknown."""
    name = _ALIASES.get(name, name)
    if name != "unknot" and all(e.name != name for e in _ENTRIES):
        raise TableError(f"unknown knot name: {name!r} (known: {', '.join(knot_names())})")
    return _validated(name)


def table_rows():
    """(name, matrix, alexander form, signature) for every table knot."""
    out = []
    for e in _ENTRIES:
        V = lookup(e.name)
        out.append((e.name, V, alexander_polynomial(V), murasugi_signature(V)))
    return out
