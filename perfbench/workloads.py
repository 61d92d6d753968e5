"""The benchmark's workloads and the seeded generator of their inputs.

Torus workloads are fixed knot lists whose order the seed permutes; the
CLI workload draws random Seifert matrices from the seed.  Only the
generated inputs reach the package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

# A torus summand: (sign, p, q); sign -1 is the mirror image.
Summand = tuple


@dataclass(frozen=True)
class TorusQuery:
    expression: str
    summands: tuple  # Summands, in the order of the expression


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "torus" or "cli"
    nonbalanced: bool = False
    queries: tuple = ()  # torus: TorusQuerys
    sizes: tuple = ()  # cli: matrix sizes
    root_counts: tuple = ()  # cli: upper-circle root counts, one knot of each per size


def _torus(expression: str, *summands) -> TorusQuery:
    return TorusQuery(expression, tuple(summands))


WORKLOADS = {
    w.name: w for w in (
        Workload("torus_plateaus", "torus", nonbalanced=False, queries=(
            _torus("T(3,10) # -T(2,15) # -T(5,6)", (1, 3, 10), (-1, 2, 15), (-1, 5, 6)),
            _torus("T(5,11)", (1, 5, 11)),
            _torus("T(2,31)", (1, 2, 31)),
            _torus("T(3,16)", (1, 3, 16)),
        )),
        Workload("torus_nonbalanced", "torus", nonbalanced=True, queries=(
            _torus("T(4,9)", (1, 4, 9)),
            _torus("T(3,11)", (1, 3, 11)),
            _torus("T(5,6)", (1, 5, 6)),
            _torus("T(2,21)", (1, 2, 21)),
        )),
        # A query's cost grows with the roots it certifies, so every seed
        # draws one knot per (size, circle-root count): the inputs change
        # with the seed, the work of a pass much less.  Eight knots keep a
        # pass near 15 s on a 2-core x86 host, so that two passes fit a run.
        Workload("cli_generic", "cli", sizes=(6, 8, 10, 12), root_counts=(1, 2)),
    )
}

CLI_PRECISION = 20
CLI_ORACLE_RANGE = 16
ENTRY_RANGE = 2  # entries of the symmetric part lie in [-2, 2]


def torus_order(workload: Workload, seed: int) -> list[TorusQuery]:
    queries = list(workload.queries)
    random.Random(seed).shuffle(queries)
    return queries


def int_det(rows) -> int:
    """Exact integer determinant (fraction-free elimination)."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def circle_roots(rows) -> int | None:
    """Roots of det(V - xV^T) on the open upper unit circle, or None when a
    root's modulus is too close to 1 to classify in floating point."""
    v = np.array(rows, dtype=float)
    eig = np.linalg.eigvals(np.linalg.solve(v.T, v))
    off = np.abs(np.abs(eig) - 1)
    if np.any((off >= 1e-6) & (off < 1e-3)):
        return None
    return int(np.sum((off < 1e-6) & (eig.imag > 1e-9)))


def random_seifert(rng: random.Random, n: int, roots: int) -> list:
    """V = S + U with S random symmetric and U the upper half of the standard
    symplectic form, so V - V^T is that form and det(V - V^T) = 1.

    Draws until det V != 0 (the Alexander polynomial then spans the full
    degree n) and `roots` (at least one) roots lie on the upper unit circle,
    so every query reaches root isolation, the number-field path and
    certified rendering.
    """
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-ENTRY_RANGE, ENTRY_RANGE)
        for i in range(0, n, 2):
            rows[i][i + 1] += 1
        if int_det(rows) == 0:
            continue
        if circle_roots(rows) == roots:
            return rows


def cli_knots(workload: Workload, seed: int) -> list[dict]:
    """The CLI workload's knots: name, matrix, Alexander degree, circle roots.

    Names have the table shape <n>g<k> that the expression grammar accepts.
    """
    rng = random.Random(seed)
    out = []
    for n in workload.sizes:
        for k, roots in enumerate(workload.root_counts, 1):
            out.append({"name": f"{n}g{k}", "matrix": random_seifert(rng, n, roots),
                        "alexander_degree": n, "circle_roots": roots})
    return out


def cli_queries(knots: list[dict], config: str) -> list[tuple[str, list[str]]]:
    """(label, argv) of one pass: bounds of every knot, one oracle check and
    one SVG plot (of the first knot of size 8)."""
    base = ["--config", config]
    out = [(f"bounds:{k['name']}",
            base + ["bounds", k["name"], "--format", "json", "--precision", str(CLI_PRECISION)])
           for k in knots]
    out.append(("oracle", base + ["oracle-check", "--range", str(CLI_ORACLE_RANGE),
                                  "--format", "json"]))
    svg_knot = next(k["name"] for k in knots if len(k["matrix"]) == 8)
    out.append((f"svg:{svg_knot}", base + ["signature", svg_knot, "--format", "svg"]))
    return out
