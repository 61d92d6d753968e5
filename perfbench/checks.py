"""Output checks, independent of the package's exact kernels.

* Torus knots: Litherland's count with exact Fractions gives the signature
  of T(p,q) at exp(2*pi*i*x) as -(#inside - #outside) over the pairs
  1 <= i < p, 1 <= j < q, where inside means x < i/p + j/q < x + 1 and
  outside means i/p + j/q < x or > x + 1; pairs on the boundary add to the
  nullity.  Signatures add over connected sums and change sign under
  mirroring.  Every plateau, breakpoint and non-balanced value is checked.
* Random Seifert matrices (CLI): plateaus are rebuilt from each root's jump
  and balanced value and compared with a floating-point eigvalsh signature
  at the midpoints between the certified angles, skipping points whose
  eigenvalues are too close to zero to trust; non-balanced values are
  compared the same way at the roots.  Floats appear only here.

Every check returns a list of error strings; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np

HALF = Fraction(1, 2)


# -- torus knots ---------------------------------------------------------

def litherland(p: int, q: int, x: Fraction) -> tuple[int, int]:
    """(signature, nullity) of T(p,q) at exp(2*pi*i*x), 0 < x < 1."""
    inside = outside = null = 0
    for i in range(1, p):
        for j in range(1, q):
            s = Fraction(i, p) + Fraction(j, q)
            if s == x or s == x + 1:
                null += 1
            elif x < s < x + 1:
                inside += 1
            else:
                outside += 1
    return -(inside - outside), null


def torus_signature(summands, x: Fraction) -> int:
    return sum(sign * litherland(p, q, x)[0] for sign, p, q in summands)


def torus_breakpoints(summands) -> list[Fraction]:
    """Angles in (0, 1/2) where some summand's form is singular."""
    pts = set()
    for _sign, p, q in summands:
        for i in range(1, p):
            for j in range(1, q):
                x = (Fraction(i, p) + Fraction(j, q)) % 1
                if 0 < x < HALF:
                    pts.add(x)
    return sorted(pts)


def check_torus(summands, summary: dict, nonbalanced: bool) -> list[str]:
    """Check one step function, given as the worker's summary, exactly."""
    if "error" in summary:
        return [f"raised {summary['error']}"]
    errors = []
    bps = summary["breakpoints"]
    plateaus = summary["plateaus"]
    want_ts = torus_breakpoints(summands)
    got_ts = [None if b["t"] is None else Fraction(b["t"]) for b in bps]
    if got_ts != want_ts:
        return [f"breakpoints {got_ts} != Litherland's {want_ts}"]
    edges = [Fraction(0)] + want_ts + [HALF]
    want_plateaus = [torus_signature(summands, (a + b) / 2) for a, b in zip(edges, edges[1:])]
    if plateaus != want_plateaus:
        errors.append(f"plateaus {plateaus} != Litherland's {want_plateaus}")
    for k, (b, t) in enumerate(zip(bps, want_ts)):
        left, right = want_plateaus[k], want_plateaus[k + 1]
        if b["jump"] != (right - left) // 2 or b["balanced2"] != left + right:
            errors.append(f"t={t}: jump/balanced {b['jump']}/{b['balanced2']} "
                          f"!= {(right - left) // 2}/{left + right}")
        want_nb = torus_signature(summands, t) if nonbalanced else None
        if b["nonbalanced"] != want_nb:
            errors.append(f"t={t}: non-balanced {b['nonbalanced']} != {want_nb}")
    return errors


# -- random Seifert matrices ---------------------------------------------

def float_signature(rows, t: float, *, at_root: bool = False) -> int | None:
    """Signature of (1-w)V + (1-conj w)V^T at w = exp(2*pi*i*t) by eigvalsh.

    Off roots every eigenvalue must clear 1e-8 of the largest; at a root
    the near-zero ones (below 1e-9) are dropped and the rest must clear
    1e-6.  None when the count cannot be trusted.
    """
    v = np.array(rows, dtype=float)
    w = complex(math.cos(2 * math.pi * t), math.sin(2 * math.pi * t))
    eig = np.linalg.eigvalsh((1 - w) * v + (1 - w.conjugate()) * v.T)
    scale = max(1.0, float(np.abs(eig).max()))
    mag = np.abs(eig) / scale
    if at_root:
        keep = mag > 1e-9
        if np.any(keep & (mag < 1e-6)):
            return None
        eig = eig[keep]
    elif mag.min() <= 1e-8:
        return None
    return int(np.sum(eig > 0) - np.sum(eig < 0))


def _root_t(root: dict) -> Fraction:
    return Fraction(root["t_exact"]) if root.get("t_exact") else Fraction(root["t"])


def check_bounds(text: str, rows, circle_roots: int) -> list[str]:
    """Check one `bounds --format json` document against its matrix."""
    try:
        return _check_report(json.loads(text), rows, circle_roots)
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        return [f"unreadable report: {e!r}"]


def _check_report(doc: dict, rows, circle_roots: int) -> list[str]:
    roots = sorted((r for f in doc["factors"] for r in f["roots"]), key=_root_t)
    u1, u2 = doc["u1"], doc["u2"]
    errors = []
    if len(roots) != circle_roots:
        errors.append(f"{len(roots)} circle roots, eigenvalues give {circle_roots}")
    plateaus = [0]
    for r in roots:
        left = plateaus[-1]
        right = r["balanced_x2"] - left
        if right - left != 2 * r["jump"] or right % 2:
            errors.append(f"t={r['t']}: jump {r['jump']} and balanced_x2 "
                          f"{r['balanced_x2']} do not fit plateau {left}")
        plateaus.append(right)
    ts = [_root_t(r) for r in roots]
    edges = [Fraction(0)] + ts + [HALF]
    for k, (a, b) in enumerate(zip(edges, edges[1:])):
        got = float_signature(rows, float((a + b) / 2))
        if got is not None and got != plateaus[k]:
            errors.append(f"plateau on ({a}, {b}) is {plateaus[k]}, eigenvalues give {got}")
    for r, t in zip(roots, ts):
        got = float_signature(rows, float(t), at_root=True)
        if got is not None and got != r["nonbalanced"]:
            errors.append(f"non-balanced at t={r['t']} is {r['nonbalanced']}, "
                          f"eigenvalues give {got}")
    if u1 != (max(plateaus) - min(plateaus)) // 2:
        errors.append(f"u1 = {u1} does not match plateaus {plateaus}")
    if not u1 <= u2 <= 2 * u1:
        errors.append(f"u1 = {u1}, u2 = {u2} break u1 <= u2 <= 2 u1")
    return errors


def oracle_states(bound_range: int) -> int:
    """Number of lattice states (j, smin, smax) oracle-check visits."""
    r = bound_range
    return sum(1 for j in range(r + 1) for a in range(-r, r + 1) if (a - j) % 2 == 0
               for b in range(a, r + 1) if (b - j) % 2 == 0)


def check_oracle(text: str, bound_range: int) -> list[str]:
    want = {"range": bound_range, "states_checked": oracle_states(bound_range),
            "mismatch_count": 0, "ok": True}
    try:
        doc = json.loads(text)
        got = {k: doc.get(k) for k in want}
    except (ValueError, AttributeError) as e:
        return [f"unreadable report: {e!r}"]
    return [] if got == want else [f"oracle-check reported {got}, expected {want}"]


def check_svg(text: str, breakpoints: int) -> list[str]:
    """Well-formed SVG with one filled (balanced-value) dot per breakpoint."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as e:
        return [f"malformed SVG: {e}"]
    if not root.tag.endswith("svg"):
        return [f"root element is {root.tag}"]
    dots = sum(1 for el in root.iter() if el.tag.endswith("circle")
               and el.get("fill") not in (None, "white"))
    return [] if dots == breakpoints else [f"{dots} breakpoint dots, expected {breakpoints}"]
