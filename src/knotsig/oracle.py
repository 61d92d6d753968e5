"""Brute-force verification of the bound formulas on the move lattice.

States are triples (j, smin, smax) of one parity with j >= 0 and
smin <= smax, abstracting (max |jump|, min signature, max signature) of a
factor.  A crossing change acts by one of ten moves: the F moves shift
smin and/or smax by 2 and fix j, the G moves shift j by 1 and both
signature coordinates by 1.  Move signs follow the crossing convention:
'-' means a negative-to-positive change, '+' a positive-to-negative one.

minimal_moves finds, by exact breadth-first search in a bounding box, the
least number of moves carrying a state to (0, 0, 0), plus the independent
minima of '-' moves and of '+' moves over all such sequences (0/1-weighted
search).  exhaustive_check replays this for every state in a range and
compares against the closed-form bounds; any mismatch is reported with the
offending state.  The move set is closed under inversion (each '-' move
inverts to a '+' move), so the sweeps run backwards from the origin.
"""

from __future__ import annotations

import heapq
from collections import deque

from .bounds import FactorInvariants, signed_bounds, unknotting_bound
from .errors import ParityError, SearchBoundError
from .record import Record

State = tuple  # (j, smin, smax)

# name -> (dj, dsmin, dsmax); '-' and '+' name suffixes are the move signs
MOVES: dict[str, tuple[int, int, int]] = {
    "F1-": (0, -2, 0),
    "F2-": (0, 0, -2),
    "F3-": (0, -2, -2),
    "F1+": (0, 2, 0),
    "F2+": (0, 0, 2),
    "F3+": (0, 2, 2),
    "G1-": (-1, -1, -1),
    "G2-": (1, -1, -1),
    "G1+": (-1, 1, 1),
    "G2+": (1, 1, 1),
}

_MOVE_ITEMS = tuple(MOVES.items())


class LatticeState(Record):
    """A lattice point: j >= 0, smin <= smax, all three of one parity."""

    __slots__ = ("j", "smin", "smax")

    j: int
    smin: int
    smax: int

    def __post_init__(self):
        if self.j < 0:
            raise ValueError("j must be nonnegative (track |j|)")
        if self.smin > self.smax:
            raise ValueError("smin must not exceed smax")
        if (self.j - self.smin) % 2 or (self.j - self.smax) % 2:
            raise ParityError("state coordinates must share parity")

    def as_tuple(self) -> State:
        return (self.j, self.smin, self.smax)


def apply_move(state: LatticeState, move: str) -> LatticeState | None:
    """The moved state, or None when the move leaves the lattice.

    Rejection (j < 0 or smin > smax) is a value, not an error.
    """
    dj, da, db = MOVES[move]
    j, a, b = state.j + dj, state.smin + da, state.smax + db
    if j < 0 or a > b:
        return None
    return LatticeState(j, a, b)


def _neighbors(s: State, box: int):
    j, a, b = s
    for name, (dj, da, db) in _MOVE_ITEMS:
        nj, na, nb = j + dj, a + da, b + db
        if nj < 0 or na > nb or nj > box or na < -box or nb > box:
            continue
        yield name, (nj, na, nb)


def _signed_sweep(source: State, box: int, costly_sign: str) -> dict[State, int]:
    """Least number of moves of sign costly_sign from source to every state
    in the box (0-1 breadth-first search: other moves cost nothing)."""
    best = {source: 0}
    dq = deque([(0, source)])
    while dq:
        d, s = dq.popleft()
        if d > best[s]:
            continue
        for name, t in _neighbors(s, box):
            nd = d + (1 if name.endswith(costly_sign) else 0)
            if nd < best.get(t, 10**9):
                best[t] = nd
                if nd == d:
                    dq.appendleft((nd, t))
                else:
                    dq.append((nd, t))
    return best


class MovesResult(Record):
    __slots__ = ("total", "witness", "min_negative_to_positive", "min_positive_to_negative",
                 "lex_split")

    total: int
    witness: tuple
    min_negative_to_positive: int
    min_positive_to_negative: int
    lex_split: tuple  # (n, p) of a witness minimizing total, then n


def minimal_moves(start: LatticeState, margin: int = 6) -> MovesResult:
    """Exact minimal move data from start to the origin.

    The search is confined to max-coordinate <= max(|start|) + margin; the
    closed forms are exact well inside that, so exhaustion means a bug (or
    an unreachable state) and raises SearchBoundError.
    """
    s0 = start.as_tuple()
    box = max(abs(c) for c in s0) + margin if s0 != (0, 0, 0) else margin
    target = (0, 0, 0)

    dist = {s0: 0}
    parent: dict[State, tuple[State, str]] = {}
    queue = deque([s0])
    while queue:
        s = queue.popleft()
        if s == target:
            break
        for name, t in _neighbors(s, box):
            if t not in dist:
                dist[t] = dist[s] + 1
                parent[t] = (s, name)
                queue.append(t)
    if target not in dist:
        raise SearchBoundError(f"origin unreachable from {s0} within box {box}")
    total = dist[target]
    witness = []
    cur = target
    while cur != s0:
        prev, name = parent[cur]
        witness.append(name)
        cur = prev
    witness.reverse()

    def signed_min(costly_sign: str) -> int:
        best = _signed_sweep(s0, box, costly_sign)
        if target not in best:
            raise SearchBoundError(f"origin unreachable from {s0} within box {box}")
        return best[target]

    def lex_min() -> tuple:
        # minimize (total, number of '-' moves) lexicographically
        best: dict[State, tuple] = {s0: (0, 0)}
        heap = [((0, 0), s0)]
        while heap:
            cost, s = heapq.heappop(heap)
            if cost > best.get(s, (10**9, 0)):
                continue
            for name, t in _neighbors(s, box):
                nc = (cost[0] + 1, cost[1] + (1 if name.endswith("-") else 0))
                if nc < best.get(t, (10**9, 0)):
                    best[t] = nc
                    heapq.heappush(heap, (nc, t))
        tot, n = best[target]
        assert tot == total
        return (n, tot - n)

    return MovesResult(
        total=total,
        witness=tuple(witness),
        min_negative_to_positive=signed_min("-"),
        min_positive_to_negative=signed_min("+"),
        lex_split=lex_min(),
    )


class Mismatch(Record):
    __slots__ = ("state", "kind", "bfs", "formula")

    state: State
    kind: str  # "total" | "signed"
    bfs: tuple
    formula: tuple


class ExhaustiveReport(Record):
    __slots__ = ("bound_range", "margin", "states_checked", "mismatches")

    bound_range: int
    margin: int
    states_checked: int
    mismatches: tuple

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "range": self.bound_range,
            "margin": self.margin,
            "states_checked": self.states_checked,
            "mismatch_count": len(self.mismatches),
            "mismatches": [
                {"state": list(m.state), "kind": m.kind,
                 "bfs": list(m.bfs), "formula": list(m.formula)}
                for m in self.mismatches
            ],
            "ok": self.ok,
        }


def _default_total(j: int, smin: int, smax: int) -> int:
    return unknotting_bound(FactorInvariants((), j, 2 * smin, 2 * smax))


def _default_signed(j: int, smin: int, smax: int) -> tuple[int, int]:
    sb = signed_bounds(FactorInvariants((), j, 2 * smin, 2 * smax))
    return (sb.negative_to_positive, sb.positive_to_negative)


def exhaustive_check(bound_range: int, margin: int = 6,
                     total_formula=None, signed_formula=None) -> ExhaustiveReport:
    """Compare search minima against the closed forms on all small states.

    States run over j in [0, range], smin <= smax in [-range, range], all
    parities matching.  Distances to the origin for every state at once
    come from three sweeps out of the origin (the move set equals its own
    inverse set, with '-' and '+' exchanged, so costs transpose).
    """
    if bound_range < 0:
        raise ValueError("range must be nonnegative")
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    total_formula = total_formula or _default_total
    signed_formula = signed_formula or _default_signed
    box = bound_range + margin

    dist: dict[State, int] = {(0, 0, 0): 0}
    queue = deque([(0, 0, 0)])
    while queue:
        s = queue.popleft()
        for _name, t in _neighbors(s, box):
            if t not in dist:
                dist[t] = dist[s] + 1
                queue.append(t)

    # '-' moves from s to origin reverse to '+' moves from origin to s
    min_neg = _signed_sweep((0, 0, 0), box, "+")
    min_pos = _signed_sweep((0, 0, 0), box, "-")

    mismatches = []
    checked = 0
    for j in range(0, bound_range + 1):
        for a in range(-bound_range, bound_range + 1):
            if (a - j) % 2:
                continue
            for b in range(a, bound_range + 1):
                if (b - j) % 2:
                    continue
                s = (j, a, b)
                checked += 1
                bfs_total = dist.get(s)
                if bfs_total is None:
                    raise SearchBoundError(f"state {s} unreachable within box {box}")
                want_total = total_formula(j, a, b)
                if bfs_total != want_total:
                    mismatches.append(Mismatch(s, "total", (bfs_total,), (want_total,)))
                bfs_signed = (min_neg[s], min_pos[s])
                want_signed = tuple(signed_formula(j, a, b))
                if bfs_signed != want_signed:
                    mismatches.append(Mismatch(s, "signed", bfs_signed, want_signed))
    return ExhaustiveReport(bound_range, margin, checked, tuple(mismatches))
