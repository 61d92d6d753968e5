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

The search runs on a flat grid.  The box 0 <= j <= box,
-box <= smin <= smax <= box is laid out row-major in a list whose every
coordinate is padded by 2 on both sides, so a state is one index and each
move one fixed index offset.  No move changes a coordinate by more than 2,
so a move out of a box point lands in the padding, never in another row:
no coordinate needs a bounds check.  A sweep's distances start at -1 off
the box and at _UNSEEN on it, so one comparison both keeps a move inside
the box and relaxes its target.  Every sweep is one Dial-style 0-1
breadth-first search, level by level: a move of the costly sign (every
move, for plain distances) goes to the next level, any other move to the
current one.
"""

from __future__ import annotations

from .bounds import signed_bounds_of, unknotting_bound_of
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

_MOVE_NAMES = tuple(MOVES)
_PAD = 2  # the largest coordinate change of one move
_UNSEEN = 10**9  # the distance of a box point no sweep has reached


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


class _Grid:
    """The box as a padded flat array (see the module docstring)."""

    __slots__ = ("box", "row", "plane", "steps", "blank")

    def __init__(self, box: int):
        self.box = box
        self.row = row = 2 * box + 1 + 2 * _PAD
        self.plane = plane = row * row
        self.steps = tuple(dj * plane + da * row + db for dj, da, db in MOVES.values())
        self.blank = blank = [-1] * ((box + 1 + 2 * _PAD) * plane)
        for j in range(box + 1):
            for a in range(-box, box + 1):
                lo = self.index(j, a, a)
                blank[lo:lo + box - a + 1] = [_UNSEEN] * (box - a + 1)

    def index(self, j: int, smin: int, smax: int) -> int:
        shift = self.box + _PAD
        return (j + _PAD) * self.plane + (smin + shift) * self.row + smax + shift


def _sweep(grid: _Grid, source: int, costly_sign: str = "") -> tuple[list, list]:
    """(dist, via): the least cost from source to every box point, and the
    index in MOVES of the move that first reached each one.  A move costs 1
    when costly_sign is empty or is its sign, and 0 otherwise."""
    free, paid = [], []
    for k, (name, step) in enumerate(zip(_MOVE_NAMES, grid.steps)):
        (paid if not costly_sign or name.endswith(costly_sign) else free).append((k, step))
    dist = grid.blank.copy()
    via = [0] * len(dist)
    dist[source] = 0
    level, d = [source], 0
    while level:
        ahead, nd = [], d + 1
        for s in level:  # grows while it runs: free moves stay on this level
            if dist[s] != d:
                continue  # lowered after it was queued
            for k, step in free:
                t = s + step
                if dist[t] > d:
                    dist[t] = d
                    via[t] = k
                    level.append(t)
            for k, step in paid:
                t = s + step
                if dist[t] > nd:
                    dist[t] = nd
                    via[t] = k
                    ahead.append(t)
        level, d = ahead, nd
    return dist, via


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
    grid = _Grid(box)
    source, target = grid.index(*s0), grid.index(0, 0, 0)

    dist, via = _sweep(grid, source)
    total = dist[target]
    if total == _UNSEEN:
        raise SearchBoundError(f"origin unreachable from {s0} within box {box}")
    witness = []
    cur = target
    while cur != source:
        k = via[cur]
        witness.append(_MOVE_NAMES[k])
        cur -= grid.steps[k]
    witness.reverse()

    # the least number of '-' moves over the shortest paths: a DP over the
    # sweep's levels, each state from its predecessors one level closer
    minus = [name.endswith("-") for name in _MOVE_NAMES]
    fewest = {source: 0}
    for d in range(1, total + 1):
        ahead = {}
        for s, n in fewest.items():
            for is_minus, step in zip(minus, grid.steps):
                t = s + step
                if dist[t] == d and ahead.get(t, _UNSEEN) > n + is_minus:
                    ahead[t] = n + is_minus
        fewest = ahead
    n = fewest[target]

    return MovesResult(
        total=total,
        witness=tuple(witness),
        min_negative_to_positive=_sweep(grid, source, "-")[0][target],
        min_positive_to_negative=_sweep(grid, source, "+")[0][target],
        lex_split=(n, total - n),
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
    total_formula = total_formula or unknotting_bound_of
    signed_formula = signed_formula or signed_bounds_of
    box = bound_range + margin
    grid = _Grid(box)
    origin = grid.index(0, 0, 0)

    dist = _sweep(grid, origin)[0]
    # '-' moves from s to origin reverse to '+' moves from origin to s
    min_neg = _sweep(grid, origin, "+")[0]
    min_pos = _sweep(grid, origin, "-")[0]

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
                i = grid.index(j, a, b)
                checked += 1
                bfs_total = dist[i]
                if bfs_total == _UNSEEN:
                    raise SearchBoundError(f"state {s} unreachable within box {box}")
                want_total = total_formula(j, a, b)
                if bfs_total != want_total:
                    mismatches.append(Mismatch(s, "total", (bfs_total,), (want_total,)))
                bfs_signed = (min_neg[i], min_pos[i])
                want_signed = tuple(signed_formula(j, a, b))
                if bfs_signed != want_signed:
                    mismatches.append(Mismatch(s, "signed", bfs_signed, want_signed))
    return ExhaustiveReport(bound_range, margin, checked, tuple(mismatches))
