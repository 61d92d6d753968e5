import heapq
from collections import deque

import pytest

from knotsig.errors import ParityError
from knotsig.oracle import (_UNSEEN, MOVES, LatticeState, _Grid, _sweep, apply_move,
                            exhaustive_check, minimal_moves)


# An independent reference for the grid sweeps: states are tuples, distances
# live in dicts, and each neighbour is bounds-checked coordinate by coordinate.

def reference_neighbours(state, box):
    j, a, b = state
    for name, (dj, da, db) in MOVES.items():
        t = (j + dj, a + da, b + db)
        if 0 <= t[0] <= box and -box <= t[1] <= t[2] <= box:
            yield name, t


def reference_sweep(source, box, costly_sign=None):
    """Move counts from source (every move costs 1), or with costly_sign the
    least number of moves of that sign (0-1 breadth-first search)."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        s = queue.popleft()
        for name, t in reference_neighbours(s, box):
            if costly_sign is None:
                if t not in dist:
                    dist[t] = dist[s] + 1
                    queue.append(t)
                continue
            cost = 1 if name.endswith(costly_sign) else 0
            if dist[s] + cost < dist.get(t, _UNSEEN):
                dist[t] = dist[s] + cost
                (queue.append if cost else queue.appendleft)(t)
    return dist


def reference_lex(source, target, box):
    """Least (moves, '-' moves) from source to target, lexicographically."""
    best = {source: (0, 0)}
    heap = [((0, 0), source)]
    while heap:
        cost, s = heapq.heappop(heap)
        if s == target:
            return cost
        if cost > best[s]:
            continue
        for name, t in reference_neighbours(s, box):
            nc = (cost[0] + 1, cost[1] + name.endswith("-"))
            if nc < best.get(t, (_UNSEEN, 0)):
                best[t] = nc
                heapq.heappush(heap, (nc, t))
    return None


def box_states(box):
    return [(j, a, b) for j in range(box + 1)
            for a in range(-box, box + 1) for b in range(a, box + 1)]


def test_state_validation():
    with pytest.raises(ValueError):
        LatticeState(-1, -1, 1)
    with pytest.raises(ValueError):
        LatticeState(0, 2, 0)
    with pytest.raises(ParityError):
        LatticeState(1, 0, 2)
    LatticeState(1, -1, 3)


def test_negative_range_or_margin_rejected():
    with pytest.raises(ValueError, match="range must be nonnegative"):
        exhaustive_check(-1)
    with pytest.raises(ValueError, match="margin must be nonnegative"):
        exhaustive_check(2, margin=-9)


def test_apply_examples():
    assert apply_move(LatticeState(0, -2, -2), "F3+") == LatticeState(0, 0, 0)
    assert apply_move(LatticeState(2, 0, 2), "G1-") == LatticeState(1, -1, 1)
    assert apply_move(LatticeState(0, 0, 0), "F1+") is None  # smin would pass smax
    assert apply_move(LatticeState(0, 0, 0), "G1-") is None  # j would go negative


def test_move_table_is_complete():
    assert len(MOVES) == 10
    assert set(MOVES) == {"F1-", "F2-", "F3-", "F1+", "F2+", "F3+",
                          "G1-", "G2-", "G1+", "G2+"}


def test_f_and_g_moves_commute():
    # all moves are translations; when both orders stay in the lattice the
    # results agree
    states = [LatticeState(j, a, b)
              for j in range(0, 5) for a in range(-4, 5) for b in range(a, 5)
              if (a - j) % 2 == 0 and (b - j) % 2 == 0]
    fmoves = [m for m in MOVES if m.startswith("F")]
    gmoves = [m for m in MOVES if m.startswith("G")]
    for s in states:
        for f in fmoves:
            for g in gmoves:
                fg = apply_move(s, f)
                fg = apply_move(fg, g) if fg else None
                gf = apply_move(s, g)
                gf = apply_move(gf, f) if gf else None
                if fg is not None and gf is not None:
                    assert fg == gf


def test_minimal_moves_examples():
    r = minimal_moves(LatticeState(2, 0, 2))
    assert r.total == 3
    assert (r.min_negative_to_positive, r.min_positive_to_negative) == (2, 1)

    r = minimal_moves(LatticeState(3, 1, 13))
    assert r.total == 9
    assert (r.min_negative_to_positive, r.min_positive_to_negative) == (8, 1)

    r = minimal_moves(LatticeState(0, 0, 0))
    assert r.total == 0 and r.witness == ()


def test_witness_is_a_valid_path():
    start = LatticeState(3, -1, 5)
    r = minimal_moves(start)
    s = start
    for move in r.witness:
        s = apply_move(s, move)
        assert s is not None
    assert s == LatticeState(0, 0, 0)
    assert len(r.witness) == r.total
    n = sum(1 for m in r.witness if m.endswith("-"))
    p = r.total - n
    assert n >= r.min_negative_to_positive
    assert p >= r.min_positive_to_negative
    assert r.lex_split[0] + r.lex_split[1] == r.total


def test_exhaustive_small_ranges():
    rep = exhaustive_check(0)
    assert rep.states_checked == 1 and rep.ok

    rep = exhaustive_check(8)
    assert rep.ok, rep.mismatches
    assert rep.states_checked > 300


def test_exhaustive_agrees_with_per_state_search():
    rep = exhaustive_check(4)
    assert rep.ok
    for j in range(0, 5):
        for a in range(-4, 5):
            if (a - j) % 2:
                continue
            for b in range(a, 5):
                if (b - j) % 2:
                    continue
                from knotsig.bounds import FactorInvariants, signed_bounds, unknotting_bound

                r = minimal_moves(LatticeState(j, a, b))
                f = FactorInvariants((), j, 2 * a, 2 * b)
                assert r.total == unknotting_bound(f)
                sb = signed_bounds(f)
                assert r.min_negative_to_positive == sb.negative_to_positive
                assert r.min_positive_to_negative == sb.positive_to_negative


def test_margin_stability():
    a = exhaustive_check(6, margin=4)
    b = exhaustive_check(6, margin=8)
    assert a.ok and b.ok
    assert a.states_checked == b.states_checked


def test_mutation_detected():
    # an off-by-one formula must be caught, with (1, 1, 1) among the witnesses
    def broken_total(j, smin, smax):
        from knotsig.bounds import FactorInvariants, unknotting_bound

        return unknotting_bound(FactorInvariants((), j, 2 * smin, 2 * smax)) + (
            1 if (j, smin, smax) == (1, 1, 1) else 0)

    rep = exhaustive_check(4, total_formula=broken_total)
    assert not rep.ok
    assert any(m.state == (1, 1, 1) and m.kind == "total" for m in rep.mismatches)


def test_report_dict():
    rep = exhaustive_check(2)
    d = rep.to_dict()
    assert d["ok"] is True
    assert d["mismatch_count"] == 0
    assert d["states_checked"] == rep.states_checked


@pytest.mark.parametrize("box", range(11))
def test_grid_sweeps_match_reference(box):
    grid = _Grid(box)
    origin = grid.index(0, 0, 0)
    for sign in (None, "-", "+"):
        ref = reference_sweep((0, 0, 0), box, sign)
        dist = _sweep(grid, origin, sign or "")[0]
        for s in box_states(box):
            assert dist[grid.index(*s)] == ref.get(s, _UNSEEN), (s, sign)


def test_minimal_moves_match_reference():
    checked = 0
    for j, a, b in box_states(4):
        if (a - j) % 2 or (b - j) % 2:
            continue
        start = (j, a, b)
        box = max(j, -a, b) + 6 if start != (0, 0, 0) else 6
        r = minimal_moves(LatticeState(j, a, b))
        assert r.total == reference_sweep(start, box)[(0, 0, 0)], start
        assert r.min_negative_to_positive == reference_sweep(start, box, "-")[(0, 0, 0)]
        assert r.min_positive_to_negative == reference_sweep(start, box, "+")[(0, 0, 0)]
        total, n = reference_lex(start, (0, 0, 0), box)
        assert r.lex_split == (n, total - n), start
        checked += 1
    assert checked == 65


def test_exhaustive_check_without_margin():
    rep = exhaustive_check(0, margin=0)
    assert rep.states_checked == 1 and rep.ok
