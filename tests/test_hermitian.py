import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from conftest import (MIXED_SUMS, float_signature, float_signature_at_angle, mixed_sum,
                      plateau_blocks, plateau_samples, random_sample_points,
                      random_seifert_matrices, reference_eliminate, sparse)
from knotsig import intpoly as ip
from knotsig.errors import SingularSampleError
from knotsig.expressions import resolve
from knotsig import plan as plan_module
from knotsig.hermitian import (IntPairOrder, ScaledOrder, _eliminate, _trace_signs,
                               hermitian_rows, signature_at_root, signature_at_sample,
                               signature_triple, signatures_at_roots, signatures_at_samples,
                               symmetric_signature)
from knotsig.plan import record, replay
from knotsig.knot_table import knot_names, lookup
from knotsig.seifert import SeifertMatrix, alexander_polynomial, connected_sum
from knotsig.sturm import RealRoot, isolate_real_roots


def test_trefoil_near_minus_one():
    V = lookup("3_1").rows
    assert signature_at_sample(sparse(V), Fraction(-199, 100)) == -2


def test_cinquefoil_plateaus():
    # z = 0 is t = 1/4, on the middle plateau between the phi_10 breakpoints;
    # past the second breakpoint the value reaches -4
    V = lookup("5_1").rows
    assert signature_at_sample(sparse(V), Fraction(0)) == -2
    assert signature_at_sample(sparse(V), Fraction(-19, 10)) == -4


def test_vanishes_near_one():
    for name in ("3_1", "5_1", "8_2", "10_132"):
        V = lookup(name).rows
        assert signature_at_sample(sparse(V), Fraction(199, 100)) == 0


def test_singular_sample_raises():
    V = lookup("3_1").rows
    with pytest.raises(SingularSampleError):
        signature_at_sample(sparse(V), Fraction(1))  # z = 1 is the phi_6 trace root


def test_empty_matrix():
    assert signature_at_sample([], Fraction(1, 3)) == 0


def test_matches_float_oracle_on_table():
    for name in ("3_1", "4_1", "5_1", "7_4", "8_2", "8_20", "10_132", "11n6"):
        V = lookup(name).rows
        for z in random_sample_points(25, seed=hash(name) % (2**31)):
            try:
                exact = signature_at_sample(sparse(V), z)
            except SingularSampleError:
                continue
            assert exact == float_signature(V, float(z)), (name, z)


def _check_symmetric_signature(M):
    import numpy as np

    n = len(M)
    pos, neg, null = symmetric_signature(sparse(M))
    assert pos + neg + null == n
    eigs = np.linalg.eigvalsh(np.array(M, dtype=float))
    fpos = int((eigs > 1e-9).sum())
    fneg = int((eigs < -1e-9).sum())
    if null == int((abs(eigs) <= 1e-9).sum()):
        assert (pos, neg) == (fpos, fneg)


def test_symmetric_signature_cross_check():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                M[i][j] = M[j][i] = rng.randint(-4, 4)
        _check_symmetric_signature(M)
    # sparse zero diagonals: the pivot repair runs over Z (test_repair_fuzz
    # counts the repairs that follow pivots)
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(2, 9)
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                M[i][j] = M[j][i] = rng.choice((0, 0, 0, -1, 1))
        _check_symmetric_signature(M)


def test_zero_matrix_is_all_nullity():
    assert symmetric_signature(sparse([[0, 0], [0, 0]])) == (0, 0, 2)
    # hyperbolic plane: signature 0, no nullity
    assert symmetric_signature(sparse([[0, 1], [1, 0]])) == (1, 1, 0)


def test_nonbalanced_slice_example():
    # 8_20 at the sixth root of unity: the singular matrix has signature 1
    V = lookup("8_20").rows
    root = isolate_real_roots((-1, 1), Fraction(-2), Fraction(2))[0]
    s, null = signature_at_root(sparse(V), (-1, 1), root)
    assert s == 1
    assert null >= 1


def test_nonbalanced_cancels_for_mirror_sum():
    V = resolve("3_1 # -3_1").rows
    root = isolate_real_roots((-1, 1), Fraction(-2), Fraction(2))[0]
    s, null = signature_at_root(sparse(V), (-1, 1), root)
    assert s == 0
    assert null == 2


def test_nonsingular_point_signature_matches_sample():
    # at a circle point where Delta does not vanish (z = 1 is no root of the
    # phi_10 trace), the honest signature equals the step-function value
    V = lookup("5_1").rows
    root = isolate_real_roots((-1, 1), Fraction(-2), Fraction(2))[0]  # t = 1/6
    s, null = signature_at_root(sparse(V), (-1, 1), root)
    assert null == 0
    assert s == signature_at_sample(sparse(V), Fraction(1))


def test_signature_at_algebraic_root_vs_float():
    import math

    V = resolve("8_2 # -5_1").rows
    # the delta_3 trace factor z^3 - 3z^2 + 3 has two roots in (-2, 2)
    roots = isolate_real_roots((3, 0, -3, 1), Fraction(-2), Fraction(2))
    assert len(roots) == 2
    for r in roots:
        r.refine_below(Fraction(1, 10**9))
        s, null = signature_at_root(sparse(V), (3, 0, -3, 1), r)
        t = math.acos(float(r.mid) / 2) / (2 * math.pi)
        fs, fnull = float_signature_at_angle(V, t)
        assert (s, null) == (fs, fnull)


def test_blocks():
    assert resolve("3_1 # 4_1").indices == ((0, 1), (2, 3))


def test_random_braid_closures_vs_float():
    from knotsig.braids import BraidWord, seifert_from_braid

    rng = random.Random(314)
    produced = 0
    while produced < 25:
        n = rng.randint(2, 4)
        word = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                     for _ in range(rng.randint(n, 10)))
        b = BraidWord(n, word)
        if not b.closure_is_knot():
            continue
        V = seifert_from_braid(b).rows
        for z in random_sample_points(6, seed=997 * produced + 5):
            try:
                exact = signature_at_sample(sparse(V), z)
            except SingularSampleError:
                continue
            approx = float_signature(V, float(z))
            if approx is not None:
                assert exact == approx, (word, z)
        produced += 1


def test_randomized_breakpoint_signatures_vs_float():
    import math

    from knotsig.seifert import connected_sum

    rng = random.Random(2026)
    names = ("3_1", "4_1", "5_1", "7_4", "8_2", "8_20", "10_132", "11n6")
    traces = {
        "phi6": (-1, 1),            # t = 1/6
        "phi10": (-1, -1, 1),       # t = 1/10, 3/10
        "delta3": (3, 0, -3, 1),    # the 8_2 / 11n6 factor
        "phi12": (-3, 0, 1),        # z^2 - 3: t = 1/12 (not in any table Delta)
    }
    for _ in range(20):
        V = lookup(rng.choice(names))
        for _ in range(rng.randint(0, 2)):
            other = lookup(rng.choice(names))
            if rng.random() < 0.5:
                other = other.mirror()
            V = connected_sum(V, other)
        qname = rng.choice(sorted(traces))
        q = traces[qname]
        roots = isolate_real_roots(q, Fraction(-2), Fraction(2))
        for r in roots:
            r.refine_below(Fraction(1, 10**9))
            s, null = signature_at_root(sparse(V.rows), q, r)
            t = math.acos(float(r.mid) / 2) / (2 * math.pi)
            fs, fnull = float_signature_at_angle(V.rows, t)
            assert (s, null) == (fs, fnull), (qname, float(r.mid))


def test_repair_path_small_hermitian():
    # at z = 0 (omega = i) the form [[0, w],[conj(w), 0]] needs the repair step
    order = IntPairOrder(Fraction(0))
    w = (0, 1)
    A = {0: {1: (0, w)}, 1: {0: (0, order.conj(w))}}
    pos, neg, null = signature_triple(A, order)
    assert (pos, neg, null) == (1, 1, 0)


@pytest.mark.parametrize("q", [(-1, -1, 1), (3, 0, -3, 1), (-1, 0, 2), (1, -5, 0, 3),
                               (1, 3, -3, -4, 1, 1)])
def test_real_inverse_is_an_inverse(q):
    # the trace of Phi_10, the 8_2 factor, two non-monic orders (scaled
    # zhat = l*z), and the degree-5 trace of Phi_11
    order = ScaledOrder(q)
    rng = random.Random(sum(q) * 7919 + len(q))
    for bits in (2, 20, 200):
        for _ in range(15):
            d = ip.trim(tuple(rng.randint(-2**bits, 2**bits) for _ in range(order.m)))
            if not d:
                continue
            num, den = order.real_inverse(d)
            assert len(num) <= order.m and den != 0
            assert order.reduce(ip.mul(d, num)) == (den,), (q, d)


def test_signatures_at_roots_follow_root_order():
    V = resolve("8_2 # -5_1").rows
    q = (3, 0, -3, 1)
    roots = isolate_real_roots(q, Fraction(-2), Fraction(2))
    one_by_one = [signature_at_root(sparse(V), q, r) for r in roots]
    assert signatures_at_roots(sparse(V), q, roots) == one_by_one
    assert signatures_at_roots(sparse(V), q, roots[::-1]) == one_by_one[::-1]
    assert signatures_at_roots(sparse(V), q, []) == []
    assert signatures_at_roots([], q, roots) == [(0, 0), (0, 0)]


RESTART_V = [[-1, 1, 0, 0, 0], [0, -1, 2, 2, 2], [2, 0, -4, -3, -3], [2, 0, -3, -4, -3],
             [2, 0, -3, -3, -4]]


def _logged(order):
    """(order, points): order now appends to points, at each repair it makes,
    the number of pivots before it.  The kernel calls mul only to repair
    and real_inverse once per pivot; a repair calls mul several times, and
    a pivot always follows it, so calls between two pivots are one repair."""
    points, made = [], [0]
    mul, inverse = order.mul, order.real_inverse

    def logged_mul(x, y):
        if not points or points[-1] != made[0]:
            points.append(made[0])
        return mul(x, y)

    def logged_inverse(d):
        made[0] += 1
        return inverse(d)

    order.mul, order.real_inverse = logged_mul, logged_inverse
    return order, points


def test_repair_after_pivots_signs_per_root():
    # V = P (V_3_1 + W) P^T: the trefoil block plus a 3x3 block W with zero
    # diagonal and signature -1, mixed by a unimodular P.  After the two
    # trefoil pivots, z - 2 and 4 - 3z, the active block is W scaled by the
    # last pivot, so the elimination repairs it in place.  At z^2 = 2
    # (t = 3/8 and 1/8) that pivot is positive at z = -sqrt 2 and negative
    # at z = sqrt 2, so the repaired pivot's step sign differs by root.
    import math

    V = RESTART_V
    q = (-2, 0, 1)
    roots = isolate_real_roots(q, Fraction(-2), Fraction(2))
    order, points = _logged(ScaledOrder(q))
    trace = _eliminate(hermitian_rows(sparse(V), order), order)
    assert trace == reference_eliminate(hermitian_rows(sparse(V), order), ScaledOrder(q))
    assert trace.pivots[:2] == ((-2, 1), (4, -3)) and points == [2]
    assert len(trace.pivots) == 5 and trace.null == 0
    assert [order.real_sign(trace.pivots[1], r) for r in roots] == [1, -1]
    got = signatures_at_roots(sparse(V), q, roots)
    assert got == [(-3, 0), (-1, 0)]
    for r, sig in zip(roots, got):
        r.refine_below(Fraction(1, 10**9))
        t = math.acos(float(r.mid) / 2) / (2 * math.pi)
        assert sig == float_signature_at_angle(V, t), float(r.mid)


def test_one_scaled_order_per_call(monkeypatch):
    # the ring is per trace polynomial, the embedding per root: the two
    # roots of z^2 - 2 share one ScaledOrder
    made = []
    init = ScaledOrder.__init__

    def counted(self, q):
        made.append(q)
        init(self, q)

    monkeypatch.setattr(ScaledOrder, "__init__", counted)
    q = (-2, 0, 1)
    roots = isolate_real_roots(q, Fraction(-2), Fraction(2))
    assert signatures_at_roots(sparse(RESTART_V), q, roots) == [(-3, 0), (-1, 0)]
    assert made == [q]


def _float_triple(V, z: Fraction, gap: float = 1e-6):
    """(pos, neg, 0) of the hermitian matrix at z by eigvalsh, or None when
    some eigenvalue is within gap of zero."""
    import numpy as np

    w = complex(float(z) / 2, (1 - float(z) ** 2 / 4) ** 0.5)
    A = np.array(V, dtype=float)
    eigs = np.linalg.eigvalsh((1 - w) * A + (1 - w.conjugate()) * A.T)
    if np.abs(eigs).min() <= gap:
        return None
    return int((eigs > 0).sum()), int((eigs < 0).sum()), 0


def test_int_pair_ring_matches_eigenvalues():
    # arbitrary integer matrices, half of them with a zero diagonal (so the
    # hermitian diagonal vanishes and the repair runs), at random rational z
    rng = random.Random(5)
    compared = 0
    for trial in range(300):
        n = rng.randint(1, 12)
        V = [[rng.randint(-3, 3) if rng.random() < 0.6 else 0 for _ in range(n)]
             for _ in range(n)]
        if trial % 2:
            for i in range(n):
                V[i][i] = 0
        den = rng.randint(1, 40)
        z = Fraction(rng.randint(-2 * den + 1, 2 * den - 1), den)
        order = IntPairOrder(z)
        got = signature_triple(hermitian_rows(sparse(V), order), order)
        assert sum(got) == n
        want = _float_triple(V, z)
        if want is not None:
            assert got == want, (V, z)
            compared += 1
    assert compared > 200


@pytest.mark.parametrize("z", [Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(7, 5),
                               Fraction(-19, 10), Fraction(0), Fraction(6, 5), Fraction(-30, 17),
                               Fraction(528, 265), Fraction(-4230, 2117)])
def test_int_pair_ring_off_and_on_the_circle_points(z):
    # the ring is Z[sqrt(-D)] with D = 4l^2 - zhat^2 and entries
    # (p(a + b), s(b - a)), p = 2l - zhat, s = 1, where D is no square (the
    # first five: D = 3, 3, 35, 51, 39), and the Gaussian integers with
    # p : s = (2l - zhat) : sqrt(D) in lowest terms at the rational points
    # of the circle; seeded forms against eigenvalues, zero diagonals
    # (repairs) included
    zhat, l = z.numerator, z.denominator
    D = 4 * l * l - zhat * zhat
    order = IntPairOrder(z)
    if isqrt(D) ** 2 == D:
        assert order.D == 1 and gcd(order.p, order.s) == 1
        assert order.p * isqrt(D) == order.s * (2 * l - zhat)
    else:
        assert (order.D, order.p, order.s) == (D, 2 * l - zhat, 1)
    rng = random.Random(z.numerator * 1009 + z.denominator)
    compared = 0
    for trial in range(120):
        n = rng.randint(1, 10)
        V = _sparse_matrix(rng, n) if trial % 2 else \
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        got = signature_triple(hermitian_rows(sparse(V), order), order)
        assert sum(got) == n
        want = _float_triple(V, z)
        if want is not None:
            assert got == want, (V, z)
            compared += 1
    assert compared >= 80, compared


def test_int_pair_ring_at_a_rational_root():
    # Delta = 5x^2 - 9x + 5 has trace polynomial 5z - 9: the circle point
    # z = 9/5 is a rational root, where the form is singular with nullity 1
    import math

    V = [[1, 1], [0, 5]]
    q = (-9, 5)
    root = RealRoot.exact(q, Fraction(9, 5))
    t = math.acos(0.9) / (2 * math.pi)
    assert signatures_at_roots(sparse(V), q, [root]) == [(1, 1)] == [float_signature_at_angle(V, t)]
    with pytest.raises(SingularSampleError):
        signature_at_sample(sparse(V), Fraction(9, 5))
    # summands nonsingular there add their signatures: 0 for the trefoil
    # (before its breakpoint z = 1), -2 for T(2,15) (past its first, t = 1/30)
    for other, want in (("3_1", (1, 1)), ("T(2,15)", (-1, 1))):
        VW = connected_sum(SeifertMatrix(V), resolve(other)).rows
        assert signatures_at_roots(sparse(VW), q, [root]) == [want] == \
            [float_signature_at_angle(VW, t)]


@pytest.mark.parametrize("z", [Fraction(-1, 2), Fraction(3, 2)])
def test_int_pair_ring_repairs_after_pivots(z):
    # the 5x5 matrix of the per-root repair test at rational points: after
    # the two trefoil pivots the active block has a zero diagonal, so the
    # elimination repairs it in place; the last pivot before the repair is
    # positive at z = -1/2 and negative at z = 3/2
    order, points = _logged(IntPairOrder(z))
    B = sparse(RESTART_V)
    trace = _eliminate(hermitian_rows(B, order), order)
    assert trace == reference_eliminate(hermitian_rows(B, order), IntPairOrder(z))
    assert points == [2] and len(trace.pivots) == 5
    assert order.real_sign(trace.pivots[1]) == (1 if z < 1 else -1)
    assert _trace_signs(trace, order) == _float_triple(RESTART_V, z)


def test_int_pair_order_rejects_samples_off_the_circle():
    for z in (Fraction(-2), Fraction(2), Fraction(5, 2)):
        with pytest.raises(ValueError, match=r"sample must lie strictly inside \(-2, 2\)"):
            IntPairOrder(z)


def _sparse_matrix(rng, n):
    """An n x n integer matrix whose entries, diagonal ones rarely, are
    mostly zero."""
    return [[rng.choice((-2, -1, 1, 2)) if rng.random() < (0.2 if i == j else 0.4) else 0
             for j in range(n)] for i in range(n)]


def _repairs_after_pivots(trace, points, sign):
    """(1 if a repair followed a pivot, 1 if one followed a negative pivot)."""
    after = [k for k in points if k > 0]
    return bool(after), any(sign(trace.pivots[k - 1]) < 0 for k in after)


def test_repair_fuzz():
    # the in-place repair over all three uses of the kernel, against
    # eigenvalues and the reference kernel: symmetric integer matrices over
    # Z, hermitian forms at rational z over the int-pair ring, and at the
    # roots of irreducible trace polynomials over ScaledOrder, the
    # non-monic 2z^2 - 1 included
    import math

    import numpy as np

    rng = random.Random(15)
    counts = {"symmetric": [0, 0], "int pair": [0, 0], "scaled": [0, 0]}

    def tally(kind, trace, points, sign):
        for k, hit in enumerate(_repairs_after_pivots(trace, points, sign)):
            counts[kind][k] += hit

    for _ in range(3000):
        n = rng.randint(2, 9)
        V = _sparse_matrix(rng, n)
        M = [[V[i][j] + V[j][i] for j in range(n)] for i in range(n)]
        order, points = _logged(IntPairOrder(Fraction(0)))
        rows = {i: {j: (0, (c, 0)) for j, c in enumerate(row) if c} for i, row in enumerate(M)}
        reference = reference_eliminate(rows, IntPairOrder(Fraction(0)))
        trace = _eliminate(rows, order)
        assert trace == reference, M
        got = _trace_signs(trace, order)
        eigs = np.linalg.eigvalsh(np.array(M, dtype=float))
        assert got == symmetric_signature(sparse(M)) == (
            int((eigs > 1e-9).sum()), int((eigs < -1e-9).sum()),
            int((abs(eigs) <= 1e-9).sum())), M
        tally("symmetric", trace, points, order.real_sign)

    for _ in range(4000):
        n = rng.randint(2, 9)
        V = _sparse_matrix(rng, n)
        den = rng.randint(1, 12)
        z = Fraction(rng.randint(-2 * den + 1, 2 * den - 1), den)
        order, points = _logged(IntPairOrder(z))
        B = sparse(V)
        trace = _eliminate(hermitian_rows(B, order), order)
        assert trace == reference_eliminate(hermitian_rows(B, order), IntPairOrder(z)), (V, z)
        pos, neg, null = _trace_signs(trace, order)
        t = math.acos(float(z) / 2) / (2 * math.pi)
        assert (pos - neg, null) == float_signature_at_angle(V, t), (V, z)
        tally("int pair", trace, points, order.real_sign)

    traces = ((-1, 0, 2), (-2, 0, 1), (-1, -1, 1), (3, 0, -3, 1), (1, -5, 0, 3))
    roots = {q: isolate_real_roots(q, Fraction(-2), Fraction(2)) for q in traces}
    for q in traces:
        for r in roots[q]:
            r.refine_below(Fraction(1, 10**12))
    for _ in range(600):
        n = rng.randint(2, 8)
        V = _sparse_matrix(rng, n)
        q = rng.choice(traces)
        order, points = _logged(ScaledOrder(q))
        B = sparse(V)
        trace = _eliminate(hermitian_rows(B, order), order)
        assert trace == reference_eliminate(hermitian_rows(B, order), ScaledOrder(q)), (V, q)
        for r in roots[q]:
            pos, neg, null = _trace_signs(trace, order, r)
            t = math.acos(float(r.mid) / 2) / (2 * math.pi)
            assert (pos - neg, null) == float_signature_at_angle(V, t), (V, q, float(r.mid))
            tally("scaled", trace, points, lambda d: order.real_sign(d, r))
    # seed 15 counts 216/177, 264/232 and 94/90 (the scaled ones per root)
    assert all(after >= 60 and negative >= 60 for after, negative in counts.values()), counts


def _assert_reference_at_samples(V):
    """The kernel's PivotTrace equals the reference kernel's at every
    plateau sample of V."""
    for B, z in plateau_samples(V):
        order = IntPairOrder(z)
        assert _eliminate(hermitian_rows(B, order), order) == \
            reference_eliminate(hermitian_rows(B, order), IntPairOrder(z)), (B, z)


def _trace_ring(q):
    """A fresh order for the trace polynomial q, as signatures_at_roots
    picks it."""
    return IntPairOrder(Fraction(-q[0], q[1])) if len(q) == 2 else ScaledOrder(q)


def test_traces_match_reference_on_table():
    # every table knot at its plateau samples, and over the order of each
    # breakpoint's trace polynomial
    from knotsig.signature import breakpoint_candidates

    for name in knot_names():
        V = lookup(name)
        _assert_reference_at_samples(V)
        for bf in breakpoint_candidates(alexander_polynomial(V)):
            q = bf.roots[0].trace
            for B in V.blocks:
                order = _trace_ring(q)
                assert _eliminate(hermitian_rows(B, order), order) == \
                    reference_eliminate(hermitian_rows(B, order), _trace_ring(q)), (name, q)


@pytest.mark.parametrize("expr", ["T(3,10) # -T(2,15) # -T(5,6)", "T(5,11)", "T(2,31)",
                                  "T(3,16)"])
def test_traces_match_reference_on_torus_plateaus(expr):
    # the plateau samples of the benchmark's torus_plateaus knots
    _assert_reference_at_samples(resolve(expr))


# ---- plans: one recorded elimination per block, replayed at its other samples

def _replays_at_samples(V) -> list:
    """Check every plateau sample of V after its block's first: the block's
    plan replays to _eliminate's PivotTrace there, and falls back exactly
    where _eliminate makes other ring calls than at the first sample (a plan
    recorded at that sample has other ops).  The recording run's own trace
    is _eliminate's too.  Returns the (block, z) that fell back."""
    fell_back = []
    for B, samples in plateau_blocks(V):
        first = IntPairOrder(samples[0])
        trace, plan = record(B, IntPairOrder(samples[0]))
        assert trace == _eliminate(hermitian_rows(B, first), first), (B, samples[0])
        for z in samples[1:]:
            order = IntPairOrder(z)
            got = replay(plan, order)
            assert (got is None) == (record(B, IntPairOrder(z))[1].ops != plan.ops), (B, z)
            if got is None:
                fell_back.append((B, z))
            else:
                assert got == _eliminate(hermitian_rows(B, order), order), (B, z)
    return fell_back


def test_replays_match_kernel_on_table():
    for name in knot_names():
        assert _replays_at_samples(lookup(name)) == [], name


@pytest.mark.parametrize("expr,fallbacks", [
    ("T(3,10) # -T(2,15) # -T(5,6)", []), ("T(5,11)", []), ("T(2,31)", []),
    ("T(3,16)", [Fraction(0)]),
    ("T(4,9)", [Fraction(0)]), ("T(3,11)", []), ("T(5,6)", []), ("T(2,21)", [])])
def test_replays_match_kernel_on_torus_workloads(expr, fallbacks):
    # the knots of the benchmark's torus_plateaus and torus_nonbalanced
    assert [z for _B, z in _replays_at_samples(resolve(expr))] == fallbacks


def test_replays_match_kernel_on_random_matrices():
    for V in random_seifert_matrices(60, seed=20):
        _replays_at_samples(V)


@pytest.mark.parametrize("expr", MIXED_SUMS)
def test_replays_match_kernel_on_congruent_sums(expr):
    # one dense block each, where entries cancel at many samples
    _replays_at_samples(mixed_sum(expr)[1])


@pytest.mark.parametrize("expr,z", [("T(3,16)", Fraction(0)), ("T(4,9)", Fraction(0))])
def test_fallback_gives_reference_signature(monkeypatch, expr, z):
    # the sample's entries cancel, so its replay stops and _eliminate runs
    (B, samples), = plateau_blocks(resolve(expr))
    assert z in samples[1:]
    replays = {}

    def spy(plan, order):
        replays[order.z] = out = replay(plan, order)
        return out

    monkeypatch.setattr(plan_module, "replay", spy)
    got = signatures_at_samples(B, samples)
    assert [w for w, out in replays.items() if out is None] == [z]
    for w, sig in zip(samples, got):
        order = IntPairOrder(w)
        pos, neg, null = _trace_signs(reference_eliminate(hermitian_rows(B, order), order), order)
        assert (sig, null) == (pos - neg, 0), w


def test_plan_dropped_after_two_fallbacks_in_a_row(monkeypatch):
    # the congruent one-block T(3,4) # T(3,4) cancels its own way at each of
    # these samples, one in each of its 4 plateaus: its 2nd and 3rd samples
    # fall back, so the 4th is not replayed
    (B, plateau), = plateau_blocks(mixed_sum("T(3,4) # T(3,4)")[1])
    samples = [Fraction(15, 8), Fraction(5, 4), Fraction(-1, 4), Fraction(-15, 8)]
    assert len(samples) == len(plateau) == 4
    replays = []

    def spy(plan, order):
        replays.append(out := replay(plan, order))
        return out

    monkeypatch.setattr(plan_module, "replay", spy)
    got = signatures_at_samples(B, samples)
    assert replays == [None, None]
    assert got == [signature_at_sample(B, z) for z in plateau]
    for w, sig in zip(samples, got):
        order = IntPairOrder(w)
        pos, neg, null = _trace_signs(reference_eliminate(hermitian_rows(B, order), order), order)
        assert (sig, null) == (pos - neg, 0), w


def test_few_samples_build_no_plan(monkeypatch):
    # a block plans from three breakpoints of its own on: a list of n
    # samples walks across n - 1 roots, and step_function counts each
    # block's own roots, whatever the other blocks add
    from knotsig.signature import step_function

    made = []

    def spy(V, order):
        made.append(len(V))
        return record(V, order)

    monkeypatch.setattr(plan_module, "record", spy)
    B = sparse(lookup("5_1").rows)
    assert signatures_at_samples(B, [Fraction(0)]) == [-2]
    assert signature_at_sample(B, Fraction(-19, 10)) == -4
    step_function(lookup("4_1"))  # no circle roots: one sample
    assert signatures_at_samples(B, [Fraction(0), Fraction(-19, 10), Fraction(19, 10)]) == \
        [-2, -4, 0]
    step_function(resolve("T(2,5) # 3_1"))  # 2 and 1 own roots of 3
    assert made == []
    assert signatures_at_samples(B, [Fraction(0), Fraction(-19, 10), Fraction(19, 10),
                                     Fraction(1, 2)]) == [-2, -4, 0, -2]
    assert made == [4]
    step_function(resolve("T(2,7) # 3_1"))  # 3 and 1 own roots of 4
    assert made == [4, 6]


@pytest.mark.parametrize("samples", [
    [Fraction(1), Fraction(0), Fraction(-1), Fraction(3, 2)],
    [Fraction(0), Fraction(-1), Fraction(3, 2), Fraction(1)]])
def test_singular_sample_raises_with_a_plan(samples):
    # z = 1 is the phi_6 trace root of the trefoil, whether recorded or replayed
    with pytest.raises(SingularSampleError):
        signatures_at_samples(sparse(lookup("3_1").rows), samples)


def test_replay_fuzz():
    # plans of sparse random forms, repairs included, replayed at two more
    # rational samples: each replay is _eliminate's trace or a fallback
    # where _eliminate's ring calls differ
    rng = random.Random(21)
    counts = {"replayed": 0, "after a repair": 0, "fell back": 0}
    for _ in range(600):
        V = sparse(_sparse_matrix(rng, rng.randint(2, 9)))
        samples = []
        for _ in range(3):
            den = rng.randint(1, 12)
            samples.append(Fraction(rng.randint(-2 * den + 1, 2 * den - 1), den))
        plan = record(V, IntPairOrder(samples[0]))[1]
        for z in samples[1:]:
            order = IntPairOrder(z)
            got = replay(plan, order)
            assert (got is None) == (record(V, IntPairOrder(z))[1].ops != plan.ops), (V, z)
            if got is None:
                counts["fell back"] += 1
                continue
            assert got == _eliminate(hermitian_rows(V, order), order), (V, z)
            counts["replayed"] += 1
            counts["after a repair"] += any(op[0] == plan_module._ADD for op in plan.ops)
    # seed 21 counts 1090 replays, 369 of them after a repair, and 110 fallbacks
    assert counts["after a repair"] >= 200 and counts["fell back"] >= 50, counts
