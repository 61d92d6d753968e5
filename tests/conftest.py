"""Shared test helpers: a floating-point signature oracle, random expression
generation, and a Kronecker factorization oracle independent of the library's
Hensel-lifting path."""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from knotsig import intpoly as ip


def float_signature(V_rows, z: float, require_gap: bool = True) -> int | None:
    """Signature of (1-w)V + (1-conj(w))V^T by certified eigenvalue counts.

    Returns None when an eigenvalue sits too close to zero for the count to
    be certified (callers resample; the comparison only applies to points
    with certified separation).
    """
    n = len(V_rows)
    if n == 0:
        return 0
    V = np.array(V_rows, dtype=float)
    w = complex(z / 2, math.sqrt(max(0.0, 4 - z * z)) / 2)
    W = (1 - w) * V + (1 - w.conjugate()) * V.T
    eigs = np.linalg.eigvalsh(W)
    scale = max(1.0, float(np.abs(eigs).max()))
    gap = float(np.abs(eigs).min())
    if require_gap and gap <= 1e-8 * scale:
        return None
    return int(np.sum(eigs > 0) - np.sum(eigs < 0))


def float_signature_at_angle(V_rows, t: float, zero_tol: float = 1e-7) -> tuple[int, int]:
    """(signature, nullity) at omega = exp(2 pi i t), tolerating zeros."""
    n = len(V_rows)
    if n == 0:
        return 0, 0
    V = np.array(V_rows, dtype=float)
    w = np.exp(2j * np.pi * t)
    W = (1 - w) * V + (1 - np.conj(w)) * V.T
    eigs = np.linalg.eigvalsh(W)
    scale = max(1.0, float(np.abs(eigs).max()))
    null = int(np.sum(np.abs(eigs) <= zero_tol * scale))
    pos = int(np.sum(eigs > zero_tol * scale))
    neg = int(np.sum(eigs < -zero_tol * scale))
    return pos - neg, null


def eval_at(f, x):
    """f(x) by Horner's rule, for int, Fraction and complex x."""
    r = 0
    for c in reversed(f):
        r = r * x + c
    return r


_TABLE_NAMES = ("3_1", "4_1", "5_1", "7_4", "8_2", "8_20", "10_132", "11n6")


def random_expressions(count: int, seed: int = 20260811) -> list[str]:
    """Deterministic random connected-sum / mirror / multiple expressions."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(1, 3)
        parts = []
        for _ in range(k):
            name = rng.choice(_TABLE_NAMES)
            piece = name
            if rng.random() < 0.25:
                piece = f"2*{piece}"
            if rng.random() < 0.5:
                piece = f"-{piece}"
            parts.append(piece)
        out.append(" # ".join(parts))
    return out


def random_seifert_matrices(count: int, seed: int, max_size: int = 12,
                            entries: int = 2) -> list:
    """Seeded Seifert matrices V = S + U of even sizes up to max_size: S is
    symmetric with entries in [-entries, entries] and U the upper half of
    the standard symplectic form, so det(V - V^T) = 1 (the benchmark
    generator's shape, without its filters)."""
    from knotsig.seifert import SeifertMatrix

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = 2 * rng.randint(1, max_size // 2)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-entries, entries)
        for i in range(0, n, 2):
            rows[i][i + 1] += 1
        out.append(SeifertMatrix(rows))
    return out


# sums K # K and K # J whose summands congruent() merges into one block
MIXED_SUMS = ("2*3_1", "3_1 # 4_1", "2*T(2,5)", "T(3,4) # T(3,4)", "2*8_20")


def mixed_sum(expr: str):
    """(V, W): the resolved sum and a congruent copy with one block."""
    from knotsig.expressions import resolve

    V = resolve(expr)
    return V, congruent(V, seed=len(expr) * 101 + V.size)


def congruent(V, seed: int):
    """P V P^T for a unimodular P, a product of random elementary operations
    E = I + c e_i e_j^T (row i += c row j, then column i += c column j)."""
    from knotsig.seifert import SeifertMatrix

    rng = random.Random(seed)
    n = V.size
    rows = [list(r) for r in V.rows]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        for r in rows:
            r[i] += c * r[j]
    return SeifertMatrix(rows)


def random_sample_points(count: int, seed: int) -> list[Fraction]:
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        num = rng.randint(-1999, 1999)
        den = rng.choice([1000, 1009, 997])
        z = Fraction(num, den)
        if -2 < z < 2:
            pts.append(z)
    return pts


# ---- Kronecker factor search: an independent irreducibility oracle ----

def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.update((d, n // d, -d, -(n // d)))
    return sorted(out)


def kronecker_has_factor(f, max_degree: int | None = None) -> bool:
    """True when the primitive integer polynomial f has a nonconstant proper
    factor, found by interpolating through divisor tuples of its values."""
    n = ip.degree(f)
    if n <= 1:
        return False
    top = max_degree if max_degree is not None else n // 2
    for d in range(1, top + 1):
        points = [0, 1, -1, 2, -2, 3, -3][: d + 1]
        values = [eval_at(f, x) for x in points]
        if any(v == 0 for v in values):
            return True  # rational root
        div_lists = [_divisors(v) for v in values]
        for combo in itertools.product(*div_lists):
            g = _interpolate_int(points, combo)
            if g is None or ip.degree(g) != d:
                continue
            if ip.is_zero(ip.pseudo_rem(f, g)):  # g | f over Q
                return True
    return False


# ---- Lucas-Pratt primality proofs: an oracle independent of Miller-Rabin ----

def _pollard_rho(n: int) -> int:
    """A nontrivial factor of the odd composite n (Floyd cycle finding)."""
    for c in itertools.count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return d
    raise AssertionError("unreachable")


def _prime_factors(m: int) -> set[int]:
    """The distinct prime factors of m >= 1, each proven by is_proven_prime."""
    out = set()
    for d in range(2, 1000):
        while m % d == 0:
            out.add(d)
            m //= d
    stack = [m] if m > 1 else []
    while stack:
        k = stack.pop()
        if is_proven_prime(k):
            out.add(k)
        else:
            d = _pollard_rho(k)
            stack += [d, k // d]
    return out


def is_proven_prime(n: int) -> bool:
    """Lucas's theorem: n > 2 is prime iff some a has a^(n-1) = 1 and
    a^((n-1)/q) != 1 mod n for every prime q dividing n - 1, which makes a
    a primitive root.  The factors of n - 1 are proven the same way, so a
    True is a Pratt certificate.  Small n go by trial division; a composite
    n fails Fermat's test for a small base unless it is a Carmichael number,
    where no witness exists and the search gives up."""
    if n < 10**6:
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))
    qs = None
    for a in range(2, 200):
        if pow(a, n - 1, n) != 1:
            return False
        if qs is None:
            qs = _prime_factors(n - 1)
        if all(pow(a, (n - 1) // q, n) != 1 for q in qs):
            return True
    return False


def _interpolate_int(points, values):
    coeffs = [Fraction(0)] * len(points)
    for i, xi in enumerate(points):
        basis = (Fraction(1),)
        den = Fraction(1)
        for j, xj in enumerate(points):
            if i != j:
                basis = ip.mul(basis, (Fraction(-xj), Fraction(1)))
                den *= xi - xj
        coeffs = ip.add(coeffs, ip.scale(basis, Fraction(values[i]) / den))
    coeffs = ip.trim(coeffs)
    if any(c.denominator != 1 for c in coeffs):
        return None
    return tuple(int(c) for c in coeffs)


# ---- dense references for the sparse Seifert code: the determinant, the
# blocks and the braid matrix as they were computed before the library kept
# a matrix as its nonzeros

def reference_int_det(M) -> int:
    """Exact integer determinant of dense rows (fraction-free Bareiss).

    Step k + 1 takes row i to (d_{k+1} * row_i - A[i][k] * row_k) / d_k, so
    a row whose column-k entry is 0 is only rescaled, by d_{k+1}/d_k.  These
    factors telescope, so such a row is not touched: it keeps the step t at
    which it was last updated, and is brought up by d_k/d_t only when it
    becomes the pivot row (swapped in or not), or when it next meets a
    pivot, in the one pass (d_{k+1} * row_i - A[i][k] * row_k) / d_t.
    """
    n = len(M)
    if n == 0:
        return 1
    A = [list(map(int, row)) for row in M]
    stamp, d, sign = [0] * n, [1], 1
    for k in range(n):
        if A[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if piv is None:
                return 0
            A[k], A[piv] = A[piv], A[k]
            stamp[k], stamp[piv] = stamp[piv], stamp[k]
            sign = -sign
        row_k, t = A[k], stamp[k]
        if t != k:
            dk, dt = d[k], d[t]
            row_k[k:] = [x * dk // dt for x in row_k[k:]]
        dp = row_k[k]
        d.append(dp)
        for i in range(k + 1, n):
            row = A[i]
            a = row[k]
            if a:
                dt = d[stamp[i]]
                row[k + 1:] = [(dp * x - a * y) // dt for x, y in zip(row[k + 1:], row_k[k + 1:])]
                stamp[i] = k + 1
    return sign * d[n]


def reference_blocks(V) -> tuple:
    """The block matrices of dense rows V: the components of the union of
    the supports of V and V^T by set operations over every pair."""
    todo, blocks = set(range(len(V))), []
    while todo:
        stack = [min(todo)]
        comp = set(stack)
        while stack:
            i = stack.pop()
            linked = {j for j in todo - comp if V[i][j] or V[j][i]}
            comp |= linked
            stack += linked
        todo -= comp
        blocks.append(sorted(comp))
    return tuple(tuple(tuple(V[i][j] for j in b) for i in b) for b in blocks)


def reference_braid_rows(b) -> list:
    """The dense Seifert matrix of a knotted braid closure, comparing every
    pair of its g loops."""
    occurrences: dict[int, list[tuple[int, int]]] = {}
    for t, s in enumerate(b.letters):
        occurrences.setdefault(abs(s) - 1, []).append((t, 1 if s > 0 else -1))

    # loop (i, j): through bands j and j+1 on generator index i
    gens = []
    for i in sorted(occurrences):
        occ = occurrences[i]
        for j in range(len(occ) - 1):
            (t1, e1), (t2, e2) = occ[j], occ[j + 1]
            gens.append((i, t1, t2, e1, e2))

    g = len(gens)
    V = [[0] * g for _ in range(g)]
    for a, (i, t1, t2, e1, e2) in enumerate(gens):
        if e1 == e2:
            V[a][a] = -e1  # two positive bands give a -1 framing
    for a, (ia, t1a, t2a, _e1a, e2a) in enumerate(gens):
        for c, (ic, t1c, t2c, _e1c, _e2c) in enumerate(gens):
            if a == c:
                continue
            if ia == ic and t2a == t1c:
                # consecutive loops sharing the middle band
                if e2a > 0:
                    V[c][a] = 1
                else:
                    V[a][c] = -1
            elif ic == ia + 1:
                # adjacent indices: only temporally interleaved loops link
                if t1c < t1a < t2c < t2a:
                    V[c][a] = 1
                elif t1a < t1c < t2a < t2c:
                    V[c][a] = -1
    return V


def nonzeros(rows) -> tuple:
    """The nonzeros of dense rows, one dict {column: entry} per row."""
    return tuple({j: c for j, c in enumerate(row) if c} for row in rows)


@pytest.fixture(scope="session")
def table_names():
    return _TABLE_NAMES


# ---- the shared property-suite corpus and check functions ----
# (used by both the property tests and the acceptance suite, computed once)

@pytest.fixture(scope="session")
def corpus():
    """(label, SeifertMatrix, SignatureFunction) for the table and 50 random
    connected-sum/mirror expressions."""
    from knotsig.expressions import resolve
    from knotsig.knot_table import lookup
    from knotsig.signature import step_function

    entries = []
    for name in _TABLE_NAMES:
        V = lookup(name)
        entries.append((name, V, step_function(V)))
    for expr in random_expressions(50):
        V = resolve(expr)
        entries.append((expr, V, step_function(V)))
    return entries


def check_parity_invariant(sf):
    """All jumps and balanced values at roots of one factor share parity."""
    for factor, _mult, bps in sf.factor_groups():
        parities = {bp.jump % 2 for bp in bps} | {(bp.balanced2 // 2) % 2 for bp in bps}
        assert len(parities) == 1, f"parity violated for factor {factor}"


def check_first_plateau_zero(sf):
    assert sf.plateaus[0] == 0
    assert all(p % 2 == 0 for p in sf.plateaus)


def negated(sf):
    """The step function with every plateau, jump and value negated: the
    mirror image's, by antisymmetry."""
    from knotsig.signature import Breakpoint, SignatureFunction

    return SignatureFunction(
        tuple(-p for p in sf.plateaus),
        tuple(Breakpoint(bp.root, bp.multiplicity, -bp.left, -bp.right, -bp.jump,
                         -bp.balanced2, None if bp.nonbalanced is None else -bp.nonbalanced)
              for bp in sf.breakpoints))


def check_mirror_antisymmetry(V, sf):
    from knotsig.signature import step_function

    mirrored = step_function(V.mirror())
    assert mirrored.summary() == negated(sf).summary()


def check_stabilization(V, sf):
    from knotsig.seifert import stabilize
    from knotsig.signature import step_function

    assert step_function(stabilize(V)).summary() == sf.summary()


def check_bound_chain(V):
    from knotsig.bounds import report_for_matrix

    rep = report_for_matrix(V, "corpus", include_nonbalanced=False)
    assert rep.u1 <= rep.u2 <= 2 * rep.u1, (rep.u1, rep.u2)
    assert rep.u2 >= max((f.u_factor for f in rep.factors), default=0)
    return rep


def check_np_mirror_duality(V):
    from knotsig.bounds import report_for_matrix

    a = report_for_matrix(V, "k", include_nonbalanced=False)
    b = report_for_matrix(V.mirror(), "-k", include_nonbalanced=False)
    fa = {f.invariants.factor: f.signed for f in a.factors}
    fb = {f.invariants.factor: f.signed for f in b.factors}
    assert set(fa) == set(fb)
    for factor, sa in fa.items():
        sb = fb[factor]
        assert (sa.negative_to_positive, sa.positive_to_negative) == \
            (sb.positive_to_negative, sb.negative_to_positive), factor


def _breakpoint_index(sf):
    out = {}
    for factor, _mult, bps in sf.factor_groups():
        for i, bp in enumerate(bps):
            out[(factor, i)] = bp
    return out


def check_additivity(VA, sfA, VB, sfB):
    """Step function of a block sum is the pointwise sum."""
    from knotsig.errors import SingularSampleError
    from knotsig.seifert import connected_sum
    from knotsig.signature import signature_at_sample, step_function

    VS = connected_sum(VA, VB)
    sfS = step_function(VS)
    ia, ib, isum = _breakpoint_index(sfA), _breakpoint_index(sfB), _breakpoint_index(sfS)
    assert set(isum) == set(ia) | set(ib)
    for key, bp in isum.items():
        ja = ia[key].jump if key in ia else 0
        jb = ib[key].jump if key in ib else 0
        assert bp.jump == ja + jb, key
        ba = ia[key].balanced2 if key in ia else _plateau_value_at(VA, bp)
        bb = ib[key].balanced2 if key in ib else _plateau_value_at(VB, bp)
        assert bp.balanced2 == ba + bb, key
        na = ia[key].nonbalanced if key in ia else ba // 2
        nb = ib[key].nonbalanced if key in ib else bb // 2
        assert bp.nonbalanced == na + nb, key
    for z in random_sample_points(8, seed=len(VS.rows) * 31 + 7):
        try:
            assert signature_at_sample(VS, z) == \
                signature_at_sample(VA, z) + signature_at_sample(VB, z)
        except SingularSampleError:
            continue


def _plateau_value_at(V, bp):
    # balanced (= plateau, doubled) value of V at a circle point where its
    # Alexander polynomial does not vanish
    from knotsig.signature import nonbalanced_at_root

    return 2 * nonbalanced_at_root(V, bp.root)


def check_float_crossval(V, samples: int, seed: int):
    from knotsig.errors import SingularSampleError
    from knotsig.signature import signature_at_sample

    rng = random.Random(seed)
    done = 0
    while done < samples:
        z = Fraction(rng.randint(-1999, 1999), rng.choice([1000, 997, 1009]))
        if not -2 < z < 2:
            continue
        try:
            exact = signature_at_sample(V, z)
        except SingularSampleError:
            continue
        approx = float_signature(V.rows, float(z))
        if approx is None:
            continue  # separation not certified at this sample
        assert exact == approx, f"mismatch at z = {z}"
        done += 1


# ---- the real-form oracle: exact signatures that share no code with the
# hermitian kernel.  For rational s > 0 put omega = (s + i)/(s - i), so
# z = omega + conj(omega) = 2(s^2 - 1)/(s^2 + 1), s^2 = (2 + z)/(2 - z), and
# ((s^2 + 1)/2) H(omega) = S - isA with S = V + V^T, A = V - V^T.  The real
# symmetric form [[S, sA], [-sA, S]] of S - isA has signature 2*sigma(omega)
# and twice its nullity.  Its characteristic polynomial, by integer
# Faddeev-LeVerrier, has only real roots, so Descartes' rule of signs counts
# them exactly (Basu-Pollack-Roy, Algorithms in Real Algebraic Geometry, 2.2) ----

def plateau_s_points(sf) -> list[Fraction]:
    """A rational s > 0 inside each plateau's s-interval, in plateau order.

    Plateau i lies strictly between the isolating intervals of breakpoints
    i - 1 and i (z = 2 and z = -2 at the ends), and s^2 = (2 + z)/(2 - z)
    increases with z.  s is a dyadic lower approximation of the square root
    of the midpoint of the s^2-interval."""
    edges = [None] + [bp.root.root for bp in sf.breakpoints] + [None]
    out = []
    for upper, lower in zip(edges, edges[1:]):
        lo = Fraction(0) if lower is None else (2 + lower.hi) / (2 - lower.hi)
        hi = 4 * lo + 4 if upper is None else (2 + upper.lo) / (2 - upper.lo)
        mid = (lo + hi) / 2
        k = 0
        while True:
            s = Fraction(math.isqrt(mid.numerator * 4**k // mid.denominator), 2**k)
            if lo < s * s < hi:
                break
            k += 1
        out.append(s)
    return out


def _faddeev_leverrier(M) -> list[int]:
    """Coefficients, ascending, of det(x I - M) for an integer matrix M:
    M_1 = I, M_k = M M_(k-1) + c_(n-k+1) I and c_(n-k) = -tr(M M_k)/k, where
    each division by k is exact."""
    n = len(M)
    c = [0] * n + [1]
    Mk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*Mk))
        Mk = [[sum(map(operator.mul, row, col)) for col in cols] for row in M]
        for i in range(n):
            Mk[i][i] += c[n - k + 1]
        tr = sum(sum(map(operator.mul, M[i], col)) for i, col in enumerate(zip(*Mk)))
        assert tr % k == 0, "Faddeev-LeVerrier division must be exact"
        c[n - k] = -tr // k
    return c


def _sign_changes(coeffs) -> int:
    signs = [x > 0 for x in coeffs if x]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def real_form_signature(V_rows, s: Fraction) -> tuple[int, int]:
    """(signature, nullity) of b [[S, sA], [-sA, S]], s = a/b, by Descartes'
    rule on its characteristic polynomial: twice (sigma, nullity) of the
    hermitian form at omega = (s + i)/(s - i)."""
    n = len(V_rows)
    a, b = s.numerator, s.denominator
    S = [[b * (V_rows[i][j] + V_rows[j][i]) for j in range(n)] for i in range(n)]
    A = [[a * (V_rows[i][j] - V_rows[j][i]) for j in range(n)] for i in range(n)]
    M = [S[i] + A[i] for i in range(n)] + [[-x for x in A[i]] + S[i] for i in range(n)]
    c = _faddeev_leverrier(M)
    null = next(k for k, x in enumerate(c) if x)
    pos = _sign_changes(c)
    neg = _sign_changes([x if k % 2 == 0 else -x for k, x in enumerate(c)])
    assert pos + neg + null == 2 * n, "a symmetric matrix has only real eigenvalues"
    return pos - neg, null


def check_real_form_plateaus(V, sf):
    """Every plateau value of sf is half the real form's signature at an s
    inside that plateau, where the form is nonsingular."""
    for s, value in zip(plateau_s_points(sf), sf.plateaus, strict=True):
        assert real_form_signature(V.rows, s) == (2 * value, 0), (s, value)


# ---- the Fraction reference for certified decimals: the rational interval
# arithmetic and the certified bisection from [0, 1/2] that
# certify.t_interval_of_root used before its Newton proposal and integer
# cosine; roots are refined here by Fraction Horner, not by sturm.sign_at ----

def _round_out_fraction(lo: Fraction, hi: Fraction, scale: int) -> tuple[Fraction, Fraction]:
    s = 10**scale
    return Fraction(math.floor(lo * s), s), Fraction(math.ceil(hi * s), s)


def _arctan_inv_bounds_fraction(n: int, eps: Fraction) -> tuple[Fraction, Fraction]:
    s = Fraction(1, n)
    k = 0
    while True:
        k += 1
        t_next = Fraction(1, (2 * k + 1) * n ** (2 * k + 1))
        lo, hi = (s - t_next, s) if k % 2 == 1 else (s, s + t_next)
        if t_next < eps:
            return lo, hi
        s = lo if k % 2 == 1 else hi


def _pi_bounds_fraction(scale: int) -> tuple[Fraction, Fraction]:
    eps = Fraction(1, 10 ** (scale + 2))
    a5 = _arctan_inv_bounds_fraction(5, eps / 32)
    a239 = _arctan_inv_bounds_fraction(239, eps / 8)
    return _round_out_fraction(16 * a5[0] - 4 * a239[1], 16 * a5[1] - 4 * a239[0], scale + 2)


def _cos_bounds_fraction(x: Fraction, eps: Fraction, scale: int) -> tuple[Fraction, Fraction]:
    x2lo, x2hi = _round_out_fraction(x * x, x * x, scale)
    tlo = thi = slo = shi = Fraction(1)
    k = 0
    while True:
        k += 1
        d = (2 * k - 1) * (2 * k)
        tlo, thi = _round_out_fraction(tlo * x2lo / d, thi * x2hi / d, scale)
        if k % 2 == 1:
            slo, shi = _round_out_fraction(slo - thi, shi - tlo, scale)
        else:
            slo, shi = _round_out_fraction(slo + tlo, shi + thi, scale)
        if thi < eps and (2 * k + 1) * (2 * k + 2) > x2hi:
            nxt = thi * x2hi / ((2 * k + 1) * (2 * k + 2))
            return (slo, shi + nxt) if k % 2 == 1 else (slo - nxt, shi)


def _two_cos_two_pi_fraction(t: Fraction, scale: int) -> tuple[Fraction, Fraction]:
    """Brackets for 2*cos(2*pi*t), t in [0, 1/2], in Fraction arithmetic."""
    eps = Fraction(1, 10 ** (scale + 2))
    plo, phi = _pi_bounds_fraction(scale + 2)
    xlo, xhi = 2 * plo * t, 2 * phi * t
    clo1, chi1 = _cos_bounds_fraction(xlo, eps, scale + 6)
    clo2, chi2 = _cos_bounds_fraction(xhi, eps, scale + 6)
    w = xhi - xlo
    return 2 * (min(clo1, clo2) - w), 2 * (max(chi1, chi2) + w)


def _halve_fraction(poly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """One halving of an isolating interval, signs by Fraction Horner."""
    m = (lo + hi) / 2
    vm, vlo = eval_at(poly, m), eval_at(poly, lo)
    if vm == 0:
        return m, m
    return (m, hi) if (vm > 0) == (vlo > 0) else (lo, m)


def _t_interval_bisect(root, digits: int) -> tuple[Fraction, Fraction]:
    """An interval of width below 10**-(digits+1) around t = arccos(z/2)/(2*pi)
    by certified bisection from [0, 1/2] only; reads root.poly, root.lo and
    root.hi and leaves the root untouched."""
    poly, lo, hi = root.poly, root.lo, root.hi
    while lo != hi and hi - lo >= Fraction(1, 10 ** (digits + 8)):
        lo, hi = _halve_fraction(poly, lo, hi)
    target = Fraction(1, 10 ** (digits + 1))
    scale = digits + 8
    ta, tb = Fraction(0), Fraction(1, 2)
    attempts = 0
    while tb - ta >= target:
        tm = (ta + tb) / 2
        zlo, zhi = _two_cos_two_pi_fraction(tm, scale)
        if zlo > hi:
            ta = tm
        elif zhi < lo:
            tb = tm
        else:
            lo, hi = _halve_fraction(poly, lo, hi)
            attempts += 1
            if attempts % 8 == 0:
                scale += 4
    return ta, tb


def decimal_of_t_reference(root, digits: int) -> str:
    from knotsig.certify import certified_decimal

    extra = 0
    while True:
        s = certified_decimal(*_t_interval_bisect(root, digits + extra), digits)
        if s is not None:
            return s
        extra += 2


def decimal_of_root_reference(root, digits: int) -> str:
    from knotsig.certify import certified_decimal

    if len(root.poly) == 2:
        x = Fraction(-root.poly[0], root.poly[1])
        return certified_decimal(x, x, digits)
    lo, hi = root.lo, root.hi
    while (s := certified_decimal(lo, hi, digits)) is None:
        lo, hi = _halve_fraction(root.poly, lo, hi)
    return s


# ---- the reference kernel: the sparse elimination with one stamp per row,
# which computes both triangles and rescales every entry of a row the pivot
# meets.  Its pivots, repairs and divisions are those of
# hermitian._eliminate, so the two PivotTraces must be equal ----

def reference_eliminate(rows: dict, order):
    """The PivotTrace of the hermitian matrix with sparse rows
    {i: {j: (0, entry)}} (as hermitian_rows makes them), by the
    row-stamped kernel."""
    from bisect import bisect_left, insort

    from knotsig.hermitian import PivotTrace

    rows = {i: {j: x for j, (_, x) in row.items()} for i, row in rows.items()}
    bareiss, zero = order.bareiss, order.zero
    stamp = dict.fromkeys(rows, 0)
    d, inv, pivots = [order.real_part_only(order.one)], [], []  # inv[t]: real_inverse of d[t]
    queue = sorted((len(row), i) for i, row in rows.items() if i in row)

    def catch_up(i, k):
        # row i, stored at step t = stamp[i], is (d_k / d_t) times that at step k
        t = stamp[i]
        if t != k:
            dk, inv_t = d[k], inv[t]
            rows[i] = {j: bareiss(dk, x, zero, zero, inv_t) for j, x in rows[i].items()}
            stamp[i] = k
        return rows[i]

    while rows:
        k = len(pivots)
        if not queue:
            i = min((i for i, row in rows.items() if row), default=None)
            if i is None:
                return PivotTrace(tuple(pivots), len(rows))
            # congruence repair in place: rows i and j are brought to step k;
            # column i += conj(c) * column j combines two entries of one
            # stored row, which share its scale
            j = min(rows[i])
            row_i, row_j = catch_up(i, k), catch_up(j, k)
            c = row_i[j]
            cc = order.conj(c)
            for m, x in row_j.items():
                _reference_put(row_i, m, order.add(row_i.get(m, zero), order.mul(c, x)), zero)
            for r in row_j:
                row_r = rows[r]
                _reference_put(row_r, i, order.add(row_r.get(i, zero), order.mul(row_r[j], cc)),
                               zero)
            queue = sorted((len(row), r) for r, row in rows.items() if r in row)
            continue

        p = queue.pop(0)[1]
        inv.append(order.real_inverse(d[k]))
        row_p = catch_up(p, k)
        del rows[p], stamp[p]
        dp = order.real_part_only(row_p.pop(p))
        pivots.append(dp)
        d.append(dp)
        for r in row_p:
            x = rows[r]
            if r in x:
                del queue[bisect_left(queue, (len(x), r))]
            inv_t = inv[stamp[r]]
            a = x.pop(p)
            out = {}
            for m, y in row_p.items():
                v = bareiss(dp, x.pop(m, None), a, y, inv_t)
                if v != zero:
                    out[m] = v
            for m, v in x.items():
                out[m] = bareiss(dp, v, zero, zero, inv_t)
            rows[r] = out
            stamp[r] = k + 1
            if r in out:
                insort(queue, (len(out), r))
    return PivotTrace(tuple(pivots), 0)


def _reference_put(row: dict, m, x, zero) -> None:
    if x == zero:
        row.pop(m, None)
    else:
        row[m] = x


def plateau_blocks(V) -> list:
    """[(block, samples), ...]: every block of V with every plateau sample
    of step_function(V), from the signature helper that makes them (the
    walk eliminates only some of them)."""
    from knotsig.seifert import alexander_polynomial
    from knotsig.signature import _plateau_points, breakpoint_candidates

    samples = _plateau_points(breakpoint_candidates(alexander_polynomial(V)))[1]
    return [(B, samples) for B in V.blocks]


def plateau_samples(V) -> list:
    """[(block, z), ...]: every plateau sample of step_function(V), with
    every block."""
    return [(B, z) for B, samples in plateau_blocks(V) for z in samples]


def walked_blocks(V) -> list:
    """[(block, samples, weights, values), ...]: each _walk step_function(V)
    makes, with the plateau values it returns."""
    from knotsig import signature

    calls, raw = [], signature._walk

    def recorded(B, samples, weights):
        values = raw(B, samples, weights)
        calls.append((B, samples, weights, values))
        return values

    signature._walk = recorded
    try:
        signature.step_function(V, include_nonbalanced=False)
    finally:
        signature._walk = raw
    return calls


def all_sample_values(B, samples) -> list[int]:
    """Test-only reference for the walk: the block's signature at every
    sample, each from its own _eliminate."""
    from knotsig.hermitian import IntPairOrder, _eliminate, _trace_signs

    out = []
    for z in samples:
        order = IntPairOrder(z)
        pos, neg, null = _trace_signs(_eliminate(order.hermitian_rows(B), order), order)
        assert null == 0, (B, z)
        out.append(pos - neg)
    return out


def assert_walks_match_all_samples(V) -> None:
    """Each distinct block's walked plateau values equal its signatures at
    every plateau sample, and the walk got every sample plateau_blocks
    lists: one walk per distinct block, in the order of V.blocks."""
    walks = walked_blocks(V)
    distinct = [(B, samples) for k, (B, samples) in enumerate(plateau_blocks(V))
                if B not in V.blocks[:k]]
    assert [(B, samples) for B, samples, _w, _v in walks] == distinct
    for B, samples, _weights, values in walks:
        assert values == all_sample_values(B, samples), (B, samples)


def count_evaluations(V) -> int:
    """The block-samples step_function(V) eliminates, plateaus only."""
    from knotsig import signature

    count, raw = [0], signature.sampler

    def counted(B, roots):
        at = raw(B, roots)

        def signature_at(z):
            count[0] += 1
            return at(z)

        return signature_at

    signature.sampler = counted
    try:
        signature.step_function(V, include_nonbalanced=False)
    finally:
        signature.sampler = raw
    return count[0]
