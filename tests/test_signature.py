from fractions import Fraction

import pytest
from conftest import (MIXED_SUMS, assert_walks_match_all_samples, count_evaluations, congruent,
                      mixed_sum, plateau_blocks, random_seifert_matrices, sparse, walked_blocks)

from knotsig import gfmat, intpoly as ip, signature
from knotsig.errors import SingularSampleError
from knotsig.expressions import resolve
from knotsig.hermitian import signatures_at_roots
from knotsig.knot_table import knot_names, lookup
from knotsig.gfmat import block_alexander_polynomials
from knotsig.seifert import SeifertMatrix, alexander_polynomial
from knotsig.factor import factor_int_poly
from knotsig.signature import (breakpoint_candidates, nonbalanced_at_root, signature_at_sample,
                               step_function)


def test_breakpoints_of_cinquefoil():
    bfs = breakpoint_candidates(alexander_polynomial(lookup("5_1")))
    assert len(bfs) == 1
    bf = bfs[0]
    assert bf.x_factor == (1, -1, 1, -1, 1)
    assert bf.multiplicity == 1
    assert [r.exact_t for r in bf.roots] == [Fraction(1, 10), Fraction(3, 10)]
    assert all(r.cyclotomic == 10 for r in bf.roots)


def test_figure_eight_has_no_breakpoints():
    bfs = breakpoint_candidates(alexander_polynomial(lookup("4_1")))
    assert bfs == []


def test_section5_knot_has_three_factors():
    delta = alexander_polynomial(resolve("2*3_1 # -5_1 # -8_2 # 10_132 # -11n6"))
    bfs = breakpoint_candidates(delta)
    assert [(len(bf.x_factor) - 1, len(bf.roots)) for bf in bfs] == [(2, 1), (4, 2), (6, 2)]
    assert [bf.multiplicity for bf in bfs] == [2, 2, 2]


def test_example_1_5_step_function():
    sf = step_function(resolve("-5_1 # -10_132"))
    assert sf.plateaus == (0, 0, 4)
    assert [bp.jump for bp in sf.breakpoints] == [0, 2]
    assert [bp.balanced2 // 2 for bp in sf.breakpoints] == [0, 2]


def test_unknot_step_function():
    sf = step_function(SeifertMatrix.empty())
    assert sf.plateaus == (0,)
    assert sf.breakpoints == ()
    assert sf.sigma_at_minus_one == 0


def test_torus_example_phi30_data():
    sf = step_function(resolve("T(3,10) # -T(2,15) # -T(5,6)"),
                       include_nonbalanced=False)
    phi30 = [bp for bp in sf.breakpoints if bp.root.cyclotomic == 30]
    assert [bp.jump for bp in phi30] == [1, 1, -1, 3]
    assert [bp.balanced2 // 2 for bp in phi30] == [1, 7, 11, 13]
    assert [bp.root.exact_t for bp in phi30] == [
        Fraction(1, 30), Fraction(7, 30), Fraction(11, 30), Fraction(13, 30)]
    lo, hi = sf.extremes()
    assert (lo, hi) == (0, 16)


def test_sample_preconditions():
    V = lookup("3_1")
    with pytest.raises(ValueError):
        signature_at_sample(V, Fraction(5, 2))
    with pytest.raises(SingularSampleError):
        signature_at_sample(V, Fraction(1))


def test_nonbalanced_slice_knot():
    sf = step_function(lookup("8_20"))
    assert sf.plateaus == (0, 0)
    bp = sf.breakpoints[0]
    assert bp.jump == 0 and bp.balanced2 == 0
    assert bp.nonbalanced == 1
    assert nonbalanced_at_root(lookup("8_20"), bp.root) == 1


def test_nonbalanced_at_plateau_point_equals_balanced():
    # a unit root where Delta does not vanish: s equals the step value there
    sf = step_function(lookup("3_1"))
    root = sf.breakpoints[0].root  # t = 1/6
    V = lookup("5_1")
    s = nonbalanced_at_root(V, root)
    assert s == signature_at_sample(V, Fraction(1))


def test_multiplicity_does_not_hide_breakpoints():
    # Delta of 3_1 # 3_1 is (x^2-x+1)^2; the breakpoint must still appear
    sf = step_function(resolve("2*3_1"))
    assert len(sf.breakpoints) == 1
    assert sf.breakpoints[0].multiplicity == 2
    assert sf.breakpoints[0].jump == -2


def test_factor_groups_ordering():
    sf = step_function(resolve("2*3_1 # -5_1 # -8_2 # 10_132 # -11n6"),
                       include_nonbalanced=False)
    degrees = [len(f) - 1 for f, _, _ in sf.factor_groups()]
    assert degrees == [2, 4, 6]


def _cyclotomic_index_brute(f):
    # every Phi_n with n <= 2 d^2 + 2, whatever its degree
    d = ip.degree(f)
    for n in range(1, 2 * d * d + 3):
        if ip.cyclotomic(n) == tuple(f):
            return n
    return None


@pytest.mark.parametrize("f", [ip.cyclotomic(n) for n in range(1, 61)] + [
    (1, -3, 1),                                   # 4_1
    (1, -2, 3, -2, 1),                            # (x^2 - x + 1)^2
    (1, -1, -1, -1, 1),
    (2, -3, 2), (1, 1, -1, 1, 1), (1, 0, -1, 1, -1, 0, 1),
    (262, -1446, 3431, -4493, 3431, -1446, 262),  # a random 6x6 Seifert matrix
    (1, -1, 0, 1, -1, 1, 0, -1, 1),
])
def test_cyclotomic_index_scans_only_matching_degrees(f):
    # the index each factor carries out of the modular screen, which tests
    # only the Phi_m of degree <= deg f, is the brute-force one
    _, factors = factor_int_poly(f, indexed=True)
    assert [m for g, _k, m in factors] == [_cyclotomic_index_brute(g) for g, _k, _m in factors]
    carried = factors[0][2] if [(g, k) for g, k, _m in factors] == [(tuple(f), 1)] else None
    assert carried == _cyclotomic_index_brute(f)


def _int_tuple(t) -> bool:
    return type(t) is tuple and all(type(c) is int for c in t)


def test_alexander_and_traces_are_int_tuples(corpus):
    cases = list(corpus)
    cases += [(f"S+U #{k}", V, step_function(V, include_nonbalanced=False))
              for k, V in enumerate(random_seifert_matrices(60, seed=6061))]
    for label, V, sf in cases:
        assert _int_tuple(alexander_polynomial(V)), label
        for bp in sf.breakpoints:
            assert _int_tuple(bp.root.trace), label


def _block_multiplicities(V, f) -> list[int]:
    """The multiplicity of the factor f in each connected block's Alexander
    polynomial."""
    out = []
    for p in block_alexander_polynomials(V):
        k, rest = 0, p
        while ip.is_zero(ip.pseudo_rem(rest, f)):
            k, rest = k + 1, ip.div_exact(rest, f)
        out.append(k)
    return out


def _factor_table(V) -> dict:
    """{x_factor: [its multiplicity in each block of V]} for the breakpoint
    factors, read from step_function's table of the distinct blocks."""
    _counts, mults, factors = signature._block_factors(V)
    return {bf.x_factor: [mults[B].get(bf.x_factor, 0) for B in V.blocks] for bf in factors}


def test_kernel_is_the_oracle_of_the_simple_root_rule(corpus):
    # the elimination at every breakpoint of the corpus and of random S + U
    # matrices: where the factor is simple in every block it gives the
    # balanced value with one null direction per vanishing block; where it
    # repeats inside a block step_function still takes the kernel's value
    cases = list(corpus)
    cases += [(f"S+U #{k}", V, step_function(V))
              for k, V in enumerate(random_seifert_matrices(60, seed=6061))]
    simple, repeated = 0, {}
    tables = {label: _factor_table(V) for label, V, _sf in cases}
    for label, V, sf in cases:
        assert list(tables[label]) == [f for f, _m, _bps in sf.factor_groups()], label
        for factor, mult, bps in sf.factor_groups():
            mults = _block_multiplicities(V, factor)
            assert tables[label][factor] == mults, (label, factor)
            assert mult == sum(mults), (label, factor)
            got = signatures_at_roots(sparse(V.rows), bps[0].root.trace,
                                      [bp.root.root for bp in bps])
            if max(mults) <= 1:
                assert got == [(bp.balanced2 // 2, sum(mults)) for bp in bps], (label, factor)
                simple += len(bps)
            else:
                assert [s for s, _null in got] == [bp.nonbalanced for bp in bps], (label, factor)
                for i, bp in enumerate(bps):
                    repeated[(label, factor, i)] = (bp.balanced2, bp.nonbalanced)
    assert simple >= 100 and len(repeated) >= 10, (simple, len(repeated))
    # criterion 5: Phi_6^2 inside the one 8_20 block, off the balanced value
    assert repeated[("8_20", ip.cyclotomic(6), 0)] == (0, 1)


@pytest.mark.parametrize("expr", MIXED_SUMS)
def test_summary_is_invariant_under_congruence(expr):
    V, W = mixed_sum(expr)
    assert W.rows != V.rows
    # the mixing merges the summands into one block, so every factor of a
    # sum K # K repeats inside that block and goes to the kernel
    assert len(V.indices) == 2 and len(W.indices) == 1
    assert step_function(W).summary() == step_function(V).summary()
    if expr == "2*T(2,5)":
        # Phi_10^2: a degree-2 trace polynomial, eliminated over ScaledOrder
        factors = breakpoint_candidates(alexander_polynomial(W))
        assert [len(bf.roots[0].trace) - 1 for bf in factors] == [2]
        assert _factor_table(W) == {factors[0].x_factor: [2]}
        assert _factor_table(V) == {factors[0].x_factor: [1, 1]}


def test_repeated_factor_eliminates_only_its_blocks(monkeypatch):
    # Phi_10^2 lies inside the mixed 2*T(2,5) block only: the T(2,5) block,
    # where Phi_10 is simple, and the 3_1 block, where it is absent, add
    # their plateau averages, so only the 8x8 block is eliminated over a
    # ScaledOrder
    from knotsig import hermitian
    from knotsig.seifert import connected_sum

    made = []
    init = hermitian.ScaledOrder.__init__

    def counted(self, q):
        made.append(q)
        init(self, q)

    _V, W = mixed_sum("2*T(2,5)")
    V = connected_sum(W, resolve("T(2,5)"), lookup("3_1"))
    assert [len(B) for B in V.blocks] == [8, 4, 2]
    assert _factor_table(V) == {ip.cyclotomic(6): [0, 0, 1], ip.cyclotomic(10): [2, 1, 0]}
    monkeypatch.setattr(hermitian.ScaledOrder, "__init__", counted)
    sf = step_function(V)
    assert made == [(-1, -1, 1)]
    assert sf.summary() == step_function(resolve("3*T(2,5) # 3_1")).summary()
    assert [bp.nonbalanced for bp in sf.breakpoints] == [-3, -7, -11]


def test_block_polynomials_once_per_step_function(monkeypatch):
    # Phi_10^2 of 2*T(2,5) is split over two equal blocks: their polynomial
    # is computed once, and factored once for the one distinct block
    calls = []
    det_poly = gfmat._det_poly

    def counted(M):
        calls.append(len(M))
        return det_poly(M)

    monkeypatch.setattr(gfmat, "_det_poly", counted)
    V = resolve("2*T(2,5)")
    sf = step_function(V)
    assert [len(I) for I in V.indices] == [4, 4] and V.blocks[0] == V.blocks[1]
    assert calls == [4]
    assert [m for _f, m, _bps in sf.factor_groups()] == [2]


# ---- repeated blocks: each distinct block once, weighted by its count

def _times(summary, k):
    plateaus, bps = summary
    return (tuple(k * p for p in plateaus),
            tuple((f, k * m, k * jump, k * b2, k * nb) for f, m, jump, b2, nb in bps))


@pytest.mark.parametrize("k", [2, 3, 50, 10000])
@pytest.mark.parametrize("knot", ["3_1", "8_20", "T(2,5)", "T(3,4)"])
def test_copies_scale_the_summary(knot, k):
    # every plateau, jump, balanced and non-balanced value and multiplicity
    # of k*K is k times K's
    assert step_function(resolve(f"{k}*{knot}")).summary() == \
        _times(step_function(resolve(knot)).summary(), k)


def test_copies_factor_and_walk_one_block(monkeypatch):
    # 200 copies of the trefoil block: one factorization of its Delta_B and
    # one walk, which eliminates the two end samples around the root of Phi_6
    calls = []

    def counted(f, indexed=False):
        calls.append(f)
        return factor_int_poly(f, indexed)

    monkeypatch.setattr(signature, "factor_int_poly", counted)
    V = resolve("200*3_1")
    assert count_evaluations(V) == 2
    assert calls == [block_alexander_polynomials(V)[0]]
    assert [B for B, _z, _w, _v in walked_blocks(V)] == [V.blocks[0]]


def test_copies_eliminate_a_repeated_factor_once(monkeypatch):
    # Phi_6^2 repeats inside each of the 30 equal 8_20 blocks: one
    # elimination over its number field, counted 30 times
    calls = []

    def counted(B, q, roots):
        calls.append(B)
        return signatures_at_roots(B, q, roots)

    monkeypatch.setattr(signature, "signatures_at_roots", counted)
    sf = step_function(resolve("30*8_20"))
    assert calls == [lookup("8_20").blocks[0]]
    assert [(bp.multiplicity, bp.nonbalanced) for bp in sf.breakpoints] == [(60, 30)]


def test_repeated_factor_in_two_distinct_blocks(monkeypatch):
    # Phi_6^2 repeats inside the 8_20 block and inside the one-block copy W
    # of 2*3_1: each distinct block is eliminated once, and each adds its
    # own kernel value, 1 for 8_20 and -2 for W
    from knotsig.seifert import connected_sum

    calls = []

    def counted(B, q, roots):
        calls.append(B)
        return signatures_at_roots(B, q, roots)

    _V, W = mixed_sum("2*3_1")
    K = lookup("8_20")
    V = connected_sum(K, W, K)
    monkeypatch.setattr(signature, "signatures_at_roots", counted)
    sf = step_function(V)
    assert calls == [K.blocks[0], W.blocks[0]]
    assert sf.summary() == step_function(resolve("2*8_20 # 2*3_1")).summary()
    assert [bp.nonbalanced for bp in sf.breakpoints] == [0]


# ---- plateau values by bisecting each block's walk

def test_walks_match_all_samples_on_table():
    for name in knot_names():
        assert_walks_match_all_samples(lookup(name))


@pytest.mark.parametrize("expr", MIXED_SUMS)
def test_walks_match_all_samples_on_congruent_sums(expr):
    # in a one-block copy each root weighs twice its factor's multiplicity
    # in Delta, so a sum K # K forces jumps of 4 and 2*8_20 of 8
    V, W = mixed_sum(expr)
    for U in (V, W, congruent(W, seed=7)):
        assert_walks_match_all_samples(U)
    (_B, _z, weights, _v), = walked_blocks(W)
    assert weights == [2 * bp.multiplicity for bp in step_function(V).breakpoints]


def test_walks_match_all_samples_on_random_matrices():
    for V in random_seifert_matrices(60, seed=20):
        assert_walks_match_all_samples(V)


@pytest.mark.parametrize("expr,count", [
    ("T(2,31)", 2), ("T(3,10) # -T(2,15) # -T(5,6)", 13), ("T(5,11)", 9), ("T(3,16)", 7)])
def test_walk_eliminates_only_open_samples(expr, count):
    # T(2,31) goes 0, -2, ..., -30: its two ends force every value between.
    # The benchmark's torus_plateaus knots take 31 block-samples in all,
    # against 89 for every block at every sample.
    assert count_evaluations(resolve(expr)) == count


def test_sum_blocks_are_sampled_only_next_to_their_own_roots(monkeypatch):
    # each block of the sum walks across the roots of the other two without
    # an elimination: past its two ends, every sample it eliminates borders
    # a root of its own
    V = resolve("T(3,10) # -T(2,15) # -T(5,6)")
    (_B, samples), *_ = plateau_blocks(V)
    asked, raw = [], signature.sampler

    def spy(B, roots):
        at, mine = raw(B, roots), []
        asked.append(mine)

        def signature_at(z):
            mine.append(samples.index(z))
            return at(z)

        return signature_at

    monkeypatch.setattr(signature, "sampler", spy)
    walks = walked_blocks(V)
    assert len(walks) == len(asked) == 3
    for (_B, _z, weights, _values), ks in zip(walks, asked):
        assert 0 in weights
        assert ks[:2] == [0, len(samples) - 1]
        assert all(weights[k - 1] or weights[k] for k in ks[2:]), (weights, ks)


def test_jump_past_the_bound_raises(monkeypatch):
    # doubled values put the ends of T(2,5)'s walk 8 apart across two
    # simple roots, where the bound is 4
    raw = signature.sampler

    def doubled(B, roots):
        at = raw(B, roots)
        return lambda z: 2 * at(z)

    monkeypatch.setattr(signature, "sampler", doubled)
    with pytest.raises(AssertionError, match="jump bound"):
        step_function(resolve("T(2,5)"))
