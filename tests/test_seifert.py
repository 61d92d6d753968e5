import json
import math
import random
import re
from fractions import Fraction

import pytest

from conftest import (MIXED_SUMS, _interpolate_int, is_proven_prime, mixed_sum, nonzeros,
                      random_expressions, random_seifert_matrices, reference_blocks,
                      reference_braid_rows, reference_int_det, sparse)
from knotsig import gfmat, intpoly as ip, seifert
from knotsig.braids import BraidWord, seifert_from_braid, torus_braid
from knotsig.errors import KnotsigError, ParityError, SeifertInvariantError, SymmetryError
from knotsig.expressions import resolve
from knotsig.gfmat import _det_poly, _det_poly_mod
from knotsig.hermitian import signature_at_sample
from knotsig.knot_table import knot_names, lookup
from knotsig.knotio import read_seifert_file, write_report
from knotsig.seifert import (SeifertMatrix, alexander_polynomial, connected_sum, mirror,
                             murasugi_signature, normalize_alexander, stabilize)
from knotsig.signature import step_function


def test_validation():
    with pytest.raises(SeifertInvariantError):
        SeifertMatrix(((0,),))  # odd size
    with pytest.raises(SeifertInvariantError):
        SeifertMatrix(((0, 0), (0, 0)))  # degenerate pairing
    with pytest.raises(SeifertInvariantError):
        SeifertMatrix(((0, 1), (1, 0)))  # det(V - V^T) = 0
    V = SeifertMatrix(((0, 1), (0, 0)))
    assert V.size == 2 and V.genus == 1


def test_entries_must_be_integers():
    # nothing that int() would round or parse is taken for an integer
    for bad in (0.5, Fraction(1, 2), "1"):
        with pytest.raises(SeifertInvariantError,
                           match=re.escape(f"matrix entry {bad!r} is not an integer")):
            SeifertMatrix([[bad, 1], [0, 0]])


def test_connected_sum_with_empty():
    V = lookup("3_1")
    assert connected_sum(V, SeifertMatrix.empty()) == V
    assert connected_sum(SeifertMatrix.empty(), V) == V


def test_blocks_are_the_summands():
    V = resolve("3_1 # 4_1")
    assert V.blocks == (sparse(lookup("3_1").rows), sparse(lookup("4_1").rows))


def test_copy_and_pickle_rebuild_the_matrix():
    import copy
    import pickle
    import time

    V = resolve("3_1 # 4_1")
    for W in (copy.copy(V), copy.deepcopy(V), pickle.loads(pickle.dumps(V))):
        assert W == V and W.blocks == V.blocks
    # a matrix pickles as its blocks and index sets: 1000 copies of one
    # trefoil block pickle as that block, checked once on load
    V = resolve("1000*3_1")
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        W = pickle.loads(pickle.dumps(V))
        best = min(best, time.perf_counter() - t0)
    assert best < 0.010
    assert W.blocks == V.blocks and W.indices == V.indices
    assert {id(B) for B in W.blocks} == {id(W.blocks[0])}
    assert W == V and W.size == V.size
    # a matrix given whole comes back with the same blocks and index sets
    T = resolve("T(3,16)")
    for U in (copy.copy(T), copy.deepcopy(T), pickle.loads(pickle.dumps(T))):
        assert U.indices == T.indices
        assert U == T and U.blocks == T.blocks and hash(U) == hash(T)


def test_unpickling_checks_each_distinct_block_once(monkeypatch):
    import pickle

    V = resolve("1000*3_1 # 4_1")
    data = pickle.dumps(V)
    calls, int_det = [], seifert._int_det
    monkeypatch.setattr(seifert, "_int_det", lambda rows: calls.append(len(rows)) or int_det(rows))
    assert pickle.loads(data) == V and calls == [2, 2]
    # a block with det(B - B^T) = 4 does not load
    bad = object.__new__(SeifertMatrix)._set(((((1, 2),), ()),), ((0, 1),))
    with pytest.raises(SeifertInvariantError, match=re.escape("det(V - V^T) = 4, expected 1")):
        pickle.loads(pickle.dumps(bad))


def test_mirror_maps_each_distinct_block_once(monkeypatch):
    import pickle

    calls, mirror_block = [], seifert._mirror_block
    monkeypatch.setattr(seifert, "_mirror_block", lambda B: calls.append(B) or mirror_block(B))
    V = resolve("1000*3_1 # 4_1 # 2*5_1")
    M = V.mirror()
    assert len(calls) == 3 == len(set(calls))
    assert M == resolve("1000*-3_1 # -4_1 # 2*-5_1") and M.mirror() == V
    # the copies share their mirrored block, so the mirror of a multiple
    # pickles like the multiple of the mirror
    assert len(pickle.dumps(resolve("-(1000*3_1)"))) == len(pickle.dumps(resolve("1000*-3_1")))


def test_sums_compare_and_hash_by_their_nonzeros():
    # == and hash read the blocks and index sets and build no rows
    import pickle
    import time

    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        V = resolve("1000*3_1")
        W = pickle.loads(pickle.dumps(resolve("1000*3_1")))
        equal = V == W
        best = min(best, time.perf_counter() - t0)
    assert equal and best < 0.010
    assert hash(V) == hash(W) and V.indices == W.indices
    # a sum of sums equals the sum of all the parts, and a different order differs
    a, b = lookup("3_1"), lookup("4_1")
    assert connected_sum(connected_sum(a, b), a) == connected_sum(a, connected_sum(b, a))
    assert hash(connected_sum(connected_sum(a, b), a)) == hash(connected_sum(a, b, a))
    assert connected_sum(a, b) != connected_sum(b, a)


def test_blocks_link_where_v_plus_vt_cancels():
    # two trefoil blocks joined only by V[1][2] = 1 and V[2][1] = -1, which
    # cancel in V + V^T but not in V - x V^T: one block, not two
    V = SeifertMatrix([[-1, 0, 0, 0], [1, -1, 1, 0], [0, -1, -1, 0], [0, 0, 1, -1]])
    assert V.blocks == (sparse(V.rows),)
    assert alexander_polynomial(V) == normalize_alexander(_reference_det_poly(V.rows))


# ---- the sparse constructor against the dense references in conftest

def _agreement_cases():
    """(label, matrix, its dense rows): the table's braids against the
    pairwise braid reference, every T(p,q) with (p-1)(q-1) <= 80, 60 S+U
    matrices and the congruent mixed sums."""
    from knotsig.knot_table import _ENTRIES

    braids = [(e.name, BraidWord(*e.braid)) for e in _ENTRIES if e.braid is not None]
    braids += [(f"T({p},{q})", torus_braid(p, q)) for p in range(2, 10) for q in range(p + 1, 82)
               if (p - 1) * (q - 1) <= 80 and math.gcd(p, q) == 1]
    cases = [(label, seifert_from_braid(b), reference_braid_rows(b)) for label, b in braids]
    cases += [(f"S+U #{k}", V, V.rows)
              for k, V in enumerate(random_seifert_matrices(60, seed=20))]
    cases += [(f"mixed {e}", W, W.rows) for e in MIXED_SUMS for W in mixed_sum(e)[1:]]
    return cases


def _sparse_det(rows, x) -> int:
    """det(V - x V^T) by seifert._int_det, block by block in the
    constructor's reverse Cuthill-McKee order."""
    d = 1
    for order in seifert._components(seifert._links(nonzeros(rows))):
        d *= seifert._int_det([{k: c for k, j in enumerate(order)
                                if (c := rows[i][j] - x * rows[j][i])} for i in order])
    return d


def test_sparse_matrices_agree_with_the_dense_references():
    seen = 0
    for label, V, rows in _agreement_cases():
        n = len(rows)
        assert V.rows == tuple(map(tuple, rows)) and V.size == n, label
        assert V.blocks == tuple(map(sparse, reference_blocks(rows))), label
        assert _dense_blocks(V) == reference_blocks(rows), label
        W = SeifertMatrix(rows)
        assert (W.blocks, W.indices, W.rows, W.size) == (V.blocks, V.indices, V.rows, V.size), \
            label
        nz = nonzeros(rows)
        links = seifert._links(nz)
        assert math.prod(seifert._int_det(seifert._skew(nz, links, c))
                         for c in seifert._components(links)) == 1, label
        for x in (-1, 2):
            dense = [[rows[i][j] - x * rows[j][i] for j in range(n)] for i in range(n)]
            assert _sparse_det(rows, x) == reference_int_det(dense), (label, x)
        seen += 1
    assert seen == 4 + 105 + 60 + 5


def test_repr_is_the_nonzeros_and_round_trips():
    # one dict per row, which the constructor takes: the repr of 10000*3_1
    # is O(nnz) long, where its dense rows would be 4 * 10^8 entries
    assert repr(lookup("3_1")) == "SeifertMatrix([{0: -1}, {0: 1, 1: -1}])"
    assert repr(SeifertMatrix.empty()) == "SeifertMatrix([])"
    V = resolve("10000*3_1")
    text = repr(V)
    nnz = sum(len(row) for B in V.blocks for row in B)
    assert nnz == 30000 and len(text) < 20 * nnz
    assert eval(text, {"SeifertMatrix": SeifertMatrix}) == V


def test_sparse_det_agrees_on_random_matrices():
    # sparse, singular and dense integer matrices in any order: the pivot
    # search, the fill, the stale rows and the sign of the row permutation
    rng = random.Random(2026)
    for trial in range(400):
        n = rng.randint(0, 9)
        density = rng.choice((0.2, 0.5, 1.0))
        M = [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(n)]
        assert seifert._int_det(list(nonzeros(M))) == reference_int_det(M), M


def test_invalid_input_messages():
    trefoil, bad = lookup("3_1").rows, ((0, 2), (0, 0))
    cases = [
        ([[0]], "size 1 is odd; Seifert matrices have even size"),
        ([{}], "size 1 is odd; Seifert matrices have even size"),
        ([[0, 1], [0]], "matrix is not square"),
        ([[0, 1, 0], [0, 0, 0]], "matrix is not square"),
        ([{2: 1}, {}], "matrix is not square"),
        ([{-1: 1}, {}], "matrix is not square"),
        ([[0.0, 1], [0, 0]], "matrix entry 0.0 is not an integer"),
        ([[0, 1], [0, 0.5]], "matrix entry 0.5 is not an integer"),
        ([{1: 1}, {0: 0.0}], "matrix entry 0.0 is not an integer"),
        ([[0, 1], [1, 0]], "det(V - V^T) = 0, expected 1"),
        ([{1: 1}, {0: 1}], "det(V - V^T) = 0, expected 1"),
        (nonzeros(_block_diagonal(trefoil, bad, trefoil)), "det(V - V^T) = 4, expected 1"),
    ]
    for rows, message in cases:
        with pytest.raises(SeifertInvariantError, match=f"^{re.escape(message)}$"):
            SeifertMatrix(rows)


def test_nonzero_rows_and_dense_rows_give_one_matrix():
    V = SeifertMatrix([{1: 1, 0: 0}, {}])
    assert V == SeifertMatrix([[0, 1], [0, 0]])
    assert V.blocks == ((((1, 1),), ()),) and V.indices == ((0, 1),)
    assert SeifertMatrix(iter([iter([-1, 0]), (1, -1)])) == lookup("3_1")


def test_degenerate_block_fails_validation():
    # the trefoil block has det 1 and the second block det 0
    with pytest.raises(SeifertInvariantError, match=re.escape("det(V - V^T) = 0, expected 1")):
        SeifertMatrix([[-1, 0, 0, 0], [1, -1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def test_connected_sum_is_variadic():
    a, b, c = lookup("3_1"), lookup("4_1").mirror(), lookup("5_1")
    assert connected_sum(a, b, c) == connected_sum(connected_sum(a, b), c)
    assert connected_sum(a, b, c).blocks == a.blocks + b.blocks + c.blocks
    assert resolve("3_1 # -4_1 + 5_1") == resolve("3_1 - 4_1 # (5_1)") == connected_sum(a, b, c)
    assert connected_sum() == SeifertMatrix.empty()
    assert connected_sum(a) == a


def _block_diagonal(*blocks) -> list:
    """The rows of the block sum of square matrices, in order."""
    n, rows, left = sum(map(len, blocks)), [], 0
    for B in blocks:
        rows += [[0] * left + list(r) + [0] * (n - left - len(B)) for r in B]
        left += len(B)
    return rows


def test_a_bad_block_beside_repeated_good_ones_fails():
    # det(B - B^T) = 4 for B = [[0, 2], [0, 0]]; the product counts each copy
    trefoil, bad = lookup("3_1").rows, ((0, 2), (0, 0))
    with pytest.raises(SeifertInvariantError, match=re.escape("det(V - V^T) = 4, expected 1")):
        SeifertMatrix(_block_diagonal(trefoil, trefoil, bad, trefoil))
    with pytest.raises(SeifertInvariantError, match=re.escape("det(V - V^T) = 16, expected 1")):
        SeifertMatrix(_block_diagonal(bad, trefoil, bad))


def _composed() -> list:
    """(label, matrix) built by lookups, braids, sums, nested sums,
    multiples and mirrors: the table, the agreement cases, MIXED_SUMS, two
    nested sums and 90 random expressions, and the mirror of each."""
    a, b, c = lookup("3_1"), lookup("4_1").mirror(), lookup("8_20")
    out = [(name, lookup(name)) for name in knot_names()]
    out += [(label, V) for label, V, _rows in _agreement_cases()]
    out += [(e, resolve(e)) for e in (*MIXED_SUMS, *random_expressions(90))]
    out += [("nested", connected_sum(connected_sum(a, b), connected_sum(c, connected_sum(b, a)))),
            ("nested empty", connected_sum(a, connected_sum(), connected_sum(connected_sum(b), c)))]
    return out + [(f"-({label})", V.mirror()) for label, V in out]


def test_sums_and_mirrors_equal_the_matrix_checked_whole():
    import pickle

    for label, W in _composed():
        V = SeifertMatrix(W.rows)
        assert (W.rows, W.blocks, W.indices, W.size) == (V.rows, V.blocks, V.indices, V.size), \
            label
        assert W == V and V == W and hash(W) == hash(V) and repr(W) == repr(V), label
        P = pickle.loads(pickle.dumps(W))
        assert P == W and P.blocks == W.blocks and P.size == W.size, label
        M = W.mirror().mirror()
        assert M == W and M.blocks == W.blocks, label


def test_sums_build_their_rows_on_first_read():
    # a matrix keeps only its blocks and index sets; rows are built from
    # them on each read
    a, b = lookup("3_1"), lookup("4_1").mirror()
    V = connected_sum(a, b, a)
    assert SeifertMatrix.__slots__ == ("blocks", "indices")
    assert V.indices == ((0, 1), (2, 3), (4, 5)) and V.size == 6
    assert V.blocks == (sparse(a.rows), sparse(b.rows), sparse(a.rows))
    assert V.rows == tuple(map(tuple, _block_diagonal(a.rows, b.rows, a.rows)))
    W = resolve("2000*3_1").mirror()
    assert W.indices[-1] == (3998, 3999) and W.size == 4000
    assert set(W.blocks) == {sparse(lookup("3_1").mirror().rows)}


def test_multiple_splits_into_its_blocks():
    V = resolve("100*3_1")
    assert V.size == 200 and len(V.blocks) == 100
    assert murasugi_signature(V) == -200


def test_trefoil_sum_alexander_and_signature():
    V = lookup("3_1")
    VV = connected_sum(V, V)
    assert VV.size == 4
    delta = alexander_polynomial(VV)
    assert delta == normalize_alexander((1, -2, 3, -2, 1))  # (x^2 - x + 1)^2
    assert murasugi_signature(VV) == -4


def test_mirror_involution_and_signs():
    V = lookup("3_1")
    assert mirror(mirror(V)) == V
    assert mirror(SeifertMatrix.empty()) == SeifertMatrix.empty()
    assert murasugi_signature(mirror(V)) == 2
    # mirror is -transpose
    assert mirror(V).rows == tuple(tuple(-V.rows[j][i] for j in range(2)) for i in range(2))


def test_murasugi_signature_is_the_step_function_at_minus_one(corpus):
    # Delta(-1) != 0 for knots, so t = 1/2 lies on the last plateau
    for label, V, sf in corpus:
        assert murasugi_signature(V) == sf.sigma_at_minus_one, label
    for V in random_seifert_matrices(60, seed=20261019):
        sf = step_function(V, include_nonbalanced=False)
        assert murasugi_signature(V) == sf.sigma_at_minus_one, V


def test_alexander_examples():
    assert alexander_polynomial(SeifertMatrix.empty()) == (1,)
    assert alexander_polynomial(lookup("3_1")) == (1, -1, 1)
    assert alexander_polynomial(lookup("8_20")) == (1, -2, 3, -2, 1)


def test_block_with_singular_matrix_keeps_its_factor_x():
    # det V = 0: det(V - x V^T) = x has a zero constant term, and the
    # normalized Alexander polynomial drops the unit x
    V = SeifertMatrix([[0, 1], [0, 0]])
    assert _det_poly(sparse(V.rows)) == (0, 1)
    assert alexander_polynomial(V) == (1,)


def test_normalize_alexander():
    d = normalize_alexander((0, 0, 0, -1, 3, -1))  # -x^3 + 3x^4 - x^5, value 1 at 1
    assert d == (-1, 3, -1)
    assert sum(d) == 1
    assert normalize_alexander((1, -3, 1)) == (-1, 3, -1)
    with pytest.raises(ParityError):
        normalize_alexander((1, 1))
    with pytest.raises(SymmetryError):
        normalize_alexander((1, 2, 2))
    with pytest.raises(ValueError, match="zero"):
        normalize_alexander((0, 0))
    with pytest.raises(ValueError, match="unit"):
        normalize_alexander((1, 0, 1))


def test_alexander_at_one_is_det_invariant():
    for name in ("3_1", "7_4", "8_2", "10_132", "11n6"):
        d = alexander_polynomial(lookup(name))
        assert sum(d) == 1


def test_stabilize_preserves_everything():
    V = lookup("5_1")
    W = stabilize(V)
    assert W.size == V.size + 2
    assert alexander_polynomial(W) == alexander_polynomial(V)
    for z in (Fraction(1, 3), Fraction(-3, 2)):
        assert signature_at_sample(sparse(W.rows), z) == signature_at_sample(sparse(V.rows), z)


def test_read_seifert_file(tmp_path):
    path = tmp_path / "knots.json"
    path.write_text(json.dumps([
        {"name": "trefoil", "matrix": [[-1, 0], [1, -1]]},
    ]))
    loaded = read_seifert_file(path)
    assert len(loaded) == 1
    assert loaded[0][0] == "trefoil"
    assert loaded[0][1] == lookup("3_1")


def test_read_seifert_file_errors(tmp_path):
    bad_odd = tmp_path / "odd.json"
    bad_odd.write_text(json.dumps([{"name": "x", "matrix": [[1]]}]))
    with pytest.raises(SeifertInvariantError, match="odd"):
        read_seifert_file(bad_odd)

    degenerate = tmp_path / "deg.json"
    degenerate.write_text(json.dumps([{"name": "bad", "matrix": [[0, 1], [1, 0]]}]))
    with pytest.raises(SeifertInvariantError, match="bad"):
        read_seifert_file(degenerate)

    notjson = tmp_path / "nope.json"
    notjson.write_text("{]")
    with pytest.raises(KnotsigError, match="line"):
        read_seifert_file(notjson)

    floats = tmp_path / "floats.json"
    floats.write_text(json.dumps([{"name": "f", "matrix": [[0.5, 1], [0, 0.5]]}]))
    with pytest.raises(KnotsigError, match="integers"):
        read_seifert_file(floats)


def test_write_report_roundtrip(tmp_path):
    path = tmp_path / "report.json"
    payload = {"u1": 2, "u2": 3, "factors": [{"coefficients": [1, -1, 1]}]}
    write_report(path, payload)
    text = path.read_text()
    assert json.loads(text) == payload
    # byte-identical reserialization
    assert json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n" == text


def _torus_alexander(p, q):
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), ascending."""
    def tm1(k):
        return (-1,) + (0,) * (k - 1) + (1,)
    return ip.div_exact(ip.mul(tm1(p * q), tm1(1)), ip.mul(tm1(p), tm1(q)))


def _reference_det_poly(M) -> tuple:
    """det(M - x M^T) through the Lagrange polynomial of n + 1 Bareiss values."""
    n = len(M)
    pts = list(range(-(n // 2), n - n // 2 + 1))
    vals = [reference_int_det([[M[i][j] - x * M[j][i] for j in range(n)] for i in range(n)])
            for x in pts]
    return _interpolate_int(pts, vals)


def _dense_matrices():
    # S + U with symmetric entries up to 10^9: coefficients of hundreds of
    # bits, beyond the product of five 61-bit primes on the larger blocks
    return random_seifert_matrices(6, seed=20261018, entries=10**9)


def _cases():
    """(label, V): the table, 30 S+U matrices, the one-block copies of the
    mixed sums and the dense matrices."""
    cases = [(name, lookup(name)) for name in knot_names()]
    cases += [(f"S+U #{k}", V) for k, V in enumerate(random_seifert_matrices(30, seed=1))]
    cases += [(f"mixed {expr}", mixed_sum(expr)[1]) for expr in MIXED_SUMS]
    cases += [(f"dense #{k}", V) for k, V in enumerate(_dense_matrices())]
    return cases


def test_alexander_unchanged_on_table_and_large_torus():
    # every block's polynomial equals the Lagrange reference at its points
    for label, V in _cases():
        for M in _dense_blocks(V):
            assert _det_poly(sparse(M)) == _reference_det_poly(M), label
    # large torus knots and a sum, against the closed form
    for expr, parts in (("T(5,11)", [(5, 11)]), ("T(2,31)", [(2, 31)]),
                        ("T(2,101)", [(2, 101)]),
                        ("T(3,10) # -T(2,15) # -T(5,6)", [(3, 10), (2, 15), (5, 6)])):
        want = (1,)
        for p, q in parts:
            want = ip.mul(want, _torus_alexander(p, q))
        assert alexander_polynomial(resolve(expr)) == normalize_alexander(want), expr


def _dense_blocks(V) -> tuple:
    """The dense block matrices of V, cut out of its rows at its index sets."""
    rows = V.rows
    return tuple(tuple(tuple(rows[i][j] for j in I) for i in I) for I in V.indices)


def _hadamard_bound(M) -> int:
    """The product over j of the ceiling of the 2-norm of column j of |M| + |M^T|."""
    n, H = len(M), 1
    for j in range(n):
        s = sum((abs(M[i][j]) + abs(M[j][i])) ** 2 for i in range(n))
        r = math.isqrt(s)
        H *= r if r * r == s else r + 1
    return H


def test_det_poly_takes_one_proven_prime(monkeypatch):
    # each block's polynomial is one pass modulo one prime p = k 2^m + 1
    # with m the bit length of twice its Hadamard bound H, so p > 2 H and
    # the symmetric lift is exact; p is proven prime without Miller-Rabin,
    # and the dense blocks reach moduli of five 61-bit primes and more
    used = []
    det_poly_mod = gfmat._det_poly_mod

    def recorded(M, p):
        used.append(p)
        return det_poly_mod(M, p)

    monkeypatch.setattr(gfmat, "_det_poly_mod", recorded)
    widest = 0
    for _label, V in _cases():
        for B in _dense_blocks(V):
            before = len(used)
            _det_poly(sparse(B))
            assert len(used) == before + 1
            p, m = used[-1], (2 * _hadamard_bound(B)).bit_length()
            k = (p - 1) >> m
            assert p > 2 * _hadamard_bound(B) and p == k * 2**m + 1
            assert k % 2 == 1 and k < 2**m
            widest = max(widest, m)
    assert widest >= 305
    assert all(is_proven_prime(p) for p in set(used))


def _recorded_hessenberg(monkeypatch) -> list:
    """The H of every _det_poly_mod call from now on, in call order."""
    seen = []
    hessenberg = gfmat.hessenberg

    def recorded(B, S):
        seen.append(hessenberg(B, S))
        return seen[-1]

    monkeypatch.setattr(gfmat, "hessenberg", recorded)
    return seen


def _zero_subdiagonals(H) -> int:
    return sum(H[k][k + 1] == 0 for k in range(len(H) - 1))


def test_det_poly_mod_at_small_primes(monkeypatch):
    # modulo 3, 5 and 7 pivots of D vanish and the Krylov remainders of
    # B^T vanish early; the residues are the reference's all the same
    seen = _recorded_hessenberg(monkeypatch)
    for label, V in _cases():
        for B in _dense_blocks(V):
            n, want = len(B), _reference_det_poly(B)
            for q in (3, 5, 7, 101):
                assert _det_poly_mod(sparse(B), q) == \
                    [c % q for c in want] + [0] * (n + 1 - len(want)), (label, q)
    assert sum(map(_zero_subdiagonals, seen)) >= 40


def test_hessenberg_restarts_on_a_repeated_block(monkeypatch):
    # the one-block copy of 2*T(2,5) is congruent to a block sum of two
    # equal blocks: the characteristic polynomial of B is a square and its
    # minimal polynomial has degree at most 4, so every Krylov subspace of
    # B^T has dimension at most 4 and the pass restarts at a unit vector
    seen = _recorded_hessenberg(monkeypatch)
    _V, W = mixed_sum("2*T(2,5)")
    assert len(W.blocks) == 1 and W.size == 8
    assert _det_poly(sparse(W.rows)) == _reference_det_poly(W.rows)
    assert _zero_subdiagonals(seen[0]) >= 1
    assert all(len(col) == k + 2 for k, col in enumerate(seen[0][:-1]))
