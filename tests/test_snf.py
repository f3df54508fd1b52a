import random
import tracemalloc

from _oracles import dict_unit_pivots, hermite_contains
from ripscover.snf import (
    IntLattice,
    eliminate_unit_pivots,
    mat_mul,
    reduce_vector,
    smith_normal_form,
    snf_invariants,
    xgcd,
)


def test_xgcd():
    for a, b in ((12, 18), (-7, 5), (0, 4), (9, 0), (0, 0), (270, 192)):
        x, y, g = xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0


def test_snf_known_matrix():
    assert snf_invariants([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert snf_invariants([[2, 0], [0, 3]]) == [1, 6]
    assert snf_invariants([[0, 0], [0, 0]]) == []


def test_snf_transforms_are_inverse_and_divisible():
    rng = random.Random(42)
    for _ in range(60):
        m = rng.randint(1, 5)
        k = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(m)]
        diag, left, left_inv = smith_normal_form(mat)
        prod = mat_mul(left, left_inv)
        assert prod == [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        nonzero = [d for d in diag if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # the left transform alone must preserve the column lattice
        lat_before = IntLattice.from_vectors(m, [[row[j] for row in mat] for j in range(k)])
        transformed = mat_mul(left, mat)
        back = mat_mul(left_inv, transformed)
        assert back == [list(map(int, r)) for r in mat]
        assert snf_invariants(mat) == [d for d in diag if d != 0]
        assert lat_before == lat_before  # canonical form is stable


def test_lattice_coordinates_sum_back():
    # random inputs with dependent vectors, zero vectors and torsion
    # relations d * e_i; members are integer combinations of the inputs and
    # random vectors, which mostly miss
    rng = random.Random(8)
    found = missed = 0
    for _ in range(400):
        m = rng.randint(1, 4)
        vectors = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(rng.randint(0, 4))]
        for _ in range(rng.randint(0, 2) if vectors else 0):
            a, b = rng.choice(vectors), rng.choice(vectors)
            c = rng.randint(-3, 3)
            vectors.append([u + c * v for u, v in zip(a, b)])
        for i in rng.sample(range(m), rng.randint(0, m)):
            vectors.append([rng.randint(2, 6) if c == i else 0 for c in range(m)])
        rng.shuffle(vectors)
        lat = IntLattice.from_vectors(m, vectors)
        queries = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(4)]
        for _ in range(4):
            w = [rng.randint(-4, 4) for _ in vectors]
            queries.append([sum(wi * v[c] for wi, v in zip(w, vectors)) for c in range(m)])
        for vec in queries:
            weights = lat.coordinates(vec)
            assert (weights is None) == (not hermite_contains(lat, vec))
            assert lat.contains(vec) == (weights is not None)
            if weights is None:
                missed += 1
                continue
            found += 1
            assert len(weights) == len(vectors)
            assert [sum(wi * v[c] for wi, v in zip(weights, vectors)) for c in range(m)] == vec
    assert found > 1600 and missed > 200


def test_lattice_membership_and_inclusion():
    lat = IntLattice.from_vectors(3, [[2, 0, 0], [0, 3, 0]])
    assert lat.contains([4, 3, 0])
    assert not lat.contains([1, 0, 0])
    assert not lat.contains([0, 0, 1])
    sub = IntLattice.from_vectors(3, [[4, 6, 0]])
    assert sub.issubset(lat)
    assert not lat.issubset(sub)
    assert IntLattice.from_vectors(3, []).is_trivial()


def test_lattice_canonical_equality():
    a = IntLattice.from_vectors(2, [[2, 1], [0, 5]])
    b = IntLattice.from_vectors(2, [[2, 6], [4, 7]])
    # same subgroup, different generators
    assert all(b.contains(r) for r in a.basis())
    assert all(a.contains(r) for r in b.basis())
    assert a == b


def test_sparse_elimination_matches_row_space():
    rng = random.Random(9)
    for _ in range(40):
        ncols = rng.randint(2, 7)
        nrows = rng.randint(1, 8)
        rows = []
        for _ in range(nrows):
            row = {}
            for c in rng.sample(range(ncols), k=min(3, ncols)):
                v = rng.choice([-1, 1, -1, 1, 2])
                row[c] = v
            rows.append(row)
        subs, core = eliminate_unit_pivots(rows)
        dense = [[r.get(c, 0) for c in range(ncols)] for r in rows]
        lat = IntLattice.from_vectors(ncols, dense)
        # reducing any row-space member must land in the core's row space
        core_lat = IntLattice.from_vectors(
            ncols, [[r.get(c, 0) for c in range(ncols)] for r in core]
        )
        for vec in dense:
            red = reduce_vector({c: v for c, v in enumerate(vec)}, subs)
            red_dense = [red.get(c, 0) for c in range(ncols)]
            assert core_lat.contains(red_dense)
        # and reduction must not change the class mod the row space
        for _ in range(5):
            probe = [rng.randint(-4, 4) for _ in range(ncols)]
            red = reduce_vector({c: v for c, v in enumerate(probe)}, subs)
            diff = [probe[c] - red.get(c, 0) for c in range(ncols)]
            assert lat.contains(diff)


def test_unit_pivots_match_dict_greedy():
    # the same pivots in the same order, the same snapshots and the same core
    # as the dict-and-set form, on rows with zero and non-unit entries, empty
    # rows and fill, and on two-entry rows over a random graph, the shape a
    # stalled peel leaves; rows are read once from an iterator, never mutated
    rng = random.Random(31)
    for trial in range(1600):
        ncols = rng.randint(1, 25)
        if trial % 4 == 0:
            rows = [dict(zip(rng.sample(range(ncols + 1), 2), rng.choice([(1, -1), (1, 1), (-1, 1)])))
                    for _ in range(rng.randint(0, 120))]
        else:
            width = rng.randint(1, 5)
            rows = [{c: rng.choice([-1, 1, 1, -1, 2, -2, 3, 0])
                     for c in rng.sample(range(ncols), rng.randint(0, min(width, ncols)))}
                    for _ in range(rng.randint(0, 50))]
        frozen = [dict(r) for r in rows]
        assert eliminate_unit_pivots(iter(rows)) == dict_unit_pivots(rows)
        assert rows == frozen


def test_unit_pivots_hold_a_few_words_per_row():
    # 6,000 two-entry rows over 300 columns: one component, 299 pivots, every
    # other row cancelled by them.  The dict-and-set form peaks near 640
    # bytes a row; rows read from a generator must not all be kept as dicts
    rng = random.Random(5)
    pairs = [tuple(rng.sample(range(300), 2)) for _ in range(6_000)]
    tracemalloc.start()
    try:
        subs, core = eliminate_unit_pivots({a: 1, b: -1} for a, b in pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(subs) == 299 and core == []
    assert peak < 300 * len(pairs)

