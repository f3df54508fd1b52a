import random

import numpy as np

from _oracles import dict_unit_pivots, hermite_contains, reduce_vector
from ripscover.snf import IntLattice, smith_normal_form, snf_invariants, xgcd


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
        # object arrays keep the entries Python ints, so the products are exact
        left, left_inv = np.array(left, dtype=object), np.array(left_inv, dtype=object)
        assert ((left @ left_inv) == np.eye(m, dtype=int)).all()
        nonzero = [d for d in diag if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # the left transform alone must preserve the column lattice
        lat_before = IntLattice.from_vectors(m, [[row[j] for row in mat] for j in range(k)])
        back = left_inv @ (left @ np.array(mat, dtype=object))
        assert back.tolist() == mat
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
        subs, core = dict_unit_pivots(rows)
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
