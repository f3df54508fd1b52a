import gc
import random
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ripscover import rips
from ripscover.errors import ValidationError
from ripscover.gallery import hawaiian, hexagon_ex72, polygon, solenoid
from ripscover.rips import (
    AbelianGroup,
    H1Map,
    RipsSkeleton,
    build_skeleton,
    h1,
    h1_class,
    inclusion_h1_map,
)
from ripscover.space import Entourage, entourage_at
from ripscover.tower import build_tower

from _oracles import (
    AllRowsH1,
    homology_oracle,
    listed_closure,
    random_entourage,
    rp2_relation,
    space_for,
    triangle_peel_rows,
    vertex_bfs_forest,
)


def test_skeleton_counts_hexagon():
    sp = hexagon_ex72().space
    sk1 = build_skeleton(entourage_at(sp, 1.0))
    assert len(sk1.edges) == 6 and len(sk1.triangles) == 0
    sk3 = build_skeleton(entourage_at(sp, 3.0))
    assert len(sk3.edges) == 15 and len(sk3.triangles) == 20
    sk0 = build_skeleton(Entourage.identity(6))
    assert len(sk0.edges) == 0 and len(sk0.triangles) == 0


def test_skeleton_triangles_are_exactly_3_cliques():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(3, 8)
        e = random_entourage(rng, n, 0.5)
        sk = build_skeleton(e)
        want = {
            (i, j, k)
            for i in range(n)
            for j in range(i + 1, n)
            for k in range(j + 1, n)
            if e.related(i, j) and e.related(j, k) and e.related(i, k)
        }
        assert sk.triangles.tolist() == [list(t) for t in sorted(want)]
        edges = set(map(tuple, sk.edges.tolist()))
        for (i, j, k) in sk.triangles.tolist():
            assert (i, j) in edges and (j, k) in edges and (i, k) in edges


def test_presentation_counts():
    # the edge-path presentation: a generator per non-forest edge, a relator per triangle
    sp = hexagon_ex72().space
    sk1 = build_skeleton(entourage_at(sp, 1.0))
    assert len(sk1.generators) == 1 and len(sk1.triangles) == 0
    sk3 = build_skeleton(entourage_at(sp, 3.0))
    assert len(sk3.generators) == 10 and len(sk3.triangles) == 20
    assert len(build_skeleton(Entourage.identity(6)).generators) == 0


def test_generator_count_identity():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 8)
        e = random_entourage(rng, n, 0.4)
        sk = build_skeleton(e)
        ncomp = sk.parent.count(-1)
        assert len(sk.generators) == len(sk.edges) - (n - ncomp)


def test_h1_known_small_cases():
    sp = hexagon_ex72().space
    assert str(h1(build_skeleton(entourage_at(sp, 1.0)))) == "Z"
    assert h1(build_skeleton(entourage_at(sp, 3.0))).is_trivial()
    # two filled triangles, disjoint
    e = Entourage.from_pairs(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert h1(build_skeleton(e)).is_trivial()


def test_h1_matches_oracle_randomized():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(2, 8)
        e = random_entourage(rng, n, rng.choice([0.3, 0.5, 0.7]))
        sk = build_skeleton(e)
        rank, torsion = homology_oracle(n, sk.edges.tolist(), sk.triangles.tolist())
        grp = h1(sk)
        assert (grp.rank, grp.torsion) == (rank, torsion)


def test_h1_class_basics():
    sp = hexagon_ex72().space
    sk = build_skeleton(entourage_at(sp, 1.0))
    assert h1_class(sk, [0, 0]) == (0,)
    cyc = [0, 1, 2, 3, 4, 5, 0]
    assert h1_class(sk, cyc) in ((1,), (-1,))
    assert h1_class(sk, list(reversed(cyc))) == tuple(-v for v in h1_class(sk, cyc))
    with pytest.raises(Exception):
        h1_class(sk, [0, 1])  # not closed


def test_h1_class_concat_additive():
    rng = random.Random(31)
    from _oracles import random_chain

    for _ in range(40):
        n = rng.randint(3, 8)
        e = random_entourage(rng, n, 0.6)
        sk = build_skeleton(e)
        a = random_chain(rng, e, rng.randint(1, 5), start=0)
        b = random_chain(rng, e, rng.randint(1, 5), start=0)
        if a is None or b is None or a[-1] != 0 or b[-1] != 0:
            continue
        both = a + b[1:]
        ca = h1_class(sk, a)
        cb = h1_class(sk, b)
        grp = sk.h1_data().group
        want = list(x + y for x, y in zip(ca, cb))
        for i, d in enumerate(grp.torsion):
            want[grp.rank + i] %= d
        assert h1_class(sk, both) == tuple(want)


def test_h1_representatives_hit_basis():
    rng = random.Random(55)
    for _ in range(30):
        n = rng.randint(3, 8)
        e = random_entourage(rng, n, 0.5)
        sk = build_skeleton(e)
        data = sk.h1_data()
        for coord in range(data.group.dim):
            rep = data.representative(coord)
            got = _class(data, rep)
            want = [0] * data.group.dim
            want[coord] = 1
            for i, d in enumerate(data.group.torsion):
                want[data.group.rank + i] %= d
            assert got == tuple(want)


def test_inclusion_map_identity_and_solenoid():
    sp = hexagon_ex72().space
    sk = build_skeleton(entourage_at(sp, 1.0))
    m = inclusion_h1_map(sk, sk)
    assert m.matrix == ((1,),)

    g = solenoid(2, 64, 4, 1)
    sks = [build_skeleton(s) for s in g.ladder]
    m10 = inclusion_h1_map(sks[1], sks[0])
    m21 = inclusion_h1_map(sks[2], sks[1])
    assert m10.matrix in (((2,),), ((-2,),))
    assert m21.matrix in (((2,),), ((-2,),))


def test_inclusion_map_functorial_on_three_scales():
    g = polygon(12, 1)
    sks = [build_skeleton(s) for s in g.ladder]
    m10 = inclusion_h1_map(sks[1], sks[0])
    m21 = inclusion_h1_map(sks[2], sks[1])
    m20 = inclusion_h1_map(sks[2], sks[0])
    assert m10.compose(m21).matrix == m20.matrix

    s = solenoid(2, 64, 4, 1)
    sks = [build_skeleton(sc) for sc in s.ladder]
    m10 = inclusion_h1_map(sks[1], sks[0])
    m21 = inclusion_h1_map(sks[2], sks[1])
    m20 = inclusion_h1_map(sks[2], sks[0])
    assert m10.compose(m21).matrix == m20.matrix
    assert abs(m20.matrix[0][0]) == 4


def test_inclusion_requires_nesting():
    sp = hexagon_ex72().space
    fine = build_skeleton(entourage_at(sp, 1.0))
    coarse = build_skeleton(entourage_at(sp, 3.0))
    with pytest.raises(ValidationError):
        inclusion_h1_map(coarse, fine)


def test_generator_count_minus_relator_rank_gives_h1_rank():
    # |generators| - rank(abelianized relators) must equal the homology rank
    from _oracles import _rank_rational

    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(2, 8)
        e = random_entourage(rng, n, 0.5)
        sk = build_skeleton(e)
        rows = []
        for (i, j, k) in sk.triangles:
            row = [0] * len(sk.generators)
            for u, v in ((i, j), (j, k), (k, i)):
                gs = sk.step_gen(u, v)
                if gs is not None:
                    row[gs[0]] += gs[1]
            rows.append(row)
        rank_rel = _rank_rational(rows) if rows else 0
        assert len(sk.generators) - rank_rel == h1(sk).rank


def _sorted_int_array(arr, width):
    # read-only, integer-typed, (rows x width), rows distinct and in lexicographic order
    rows = arr.tolist()
    return (
        type(arr) is np.ndarray and arr.dtype.kind == "i" and not arr.flags.writeable
        and arr.shape == (len(rows), width) and rows == sorted(rows)
        and len(set(map(tuple, rows))) == len(rows)
    )


def test_skeleton_output_is_plain_python():
    two_triangles = Entourage.from_pairs(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    hexagon = hexagon_ex72().space
    cases = [
        Entourage.identity(5),  # empty relation
        entourage_at(hexagon, 1.0),  # edges, no triangles
        Entourage.identity(1),  # one point
        two_triangles,  # a forest with two roots
        entourage_at(hexagon, 3.0),
    ]
    for e in cases:
        sk = build_skeleton(e)
        assert _sorted_int_array(sk.triangles, 3) and _sorted_int_array(sk.edges, 2)
        assert _sorted_int_array(sk.generators, 2)
        assert all(type(p) is int for p in sk.parent)
        data = sk.h1_data()
        for g in range(len(sk.generators)):
            assert all(type(v) is int for v in sk.fundamental_walk(g) + list(_class(data, {g: 1})))
    assert build_skeleton(cases[3]).parent.count(-1) == 2


def test_h1_data_without_generators_or_triangles():
    sp = space_for(Entourage.identity(4))
    data = build_skeleton(Entourage.identity(4)).h1_data()  # no generators
    assert data.group.is_trivial() and _class(data, {}) == ()
    tree = Entourage.from_pairs(4, [(0, 1), (1, 2), (1, 3)])
    assert build_skeleton(tree).h1_data().group.is_trivial()
    hexagon = hexagon_ex72().space
    sk = build_skeleton(entourage_at(hexagon, 1.0))  # one generator, no triangles
    data = sk.h1_data()
    assert str(data.group) == "Z" and data.untouched == [0]
    assert _class(data, {0: 3}) == (3,)


def _class(data, gen_vector):
    # the class of a generator vector in an H1 basis: its reduced coordinates
    return data.group.reduce(data.coords(gen_vector))


def _by_columns(cols, dim):
    return tuple(tuple(col[r] for col in cols) for r in range(dim))


def _assert_same_as_all_rows(sk, rng, exact=False, vectors=20):
    # the same group, and coordinates that differ from the all-rows
    # elimination's by an invertible integer change of basis M (M's columns
    # are the classes of its representatives); with `exact`, by none
    data = sk.h1_data()
    ref = AllRowsH1(sk)
    assert data.group == ref.group
    dim = data.group.dim
    fwd = H1Map(ref.group, data.group, _by_columns([_class(data, ref.representative(j)) for j in range(dim)], dim))
    back = H1Map(data.group, ref.group, _by_columns([_class(ref, data.representative(j)) for j in range(dim)], dim))
    eye = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    assert fwd.compose(back).matrix == eye and back.compose(fwd).matrix == eye
    for g, want in enumerate(ref.generator_classes()):
        got = _class(data, {g: 1})
        assert got == fwd.apply(want) and (got == want or not exact)
    ngen = len(sk.generators)
    for _ in range(vectors if ngen else 0):
        vec = {rng.randrange(ngen): rng.randint(-3, 3) for _ in range(rng.randint(1, 8))}
        want = _class(ref, vec)
        got = _class(data, vec)
        assert got == fwd.apply(want) and (got == want or not exact)


def test_peeled_h1_matches_all_rows_elimination_random():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(2, 8)
        e = random_entourage(rng, n, rng.choice([0.25, 0.4, 0.55, 0.75]))
        _assert_same_as_all_rows(build_skeleton(e), rng)


def test_peeled_h1_matches_all_rows_elimination_hawaiian():
    # the survivor of each class is its largest generator, the column the
    # all-rows elimination keeps, and the closure leaves no row at these
    # scales, so they have the elimination's very coordinates
    rng = random.Random(7)
    small = hawaiian(3, 16)
    for e in small.ladder:
        _assert_same_as_all_rows(build_skeleton(e), rng, exact=True)
    large = hawaiian(5, 24)
    for e in list(large.ladder)[1:6]:  # the coarsest scale costs the oracle seconds
        _assert_same_as_all_rows(build_skeleton(e), rng, exact=True)


def _relabelled(m, samples, seed, scale):
    """hawaiian(m, samples) at one scale, its points shuffled by the seed."""
    g = hawaiian(m, samples)
    perm = list(range(g.space.n))
    random.Random(seed).shuffle(perm)
    e = list(g.ladder)[scale]
    sub = Entourage(e.rel[np.ix_(perm, perm)])
    return RipsSkeleton(sub)


def _stalled_skeletons():
    # relabellings on which the peel alone stops with thousands of rows of
    # two live generators left: hawaiian(3, 16) leaves 2,050 rows at scale 1,
    # hawaiian(5, 24) 21,366 at scale 3 and 110,418 at scale 1
    for (m, samples), seed, scale in (((3, 16), 11, 1), ((5, 24), 37, 3), ((5, 24), 160, 1)):
        yield _relabelled(m, samples, seed, scale)


def test_peeled_h1_matches_all_rows_when_the_peel_stalls():
    rng = random.Random(8)
    for t, sk in enumerate(_stalled_skeletons()):
        assert len(triangle_peel_rows(sk)[1]) > 2000
        _assert_same_as_all_rows(sk, rng, exact=t == 0)


def test_stalled_relabellings_send_distinct_rows_to_the_smith_form(monkeypatch):
    # seed 37: the closure leaves 2,326 rows, repeats of two rows over three
    # letters, and the Smith form gets the two; seed 160: every row the peel
    # leaves has two live generators, the identifications settle all of
    # them on the edge matrices, and the Smith form gets an empty matrix
    shapes = []
    smith = rips.smith_normal_form
    monkeypatch.setattr(rips, "smith_normal_form",
                        lambda mat: shapes.append((len(mat), len(mat[0]) if mat else 0)) or smith(mat))
    sk = _relabelled(5, 24, 37, 3)
    assert len(rips._closure(sk)[1]) == 2326
    assert str(sk.h1_data().group) == "Z^2" and shapes == [(3, 2)]
    sk = _relabelled(5, 24, 160, 1)
    tracemalloc.start()
    try:
        data = sk.h1_data()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(data.group) == "Z" and shapes == [(3, 2), (0, 0)]
    assert peak <= 6 << 20


# a triangle with three live edges here reads as the one unit letter +g0
# once the identifications are made
ONE_LETTER = Entourage.from_pairs(8, [
    [0, 2], [0, 4], [0, 6], [1, 3], [1, 4], [1, 6], [1, 7], [2, 3], [2, 4],
    [2, 5], [2, 7], [3, 5], [3, 6], [4, 5], [4, 7], [5, 6], [5, 7], [6, 7],
])


def test_edge_closure_matches_union_find_over_listed_rows():
    # the same kills, classes, signs and rows left as a signed union-find
    # run over every row the triangle peel leaves
    rng = random.Random(2024)
    cases = []
    for _ in range(200):
        n = rng.randint(2, 8)
        e = random_entourage(rng, n, rng.choice([0.25, 0.4, 0.55, 0.75]))
        cases.append(build_skeleton(e))
    for g in (hawaiian(3, 16), hawaiian(5, 24)):
        cases += [build_skeleton(e) for e in g.ladder]
    cases.append(build_skeleton(ONE_LETTER))
    for sk in cases + list(_stalled_skeletons()):
        cls, rows = rips._closure(sk)
        assert (cls.tolist(), rows) == listed_closure(sk)


def test_closure_leaves_a_one_letter_row_to_the_smith_form():
    # the row {0: 1} reaches the Smith form, which kills generator 0's class
    sk = RipsSkeleton(ONE_LETTER)
    cls, rows = rips._closure(sk)
    assert rows == [{0: 1}] and cls[0] == 1
    data = sk.h1_data()
    assert homology_oracle(8, sk.edges.tolist(), sk.triangles.tolist()) == (1, ())
    assert str(data.group) == "Z" and _class(data, {0: 1}) == (0,)
    _assert_same_as_all_rows(sk, random.Random(5))


def test_one_letter_rows_keep_the_group_exact():
    # a seeded sweep: every group equals the all-rows elimination's, and
    # sympy's where the closure leaves a one-letter row
    rng = random.Random(1)
    found = 0
    for _ in range(2000):
        n = rng.randint(4, 14)
        e = random_entourage(rng, n, rng.choice([0.15, 0.3, 0.45, 0.6, 0.75, 0.9]))
        sk = build_skeleton(e)
        group = h1(sk)
        assert group == AllRowsH1(sk).group
        if any(len(r) == 1 and abs(c) == 1 for r in rips._closure(sk)[1] for c in r.values()):
            found += 1
            assert group == AbelianGroup(*homology_oracle(n, sk.edges.tolist(), sk.triangles.tolist()))
    assert found == 6


def _h1_layer(e, budget):
    """What the block loops produce on one relation: the closure, the
    triangle count and the triangles of a fresh skeleton, built in blocks of
    `budget` bytes."""
    with mock.patch.object(rips, "_BLOCK_BYTES", budget):
        sk = RipsSkeleton(e)
        cls, rows = rips._closure(sk)
        return cls.tolist(), rows, sk.triangle_count, sk.triangles.tolist()


def test_h1_layer_does_not_depend_on_the_block_budget_on_the_gallery():
    # a budget of one byte gathers one row per block, and _max_over one
    # related pair per block
    cases = [e for g in (hexagon_ex72(), polygon(12, 1.0), hawaiian(3, 16)) for e in g.ladder]
    cases += [list(hawaiian(5, 24).ladder)[3], _relabelled(5, 24, 37, 3).entourage, rp2_relation()]
    for e in cases:
        want = _h1_layer(e, rips._BLOCK_BYTES)
        for budget in (1, 3 * e.n + 1):
            assert _h1_layer(e, budget) == want


@settings(derandomize=True, max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(2, 14), p=st.sampled_from([0.25, 0.5, 0.8]),
       budget=st.integers(1, 600))
def test_h1_layer_does_not_depend_on_the_block_budget(seed, n, p, budget):
    e = random_entourage(random.Random(seed), n, p)
    assert _h1_layer(e, budget) == _h1_layer(e, rips._BLOCK_BYTES)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 12), p=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       budget=st.integers(1, 400))
def test_block_loops_match_dense_numpy(seed, n, p, budget):
    # small budgets split the pairs, and the related pairs of one row of
    # _max_over, between blocks; labels are never below -1
    rng = np.random.default_rng(seed)
    rel = rng.random((n, n)) < p
    lab = rng.integers(-1, 3 * n, size=(n, n)).astype(np.int32)
    a, b = rng.integers(0, n, size=(2, 3 * n))
    pick = np.flatnonzero(rng.random(3 * n) < 0.5)
    want_any = np.flatnonzero((rel[a] & rel[b]).any(axis=1))
    want_max = np.where(rel[:, :, None], lab[None, :, :], -1).max(axis=1)
    with mock.patch.object(rips, "_BLOCK_BYTES", budget):
        got_any = rips._any_common(rel, a, b, range(3 * n))
        got_pick = rips._any_common(rel, a, b, pick)
        got_max = rips._max_over(rel, lab)
        got_max_t = rips._max_over(rel, lab.T)
    assert np.array_equal(got_any, want_any)
    assert np.array_equal(got_pick, np.intersect1d(pick, want_any))
    assert got_max.dtype == np.int32 and np.array_equal(got_max, want_max)
    assert np.array_equal(got_max_t, np.where(rel[:, :, None], lab.T[None, :, :], -1).max(axis=1))


def test_h1_torsion_on_rp2():
    # RP^2's classes are twisted (+g and -g in one component): they reach
    # the Smith form unmerged, as rows of two letters that are their own survivors
    base = rp2_relation()
    n = base.n
    sk = RipsSkeleton(base)
    assert homology_oracle(n, sk.edges.tolist(), sk.triangles.tolist()) == (0, (2,))  # the same on every relabelling
    for seed in range(20):
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
        e = Entourage(base.rel[np.ix_(perm, perm)])
        sk = RipsSkeleton(e)
        data = sk.h1_data()
        assert data.group == AllRowsH1(sk).group == AbelianGroup(0, (2,))
        assert _class(data, data.representative(0)) == (1,)
        cls, rows = rips._closure(sk)
        assert any(len(r) == 2 for r in rows)
        assert all(cls[g] == g + 1 for r in rows for g in r)


def test_skeleton_generators_and_ids():
    # generators are the non-forest edges in edge order; gen_id holds their
    # ids both ways round and -1 elsewhere
    rng = random.Random(12)
    cases = [random_entourage(rng, rng.randint(1, 9), rng.choice([0.2, 0.5, 0.8])) for _ in range(60)]
    cases += list(hawaiian(3, 16).ladder)
    for e in cases:
        sk = RipsSkeleton(e)
        parent, _ = vertex_bfs_forest(e)
        assert sk.parent == parent
        want = [(a, b) for a, b in sk.edges.tolist() if parent[b] != a and parent[a] != b]
        assert sk.generators.tolist() == [list(w) for w in want] and _sorted_int_array(sk.generators, 2)
        gid = np.full((e.n, e.n), -1, dtype=np.int32)
        for k, (a, b) in enumerate(want):
            gid[a, b] = gid[b, a] = k
        assert sk.gen_id.dtype == np.int32 and np.array_equal(sk.gen_id, gid)
        for k, (a, b) in enumerate(want):
            assert sk.step_gen(a, b) == (k, 1) and sk.step_gen(b, a) == (k, -1)
            assert type(sk.step_gen(a, b)[0]) is int
        assert all(sk.step_gen(v, parent[v]) is None for v in range(e.n) if parent[v] >= 0)


def test_h1_matches_sympy_oracle_on_hawaiian():
    # the coarse scales take the rational rank and sympy's Smith form minutes,
    # so every scale is checked on the wedge point and every third sample,
    # and the finest scale also in full
    g = hawaiian(3, 16)
    idx = list(range(0, g.space.n, 3))
    for e in g.ladder:
        sub = Entourage(e.rel[np.ix_(idx, idx)])
        sk = build_skeleton(sub)
        grp = h1(sk)
        assert (grp.rank, grp.torsion) == homology_oracle(len(idx), sk.edges.tolist(), sk.triangles.tolist())
    sk = build_skeleton(g.ladder.finest())
    grp = h1(sk)
    assert (grp.rank, grp.torsion) == homology_oracle(g.space.n, sk.edges.tolist(), sk.triangles.tolist()) == (3, ())


def test_tower_builds_no_triangles():
    # H1 and analyze's summary list no triangles; the triangle array is
    # built only for the callers that read it.  No skeleton keeps a Python
    # container per edge, generator or triangle: none longer than n
    g = hawaiian(5, 24)
    tower = build_tower(g.space, g.ladder)
    for sk in tower.skeletons:
        assert sk._triangles is None and not hasattr(sk, "tri") and not hasattr(sk, "gen_ends")
        held = [getattr(sk, name) for name in RipsSkeleton.__slots__]
        assert all(len(x) <= sk.n for x in held if isinstance(x, (list, tuple, dict)))
    sk = tower.skeletons[-1]
    assert not sk.triangles.flags.writeable and sk.triangles is sk.triangles
    assert sk.triangles.shape == (sk.triangle_count, 3)


def test_a_relation_keeps_its_skeleton_for_its_own_lifetime():
    sp = hexagon_ex72().space
    e = entourage_at(sp, 1.0)
    sk = build_skeleton(e)
    assert build_skeleton(e) is sk and sk.entourage is e
    # nothing process-wide holds a skeleton: it goes with its relation, a
    # cycle only the cyclic collector frees (watched through an array only
    # the skeleton holds, as a slotted skeleton takes no weak reference)
    gone = weakref.ref(build_skeleton(entourage_at(sp, 1.0)).gen_id)
    gc.collect()
    assert gone() is None


def test_triangle_count_without_triangles():
    rng = random.Random(5)
    cases = [Entourage.identity(1), Entourage.identity(6), Entourage.complete(2), Entourage.complete(7)]
    cases += [random_entourage(rng, rng.randint(2, 9), rng.choice([0.2, 0.5, 0.8])) for _ in range(60)]
    for e in cases:
        sk = RipsSkeleton(e)
        count = sk.triangle_count
        assert sk._triangles is None and type(count) is int
        assert count == len(sk.triangles)


def test_skeleton_memory_per_triangle():
    # coarsest hawaiian(5, 24) scale: the array costs 24 B per triangle; a
    # list of tuples built with it would add about 70 B, past both bounds
    g = hawaiian(5, 24)
    RipsSkeleton(g.ladder[-1]).triangles  # first-use allocations outside the trace
    tracemalloc.start()
    try:
        sk = RipsSkeleton(g.ladder[0])
        r = len(sk.triangles)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r == 222398
    assert kept < 40 * r and peak < 100 * r


def test_skeleton_memory_per_edge():
    # coarsest hawaiian(5, 24) scale: the edge and generator arrays, the
    # class array and the n x n id matrix keep about 49 B per edge; tuple
    # lists of the edges and generators would add about 110 B
    g = hawaiian(5, 24)
    RipsSkeleton(g.ladder[-1]).h1_data()  # first-use allocations outside the trace
    tracemalloc.start()
    try:
        sk = RipsSkeleton(g.ladder[0])
        sk.h1_data()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(sk.edges) == 6336
    assert kept < 64 * len(sk.edges)


def test_block_temporaries_stay_within_a_few_budgets():
    # on the stalled relabelling the temporaries above what h1_data and
    # triangle_count keep are a few 256 KB blocks: about 0.94 and 0.89 MB
    for read, bound in ((RipsSkeleton.h1_data, 1.5), (lambda sk: sk.triangle_count, 1.1)):
        sk = _relabelled(5, 24, 160, 1)
        tracemalloc.start()
        try:
            read(sk)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept < bound * (1 << 20)


def test_closure_temporaries_stay_within_a_few_budgets_at_large_n():
    # coarsest hawaiian(5, 96) scale (n = 476, 107,172 generators): the step
    # nodes are built per block inside the propagation and the first kill
    # test runs over generator blocks, so h1_data peaks about 3.5 MB above
    # what it keeps; with whole n x n node temporaries and whole-generator
    # gathers it peaked 5.1 MB above
    g = hawaiian(5, 96)
    sk = RipsSkeleton(g.ladder[0])
    tracemalloc.start()
    try:
        data = sk.h1_data()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.group.is_trivial()
    assert peak - kept < 4.25 * (1 << 20)
