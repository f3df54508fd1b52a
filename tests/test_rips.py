import gc
import json
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
    edge_path_presentation,
    h1,
    h1_class,
    inclusion_h1_map,
)
from ripscover.space import Entourage, FiniteSpace, entourage_at
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
    sk1 = build_skeleton(sp, entourage_at(sp, 1.0))
    assert len(sk1.edges) == 6 and len(sk1.triangles) == 0
    sk3 = build_skeleton(sp, entourage_at(sp, 3.0))
    assert len(sk3.edges) == 15 and len(sk3.triangles) == 20
    sk0 = build_skeleton(sp, Entourage.identity(6))
    assert len(sk0.edges) == 0 and len(sk0.triangles) == 0


def test_skeleton_triangles_are_exactly_3_cliques():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(3, 8)
        e = random_entourage(rng, n, 0.5)
        sk = build_skeleton(space_for(e), e)
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
    sp = hexagon_ex72().space
    pres1 = edge_path_presentation(build_skeleton(sp, entourage_at(sp, 1.0)), 0)
    assert len(pres1.generators) == 1 and len(pres1.relators) == 0
    pres3 = edge_path_presentation(build_skeleton(sp, entourage_at(sp, 3.0)), 0)
    assert len(pres3.generators) == 10 and len(pres3.relators) == 20
    pres0 = edge_path_presentation(build_skeleton(sp, Entourage.identity(6)), 0)
    assert len(pres0.generators) == 0


def test_generator_count_identity():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 8)
        e = random_entourage(rng, n, 0.4)
        sk = build_skeleton(space_for(e), e)
        ncomp = len(sk.roots)
        assert len(sk.generators) == len(sk.edges) - (n - ncomp)


def test_h1_known_small_cases():
    sp = hexagon_ex72().space
    assert str(h1(build_skeleton(sp, entourage_at(sp, 1.0)))) == "Z"
    assert h1(build_skeleton(sp, entourage_at(sp, 3.0))).is_trivial()
    # two filled triangles, disjoint
    e = Entourage.from_pairs(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert h1(build_skeleton(space_for(e), e)).is_trivial()


def test_h1_matches_oracle_randomized():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(2, 8)
        e = random_entourage(rng, n, rng.choice([0.3, 0.5, 0.7]))
        sk = build_skeleton(space_for(e), e)
        rank, torsion = homology_oracle(n, sk.edges.tolist(), sk.triangles.tolist())
        grp = h1(sk)
        assert (grp.rank, grp.torsion) == (rank, torsion)


def test_h1_class_basics():
    sp = hexagon_ex72().space
    sk = build_skeleton(sp, entourage_at(sp, 1.0))
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
        sk = build_skeleton(space_for(e), e)
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
        sk = build_skeleton(space_for(e), e)
        data = sk.h1_data()
        for coord in range(data.group.dim):
            rep = data.representative(coord)
            got = data.class_of(rep)
            want = [0] * data.group.dim
            want[coord] = 1
            for i, d in enumerate(data.group.torsion):
                want[data.group.rank + i] %= d
            assert got == tuple(want)


def test_inclusion_map_identity_and_solenoid():
    sp = hexagon_ex72().space
    sk = build_skeleton(sp, entourage_at(sp, 1.0))
    m = inclusion_h1_map(sk, sk)
    assert m.matrix == ((1,),)

    g = solenoid(2, 64, 4, 1)
    sks = [build_skeleton(g.space, s) for s in g.ladder]
    m10 = inclusion_h1_map(sks[1], sks[0])
    m21 = inclusion_h1_map(sks[2], sks[1])
    assert m10.matrix in (((2,),), ((-2,),))
    assert m21.matrix in (((2,),), ((-2,),))


def test_inclusion_map_functorial_on_three_scales():
    g = polygon(12, 1)
    sks = [build_skeleton(g.space, s) for s in g.ladder]
    m10 = inclusion_h1_map(sks[1], sks[0])
    m21 = inclusion_h1_map(sks[2], sks[1])
    m20 = inclusion_h1_map(sks[2], sks[0])
    assert m10.compose(m21).matrix == m20.matrix

    s = solenoid(2, 64, 4, 1)
    sks = [build_skeleton(s.space, sc) for sc in s.ladder]
    m10 = inclusion_h1_map(sks[1], sks[0])
    m21 = inclusion_h1_map(sks[2], sks[1])
    m20 = inclusion_h1_map(sks[2], sks[0])
    assert m10.compose(m21).matrix == m20.matrix
    assert abs(m20.matrix[0][0]) == 4


def test_inclusion_requires_nesting():
    sp = hexagon_ex72().space
    fine = build_skeleton(sp, entourage_at(sp, 1.0))
    coarse = build_skeleton(sp, entourage_at(sp, 3.0))
    with pytest.raises(ValidationError):
        inclusion_h1_map(coarse, fine)


def test_skeleton_and_presentation_json():
    sp = hexagon_ex72().space
    sk = build_skeleton(sp, entourage_at(sp, 1.0))
    doc = sk.to_json()
    assert doc["n"] == 6 and len(doc["edges"]) == 6
    pres = edge_path_presentation(sk, 0)
    pdoc = pres.to_json()
    assert len(pdoc["generators"]) == 1 and pdoc["basepoint"] == 0


def test_generator_count_minus_relator_rank_gives_h1_rank():
    # |generators| - rank(abelianized relators) must equal the homology rank
    from _oracles import _rank_rational

    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(2, 8)
        e = random_entourage(rng, n, 0.5)
        sk = build_skeleton(space_for(e), e)
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


def _plain_int_rows(items, width):
    return all(type(t) is list and len(t) == width and all(type(v) is int for v in t) for t in items)


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
        (space_for(Entourage.identity(5)), Entourage.identity(5)),  # empty relation
        (hexagon, entourage_at(hexagon, 1.0)),  # edges, no triangles
        (space_for(Entourage.identity(1)), Entourage.identity(1)),  # one point
        (space_for(two_triangles), two_triangles),  # a forest with two roots
        (hexagon, entourage_at(hexagon, 3.0)),
    ]
    for sp, e in cases:
        sk = build_skeleton(sp, e)
        assert _sorted_int_array(sk.triangles, 3) and _sorted_int_array(sk.edges, 2)
        assert _sorted_int_array(sk.generators, 2)
        assert all(type(r) is int for r in sk.roots)
        doc = sk.to_json()
        assert _plain_int_rows(doc["triangles"], 3) and _plain_int_rows(doc["edges"], 2)
        assert json.loads(json.dumps(doc))["triangles"] == doc["triangles"] == sk.triangles.tolist()
        assert doc["edges"] == sk.edges.tolist()
        pres = edge_path_presentation(sk, 0)
        assert all(type(v) is int for g in pres.generators for v in g)
        assert all(type(g) is int and type(s) is int for word in pres.relators for g, s in word)
        data = sk.h1_data()
        for g in range(len(sk.generators)):
            assert all(type(v) is int for v in sk.fundamental_walk(g) + list(data.class_of({g: 1})))
    assert len(build_skeleton(*cases[3]).roots) == 2


def test_h1_data_without_generators_or_triangles():
    sp = space_for(Entourage.identity(4))
    data = build_skeleton(sp, Entourage.identity(4)).h1_data()  # no generators
    assert data.group.is_trivial() and data.class_of({}) == () and data.subs == []
    tree = Entourage.from_pairs(4, [(0, 1), (1, 2), (1, 3)])
    assert build_skeleton(space_for(tree), tree).h1_data().group.is_trivial()
    hexagon = hexagon_ex72().space
    sk = build_skeleton(hexagon, entourage_at(hexagon, 1.0))  # one generator, no triangles
    data = sk.h1_data()
    assert str(data.group) == "Z" and data.untouched == [0] and data.subs == []
    assert data.class_of({0: 3}) == (3,)


def _by_columns(cols, dim):
    return tuple(tuple(col[r] for col in cols) for r in range(dim))


def _assert_same_as_all_rows(sk, rng, exact=False, vectors=20):
    # the same group, and coordinates that differ from the all-rows greedy's
    # by an invertible integer change of basis M (M's columns are the classes
    # of the greedy's representatives); with `exact`, by none
    data = sk.h1_data()
    ref = AllRowsH1(sk)
    assert data.group == ref.group
    dim = data.group.dim
    fwd = H1Map(ref.group, data.group, _by_columns([data.class_of(ref.representative(j)) for j in range(dim)], dim))
    back = H1Map(data.group, ref.group, _by_columns([ref.class_of(data.representative(j)) for j in range(dim)], dim))
    eye = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    assert fwd.compose(back).matrix == eye and back.compose(fwd).matrix == eye
    for g, want in enumerate(ref.generator_classes()):
        got = data.class_of({g: 1})
        assert got == fwd.apply(want) and (got == want or not exact)
    ngen = len(sk.generators)
    for _ in range(vectors if ngen else 0):
        vec = {rng.randrange(ngen): rng.randint(-3, 3) for _ in range(rng.randint(1, 8))}
        want = ref.class_of(vec)
        got = data.class_of(vec)
        assert got == fwd.apply(want) and (got == want or not exact)


def test_peeled_h1_matches_all_rows_elimination_random():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(2, 8)
        e = random_entourage(rng, n, rng.choice([0.25, 0.4, 0.55, 0.75]))
        _assert_same_as_all_rows(build_skeleton(space_for(e), e), rng)


def test_peeled_h1_matches_all_rows_elimination_hawaiian():
    # the survivor of each class is its largest generator, the column the
    # greedy keeps, so these scales have the greedy's very coordinates
    rng = random.Random(7)
    small = hawaiian(3, 16)
    for e in small.ladder:
        _assert_same_as_all_rows(build_skeleton(small.space, e), rng, exact=True)
    large = hawaiian(5, 24)
    for e in list(large.ladder)[1:6]:  # the coarsest scale costs the oracle seconds
        _assert_same_as_all_rows(build_skeleton(large.space, e), rng, exact=True)


def _relabelled(m, samples, seed, scale):
    """hawaiian(m, samples) at one scale, its points shuffled by the seed."""
    g = hawaiian(m, samples)
    perm = list(range(g.space.n))
    random.Random(seed).shuffle(perm)
    e = list(g.ladder)[scale]
    sub = Entourage(e.rel[np.ix_(perm, perm)])
    return RipsSkeleton(space_for(sub), sub)


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


def test_stalled_relabelling_sends_no_rows_to_the_greedy(monkeypatch):
    # every row the peel leaves here has two live generators, and the
    # identifications settle all of them on the edge matrices
    rows = []
    greedy = rips.eliminate_unit_pivots
    monkeypatch.setattr(rips, "eliminate_unit_pivots", lambda r: rows.append(len(r)) or greedy(r))
    sk = _relabelled(5, 24, 160, 1)
    tracemalloc.start()
    try:
        data = sk.h1_data()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(data.group) == "Z" and rows == [0]
    assert peak <= 6 << 20


def test_edge_closure_matches_union_find_over_listed_rows():
    # the same kills, classes, signs and rows left as a signed union-find
    # run over every row the triangle peel leaves
    rng = random.Random(2024)
    cases = []
    for _ in range(200):
        n = rng.randint(2, 8)
        e = random_entourage(rng, n, rng.choice([0.25, 0.4, 0.55, 0.75]))
        cases.append(build_skeleton(space_for(e), e))
    for g in (hawaiian(3, 16), hawaiian(5, 24)):
        cases += [build_skeleton(g.space, e) for e in g.ladder]
    for sk in cases + list(_stalled_skeletons()):
        cls, rows = rips._closure(sk)
        assert (cls.tolist(), rows) == listed_closure(sk)


def _h1_layer(e, budget):
    """What the block loops produce on one relation: the closure, the
    triangle count and the triangles of a fresh skeleton, built in blocks of
    `budget` bytes."""
    with mock.patch.object(rips, "_BLOCK_BYTES", budget):
        sk = RipsSkeleton(space_for(e), e)
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
    want_any = (rel[a] & rel[b]).any(axis=1)
    want_max = np.where(rel[:, :, None], lab[None, :, :], -1).max(axis=1)
    with mock.patch.object(rips, "_BLOCK_BYTES", budget):
        got_any = rips._any_common(rel, a, b)
        got_max = rips._max_over(rel, lab)
        got_max_t = rips._max_over(rel, lab.T)
    assert np.array_equal(got_any, want_any)
    assert got_max.dtype == np.int32 and np.array_equal(got_max, want_max)
    assert np.array_equal(got_max_t, np.where(rel[:, :, None], lab.T[None, :, :], -1).max(axis=1))


def test_h1_torsion_on_rp2():
    # RP^2's classes are twisted (+g and -g in one component): they reach
    # the greedy unmerged, as rows of two letters that are their own survivors
    base = rp2_relation()
    n = base.n
    sk = RipsSkeleton(space_for(base), base)
    assert homology_oracle(n, sk.edges.tolist(), sk.triangles.tolist()) == (0, (2,))  # the same on every relabelling
    for seed in range(20):
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
        e = Entourage(base.rel[np.ix_(perm, perm)])
        sk = RipsSkeleton(space_for(e), e)
        data = sk.h1_data()
        assert data.group == AllRowsH1(sk).group == AbelianGroup(0, (2,))
        assert data.class_of(data.representative(0)) == (1,)
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
        sk = RipsSkeleton(space_for(e), e)
        parent, component = vertex_bfs_forest(e)
        assert (sk.parent, sk.component) == (parent, component)
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
        sk = build_skeleton(space_for(sub), sub)
        grp = h1(sk)
        assert (grp.rank, grp.torsion) == homology_oracle(len(idx), sk.edges.tolist(), sk.triangles.tolist())
    sk = build_skeleton(g.space, g.ladder.finest())
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
    sk = build_skeleton(sp, e)
    assert build_skeleton(sp, e) is sk
    assert build_skeleton(FiniteSpace(sp.labels, dist=sp.dist), e) is sk  # an equal space
    # a different space of the same size gets its own skeleton
    wide = FiniteSpace(sp.labels, dist=2 * sp.dist)
    other = build_skeleton(wide, e)
    assert other is not sk and other.space is wide and build_skeleton(wide, e) is other
    # nothing process-wide holds a skeleton: it goes with its relation, a
    # cycle only the cyclic collector frees (watched through an array only
    # the skeleton holds, as a slotted skeleton takes no weak reference)
    gone = weakref.ref(build_skeleton(sp, entourage_at(sp, 1.0)).gen_id)
    gc.collect()
    assert gone() is None


def test_triangle_count_without_triangles():
    rng = random.Random(5)
    cases = [Entourage.identity(1), Entourage.identity(6), Entourage.complete(2), Entourage.complete(7)]
    cases += [random_entourage(rng, rng.randint(2, 9), rng.choice([0.2, 0.5, 0.8])) for _ in range(60)]
    for e in cases:
        sk = RipsSkeleton(space_for(e), e)
        count = sk.triangle_count
        assert sk._triangles is None and type(count) is int
        assert count == len(sk.triangles)


def test_skeleton_memory_per_triangle():
    # coarsest hawaiian(5, 24) scale: the array costs 24 B per triangle; a
    # list of tuples built with it would add about 70 B, past both bounds
    g = hawaiian(5, 24)
    RipsSkeleton(g.space, g.ladder[-1]).triangles  # first-use allocations outside the trace
    tracemalloc.start()
    try:
        sk = RipsSkeleton(g.space, g.ladder[0])
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
    RipsSkeleton(g.space, g.ladder[-1]).h1_data()  # first-use allocations outside the trace
    tracemalloc.start()
    try:
        sk = RipsSkeleton(g.space, g.ladder[0])
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
