import random

import pytest

from ripscover.errors import ValidationError
from ripscover.gallery import hexagon_ex72, polygon, solenoid
from ripscover.rips import (
    build_skeleton,
    edge_path_presentation,
    h1,
    h1_class,
    inclusion_h1_map,
)
from ripscover.space import Entourage, entourage_at

from _oracles import homology_oracle, random_entourage, space_for


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
        assert set(sk.triangles) == want
        edges = set(sk.edges)
        for (i, j, k) in sk.triangles:
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
        rank, torsion = homology_oracle(n, sk.edges, sk.triangles)
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
