import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from ripscover.errors import CarrierMismatch, ValidationError
from ripscover.gallery import hexagon_ex72
from ripscover.space import (
    Entourage,
    FiniteSpace,
    ScaleLadder,
    SpaceMap,
    ball,
    bfs_forest,
    compose,
    dump_space,
    entourage_at,
    image_under,
    load_space,
)

from _oracles import loop_image_under, random_entourage, space_for, vertex_bfs_forest


def test_csv_points_euclidean(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("label,x,y\nu,1,0\nv,0,1\nw,0,0\n")
    sp = load_space(str(p))
    assert sp.n == 3
    assert sp.dist[0, 1] == pytest.approx(math.sqrt(2))
    assert sp.dist[0, 2] == pytest.approx(1.0)


def test_csv_matrix_asymmetry_rejected(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("u,v\n0,1\n2,0\n")
    with pytest.raises(ValidationError, match="symmetric"):
        load_space(str(p))


def test_negative_and_diagonal_rejected():
    with pytest.raises(ValidationError, match="negative"):
        FiniteSpace(["u", "v"], dist=[[0, -1], [-1, 0]])
    with pytest.raises(ValidationError, match="diagonal"):
        FiniteSpace(["u", "v"], dist=[[1, 2], [2, 0]])


def test_json_needs_exactly_one_of_coords_dist(tmp_path):
    p = tmp_path / "s.json"
    p.write_text('{"labels": ["u"], "coords": [[0,0]], "dist": [[0]]}')
    with pytest.raises(ValidationError, match="exactly one"):
        load_space(str(p))


def test_gallery_dump_reload_round_trip(tmp_path):
    g = hexagon_ex72()
    path = tmp_path / "hex.json"
    dump_space(g.space, str(path), ladder=g.ladder)
    again = load_space(str(path))
    assert again.labels == g.space.labels
    assert np.array_equal(again.dist, g.space.dist)
    assert again.distinguished == g.space.distinguished
    assert again == g.space


def test_entourage_at_hexagon_scales():
    sp = hexagon_ex72().space
    assert len(entourage_at(sp, 3.0).pairs()) == 15  # complete on 6 points
    e0 = entourage_at(sp, 0.0)
    assert e0.pairs() == []
    e1 = entourage_at(sp, 1.0)
    assert (0, 1) in e1.pairs() and len(e1.pairs()) == 6


def test_entourage_at_monotone():
    rng = random.Random(7)
    sp = hexagon_ex72().space
    for _ in range(50):
        a, b = sorted(rng.uniform(0, 2.5) for _ in range(2))
        assert entourage_at(sp, a).issubset(entourage_at(sp, b))


def test_compose_identity_and_complete():
    e = random_entourage(random.Random(3), 6, 0.4)
    ident = Entourage.identity(6)
    comp = Entourage.complete(6)
    assert compose(ident, e) == e
    assert compose(comp, e) == comp
    with pytest.raises(CarrierMismatch):
        compose(e, Entourage.identity(5))


def test_compose_six_cycle_squares_to_two_neighbors():
    pairs = [(i, (i + 1) % 6) for i in range(6)]
    e = Entourage.from_pairs(6, pairs)
    e2 = compose(e, e)
    for i in range(6):
        expect = {i, (i + 1) % 6, (i - 1) % 6, (i + 2) % 6, (i - 2) % 6}
        assert set(ball(e2, i)) == expect


def test_compose_power_associative_and_monotone():
    # mixed symmetrized products are not associative in general; powers of a
    # single relation are, and those are the compositions the checks use
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 8)
        e = random_entourage(rng, n, 0.4)
        f = random_entourage(rng, n, 0.4)
        assert compose(compose(e, e), e) == compose(e, compose(e, e))
        bigger = Entourage(e.rel | f.rel)
        assert compose(e, f).issubset(compose(bigger, f))
        assert compose(f, e).issubset(compose(f, bigger))


def test_image_under_identity_and_constant():
    sp = hexagon_ex72().space
    e = entourage_at(sp, 1.0)
    ident = SpaceMap(sp, sp, range(6))
    assert image_under(ident, e) == e
    one = FiniteSpace(["pt"], dist=[[0.0]])
    const = SpaceMap(sp, one, [0] * 6)
    img = image_under(const, e)
    assert img == Entourage.identity(1)


def test_image_under_double_cover():
    from ripscover.gallery import polygon

    src = polygon(12, 1).space
    tgt = polygon(6, 1).space
    f = SpaceMap(src, tgt, [i % 6 for i in range(12)])
    e12 = Entourage.from_pairs(12, [(i, (i + 1) % 12) for i in range(12)])
    img = image_under(f, e12)
    assert img == Entourage.from_pairs(6, [(i, (i + 1) % 6) for i in range(6)])


def test_image_under_matches_loop():
    # the one-product push-forward against the per-target-point loop, on
    # random maps whose targets have points outside the image
    rng = random.Random(24)
    outside = 0
    for _ in range(200):
        n = rng.randint(1, 9)
        m = rng.randint(1, n + 3)
        f = SpaceMap(space_for(random_entourage(rng, n, 0.5)), space_for(random_entourage(rng, m, 0.5)),
                     [rng.randrange(m) for _ in range(n)])
        e = random_entourage(rng, n, rng.random())
        got, want = image_under(f, e), loop_image_under(f, e)
        assert got == want and got.meta == want.meta
        outside += len(set(f.assign)) < m
    assert outside > 0


def test_overflowing_coordinates_rejected_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="too large"):
            FiniteSpace(["p", "q"], coords=[[0.0, 1e200], [1.0, -1e200]])
        with pytest.raises(ValidationError, match="too large"):
            FiniteSpace(["p", "q"], dist=[[0.0, 1.0], [1.0, 0.0]], coords=[[1e300, 0.0], [-1e300, 0.0]])


def test_dist_must_agree_with_coords(monkeypatch):
    from ripscover import space as space_mod

    coords = [[0.0, 0.0], [3.0, 4.0]]
    with pytest.raises(ValidationError, match="dist disagrees with Euclidean distance of coords"):
        FiniteSpace(["p", "q"], dist=[[0.0, 4.0], [4.0, 0.0]], coords=coords)
    both = FiniteSpace(["p", "q"], dist=[[0.0, 5.0], [5.0, 0.0]], coords=coords)
    # given coords alone, the distances are computed once and not checked against themselves
    calls = []
    real = space_mod._euclidean
    monkeypatch.setattr(space_mod, "_euclidean", lambda c: calls.append(c) or real(c))
    alone = FiniteSpace(["p", "q"], coords=coords)
    assert len(calls) == 1
    assert alone == both and alone.dist[0, 1] == 5.0


def test_coordinate_distances_are_built_in_place():
    # the same matrix, bit for bit, as summing the (n, n, d) squared
    # differences, built without that array: at n = 1,000 the peak stays
    # within three times the matrix kept
    rng = np.random.default_rng(8)
    for d in (1, 2, 3, 5):
        coords = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=(200, d))
        diff = coords[:, None, :] - coords[None, :, :]
        want = np.sqrt((diff * diff).sum(axis=2))
        assert np.array_equal(FiniteSpace(range(200), coords=coords).dist, want)
    coords = rng.random((1000, 2))
    tracemalloc.start()
    try:
        sp = FiniteSpace(range(1000), coords=coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * sp.dist.nbytes


def test_image_under_composition_inclusion():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(2, 7)
        m = rng.randint(1, n)
        assign = [rng.randrange(m) for _ in range(n)]
        src = FiniteSpace([f"s{i}" for i in range(n)], dist=np.zeros((n, n)) + 1 - np.eye(n))
        tgt = FiniteSpace([f"t{i}" for i in range(m)], dist=np.zeros((m, m)) + 1 - np.eye(m))
        f = SpaceMap(src, tgt, assign)
        e = random_entourage(rng, n, 0.4)
        g = random_entourage(rng, n, 0.4)
        lhs = image_under(f, compose(e, g))
        rhs = compose(image_under(f, e), image_under(f, g))
        assert lhs.issubset(rhs)


def test_image_under_composition_strict_witness():
    # two fiber-mates bridge downstairs but not upstairs, so the inclusion
    # f(E o F) within f(E) o f(F) is strict here
    src = FiniteSpace(["s0", "s1", "s2", "s3"], dist=1 - np.eye(4))
    tgt = FiniteSpace(["a", "b", "c"], dist=1 - np.eye(3))
    f = SpaceMap(src, tgt, [0, 1, 1, 2])
    e = Entourage.from_pairs(4, [(0, 1)])
    g = Entourage.from_pairs(4, [(2, 3)])
    lhs = image_under(f, compose(e, g))
    rhs = compose(image_under(f, e), image_under(f, g))
    assert lhs.issubset(rhs)
    assert rhs.related(0, 2) and not lhs.related(0, 2)


def test_ball_of_square_is_union_of_balls():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 8)
        e = random_entourage(rng, n, 0.35)
        e2 = compose(e, e)
        for x in range(n):
            union = set()
            for y in ball(e, x):
                union.update(ball(e, y))
            assert set(ball(e2, x)) == union


def test_ball_contains_center_and_bounds():
    e = Entourage.identity(4)
    assert ball(e, 2) == [2]
    with pytest.raises(ValidationError):
        ball(e, 9)


def test_chain_connected():
    sp = hexagon_ex72().space
    assert max(bfs_forest(entourage_at(sp, 1.0))[1]) == 0
    assert max(bfs_forest(Entourage.complete(6))[1]) == 0
    assert max(bfs_forest(Entourage.identity(6))[1]) == 5


def test_bfs_forest_components_by_least_member():
    # path 3-1-4 and pair 0-2: components are numbered by least member
    e = Entourage.from_pairs(5, [(3, 1), (1, 4), (0, 2)])
    parent, component = bfs_forest(e)
    assert component == [0, 1, 0, 1, 1]
    assert parent == [-1, -1, 0, 1, 1]


def test_bfs_forest_matches_per_vertex_neighbour_reads():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randint(1, 12)
        e = random_entourage(rng, n, rng.choice([0.1, 0.3, 0.6]))
        first = rng.randrange(n)
        assert bfs_forest(e) == vertex_bfs_forest(e)
        assert bfs_forest(e, first) == vertex_bfs_forest(e, first)


def test_ladder_validation():
    sp = hexagon_ex72().space
    lad = ScaleLadder.from_thresholds(sp, [3, 1])
    assert len(lad) == 2 and lad.finest() == entourage_at(sp, 1.0)
    with pytest.raises(ValidationError):
        ScaleLadder.from_thresholds(sp, [1, 3])
    with pytest.raises(ValidationError):
        ScaleLadder.from_thresholds(sp, [3, -1])
    e_small = Entourage.identity(6)
    e_big = entourage_at(sp, 1.0)
    with pytest.raises(ValidationError):
        ScaleLadder([e_small, e_big])  # not nested in this order


def test_ladder_json_round_trip():
    from ripscover.gallery import hexagon_ex73

    g = hexagon_ex73()
    doc = g.ladder.to_json()
    back = ScaleLadder.from_json(g.space, doc)
    assert [e for e in back] == [e for e in g.ladder]
    # equal relations, and equal spaces, hash equal
    assert len({*back, *g.ladder}) == len(g.ladder)
    assert len({g.space, hexagon_ex73().space}) == 1


def test_ladders_round_trip_with_their_names():
    # a scale is written out and named from its own relation, so reading a
    # ladder back gives the same relations under the same names
    from ripscover.gallery import _SPECS, gallery

    specs = ["polygon:12,1", "hexagon_ex72", "hexagon_ex73", "solenoid:2", "hawaiian:3,16"]
    assert {s.split(":")[0] for s in specs} == set(_SPECS)
    sp = hexagon_ex72().space
    explicit = ScaleLadder.from_json(sp, [{"pairs": [[2, 1], [0, 1], [1, 2]], "label": "steps"}, {"pairs": [[1, 0]]}])
    assert explicit.to_json() == [{"pairs": [[0, 1], [1, 2]], "label": "steps"}, {"pairs": [[0, 1]]}]
    cases = [(g.space, g.ladder) for g in map(gallery, specs)] + [(sp, explicit)]
    for space, ladder in cases:
        back = ScaleLadder.from_json(space, ladder.to_json())
        assert list(back) == list(ladder)
        assert [back.describe(i) for i in range(len(back))] == [ladder.describe(i) for i in range(len(ladder))]
    assert [explicit.describe(i) for i in range(2)] == ["steps", "scale#1"]


def test_without_pair():
    rng = random.Random(44)
    e = random_entourage(rng, 6, 0.5)
    pairs = e.pairs()
    if pairs:
        i, j = pairs[0]
        cut = e.without_pair(i, j)
        assert not cut.related(i, j) and cut.issubset(e)
        assert len(cut.pairs()) == len(pairs) - 1
        # an absent pair leaves the relation itself, as i == j does
        assert cut.without_pair(i, j) is cut and cut.without_pair(j, i) is cut
        assert e.without_pair(i, i) is e


def test_ladder_json_strict_is_a_boolean_and_echoed():
    sp = hexagon_ex72().space
    with pytest.raises(ValidationError, match="strict"):
        ScaleLadder.from_json(sp, [{"eps": 1.0, "strict": "false"}])
    strict = ScaleLadder.from_json(sp, [{"eps": 1.0, "strict": True}])
    assert strict.finest() == entourage_at(sp, 1.0, strict=True)
    assert strict.to_json() == [{"eps": 1.0, "strict": True}]
    assert ScaleLadder.from_json(sp, [{"eps": 1.0, "strict": False}]).to_json() == [{"eps": 1.0}]
    assert len(ScaleLadder.from_json(sp, [{"eps": 1.0}]).finest().pairs()) == 6
