import math

import pytest

from ripscover.errors import ValidationError
from ripscover.gallery import gallery, hawaiian, hexagon_ex72, hexagon_ex73, polygon, solenoid
from ripscover.rips import build_skeleton, h1
from ripscover.space import bfs_forest, entourage_at

from _oracles import homology_oracle

TOL = 1e-9


def test_hexagon_ex72_geometry():
    g = hexagon_ex72()
    sp = g.space
    assert sp.n == 6
    a, b = sp.index_of("a"), sp.index_of("b")
    assert abs(sp.dist[a, b] - 1.0) <= TOL
    assert abs(sp.dist.max() - 2.0) <= TOL  # diameter
    assert [e.meta["eps"] for e in g.ladder] == [3.0, 1.0]
    assert sp.coords[a][0] == pytest.approx(1.0) and sp.coords[a][1] == pytest.approx(0.0)
    assert sp.coords[b][0] == pytest.approx(0.5)


def test_hexagon_ex72_densified_keeps_verdict_geometry():
    g = hexagon_ex72(densify=2)
    sp = g.space
    assert sp.n == 6 + 5 * 2
    e1 = entourage_at(sp, 1.0)
    assert e1.related(0, 1)  # the unsampled side's endpoints still sit at 1
    assert max(bfs_forest(e1)[1]) == 0  # one component


def test_polygon_square():
    g = polygon(4, 1)
    sp = g.space
    for i in range(4):
        assert abs(sp.dist[i, (i + 1) % 4] - math.sqrt(2)) <= TOL


def test_polygon_ladder_reads_circle():
    g = polygon(12, 1)
    assert len(g.ladder) == 3
    for scale in g.ladder:
        sk = build_skeleton(scale)
        grp = h1(sk)
        assert (grp.rank, grp.torsion) == (1, ())


def test_hexagon_ex73_structure():
    g = hexagon_ex73()
    sp = g.space
    assert sp.n == 11
    a, b, c = sp.index_of("a"), sp.index_of("b"), sp.index_of("c")
    assert abs(sp.dist[a, b] - 1.0) <= TOL
    assert abs(sp.dist[a, c] - 1.0) <= TOL
    assert len(g.ladder) == 3
    # finest scale is the two arcs only: a tree
    arcs = g.ladder.finest()
    sk = build_skeleton(arcs)
    assert len(sk.edges) == 10 and len(sk.triangles) == 0
    assert h1(sk).is_trivial()
    # the unit scale carries exactly one independent cycle
    sk1 = build_skeleton(entourage_at(sp, 1.0))
    grp = h1(sk1)
    assert (grp.rank, grp.torsion) == (1, ())


def test_solenoid_each_scale_reads_a_circle():
    g = solenoid(2, 64, 4, 1)
    assert g.space.n == 256
    assert len(g.ladder) == 3
    for scale in g.ladder:
        sk = build_skeleton(scale)
        grp = h1(sk)
        assert (grp.rank, grp.torsion) == (1, ())
        assert max(bfs_forest(scale)[1]) == 0


def test_solenoid_scale_oracle_on_small_instance():
    g = solenoid(1, 32, 4, 1)
    for scale in g.ladder:
        sk = build_skeleton(scale)
        rank, torsion = homology_oracle(g.space.n, sk.edges.tolist(), sk.triangles.tolist())
        assert (rank, torsion) == (1, ())


def test_solenoid_rejects_too_coarse_sampling():
    with pytest.raises(ValidationError):
        solenoid(3, 8, 4, 1)


def test_hawaiian_rank_staircase():
    for m, samples in ((1, 12), (2, 12), (3, 24)):
        g = hawaiian(m, samples)
        assert g.space.n == 1 + m * (samples - 1)
        ranks = [h1(build_skeleton(s)).rank for s in g.ladder]
        assert ranks == list(range(m + 1))


def test_gallery_dispatcher():
    assert gallery("hexagon_ex72").space.n == 6
    assert gallery("polygon:12,1").space.n == 12
    assert gallery("solenoid:1,32").space.n == 64
    with pytest.raises(ValidationError):
        gallery("klein_bottle")
    with pytest.raises(ValidationError):
        gallery("polygon:12")
    with pytest.raises(ValidationError):  # a spec's arguments follow its first ':'
        gallery("polygon(12,1)")


def test_distinguished_distances():
    g72 = hexagon_ex72()
    a, b = (g72.space.index_of(k) for k in ("a", "b"))
    assert abs(g72.space.dist[a, b] - 1.0) <= TOL
    g73 = hexagon_ex73()
    for pair, want in ((("a", "b"), 1.0), (("a", "c"), 1.0), (("b", "c"), 1.0)):
        i, j = (g73.space.index_of(k) for k in pair)
        assert abs(g73.space.dist[i, j] - want) <= TOL


def test_hawaiian_caps_circle_count_at_five():
    # from six circles on the fifth threshold window is empty at any sampling
    with pytest.raises(ValidationError, match="1 <= m <= 5"):
        hawaiian(6, 512)
    assert len(hawaiian(5, 24).ladder) == 6
