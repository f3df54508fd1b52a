import json
import math
import os
import random

import pytest

from ripscover import chains, cover
from ripscover.chains import SearchBudget
from ripscover.cover import (
    build_cover_ball,
    c2_check,
    c3_check,
    chain_lifting_at,
    evenly_covers,
    generates_at,
    is_simplicial_cover,
    transverse,
    uniform_cover_verdict,
    uniqueness_of_lifts,
)
from ripscover.errors import ChainError
from ripscover.gallery import hexagon_ex72, polygon
from ripscover.space import (
    Entourage,
    FiniteSpace,
    ScaleLadder,
    SpaceMap,
    compose,
    entourage_at,
    image_under,
    space_from_json,
)

from _oracles import random_entourage, random_map, random_nested_ladder, search_c2_check, space_for

import numpy as np


def double_cover():
    src = polygon(12, 1).space
    tgt = polygon(6, 1).space
    return SpaceMap(src, tgt, [i % 6 for i in range(12)])


def fold_map():
    src = polygon(6, 1).space
    tgt = FiniteSpace(["q0", "q1", "q2", "q3"], coords=[(0, 0), (1, 0), (2, 0), (3, 0)])
    return SpaceMap(src, tgt, [0, 1, 2, 3, 2, 1])


def hex_to_triangle():
    src = polygon(6, 1).space
    tgt = FiniteSpace(["u", "v", "w"], dist=[[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    return SpaceMap(src, tgt, [i % 3 for i in range(6)])


F12 = double_cover()
E1_12 = entourage_at(F12.source, 0.6)   # one-step on the 12-gon
E2_12 = entourage_at(F12.source, 1.2)   # one- and two-steps
E0_12 = entourage_at(F12.source, 0.0)

FOLD = fold_map()
E1_6 = entourage_at(FOLD.source, 1.05)
E2_6 = entourage_at(FOLD.source, 1.8)


def test_generates_at():
    ident = SpaceMap(F12.source, F12.source, range(12))
    ladder = ScaleLadder([E2_12, E1_12, E0_12])
    got = generates_at(ident, E2_12, ladder)
    assert got is not None and got[1] == E1_12  # first scale whose square fits
    # the double cover: the finest metric scale needs the identity scale below it
    got = generates_at(F12, E1_12, ladder)
    assert got is not None and got[1] == E0_12
    got = generates_at(F12, E2_12, ladder)
    assert got is not None and got[1] == E1_12
    # constant map: anything works
    one = FiniteSpace(["pt"], dist=[[0.0]])
    const = SpaceMap(F12.source, one, [0] * 12)
    assert generates_at(const, E1_12, ladder)[0] == 0


def test_evenly_covers():
    ident = SpaceMap(F12.source, F12.source, range(12))
    assert evenly_covers(ident, E2_12) == (True, None)
    assert evenly_covers(F12, E1_12) == (True, None)
    ok, cx = evenly_covers(FOLD, E1_6)
    assert not ok and cx["kind"] == "injectivity" and cx["x"] in (0, 3)


def test_is_simplicial_cover():
    assert is_simplicial_cover(F12, E1_12)[0]  # triangle-free downstairs
    # at the two-step scale the wide downstairs triangle (0,2,4) cannot lift:
    # ball bijections alone do not make a simplicial cover
    ok, cx = is_simplicial_cover(F12, E2_12)
    assert evenly_covers(F12, E2_12)[0]
    assert not ok and cx["kind"] == "triangle_lift"
    ok, cx = is_simplicial_cover(hex_to_triangle(), E1_6)
    assert evenly_covers(hex_to_triangle(), E1_6)[0]
    assert not ok and cx["kind"] == "triangle_lift"


def test_chain_lifting():
    ident = SpaceMap(F12.source, F12.source, range(12))
    assert chain_lifting_at(ident, E2_12, E1_12)[0]
    assert chain_lifting_at(F12, E1_12, E1_12)[0]
    # sub-arc inclusion lifts only when the lift scale is generous enough
    arc = FiniteSpace([f"a{i}" for i in range(5)], coords=polygon(6, 1).space.coords[:5])
    incl = SpaceMap(arc, polygon(6, 1).space, range(5))
    e_arc = entourage_at(arc, 1.05)
    assert chain_lifting_at(incl, e_arc, e_arc)[0]
    ok, cx = chain_lifting_at(incl, Entourage.identity(5), e_arc)
    assert not ok and cx["kind"] == "link"


def test_transverse():
    assert transverse(F12, E1_12)
    assert not transverse(F12, Entourage.complete(12))
    one = FiniteSpace(["pt"], dist=[[0.0]])
    const = SpaceMap(F12.source, one, [0] * 12)
    assert transverse(const, E0_12)
    assert transverse(FOLD, E1_6)  # fibers sit two steps apart


def test_uniqueness_of_lifts():
    ident = SpaceMap(F12.source, F12.source, range(12))
    assert uniqueness_of_lifts(ident, E2_12) == (True, None)
    assert uniqueness_of_lifts(F12, E1_12) == (True, None)
    ok, wit = uniqueness_of_lifts(FOLD, E1_6)
    assert not ok and sorted(wit) in ([1, 5], [2, 4])


def test_uniqueness_implies_transverse_always():
    rng = random.Random(14)
    for _ in range(200):
        f = random_map(rng, rng.randint(2, 6))
        e = random_entourage(rng, f.source.n, rng.random())
        if uniqueness_of_lifts(f, e)[0]:
            assert transverse(f, e)


def test_transverse_square_gives_uniqueness():
    rng = random.Random(15)
    for _ in range(200):
        f = random_map(rng, rng.randint(2, 6))
        e = random_entourage(rng, f.source.n, rng.random())
        if transverse(f, compose(e, e)):
            assert uniqueness_of_lifts(f, e)[0]


def test_uniqueness_transverse_ladder_equivalence():
    # nested ladders with a transitive finest scale: somewhere-uniqueness and
    # somewhere-transverse agree exactly
    rng = random.Random(16)
    for _ in range(300):
        f = random_map(rng, rng.randint(2, 6))
        scales = random_nested_ladder(rng, f.source.n, depth=rng.randint(2, 4))
        uniq = any(uniqueness_of_lifts(f, e)[0] for e in scales)
        trans = any(transverse(f, e) for e in scales)
        assert uniq == trans


def test_c3():
    assert c3_check(F12, E1_12, E1_12) == (True, None)
    ok, wit = c3_check(FOLD, Entourage.identity(6), E1_6)
    assert not ok and wit is not None
    # a fine scale whose square is transverse keeps everything diagonal
    rng = random.Random(20)
    for _ in range(100):
        f = random_map(rng, rng.randint(2, 6))
        fine = random_entourage(rng, f.source.n, rng.random())
        if transverse(f, compose(fine, fine)):
            e = random_entourage(rng, f.source.n, rng.random())
            assert c3_check(f, Entourage(e.rel | fine.rel), fine)[0]


def test_c2_statuses():
    ident = SpaceMap(F12.source, F12.source, range(12))
    assert c2_check(ident, E2_12, E1_12)["status"] == "proved"
    got = c2_check(FOLD, E1_6, E1_6, SearchBudget(states=2000))
    assert got["status"] == "refuted"
    assert sorted(got["witness"]["alpha"] + got["witness"]["beta"]) is not None
    got = c2_check(F12, E1_12, E1_12, SearchBudget(states=800))
    assert got["status"] == "unrefuted"


def _fixture_map(name):
    with open(os.path.join(os.path.dirname(__file__), "fixtures", f"{name}_map.json")) as fh:
        doc = json.load(fh)
    f = SpaceMap(space_from_json(doc["source"]), space_from_json(doc["target"]), doc["assign"])
    return f, ScaleLadder.from_json(f.source, doc["ladder"])


def _ngon(n: int, chord: float) -> FiniteSpace:
    r = chord / (2 * math.sin(math.pi / n))
    return FiniteSpace([f"v{i}" for i in range(n)], coords=[
        (r * math.cos(2 * math.pi * i / n), r * math.sin(2 * math.pi * i / n)) for i in range(n)
    ])


def _cyclic_cover(k: int, m: int):
    """The benchmark's k-fold cover of an m-gon by a km-gon, chords 0.9."""
    f = SpaceMap(_ngon(k * m, 0.9), _ngon(m, 0.9), [i % m for i in range(k * m)])
    return f, ScaleLadder.from_thresholds(f.source, [1.9, 1.2, 0.0])


def _same_as_search(got: dict, want: dict) -> bool:
    if got["status"] == "proved":
        return got == want
    got = dict(got)
    assert got.pop("down_unknown") >= 0
    return got == want


def test_c2_matches_search_oracle_on_maps():
    # the three fixture maps and the benchmark's 3-fold cover of the 8-gon,
    # every ladder pair at the default budget, as `cover` runs them
    maps = [_fixture_map(n) for n in ("double_cover", "fold", "identity")] + [_cyclic_cover(3, 8)]
    statuses = set()
    for f, ladder in maps:
        for i in range(len(ladder)):
            for j in range(i, len(ladder)):
                got = c2_check(f, ladder[i], ladder[j])
                assert _same_as_search(got, search_c2_check(f, ladder[i], ladder[j])), (i, j)
                statuses.add(got["status"])
    assert statuses == {"proved", "refuted", "unrefuted"}


def _cycle(rng: random.Random, n: int, chords: int) -> Entourage:
    rel = np.eye(n, dtype=bool)
    for i in range(n):
        rel[i, (i + 1) % n] = rel[(i + 1) % n, i] = True
    for _ in range(chords):
        a, b = rng.sample(range(n), 2)
        rel[a, b] = rel[b, a] = True
    return Entourage(rel)


def test_c2_matches_search_oracle_random():
    # cycles with a few chords over cycles or random targets, a random fine
    # scale inside e, and state budgets that cut some pair lists short
    rng = random.Random(61)
    seen = set()
    for _ in range(40):
        n = rng.randint(4, 8)
        e = _cycle(rng, n, rng.randint(0, 2)) if rng.random() < 0.5 else random_entourage(rng, n, 0.5)
        keep = np.triu([[rng.random() < 0.8 for _ in range(n)] for _ in range(n)], 1)
        fine = Entourage(e.rel & (keep | keep.T | np.eye(n, dtype=bool)))
        m = rng.randint(2, n)
        assign = [i % m for i in range(n)] if rng.random() < 0.5 else [rng.randrange(m) for _ in range(n)]
        down = _cycle(rng, m, 0) if m >= 3 else Entourage.complete(m)
        f = SpaceMap(space_for(e), space_for(down), assign)
        budget = SearchBudget(states=rng.choice([30, 300, 2500]))
        got = c2_check(f, e, fine, budget)
        assert _same_as_search(got, search_c2_check(f, e, fine, budget))
        seen.add((got["status"], got.get("note"), got.get("down_unknown", 0) > 0))
    assert {("refuted", None, True), ("unrefuted", "budget exhausted", False),
            ("unrefuted", "no violation found", False)} <= seen


def _logged_c2(monkeypatch, f, e, fine):
    """c2_check's upstairs tests, downstairs questions and searches, in order."""
    log = []
    real_up, real_down, real_search = chains.e_obstruction_at, chains.e_homotopic, chains.decide_homotopic

    def up(skel, a, b):
        got = real_up(skel, a, b)
        log.append(("up", a, b, got))
        return got

    def down(c, d, entourage, budget=None):
        log.append(("down", c.seq, d.seq, entourage))
        return real_down(c, d, entourage, budget)

    def search(c, d, budget=None):
        log.append(("search",))
        return real_search(c, d, budget)

    monkeypatch.setattr(cover, "e_obstruction_at", up)
    monkeypatch.setattr(cover, "e_homotopic", down)
    monkeypatch.setattr(chains, "decide_homotopic", search)
    return c2_check(f, e, fine), log


def test_c2_phase_one_runs_no_search(monkeypatch):
    # phase one pairs chains with identical images; no search may run
    # before its last pair has been tested
    f, ladder = _fixture_map("fold")
    got, log = _logged_c2(monkeypatch, f, ladder[0], ladder[0])
    same_image = [entry[0] == "up" and [f(v) for v in entry[1]] == [f(v) for v in entry[2]]
                  for entry in log]
    assert got["status"] == "refuted" and any(same_image)
    last_phase_one = max(k for k, same in enumerate(same_image) if same)
    assert [entry for entry in log[:last_phase_one] if entry[0] != "up"] == []
    assert ("search",) in log[last_phase_one:]


def test_c2_searches_only_downstairs_on_refuting_candidates(monkeypatch):
    # every search is the downstairs question of a pair whose upstairs
    # answer is No, asked right after that answer
    searched = 0
    for f, ladder in (_fixture_map("double_cover"), _fixture_map("fold"), _cyclic_cover(3, 8)):
        for i in range(len(ladder)):
            for j in range(i, len(ladder)):
                got, log = _logged_c2(monkeypatch, f, ladder[i], ladder[j])
                ff = image_under(f, ladder[j])
                for k, entry in enumerate(log):
                    if entry[0] == "search":
                        assert log[k - 1][0] == "down"
                    elif entry[0] == "down":
                        up = log[k - 1]
                        assert up[0] == "up" and up[3] is not None
                        assert entry[1:] == (tuple(f(v) for v in up[1]), tuple(f(v) for v in up[2]), ff)
                searched += sum(entry[0] == "search" for entry in log)
                assert got.get("down_unknown", 0) <= searched
    assert searched > 0


def test_c2_needs_nested_scales():
    # a ladder nests its scales; a direct call with the fine scale outside e
    # is rejected before any pair is read
    with pytest.raises(ChainError):
        c2_check(FOLD, Entourage.identity(6), E1_6)
    with pytest.raises(ChainError):
        c2_check(F12, E1_12, E2_12)


def test_uniform_cover_verdicts():
    lad = ScaleLadder([E2_12, E1_12, E0_12])
    rep = uniform_cover_verdict(F12, lad, SearchBudget(states=500))
    assert rep.verdicts["uniform_covering_map_at_ladder"]
    assert rep.verdicts["simplicial_cover_base_at_ladder"]
    assert rep.implications["simplicial_implies_evenly"]
    assert rep.implications["lifting_squares_give_structure"]
    assert rep.implications["uniqueness_iff_transverse_per_scale"]

    fold_lad = ScaleLadder([E2_6, E1_6])
    rep = uniform_cover_verdict(FOLD, fold_lad, SearchBudget(states=500))
    assert not rep.verdicts["uniform_covering_map_at_ladder"]
    assert rep.verdicts["failing"]

    ident = SpaceMap(F12.source, F12.source, range(12))
    rep = uniform_cover_verdict(ident, lad, SearchBudget(states=500))
    assert rep.verdicts["uniform_covering_map_at_ladder"]


def test_cover_ball_simply_connected():
    sp = hexagon_ex72().space
    b = build_cover_ball(sp, entourage_at(sp, 3.0), 0, 4)
    assert len(b.vertices) == 6
    assert not b.approximate and not b.frontier
    assert all(len(v) == 1 for v in b.fibers().values())


def test_cover_ball_line_over_cycle():
    sp = hexagon_ex72().space
    b = build_cover_ball(sp, entourage_at(sp, 1.0), 0, 7)
    assert len(b.vertices) == 15  # positions -7..7 along the unrolled cycle
    assert b.frontier
    assert not b.approximate
    # each class projects onto a valid scale pair along each edge
    e = entourage_at(sp, 1.0)
    for a, c in b.edges:
        assert e.related(b.vertices[a][0], b.vertices[c][0])


def test_cover_ball_radius_zero_and_dot():
    sp = hexagon_ex72().space
    b = build_cover_ball(sp, entourage_at(sp, 1.0), 0, 0)
    assert len(b.vertices) == 1 and b.frontier
    dot = b.to_dot()
    assert dot.startswith("graph") and "v0" in dot


def test_chain_lifting_pointed_variant():
    # restricting to one basepoint's component can pass where the universal
    # quantifier fails: an isolated extra point breaks only the global form
    src = FiniteSpace(
        ["x0", "x1", "far"], dist=[[0, 1, 9], [1, 0, 9], [9, 9, 0]]
    )
    tgt = FiniteSpace(["y0", "y1"], dist=[[0, 1], [1, 0]])
    f = SpaceMap(src, tgt, [0, 1, 1])
    e = entourage_at(src, 1.0)
    ok_all, cx = chain_lifting_at(f, e, e)
    assert not ok_all and cx["x"] == 2
    ok_pt, _ = chain_lifting_at(f, e, e, basepoint=0)
    assert ok_pt


def test_shipped_triangle_lift_regression_fixture():
    import json
    import os

    from ripscover.space import space_from_json

    path = os.path.join(os.path.dirname(__file__), "fixtures", "triangle_lift_regression.json")
    with open(path) as fh:
        doc = json.load(fh)
    f = SpaceMap(space_from_json(doc["source"]), space_from_json(doc["target"]), doc["assign"])
    e = entourage_at(f.source, doc["ladder"][0]["eps"])
    assert evenly_covers(f, e)[0]
    ok, cx = is_simplicial_cover(f, e)
    assert not ok and cx["kind"] == "triangle_lift"


def test_strict_scale_is_its_own_scale(monkeypatch):
    import json
    import os

    from ripscover import cover
    from ripscover.space import space_from_json

    path = os.path.join(os.path.dirname(__file__), "fixtures", "double_cover_map.json")
    with open(path) as fh:
        doc = json.load(fh)
    f = SpaceMap(space_from_json(doc["source"]), space_from_json(doc["target"]), doc["assign"])
    ladder = ScaleLadder.from_json(f.source, [{"eps": 1.2}, {"eps": 0.6}, {"eps": 0.6, "strict": True}])
    report = uniform_cover_verdict(f, ladder)
    names = ["eps=1.2", "eps=0.6", "eps<0.6"]
    assert [s["scale"] for s in report.per_scale] == names
    assert [(p["scale"], p["fine"]) for p in report.per_pair] == [
        (names[i], names[j]) for i in range(3) for j in range(i, 3)
    ]
    assert report.verdicts["failing"] == ["generates_structure"]

    # two scales under one label: chains lift only from the first, so the
    # second has no lifting pair of its own, whatever its name
    pairs = [list(p) for p in ladder[1].pairs()]
    twins = ScaleLadder.from_json(f.source, [{"pairs": pairs, "label": "s"}, {"pairs": pairs, "label": "s"}])
    real = cover.chain_lifting_at

    def lifting_from_first_scale(f, e, fine, basepoint=None):
        return real(f, e, fine, basepoint) if e is twins[0] else (False, {"kind": "planted"})

    monkeypatch.setattr(cover, "chain_lifting_at", lifting_from_first_scale)
    report = uniform_cover_verdict(f, twins)
    assert [p["chain_lifting"] for p in report.per_pair] == [True, True, False]
    assert "chain_lifting" in report.verdicts["failing"]
