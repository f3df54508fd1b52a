import json
import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ripscover import chains, cover
from ripscover.chains import DEFAULT_BUDGET, Chain, SearchBudget
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
from ripscover.rips import RipsSkeleton, build_skeleton
from ripscover.space import (
    Entourage,
    FiniteSpace,
    ScaleLadder,
    SpaceMap,
    ball,
    compose,
    entourage_at,
    image_under,
    space_from_json,
)

from _oracles import (
    c2_phase_one_pairs,
    pairwise_c2_check,
    random_entourage,
    random_map,
    random_nested_ladder,
    random_voltage_lift,
    search_c2_check,
    space_for,
)

import _oracles
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
    # two arcs 0-1 and 2-3 whose images share the point 0: the image ball
    # of 0 holds 1 and 2.  Chain lifting reads the image's links in order,
    # and the first that fails is 0 -> 1 from source point 2, whose ball
    # {2, 3} maps onto {0, 2}
    four = FiniteSpace(list("abcd"), coords=[(0, 0), (1, 0), (5, 0), (6, 0)])
    three = FiniteSpace(list("xyz"), coords=[(0, 0), (1, 0), (2, 0)])
    f = SpaceMap(four, three, [0, 1, 0, 2])
    e = Entourage.from_pairs(4, [(0, 1), (2, 3)])
    assert evenly_covers(f, e) == (False, {"kind": "surjectivity", "x": 2, "missing": 1})
    assert ball(image_under(f, e), f(2)) == [0, 1, 2]
    assert sorted(f(y) for y in ball(e, 2)) == [0, 2]


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


def _covering_cases(rng: random.Random):
    """A random map on a random nested ladder, or a voltage lift at its own
    relation, its square and itself less one pair."""
    if rng.random() < 0.5:
        f = random_map(rng, rng.randint(2, 7))
        return f, random_nested_ladder(rng, f.source.n, depth=rng.randint(2, 4))
    f, e = random_voltage_lift(rng)
    pairs = e.pairs()
    return f, [compose(e, e), e, e.without_pair(*rng.choice(pairs)) if pairs else e]


def _assert_covering_witness(f, e, cx):
    """An evenly_covers or is_simplicial_cover counterexample re-verifies."""
    x, fe = cx["x"], image_under(f, e)
    if cx["kind"] == "injectivity":
        y, yp = cx["lifts"]
        assert y != yp and f(y) == f(yp) == cx["image"] and e.related(x, y) and e.related(x, yp)
    elif cx["kind"] == "surjectivity":
        b = cx["missing"]
        assert fe.related(f(x), b) and all(f(y) != b for y in ball(e, x))
    else:
        y, z = cx["lifts"]
        assert e.related(x, y) and e.related(x, z) and not e.related(y, z)
        tri = cx["triangle"]
        assert tri == sorted({f(x), f(y), f(z)}) and len(tri) == 3
        assert fe.related(tri[0], tri[1]) and fe.related(tri[0], tri[2]) and fe.related(tri[1], tri[2])


def test_covering_predicates_match_references():
    # the predicates that share the product walk and the fibre loop give
    # the booleans of the ball-loop and skeleton references, and each
    # counterexample re-verifies; the simplicial check's triangle witness is
    # the reference's, and chain lifting is the fibre loop's, witness and all
    rng = random.Random(33)
    kinds = set()
    for _ in range(1000):
        f, scales = _covering_cases(rng)
        for i, e in enumerate(scales):
            ok_ec, cx_ec = evenly_covers(f, e)
            ok_sc, cx_sc = is_simplicial_cover(f, e)
            ok_ul, wit_ul = uniqueness_of_lifts(f, e)
            ref_ec, ref_sc = _oracles.ball_loop_evenly_covers(f, e), _oracles.skeleton_simplicial_cover(f, e)
            assert ok_ec == ref_ec[0] and ok_sc == ref_sc[0]
            assert ok_ec == (ok_ul and chain_lifting_at(f, e, e)[0])
            assert ok_ul == transverse(f, compose(e, e))
            if not ok_ul:
                y, yp = wit_ul
                assert y != yp and f(y) == f(yp) and (e.rel[y] & e.rel[yp]).any()
            if ok_ec:
                assert (ok_sc, cx_sc) == ref_sc
            else:
                assert cx_sc == cx_ec
            for cx in (cx_ec, cx_sc):
                if cx is not None:
                    _assert_covering_witness(f, e, cx)
                    kinds.add(cx["kind"])
            for fine in scales[i:]:
                assert chain_lifting_at(f, e, fine) == _oracles.fibre_loop_chain_lifting(f, e, fine)
    assert kinds == {"injectivity", "surjectivity", "triangle_lift"}


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
    # the first ball, in point order, with two points over one image: p1 and
    # p5 around p0, both over q1
    assert uniqueness_of_lifts(FOLD, E1_6) == (False, (1, 5))


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
    _assert_reverifies(FOLD, E1_6, E1_6, got)
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


def _cover_batch_maps():
    """The benchmark's five cover maps with their ladders, 14 scales in all."""
    maps = [_fixture_map(n) for n in ("double_cover", "fold", "identity")]
    return maps + [_cyclic_cover(3, 8), _cyclic_cover(4, 10)]


PHASE1 = "no identical-image refutation at any length"


def _assert_reverifies(f, e, fine, got, budget=None):
    """A `refuted` c2 answer's witness: two fine chains from one origin, the
    obstruction `e_obstruction_at` gives at e, and identical images or images
    that c2's downstairs search finds homotopic."""
    witness = got["witness"]
    alpha, beta = tuple(witness["alpha"]), tuple(witness["beta"])
    chains.validate_chain(f.source, fine, alpha)
    chains.validate_chain(f.source, fine, beta)
    assert alpha[0] == beta[0]
    assert witness["obstruction"] == chains.e_obstruction_at(build_skeleton(e), alpha, beta)
    img_a, img_b = tuple(f(v) for v in alpha), tuple(f(v) for v in beta)
    if img_a != img_b:
        states = (budget or DEFAULT_BUDGET).states
        per_pair = SearchBudget(states=min(cover.C2_DOWN_STATES, states))
        ff = image_under(f, fine)
        assert chains.e_homotopic(Chain(f.target, ff, img_a), Chain(f.target, ff, img_b), ff, per_pair).is_yes()


def _same_as_search(got: dict, want: dict) -> bool:
    if got["status"] == "proved":
        return got == want
    got = dict(got)
    assert got.pop("down_unknown") >= 0
    return got == want


def _same_bytes(got: dict, want: dict) -> bool:
    return json.dumps(got) == json.dumps(want)


def _check_against(oracle, same, f, e, fine, budget=None) -> dict:
    """c2_check against a reference c2 check with its 3-link phase one: an
    oracle `refuted` stays `refuted`, every `refuted` witness re-verifies,
    and when phase one does not refute, the answer is the oracle's with its
    phase one skipped, apart from the `phase1` key."""
    got = c2_check(f, e, fine, budget)
    if oracle(f, e, fine, budget)["status"] == "refuted":
        assert got["status"] == "refuted"
    if got["status"] == "refuted":
        _assert_reverifies(f, e, fine, got, budget)
    if got["status"] == "refuted" and "phase1" not in got:  # refuted in phase one
        assert got["examined"] == got["down_unknown"] == 0
    else:
        rest = dict(got)
        assert rest.pop("phase1", None) == (None if got["status"] == "proved" else PHASE1)
        assert same(rest, oracle(f, e, fine, budget, phase_one=False))
    return got


def _every_pair(maps):
    for f, ladder in maps:
        for i in range(len(ladder)):
            for j in range(i, len(ladder)):
                yield f, ladder[i], ladder[j]


def test_c2_matches_search_oracle_on_maps():
    # the three fixture maps and the benchmark's 3-fold cover of the 8-gon,
    # every ladder pair at the default budget, as `cover` runs them
    maps = [_fixture_map(n) for n in ("double_cover", "fold", "identity")] + [_cyclic_cover(3, 8)]
    statuses = set()
    for f, e, fine in _every_pair(maps):
        got = _check_against(search_c2_check, _same_as_search, f, e, fine)
        statuses.add((got["status"], "phase1" in got))
    assert statuses == {("proved", False), ("refuted", False), ("refuted", True), ("unrefuted", True)}


def _cycle(rng: random.Random, n: int, chords: int) -> Entourage:
    rel = np.eye(n, dtype=bool)
    for i in range(n):
        rel[i, (i + 1) % n] = rel[(i + 1) % n, i] = True
    for _ in range(chords):
        a, b = rng.sample(range(n), 2)
        rel[a, b] = rel[b, a] = True
    return Entourage(rel)


def _random_c2_case(rng: random.Random):
    """A cycle with a few chords or a random relation as e, a random fine
    scale inside it, and a map onto a cycle or a complete target."""
    n = rng.randint(4, 8)
    e = _cycle(rng, n, rng.randint(0, 2)) if rng.random() < 0.5 else random_entourage(rng, n, 0.5)
    keep = np.triu([[rng.random() < 0.8 for _ in range(n)] for _ in range(n)], 1)
    fine = Entourage(e.rel & (keep | keep.T | np.eye(n, dtype=bool)))
    m = rng.randint(2, n)
    assign = [i % m for i in range(n)] if rng.random() < 0.5 else [rng.randrange(m) for _ in range(n)]
    down = _cycle(rng, m, 0) if m >= 3 else Entourage.complete(m)
    return SpaceMap(space_for(e), space_for(down), assign), e, fine


def test_c2_matches_search_oracle_random():
    # cycles with a few chords over cycles or random targets, a random fine
    # scale inside e, and state budgets that cut some pair lists short (these
    # cases have at most a few dozen tight pairs, so 7 pairs is the one that does)
    rng = random.Random(61)
    seen = set()
    for _ in range(40):
        f, e, fine = _random_c2_case(rng)
        budget = SearchBudget(states=rng.choice([7, 30, 300, 2500]))
        got = _check_against(search_c2_check, _same_as_search, f, e, fine, budget)
        seen.add((got["status"], got.get("note"), "phase1" in got, got.get("down_unknown", 0) > 0))
    assert {("refuted", None, False, False), ("refuted", None, True, False),
            ("unrefuted", "budget exhausted", True, False),
            ("unrefuted", "no violation found", True, False)} <= seen


def test_c2_matches_pairwise_on_maps():
    # the per-pair routine that builds and reads each pair's loop is the
    # reference: past phase one, same pairs, same answers, byte for byte, on
    # every ladder pair; at the default budget phase two examines every
    # pair, and a small state budget still ends it
    maps = _cover_batch_maps()
    notes = set()
    for f, e, fine in _every_pair(maps):
        got = _check_against(pairwise_c2_check, _same_bytes, f, e, fine)
        notes.add((got["status"], got.get("note")))
    assert {s for s, _ in notes} == {"proved", "refuted", "unrefuted"}
    assert ("unrefuted", "budget exhausted") not in notes
    f, ladder = _cyclic_cover(4, 10)
    small = SearchBudget(states=500)
    got = _check_against(pairwise_c2_check, _same_bytes, f, ladder[0], ladder[0], small)
    assert (got["status"], got["note"], got["examined"]) == ("unrefuted", "budget exhausted", 500)


def test_c2_matches_pairwise_random():
    # budgets from 1 pair up end phase two inside an origin's pairs; phase
    # one has no cap
    rng = random.Random(62)
    seen = set()
    for k in range(320):
        f, e, fine = _random_c2_case(rng)
        budget = SearchBudget(states=(1, 7, 30, 300, 2500)[k % 5])
        got = _check_against(pairwise_c2_check, _same_bytes, f, e, fine, budget)
        folds = any(next(c2_phase_one_pairs(f, fine, x), None) for x in range(f.source.n))
        seen.add((got["status"], got.get("note"), "phase1" in got, folds))
    assert {("proved", "injective map with nested scales", False, False), ("refuted", None, False, True),
            ("refuted", None, True, True), ("refuted", None, True, False),
            ("unrefuted", "budget exhausted", True, True), ("unrefuted", "budget exhausted", True, False),
            ("unrefuted", "no violation found", True, True),
            ("unrefuted", "no violation found", True, False)} <= seen


def test_c2_refutations_reverify():
    # every `refuted` answer, from either phase, carries two fine chains from
    # one origin, exactly the obstruction e_obstruction_at gives, and images
    # that are identical or homotopic downstairs
    maps = _cover_batch_maps()
    cases = [(f, e, fine, None) for f, e, fine in _every_pair(maps)]
    rng = random.Random(62)
    for k in range(320):
        cases.append((*_random_c2_case(rng), SearchBudget(states=(1, 7, 30, 300, 2500)[k % 5])))
    phases = set()
    for f, e, fine, budget in cases:
        got = c2_check(f, e, fine, budget)
        if got["status"] == "refuted":
            _assert_reverifies(f, e, fine, got, budget)
            phases.add("phase1" in got)
    assert phases == {True, False}


def test_c2_tight_fan_loses_no_refutation():
    # phase two pairs tight chains only, with no pair cap: every chain it
    # drops is fine-homotopic to a kept one, so on every ladder pair of the
    # benchmark's five maps and on random cases, the default budget decides
    # every answer, its status is the one the uncapped full fan gives, and
    # every refutation re-verifies; the constant chain is (x, x), so no
    # downstairs search starts from an isolated one-point chain and none
    # runs out
    maps = _cover_batch_maps()
    cases = list(_every_pair(maps))
    rng = random.Random(64)
    cases += [_random_c2_case(rng) for _ in range(600)]
    uncapped = SearchBudget(states=10**9)
    phase_two_refutations = 0
    for f, e, fine in cases:
        got = c2_check(f, e, fine)
        assert got.get("note") != "budget exhausted" and got.get("down_unknown", 0) == 0
        assert got["status"] == pairwise_c2_check(f, e, fine, uncapped, full=True)["status"]
        if got["status"] == "refuted":
            _assert_reverifies(f, e, fine, got)
            phase_two_refutations += "phase1" in got
    assert phase_two_refutations > 0


def test_c2_counts_unknown_answers_per_pair(monkeypatch):
    # c2_check, like the pairwise reference, searches downstairs once for
    # every pair that asks; with the answers of the image pairs that have no
    # obstruction made Unknown in both, as a search that runs out would
    # leave them (every such pair in every other case, a third of them in
    # the rest), the reports agree byte for byte, and an Unknown counts once
    # for every pair that asks it, also when two pairs share their images
    real = chains.e_homotopic
    planted = set()
    plant_all = False

    def unknown_for_some(c, d, entourage, budget=None):
        got = real(c, d, entourage, budget)
        if got.is_no() or not (plant_all or (sum(c.seq) + 2 * sum(d.seq)) % 3 == 0):
            return got
        planted.add((c.seq, d.seq))
        return chains.Trivalue("unknown", stats={"reason": "planted"})

    monkeypatch.setattr(cover, "e_homotopic", unknown_for_some)
    monkeypatch.setattr(_oracles, "e_homotopic", unknown_for_some)
    cases = list(_every_pair(_cover_batch_maps()))
    rng = random.Random(65)
    cases += [_random_c2_case(rng) for _ in range(200)]
    seen = set()
    repeats = 0
    for k, (f, e, fine) in enumerate(cases):
        plant_all = k % 2 == 1
        planted.clear()
        got = c2_check(f, e, fine)
        repeats += got.get("down_unknown", 0) > len(planted)
        assert _check_against(pairwise_c2_check, _same_bytes, f, e, fine) == got
        seen.add((got["status"], got.get("down_unknown", 0) > 0))
    assert {("refuted", True), ("unrefuted", True)} <= seen
    assert repeats > 0


@st.composite
def _small_c2_case(draw):
    """A map of 3-6 points and nested scales: either a random map with fine
    random and e random above it, or a ring folded onto a path, with e
    relating the points the fold identifies and a few pairs more, so that
    mostly H1 at e decides."""
    n = draw(st.integers(3, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if draw(st.booleans()):
        fine = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
        assign = [min(i, n - i) for i in range(n)]
        glued = [(i, n - i) for i in range(1, (n + 1) // 2)]
        e = fine + glued + [p for p in pairs if draw(st.integers(0, 3)) == 0]
    else:
        fine = [p for p in pairs if draw(st.booleans())]
        e = fine + [p for p in pairs if draw(st.booleans())]
        m = draw(st.integers(2, n))
        assign = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    e = Entourage.from_pairs(n, e)
    target = space_for(Entourage.complete(max(assign) + 1))
    return SpaceMap(space_for(e), target, assign), e, Entourage.from_pairs(n, fine)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=_small_c2_case())
def test_c2_phase_one_against_enumeration(case):
    # the product walk decides what enumerating identical-image pairs finds:
    # a refuting pair of up to 3 links means phase one refutes, and when
    # phase one does not refute, no pair of up to 4 links refutes
    f, e, fine = case
    got = c2_check(f, e, fine)
    in_phase_one = got["status"] == "refuted" and "phase1" not in got
    skel = build_skeleton(e)

    def enumeration_refutes(links):
        return any(chains.e_obstruction_at(skel, a, b) is not None
                   for x in range(f.source.n) for a, b in c2_phase_one_pairs(f, fine, x, links))

    if enumeration_refutes(3):
        assert in_phase_one
    if in_phase_one:
        _assert_reverifies(f, e, fine, got)
    else:
        assert not enumeration_refutes(4)


def test_c2_phase_one_refutes_by_class():
    # the fold of the hexagon with chords 1-5 and 2-4 added at e: every
    # state the walk reaches is e-related, so c3 holds, but the square
    # 1 -> 2 -> 4 -> 5 -> 1 goes round the hole that e leaves; the walk meets
    # it on a step into the already reached state (2, 4) or (1, 5)
    fine = E1_6
    e = Entourage(fine.rel | Entourage.from_pairs(6, [(1, 5), (2, 4)]).rel)
    assert c3_check(FOLD, e, fine) == (True, None)
    got = c2_check(FOLD, e, fine)
    assert got["status"] == "refuted" and "phase1" not in got
    assert got["witness"]["obstruction"]["kind"] == "h1_class"
    assert len(got["witness"]["alpha"]) == 3
    _assert_reverifies(FOLD, e, fine, got)


def test_c2_phase_one_empty_exactly_when_fine_balls_inject():
    # chains from one origin with identical images are identical when every
    # fine ball maps injectively (induction along the chain): the enumeration
    # has no pairs, and phase one's walk stays on the diagonal and refutes
    # nothing; a folding ball gives a pair of 1-link chains
    rng = random.Random(63)
    both = set()
    for _ in range(300):
        f, e, fine = _random_c2_case(rng)
        injective_balls = all(
            len({f(y) for y in np.flatnonzero(fine.rel[x])}) == int(fine.rel[x].sum())
            for x in range(f.source.n)
        )
        pairs = [p for x in range(f.source.n) for p in c2_phase_one_pairs(f, fine, x)]
        assert (pairs == []) == injective_balls
        assert injective_balls == transverse(f, compose(fine, fine))
        if injective_balls:
            got = c2_check(f, e, fine)
            assert got["status"] == "proved" or got["phase1"] == PHASE1
        both.add(injective_balls)
    assert both == {True, False}


def _logged_c2(monkeypatch, f, e, fine):
    """c2_check's upstairs answers, downstairs questions and searches, in order."""
    log = []
    real_up, real_down, real_search = cover._Fan.obstruction, chains.e_homotopic, chains.decide_homotopic

    def up(fan, i, j):
        got = real_up(fan, i, j)
        log.append(("up", fan.chains[i], fan.chains[j], got))
        return got

    def down(c, d, entourage, budget=None):
        log.append(("down", c.seq, d.seq, entourage))
        return real_down(c, d, entourage, budget)

    def search(c, d, budget=None):
        log.append(("search",))
        return real_search(c, d, budget)

    monkeypatch.setattr(cover._Fan, "obstruction", up)
    monkeypatch.setattr(cover, "e_homotopic", down)
    monkeypatch.setattr(chains, "decide_homotopic", search)
    return c2_check(f, e, fine), log


def test_c2_phase_one_runs_no_search(monkeypatch):
    # phase one decides identical images by the product walk alone: the
    # fold's (1, 1) refutation asks about no pair and runs no search; at
    # (0, 0), where phase one refutes nothing, every pair asked about has
    # different images, and phase two's downstairs search refutes
    f, ladder = _fixture_map("fold")

    def image(seq):
        return [f(v) for v in seq]

    got, log = _logged_c2(monkeypatch, f, ladder[1], ladder[1])
    assert got["status"] == "refuted" and "phase1" not in got and got["examined"] == 0
    assert image(got["witness"]["alpha"]) == image(got["witness"]["beta"])
    assert log == []
    got, log = _logged_c2(monkeypatch, f, ladder[0], ladder[0])
    assert got["status"] == "refuted" and got["phase1"] == PHASE1
    assert all(image(entry[1]) != image(entry[2]) for entry in log if entry[0] == "up")
    assert log[0][0] == "up" and ("search",) in log


def test_c2_searches_only_downstairs_on_refuting_candidates(monkeypatch):
    # every search is the downstairs question of a pair whose upstairs
    # answer is No, asked right after that answer; every upstairs answer is
    # the one chains.e_obstruction_at gives on the pair's own loop, and only
    # pairs with an upstairs No can count a downstairs Unknown
    searched = 0
    for f, ladder in (_fixture_map("double_cover"), _fixture_map("fold"), _cyclic_cover(3, 8)):
        for i in range(len(ladder)):
            for j in range(i, len(ladder)):
                got, log = _logged_c2(monkeypatch, f, ladder[i], ladder[j])
                ff = image_under(f, ladder[j])
                skel = build_skeleton(ladder[i])
                for k, entry in enumerate(log):
                    if entry[0] == "up":
                        assert entry[3] == chains.e_obstruction_at(skel, entry[1], entry[2])
                    elif entry[0] == "search":
                        assert log[k - 1][0] == "down"
                    elif entry[0] == "down":
                        up = log[k - 1]
                        assert up[0] == "up" and up[3] is not None
                        assert entry[1:] == (tuple(f(v) for v in up[1]), tuple(f(v) for v in up[2]), ff)
                searched += sum(entry[0] == "search" for entry in log)
                candidates = sum(entry[0] == "up" and entry[3] is not None for entry in log)
                assert got.get("down_unknown", 0) <= candidates
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
    assert rep["verdicts"]["uniform_covering_map_at_ladder"]
    assert rep["verdicts"]["simplicial_cover_base_at_ladder"]
    assert rep["implications"]["simplicial_implies_evenly"]
    assert rep["implications"]["lifting_squares_give_structure"]
    assert rep["implications"]["uniqueness_iff_transverse_per_scale"]

    fold_lad = ScaleLadder([E2_6, E1_6])
    rep = uniform_cover_verdict(FOLD, fold_lad, SearchBudget(states=500))
    assert not rep["verdicts"]["uniform_covering_map_at_ladder"]
    assert rep["verdicts"]["failing"]

    ident = SpaceMap(F12.source, F12.source, range(12))
    rep = uniform_cover_verdict(ident, lad, SearchBudget(states=500))
    assert rep["verdicts"]["uniform_covering_map_at_ladder"]


def test_a_ladder_with_no_transverse_scale_fails_transverse():
    # the fold sends p1 and p5 to q1, and they lie sqrt(3) < 1.8 apart, so
    # neither scale is transverse
    f, _ = _fixture_map("fold")
    ladder = ScaleLadder.from_json(f.source, [{"eps": 1.9}, {"eps": 1.8}])
    report = uniform_cover_verdict(f, ladder)
    assert [s["transverse"] for s in report["per_scale"]] == [False, False]
    assert report["verdicts"]["failing"] == ["generates_structure", "transverse", "simplicial_cover"]


def test_uniform_cover_pushes_each_scale_forward_once(monkeypatch):
    # every predicate asks image_under, and the map keeps each push-forward:
    # one push-forward per (map, scale), and every later call returns the
    # kept object
    pushed = []
    real = cover.image_under

    def counting(f, e):
        if e not in f._images:
            pushed.append(e)
        return real(f, e)

    monkeypatch.setattr(cover, "image_under", counting)
    maps = _cover_batch_maps()
    for f, ladder in maps:
        uniform_cover_verdict(f, ladder)
        assert set(f._images) == set(ladder) and len(f._images) == len(ladder)
        assert all(image_under(f, e) is f._images[e] for e in ladder)
    assert len(pushed) == sum(len(ladder) for _, ladder in maps) == 14


def test_cover_run_leaves_triangle_lists_unbuilt(monkeypatch):
    # is_simplicial_cover reads each triangle at f(x) from the image ball and
    # c2_check only the H1 of e, so a cover run builds no triangle array
    built = []
    real = RipsSkeleton.triangles

    def recording(skel):
        built.append(skel)
        return real.fget(skel)

    monkeypatch.setattr(RipsSkeleton, "triangles", property(recording))
    for f, ladder in _cover_batch_maps():
        uniform_cover_verdict(f, ladder)
    assert built == []


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
    assert [s["scale"] for s in report["per_scale"]] == names
    assert [(p["scale"], p["fine"]) for p in report["per_pair"]] == [
        (names[i], names[j]) for i in range(3) for j in range(i, 3)
    ]
    assert report["verdicts"]["failing"] == ["generates_structure"]

    # two scales under one label: chains lift only from the first, so the
    # second has no lifting pair of its own, whatever its name
    pairs = [list(p) for p in ladder[1].pairs()]
    twins = ScaleLadder.from_json(f.source, [{"pairs": pairs, "label": "s"}, {"pairs": pairs, "label": "s"}])
    real = cover.chain_lifting_at

    def lifting_from_first_scale(f, e, fine):
        return real(f, e, fine) if e is twins[0] else (False, {"kind": "planted"})

    monkeypatch.setattr(cover, "chain_lifting_at", lifting_from_first_scale)
    report = uniform_cover_verdict(f, twins)
    assert [p["chain_lifting"] for p in report["per_pair"]] == [True, True, False]
    assert "chain_lifting" in report["verdicts"]["failing"]
