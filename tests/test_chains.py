import math
import os
import random
import tracemalloc

import pytest

from ripscover.chains import (
    Chain,
    Delete,
    HomotopyCertificate,
    Insert,
    SearchBudget,
    apply_move,
    close_chains_certificate,
    decide_homotopic,
    e_homotopic,
    e_obstruction_at,
    is_short,
    validate_chain,
)
from ripscover.errors import CertificateError, ChainError, MoveError
from ripscover.gallery import gallery, hexagon_ex72, hexagon_ex73
from ripscover.rips import build_skeleton
from ripscover.space import Entourage, FiniteSpace, ball, entourage_at

from _oracles import (
    canonicalize,
    collapse_moves,
    numpy_neighbors,
    random_chain,
    random_entourage,
    space_for,
    untightened_decide,
)

SP = hexagon_ex72().space
E1 = entourage_at(SP, 1.0)
E3 = entourage_at(SP, 3.0)
ARC = (0, 5, 4, 3, 2, 1)  # traversal of the five sampled sides


def test_validate_chain():
    assert validate_chain(SP, E1, [0]).seq == (0,)
    assert validate_chain(SP, E1, [0, 1]).seq == (0, 1)
    with pytest.raises(ChainError):
        validate_chain(SP, E1, [])
    try:
        validate_chain(SP, E1, [0, 2])  # distance sqrt(3) > 1
        raise AssertionError("expected failure")
    except ChainError as err:
        assert err.position == 0


def test_apply_move_rules():
    c = validate_chain(SP, E1, [0, 1, 2])
    dup = apply_move(c, Insert(1, 0))  # duplicate neighbor is always legal
    assert dup.seq == (0, 0, 1, 2)
    with pytest.raises(MoveError):
        apply_move(c, Delete(1))  # (0,2) unrelated at this scale
    k6 = validate_chain(SP, E3, [0, 2, 4])
    assert apply_move(k6, Delete(1)).seq == (0, 4)
    with pytest.raises(MoveError):
        apply_move(c, Delete(0))  # endpoints immovable
    with pytest.raises(MoveError):
        apply_move(c, Insert(0, 1))


def test_canonicalize():
    assert canonicalize((0, 0, 1, 1, 2)) == (0, 1, 2)
    assert canonicalize((0, 0, 0)) == (0, 0)
    assert canonicalize((5,)) == (5,)


def test_decide_equal_chains():
    c = validate_chain(SP, E1, ARC)
    r = decide_homotopic(c, c)
    assert r.is_yes() and r.certificate.moves == ()


def test_decide_hexagon_verdicts():
    arc1 = validate_chain(SP, E1, ARC)
    edge1 = validate_chain(SP, E1, [0, 1])
    r = decide_homotopic(arc1, edge1)
    assert r.is_no()
    assert r.obstruction["kind"] == "h1_class"
    assert any(r.obstruction["vector"])

    arc3 = validate_chain(SP, E3, ARC)
    edge3 = validate_chain(SP, E3, [0, 1])
    r3 = decide_homotopic(arc3, edge3)
    assert r3.is_yes()
    final = r3.certificate.replay()
    assert final.seq == (0, 1)


def test_decide_endpoint_mismatch_is_error():
    a = validate_chain(SP, E1, [0, 1])
    b = validate_chain(SP, E1, [1, 2])
    with pytest.raises(ChainError):
        decide_homotopic(a, b)


def test_decide_symmetry():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(3, 6)
        e = random_entourage(rng, n, 0.5)
        sp = space_for(e)
        a = random_chain(rng, e, rng.randint(1, 4))
        if a is None:
            continue
        b = random_chain(rng, e, rng.randint(1, 4), start=a[0])
        if b is None or b[-1] != a[-1]:
            continue
        ca, cb = Chain(sp, e, a), Chain(sp, e, b)
        r1 = decide_homotopic(ca, cb)
        r2 = decide_homotopic(cb, ca)
        assert r1.kind == r2.kind
        if r1.is_yes():
            r1.certificate.replay()
            r2.certificate.replay()


def test_budget_exhaustion_reports_unknown():
    # the pentagon arc of hexagon_ex73 at eps 1 admits no delete, so its
    # tightened end still differs from the edge's and the search must run
    sp = hexagon_ex73().space
    e1 = entourage_at(sp, 1.0)
    arc = validate_chain(sp, e1, (0, 5, 4, 3, 2, 1))
    edge = validate_chain(sp, e1, (0, 6, 1))
    assert decide_homotopic(arc, edge).is_yes()
    r = decide_homotopic(arc, edge, SearchBudget(states=1))
    assert r.is_unknown()
    assert r.stats["reason"] == "state budget exhausted"
    assert r.stats["states_stored"] >= 1
    unknowns = [r]
    # a triangle-free figure-eight admits no insert, so the search from the
    # commutator of its two loops stores every state it can reach
    eight = Entourage.from_pairs(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)])
    sp8 = space_for(eight)
    commutator = validate_chain(sp8, eight, (0, 1, 2, 3, 0, 4, 5, 6, 0, 3, 2, 1, 0, 6, 5, 4, 0))
    r = decide_homotopic(commutator, validate_chain(sp8, eight, (0, 0)))
    assert not r.is_yes()
    if r.is_unknown():
        assert r.stats["reason"] == "frontier exhausted"
        unknowns.append(r)
    for r in unknowns:
        assert set(r.stats) == {"states_expanded", "states_stored", "reason"}


def test_tightened_search_against_untightened():
    # random small spaces and chains, at stored-state budgets from a handful
    # to a few hundred: tightening never flips yes and no, and every yes
    # replays.  Greedy deletes can push two nearby chains apart, so a few of
    # the untightened search's yes answers become unknown at the same
    # budget; at each budget tightening must win many more than it loses
    rng = random.Random(71)
    budgets = (4, 10, 50, 200)
    won = dict.fromkeys(budgets, 0)
    lost = dict.fromkeys(budgets, 0)
    oracle_yes = 0
    cases = 0
    while cases < 1000:
        e = random_entourage(rng, rng.randint(4, 9), rng.uniform(0.3, 0.8))
        a = random_chain(rng, e, rng.randint(1, 7))
        b = random_chain(rng, e, rng.randint(1, 7), start=a[0])
        if not e.related(b[-1], a[-1]):
            continue
        b = b if b[-1] == a[-1] else b + (a[-1],)
        sp = space_for(e)
        ca, cb = Chain(sp, e, a), Chain(sp, e, b)
        cases += 1
        for states in budgets:
            budget = SearchBudget(states=states)
            new, old = decide_homotopic(ca, cb, budget), untightened_decide(ca, cb, budget)
            # No comes from the H1 test alone, before either search
            assert new.is_no() == old.is_no() and new.obstruction == old.obstruction
            if new.is_yes():
                assert new.certificate.replay().seq == b
            if new.is_unknown():
                assert new.stats["states_stored"] <= max(states, len(a) + len(b))
            oracle_yes += old.is_yes()
            won[states] += new.is_yes() and old.is_unknown()
            lost[states] += old.is_yes() and new.is_unknown()
    assert all(won[s] > 10 * lost[s] for s in budgets)
    assert sum(lost.values()) <= oracle_yes // 100


def test_search_stores_at_most_its_budget():
    # two boundary paths across a filled 5 x 5 grid: the complex is simply
    # connected, tightening cuts only their corners, and the search runs out
    # of budget long before it sweeps one path across the grid; what it
    # holds grows with the budget at a few hundred bytes per stored state
    # (a budget on expanded states holds ~3 KB per unit here)
    k = 5
    grid = FiniteSpace([f"p{i}_{j}" for i in range(k) for j in range(k)],
                       coords=[(i, j) for i in range(k) for j in range(k)])
    e = entourage_at(grid, 1.5)
    c = validate_chain(grid, e, [i * k for i in range(k)] + [(k - 1) * k + j for j in range(1, k)])
    d = validate_chain(grid, e, list(range(k)) + [i * k + k - 1 for i in range(1, k)])
    build_skeleton(e).move_tables()
    for states in (1000, 4000):
        tracemalloc.start()
        try:
            r = decide_homotopic(c, d, SearchBudget(states=states))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.is_unknown() and r.stats["reason"] == "state budget exhausted"
        assert r.stats["states_stored"] == states
        assert 0 < r.stats["states_expanded"] < states
        assert peak < 600 * states


def test_e_homotopic_cases():
    edge = validate_chain(SP, E1, [0, 1])
    assert e_homotopic(edge, edge, E1).is_yes()
    # endpoints unrelated at the scale: a legitimate No
    far = validate_chain(SP, E1, [2, 3])
    r = e_homotopic(edge, far, E1)
    assert r.is_no() and r.obstruction["kind"] == "endpoints"
    # at the complete scale everything is one class
    r3 = e_homotopic(validate_chain(SP, E3, ARC), validate_chain(SP, E3, [5, 4]), E3)
    assert r3.is_yes()


def test_e_obstruction_is_e_homotopic_no():
    # the search-free test returns e_homotopic's No obstruction, and None
    # exactly where e_homotopic answers Yes or Unknown
    rng = random.Random(62)
    cases = [(SP, E1, ARC, [0, 1]), (SP, E3, ARC, [5, 4]), (SP, E1, [0, 1], [2, 3]), (SP, E1, ARC, ARC)]
    for _ in range(300):
        e = random_entourage(rng, rng.randint(3, 7), rng.uniform(0.3, 0.7))
        c = random_chain(rng, e, rng.randint(0, 4))
        d = random_chain(rng, e, rng.randint(0, 4), start=rng.choice(ball(e, c[0])))
        cases.append((space_for(e), e, c, d))
    kinds = set()
    for space, e, c, d in cases:
        cc, dd = validate_chain(space, e, c), validate_chain(space, e, d)
        got = e_obstruction_at(build_skeleton(e), cc.seq, dd.seq)
        full = e_homotopic(cc, dd, e, SearchBudget(states=200))
        assert got == (full.obstruction if full.is_no() else None)
        kinds.add(None if got is None else got["kind"])
    assert kinds == {None, "endpoints", "h1_class"}


def test_is_short_cases():
    assert is_short(validate_chain(SP, E1, [0, 1]), E1).is_yes()
    arc = validate_chain(SP, E1, ARC)
    assert is_short(arc, E1).is_no()
    assert is_short(arc, E3).is_yes()


def test_is_short_closed_chains():
    # a closed chain's edge is the constant chain (x, x), and a one-point
    # chain is its own edge: loops that bound at eps 3 are short, each with
    # a certificate that replays, and the 12-gon's loop at its coarsest
    # ladder scale is not
    for seq in [(0, 1, 0), (0, 1, 2, 0), (0, 0), (0,)]:
        got = is_short(validate_chain(SP, E3, seq), E3)
        assert got.is_yes()
        assert got.certificate.replay().seq == ((0,) if seq == (0,) else (0, 0))
    polygon = gallery("polygon:12,1")
    scale = polygon.ladder[0]
    got = is_short(validate_chain(polygon.space, scale, (*range(12), 0)), scale)
    assert got.is_no() and got.obstruction["kind"] == "h1_class"


def test_close_chains_explicit():
    # two parallel traversals around the six-cycle, pointwise one step apart
    c = validate_chain(SP, E1, [0, 1, 2, 3])
    d = validate_chain(SP, E1, [0, 5, 4, 3])
    # pointwise: (1,5)? not related at E1 -> must raise
    with pytest.raises(ChainError):
        close_chains_certificate(c, d, E1)
    # equal chains give the empty certificate
    cert = close_chains_certificate(c, c, E1)
    assert cert.moves == ()
    # a genuinely pointwise-close pair at the complete scale
    a3 = validate_chain(SP, E3, [0, 1, 2, 3])
    b3 = validate_chain(SP, E3, [0, 2, 4, 3])
    cert = close_chains_certificate(a3, b3, E3)
    final = cert.replay()
    assert final.seq == b3.seq


def test_close_chains_random_replay():
    rng = random.Random(12)
    done = 0
    while done < 60:
        n = rng.randint(2, 8)
        e = random_entourage(rng, n, 0.5)
        sp = space_for(e)
        c = random_chain(rng, e, rng.randint(1, 5))
        if c is None:
            continue
        d = _pointwise_close_partner(rng, e, c)
        if d is None:
            continue
        cert = close_chains_certificate(Chain(sp, e, c), Chain(sp, e, d), e)
        assert cert.replay().seq == d
        done += 1


def _pointwise_close_partner(rng, e, c):
    import numpy as np

    d = [c[0]]
    for i in range(1, len(c) - 1):
        options = [
            int(v)
            for v in np.nonzero(e.rel[d[-1]] & e.rel[c[i]])[0]
        ]
        if not options:
            return None
        d.append(rng.choice(options))
    if len(c) >= 2:
        if not e.related(d[-1], c[-1]):
            return None
        d.append(c[-1])
    return tuple(d)


def test_certificate_json_round_trip(tmp_path):
    arc3 = validate_chain(SP, E3, ARC)
    edge3 = validate_chain(SP, E3, [0, 1])
    cert = decide_homotopic(arc3, edge3).certificate
    doc = cert.to_json()
    back = HomotopyCertificate.from_json(doc)
    assert back.replay().seq == (0, 1)
    assert back.start == cert.start and back.moves == cert.moves


def test_certificate_rejects_tampering():
    arc3 = validate_chain(SP, E3, ARC)
    edge3 = validate_chain(SP, E3, [0, 1])
    cert = decide_homotopic(arc3, edge3).certificate
    doc = cert.to_json()
    doc["end"] = [0, 2]
    with pytest.raises(CertificateError):
        HomotopyCertificate.from_json(doc).replay()
    doc2 = cert.to_json()
    doc2["moves"] = [["teleport", 1]]
    with pytest.raises(CertificateError):
        HomotopyCertificate.from_json(doc2)


def test_collapse_moves_reach_canonical():
    rng = random.Random(8)
    for _ in range(80):
        n = rng.randint(2, 6)
        e = random_entourage(rng, n, 0.6)
        sp = space_for(e)
        base = random_chain(rng, e, rng.randint(1, 5))
        if base is None:
            continue
        # fatten with duplicates
        fat = []
        for v in base:
            fat.extend([v] * rng.randint(1, 3))
        moves, canon = collapse_moves(tuple(fat))
        assert canon == canonicalize(tuple(fat))
        chain = validate_chain(sp, e, fat)
        for m in moves:
            chain = apply_move(chain, m)
        assert chain.seq == canon


def _cyclic_cover_source(k=3, m=8, chord=0.9):
    """The km-gon upstairs in a k-fold cyclic cover, neighbour chords 0.9."""
    n = k * m
    radius = chord / (2 * math.sin(math.pi / n))
    coords = [(radius * math.cos(2 * math.pi * i / n), radius * math.sin(2 * math.pi * i / n))
              for i in range(n)]
    return FiniteSpace([f"s{i}" for i in range(n)], coords=coords)


def _assert_same_neighbors(sp, ent, seq):
    from ripscover.chains import _move_objects, _neighbors

    adj, common = build_skeleton(ent).move_tables()
    got = _neighbors(seq, adj, common)
    assert [(_move_objects(m), new) for m, new in got] == numpy_neighbors(seq, ent)


def test_neighbors_match_numpy_enumeration():
    ex73 = hexagon_ex73().space
    cyc = _cyclic_cover_source()
    cases = [(ex73, entourage_at(ex73, 1.0)), (ex73, entourage_at(ex73, 3.0)),
             (cyc, entourage_at(cyc, 1.9)), (cyc, entourage_at(cyc, 1.2))]
    rng = random.Random(21)
    for sp, ent in cases:
        checked = 0
        while checked < 40:
            raw = random_chain(rng, ent, rng.randint(1, 9))
            if raw is None:
                continue
            seq = canonicalize(raw)
            _assert_same_neighbors(sp, ent, seq)
            checked += 1
        for x in (0, sp.n - 1):
            _assert_same_neighbors(sp, ent, (x, x))  # two-point constant walk
    # backtracks a, x, a exercise the duplicate-collapsing deletions
    e1 = entourage_at(ex73, 1.0)
    for seq in [(0, 6, 0), (0, 6, 0, 6), (1, 0, 6, 0, 5), (6, 0, 6, 0, 6), (0, 5, 0, 6, 1)]:
        _assert_same_neighbors(ex73, e1, seq)


def test_pinned_certificate_moves():
    # tightening deletes c's repeats, leaving the pentagon arc, which admits
    # no delete, and takes d through (0, 6, 1) to the edge (0, 1); the search
    # meets on d's tightening path, whose deletes are reversed at the end
    sp = hexagon_ex73().space
    e1 = entourage_at(sp, 1.0)
    c = validate_chain(sp, e1, (0, 0, 5, 4, 3, 3, 2, 1))
    d = validate_chain(sp, e1, (0, 6, 6, 1))
    r = decide_homotopic(c, d)
    assert r.is_yes()
    assert r.certificate.moves == (
        Delete(1), Delete(3), Insert(1, 6), Delete(2), Delete(2), Delete(2), Delete(2), Insert(1, 6),
    )
    assert r.certificate.replay().seq == d.seq
    back = decide_homotopic(d, c)
    assert back.certificate.moves == (
        Delete(1), Insert(2, 2), Insert(2, 3), Insert(2, 4), Insert(2, 5), Delete(1),
        Insert(3, 3), Insert(1, 0),
    )
    assert back.certificate.replay().seq == c.seq


def test_repeated_points_certificates_run_between_the_given_chains():
    # walks from a to c on hexagon_ex73 at eps 1, with repeated points at the
    # start, inside and at the end; those through q1..q4 go round the one
    # hole, the rest do not.  The search starts from the chains as given, so
    # each yes replays from c itself to d itself
    sp = hexagon_ex73().space
    e1 = entourage_at(sp, 1.0)
    walks = {
        (0, 6): False, (0, 0, 6): False, (0, 6, 6): False, (0, 1, 1, 6): False,
        (0, 0, 5, 4, 4, 3, 6, 6): False, (0, 7, 8, 9, 10, 6): True,
        (0, 0, 7, 8, 8, 9, 10, 6, 6): True, (0, 7, 8, 9, 10, 3, 3, 6): True,
    }
    for a, round_a in walks.items():
        for b, round_b in walks.items():
            r = decide_homotopic(validate_chain(sp, e1, a), validate_chain(sp, e1, b))
            assert r.kind == ("yes" if round_a == round_b else "no"), (a, b)
            if r.is_yes():
                assert r.certificate.start == a and r.certificate.replay().seq == b
    # the constant chain and the two-point constant walk it tightens to
    for a, b in [((0, 0, 0), (0, 0)), ((0, 0), (0, 0, 0))]:
        r = decide_homotopic(validate_chain(sp, e1, a), validate_chain(sp, e1, b))
        assert r.is_yes() and r.certificate.start == a and r.certificate.replay().seq == b


def test_readme_library_tour_runs_as_written():
    # the README's python block runs, and each value its comments quote is
    # what the line gives
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    block = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(block, scope)
    quoted = [line.split("#", 1) for line in block.splitlines() if "# '" in line]
    assert [eval(expr, scope) for expr, _ in quoted] == [note.split("'")[1] for _, note in quoted] == ["no"]
