"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Verdict-level criteria are discrete (zero tolerance); the randomized suites
state their instance counts inline.  Timing bounds are asserted where the
criterion names one.
"""

import json
import os
import random
import time

import numpy as np

from ripscover.chains import (
    Chain,
    HomotopyCertificate,
    SearchBudget,
    close_chains_certificate,
    decide_homotopic,
    validate_chain,
)
from ripscover.cover import (
    c3_check,
    chain_lifting_at,
    evenly_covers,
    is_simplicial_cover,
    transverse,
    uniform_cover_verdict,
    uniqueness_of_lifts,
)
from ripscover.cli import main as cli_main
from ripscover.gallery import hexagon_ex72, hexagon_ex73, polygon, solenoid
from ripscover.rips import build_skeleton, h1, h1_class
from ripscover.snf import IntLattice
from ripscover.space import ScaleLadder, SpaceMap, compose, entourage_at, load_space
from ripscover.tower import build_tower, g_entourage, joinability_witness, ml_diagnostic

from _oracles import (
    homology_oracle,
    random_chain,
    random_entourage,
    random_map,
    random_nested_ladder,
    raw_move_bfs,
    space_for,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def done(n, msg):
    print(f"ACCEPTANCE {n}: PASS - {msg}")


def test_criterion_1_hexagon_verdicts():
    t0 = time.perf_counter()
    g = hexagon_ex72()
    sp = g.space
    e1, e3 = entourage_at(sp, 1.0), entourage_at(sp, 3.0)
    a, b = sp.index_of("a"), sp.index_of("b")
    assert e1.related(a, b)

    arc = validate_chain(sp, e1, [0, 5, 4, 3, 2, 1])
    edge = validate_chain(sp, e1, [0, 1])
    r1 = decide_homotopic(arc, edge)
    assert r1.is_no()
    assert r1.obstruction["kind"] == "h1_class" and any(r1.obstruction["vector"])

    r3 = decide_homotopic(
        validate_chain(sp, e3, arc.seq), validate_chain(sp, e3, edge.seq)
    )
    assert r3.is_yes()
    assert r3.certificate.replay().seq == (0, 1)

    jw = joinability_witness(sp, a, b, e1, e1)
    assert jw.verdict.is_no()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    done(1, f"hexagon verdicts exact in {elapsed:.3f}s")


def test_criterion_2_hexagon_two_sheets():
    g = hexagon_ex73()
    sp = g.space
    e1 = entourage_at(sp, 1.0)
    ent, report = g_entourage(sp, e1, g.ladder)
    a, b, c = sp.index_of("a"), sp.index_of("b"), sp.index_of("c")
    by_pair = {tuple(p["pair"]): p for p in report["pairs"]}

    # negative half: every first-hexagon point besides a is obstructed at c
    tskel = build_skeleton(e1)
    for name in ("b", "p1", "p2", "p3", "p4"):
        p = sp.index_of(name)
        entry = by_pair[(min(p, c), max(p, c))]
        assert entry["verdict"] == "no"
        obs = entry["obstruction"]
        assert obs["kind"] == "h1_coset"
        # re-verify the obstruction independently of the reporting path
        lattice = IntLattice.from_vectors(1, obs["image_lattice"])
        assert not lattice.contains(obs["base_class"])
        assert any(obs["base_class"])
        assert not ent.related(p, c)

    # positive half: (a, b) certified at the documented depth; the shipped
    # witness fixture replays
    entry = by_pair[(a, b)]
    assert entry["verdict"] == "yes"
    assert ent.related(a, b)
    with open(os.path.join(FIXTURES, "ex73_ab_witness.json")) as fh:
        fix = json.load(fh)
    assert fix["ladder_depth"] == len(g.ladder) == 3
    cert = HomotopyCertificate.from_json(fix["certificate"])
    assert cert.replay().seq == tuple(fix["certificate"]["end"])
    done(2, "negative half exact, (a,b) certified at depth 3 with replayable fixture")


def test_criterion_3_solenoid_tower():
    t0 = time.perf_counter()
    g = solenoid(2, 64, 4, 1)
    assert g.space.n == 256
    tower = build_tower(g.space, g.ladder, 0)
    for grp in tower.groups:
        assert (grp.rank, grp.torsion) == (1, ())
    for m in tower.bondings:
        assert abs(m.matrix[0][0]) == 2
    assert ml_diagnostic(tower, 0)["status"] == "not_stabilized_within_ladder"

    # oracle: the sampled curve itself is the finest-scale generator; reading
    # it at each scale must halve the winding scale by scale
    full_cycle = list(range(256)) + [0]
    degrees = []
    for scale in g.ladder:
        sk = build_skeleton(scale)
        (cls,) = h1_class(sk, full_cycle)
        degrees.append(abs(cls))
    assert degrees == [4, 2, 1]

    circle = polygon(12, 1)
    ct = build_tower(circle.space, circle.ladder, 0)
    assert all(abs(m.matrix[0][0]) == 1 for m in ct.bondings)
    d = ml_diagnostic(ct, 0)
    assert d["status"] == "stabilized_at" and d["at"] == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    done(3, f"solenoid [2]-tower and circle control verified in {elapsed:.2f}s")


def test_criterion_4_covering_predicates():
    src = polygon(12, 1).space
    tgt = polygon(6, 1).space
    f = SpaceMap(src, tgt, [i % 6 for i in range(12)])
    e1 = entourage_at(src, 0.6)
    assert evenly_covers(f, e1) == (True, None)
    assert is_simplicial_cover(f, e1) == (True, None)  # triangle-free scale
    assert chain_lifting_at(f, e1, e1) == (True, None)
    assert transverse(f, e1)
    assert uniqueness_of_lifts(f, e1) == (True, None)
    assert c3_check(f, e1, e1) == (True, None)
    ladder = ScaleLadder.from_thresholds(src, [1.2, 0.6, 0.0])
    rep = uniform_cover_verdict(f, ladder, SearchBudget(states=800))
    assert rep["verdicts"]["uniform_covering_map_at_ladder"]

    fold_src = polygon(6, 1).space
    from ripscover.space import FiniteSpace

    path4 = FiniteSpace(["q0", "q1", "q2", "q3"], coords=[(0, 0), (1, 0), (2, 0), (3, 0)])
    fold = SpaceMap(fold_src, path4, [0, 1, 2, 3, 2, 1])
    fe1 = entourage_at(fold_src, 1.05)
    ok, cx = evenly_covers(fold, fe1)
    assert not ok and cx["kind"] == "injectivity"
    frep = uniform_cover_verdict(
        fold, ScaleLadder.from_thresholds(fold_src, [1.8, 1.05]), SearchBudget(states=800)
    )
    assert not frep["verdicts"]["uniform_covering_map_at_ladder"]
    assert frep["verdicts"]["failing"]
    done(4, f"double cover positive, fold negative (failing: {frep['verdicts']['failing']})")


def test_criterion_5_uniqueness_transverse_equivalence():
    rng = random.Random(2024)
    instances = 0
    nontrivial = 0
    while instances < 1000:
        f = random_map(rng, rng.randint(2, 6))
        scales = random_nested_ladder(rng, f.source.n, depth=rng.randint(2, 4))
        uniq = any(uniqueness_of_lifts(f, e)[0] for e in scales)
        trans = any(transverse(f, e) for e in scales)
        assert uniq == trans, f"discrepancy on instance {instances}"
        instances += 1
        if not trans:
            nontrivial += 1
    assert nontrivial > 50  # the suite saw genuinely failing instances too
    done(5, f"{instances} random maps with nested ladders, zero discrepancies")


def test_criterion_6_interleaving_certificates():
    rng = random.Random(77)
    produced = 0
    while produced < 1000:
        n = rng.randint(2, 8)
        e = random_entourage(rng, n, rng.choice([0.35, 0.5, 0.7]))
        sp = space_for(e)
        c = random_chain(rng, e, rng.randint(1, 6))
        if c is None:
            continue
        d = _close_partner(rng, e, c)
        if d is None:
            continue
        cert = close_chains_certificate(Chain(sp, e, c), Chain(sp, e, d), e)
        assert cert.entourage == compose(e, e)
        assert cert.replay().seq == d
        produced += 1
    done(6, f"{produced} pointwise-close pairs, every certificate replays at the squared scale")


def _close_partner(rng, e, c):
    d = [c[0]]
    for i in range(1, len(c) - 1):
        options = [int(v) for v in np.nonzero(e.rel[d[-1]] & e.rel[c[i]])[0]]
        if not options:
            return None
        d.append(rng.choice(options))
    if not e.related(d[-1], c[-1]):
        return None
    d.append(c[-1])
    return tuple(d)


def test_criterion_7_homology_oracle_equivalence():
    rng = random.Random(4096)
    checked = 0
    while checked < 500:
        n = rng.randint(2, 8)
        e = random_entourage(rng, n, rng.choice([0.25, 0.4, 0.55, 0.75]))
        sk = build_skeleton(e)
        rank, torsion = homology_oracle(n, sk.edges.tolist(), sk.triangles.tolist())
        grp = h1(sk)
        assert (grp.rank, grp.torsion) == (rank, torsion)
        checked += 1
    done(7, f"{checked} random scales against the boundary-matrix oracle, exact agreement")


def test_criterion_8_decider_vs_exhaustive_oracle():
    rng = random.Random(31337)
    max_len = 6
    budget = SearchBudget(states=200_000)
    agreed = 0
    yeses = 0
    noes = 0
    skipped = 0

    def sample_entourage(n):
        if rng.random() < 0.4:
            # cycle plus at most one chord: sparse instances with windings
            from ripscover.space import Entourage

            pairs = [(i, (i + 1) % n) for i in range(n)]
            if rng.random() < 0.5:
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    pairs.append((min(i, j), max(i, j)))
            return Entourage.from_pairs(n, pairs)
        return random_entourage(rng, n, rng.choice([0.3, 0.45, 0.6]))

    while agreed < 200:
        n = rng.randint(3, 6)
        e = sample_entourage(n)
        sp = space_for(e)
        if rng.random() < 0.25:
            # adversarial family: one step versus the long way around
            start = rng.randrange(n)
            c = (start, (start + 1) % n)
            d = tuple((start - k) % n for k in range(n)) + ((start + 1) % n,)
            try:
                validate_chain(sp, e, c)
                validate_chain(sp, e, d)
            except Exception:
                continue
            if len(d) > max_len:
                continue
        else:
            c = random_chain(rng, e, rng.randint(1, max_len - 1))
            if c is None:
                continue
            d = random_chain(rng, e, rng.randint(1, max_len - 1), start=c[0])
            if d is None or d[-1] != c[-1] or len(d) > max_len or len(c) > max_len:
                continue
        oracle = raw_move_bfs(e, c, d, max_len=max_len, state_cap=120_000)
        if oracle is None:
            skipped += 1
            continue
        verdict = decide_homotopic(Chain(sp, e, c), Chain(sp, e, d), budget)
        if oracle:
            assert verdict.is_yes(), (c, d)
            verdict.certificate.replay()
            # a Yes may never coexist with a nonzero obstruction
            sk = build_skeleton(e)
            loop = c + tuple(reversed(d))[1:]
            assert not any(h1_class(sk, loop))
            yeses += 1
        else:
            assert not verdict.is_yes(), (c, d)
            noes += 1
        agreed += 1
    assert yeses >= 40 and noes >= 20
    done(8, f"{agreed} oracle-terminated instances agree "
            f"({yeses} homotopic, {noes} distinct, {skipped} skipped)")


def test_criterion_9_deterministic_reports(tmp_path):
    commands = [
        ["analyze", "--gallery", "hexagon_ex72", "--ladder", "3,1"],
        ["analyze", "--gallery", "hexagon_ex73", "--ladder", "auto",
         "--certified-pairs", "1"],
        ["analyze", "--gallery", "solenoid:2", "--ladder", "auto"],
        ["join", "--gallery", "hexagon_ex72", "--pair", "a,b", "--target", "1", "--fine", "1"],
        ["cover", "--map", os.path.join(FIXTURES, "double_cover_map.json")],
        ["cover", "--map", os.path.join(FIXTURES, "fold_map.json")],
    ]
    for idx, cmd in enumerate(commands):
        out_a = tmp_path / f"{idx}_a.json"
        out_b = tmp_path / f"{idx}_b.json"
        extra_a, extra_b = ["--output", str(out_a)], ["--output", str(out_b)]
        if cmd[0] == "join":
            extra_a += ["--certificate-out", str(tmp_path / f"{idx}_ca.json")]
            extra_b += ["--certificate-out", str(tmp_path / f"{idx}_cb.json")]
        code_a = cli_main(cmd + extra_a)
        code_b = cli_main(cmd + extra_b)
        assert code_a == code_b
        assert out_a.read_bytes() == out_b.read_bytes(), f"nondeterministic: {cmd}"
    done(9, f"{len(commands)} report commands byte-identical across repeated runs")


def test_criterion_9_pinned_h1_basis(tmp_path):
    # the hawaiian(3, 16) tower as recorded before relators were peeled: a
    # change to the elimination order that rotates the class basis shows here
    out = tmp_path / "hawaiian.json"
    assert cli_main(["analyze", "--gallery", "hawaiian:3,16", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["scales"] == [
        {"component_size": 46, "components": 1, "rank": 0, "scale": "eps=2.1", "torsion": []},
        {"component_size": 46, "components": 1, "rank": 1, "scale": "eps=1.28275", "torsion": []},
        {"component_size": 46, "components": 1, "rank": 2, "scale": "eps=0.740596", "torsion": []},
        {"component_size": 46, "components": 1, "rank": 3, "scale": "eps=0.506763", "torsion": []},
    ]
    assert doc["bondings"] == [
        {"coarse": "eps=2.1", "fine": "eps=1.28275", "matrix": [], "snf": []},
        {"coarse": "eps=1.28275", "fine": "eps=0.740596", "matrix": [[1, 0]], "snf": [1]},
        {"coarse": "eps=0.740596", "fine": "eps=0.506763", "matrix": [[1, 0, 0], [0, 1, 0]], "snf": [1, 1]},
    ]
    assert doc["images"] == {
        "1->0": [], "2->0": [], "2->1": [[1]], "3->0": [], "3->1": [[1]], "3->2": [[1, 0], [0, 1]],
    }
    done(9, "hawaiian:3,16 groups, bondings and images match the recorded basis")
