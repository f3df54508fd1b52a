import random
import tracemalloc

import pytest

from _oracles import ExploredWalker, explored_witness, random_entourage, space_for
from ripscover import chains
from ripscover.chains import DEFAULT_BUDGET, HomotopyCertificate, SearchBudget, Trivalue, decide_homotopic
from ripscover.errors import ValidationError
from ripscover.gallery import gallery, hexagon_ex72, hexagon_ex73, polygon, solenoid
from ripscover.rips import RipsSkeleton, build_skeleton, h1, h1_class, inclusion_h1_map
from ripscover.snf import IntLattice
from ripscover.space import Entourage, ScaleLadder, entourage_at
from ripscover.tower import (
    build_tower,
    g_entourage,
    joinability_witness,
    ml_diagnostic,
    triviality_diagnostic,
    uniform_joinability_audit,
)


def test_circle_tower_stabilizes():
    g = polygon(12, 1)
    t = build_tower(g.space, g.ladder, 0)
    assert [grp.rank for grp in t.groups] == [1, 1, 1]
    assert all(abs(m.matrix[0][0]) == 1 for m in t.bondings)
    d = ml_diagnostic(t, 0)
    assert d["status"] == "stabilized_at" and d["at"] == 1
    assert "caveat" in d
    assert triviality_diagnostic(t, 0)["status"] == "not_within_ladder"


def test_solenoid_tower_shrinks():
    g = solenoid(2, 64, 4, 1)
    t = build_tower(g.space, g.ladder, 0)
    assert [grp.rank for grp in t.groups] == [1, 1, 1]
    assert all(abs(m.matrix[0][0]) == 2 for m in t.bondings)
    assert ml_diagnostic(t, 0)["status"] == "not_stabilized_within_ladder"
    assert ml_diagnostic(t, 1)["status"] == "not_stabilized_within_ladder"
    assert t.image(1, 0) == IntLattice.from_vectors(1, [[2]])
    assert t.image(2, 0) == IntLattice.from_vectors(1, [[4]])
    assert t.image(2, 0).issubset(t.image(1, 0))
    assert triviality_diagnostic(t, 0)["status"] == "not_within_ladder"


def test_trivial_tower():
    sp = hexagon_ex72().space
    lad = ScaleLadder([Entourage.complete(6), Entourage.complete(6)])
    t = build_tower(sp, lad, 0)
    assert all(grp.is_trivial() for grp in t.groups)
    assert ml_diagnostic(t, 0)["status"] == "not_stabilized_within_ladder"  # vacuous depth
    assert triviality_diagnostic(t, 0)["status"] == "trivial_at"


def test_cone_like_tower_trivial_at_filled_scale():
    # hexagon plus center: the unit scale fans the disk; the cycle-only scale
    # below it carries the circle, whose image dies at the filled scale
    g = hexagon_ex73()
    sp = g.space
    e1 = entourage_at(sp, 1.0)
    planar_cycle = Entourage.from_pairs(
        sp.n, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    )
    lad = ScaleLadder([e1, planar_cycle])
    t = build_tower(sp, lad, 0)
    d = triviality_diagnostic(t, 0)
    # the planar cycle is nullhomotopic at eps=1 via the center fan, but the
    # vertical cycle keeps H1(eps=1) nontrivial; image of the cycle-only scale
    # must still be trivial
    assert d["status"] == "trivial_at" and d["at"] == 1


def test_functoriality_and_nesting():
    g = solenoid(2, 64, 4, 1)
    t = build_tower(g.space, g.ladder, 0)
    prod = t.bondings[0].compose(t.bondings[1])
    assert prod.matrix == inclusion_h1_map(t.skeletons[2], t.skeletons[0]).matrix
    assert t.image(2, 0).issubset(t.image(1, 0))


def test_disconnected_scale_reports_component():
    sp = hexagon_ex72().space
    lad = ScaleLadder([entourage_at(sp, 1.0), Entourage.identity(6)])
    t = build_tower(sp, lad, 0)
    assert t.scale_notes[1]["components"] == 6
    assert t.scale_notes[1]["component_size"] == 1
    assert t.groups[1].is_trivial()
    # one skeleton per scale: the basepoint component's, not also the whole relation's
    assert lad[1]._skeleton is None and t.skeletons[1].n == 6


def test_tower_validation():
    sp = hexagon_ex72().space
    lad = ScaleLadder([entourage_at(sp, 1.0)])
    with pytest.raises(ValidationError):
        build_tower(sp, lad, 0)
    good = ScaleLadder.from_thresholds(sp, [3, 1])
    t = build_tower(sp, good, 0)
    with pytest.raises(ValidationError):
        ml_diagnostic(t, 1)  # no finer scale to verify against


def test_joinability_same_point():
    sp = hexagon_ex72().space
    e1 = entourage_at(sp, 1.0)
    v = joinability_witness(sp, 2, 2, e1, e1)
    assert v.verdict.is_yes()
    assert v.witness.witness == (2,)


def test_joinability_hexagon_pair():
    sp = hexagon_ex72().space
    e1 = entourage_at(sp, 1.0)
    e3 = entourage_at(sp, 3.0)
    no = joinability_witness(sp, 0, 1, e1, e1)
    assert no.verdict.is_no()
    assert no.verdict.obstruction["kind"] == "h1_coset"
    yes = joinability_witness(sp, 0, 1, e3, e1)
    assert yes.verdict.is_yes()
    assert yes.witness.witness == (0, 5, 4, 3, 2, 1)
    yes.verdict.certificate.replay()


def test_joinability_unrelated_pair_is_no():
    sp = hexagon_ex72().space
    e1 = entourage_at(sp, 1.0)
    v = joinability_witness(sp, 0, 3, e1, e1)  # diameter pair
    assert v.verdict.is_no() and v.verdict.obstruction["kind"] == "endpoints"


def test_audit_polygon_supported():
    g = polygon(12, 1)
    rep = uniform_joinability_audit(g.space, g.ladder, SearchBudget(states=8000))
    assert rep["uj_supported_at_depth"]
    for cell in rep["cells"]:
        assert cell["fully_supported"]


def test_audit_hexagon_supported_at_coarse():
    g = hexagon_ex72()
    rep = uniform_joinability_audit(g.space, g.ladder)
    assert rep["uj_supported_at_depth"]
    (cell,) = rep["cells"]
    assert cell["pairs"] == 6 and cell["witnessed"] == 6


def test_audit_identity_fine_scale():
    sp = hexagon_ex72().space
    lad = ScaleLadder([entourage_at(sp, 1.0), Entourage.identity(6)])
    rep = uniform_joinability_audit(sp, lad)
    assert rep["uj_supported_at_depth"]
    (cell,) = rep["cells"]
    assert cell["pairs"] == 0 and cell["fraction"] == 1.0


def test_g_entourage_hexagon_ex73():
    g = hexagon_ex73()
    sp = g.space
    e1 = entourage_at(sp, 1.0)
    ent, report = g_entourage(sp, e1, g.ladder)
    a, b, c = sp.index_of("a"), sp.index_of("b"), sp.index_of("c")
    assert ent.related(a, b)
    for p in (sp.index_of(n) for n in ("a", "b", "p1", "p2", "p3", "p4")):
        assert not ent.related(p, c) or p == c
    by_pair = {tuple(entry["pair"]): entry for entry in report["pairs"]}
    for p in (sp.index_of(n) for n in ("b", "p1", "p2", "p3", "p4")):
        key = (min(p, c), max(p, c))
        assert by_pair[key]["verdict"] == "no"
        assert by_pair[key]["obstruction"]["kind"] == "h1_coset"
    assert by_pair[(a, b)]["verdict"] == "yes"
    # every certified pair plus the diagonal and nothing else
    assert ent.related(a, a)


def test_g_entourage_basepoint_range():
    # the basepoint defaults to point 0, as build_tower's does, and a point
    # outside the space is refused rather than read from the far end
    g = hexagon_ex73()
    e3 = entourage_at(g.space, 3.0)
    assert g_entourage(g.space, e3, g.ladder)[1] == g_entourage(g.space, e3, g.ladder, basepoint=0)[1]
    for bad in (-1, g.space.n):
        with pytest.raises(ValidationError, match="basepoint out of range"):
            g_entourage(g.space, e3, g.ladder, basepoint=bad)


def test_g_entourage_identity_scale():
    sp = hexagon_ex72().space
    ident = Entourage.identity(6)
    lad = ScaleLadder([entourage_at(sp, 1.0), ident])
    ent, report = g_entourage(sp, ident, lad)
    assert ent == ident


def test_thm_finite_shadow_image_inclusion():
    # when an audit cell is fully witnessed at (coarse, finest), the image of
    # the finest-scale classes must contain the image of the fine scale's
    gals = [polygon(12, 1), hexagon_ex72()]
    for g in gals:
        rep = uniform_joinability_audit(g.space, g.ladder, SearchBudget(states=8000))
        t = build_tower(g.space, g.ladder, 0)
        k = len(g.ladder)
        for cell in rep["cells"]:
            if not cell["fully_supported"]:
                continue
            i = next(
                idx for idx in range(k) if g.ladder.describe(idx) == cell["scale"]
            )
            j = next(
                idx for idx in range(k) if g.ladder.describe(idx) == cell["fine"]
            )
            if j == k - 1:
                continue  # witness scale equals the fine scale
            assert t.image(j, i).issubset(t.image(k - 1, i))


def test_tower_report_json_and_table():
    g = solenoid(2, 64, 4, 1)
    t = build_tower(g.space, g.ladder, 0)
    doc = t.to_json()
    assert doc["kind"] == "tower_report"
    assert doc["bondings"][0]["snf"] == [2]
    assert "mittag_leffler" in doc["diagnostics"]
    table = t.text_table()
    assert "rank" in table and "[2]" in table


def test_joinability_budget_truncation_reports_unknown():
    # the built walk along hexagon_ex73's arc needs a search that one stored
    # state cannot hold; the unknown is the search's own
    g = hexagon_ex73()
    sp, lad = g.space, g.ladder
    v = joinability_witness(sp, 0, 1, lad[1], lad[2], SearchBudget(states=1))
    assert v.verdict.is_unknown()
    assert v.verdict.stats["reason"] == "state budget exhausted"
    assert "states_stored" in v.verdict.stats


def test_g_entourage_budget_truncation():
    g = hexagon_ex73()
    sp = g.space
    e1 = entourage_at(sp, 1.0)
    ent, report = g_entourage(sp, e1, g.ladder, SearchBudget(states=2))
    kinds = {p["verdict"] for p in report["pairs"]}
    assert "unknown" in kinds or "no" in kinds
    (entry,) = [p for p in report["pairs"] if p["pair"] == [0, 1]]
    assert entry["verdict"] == "unknown"
    assert entry["stats"]["reason"] == "state budget exhausted"


def test_g_entourage_truncated_budget_never_says_no_to_a_certified_pair():
    # a search cut short by the budget is unknown, not no
    for g, eps in ((hexagon_ex73(), 3.0), (hexagon_ex72(), 3.0), (polygon(12, 1), 2.0)):
        target = entourage_at(g.space, eps)
        _, ref = g_entourage(g.space, target, g.ladder)
        yes = {tuple(p["pair"]) for p in ref["pairs"] if p["verdict"] == "yes"}
        assert yes
        for states in (1, 5):
            _, rep = g_entourage(g.space, target, g.ladder, SearchBudget(states=states))
            false_no = [p["pair"] for p in rep["pairs"]
                        if p["verdict"] == "no" and tuple(p["pair"]) in yes]
            assert not false_no, (eps, states, false_no)


def test_audit_matches_naive_loop():
    # one verdict per (coarse scale, pair) must give the cells and summary a
    # witness call per (coarse scale, fine scale, pair) gives
    for g, budget in ((hexagon_ex73(), SearchBudget(states=2000)), (polygon(12, 1), None)):
        lad = g.ladder
        rep = uniform_joinability_audit(g.space, lad, budget)
        cells, supported = [], []
        for i in range(len(lad) - 1):
            any_full = False
            for j in range(i + 1, len(lad)):
                pairs = lad[j].pairs()
                failures = []
                for px, py in pairs:
                    v = joinability_witness(g.space, px, py, lad[i], lad.finest(), budget).verdict
                    if not v.is_yes():
                        reason = v.obstruction["kind"] if v.is_no() else v.stats["reason"]
                        failures.append({"pair": [px, py], "verdict": v.kind, "reason": reason})
                yes = len(pairs) - len(failures)
                cells.append({
                    "scale": lad.describe(i),
                    "fine": lad.describe(j),
                    "pairs": len(pairs),
                    "witnessed": yes,
                    "fraction": 1.0 if not pairs else yes / len(pairs),
                    "fully_supported": not failures,
                    "failures": failures,
                })
                any_full = any_full or not failures
            supported.append({"scale": lad.describe(i), "supported": any_full})
        assert rep["cells"] == cells
        assert rep["supported_per_scale"] == supported
        assert rep["uj_supported_at_depth"] == all(s["supported"] for s in supported)


def test_audit_keeps_scales_that_share_a_label_apart():
    # two coarse scales labelled "s" used to collapse into one "s" key
    g = hexagon_ex73()
    doc = [{"pairs": [list(p) for p in g.ladder[i].pairs()], "label": "s"} for i in (1, 2)]
    lad = ScaleLadder.from_json(g.space, doc + [{"pairs": [], "label": "t"}])
    rep = uniform_joinability_audit(g.space, lad)
    finest_cells = [c for c in rep["cells"] if c["fine"] == "t"]
    assert rep["supported_per_scale"] == [
        {"scale": "s", "supported": c["fully_supported"]} for c in finest_cells
    ]
    assert len(rep["supported_per_scale"]) == 2
    assert rep["uj_supported_at_depth"] == all(c["fully_supported"] for c in finest_cells)


def test_g_entourage_tries_short_walks_first():
    # on a rank-1 target the built walk winds only as often as the pair's
    # class needs: the explored candidates, once tried in ascending class
    # order, were the most negative windings and all 24 pairs ended unknown
    # at this budget
    g = polygon(12, 1)
    target = g.ladder[0]
    assert h1(build_skeleton(target)).rank == 1
    _, rep = g_entourage(g.space, target, g.ladder, SearchBudget(states=2000))
    assert len(rep["pairs"]) == 24
    assert [p["pair"] for p in rep["pairs"] if p["verdict"] != "yes"] == []


def _same_verdict(old, new, key):
    """Explored against built: a yes stays yes, a no stays a no of the same
    kind, nothing becomes a no."""
    if old.is_yes():
        assert new.kind == "yes", key
    assert old.is_no() == (new.kind == "no"), key
    if old.is_no():
        assert old.obstruction["kind"] == new.obstruction["kind"], key


def test_built_witness_against_explored():
    # joinability: every i <= j of each ladder, every ordered pair that
    # reaches the witness routine (x != y and related at the target); pair
    # by pair, as the audit asks, so each fine relation without the pair is
    # made once and its skeleton built once
    budgets = [SearchBudget(states=s) for s in (1, 30, 2000)]
    for g in (hexagon_ex72(), hexagon_ex73(), polygon(12, 1)):
        sp, lad = g.space, g.ladder
        asked = 0
        for j in range(len(lad)):
            for x, y in sorted({p for i in range(j + 1) for p in lad[i].pairs()}):
                fine = lad[j].without_pair(x, y)
                for i in (i for i in range(j + 1) if lad[i].related(x, y)):
                    for budget in budgets:
                        for a, b in ((x, y), (y, x)):
                            new = joinability_witness(sp, a, b, lad[i], fine, budget).verdict
                            walker = ExploredWalker(sp, fine, lad[i], a, budget)
                            old, _ = explored_witness(walker, a, b, [walker.data.zero()])
                            _same_verdict(old, new, (sp.n, budget.states, i, j, a, b))
                            if new.is_yes():
                                new.certificate.replay()
                            asked += 1
        assert asked == 2 * len(budgets) * sum(
            len(lad[i].pairs()) for i in range(len(lad)) for j in range(i, len(lad))
        )
    # certified pairs: the explored side tries the start classes reached at x
    cases = ((hexagon_ex73(), 1.0), (hexagon_ex73(), 3.0), (polygon(12, 1), 2.0))
    for g, eps in cases:
        target = entourage_at(g.space, eps)
        for budget in [DEFAULT_BUDGET, *budgets]:
            _, rep = g_entourage(g.space, target, g.ladder, budget)
            walker = ExploredWalker(g.space, g.ladder.finest(), target, rep["basepoint"], budget)
            for entry in rep["pairs"]:
                x, y = entry["pair"]
                old, _ = explored_witness(walker, x, y, walker.reach.get(x, []))
                new = Trivalue(entry["verdict"], obstruction=entry.get("obstruction"))
                _same_verdict(old, new, (eps, budget.states, x, y))
                if new.is_yes():
                    cert = HomotopyCertificate.from_json(entry["certificate"])
                    cert.replay()
                    walk_x, walk_y = entry["stats"]["witness_to_x"], entry["stats"]["witness_to_y"]
                    assert list(cert.start) == walk_x[::-1] + walk_y[1:]


def test_built_chain_has_the_edges_class(monkeypatch):
    # whenever the coset test passes, the built chain followed by the step
    # y -> x is nullhomologous at the target, so the one decide call can
    # never answer no: a no comes only from the exact tests before it
    calls = []

    def recording(c, d, budget=None):
        calls.append(c)
        return decide_homotopic(c, d, budget)

    monkeypatch.setattr(chains, "decide_homotopic", recording)
    rng = random.Random(23)
    asked = passed = 0
    for _ in range(60):
        n = rng.randint(4, 9)
        target = random_entourage(rng, n, rng.uniform(0.4, 0.8))
        fine = Entourage(target.rel & random_entourage(rng, n, rng.uniform(0.5, 0.9)).rel)
        sp = space_for(target)
        budget = SearchBudget(states=200)
        verdicts = [joinability_witness(sp, x, y, target, fine, budget).verdict for x, y in target.pairs()]
        _, rep = g_entourage(sp, target, ScaleLadder([target, fine]), budget, basepoint=rng.randrange(n))
        verdicts += [Trivalue(p["verdict"], obstruction=p.get("obstruction")) for p in rep["pairs"]]
        asked += len(verdicts)
        for v in verdicts:
            if v.is_no():
                assert v.obstruction["kind"] in ("unreachable_at_fine", "h1_coset")
            else:
                passed += 1
    assert passed == len(calls) and asked > passed > 100
    for c in calls:
        skel = build_skeleton(c.entourage)
        assert not any(h1_class(skel, c.seq + (c.seq[0],)))


def test_hawaiian_audit_verdicts():
    # hawaiian:3,16 at the default budget: 1,121 witness calls, all yes but
    # the big circle's neighbour pairs c1_2-c1_3 ... c1_12-c1_13 at the two
    # middle scales, whose classes miss the finest scale's image lattice
    g = gallery("hawaiian:3,16")
    sp, lad = g.space, g.ladder
    found = {}
    for x, y in lad[1].pairs():  # pair by pair, as the audit asks
        fine = lad.finest().without_pair(x, y)
        for i in range(len(lad) - 1):
            if lad[i + 1].related(x, y):
                found[(i, x, y)] = joinability_witness(sp, x, y, lad[i], fine).verdict
    assert len(found) == 1121
    failing = {key: v for key, v in found.items() if not v.is_yes()}
    for v in failing.values():
        assert v.is_no() and v.obstruction["kind"] == "h1_coset"
    big_circle = {(sp.labels[x], sp.labels[y]) for _, x, y in failing}
    assert big_circle == {(f"c1_{k}", f"c1_{k + 1}") for k in range(2, 13)}
    assert sorted({lad.describe(i) for i, _, _ in failing}) == ["eps=0.740596", "eps=1.28275"]
    assert len(failing) == 22


def test_audit_builds_no_skeleton_twice(monkeypatch):
    # pair-major: the finest relation without a pair is made once and asked
    # at every coarse scale; scale-major questions would build 532 skeletons,
    # most of them for relations equal to one built before
    built = []
    real = RipsSkeleton.__init__

    def counting(self, entourage):
        built.append(entourage)
        real(self, entourage)

    monkeypatch.setattr(RipsSkeleton, "__init__", counting)
    g = gallery("hawaiian:3,16")
    uniform_joinability_audit(g.space, g.ladder)
    assert len(set(built)) == len(built) <= 180


def test_solenoid_audit_memory():
    # each relation of the audit takes its skeleton along when it is dropped;
    # a process-wide cache of 256 skeletons peaked at 169 MB here
    g = solenoid(2)
    tracemalloc.start()
    try:
        uniform_joinability_audit(g.space, g.ladder)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
