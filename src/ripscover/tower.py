"""Homology towers along a ladder, stabilization diagnostics, joinability
witnesses, and the certified-pair relation built from basepoint chains.

The tower tracks, for every pair of scales, the image of fine-scale cycle
classes inside the coarse-scale group, as exact integer lattices.  All
"stabilized" findings carry the finite-depth caveat: agreement inside the
ladder never certifies the full filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chains import (
    DEFAULT_BUDGET,
    Chain,
    HomotopyCertificate,
    SearchBudget,
    Trivalue,
    decide_homotopic,
    validate_chain,
)
from .errors import ValidationError
from .rips import H1Map, RipsSkeleton, build_skeleton, h1_class, inclusion_h1_map
from .snf import IntLattice, snf_invariants
from .space import Entourage, FiniteSpace, ScaleLadder, bfs_forest, path_to_root

LADDER_CAVEAT = (
    "stabilization within the ladder is necessary but not sufficient for the full scale filter"
)


def _mask_to_component(e: Entourage, basepoint: int, labels) -> tuple[Entourage, int, int]:
    """Restrict a relation to the basepoint's component; report component
    data.  `labels` are the relation's component ids 0, 1, ... per point, in
    any numbering."""
    labels = np.asarray(labels)
    ncomp = int(labels.max()) + 1
    mine = labels == labels[basepoint]
    size = int(mine.sum())
    if ncomp == 1:
        return e, ncomp, size
    keep = np.outer(mine, mine)
    return Entourage(e.rel & keep), ncomp, size


@dataclass
class TowerReport:
    """Per-scale groups and pairwise image lattices along one ladder."""

    space: FiniteSpace
    ladder: ScaleLadder
    basepoint: int
    skeletons: list
    groups: list
    bondings: list[H1Map]
    maps: dict[tuple[int, int], H1Map]        # (fine c, coarse a) with c > a
    images: dict[tuple[int, int], IntLattice]
    scale_notes: list[dict]

    def image(self, fine: int, coarse: int) -> IntLattice:
        return self.images[(fine, coarse)]

    def trivial_image_lattice(self, coarse: int) -> IntLattice:
        g = self.groups[coarse]
        return IntLattice.from_vectors(g.dim, g.relations())

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "kind": "tower_report",
            "basepoint": self.basepoint,
            "ladder": self.ladder.to_json(),
            "scales": [
                {
                    "scale": self.ladder.describe(i),
                    "rank": g.rank,
                    "torsion": list(g.torsion),
                    "components": self.scale_notes[i]["components"],
                    "component_size": self.scale_notes[i]["component_size"],
                }
                for i, g in enumerate(self.groups)
            ],
            "bondings": [
                {
                    "fine": self.ladder.describe(i + 1),
                    "coarse": self.ladder.describe(i),
                    "matrix": [list(r) for r in m.matrix],
                    "snf": snf_invariants([list(r) for r in m.matrix]) if m.matrix else [],
                }
                for i, m in enumerate(self.bondings)
            ],
            "images": {
                f"{c}->{a}": [list(r) for r in lat.basis()]
                for (c, a), lat in sorted(self.images.items())
            },
            "diagnostics": {
                "mittag_leffler": [
                    ml_diagnostic(self, a) for a in range(len(self.ladder) - 1)
                ],
                "triviality": [
                    triviality_diagnostic(self, a) for a in range(len(self.ladder) - 1)
                ],
            },
        }

    def text_table(self) -> str:
        lines = [f"{'scale':<16} {'rank':<5} {'torsion':<10} bonding-snf(to coarser)"]
        for i, g in enumerate(self.groups):
            tors = ",".join(str(t) for t in g.torsion) or "-"
            if i == 0:
                snf = "-"
            else:
                m = self.bondings[i - 1]
                snf = str(snf_invariants([list(r) for r in m.matrix]) if m.matrix else [])
            lines.append(f"{self.ladder.describe(i):<16} {g.rank:<5} {tors:<10} {snf}")
        return "\n".join(lines)


def build_tower(space: FiniteSpace, ladder: ScaleLadder, basepoint: int = 0) -> TowerReport:
    """Groups, bonding maps and all pairwise image lattices at the basepoint's
    component of each scale.  Disconnected scales are reported, not fatal."""
    if len(ladder) < 2:
        raise ValidationError("tower needs a ladder of length at least 2")
    if not (0 <= basepoint < space.n):
        raise ValidationError("basepoint out of range")
    skeletons = []
    notes = []
    for e in ladder:
        sk = build_skeleton(space, e)
        masked, ncomp, size = _mask_to_component(e, basepoint, sk.component)
        skeletons.append(sk if ncomp == 1 else build_skeleton(space, masked))
        notes.append({"components": ncomp, "component_size": size})
    groups = [sk.h1_data().group for sk in skeletons]
    k = len(ladder)
    bondings = [inclusion_h1_map(skeletons[i + 1], skeletons[i]) for i in range(k - 1)]
    maps: dict[tuple[int, int], H1Map] = {}
    for a in range(k - 1):
        maps[(a + 1, a)] = bondings[a]
        for c in range(a + 2, k):
            maps[(c, a)] = maps[(c - 1, a)].compose(bondings[c - 1])
    images = {key: m.image_lattice() for key, m in maps.items()}
    return TowerReport(space, ladder, basepoint, skeletons, groups, bondings, maps, images, notes)


def _first_depth(tower: TowerReport, a: int, holds, found: str, missing: str) -> dict:
    """The smallest depth b past `a` where `holds(b)`, from the next finer scale to the finest."""
    k = len(tower.ladder)
    if not (0 <= a < k - 1):
        raise ValidationError("index needs at least one finer scale")
    doc = {"index": a, "scale": tower.ladder.describe(a), "status": missing, "caveat": LADDER_CAVEAT}
    for b in range(a + 1, k):
        if holds(b):
            doc.update(status=found, at=b, at_scale=tower.ladder.describe(b))
            break
    return doc


def ml_diagnostic(tower: TowerReport, a: int) -> dict:
    """Smallest verified depth past `a` where images into scale `a` stop
    shrinking; vacuous candidates (nothing finer to verify against) never count."""
    k = len(tower.ladder)

    def stable(b):
        return b < k - 1 and all(tower.image(c, a) == tower.image(b, a) for c in range(b + 1, k))

    return _first_depth(tower, a, stable, "stabilized_at", "not_stabilized_within_ladder")


def triviality_diagnostic(tower: TowerReport, a: int) -> dict:
    """Smallest depth past `a` whose image into scale `a` is the zero group."""
    return _first_depth(
        tower, a, lambda b: tower.image(b, a) == tower.trivial_image_lattice(a), "trivial_at", "not_within_ladder"
    )


@dataclass
class TruncatedGeneralizedPath:
    """Finite-depth stand-in for a compatible family of path classes:
    a witness chain at the finest scale plus its read-offs by inclusion."""

    scales: list[str]
    witness: tuple[int, ...]
    defect_classes: list[list[int]]  # class of witness*edge-back per scale

    def to_json(self) -> dict:
        return {
            "scales": self.scales,
            "witness": list(self.witness),
            "defect_classes": self.defect_classes,
        }


@dataclass
class JoinabilityVerdict:
    pair: tuple[int, int]
    target: str
    fine: str
    verdict: Trivalue
    witness: TruncatedGeneralizedPath | None = None

    def to_json(self) -> dict:
        doc = {
            "pair": list(self.pair),
            "target": self.target,
            "fine": self.fine,
            **self.verdict.to_json(),
        }
        if self.witness is not None:
            doc["witness"] = self.witness.to_json()
        return doc


class _RootedWalks:
    """Witness walks from one root in a walk relation, read at a coarser
    target scale.  Everything that depends on the root is built on first use."""

    def __init__(self, space, walk_rel: Entourage, target: Entourage, root: int, budget: SearchBudget):
        self.space = space
        self.walk_rel = walk_rel
        self.target = target
        self.root = root
        self.skel = build_skeleton(space, target)
        self.budget = budget

    @cached_property
    def forest(self) -> tuple[list[int], list[int]]:
        """BFS forest of the walk relation grown from the root: parents and components."""
        return bfs_forest(self.walk_rel, first=self.root)

    @cached_property
    def sub(self) -> RipsSkeleton:
        """Skeleton of the walk relation on the root's component, read off
        the forest's components."""
        masked, _, _ = _mask_to_component(self.walk_rel, self.root, self.forest[1])
        return build_skeleton(self.space, masked)

    @cached_property
    def lattice(self) -> IntLattice:
        """Image of the root component's cycle classes in the target group."""
        return inclusion_h1_map(self.sub, self.skel).image_lattice()

    def loop(self, weights: list[int]) -> list[int]:
        """A closed walk at the root whose class is sum(weights[k] * basis
        class k) of the root's component: the component's fundamental loops,
        each as often as the weighted basis representatives hold its
        generator, conjugated by the forest path from the root to the
        component's own forest root."""
        data = self.sub.h1_data()
        gens: dict[int, int] = {}
        for k, w in enumerate(weights[:data.group.dim]):
            if w:
                for g, c in data.representative(k).items():
                    gens[g] = gens.get(g, 0) + w * c
        to_base = path_to_root(self.sub.parent, self.root)
        seq = list(to_base)
        for g, c in sorted(gens.items()):
            walk = self.sub.fundamental_walk(g)
            seq.extend((walk if c > 0 else walk[::-1])[1:] * abs(c))
        return seq + to_base[::-1][1:]


def _without_backtracks(seq) -> tuple[int, ...]:
    """The walk with every step u -> v -> u cut to u, repeatedly; the ends
    and the homotopy class stay."""
    out: list[int] = []
    for v in seq:
        if len(out) >= 2 and out[-2] == v:
            out.pop()
        else:
            out.append(v)
    return tuple(out)


def _witness_pair(walker: _RootedWalks, x: int, y: int) -> tuple[Trivalue, tuple | None]:
    """Is the target edge x-y homotopic to a walk x -> root -> y in the
    walker's relation?

    In order: both points lie in the root's component (exact); the class of
    the loop x -> root -> y -> x lies in the image lattice (exact for
    homology).  Then the walk to y is built as the loop at the root whose
    lattice coordinates cancel that class, followed by the forest walk from
    the root to y; the walk to x is the forest walk from the root.  Joined,
    they have the edge's class, and `decide_homotopic` checks them once.  On
    yes the walks root -> x and root -> y come back with the verdict;
    otherwise its unknown does.
    """
    parent, component = walker.forest
    if not component[x] == component[y] == component[walker.root]:
        return Trivalue("no", obstruction={
            "kind": "unreachable_at_fine",
            "note": "no fine-scale chain joins the root to both points of the pair",
        }), None
    walk_x = tuple(path_to_root(parent, x)[::-1])
    to_y = tuple(path_to_root(parent, y)[::-1])
    # x -> root -> y -> x along the forest's shortest walks
    base_class = h1_class(walker.skel, walk_x[::-1] + to_y[1:] + (x,))
    weights = walker.lattice.coordinates([-c for c in base_class])
    if weights is None:
        return Trivalue("no", obstruction={
            "kind": "h1_coset",
            "base_class": list(base_class),
            "image_lattice": [list(r) for r in walker.lattice.basis()],
        }), None
    walk_y = _without_backtracks(walker.loop(weights) + list(to_y[1:]))
    chain = validate_chain(walker.space, walker.target, walk_x[::-1] + walk_y[1:])
    # the coordinates cancel the class, so decide_homotopic cannot answer no
    assert not any(h1_class(walker.skel, chain.seq + (x,))), "built walk misses the edge's class"
    res = decide_homotopic(chain, Chain(walker.space, walker.target, (x, y)), walker.budget)
    return res, ((walk_x, walk_y) if res.is_yes() else None)


def joinability_witness(
    space: FiniteSpace,
    x: int,
    y: int,
    target: Entourage,
    fine: Entourage,
    budget: SearchBudget | None = None,
) -> JoinabilityVerdict:
    """Can x and y be joined by a fine-scale chain that is short at the target?

    The witness walk is built in the fine relation with the queried pair
    itself removed: a genuine multi-scale witness descends from scales where
    the direct link between two distinct points has dissolved, so the pair
    must be joined through the rest of the space.  No verdicts are exact
    homology statements; Yes verdicts carry a replayed certificate.
    """
    budget = budget or DEFAULT_BUDGET
    tname = f"eps={target.meta['eps']:g}" if "eps" in target.meta else "target"
    fname = f"eps={fine.meta['eps']:g}" if "eps" in fine.meta else "fine"
    if not fine.issubset(target):
        raise ValidationError("fine scale must be contained in the target scale")

    def verdictify(v: Trivalue, witness=None):
        return JoinabilityVerdict((x, y), tname, fname, v, witness)

    if not target.related(x, y):
        return verdictify(Trivalue("no", obstruction={"kind": "endpoints", "pair": [x, y]}))
    if x == y:
        cert = HomotopyCertificate(space, target, (x,), (), (x,))
        witness = TruncatedGeneralizedPath([tname, fname], (x,), [[], []])
        return verdictify(Trivalue("yes", certificate=cert), witness)

    walker = _RootedWalks(space, fine.without_pair(x, y), target, x, budget)
    verdict, walks = _witness_pair(walker, x, y)
    if walks is None:
        return verdictify(verdict)
    walk = walks[1]
    defects = [list(h1_class(walker.skel, walk + (x,)))]
    if fine.related(y, x):
        defects.append(list(h1_class(build_skeleton(space, fine), walk + (x,))))
    else:
        defects.append(None)
    return verdictify(verdict, TruncatedGeneralizedPath([tname, fname], walk, defects))


def _failure(x: int, y: int, v: Trivalue) -> dict:
    """An audit failure entry: the pair, its verdict, and why (the obstruction
    kind of a no, the search's reason for an unknown)."""
    reason = v.obstruction["kind"] if v.is_no() else v.stats["reason"]
    return {"pair": [x, y], "verdict": v.kind, "reason": reason}


def uniform_joinability_audit(space: FiniteSpace, ladder: ScaleLadder, budget: SearchBudget | None = None) -> dict:
    """For every coarse scale and finer scale, which fine pairs admit
    joinability witnesses at (coarse, finest)?  The summary verdict holds
    when every scale that has finer scales is fully supported by one.

    The witness never reads the fine index, and the ladder is nested, so each
    coarse scale asks once per pair of the next finer scale and every cell
    reads its pairs from those verdicts; full support then only grows with
    the fine index, so the finest cell decides the scale.
    The questions go pair by pair: the finest relation without the pair is
    made once and asked at every coarse scale whose next finer scale holds
    the pair, so its skeleton is built once.  (The witness removes the pair
    again, which returns that same relation.)
    `supported_per_scale` has one entry per coarse ladder index, in ladder
    order, so two scales that share a label stay apart."""
    budget = budget or DEFAULT_BUDGET
    if len(ladder) < 2:
        raise ValidationError("audit needs a ladder of length at least 2")
    finest = ladder.finest()
    k = len(ladder)
    asked: list[dict[tuple[int, int], Trivalue]] = [{} for _ in range(k - 1)]
    for (px, py) in ladder[1].pairs():
        fine = finest.without_pair(px, py)
        for i in range(k - 1):
            if ladder[i + 1].related(px, py):
                asked[i][(px, py)] = joinability_witness(space, px, py, ladder[i], fine, budget).verdict
    cells = []
    supported = []
    for i, verdicts in enumerate(asked):
        for j in range(i + 1, k):
            pairs = ladder[j].pairs()
            failures = [
                _failure(px, py, verdicts[(px, py)]) for (px, py) in pairs if not verdicts[(px, py)].is_yes()
            ]
            yes = len(pairs) - len(failures)
            cells.append({
                "scale": ladder.describe(i),
                "fine": ladder.describe(j),
                "pairs": len(pairs),
                "witnessed": yes,
                "fraction": 1.0 if not pairs else yes / len(pairs),
                "fully_supported": not failures,
                "failures": failures,
            })
        supported.append({"scale": ladder.describe(i), "supported": cells[-1]["fully_supported"]})
    return {
        "schema": 1,
        "kind": "uniform_joinability_audit",
        "ladder": ladder.to_json(),
        "cells": cells,
        "supported_per_scale": supported,
        "uj_supported_at_depth": all(s["supported"] for s in supported),
        "depth": k,
    }


def g_entourage(
    space: FiniteSpace,
    target: Entourage,
    ladder: ScaleLadder,
    budget: SearchBudget | None = None,
    basepoint: int | None = None,
) -> tuple[Entourage, dict]:
    """Certified-pair relation: a target pair enters when basepoint chains at
    the finest ladder scale witness that the pair's edge is their difference.

    Certification is three-valued per pair; the returned relation contains
    exactly the certified pairs plus the diagonal.  Negative verdicts are
    exact homology statements at the ladder's depth.
    """
    budget = budget or DEFAULT_BUDGET
    if basepoint is None:
        basepoint = space.distinguished[0][1] if space.distinguished else 0
    delta = ladder.finest()
    if not delta.issubset(target):
        raise ValidationError("the ladder's finest scale must sit inside the target")
    walker = _RootedWalks(space, delta, target, basepoint, budget)
    verdicts: dict[tuple[int, int], Trivalue] = {}
    certified: list[tuple[int, int]] = []
    for (px, py) in target.pairs():
        v, walks = _witness_pair(walker, px, py)
        if walks is not None:
            v = Trivalue("yes", certificate=v.certificate, stats={
                "witness_to_x": list(walks[0]), "witness_to_y": list(walks[1]),
            })
            certified.append((px, py))
        verdicts[(px, py)] = v
    ent = Entourage.from_pairs(space.n, certified, meta={"kind": "certified_pairs"})
    report = {
        "schema": 1,
        "kind": "certified_pair_relation",
        "basepoint": basepoint,
        "ladder": ladder.to_json(),
        "pairs": [
            {"pair": [px, py], **verdicts[(px, py)].to_json()}
            for (px, py) in target.pairs()
        ],
        "certified": [list(p) for p in certified],
    }
    return ent, report
