"""Homology towers along a ladder, stabilization diagnostics, joinability
witnesses, and the certified-pair relation built from basepoint chains.

The tower tracks, for every pair of scales, the image of fine-scale cycle
classes inside the coarse-scale group, as exact integer lattices.  All
"stabilized" findings carry the finite-depth caveat: agreement inside the
ladder never certifies the full filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chains import (
    DEFAULT_BUDGET,
    Chain,
    HomotopyCertificate,
    SearchBudget,
    Trivalue,
    decide_homotopic,
    edge_seq,
    validate_chain,
)
from .errors import ValidationError
from .rips import H1Map, build_skeleton, h1_class, inclusion_h1_map
from .snf import IntLattice, snf_invariants
from .space import Entourage, FiniteSpace, ScaleLadder, component_labels

LADDER_CAVEAT = (
    "stabilization within the ladder is necessary but not sufficient for the full scale filter"
)


def _mask_to_component(e: Entourage, basepoint: int) -> tuple[Entourage, int, int]:
    """Restrict a relation to the basepoint's component; report component data."""
    labels = component_labels(e)
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

    def group_at(self, i: int):
        return self.groups[i]

    def image(self, fine: int, coarse: int) -> IntLattice:
        return self.images[(fine, coarse)]

    def trivial_image_lattice(self, coarse: int) -> IntLattice:
        g = self.groups[coarse]
        vectors = []
        for t, d in enumerate(g.torsion):
            v = [0] * g.dim
            v[g.rank + t] = d
            vectors.append(v)
        return IntLattice.from_vectors(g.dim, vectors)

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
        masked, ncomp, size = _mask_to_component(e, basepoint)
        skeletons.append(build_skeleton(space, masked))
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


def ml_diagnostic(tower: TowerReport, a: int) -> dict:
    """Smallest verified depth past `a` where images into scale `a` stop
    shrinking; vacuous candidates (nothing finer to verify against) never count."""
    k = len(tower.ladder)
    if not (0 <= a < k - 1):
        raise ValidationError("index needs at least one finer scale")
    for b in range(a + 1, k - 1):
        img_b = tower.image(b, a)
        if all(tower.image(c, a) == img_b for c in range(b + 1, k)):
            return {
                "index": a,
                "scale": tower.ladder.describe(a),
                "status": "stabilized_at",
                "at": b,
                "at_scale": tower.ladder.describe(b),
                "caveat": LADDER_CAVEAT,
            }
    return {
        "index": a,
        "scale": tower.ladder.describe(a),
        "status": "not_stabilized_within_ladder",
        "caveat": LADDER_CAVEAT,
    }


def triviality_diagnostic(tower: TowerReport, a: int) -> dict:
    """Smallest depth past `a` whose image into scale `a` is the zero group."""
    k = len(tower.ladder)
    if not (0 <= a < k - 1):
        raise ValidationError("index needs at least one finer scale")
    trivial = tower.trivial_image_lattice(a)
    for b in range(a + 1, k):
        if tower.image(b, a) == trivial:
            return {
                "index": a,
                "scale": tower.ladder.describe(a),
                "status": "trivial_at",
                "at": b,
                "at_scale": tower.ladder.describe(b),
                "caveat": LADDER_CAVEAT,
            }
    return {
        "index": a,
        "scale": tower.ladder.describe(a),
        "status": "not_within_ladder",
        "caveat": LADDER_CAVEAT,
    }


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


class _ClassWalker:
    """Breadth-first walk over (point, class-vector) states of a step graph,
    tracking each partial walk's cycle class read at a coarser scale."""

    def __init__(self, space, walk_rel: Entourage, target_skel, budget: SearchBudget):
        self.space = space
        self.walk_rel = walk_rel
        self.data = target_skel.h1_data()
        self.skel = target_skel
        self.budget = budget
        self.dim = self.data.group.dim
        self.rank = self.data.group.rank
        self.torsion = self.data.group.torsion
        self._step_cache: dict[tuple[int, int], tuple[int, ...]] = {}

    def step_class(self, u: int, v: int) -> tuple[int, ...]:
        key = (u, v)
        got = self._step_cache.get(key)
        if got is None:
            gs = self.skel.step_gen(u, v)
            got = self.data.zero() if gs is None else self.data.class_of({gs[0]: gs[1]})
            self._step_cache[key] = got
        return got

    def add(self, z1, z2, sign=1):
        out = [a + sign * b for a, b in zip(z1, z2)]
        for i, d in enumerate(self.torsion):
            out[self.rank + i] %= d
        return tuple(out)

    def explore(self, start: int):
        """Reachable (point, class) states with parents; flags norm truncation."""
        zero = self.data.zero()
        parents: dict[tuple[int, tuple[int, ...]], tuple | None] = {(start, zero): None}
        queue = [(start, zero)]
        expanded = 0
        truncated = False
        cap = self.budget.class_norm
        rel = self.walk_rel.rel
        while queue:
            nxt = []
            for state in queue:
                p, z = state
                expanded += 1
                if expanded > self.budget.states:
                    return parents, True
                for q in np.nonzero(rel[p])[0]:
                    q = int(q)
                    if q == p:
                        continue
                    nz = self.add(z, self.step_class(p, q))
                    if any(abs(v) > cap for v in nz[: self.rank]):
                        truncated = True
                        continue
                    ns = (q, nz)
                    if ns not in parents:
                        parents[ns] = (state, q)
                        nxt.append(ns)
            queue = nxt
        return parents, truncated

    @staticmethod
    def walk_of(parents, state) -> tuple[int, ...]:
        seq = [state[0]]
        while parents[state] is not None:
            state, _ = parents[state]
            seq.append(state[0])
        return tuple(reversed(seq))


def _image_lattice_into(space, walk_rel: Entourage, basepoint: int, target_skel) -> IntLattice:
    masked, _, _ = _mask_to_component(walk_rel, basepoint)
    sub = build_skeleton(space, masked)
    return inclusion_h1_map(sub, target_skel).image_lattice()


def joinability_witness(
    space: FiniteSpace,
    x: int,
    y: int,
    target: Entourage,
    fine: Entourage,
    budget: SearchBudget | None = None,
) -> JoinabilityVerdict:
    """Can x and y be joined by a fine-scale chain that is short at the target?

    The witness walk is searched in the fine relation with the queried pair
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

    walk_rel = fine.without_pair(x, y)
    labels = component_labels(walk_rel)
    if labels[x] != labels[y]:
        return verdictify(Trivalue("no", obstruction={
            "kind": "unreachable_at_fine",
            "note": "no fine-scale chain joins the pair once the direct link is removed",
        }))

    tskel = build_skeleton(space, target)
    lattice = _image_lattice_into(space, walk_rel, x, tskel)
    walker = _ClassWalker(space, walk_rel, tskel, budget)

    # exact coset test: all walk defect classes form base + image-lattice
    base_walk = _any_walk(walk_rel, x, y)
    base_class = h1_class(tskel, base_walk + (x,))
    if not lattice.contains(list(base_class)):
        return verdictify(Trivalue("no", obstruction={
            "kind": "h1_coset",
            "base_class": list(base_class),
            "image_lattice": [list(r) for r in lattice.basis()],
            "note": "no fine chain has the edge's class; exact for homology, "
                    "complete whenever homotopy at the target reduces to it",
        }))

    parents, truncated = walker.explore(x)
    goal = walker.step_class(x, y)
    tried = 0
    for state in sorted(parents):
        if state[0] != y or state[1] != goal:
            continue
        walk = walker.walk_of(parents, state)
        chain = validate_chain(space, fine, walk)
        target_chain = validate_chain(space, target, walk)
        edge = Chain(space, target, edge_seq(x, y))
        res = decide_homotopic(target_chain, edge, budget)
        tried += 1
        if res.is_yes():
            defects = [list(h1_class(tskel, walk + (x,)))]
            if fine.related(y, x):
                fskel = build_skeleton(space, fine)
                defects.append(list(h1_class(fskel, walk + (x,))))
            else:
                defects.append(None)
            witness = TruncatedGeneralizedPath([tname, fname], chain.seq, defects)
            return verdictify(res, witness)
        if tried >= 5:
            break
    if truncated or tried:
        return verdictify(Trivalue("unknown", stats={
            "reason": "class-0 walks exist but none certified within budget",
            "candidates_tried": tried,
            "norm_truncated": truncated,
        }))
    return verdictify(Trivalue("no", obstruction={
        "kind": "h1_reachability",
        "note": "state space exhausted: no fine walk attains the edge's class",
    }))


def _any_walk(rel: Entourage, x: int, y: int) -> tuple[int, ...]:
    """A shortest walk from x to y in the relation graph (BFS, deterministic)."""
    if x == y:
        return (x,)
    prev = {x: None}
    queue = [x]
    while queue:
        nxt = []
        for p in queue:
            for q in np.nonzero(rel.rel[p])[0]:
                q = int(q)
                if q not in prev:
                    prev[q] = p
                    if q == y:
                        seq = [y]
                        while prev[seq[-1]] is not None:
                            seq.append(prev[seq[-1]])
                        return tuple(reversed(seq))
                    nxt.append(q)
        queue = nxt
    raise ValidationError("no walk exists")


def uniform_joinability_audit(space: FiniteSpace, ladder: ScaleLadder, budget: SearchBudget | None = None) -> dict:
    """For every coarse scale and finer scale, which fine pairs admit
    joinability witnesses at (coarse, finest)?  The summary verdict holds
    when every scale that has finer scales is fully supported by one."""
    budget = budget or DEFAULT_BUDGET
    if len(ladder) < 2:
        raise ValidationError("audit needs a ladder of length at least 2")
    finest = ladder.finest()
    k = len(ladder)
    cells = []
    supported_scale = {}
    for i in range(k - 1):
        any_full = False
        for j in range(i + 1, k):
            pairs = ladder[j].pairs()
            failures = []
            yes = 0
            for (px, py) in pairs:
                v = joinability_witness(space, px, py, ladder[i], finest, budget)
                if v.verdict.is_yes():
                    yes += 1
                else:
                    failures.append({"pair": [px, py], "verdict": v.verdict.kind})
            full = yes == len(pairs)
            any_full = any_full or full
            cells.append({
                "scale": ladder.describe(i),
                "fine": ladder.describe(j),
                "pairs": len(pairs),
                "witnessed": yes,
                "fraction": 1.0 if not pairs else yes / len(pairs),
                "fully_supported": full,
                "failures": failures,
            })
        supported_scale[ladder.describe(i)] = any_full
    return {
        "schema": 1,
        "kind": "uniform_joinability_audit",
        "ladder": ladder.to_json(),
        "cells": cells,
        "supported_per_scale": supported_scale,
        "uj_supported_at_depth": all(supported_scale.values()),
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
    tskel = build_skeleton(space, target)
    walker = _ClassWalker(space, delta, tskel, budget)
    parents, truncated = walker.explore(basepoint)
    reach: dict[int, list] = {}
    for (p, z) in parents:
        reach.setdefault(p, []).append(z)
    for v in reach.values():
        v.sort()
    lattice = _image_lattice_into(space, delta, basepoint, tskel)

    verdicts: dict[tuple[int, int], Trivalue] = {}
    certified: list[tuple[int, int]] = []
    for (px, py) in target.pairs():
        v = _certify_pair(
            space, target, delta, tskel, walker, parents, reach, lattice,
            basepoint, px, py, truncated, budget,
        )
        verdicts[(px, py)] = v
        if v.is_yes():
            certified.append((px, py))
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
        "norm_truncated": truncated,
    }
    return ent, report


def _certify_pair(
    space, target, delta, tskel, walker, parents, reach, lattice,
    basepoint, px, py, truncated, budget,
) -> Trivalue:
    if px not in reach or py not in reach:
        return Trivalue("no", obstruction={
            "kind": "unreachable_at_fine",
            "note": "no finest-scale chain reaches the pair from the basepoint",
        })
    # exact coset obstruction
    cx = _any_walk(delta, basepoint, px)
    cy = _any_walk(delta, basepoint, py)
    loop = tuple(reversed(cx)) + cy[1:] + (px,)
    base_class = h1_class(tskel, loop)
    if not lattice.contains(list(base_class)):
        return Trivalue("no", obstruction={
            "kind": "h1_coset",
            "base_class": list(base_class),
            "image_lattice": [list(r) for r in lattice.basis()],
        })
    goal = walker.step_class(px, py)
    tried = 0
    for zc in reach[px]:
        want = walker.add(goal, zc)
        if want not in reach[py]:
            continue
        walk_c = walker.walk_of(parents, (px, zc))
        walk_d = walker.walk_of(parents, (py, want))
        seq = tuple(reversed(walk_c)) + walk_d[1:]
        chain = validate_chain(space, target, seq)
        edge = Chain(space, target, edge_seq(px, py))
        res = decide_homotopic(chain, edge, budget)
        tried += 1
        if res.is_yes():
            return Trivalue("yes", certificate=res.certificate, stats={
                "witness_to_x": list(walk_c), "witness_to_y": list(walk_d),
            })
        if tried >= 5:
            break
    if truncated or tried:
        return Trivalue("unknown", stats={
            "reason": "no certified witness pair at this budget",
            "candidates_tried": tried,
            "norm_truncated": truncated,
        })
    return Trivalue("no", obstruction={
        "kind": "h1_reachability",
        "note": "state space exhausted: no witness pair attains the edge's class",
    })
