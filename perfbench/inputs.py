"""Workload inputs, built by the benchmark itself and relabelled by a seed.

Nothing here imports ripscover: the inputs are fixed by this file, so the
same seed gives the same inputs on every commit.  A seed and a variant
number pick one random permutation per space; point i of the reference
space becomes point perm[i], and coordinates, ladder pairs, distinguished
points and map assignments follow it.  Relabelling changes no group, cover verdict or
definite yes/no answer, so one set of invariants recorded on the reference
labelling checks every seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

MAPS = Path(__file__).resolve().parent / "maps"


@dataclass(frozen=True)
class Job:
    """One CLI invocation: its name, subcommand, extra arguments and inputs."""

    name: str
    command: str                # "analyze" or "cover"
    flags: tuple[str, ...]      # after the subcommand
    doc: dict                   # reference-labelled inputs (space+ladder or map)
    options: tuple[str, ...] = ()  # before the subcommand


def hawaiian(m: int, samples: int) -> dict:
    """Wedge of m circles of radii 1..1/m with its collapsing ladder."""
    coords = [[0.0, 0.0]]
    labels = ["w"]
    for k in range(1, m + 1):
        radius = 1.0 / k
        direction = 2 * math.pi * (k - 1) / m
        cx, cy = radius * math.cos(direction), radius * math.sin(direction)
        for i in range(1, samples):
            ang = direction + math.pi + 2 * math.pi * i / samples
            coords.append([cx + radius * math.cos(ang), cy + radius * math.sin(ang)])
            labels.append(f"c{k}_{i}")
    spacing = 2 * math.sin(math.pi / samples)
    thresholds = [2.1]
    for j in range(1, m + 1):
        crush = 2.0 / (j + 1) if j < m else 0.0
        lo, hi = max(crush, 1.2 * spacing), 0.95 * math.sqrt(3.0) / j
        thresholds.append(math.sqrt(lo * hi))
    return {
        "space": {"labels": labels, "coords": coords, "distinguished": {"w": 0}},
        "ladder": [{"eps": t} for t in thresholds],
    }


def hexagon_ex73() -> dict:
    """Planar hexagon, its center and a vertical arc; finest scale explicit."""
    s3 = math.sqrt(3.0)
    coords = [
        [1.0, 0.0, 0.0], [0.5, s3 / 2, 0.0], [-0.5, s3 / 2, 0.0], [-1.0, 0.0, 0.0],
        [-0.5, -s3 / 2, 0.0], [0.5, -s3 / 2, 0.0], [0.0, 0.0, 0.0],
        [1.5, 0.0, s3 / 2], [1.0, 0.0, s3], [0.0, 0.0, s3], [-0.5, 0.0, s3 / 2],
    ]
    labels = ["a", "b", "p1", "p2", "p3", "p4", "c", "q1", "q2", "q3", "q4"]
    arc = [[1, 2], [2, 3], [3, 4], [4, 5], [5, 0], [0, 7], [7, 8], [8, 9], [9, 10], [10, 6]]
    return {
        "space": {"labels": labels, "coords": coords, "distinguished": {"a": 0, "b": 1, "c": 6}},
        "ladder": [{"eps": 3.0}, {"eps": 1.0}, {"pairs": arc, "label": "arc-steps"}],
    }


def _ngon(n: int, chord: float, prefix: str) -> dict:
    radius = chord / (2 * math.sin(math.pi / n))
    coords = [[radius * math.cos(2 * math.pi * i / n), radius * math.sin(2 * math.pi * i / n)]
              for i in range(n)]
    return {"labels": [f"{prefix}{i}" for i in range(n)], "coords": coords,
            "distinguished": {"base": 0}}


def cyclic_cover(k: int, m: int) -> dict:
    """k-fold cyclic cover of an m-gon by a km-gon, neighbour chords 0.9."""
    return {
        "source": _ngon(k * m, 0.9, "s"),
        "target": _ngon(m, 0.9, "t"),
        "assign": [i % m for i in range(k * m)],
        "ladder": [{"eps": 1.9}, {"eps": 1.2}, {"eps": 0.0}],
    }


def fixture_map(name: str) -> dict:
    return json.loads((MAPS / f"{name}.json").read_text())


def workloads() -> dict[str, list[Job]]:
    covers = [(n, fixture_map(n)) for n in ("double_cover", "fold", "identity")]
    covers += [("cyclic3x8", cyclic_cover(3, 8)), ("cyclic4x10", cyclic_cover(4, 10))]
    search = ("--budget-states", "2000")
    return {
        "tower_hawaiian": [Job("hawaiian5x24", "analyze", (), hawaiian(5, 24))],
        # a 2000-state budget keeps each deep search bounded: at the default
        # budget one relabelling takes 11-29 s, too long and too spread to time
        "search_hexagon": [
            Job("hexagon_audit", "analyze", ("--audit",), hexagon_ex73(), search),
            Job("hexagon_certified", "analyze", ("--certified-pairs", "3"), hexagon_ex73(), search),
        ],
        "cover_batch": [Job(n, "cover", (), doc) for n, doc in covers],
    }


def permutation(seed: int | None, key: str, n: int) -> list[int]:
    """perm[i] is the new index of reference point i; identity for seed None."""
    perm = list(range(n))
    if seed is not None:
        random.Random(f"{seed}/{key}").shuffle(perm)
    return perm


def inverse(perm: list[int]) -> list[int]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


def relabel_space(space: dict, perm: list[int]) -> dict:
    inv = inverse(perm)
    out = {"labels": [space["labels"][inv[j]] for j in range(len(perm))],
           "coords": [space["coords"][inv[j]] for j in range(len(perm))]}
    if "distinguished" in space:
        out["distinguished"] = {k: perm[v] for k, v in space["distinguished"].items()}
    return out


def relabel_ladder(ladder: list, perm: list[int]) -> list:
    out = []
    for entry in ladder:
        entry = dict(entry)
        if "pairs" in entry:
            entry["pairs"] = [[perm[i], perm[j]] for i, j in entry["pairs"]]
        out.append(entry)
    return out


def relabel(job: Job, seed: int | None, variant: int = 0) -> tuple[dict, dict]:
    """Relabelled inputs for one job plus the permutations used, by role."""
    doc = job.doc
    key = f"{variant}/{job.name}"
    if job.command == "analyze":
        perm = permutation(seed, f"{key}/space", len(doc["space"]["labels"]))
        return ({"space": relabel_space(doc["space"], perm),
                 "ladder": relabel_ladder(doc["ladder"], perm)},
                {"space": perm})
    src = permutation(seed, f"{key}/source", len(doc["source"]["labels"]))
    tgt = permutation(seed, f"{key}/target", len(doc["target"]["labels"]))
    assign = [0] * len(src)
    for i, a in enumerate(doc["assign"]):
        assign[src[i]] = tgt[a]
    return ({"source": relabel_space(doc["source"], src),
             "target": relabel_space(doc["target"], tgt),
             "assign": assign,
             "ladder": relabel_ladder(doc["ladder"], src)},
            {"source": src, "target": tgt})
