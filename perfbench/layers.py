"""Per-layer metrics from the span files of one traced batch.

A span's self time is its duration minus the durations of its direct
children.  Each metric below names the spans it sums; `name<parent` sums
only the spans of `name` whose direct parent is `parent`.
"""

from __future__ import annotations

import json

import numpy as np

SELF = {
    "snf.unit_pivot_s": ["snf.eliminate_unit_pivots"],
    "snf.smith_s": ["snf.smith_normal_form", "snf.snf_invariants"],
    "snf.lattice_s": ["snf.IntLattice.*"],
    "rips.skeleton_s": ["rips.RipsSkeleton.__init__"],
    "rips.h1_s": ["rips.RipsSkeleton.h1_data"],
    "rips.inclusion_s": ["rips.inclusion_h1_map"],
    "rips.h1_class_s": ["rips.h1_class", "rips.loop_gen_vector<rips.h1_class",
                        "snf.reduce_vector<rips.h1_class"],
    "chains.e_homotopic_s": ["chains.e_homotopic"],
    "chains.validate_s": ["chains.validate_chain"],
    "cover.c2_s": ["cover.c2_check"],
    "cover.predicates_s": ["cover.*"],  # every cover span but c2_check, see below
    "tower.build_s": ["tower.build_tower", "tower.ml_diagnostic", "tower.triviality_diagnostic",
                      "tower.TowerReport.*"],
    "tower.join_s": ["tower.joinability_witness"],
    "tower.certify_s": ["tower.g_entourage"],
    "space.self_s": ["space.*"],
    "cli.self_s": ["cli.*"],
}
EXCLUDE = {"cover.predicates_s": {"cover.c2_check"}}
INCLUSIVE = {
    "chains.decide_s": "chains.decide_homotopic",
    "chains.replay_s": "chains.HomotopyCertificate.replay",
}
CALLS = {
    "chains.decide_calls": "chains.decide_homotopic",
    "rips.skeleton_calls": "rips.build_skeleton",
    "rips.skeleton_distinct": "rips.RipsSkeleton.__init__",
    "tower.join_calls": "tower.joinability_witness",
}
COUNTERS = [
    "snf.relator_rows", "snf.unit_pivots", "snf.core_rows", "snf.core_cols",
    "rips.edges", "rips.triangles",
    "chains.yes", "chains.no", "chains.unknown", "chains.cert_moves",
    "cover.c2_pairs", "tower.join_repeats",
]
UNITS = {"_s": "s", "_ms_p50": "ms", "_ms_max": "ms"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    if metric in ("trace.coverage", "trace.overhead_frac"):
        return "ratio"
    return "count"


def _matches(pattern: str, name: str) -> bool:
    return name.startswith(pattern[:-1]) if pattern.endswith("*") else name == pattern


class _Spans:
    """One job's spans: per-name self, inclusive and call totals."""

    def __init__(self, path):
        with np.load(path) as z:
            meta = json.loads(z["meta"].tobytes())
            kind, parent = z["kind"], z["parent"]
            dur = z["end"] - z["start"]
        self.names = meta["names"]
        self.counters = meta["counters"]
        width = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(kind))
        self_time = dur - child
        parent_kind = np.where(has_parent, kind[np.maximum(parent, 0)], width)
        self.self_s = np.bincount(kind, weights=self_time, minlength=width)
        self.self_by_parent = np.bincount(
            kind * (width + 1) + parent_kind, weights=self_time, minlength=width * (width + 1)
        ).reshape(width, width + 1)
        self.incl_s = np.bincount(kind, weights=dur, minlength=width)
        self.calls = np.bincount(kind, minlength=width)
        self.root_s = float(dur[~has_parent].sum())
        self._kind, self._dur = kind, dur

    def durations(self, name: str) -> np.ndarray:
        return self._dur[self._kind == self.index(name)] if name in self.names else self._dur[:0]

    def index(self, name: str) -> int | None:
        return self.names.index(name) if name in self.names else None

    def self_of(self, patterns, exclude=()) -> float:
        total = 0.0
        for pattern in patterns:
            name, _, parent = pattern.partition("<")
            for i, n in enumerate(self.names):
                if not _matches(name, n) or n in exclude:
                    continue
                if parent:
                    p = self.index(parent)
                    total += float(self.self_by_parent[i, p]) if p is not None else 0.0
                else:
                    total += float(self.self_s[i])
        return total


def batch_metrics(span_paths, inproc_s: float) -> dict[str, float]:
    """Per-layer metrics summed over one traced batch of jobs."""
    jobs = [_Spans(p) for p in span_paths]
    out: dict[str, float] = {}
    for metric, patterns in SELF.items():
        out[metric] = sum(j.self_of(patterns, EXCLUDE.get(metric, ())) for j in jobs)
    for metric, name in INCLUSIVE.items():
        out[metric] = sum(float(j.incl_s[i]) for j in jobs if (i := j.index(name)) is not None)
    for metric, name in CALLS.items():
        out[metric] = sum(int(j.calls[i]) for j in jobs if (i := j.index(name)) is not None)
    for metric in COUNTERS:
        out[metric] = sum(int(j.counters.get(metric, 0)) for j in jobs)
    decide = np.concatenate([j.durations("chains.decide_homotopic") for j in jobs])
    out["chains.decide_ms_p50"] = float(np.median(decide)) * 1e3 if decide.size else 0.0
    out["chains.decide_ms_max"] = float(decide.max()) * 1e3 if decide.size else 0.0
    out["trace.coverage"] = sum(j.root_s for j in jobs) / inproc_s
    out["trace.inproc_s"] = inproc_s
    return out
