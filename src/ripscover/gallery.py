"""Built-in example spaces with recommended scale ladders.

Each generator returns the sampled space together with the ladder its
diagnostics are meant to run at; distinguished points name the pairs the
standard questions are asked about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .space import Entourage, FiniteSpace, ScaleLadder, entourage_at


@dataclass(frozen=True)
class GallerySpace:
    space: FiniteSpace
    ladder: ScaleLadder


def polygon(n: int, r: float) -> GallerySpace:
    """Regular n-gon of circumradius r.

    The ladder keeps three scales that all read the cycle; for n >= 7 the
    scales include second-neighbor chords so that neighboring pairs admit
    two-step detours.
    """
    if n < 3 or r <= 0:
        raise ValidationError("polygon needs n >= 3 and r > 0")
    coords = [(r * math.cos(2 * math.pi * i / n), r * math.sin(2 * math.pi * i / n)) for i in range(n)]
    labels = [f"p{i}" for i in range(n)]
    space = FiniteSpace(labels, coords=coords, distinguished={"base": 0})
    chords = _realized_chords(space)
    if n >= 7:
        lo, hi = chords[1], chords[2]
    elif len(chords) >= 2:
        lo, hi = chords[0], chords[1]
    else:
        lo, hi = chords[0], 1.2 * chords[0]
    thresholds = [lo + 0.75 * (hi - lo), lo + 0.5 * (hi - lo), lo]
    return GallerySpace(space, ScaleLadder.from_thresholds(space, thresholds))


def _realized_chords(space: FiniteSpace) -> list[float]:
    """Distinct positive distances, clustered at relative 1e-9, largest of each."""
    vals = np.sort(space.dist[np.triu_indices(space.n, k=1)])
    vals = [float(v) for v in vals if v > 0]
    out: list[float] = []
    for v in vals:
        if out and v <= out[-1] * (1 + 1e-9):
            out[-1] = v
        else:
            out.append(v)
    return out


def _hex_vertices() -> list[tuple[float, float]]:
    # exact +-1/2 and +-sqrt(3)/2 so every side compares <= 1 in floats
    h = math.sqrt(3.0) / 2
    return [(1.0, 0.0), (0.5, h), (-0.5, h), (-1.0, 0.0), (-0.5, -h), (0.5, -h)]


def hexagon_ex72(densify: int = 0) -> GallerySpace:
    """Unit-side hexagon sample with the side between a and b left unsampled.

    The six vertices carry the plain planar metric; the missing side shows up
    only through which points exist, since vertices a and b still sit at
    distance 1.  `densify` adds that many evenly spaced samples to the
    interior of each of the five retained sides.
    """
    if densify < 0:
        raise ValidationError("densify must be nonnegative")
    verts = _hex_vertices()
    labels = ["a", "b", "c", "d", "e", "f"]
    coords = list(verts)
    # retained sides walk the arc from b back around to a
    retained = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    for i, j in retained:
        for k in range(1, densify + 1):
            t = k / (densify + 1)
            p = (
                verts[i][0] + t * (verts[j][0] - verts[i][0]),
                verts[i][1] + t * (verts[j][1] - verts[i][1]),
            )
            coords.append(p)
            labels.append(f"{labels[i]}{labels[j]}{k}")
    space = FiniteSpace(labels, coords=coords, distinguished={"a": 0, "b": 1})
    return GallerySpace(space, ScaleLadder.from_thresholds(space, [3.0, 1.0]))


def hexagon_ex73() -> GallerySpace:
    """Planar hexagon sample plus its center and a vertical hexagon arc.

    Eleven points: the six planar vertices (side between a and b unsampled),
    the center c, and the four new vertices of a unit hexagon erected in the
    vertical plane through the segment from a to c, whose bottom side's
    interior is unsampled.  Every structural distance equals 1, so metric
    thresholds cannot see the arcs alone; the recommended ladder therefore
    ends with an explicit arc-step relation as its finest scale.
    """
    s3 = math.sqrt(3.0)
    coords = [
        (1.0, 0.0, 0.0),        # a
        (0.5, s3 / 2, 0.0),     # b
        (-0.5, s3 / 2, 0.0),    # p1
        (-1.0, 0.0, 0.0),       # p2
        (-0.5, -s3 / 2, 0.0),   # p3
        (0.5, -s3 / 2, 0.0),    # p4
        (0.0, 0.0, 0.0),        # c (center)
        (1.5, 0.0, s3 / 2),     # q1
        (1.0, 0.0, s3),         # q2
        (0.0, 0.0, s3),         # q3
        (-0.5, 0.0, s3 / 2),    # q4
    ]
    labels = ["a", "b", "p1", "p2", "p3", "p4", "c", "q1", "q2", "q3", "q4"]
    space = FiniteSpace(labels, coords=coords, distinguished={"a": 0, "b": 1, "c": 6})
    arc_pairs = [
        (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),   # planar arc b..a
        (0, 7), (7, 8), (8, 9), (9, 10), (10, 6),  # vertical arc a..c
    ]
    scales = [
        entourage_at(space, 3.0),
        entourage_at(space, 1.0),
        Entourage.from_pairs(space.n, arc_pairs, meta={"label": "arc-steps"}),
    ]
    return GallerySpace(space, ScaleLadder(scales))


def solenoid(k: int, samples_per_winding: int = 64, major: float = 4.0, minor: float = 1.0) -> GallerySpace:
    """Stage-k doubling curve inside a torus, sampled along its parameter.

    The curve winds 2**k times around the torus; its meridional offset nests
    dyadically so that at the j-th recommended threshold all strands whose
    pass indices agree modulo 2**j merge, leaving the stage-j circle.
    Thresholds are derived from the sampled strand-separation bands and
    validated; parameters that cannot separate the stages raise.
    """
    if k < 1:
        raise ValidationError("solenoid needs k >= 1")
    if samples_per_winding < 8:
        raise ValidationError("need at least 8 samples per winding")
    if not (0 < minor < major):
        raise ValidationError("need 0 < minor < major")
    windings = 2 ** k
    n = samples_per_winding * windings
    rho = [0.62 * minor * (0.4 ** j) for j in range(k)]
    total = sum(rho)
    cap = 0.93 * minor
    if total > cap:
        rho = [v * cap / total for v in rho]

    ts = np.arange(n) / samples_per_winding  # parameter in [0, 2**k)
    theta = 2 * math.pi * ts
    off_r = np.zeros(n)
    off_z = np.zeros(n)
    for j, radius in enumerate(rho, start=1):
        phase = 2 * math.pi * ts / (2 ** j)
        off_r += radius * np.cos(phase)
        off_z += radius * np.sin(phase)
    xs = (major + off_r) * np.cos(theta)
    ys = (major + off_r) * np.sin(theta)
    coords = np.stack([xs, ys, off_z], axis=1)

    labels = [f"s{i}" for i in range(n)]
    space = FiniteSpace(labels, coords=coords, distinguished={"base": 0})

    # Strand bands per 2-adic valuation of the pass offset.  A merge scale
    # must also cover the one-sample "diagonal" chords so the rungs between
    # merged strands get triangulated, not left as hollow squares.
    dist = space.dist
    idx = np.arange(n)
    sep = []    # min distance within a valuation class (incl. +-1 offsets)
    diag = []   # max distance within a valuation class (incl. +-1 offsets)
    for v in range(k):
        lo, hi = math.inf, 0.0
        for m in range(1, windings):
            if _val2(m) != v:
                continue
            for s in (-1, 0, 1):
                shift = m * samples_per_winding + s
                d = dist[idx, (idx + shift) % n]
                lo = min(lo, float(d.min()))
                hi = max(hi, float(d.max()))
        sep.append(lo)
        diag.append(hi)
    maxchord = float(dist[idx, (idx + 1) % n].max())

    thresholds = []
    merge_hi = max(diag)
    circle_cap = 0.8 * major * math.sqrt(3.0)
    if merge_hi * 1.05 >= circle_cap:
        raise ValidationError("solenoid parameters: strands too wide for the base circle")
    thresholds.append(min(1.1 * merge_hi, circle_cap))
    for j in range(1, k):
        below = max(diag[j:])
        above = min(sep[:j])
        if below * 1.02 >= above:
            raise ValidationError(f"solenoid parameters cannot separate stage {j}")
        thresholds.append(math.sqrt(below * above))
    finest_sep = min(sep)
    if maxchord * 1.02 >= finest_sep:
        raise ValidationError("solenoid parameters: sampling too coarse for the finest stage")
    thresholds.append(math.sqrt(maxchord * finest_sep))
    if any(a <= b for a, b in zip(thresholds, thresholds[1:])):
        raise ValidationError("solenoid thresholds failed to separate; adjust parameters")
    return GallerySpace(space, ScaleLadder.from_thresholds(space, thresholds))


def _val2(m: int) -> int:
    v = 0
    while m % 2 == 0:
        m //= 2
        v += 1
    return v


def hawaiian(m: int, samples: int = 16) -> GallerySpace:
    """Wedge of m circles of radii 1, 1/2, ..., 1/m joined at one point.

    Circles leave the wedge point in spread directions so that none passes
    near another's center.  At the j-th recommended threshold the circles
    past j collapse while the first j still read as cycles.  From m = 6 on
    the fifth window is empty for every sample count (crushing circle 6
    needs 1/3, above 0.95 * sqrt(3) / 5), so m is at most 5.
    """
    if not (1 <= m <= 5):
        raise ValidationError(f"hawaiian supports 1 <= m <= 5 circles, got {m}")
    if samples < 8:
        raise ValidationError("need at least 8 samples per circle")
    coords = [(0.0, 0.0)]
    labels = ["w"]
    for k in range(1, m + 1):
        radius = 1.0 / k
        direction = 2 * math.pi * (k - 1) / m
        cx, cy = radius * math.cos(direction), radius * math.sin(direction)
        for i in range(1, samples):
            ang = direction + math.pi + 2 * math.pi * i / samples
            coords.append((cx + radius * math.cos(ang), cy + radius * math.sin(ang)))
            labels.append(f"c{k}_{i}")
    space = FiniteSpace(labels, coords=coords, distinguished={"w": 0})
    spacing1 = 2 * math.sin(math.pi / samples)  # largest sample gap (circle 1)
    thresholds = [2.1]
    for j in range(1, m + 1):
        crush = 2.0 / (j + 1) if j < m else 0.0  # the finest scale crushes nothing
        lo = max(crush, 1.2 * spacing1)
        hi = 0.95 * math.sqrt(3.0) / j
        if lo >= hi:
            raise ValidationError(
                f"no threshold window for circle {j}; increase samples"
            )
        thresholds.append(math.sqrt(lo * hi))
    return GallerySpace(space, ScaleLadder.from_thresholds(space, thresholds))


def _count(v: str) -> int:
    """A count argument of a gallery spec: an integer, never a truncated real."""
    try:
        return int(v)
    except ValueError as e:
        raise ValidationError(f"expected an integer gallery argument, got {v!r}") from e


def _real(v: str) -> float:
    """A real argument of a gallery spec: a finite number."""
    try:
        x = float(v)
    except ValueError as e:
        raise ValidationError(f"expected a number as gallery argument, got {v!r}") from e
    if not math.isfinite(x):
        raise ValidationError(f"expected a finite gallery argument, got {v!r}")
    return x


# builder, the kind of each argument in order, and how many are required
_SPECS = {
    "polygon": (polygon, (_count, _real), 2),
    "hexagon_ex72": (hexagon_ex72, (_count,), 0),
    "hexagon_ex73": (hexagon_ex73, (), 0),
    "solenoid": (solenoid, (_count, _count, _real, _real), 1),
    "hawaiian": (hawaiian, (_count, _count), 1),
}


def gallery(name: str) -> GallerySpace:
    """Build a gallery space from a spec string like 'polygon:12,1' or 'hexagon_ex72'."""
    base, _, rest = name.partition(":")
    args = rest.split(",") if rest else []
    base = base.strip()
    if base not in _SPECS:
        raise ValidationError(f"unknown gallery space {name!r}")
    build, kinds, required = _SPECS[base]
    if not required <= len(args) <= len(kinds):
        want = required if required == len(kinds) else f"{required} to {len(kinds)}"
        raise ValidationError(f"{base} takes {want} arguments, got {name!r}")
    return build(*(kind(v) for kind, v in zip(kinds, args)))
