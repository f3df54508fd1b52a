"""Finite dissimilarity spaces, scale relations (entourages) and maps.

A space is a fixed finite point set with a symmetric dissimilarity matrix;
an entourage is a reflexive symmetric boolean relation on the points that
encodes "close at this scale".

What the objects answer is immutable after construction.  Derived data is
kept by the object it derives from and nothing is kept process-wide, so it
lives exactly as long as its owner:
- `SpaceMap._images`: each relation a map has pushed forward (`image_under`);
- `Entourage._skeleton`: the relation's Rips skeleton (`rips.build_skeleton`),
  rebuilt only when asked with a different space;
- `RipsSkeleton._triangles`, `_h1data` and `_moves`: the skeleton's triangle
  array, H1 data and move tables, each built on first use;
- `rips._H1Data._steps`: the coordinates of each step read so far;
- the `cached_property`s of `tower._RootedWalks`: one walker's forest,
  root-component skeleton and image lattice.
Keeping the same value twice is harmless, so all objects are safe to share
between threads.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque

import numpy as np

from .errors import CarrierMismatch, ValidationError

COORD_TOL = 1e-9
SYMMETRY_TOL = 1e-9


def as_index(v) -> int:
    """An integer entry of an input document; floats, strings and booleans
    are malformed, not truncated."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValidationError(f"expected an integer, got {v!r}")
    return int(v)


def as_number(v) -> float:
    """A real-number entry of an input document; strings and booleans are malformed."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"expected a number, got {v!r}")
    return float(v)


class FiniteSpace:
    """Points with labels, optional coordinates and a distance matrix."""

    __slots__ = ("n", "labels", "coords", "dist", "distinguished", "_hash")

    def __init__(self, labels, dist=None, coords=None, distinguished=None):
        labels = tuple(str(s) for s in labels)
        n = len(labels)
        if n == 0:
            raise ValidationError("a space needs at least one point")
        if len(set(labels)) != n:
            raise ValidationError("duplicate point labels")
        if coords is not None:
            coords = np.asarray(coords, dtype=float)
            if coords.ndim != 2 or coords.shape[0] != n:
                raise ValidationError("coords must be one vector per point")
            if not np.isfinite(coords).all():
                raise ValidationError("coords must be finite (no NaN or infinity)")
        check_coords = coords is not None and dist is not None
        if dist is None:
            if coords is None:
                raise ValidationError("need coords or dist")
            dist = _euclidean(coords)
        dist = np.asarray(dist, dtype=float)
        if dist.shape != (n, n):
            raise ValidationError("dist must be an n x n matrix")
        if not np.isfinite(dist).all():
            i, j = np.argwhere(~np.isfinite(dist))[0]
            raise ValidationError(f"non-finite distance at ({i},{j})")
        scale = max(1.0, float(np.abs(dist).max()))
        asym = float(np.abs(dist - dist.T).max())
        if asym > SYMMETRY_TOL * scale:
            i, j = np.unravel_index(np.abs(dist - dist.T).argmax(), dist.shape)
            raise ValidationError(
                f"dist is not symmetric: dist[{i}][{j}]={dist[i, j]!r} vs dist[{j}][{i}]={dist[j, i]!r}"
            )
        dist = (dist + dist.T) / 2.0
        if float(np.abs(np.diag(dist)).max()) > 0.0:
            i = int(np.abs(np.diag(dist)).argmax())
            raise ValidationError(f"nonzero diagonal entry at point {i}")
        if float(dist.min()) < 0.0:
            i, j = np.unravel_index(dist.argmin(), dist.shape)
            raise ValidationError(f"negative distance at ({i},{j})")
        if check_coords:
            euclid = _euclidean(coords)
            if float(np.abs(euclid - dist).max()) > COORD_TOL * scale:
                raise ValidationError("dist disagrees with Euclidean distance of coords")
        if distinguished:
            distinguished = tuple((str(k), as_index(v)) for k, v in dict(distinguished).items())
            for name, idx in distinguished:
                if not (0 <= idx < n):
                    raise ValidationError(f"distinguished point {name!r} out of range")
        else:
            distinguished = ()
        dist.flags.writeable = False
        if coords is not None:
            coords.flags.writeable = False
        self.n = n
        self.labels = labels
        self.coords = coords
        self.dist = dist
        self.distinguished = distinguished
        self._hash = hash((n, labels, dist.tobytes()))

    def index_of(self, name) -> int:
        """Resolve a point by distinguished name, label, or integer index."""
        if isinstance(name, (int, np.integer)):
            idx = int(name)
            if not (0 <= idx < self.n):
                raise ValidationError(f"point index {idx} out of range")
            return idx
        for key, idx in self.distinguished:
            if key == name:
                return idx
        if name in self.labels:
            return self.labels.index(name)
        if isinstance(name, str) and name.isdigit():
            return self.index_of(int(name))
        raise ValidationError(f"unknown point {name!r}")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FiniteSpace)
            and self.labels == other.labels
            and np.array_equal(self.dist, other.dist)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteSpace(n={self.n})"

    def to_json(self) -> dict:
        doc = {"schema": 1, "labels": list(self.labels)}
        if self.coords is not None:
            doc["coords"] = [[float(v) for v in row] for row in self.coords]
        else:
            doc["dist"] = [[float(v) for v in row] for row in self.dist]
        if self.distinguished:
            doc["distinguished"] = {k: v for k, v in self.distinguished}
        return doc


def _euclidean(coords: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances of finite coordinates; coordinates so
    large that a difference or its square overflows are rejected."""
    try:
        with np.errstate(over="raise"):
            diff = coords[:, None, :] - coords[None, :, :]
            return np.sqrt((diff * diff).sum(axis=2))
    except FloatingPointError as e:
        raise ValidationError("coords too large: a squared distance overflows") from e


class Entourage:
    """Reflexive symmetric boolean relation on point indices 0..n-1."""

    __slots__ = ("n", "rel", "meta", "_hash", "_skeleton")

    def __init__(self, rel, meta=None):
        rel = np.asarray(rel, dtype=bool)
        if rel.ndim != 2 or rel.shape[0] != rel.shape[1]:
            raise ValidationError("relation must be a square boolean matrix")
        rel = rel.copy()
        np.fill_diagonal(rel, True)
        if not np.array_equal(rel, rel.T):
            raise ValidationError("relation must be symmetric")
        rel.flags.writeable = False
        self.n = rel.shape[0]
        self.rel = rel
        self.meta = dict(meta) if meta else {}
        self._hash = hash((self.n, rel.tobytes()))
        self._skeleton = None  # set by rips.build_skeleton only

    @classmethod
    def identity(cls, n: int) -> "Entourage":
        return cls(np.eye(n, dtype=bool))

    @classmethod
    def complete(cls, n: int) -> "Entourage":
        return cls(np.ones((n, n), dtype=bool))

    @classmethod
    def from_pairs(cls, n: int, pairs, meta=None) -> "Entourage":
        rel = np.eye(n, dtype=bool)
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValidationError(f"pair ({i},{j}) out of range")
            rel[i, j] = rel[j, i] = True
        return cls(rel, meta=meta)

    def pairs(self) -> list[tuple[int, int]]:
        """Off-diagonal related pairs (i < j), sorted."""
        iu, ju = np.nonzero(np.triu(self.rel, k=1))
        return [(int(i), int(j)) for i, j in zip(iu, ju)]

    def related(self, i: int, j: int) -> bool:
        return bool(self.rel[i, j])

    def issubset(self, other: "Entourage") -> bool:
        self._check_carrier(other)
        return bool(np.all(~self.rel | other.rel))

    def intersect(self, other: "Entourage") -> "Entourage":
        self._check_carrier(other)
        return Entourage(self.rel & other.rel)

    def without_pair(self, i: int, j: int) -> "Entourage":
        """Copy of the relation with one off-diagonal pair removed; the
        relation itself when the pair is not in it (or i == j)."""
        if i == j or not self.rel[i, j]:
            return self
        rel = self.rel.copy()
        rel[i, j] = rel[j, i] = False
        return Entourage(rel)

    def _check_carrier(self, other: "Entourage"):
        if self.n != other.n:
            raise CarrierMismatch(f"carrier sizes differ: {self.n} vs {other.n}")

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Entourage) and self.n == other.n and np.array_equal(self.rel, other.rel)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        off = int(self.rel.sum()) - self.n
        return f"Entourage(n={self.n}, pairs={off // 2})"


def entourage_at(space: FiniteSpace, eps: float, strict: bool = False) -> Entourage:
    """Relation of pairs at distance <= eps (or < eps when strict)."""
    if not math.isfinite(eps) or eps < 0:
        raise ValidationError(f"eps must be finite and nonnegative, got {eps!r}")
    rel = (space.dist < eps) if strict else (space.dist <= eps)
    return Entourage(rel, meta={"eps": float(eps), "strict": bool(strict)})


def compose(e: Entourage, f: Entourage) -> Entourage:
    """Relation of pairs joined by a two-step path (first e, then f).

    Powers of one relation are symmetric on their own; mixed products are
    symmetrized so the result is again an entourage.
    """
    e._check_carrier(f)
    rel = e.rel @ f.rel
    return Entourage(rel | rel.T)


def ball(e: Entourage, x: int) -> list[int]:
    """All points related to x, including x itself."""
    if not (0 <= x < e.n):
        raise ValidationError(f"point index {x} out of range")
    return np.flatnonzero(e.rel[x]).tolist()


def is_chain_connected(space: FiniteSpace, e: Entourage) -> bool:
    """True when the relation graph on the space's points is connected."""
    if space.n != e.n:
        raise CarrierMismatch("space and entourage sizes differ")
    return int(component_labels(e).max()) == 0


def bfs_forest(e: Entourage, first: int = 0) -> tuple[list[int], list[int]]:
    """Breadth-first forest of the relation graph, grown from `first` and
    then from each unvisited point in index order, neighbours in ascending
    order: parent (-1 at roots) and component id per point.  Components are
    numbered in root order, so by least member when `first` is 0."""
    n = e.n
    rows, cols = np.nonzero(e.rel)
    bounds = np.searchsorted(rows, np.arange(n + 1)).tolist()
    cols = cols.tolist()
    parent = [-1] * n
    component = [-1] * n
    comp = 0
    for start in (first, *range(n)):
        if component[start] >= 0:
            continue
        component[start] = comp
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in cols[bounds[v]:bounds[v + 1]]:
                if component[w] < 0:
                    component[w] = comp
                    parent[w] = v
                    queue.append(w)
        comp += 1
    return parent, component


def path_to_root(parent: list[int], v: int) -> list[int]:
    """The forest path v, parent[v], ... up to v's root."""
    path = [v]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    return path


def component_labels(e: Entourage) -> np.ndarray:
    """Connected-component index per point (component ids by least member)."""
    return np.asarray(bfs_forest(e)[1])


class SpaceMap:
    """Point assignment between two spaces; continuity is a per-scale question."""

    __slots__ = ("source", "target", "assign", "_images")

    def __init__(self, source: FiniteSpace, target: FiniteSpace, assign):
        assign = tuple(as_index(a) for a in assign)
        if len(assign) != source.n:
            raise ValidationError("assignment must cover every source point")
        for a in assign:
            if not (0 <= a < target.n):
                raise ValidationError(f"assigned index {a} outside target")
        self.source = source
        self.target = target
        self.assign = assign
        self._images: dict[Entourage, Entourage] = {}

    def __call__(self, i: int) -> int:
        return self.assign[i]

    def is_injective(self) -> bool:
        return len(set(self.assign)) == len(self.assign)

    def __eq__(self, other):
        return (
            isinstance(other, SpaceMap)
            and self.source == other.source
            and self.target == other.target
            and self.assign == other.assign
        )

    def __hash__(self):
        return hash((self.source, self.target, self.assign))


def image_under(f: SpaceMap, e: Entourage) -> Entourage:
    """Push a source relation forward along the map.

    Target points outside the image keep only their diagonal pair; the true
    image is recorded in the result's metadata so structure checks can see it.
    The map keeps the result, keyed by the relation, and returns it again.
    """
    if e.n != f.source.n:
        raise CarrierMismatch("entourage does not live on the map's source")
    fe = f._images.get(e)
    if fe is None:
        # a and b are related when some preimage of a is related to some
        # preimage of b: the product P^T E P with P the one-hot map matrix
        onehot = np.zeros((f.source.n, f.target.n), dtype=bool)
        onehot[np.arange(f.source.n), f.assign] = True
        rel = onehot.T @ e.rel @ onehot
        fe = f._images[e] = Entourage(rel, meta={"image_points": sorted(set(f.assign))})
    return fe


def preimage_under(f: SpaceMap, e: Entourage) -> Entourage:
    """Pairs whose images are related: the pullback relation on the source."""
    if e.n != f.target.n:
        raise CarrierMismatch("entourage does not live on the map's target")
    assign = np.asarray(f.assign)
    return Entourage(e.rel[np.ix_(assign, assign)])


class ScaleLadder:
    """A finite decreasing chain of entourages (coarsest first).

    Built either from strictly decreasing thresholds on a space or from an
    explicit list of nested relations; each scale must be contained in the
    previous one.
    """

    __slots__ = ("scales", "descriptors")

    def __init__(self, scales, descriptors=None):
        scales = tuple(scales)
        if not scales:
            raise ValidationError("ladder must contain at least one scale")
        n = scales[0].n
        for s in scales:
            if s.n != n:
                raise CarrierMismatch("ladder scales live on different carriers")
        for fine, coarse in zip(scales[1:], scales):
            if not fine.issubset(coarse):
                raise ValidationError("ladder scales must be nested (each inside the previous)")
        if descriptors is None:
            descriptors = [_describe_scale(s) for s in scales]
        self.scales = scales
        self.descriptors = list(descriptors)

    @classmethod
    def from_thresholds(cls, space: FiniteSpace, thresholds, strict: bool = False) -> "ScaleLadder":
        thresholds = [float(t) for t in thresholds]
        if any(not math.isfinite(t) or t < 0 for t in thresholds):
            raise ValidationError(f"thresholds must be finite and nonnegative, got {thresholds}")
        if any(a <= b for a, b in zip(thresholds, thresholds[1:])):
            raise ValidationError("thresholds must be strictly decreasing")
        return cls(entourage_at(space, t, strict=strict) for t in thresholds)

    def __len__(self):
        return len(self.scales)

    def __getitem__(self, i) -> Entourage:
        return self.scales[i]

    def __iter__(self):
        return iter(self.scales)

    @property
    def n(self) -> int:
        return self.scales[0].n

    def finest(self) -> Entourage:
        return self.scales[-1]

    def describe(self, i: int) -> str:
        d = self.descriptors[i]
        if "eps" in d:
            return f"eps{'<' if d.get('strict') else '='}{d['eps']:g}"
        return d.get("label", f"scale#{i}")

    def to_json(self) -> list:
        out = []
        for d in self.descriptors:
            entry = dict(d)
            if "pairs" in entry:
                entry["pairs"] = [list(p) for p in entry["pairs"]]
            out.append(entry)
        return out

    @classmethod
    def from_json(cls, space: FiniteSpace, doc) -> "ScaleLadder":
        """Entries are {"eps": number, "strict": bool} (strict optional) or
        {"pairs": [[i, j], ...], "label": str} (label optional)."""
        if not isinstance(doc, list):
            raise ValidationError(f"a ladder must be a list of scales, got {doc!r}")
        scales = []
        descriptors = []
        for entry in doc:
            if not isinstance(entry, dict):
                raise ValidationError(f"ladder entry must be an object, got {entry!r}")
            if "eps" in entry:
                strict = entry.get("strict", False)
                if not isinstance(strict, bool):
                    raise ValidationError(f"strict must be true or false, got {strict!r}")
                scale = entourage_at(space, as_number(entry["eps"]), strict=strict)
                d = _describe_scale(scale)
            elif "pairs" in entry:
                try:
                    pairs = [(as_index(i), as_index(j)) for i, j in entry["pairs"]]
                except (TypeError, ValueError) as e:
                    raise ValidationError(f"ladder pairs must be [i, j] index pairs: {e}") from e
                scale = Entourage.from_pairs(space.n, pairs)
                d = {"pairs": pairs}
                if "label" in entry:
                    d["label"] = str(entry["label"])
            else:
                raise ValidationError("ladder entry needs 'eps' or 'pairs'")
            scales.append(scale)
            descriptors.append(d)
        return cls(scales, descriptors=descriptors)


def _describe_scale(s: Entourage) -> dict:
    """Ladder descriptor of one scale; `strict` appears only when set."""
    if "eps" not in s.meta:
        return {"pairs": s.pairs()}
    if s.meta.get("strict"):
        return {"eps": s.meta["eps"], "strict": True}
    return {"eps": s.meta["eps"]}


def space_from_json(doc: dict) -> FiniteSpace:
    if not isinstance(doc, dict) or "labels" not in doc:
        raise ValidationError("space json needs 'labels'")
    has_coords = "coords" in doc and doc["coords"] is not None
    has_dist = "dist" in doc and doc["dist"] is not None
    if has_coords == has_dist:
        raise ValidationError("space json needs exactly one of 'coords' or 'dist'")
    try:
        return FiniteSpace(
            doc["labels"],
            dist=doc.get("dist"),
            coords=doc.get("coords"),
            distinguished=doc.get("distinguished"),
        )
    except (TypeError, ValueError) as e:
        raise ValidationError(f"malformed space: {e}") from e


def load_space(path: str, format: str | None = None) -> FiniteSpace:
    """Read a space from json, csv-points, or csv-matrix files."""
    if format is None:
        if str(path).endswith(".json"):
            format = "json"
        else:
            with open(path, newline="") as fh:
                first = fh.readline()
            format = "csv-points" if first.split(",")[0].strip().lower() == "label" else "csv-matrix"
    if format == "json":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as e:
                raise ValidationError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
        return space_from_json(doc)
    if format == "csv-points":
        labels, coords = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[0].strip().lower() != "label":
                raise ValidationError(f"{path}:1: csv-points header must start with 'label'")
            dim = len(header) - 1
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != dim + 1:
                    raise ValidationError(f"{path}:{lineno}: expected {dim + 1} fields")
                labels.append(row[0].strip())
                try:
                    coords.append([float(v) for v in row[1:]])
                except ValueError as e:
                    raise ValidationError(f"{path}:{lineno}: {e}") from e
        return FiniteSpace(labels, coords=coords)
    if format == "csv-matrix":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header:
                raise ValidationError(f"{path}:1: empty file")
            labels = [s.strip() for s in header]
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(labels):
                    raise ValidationError(f"{path}:{lineno}: expected {len(labels)} fields")
                try:
                    rows.append([float(v) for v in row])
                except ValueError as e:
                    raise ValidationError(f"{path}:{lineno}: {e}") from e
        if len(rows) != len(labels):
            raise ValidationError(f"{path}: matrix is {len(rows)} rows for {len(labels)} labels")
        return FiniteSpace(labels, dist=rows)
    raise ValidationError(f"unknown format {format!r}")


def dump_space(space: FiniteSpace, path: str, ladder: ScaleLadder | None = None) -> None:
    doc = space.to_json()
    if ladder is not None:
        doc["recommended_ladder"] = ladder.to_json()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

