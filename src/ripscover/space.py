"""Finite dissimilarity spaces, scale relations (entourages) and maps.

A space is a fixed finite point set with a symmetric dissimilarity matrix;
an entourage is a reflexive symmetric boolean relation on the points that
encodes "close at this scale".  `SearchBudget`, the one bound every
homotopy search takes, lives here too, so a command reads its budget
option without loading the search layer.

What the objects answer is immutable after construction.  Derived data is
kept by the object it derives from and nothing is kept process-wide, so it
lives exactly as long as its owner:
- `SpaceMap._images`: each relation a map has pushed forward (`image_under`);
- `Entourage._skeleton`: the relation's Rips skeleton (`rips.build_skeleton`),
  built once, from the relation alone;
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
import sys
from collections import deque
from dataclasses import dataclass

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


@dataclass(frozen=True)
class SearchBudget:
    """The explicit bound of a homotopy search; the move graph is infinite.

    `states` bounds the states one search stores, both directions together,
    so an Unknown names the budget before memory runs out.  Both chains are
    first tightened by greedy deletes, and the search runs between the
    tightened ends; the given chains and those passed on the way, repeated
    points included, count as stored.  It bounds length too: each step of
    the search inserts at most one point, so a stored chain is at most its
    start's length plus its search depth.  It is at least 1.
    """

    states: int = 50_000

    def __post_init__(self):
        if self.states < 1:
            raise ValidationError(f"the state budget must be at least 1, not {self.states}")


DEFAULT_BUDGET = SearchBudget()


class FiniteSpace:
    """Points with labels, optional coordinates and a distance matrix."""

    __slots__ = ("n", "labels", "coords", "dist", "distinguished")

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
        if dist is None:
            if coords is None:
                raise ValidationError("need coords or dist")
            dist = _euclidean(coords)  # exactly symmetric, zero diagonal, nonnegative
        else:
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
            if coords is not None:
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
        return hash((self.n, self.labels))

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
    large that a difference or its square overflows are rejected.

    The squared differences are added axis by axis into one n x n array,
    through one n x n buffer.  That is the order in which numpy's sum adds
    fewer than eight terms, so for d < 8 the result is bit for bit that of
    summing the (n, n, d) array of squares, which is never held."""
    n = len(coords)
    out = np.zeros((n, n))
    buf = np.empty((n, n))
    try:
        with np.errstate(over="raise"):
            for x in coords.T:
                np.subtract.outer(x, x, out=buf)
                buf *= buf
                out += buf
            return np.sqrt(out, out=out)
    except FloatingPointError as e:
        raise ValidationError("coords too large: a squared distance overflows") from e


class Entourage:
    """Reflexive symmetric boolean relation on point indices 0..n-1."""

    __slots__ = ("n", "rel", "meta", "_skeleton")

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
        return hash(self.rel.tobytes())

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


def image_under(f: SpaceMap, e: Entourage) -> Entourage:
    """Push a source relation forward along the map.

    Target points outside the image keep only their diagonal pair.  The map
    keeps the result, keyed by the relation, and returns it again.
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
        fe = f._images[e] = Entourage(rel)
    return fe


class ScaleLadder:
    """A finite decreasing chain of entourages (coarsest first).

    Built either from strictly decreasing thresholds on a space or from an
    explicit list of nested relations; each scale must be contained in the
    previous one.  A scale is named and written out from its own `meta`.
    """

    __slots__ = ("scales",)

    def __init__(self, scales):
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
        self.scales = scales

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
        return scale_name(self[i].meta, f"scale#{i}")

    def to_json(self) -> list:
        return [_describe_scale(s) for s in self.scales]

    @classmethod
    def from_json(cls, space: FiniteSpace, doc) -> "ScaleLadder":
        """A list of scale entries, coarsest first, each read by `scale_from_json`."""
        if not isinstance(doc, list):
            raise ValidationError(f"a ladder must be a list of scales, got {doc!r}")
        return cls(scale_from_json(space, entry) for entry in doc)


def scale_from_json(space: FiniteSpace, entry) -> Entourage:
    """One scale of `space` from its json entry: {"eps": number, "strict":
    bool} (strict optional) or {"pairs": [[i, j], ...], "label": str} (label
    optional, kept in the relation's meta).  Pairs given next to an eps must
    be that scale; other keys are ignored."""
    if not isinstance(entry, dict):
        raise ValidationError(f"a scale must be an object, got {entry!r}")
    if "eps" not in entry and "pairs" not in entry:
        raise ValidationError("a scale needs 'eps' or 'pairs'")
    listed = None
    if "pairs" in entry:
        try:
            pairs = [(as_index(i), as_index(j)) for i, j in entry["pairs"]]
        except (TypeError, ValueError) as e:
            raise ValidationError(f"scale pairs must be [i, j] index pairs: {e}") from e
        meta = {"label": str(entry["label"])} if "label" in entry else None
        listed = Entourage.from_pairs(space.n, pairs, meta=meta)
        if "eps" not in entry:
            return listed
    eps, strict = as_number(entry["eps"]), entry.get("strict", False)
    if not isinstance(strict, bool):
        raise ValidationError(f"strict must be true or false, got {strict!r}")
    scale = entourage_at(space, eps, strict=strict)
    if listed is not None and listed != scale:
        raise ValidationError(f"the pairs are not the {'strict ' if strict else ''}eps={eps:g} scale")
    return scale


def scale_name(meta: dict, default: str) -> str:
    """A scale's name in reports, from its entourage's meta: `eps=t`, or
    `eps<t` for a strict threshold, else its label or `default`."""
    if "eps" in meta:
        return f"eps{'<' if meta.get('strict') else '='}{meta['eps']:g}"
    return meta.get("label", default)


def _describe_scale(s: Entourage) -> dict:
    """Ladder entry of one scale, from its meta: its eps (`strict` only when
    set), else its sorted pairs and any label."""
    if "eps" in s.meta:
        return {"eps": s.meta["eps"], "strict": True} if s.meta.get("strict") else {"eps": s.meta["eps"]}
    entry = {"pairs": [list(p) for p in s.pairs()]}
    if "label" in s.meta:
        entry["label"] = s.meta["label"]
    return entry


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


def read_json_object(path: str, kind: str, keys=()) -> dict:
    """A json object from a file that must hold every key in `keys`."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path}: not UTF-8 text") from e
    if not isinstance(doc, dict):
        raise ValidationError(f"{kind} file must hold a json object")
    for key in keys:
        if key not in doc:
            raise ValidationError(f"{kind} file is missing '{key}'")
    return doc


def load_space(path: str) -> FiniteSpace:
    """Read a space from json, csv-points (the first field of the header is
    `label`), or csv-matrix files."""
    if str(path).endswith(".json"):
        return space_from_json(read_json_object(path, "space"))
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header:
                raise ValidationError(f"{path}:1: empty file")
            points = header[0].strip().lower() == "label"  # else a matrix under a row of labels
            labels = [] if points else [s.strip() for s in header]
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValidationError(f"{path}:{lineno}: expected {len(header)} fields")
                if points:
                    labels.append(row.pop(0).strip())
                try:
                    rows.append([float(v) for v in row])
                except ValueError as e:
                    raise ValidationError(f"{path}:{lineno}: {e}") from e
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path}: not UTF-8 text") from e
    if points:
        return FiniteSpace(labels, coords=rows)
    if len(rows) != len(labels):
        raise ValidationError(f"{path}: matrix is {len(rows)} rows for {len(labels)} labels")
    return FiniteSpace(labels, dist=rows)


def write_report(doc: dict | str, path: str | None) -> None:
    """Write a report to the file at `path`, or to stdout: a dict as one line
    of sorted compact json, a string as it is."""
    text = doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def dump_space(space: FiniteSpace, path: str | None, ladder: ScaleLadder | None = None) -> None:
    doc = space.to_json()
    if ladder is not None:
        doc["recommended_ladder"] = ladder.to_json()
    write_report(doc, path)

