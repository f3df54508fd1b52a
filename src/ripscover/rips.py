"""Rips 2-skeletons, edge-path presentations, and exact first homology.

Only vertices, edges and triangles are ever built; everything the package
asks about loops factors through them.  Homology is computed from the
triangle relators in the non-forest-edge basis: relators with one live
generator are peeled until none is left, the few left go through a sparse
unit-pivot phase feeding a small dense Smith form, so class vectors,
representatives and torsion are all exact.  The peel is the least fixed
point of a rule on edges (a generator dies when a third vertex joins its
ends by two dead edges), so it runs on the n x n edge matrix, and only the
triangles that outlive it are listed; a skeleton builds its full triangle
list only when a caller reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CarrierMismatch, ChainError, ValidationError
from .snf import IntLattice, eliminate_unit_pivots, reduce_vector, smith_normal_form
from .space import Entourage, FiniteSpace, bfs_forest, path_to_root


def _blocks(count: int, n: int):
    """Slices of 0..count in steps of about 4M / n, so a (step x n) mask
    stays a few MB."""
    step = max(1, (1 << 22) // max(n, 1))
    return (slice(s, s + step) for s in range(0, count, step))


class RipsSkeleton:
    """2-skeleton of the clique complex of an entourage, plus a BFS forest.

    Triangles are built only where they are read: `tri` is the (R x 3)
    read-only array of triangles i < j < k in sorted order, and `triangles`
    the same as a list of tuples, each built on first read and kept.  H1
    needs neither (see `_residue`), and `triangle_count` counts them
    without building them.
    """

    __slots__ = (
        "space", "entourage", "edges", "_tri",
        "parent", "roots", "component",
        "gen_index", "generators", "_triangles", "_h1data", "_moves",
    )

    def __init__(self, space: FiniteSpace, entourage: Entourage):
        if space.n != entourage.n:
            raise CarrierMismatch("space and entourage sizes differ")
        n = space.n
        iu, ju = np.nonzero(np.triu(entourage.rel, k=1))
        edges = list(zip(iu.tolist(), ju.tolist()))

        parent, component = bfs_forest(entourage)
        roots = [v for v in range(n) if parent[v] < 0]

        generators = [e for e in edges if parent[e[1]] != e[0] and parent[e[0]] != e[1]]
        gen_index = {e: k for k, e in enumerate(generators)}

        self.space = space
        self.entourage = entourage
        self.edges = edges
        self._tri = None
        self._triangles = None
        self.parent = parent
        self.roots = roots
        self.component = component
        self.generators = generators
        self.gen_index = gen_index
        self._h1data = None
        self._moves = None

    @property
    def n(self) -> int:
        return self.space.n

    def _triangle_masks(self):
        """Per block of edges a < b (lexicographic order): the arrays a, b and
        the (block x n) mask of the vertices k > b related to both, so each
        triangle a < b < k shows once.  Edges go in blocks so the mask stays
        a few MB."""
        rel = self.entourage.rel
        n = self.n
        iu, ju = np.nonzero(np.triu(rel, k=1))
        cols = np.arange(n)
        for s in _blocks(len(iu), n):
            a, b = iu[s], ju[s]
            yield a, b, rel[a] & rel[b] & (cols > b[:, None])

    @property
    def tri(self) -> np.ndarray:
        """The triangles i < j < k as one read-only (R x 3) array, in sorted
        order, built on first read and kept."""
        if self._tri is None:
            # np.nonzero walks rows, then k, so the triangles come out sorted
            blocks = [np.empty((0, 3), dtype=np.intp)]
            for a, b, mask in self._triangle_masks():
                e, k = np.nonzero(mask)
                blocks.append(np.stack([a[e], b[e], k], axis=1))
            tri = np.concatenate(blocks)
            tri.flags.writeable = False
            self._tri = tri
        return self._tri

    @property
    def triangle_count(self) -> int:
        """len(tri), counted without building it."""
        return sum(int(np.count_nonzero(mask)) for _, _, mask in self._triangle_masks())

    @property
    def triangles(self) -> list[tuple[int, int, int]]:
        """The triangles i < j < k as sorted int tuples, built from `tri` on
        first read and kept."""
        if self._triangles is None:
            self._triangles = list(zip(*self.tri.T.tolist()))
        return self._triangles

    def step_gen(self, u: int, v: int) -> tuple[int, int] | None:
        """Generator index and sign of the step u -> v, or None on tree edges."""
        e = (u, v) if u < v else (v, u)
        g = self.gen_index.get(e)
        if g is None:
            return None
        return g, (1 if u < v else -1)

    def fundamental_walk(self, gen: int) -> list[int]:
        """The basis loop of one generator a-b as a closed vertex walk
        root -> a -> b -> root along the forest."""
        a, b = self.generators[gen]
        return path_to_root(self.parent, a)[::-1] + path_to_root(self.parent, b)

    def h1_data(self) -> "_H1Data":
        if self._h1data is None:
            self._h1data = _H1Data(self)
        return self._h1data

    def move_tables(self) -> tuple[list[list[bool]], list[dict[int, tuple[int, ...]]]]:
        """Adjacency rows and common neighbours for the chain-move search.

        `adj[a][b]` is the relation; `common[a][b]`, for every related pair
        (a == b included), is the ascending tuple of vertices v not in
        {a, b} related to both.  Built on first use and kept with the
        skeleton.
        """
        if self._moves is None:
            adj = self.entourage.rel.tolist()
            nbrs = [[v for v, r in enumerate(row) if r] for row in adj]
            common: list[dict[int, tuple[int, ...]]] = [{} for _ in adj]
            for a, row_a in enumerate(nbrs):
                for b in row_a:
                    if b < a:
                        common[a][b] = common[b][a]
                        continue
                    row_b = adj[b]
                    common[a][b] = tuple(v for v in row_a if row_b[v] and v != a and v != b)
            self._moves = (adj, common)
        return self._moves

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "edges": [list(e) for e in self.edges],
            "triangles": [list(t) for t in self.triangles],
            "forest_parent": list(self.parent),
            "roots": list(self.roots),
        }


@lru_cache(maxsize=256)
def _skeleton(space: FiniteSpace, entourage: Entourage) -> RipsSkeleton:
    return RipsSkeleton(space, entourage)


def build_skeleton(space: FiniteSpace, entourage: Entourage) -> RipsSkeleton:
    """All off-diagonal related pairs and all 3-cliques, deterministically."""
    return _skeleton(space, entourage)


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group as rank plus invariant factors."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValidationError("torsion factors must form a divisibility chain")
        if any(t < 2 for t in self.torsion):
            raise ValidationError("torsion factors must be >= 2")

    @property
    def dim(self) -> int:
        return self.rank + len(self.torsion)

    def is_trivial(self) -> bool:
        return self.dim == 0

    def reduce(self, vec) -> tuple[int, ...]:
        """Canonical coordinates of a class: torsion entries taken mod their factors."""
        out = list(vec)
        for i, d in enumerate(self.torsion, self.rank):
            out[i] %= d
        return tuple(out)

    def relations(self) -> list[list[int]]:
        """The vectors d * e_i that vanish in the group, one per torsion coordinate."""
        return [[d if c == i else 0 for c in range(self.dim)] for i, d in enumerate(self.torsion, self.rank)]

    def __str__(self):
        if self.dim == 0:
            return "0"
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts)


class _Relators:
    """Relator rows as {generator: sign} dicts, from an (R x 3) array of
    generator ids for the edges ij, jk, ik (-1 where the edge has no live
    generator).

    The dicts are made a block at a time while they are read, so the rows
    are never all held as Python objects at once; every dict's keys are
    the same int objects.  The length is known without reading the rows.
    """

    def __init__(self, ids: np.ndarray, ngen: int):
        self.ids = ids
        self.gens = list(range(ngen))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        gens = self.gens
        for s in range(0, len(self.ids), 4096):
            for r in self.ids[s:s + 4096].tolist():
                yield {gens[g]: sign for g, sign in zip(r, (1, 1, -1)) if g >= 0}


def _any_common(rel: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per pair (a[t], b[t]): is some vertex related to both in `rel`?"""
    out = np.zeros(len(a), dtype=bool)
    for s in _blocks(len(a), len(rel)):
        out[s] = (rel[a[s]] & rel[b[s]]).any(axis=1)
    return out


def _residue(skel: RipsSkeleton) -> tuple[np.ndarray, np.ndarray]:
    """Which generators survive the peel, and the relator rows it leaves.

    Peeling one-live-generator triangle relators until none is left reaches
    the least fixed point of one rule: a live generator a-b dies when some
    vertex c has both a-c and b-c dead, where an edge is dead when it is a
    forest edge or a killed generator.  Kills only add dead edges, so the
    order of the kills does not change the fixed point, and the rule is
    closed here on the n x n dead-edge matrix without listing triangles;
    after a round only generators with an end on a newly dead edge can
    newly die.  The rows left are exactly the triangles with at least two
    live generators, in sorted (i, j, k) order: the ones the peel keeps, in
    the order it keeps them.  Each comes out of its live edges a-b as a
    third vertex c related to both with a-c or b-c live, once per live edge.

    Returns the live mask over generators and an (R x 3) int32 array of
    the rows' generator ids for the edges ij, jk, ik, -1 where the edge is
    dead.
    """
    n = skel.n
    ngen = len(skel.generators)
    a, b = np.array(skel.generators, dtype=np.intp).reshape(-1, 2).T
    parent = np.asarray(skel.parent, dtype=np.intp)
    child = np.flatnonzero(parent >= 0)
    dead = np.zeros((n, n), dtype=bool)
    dead[child, parent[child]] = dead[parent[child], child] = True
    alive = np.ones(ngen, dtype=bool)
    test = np.arange(ngen)
    while len(kill := test[_any_common(dead, a[test], b[test])]):
        alive[kill] = False
        dead[a[kill], b[kill]] = dead[b[kill], a[kill]] = True
        ends = np.zeros(n, dtype=bool)
        ends[a[kill]] = ends[b[kill]] = True
        test = np.flatnonzero(alive & (ends[a] | ends[b]))

    ids = np.flatnonzero(alive)
    la, lb = a[ids], b[ids]
    gid = np.full((n, n), -1, dtype=np.int32)
    gid[la, lb] = ids
    live = gid >= 0
    live |= live.T
    off = skel.entourage.rel.copy()
    np.fill_diagonal(off, False)
    keys = [np.empty(0, dtype=np.intp)]
    for s in _blocks(len(ids), n):
        x, y = la[s], lb[s]
        e, c = np.nonzero(off[x] & off[y] & (live[x] | live[y]))
        t = np.sort(np.stack([x[e], y[e], c], axis=1), axis=1)
        keys.append((t[:, 0] * n + t[:, 1]) * n + t[:, 2])
    # np.unique would do, but it imports numpy.ma, which the CLI never loads
    keys = np.sort(np.concatenate(keys))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    i, jk = np.divmod(keys, n * n)
    j, k = np.divmod(jk, n)
    return alive, np.stack([gid[i, j], gid[j, k], gid[i, k]], axis=1)


class _H1Data:
    """Coordinates for H1 of a skeleton: class vectors and representatives.

    Each triangle i < j < k gives the relator row +g(ij) + g(jk) - g(ik) over
    the non-forest edges.  A row with one live generator kills it; peeling
    such rows in bulk until none is left is exactly the first phase of
    `eliminate_unit_pivots`, whose queue takes every one-entry row before any
    longer one, and whose one-entry pivots only delete entries.  So the rows
    that survive, in their original order, go through the same greedy with
    the same ties, and give the same substitutions, core and class basis as
    all rows would.  A killed generator is in no surviving row, so its
    coordinate never reaches a class vector.  The peel's result is a fixed
    point that `_residue` computes from the edges alone, so no triangle is
    listed.
    """

    def __init__(self, skel: RipsSkeleton):
        ngen = len(skel.generators)
        alive, rows = _residue(skel)
        subs, core = eliminate_unit_pivots(_Relators(rows, ngen))
        eliminated = {col for col, _, _ in subs}
        touched = sorted({c for r in core for c in r})
        untouched = [g for g in np.flatnonzero(alive).tolist() if g not in eliminated and g not in touched]

        mat = [[r.get(t, 0) for r in core] for t in touched]
        if touched:
            diag, left, left_inv = smith_normal_form(mat)
        else:
            diag, left, left_inv = [], [], []
        dfull = list(diag) + [0] * (len(touched) - len(diag))

        free_core = [i for i, d in enumerate(dfull) if d == 0]
        torsion_core = [i for i, d in enumerate(dfull) if d >= 2]

        self.subs = subs
        self.touched = touched
        self.untouched = untouched
        self.left = left
        self.left_inv = left_inv
        self.core_ids = free_core + torsion_core  # Smith rows of the free, then torsion, coordinates
        self.group = AbelianGroup(len(untouched) + len(free_core), tuple(dfull[i] for i in torsion_core))
        self._step_gen = skel.step_gen
        self._steps: dict[tuple[int, int], tuple[int, ...]] = {}

    def coords(self, gen_vector: dict[int, int]) -> list[int]:
        """Coordinates (free..., torsion...) of a generator vector before the
        torsion entries are reduced.  Linear in the vector, so the
        coordinates of a sum of steps are the sum of the steps' coordinates."""
        x = reduce_vector(gen_vector, self.subs)
        out = [x.get(g, 0) for g in self.untouched]
        if self.touched:
            xt = [x.get(t, 0) for t in self.touched]
            out.extend(sum(lv * xv for lv, xv in zip(self.left[i], xt)) for i in self.core_ids)
        return out

    def class_of(self, gen_vector: dict[int, int]) -> tuple[int, ...]:
        """Coordinates (free..., torsion...) of a cycle in generator form."""
        return self.group.reduce(self.coords(gen_vector))

    def step_coords(self, u: int, v: int) -> tuple[int, ...]:
        """`coords` of the one step u -> v (zero on forest edges and stays),
        computed once per step and kept."""
        got = self._steps.get((u, v))
        if got is None:
            gs = self._step_gen(u, v)
            got = self.zero() if gs is None else tuple(self.coords({gs[0]: gs[1]}))
            self._steps[u, v] = got
        return got

    def representative(self, coord: int) -> dict[int, int]:
        """A generator-vector cycle whose class is the coord-th basis element."""
        nu = len(self.untouched)
        if coord < nu:
            return {self.untouched[coord]: 1}
        i = self.core_ids[coord - nu]
        return {
            self.touched[t]: self.left_inv[t][i]
            for t in range(len(self.touched))
            if self.left_inv[t][i]
        }

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.group.dim


def h1(skel: RipsSkeleton) -> AbelianGroup:
    """First integral homology of the 2-skeleton (rank and invariant factors)."""
    return skel.h1_data().group


def _gen_vector(skel: RipsSkeleton, steps) -> dict[int, int]:
    """Signed generator counts of the steps u -> v; forest steps and stays count zero."""
    vec: dict[int, int] = {}
    for u, v in steps:
        gs = skel.step_gen(u, v)
        if gs is None:
            continue
        g, s = gs
        nv = vec.get(g, 0) + s
        if nv:
            vec[g] = nv
        else:
            vec.pop(g, None)
    return vec


def loop_gen_vector(skel: RipsSkeleton, seq) -> dict[int, int]:
    """Generator vector of a vertex walk whose every step is related at the skeleton's scale."""
    steps = list(zip(seq, seq[1:]))
    for u, v in steps:
        if not skel.entourage.related(u, v):
            raise ChainError(f"step ({u},{v}) not related at this scale")
    return _gen_vector(skel, steps)


def h1_class(skel: RipsSkeleton, seq) -> tuple[int, ...]:
    """Class coordinates of a closed vertex walk; all zeros iff nullhomologous."""
    seq = list(seq)
    if not seq:
        raise ChainError("empty walk")
    if seq[0] != seq[-1]:
        raise ChainError("walk is not closed")
    return skel.h1_data().class_of(loop_gen_vector(skel, seq))


@dataclass(frozen=True)
class Presentation:
    """Edge-path group presentation of one component of a skeleton."""

    basepoint: int
    generators: tuple[tuple[int, int], ...]
    relators: tuple[tuple[tuple[int, int], ...], ...]  # words of (generator, exponent)
    component_size: int

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "basepoint": self.basepoint,
            "generators": [list(g) for g in self.generators],
            "relators": [[[g, e] for g, e in word] for word in self.relators],
        }


def edge_path_presentation(skel: RipsSkeleton, basepoint: int) -> Presentation:
    """One generator per non-forest edge, one relator per triangle.

    Both are restricted to the basepoint's component and ordered
    lexicographically, so the presentation is reproducible.
    """
    if not (0 <= basepoint < skel.n):
        raise ValidationError(f"basepoint {basepoint} out of range")
    comp = skel.component[basepoint]
    gens = [e for e in skel.generators if skel.component[e[0]] == comp]
    local = {e: i for i, e in enumerate(gens)}
    relators = []
    for i, j, k in skel.triangles:
        if skel.component[i] != comp:
            continue
        word = []
        for u, v in ((i, j), (j, k), (k, i)):
            gs = skel.step_gen(u, v)
            if gs is None:
                continue
            g, s = gs
            word.append((local[skel.generators[g]], s))
        relators.append(tuple(word))
    size = sum(1 for c in skel.component if c == comp)
    return Presentation(basepoint, tuple(gens), tuple(relators), size)


@dataclass(frozen=True)
class H1Map:
    """Matrix of an inclusion-induced homology map in the two class bases."""

    domain: AbelianGroup
    codomain: AbelianGroup
    matrix: tuple[tuple[int, ...], ...]  # codomain.dim rows x domain.dim cols

    def apply(self, vec) -> tuple[int, ...]:
        if len(vec) != self.domain.dim:
            raise ValidationError("vector length mismatch")
        return self.codomain.reduce(sum(r * v for r, v in zip(row, vec)) for row in self.matrix)

    def compose(self, inner: "H1Map") -> "H1Map":
        """self o inner (apply inner first)."""
        if inner.codomain != self.domain:
            raise ValidationError("composition mismatch")
        cols = [self.apply(col) for col in zip(*inner.matrix)] if inner.domain.dim else []
        rows = tuple(tuple(c[r] for c in cols) for r in range(self.codomain.dim))
        return H1Map(inner.domain, self.codomain, rows)

    def image_lattice(self) -> IntLattice:
        """Image subgroup in codomain coordinates, torsion relations included."""
        vectors = [list(col) for col in zip(*self.matrix)] if self.domain.dim else []
        return IntLattice.from_vectors(self.codomain.dim, vectors + self.codomain.relations())


def inclusion_h1_map(fine: RipsSkeleton, coarse: RipsSkeleton) -> H1Map:
    """Homology map induced by reading fine-scale cycles at a coarser scale."""
    if fine.space != coarse.space:
        raise CarrierMismatch("skeletons live on different spaces")
    if not fine.entourage.issubset(coarse.entourage):
        raise ValidationError("fine entourage is not contained in the coarse one")
    fdata = fine.h1_data()
    cdata = coarse.h1_data()
    cols = []
    for coord in range(fdata.group.dim):
        cvec: dict[int, int] = {}
        for g, coef in fdata.representative(coord).items():
            for cg, s in loop_gen_vector(coarse, fine.fundamental_walk(g)).items():
                cvec[cg] = cvec.get(cg, 0) + coef * s
        cols.append(cdata.class_of(cvec))
    rows = tuple(tuple(col[r] for col in cols) for r in range(cdata.group.dim))
    return H1Map(fdata.group, cdata.group, rows)
