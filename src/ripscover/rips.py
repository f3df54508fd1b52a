"""Rips 2-skeletons, edge-path presentations, and exact first homology.

Only vertices, edges and triangles are ever built; everything the package
asks about loops factors through them.  Homology is computed from the
triangle relators in the non-forest-edge basis.  A relator with one live
generator kills it, and one with two says they are equal up to sign; both
are closed to a fixed point on the n x n edge matrices (`_closure`), so
the triangles behind them are never listed.  Each class of generators is
named by its largest id.  Only the triangles with three live edges are
listed and read through the classes; the few rows left go through a sparse
unit-pivot phase feeding a small dense Smith form, so class vectors,
representatives and torsion are all exact.  The group is the one every
relator gives; the basis is the classes' survivors'.

A skeleton keeps its edges, generators and triangles as one read-only
integer array each, never as one Python object per simplex, and builds
the triangle array only when a caller reads it.  Output code converts at
the point of output, so no numpy scalar reaches a report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CarrierMismatch, ChainError, ValidationError
from .snf import IntLattice, eliminate_unit_pivots, reduce_vector, smith_normal_form
from .space import Entourage, FiniteSpace, bfs_forest, path_to_root


# Bytes one gathered block may hold.  Every (rows x n) temporary of this
# layer is cut into blocks of at most this size, so the layer's peak memory
# is what its skeletons keep plus a few such blocks, at any n.  Of 64 KB to
# 1 MB, 256 KB ran H1 and the triangle count fastest over the hawaiian(5, 24)
# and hawaiian(5, 96) ladders (2-core x86_64, numpy 2.4).
_BLOCK_BYTES = 1 << 18


def _blocks(count: int, row_bytes: int):
    """Slices of 0..count, each of as many rows of `row_bytes` as fit in
    _BLOCK_BYTES (at least one)."""
    step = max(1, _BLOCK_BYTES // max(row_bytes, 1))
    return (slice(s, s + step) for s in range(0, count, step))


def _pairs(rel: np.ndarray):
    """The related pairs (a, c) of a bool matrix in row-major order, as
    index arrays a, c per block of rows; each block's two index arrays fit
    in _BLOCK_BYTES."""
    for r in _blocks(len(rel), 2 * rel.shape[1] * np.intp(0).itemsize):
        a, c = np.nonzero(rel[r])
        yield a + r.start, c


def _masks(x: np.ndarray, y: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Per block of the pairs (a[t], b[t]), in order: the block's slice and
    the (block x n) mask x[a] & y[b] of two bool matrices."""
    for s in _blocks(len(a), x.shape[1]):
        m = x[a[s]]
        m &= y[b[s]]
        yield s, m


def _triangle_masks(rel: np.ndarray):
    """Per block of the edges a < b of a symmetric relation matrix (in
    lexicographic order): the arrays a, b and the (block x n) mask of the
    vertices k > b related to both, so each triangle a < b < k shows once."""
    up = np.triu(rel, k=1)
    for iu, ju in _pairs(up):
        for s, m in _masks(up, rel, ju, iu):
            yield iu[s], ju[s], m


class RipsSkeleton:
    """2-skeleton of the clique complex of an entourage, plus a BFS forest.

    Each kind of simplex is one read-only integer array, in lexicographic
    order: `edges` is the (E x 2) array of the related pairs a < b, and
    `generators` the (G x 2) array of the non-forest edges among them.
    `gen_id` is the symmetric n x n int32 matrix of the generators' ids, -1
    off the generators.  `triangles` is the (R x 3) array of the triangles
    i < j < k, built on first read and kept; H1 does not need it (see
    `_closure`), and `triangle_count` counts it without building it.
    """

    __slots__ = (
        "space", "entourage", "edges", "_triangles",
        "parent", "roots", "component",
        "gen_id", "generators", "_h1data", "_moves",
    )

    def __init__(self, space: FiniteSpace, entourage: Entourage):
        if space.n != entourage.n:
            raise CarrierMismatch("space and entourage sizes differ")
        n = space.n
        edges = np.stack(np.nonzero(np.triu(entourage.rel, k=1)), axis=1)

        parent, component = bfs_forest(entourage)
        roots = [v for v in range(n) if parent[v] < 0]

        up = np.asarray(parent, dtype=np.intp)
        iu, ju = edges.T
        generators = edges[(up[ju] != iu) & (up[iu] != ju)]
        ga, gb = generators.T
        gen_id = np.full((n, n), -1, dtype=np.int32)
        gen_id[ga, gb] = gen_id[gb, ga] = np.arange(len(ga), dtype=np.int32)
        edges.flags.writeable = generators.flags.writeable = False

        self.space = space
        self.entourage = entourage
        self.edges = edges
        self._triangles = None
        self.parent = parent
        self.roots = roots
        self.component = component
        self.gen_id = gen_id
        self.generators = generators
        self._h1data = None
        self._moves = None

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def triangles(self) -> np.ndarray:
        """The triangles i < j < k as one read-only (R x 3) array, in sorted
        order, built on first read and kept."""
        if self._triangles is None:
            # np.nonzero walks rows, then k, so the triangles come out sorted
            blocks = [np.empty((0, 3), dtype=np.intp)]
            for a, b, mask in _triangle_masks(self.entourage.rel):
                e, k = np.nonzero(mask)
                blocks.append(np.stack([a[e], b[e], k], axis=1))
            tri = np.concatenate(blocks)
            tri.flags.writeable = False
            self._triangles = tri
        return self._triangles

    @property
    def triangle_count(self) -> int:
        """len(triangles), counted without building it."""
        return sum(int(np.count_nonzero(mask)) for _, _, mask in _triangle_masks(self.entourage.rel))

    def step_gen(self, u: int, v: int) -> tuple[int, int] | None:
        """Generator index and sign of the step u -> v, or None on tree edges."""
        g = self.gen_id.item(u, v)
        if g < 0:
            return None
        return g, (1 if u < v else -1)

    def fundamental_walk(self, gen: int) -> list[int]:
        """The basis loop of one generator a-b as a closed vertex walk
        root -> a -> b -> root along the forest."""
        a, b = self.generators[gen].tolist()
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
            "edges": self.edges.tolist(),
            "triangles": self.triangles.tolist(),
            "forest_parent": list(self.parent),
            "roots": list(self.roots),
        }


def build_skeleton(space: FiniteSpace, entourage: Entourage) -> RipsSkeleton:
    """All off-diagonal related pairs and all 3-cliques, deterministically.

    The relation keeps its skeleton and hands it back, so a skeleton lives
    as long as its relation; asked with a different space, it is rebuilt.
    """
    skel = entourage._skeleton
    if skel is None or skel.space != space:
        skel = entourage._skeleton = RipsSkeleton(space, entourage)
    return skel


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


def _any_common(rel: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per pair (a[t], b[t]): is some vertex related to both in `rel`?  The
    pairs go in blocks whose gathered rows fit in _BLOCK_BYTES."""
    out = np.zeros(len(a), dtype=bool)
    for s, m in _masks(rel, rel, a, b):
        out[s] = m.any(axis=1)
    return out


def _max_over(rel: np.ndarray, lab: np.ndarray) -> np.ndarray:
    """out[a, b] = the largest lab[c, b] over the c with rel[a, c], -1 where
    there is none; no label is below -1.  The related pairs (a, c) go in
    blocks whose gathered rows lab[c] fill _BLOCK_BYTES, and a row a split
    between blocks takes the maximum of its parts."""
    out = np.full_like(lab, -1)
    for a, c in _pairs(rel):
        for s in _blocks(len(a), lab.shape[1] * lab.itemsize):
            first = np.flatnonzero(np.diff(a[s], prepend=-1))
            rows = a[s][first]
            out[rows] = np.maximum(out[rows], np.maximum.reduceat(lab[c[s]], first, axis=0))
    return out


def _propagate(lab: np.ndarray, live: np.ndarray, dead: np.ndarray, node: np.ndarray) -> np.ndarray:
    """Label propagation over the double cover until no label moves: every
    node ends with the largest node id of its component.

    The step a -> b is joined to c -> b, and b -> a to b -> c, when a-b and
    c-b are live and a-c is dead.  `node` gives the node of each step
    u -> v; only the vertices with a live edge take part.  Labels start
    from `lab`, which must already name a node of each node's component.
    """
    sub = np.ix_(*[np.flatnonzero(live.any(axis=1))] * 2)
    live, dead, node = live[sub], dead[sub], node[sub]
    at = node[live]
    while True:
        old = lab.copy()
        m = np.where(live, lab[node], -1)
        lab[at] = np.maximum(m, np.maximum(_max_over(dead, m), _max_over(dead, m.T).T))[live]
        while not np.array_equal(jump := lab[lab], lab):
            lab = jump
        if np.array_equal(lab, old):
            return lab


_SIGNS = np.array([1, 1, -1])  # the relator of i < j < k is +g(ij) + g(jk) - g(ik)


def _closure(skel: RipsSkeleton) -> tuple[np.ndarray, list[dict[int, int]]]:
    """Generators killed and identified up to sign by the triangle relators,
    and the relator rows that neither settles.

    An edge is dead when it is a forest edge or a killed generator.  A
    triangle's relator, read with its dead edges dropped, says:
    - with two dead edges, that the third generator is zero (a kill);
    - with one dead edge a-c, that step(a -> b) = step(c -> b) (an
      identification of two generators up to sign).
    Both are closed here on the n x n edge matrices, without listing those
    triangles.  Kills are the peel: a live generator a-b dies when some
    vertex c has a-c and b-c dead.  Identifications are the components of
    the double cover, with a node for +g and one for -g per live generator
    (`_propagate`).  Only the triangles with three live edges are listed,
    and read through the classes: one that leaves one unit letter kills
    its class.  (Three live letters read so leave three letters, one, or
    2X +- Y, never two unit letters.)  Each kill adds dead edges, so the
    rules run to a fixed point.  Every rule only adds, so while no class
    is twisted (below) the fixed point does not depend on the order the
    rules run in.

    A class is named by its largest generator id, its survivor.  A
    component holding both +g and -g says 2g = 0: torsion, which a signed
    class cannot hold.  Such a twisted component is not merged: its
    generators stay their own letters, and the triangles joining them with
    one dead edge are listed too.  What is left for the greedy is every
    listed triangle's row that is not zero read through the classes, in
    sorted triangle order, as {letter: coefficient}.

    Returns an array with one entry per generator, 0 if killed and
    otherwise sign * (survivor + 1) where generator = sign * survivor in H1,
    and the rows left.
    """
    n = skel.n
    ga, gb = skel.generators.T
    gid = skel.gen_id
    ngen = len(ga)
    if not ngen:
        return np.zeros(0, dtype=np.int64), []
    # the step u -> v is +g (node 2g) when u < v and -g (node 2g + 1) when u > v
    node = np.where(gid >= 0, 2 * gid + np.tri(n, k=-1, dtype=np.int32), -1)
    parent = np.asarray(skel.parent, dtype=np.intp)
    child = np.flatnonzero(parent >= 0)
    dead = np.zeros((n, n), dtype=bool)
    dead[child, parent[child]] = dead[parent[child], child] = True
    alive = np.ones(ngen, dtype=bool)
    lab = np.arange(2 * ngen, dtype=np.int32)

    def dies(test):
        return test[_any_common(dead, ga[test], gb[test])]

    def kill(seed):
        while len(seed):
            killed = []
            while len(seed):  # the peel
                killed.append(seed)
                alive[seed] = False
                dead[ga[seed], gb[seed]] = dead[gb[seed], ga[seed]] = True
                ends = np.zeros(n, dtype=bool)
                ends[ga[seed]] = ends[gb[seed]] = True
                seed = dies(np.flatnonzero(alive & (ends[ga] | ends[gb])))
            # a killed generator takes its component and the mirror one along
            seed = np.concatenate(killed)
            hit = np.zeros(2 * ngen, dtype=bool)
            hit[lab[2 * seed]] = hit[lab[2 * seed + 1]] = True
            seed = np.flatnonzero(alive & hit[lab[0::2]])

    seed = dies(np.arange(ngen))
    while True:
        kill(seed)
        live = np.zeros((n, n), dtype=bool)
        live[ga[alive], gb[alive]] = live[gb[alive], ga[alive]] = True
        lab = _propagate(lab, live, dead, node)
        plus = lab[0::2]
        twisted = plus == lab[1::2]
        letter = np.where(twisted, np.arange(ngen), plus >> 1)
        sign = np.where(twisted | (plus % 2 == 0), 1, -1)

        keys = [np.empty(0, dtype=np.intp)]
        for a, b, mask in _triangle_masks(live):
            e, k = np.nonzero(mask)
            keys.append((a[e] * n + b[e]) * n + k)
        if (tw := alive & twisted).any():
            # triangles a-b-c with a-c dead and a-b, b-c twisted, once each
            tm = np.zeros((n, n), dtype=bool)
            tm[ga[tw], gb[tw]] = tm[gb[tw], ga[tw]] = True
            up = np.triu(dead, k=1)
            for b, a in _pairs(tm):
                for s, m in _masks(up, tm, a, b):
                    e, c = np.nonzero(m)
                    t = np.sort(np.stack([a[s][e], b[s][e], c], axis=1), axis=1)
                    keys.append((t[:, 0] * n + t[:, 1]) * n + t[:, 2])
        keys = np.sort(np.concatenate(keys))
        i, jk = np.divmod(keys, n * n)
        j, k = np.divmod(jk, n)
        ids = np.stack([gid[i, j], gid[j, k], gid[i, k]], axis=1)
        on = (ids >= 0) & alive[ids]
        lt = np.where(on, letter[ids], -1)
        co = np.where(on, sign[ids] * _SIGNS, 0)
        for p, q in ((0, 1), (0, 2), (1, 2)):  # add up repeated letters
            same = lt[:, p] == lt[:, q]
            co[same, p] += co[same, q]
            co[same, q] = 0
            lt[same, q] = -1
        nz = co != 0
        count = nz.sum(axis=1)
        one = (count == 1) & (np.abs(co) <= 1).all(axis=1)
        if len(seed := lt[one][nz[one]]):
            continue
        keep = count > 0
        rows = [
            {g: c for g, c in zip(lr, cr) if c}
            for lr, cr in zip(lt[keep].tolist(), co[keep].tolist())
        ]
        return np.where(alive, sign * (letter + 1), 0), rows


class _H1Data:
    """Coordinates for H1 of a skeleton: class vectors and representatives.

    Each triangle i < j < k gives the relator row +g(ij) + g(jk) - g(ik)
    over the non-forest edges.  `_closure` settles most rows on the edge
    matrices: it kills generators, identifies the rest in classes up to
    sign, and hands back the rows it cannot settle, written in the classes'
    survivors.  Those go through `eliminate_unit_pivots` and a small dense
    Smith form.  A generator vector is read through the classes (`cls`:
    killed generators drop out, the others become +-their survivor) before
    it is reduced.  The coordinates are those of the survivors the greedy
    leaves untouched, then the Smith coordinates of the core.

    The group is exactly the one every relator gives.  The basis is the
    survivors', which need not be the one the greedy over every row picks;
    the two differ by an invertible integer change of coordinates.  Each
    class keeps its largest generator, which the greedy keeps too wherever
    its tie rule decides (of the unit columns held by the fewest rows, it
    eliminates the least); there the coordinates are the greedy's.
    """

    def __init__(self, skel: RipsSkeleton):
        cls, rows = _closure(skel)
        subs, core = eliminate_unit_pivots(rows)
        eliminated = {col for col, _, _ in subs}
        touched = sorted({c for r in core for c in r})
        hit = eliminated.union(touched)
        survivors = np.flatnonzero(cls == np.arange(1, len(cls) + 1)).tolist()
        untouched = [g for g in survivors if g not in hit]

        mat = [[r.get(t, 0) for r in core] for t in touched]
        if touched:
            diag, left, left_inv = smith_normal_form(mat)
        else:
            diag, left, left_inv = [], [], []
        dfull = list(diag) + [0] * (len(touched) - len(diag))

        free_core = [i for i, d in enumerate(dfull) if d == 0]
        torsion_core = [i for i, d in enumerate(dfull) if d >= 2]

        self.cls = cls
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
        cls = self.cls
        y: dict[int, int] = {}
        for g, c in gen_vector.items():
            s = cls.item(g)
            if s > 0:
                y[s - 1] = y.get(s - 1, 0) + c
            elif s < 0:
                y[-s - 1] = y.get(-s - 1, 0) - c
        x = reduce_vector(y, self.subs)
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
    component = np.asarray(skel.component)
    mine = component[skel.generators[:, 0]] == comp
    local = (np.cumsum(mine) - 1).tolist()  # a generator's index among the component's
    tri = skel.triangles[component[skel.triangles[:, 0]] == comp]
    i, j, k = tri.T
    gid = skel.gen_id
    signs = _SIGNS.tolist()
    relators = [
        tuple((local[g], s) for g, s in zip(row, signs) if g >= 0)
        for row in np.stack([gid[i, j], gid[j, k], gid[i, k]], axis=1).tolist()
    ]
    gens = map(tuple, skel.generators[mine].tolist())
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
