"""Independent oracles and samplers for the test suite.

The homology oracle goes through boundary matrices and sympy's exact
Smith machinery; the homotopy oracle is a plain single-source BFS over raw
(uncanonicalized) chains.  Neither shares code with the package's own
reduction paths.  `numpy_neighbors` keeps the original numpy enumeration of
the canonical move graph, as the reference order for the table-driven one.
`AllRowsH1` keeps the original H1 reduction, unit-pivot elimination over
every triangle relator row, as the reference for the closed one, and
`dict_unit_pivots` keeps the original dict-and-set form of that elimination
as the reference for the compact one.  `search_c2_check` keeps the c2
check that runs a full homotopy search for every upstairs question and for
every downstairs one, as the reference for the one that searches only where
its verdict can change.  `untightened_decide` keeps the homotopy search that
starts from the canonical ends without first tightening them, as the
reference for the one that does.  `ExploredWalker` and `explored_witness`
keep the witness search over (point, class vector) states, capped by a
class norm, with up to five class-matched candidate walks per pair, as the
reference for the witness walk the tower builds from lattice coordinates.
`hermite_contains` keeps the lattice membership test that reduced a vector
over the row basis and kept no quotients, as the reference for
`IntLattice.coordinates`.  `pairwise_c2_check` keeps the c2 check that
rebuilds each pair's loop and asks `e_obstruction_at` for its class, as the
reference for the one that reads per-chain H1 coordinates.  Both c2
references keep the phase one that enumerated identical-image pairs of up
to three links (`c2_phase_one_pairs`), as the reference for the product
walk that decides that phase at every length; a keyword skips it, so their
phase two can be compared with the package's.  Their phase two pairs the
tight chains `_chains_up_to` keeps (`tight=True`), as the package's does,
and `full=True` pairs every chain of up to two links instead, as the
reference for the rule that drops the chains a delete shortens.
`loop_image_under` keeps the per-target-point loop that pushed a relation
forward, as the reference for the one-product `image_under`.
`triangle_peel_rows` keeps the peel that ran in rounds over the whole
triangle array, and `listed_closure` the signed union-find that reads the
rows it leaves again and again, as the reference for the closure on the
edge matrices that lists only the triangles with three live edges.
`vertex_bfs_forest` keeps the forest search that read each vertex's
neighbours with its own `flatnonzero`, as the reference for the one that
reads them all from one `nonzero`.  `rp2_relation` is a relation whose H1
has torsion: the face relation of the 6-vertex RP^2's simplices.
"""

from __future__ import annotations

import random
import heapq
from collections import deque
from itertools import combinations
from fractions import Fraction
from functools import cached_property

import numpy as np
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

from ripscover.chains import (
    DEFAULT_BUDGET,
    Chain,
    Delete,
    HomotopyCertificate,
    Insert,
    Move,
    SearchBudget,
    Trivalue,
    _collapse_moves,
    _expand_moves,
    _h1_obstruction,
    _invert_edge,
    _move_objects,
    _neighbors,
    canonicalize,
    decide_homotopic,
    e_homotopic,
    e_obstruction_at,
    edge_seq,
    validate_chain,
)
from ripscover.errors import ChainError
from ripscover.rips import AbelianGroup, build_skeleton, h1_class, inclusion_h1_map
from ripscover.snf import eliminate_unit_pivots, reduce_vector, smith_normal_form
from ripscover.cover import C2_DOWN_LENGTH, C2_DOWN_STATES, C2_SHORT_LINKS
from ripscover.space import Entourage, FiniteSpace, ball, bfs_forest, image_under, path_to_root
from ripscover.tower import _mask_to_component


def homology_oracle(n: int, edges: list[tuple[int, int]], triangles: list[tuple[int, int, int]]):
    """(rank, torsion) of H1 from boundary matrices over the integers."""
    e_index = {e: i for i, e in enumerate(edges)}
    d1 = [[0] * len(edges) for _ in range(n)]
    for i, (a, b) in enumerate(edges):
        d1[a][i] = -1
        d1[b][i] = 1
    d2 = [[0] * len(triangles) for _ in range(len(edges))]
    for j, (a, b, c) in enumerate(triangles):
        d2[e_index[(a, b)]][j] = 1
        d2[e_index[(b, c)]][j] = 1
        d2[e_index[(a, c)]][j] = -1
    rank_d1 = _rank_rational(d1)
    rank_d2 = _rank_rational(d2)
    rank = len(edges) - rank_d1 - rank_d2
    if triangles and edges:
        dm = DomainMatrix([[ZZ(v) for v in row] for row in d2], (len(edges), len(triangles)), ZZ)
        torsion = tuple(int(f) for f in invariant_factors(dm) if int(f) not in (0, 1))
    else:
        torsion = ()
    return rank, torsion


def _rank_rational(mat) -> int:
    rows = [list(map(Fraction, r)) for r in mat]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    row = 0
    for col in range(cols):
        piv = None
        for r in range(row, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        pv = rows[row][col]
        for r in range(len(rows)):
            if r != row and rows[r][col]:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[row])]
        row += 1
        rank += 1
        if row == len(rows):
            break
    return rank


def dict_unit_pivots(rows: list[dict[int, int]]):
    """`snf.eliminate_unit_pivots` with every live row a dict, every
    column's rows a set and every queue entry versioned.

    rows is a list of {column: coefficient} dicts (consumed logically, not
    mutated).  Returns (subs, core) where subs is the ordered list of
    substitution steps (col, coef, row_snapshot) that eliminated one column
    each, and core is the list of surviving nonzero rows that had no unit
    entry left.  Replaying subs on any integer vector reduces it modulo the
    row space: for each step, x -= x[col] * coef * row_snapshot.
    """
    live: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for rid, row in enumerate(rows):
        row = {c: v for c, v in row.items() if v}
        if not row:
            continue
        live[rid] = row
        for c in row:
            col_rows.setdefault(c, set()).add(rid)

    version = dict.fromkeys(live, 0)
    heap: list[tuple[int, int, int]] = []
    for rid, row in live.items():
        heapq.heappush(heap, (len(row), rid, 0))

    subs: list[tuple[int, int, dict[int, int]]] = []

    def touch(rid):
        version[rid] += 1
        heapq.heappush(heap, (len(live[rid]), rid, version[rid]))

    while heap:
        _, rid, ver = heapq.heappop(heap)
        if rid not in live or version[rid] != ver:
            continue
        row = live[rid]
        units = [c for c, v in row.items() if v == 1 or v == -1]
        if not units:
            continue  # revisited if the row changes later
        col = min(units, key=lambda c: (len(col_rows[c]), c))
        coef = row[col]
        snapshot = dict(row)
        subs.append((col, coef, snapshot))
        # remove pivot row from the structures
        del live[rid]
        for c in row:
            col_rows[c].discard(rid)
        # eliminate col from every other row
        for rid2 in list(col_rows.get(col, ())):
            row2 = live[rid2]
            factor = row2[col] * coef
            for c, v in snapshot.items():
                nv = row2.get(c, 0) - factor * v
                if nv:
                    if c not in row2:
                        col_rows.setdefault(c, set()).add(rid2)
                    row2[c] = nv
                else:
                    if c in row2:
                        del row2[c]
                        col_rows[c].discard(rid2)
            if row2:
                touch(rid2)
            else:
                del live[rid2]
        col_rows.pop(col, None)

    core = [live[rid] for rid in sorted(live)]
    return subs, core


class AllRowsH1:
    """H1 coordinates of a skeleton from `eliminate_unit_pivots` run on one
    relator row per triangle, with no peeling: fields and `class_of` as in
    `rips._H1Data`."""

    def __init__(self, skel):
        rows = []
        for i, j, k in skel.triangles:
            row = {}
            for u, v in ((i, j), (j, k), (k, i)):
                gs = skel.step_gen(u, v)
                if gs is not None:
                    row[gs[0]] = gs[1]
            if row:
                rows.append(row)
        subs, core = eliminate_unit_pivots(rows)
        eliminated = {col for col, _, _ in subs}
        touched = sorted({c for r in core for c in r})
        self.ngen = len(skel.generators)
        self.subs = subs
        self.touched = touched
        self.untouched = [g for g in range(len(skel.generators)) if g not in eliminated and g not in touched]
        if touched:
            diag, self.left, self.left_inv = smith_normal_form([[r.get(t, 0) for r in core] for t in touched])
        else:
            diag, self.left, self.left_inv = [], [], []
        dfull = list(diag) + [0] * (len(touched) - len(diag))
        free = [i for i, d in enumerate(dfull) if d == 0]
        torsion = [i for i, d in enumerate(dfull) if d >= 2]
        self.core_ids = free + torsion
        self.group = AbelianGroup(len(self.untouched) + len(free), tuple(dfull[i] for i in torsion))

    def class_of(self, gen_vector: dict[int, int]) -> tuple[int, ...]:
        x = reduce_vector(gen_vector, self.subs)
        out = [x.get(g, 0) for g in self.untouched]
        xt = [x.get(t, 0) for t in self.touched]
        out.extend(sum(lv * xv for lv, xv in zip(self.left[i], xt)) for i in self.core_ids)
        return self.group.reduce(out)

    def generator_classes(self) -> list[tuple[int, ...]]:
        """`class_of({g: 1})` for every generator g, from one backward pass
        over the substitutions: a pivot column's class is minus coef times
        the classes of the rest of its row, whose columns are pivoted later
        or never."""
        dim = self.group.dim
        nu = len(self.untouched)
        cls = {g: [int(i == k) for i in range(dim)] for k, g in enumerate(self.untouched)}
        for t, g in enumerate(self.touched):
            cls[g] = [0] * nu + [self.left[i][t] for i in self.core_ids]
        for col, coef, row in reversed(self.subs):
            acc = [0] * dim
            for c, v in row.items():
                if c != col and c in cls:
                    acc = [a - coef * v * b for a, b in zip(acc, cls[c])]
            cls[col] = acc
        return [self.group.reduce(cls.get(g, [0] * dim)) for g in range(self.ngen)]

    def representative(self, coord: int) -> dict[int, int]:
        nu = len(self.untouched)
        if coord < nu:
            return {self.untouched[coord]: 1}
        i = self.core_ids[coord - nu]
        return {t: col[i] for t, col in zip(self.touched, self.left_inv) if col[i]}


def triangle_peel_rows(skel):
    """The peel as rounds over the whole triangle array: each round, every
    row with one live generator kills it, and rows with fewer than two live
    generators are dropped.  Returns the killed generators as a set and the
    rows left, in triangle order, as an (R x 3) int32 array of generator ids
    for the edges ij, jk, ik (-1 where the edge is dead)."""
    n = skel.n
    ngen = len(skel.generators)
    gid = np.full(n * n, -1, dtype=np.int32)
    ends = np.array(skel.generators, dtype=np.intp).reshape(-1, 2)
    gid[ends[:, 0] * n + ends[:, 1]] = np.arange(ngen, dtype=np.int32)
    i, j, k = skel.tri.T
    ids = np.stack([gid[i * n + j], gid[j * n + k], gid[i * n + k]])
    alive = np.ones(ngen + 1, dtype=bool)
    alive[-1] = False  # forest edges (id -1) are never live

    def live_count(ids):
        live = alive[ids]
        return live, live[0].view(np.uint8) + live[1].view(np.uint8) + live[2].view(np.uint8)

    live, count = live_count(ids)
    while (ones := count == 1).any():
        alive[ids[:, ones][live[:, ones]]] = False
        ids = ids[:, count > 1]
        live, count = live_count(ids)
    keep = count > 1
    killed = set(np.flatnonzero(~alive[:-1]).tolist())
    return killed, np.where(live[:, keep], ids[:, keep], -1).T


def listed_closure(skel):
    """`rips._closure` as a signed union-find over listed rows.

    The rows the peel leaves (`triangle_peel_rows`) are read through the
    classes again and again until a pass changes nothing: a row that leaves
    one unit letter kills that letter's class, and a row that leaves two
    unit letters in different classes joins them under the larger root.
    Returns (cls, rows) in `_closure`'s form.  A class is never twisted
    here, since joining two roots cannot put +g and -g together; a row that
    would twist one reads as 2X and is left.  So the two agree wherever
    `_closure` twists no class.
    """
    killed, peeled = triangle_peel_rows(skel)
    ngen = len(skel.generators)
    dead = [g in killed for g in range(ngen)]
    up = list(range(ngen))
    rel = [1] * ngen  # g = rel[g] * up[g]
    members = {g: [g] for g in range(ngen)}

    def find(g):
        path = []
        while up[g] != g:
            path.append(g)
            g = up[g]
        sign = 1
        for h in reversed(path):  # nearest the root first
            sign *= rel[h]
            up[h], rel[h] = g, sign
        return g

    def read(row):
        acc: dict[int, int] = {}
        for g, c in row:
            if not dead[g]:
                r = find(g)
                acc[r] = acc.get(r, 0) + rel[g] * c  # a root's rel stays 1
        return {r: c for r, c in acc.items() if c}

    rows = [[(g, c) for g, c in zip(r, (1, 1, -1)) if g >= 0] for r in peeled.tolist()]
    changed = True
    while changed:
        changed = False
        for row in rows:
            got = read(row)
            if not all(c in (1, -1) for c in got.values()):
                continue
            if len(got) == 1:
                for m in members.pop(next(iter(got))):
                    dead[m] = True
                changed = True
            elif len(got) == 2:
                (x, cx), (y, cy) = sorted(got.items())
                up[x], rel[x] = y, -cx * cy  # cx x + cy y = 0
                members[y] += members.pop(x)
                changed = True
    cls = [0 if dead[g] else (find(g) + 1) * rel[g] for g in range(ngen)]
    return cls, [got for got in map(read, rows) if got]


def vertex_bfs_forest(e: Entourage, first: int = 0) -> tuple[list[int], list[int]]:
    """`space.bfs_forest` with each vertex's neighbours read by its own
    `flatnonzero`."""
    n = e.n
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
            for w in np.flatnonzero(e.rel[v]).tolist():
                if component[w] < 0:
                    component[w] = comp
                    parent[w] = v
                    queue.append(w)
        comp += 1
    return parent, component


RP2_FACES = ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
             (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5))


def rp2_relation() -> Entourage:
    """The 31 simplices of the 6-vertex RP^2 (6 vertices, 15 edges, the 10
    faces of `RP2_FACES`), related when one is a face of the other.  Its
    clique complex is the barycentric subdivision, so H1 = Z/2."""
    simplices = [(v,) for v in range(6)]
    simplices += sorted({e for f in RP2_FACES for e in combinations(f, 2)}) + list(RP2_FACES)
    rel = np.array([[set(s) <= set(t) or set(t) <= set(s) for t in simplices] for s in simplices])
    return Entourage(rel)


def raw_move_bfs(ent: Entourage, start, goal, max_len: int, state_cap: int = 200_000):
    """Exhaustive BFS over raw chains (no canonicalization, no shortcuts).

    Returns True / False when the bounded move graph was fully explored,
    None when the state cap was hit first (oracle did not terminate).
    """
    start, goal = tuple(start), tuple(goal)
    if start == goal:
        return True
    rel = ent.rel
    seen = {start}
    queue = [start]
    while queue:
        nxt = []
        for seq in queue:
            if len(seen) > state_cap:
                return None
            L = len(seq)
            for i in range(1, L - 1):
                if rel[seq[i - 1], seq[i + 1]]:
                    new = seq[:i] + seq[i + 1:]
                    if new not in seen:
                        if new == goal:
                            return True
                        seen.add(new)
                        nxt.append(new)
            if L + 1 <= max_len:
                for i in range(1, L):
                    cand = np.nonzero(rel[seq[i - 1]] & rel[seq[i]])[0]
                    for v in cand:
                        new = seq[:i] + (int(v),) + seq[i:]
                        if new not in seen:
                            if new == goal:
                                return True
                            seen.add(new)
                            nxt.append(new)
        queue = nxt
    return False


def untightened_decide(c: Chain, d: Chain, budget: SearchBudget | None = None) -> Trivalue:
    """`decide_homotopic` without tightening: the bidirectional search runs
    between the two canonical ends as given.

    The only other change from that search as it stood before tightening is
    the stop: like `decide_homotopic`, it gives up once the two sides store
    `budget.states` states, so both are compared at an equal stored-state
    budget.
    """
    budget = budget or DEFAULT_BUDGET
    if c.space != d.space or c.entourage != d.entourage:
        raise ChainError("chains must share a space and scale")
    if c.start != d.start or c.end != d.end:
        raise ChainError("endpoint mismatch: rel-endpoint homotopy needs equal endpoints")
    ent = c.entourage
    if c.seq == d.seq:
        return Trivalue("yes", certificate=HomotopyCertificate(c.space, ent, c.seq, (), d.seq))

    skel = build_skeleton(c.space, ent)
    obstruction = _h1_obstruction(skel, c.seq, d.seq)
    if obstruction is not None:
        return Trivalue("no", obstruction=obstruction)

    cc = canonicalize(c.seq)
    dd = canonicalize(d.seq)
    max_len = max(budget.resolved_length(c.space.n), len(cc), len(dd))

    pre_moves, _ = _collapse_moves(c.seq)
    post_moves = _expand_moves(dd, d.seq)

    def finish(path_moves: list[Move]) -> Trivalue:
        cert = HomotopyCertificate(c.space, ent, c.seq, tuple(pre_moves + path_moves + post_moves), d.seq)
        if __debug__:
            cert.replay()
        return Trivalue("yes", certificate=cert)

    if cc == dd:
        return finish([])

    adj, common = skel.move_tables()
    fwd: dict[tuple[int, ...], tuple | None] = {cc: None}
    bwd: dict[tuple[int, ...], tuple | None] = {dd: None}
    fq = deque([cc])
    bq = deque([dd])
    expanded = 0
    truncated_any = False

    def build_path(meet: tuple[int, ...]) -> list[Move]:
        fpath: list[tuple[int, ...]] = []
        state = meet
        back = []
        while fwd[state] is not None:
            prev, moves = fwd[state]
            back.append(moves)
            state = prev
        for moves in reversed(back):
            fpath.extend(moves)
        state = meet
        while bwd[state] is not None:
            prev, moves = bwd[state]
            fpath.extend(_invert_edge(prev, moves))
            state = prev
        return _move_objects(fpath)

    while fq or bq:
        # expand the smaller live frontier; an exhausted side keeps serving
        # as a target set for the other one
        if fq and (not bq or len(fq) <= len(bq)):
            queue, seen, other = fq, fwd, bwd
        else:
            queue, seen, other = bq, bwd, fwd
        for _ in range(len(queue)):
            state = queue.popleft()
            expanded += 1
            neigh, trunc = _neighbors(state, adj, common, max_len)
            truncated_any = truncated_any or trunc
            for moves, new in neigh:
                if new in seen:
                    continue
                seen[new] = (state, moves)
                if new in other:
                    return finish(build_path(new))
                if len(fwd) + len(bwd) >= budget.states:
                    return Trivalue("unknown", stats={"reason": "state budget exhausted"})
                queue.append(new)
    return Trivalue("unknown", stats={
        "states_expanded": expanded,
        "max_length": max_len,
        "reason": "frontier exhausted below length bound" if not truncated_any
        else "frontier exhausted; growth truncated by length bound",
    })


def numpy_neighbors(seq: tuple[int, ...], ent: Entourage, max_len: int):
    """Canonical-state neighbors, one `np.nonzero` per link, as move objects.

    Deletes by position (collapsing a duplicate pair the deletion creates),
    then inserts by position and ascending vertex; returns (pairs, truncated).
    """
    rel = ent.rel
    out = []
    L = len(seq)
    for i in range(1, L - 1):
        if rel[seq[i - 1], seq[i + 1]]:
            moves = [Delete(i)]
            new = seq[:i] + seq[i + 1:]
            if 0 < i < len(new) and new[i - 1] == new[i]:
                j = i if 0 < i < len(new) - 1 else i - 1
                if 0 < j < len(new) - 1:
                    moves.append(Delete(j))
                    new = new[:j] + new[j + 1:]
            out.append((moves, new))
    if L + 1 > max_len:
        return out, True
    for i in range(1, L):
        a, b = seq[i - 1], seq[i]
        for v in np.nonzero(rel[a] & rel[b])[0]:
            v = int(v)
            if v != a and v != b:
                out.append(([Insert(i, v)], seq[:i] + (v,) + seq[i:]))
    return out, False


def hermite_contains(lat, vec) -> bool:
    """Is vec in the lattice?  Reduce it over the Hermite rows, pivot by pivot."""
    vec = [int(v) for v in vec]
    pivots = {next(j for j, v in enumerate(r) if v): r for r in lat.rows}
    for j in range(lat.m):
        if not vec[j]:
            continue
        row = pivots.get(j)
        if row is None or vec[j] % row[j]:
            return False
        q = vec[j] // row[j]
        vec = [a - q * b for a, b in zip(vec, row)]
    return True


def random_entourage(rng: random.Random, n: int, p: float) -> Entourage:
    rel = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rel[i, j] = rel[j, i] = True
    return Entourage(rel)


def space_for(ent: Entourage) -> FiniteSpace:
    """A metric space whose eps=1 scale is exactly the given relation."""
    n = ent.n
    dist = np.where(ent.rel, 0.5, 2.0)
    np.fill_diagonal(dist, 0.0)
    return FiniteSpace([f"v{i}" for i in range(n)], dist=dist)


def random_chain(rng: random.Random, ent: Entourage, length: int, start: int | None = None):
    """A random walk in the relation graph; None when stuck."""
    n = ent.n
    cur = rng.randrange(n) if start is None else start
    seq = [cur]
    for _ in range(length):
        nbrs = [int(v) for v in np.nonzero(ent.rel[cur])[0]]
        if not nbrs:
            return None
        cur = rng.choice(nbrs)
        seq.append(cur)
    return tuple(seq)


def random_nested_ladder(rng: random.Random, n: int, depth: int = 3):
    """Nested entourages whose finest scale is a random equivalence relation.

    The transitive bottom mirrors the scale-filter axiom (every scale admits
    one whose square it contains), which the per-scale uniqueness checks need.
    """
    blocks: list[list[int]] = []
    for v in range(n):
        if blocks and rng.random() < 0.5:
            rng.choice(blocks).append(v)
        else:
            blocks.append([v])
    rel = np.eye(n, dtype=bool)
    for blk in blocks:
        for a in blk:
            for b in blk:
                rel[a, b] = True
    scales = [Entourage(rel)]
    current = rel
    for _ in range(depth - 1):
        rel = current.copy()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    rel[i, j] = rel[j, i] = True
        scales.insert(0, Entourage(rel))
        current = rel
    return scales


def random_map(rng: random.Random, n_source: int):
    """A random point assignment onto a random smaller target."""
    m = rng.randint(1, n_source)
    assign = [rng.randrange(m) for _ in range(n_source)]
    # relabel image points consecutively for a tidy target
    used = sorted(set(assign))
    remap = {v: i for i, v in enumerate(used)}
    assign = [remap[v] for v in assign]
    src = space_for(random_entourage(rng, n_source, 0.5))
    tgt_n = len(used)
    tgt = FiniteSpace([f"w{i}" for i in range(tgt_n)], dist=np.where(np.eye(tgt_n, dtype=bool), 0.0, 1.0))
    from ripscover.space import SpaceMap

    return SpaceMap(src, tgt, assign)


def _chains_up_to(origin: int, e: Entourage, max_links: int, tight: bool = False):
    """Chains from the origin with up to `max_links` links, in BFS order;
    with `tight`, only those of at least one link in which no point is
    related to the one two before it."""
    out = [] if tight else [(origin,)]
    frontier = [(origin,)]
    for _ in range(max_links):
        frontier = [seq + (v,) for seq in frontier for v in ball(e, seq[-1])
                    if not (tight and len(seq) > 1 and e.related(seq[-2], v))]
        out.extend(frontier)
    return out


# identical-image chains the reference c2 checks enumerate, up to this many links
PHASE_ONE_LINKS = 3


def search_c2_check(f, e: Entourage, fine: Entourage, budget: SearchBudget | None = None,
                    phase_one: bool = True, full: bool = False) -> dict:
    """The c2 check with a search for every pair: phase one asks e_homotopic
    upstairs for each identical-image pair of up to PHASE_ONE_LINKS links
    (skipped when `phase_one` is false), phase two asks it downstairs for
    each pair of tight chains of up to 2 links (every chain when `full`) and
    upstairs after every downstairs yes.  Both phases together examine at
    most `budget.states` pairs."""
    budget = budget or DEFAULT_BUDGET
    if fine.issubset(e) and f.is_injective():
        return {"status": "proved", "note": "injective map with nested scales"}
    ff = image_under(f, fine)
    pair_cap = budget.states
    per_pair = SearchBudget(states=min(400, budget.states), max_length=12)
    examined = 0
    for origin in range(f.source.n) if phase_one else ():
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for seq in _chains_up_to(origin, fine, PHASE_ONE_LINKS):
            groups.setdefault(tuple(f(v) for v in seq), []).append(seq)
        for img, members in sorted(groups.items()):
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    a, b = members[i], members[j]
                    examined += 1
                    if examined > pair_cap:
                        return {"status": "unrefuted", "examined": examined - 1,
                                "note": "budget exhausted"}
                    up = e_homotopic(
                        Chain(f.source, fine, a), Chain(f.source, fine, b), e, per_pair
                    )
                    if up.is_no():
                        return {
                            "status": "refuted",
                            "witness": {"alpha": list(a), "beta": list(b),
                                        "obstruction": up.obstruction},
                            "examined": examined,
                        }
    for origin in range(f.source.n):
        short = _chains_up_to(origin, fine, 2, tight=not full)
        for i in range(len(short)):
            for j in range(i + 1, len(short)):
                a, b = short[i], short[j]
                img_a = tuple(f(v) for v in a)
                img_b = tuple(f(v) for v in b)
                if img_a == img_b:
                    continue
                examined += 1
                if examined > pair_cap:
                    return {"status": "unrefuted", "examined": examined - 1,
                            "note": "budget exhausted"}
                down = e_homotopic(
                    Chain(f.target, ff, img_a), Chain(f.target, ff, img_b), ff, per_pair
                )
                if not down.is_yes():
                    continue
                up = e_homotopic(Chain(f.source, fine, a), Chain(f.source, fine, b), e, per_pair)
                if up.is_no():
                    return {
                        "status": "refuted",
                        "witness": {"alpha": list(a), "beta": list(b),
                                    "obstruction": up.obstruction},
                        "examined": examined,
                    }
    return {"status": "unrefuted", "examined": examined, "note": "no violation found"}


def c2_phase_one_pairs(f, fine: Entourage, origin: int, links: int = PHASE_ONE_LINKS):
    """The reference phase one's pairs of fine chains from one origin:
    identical images, up to `links` links, groups sorted by image, members
    in BFS order."""
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for seq in _chains_up_to(origin, fine, links):
        groups.setdefault(tuple(f(v) for v in seq), []).append(seq)
    for _, members in sorted(groups.items()):
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                yield members[i], members[j]


def pairwise_c2_check(f, e: Entourage, fine: Entourage, budget: SearchBudget | None = None,
                      phase_one: bool = True, full: bool = False) -> dict:
    """The c2 check that asks `e_obstruction_at` about every pair, building
    and reading each pair's loop on its own; its phase one enumerates
    identical-image pairs of up to PHASE_ONE_LINKS links and is skipped when
    `phase_one` is false, and its phase two pairs the tight chains of up to
    C2_SHORT_LINKS links, or every chain when `full`.  Both phases together
    examine at most `budget.states` pairs, and each downstairs answer is
    searched for afresh."""
    budget = budget or DEFAULT_BUDGET
    if not fine.issubset(e):
        raise ChainError("c2 needs the fine scale inside e")
    if f.is_injective():
        return {"status": "proved", "note": "injective map with nested scales"}
    ff = image_under(f, fine)
    skel = build_skeleton(f.source, e)
    pair_cap = budget.states
    per_pair = SearchBudget(states=min(C2_DOWN_STATES, budget.states), max_length=C2_DOWN_LENGTH)
    examined = 0
    down_unknown = 0

    def answer(status: str, note: str) -> dict:
        return {"status": status, "examined": examined, "note": note, "down_unknown": down_unknown}

    def refuted(a, b, obstruction: dict) -> dict:
        return {
            "status": "refuted",
            "witness": {"alpha": list(a), "beta": list(b), "obstruction": obstruction},
            "examined": examined,
            "down_unknown": down_unknown,
        }

    for origin in range(f.source.n) if phase_one else ():
        for a, b in c2_phase_one_pairs(f, fine, origin):
            if examined >= pair_cap:
                return answer("unrefuted", "budget exhausted")
            examined += 1
            up = e_obstruction_at(skel, a, b)
            if up is not None:
                return refuted(a, b, up)
    for origin in range(f.source.n):
        short = _chains_up_to(origin, fine, C2_SHORT_LINKS, tight=not full)
        images = [tuple(f(v) for v in seq) for seq in short]
        for i in range(len(short)):
            for j in range(i + 1, len(short)):
                img_a, img_b = images[i], images[j]
                if img_a == img_b:
                    continue
                a, b = short[i], short[j]
                if examined >= pair_cap:
                    return answer("unrefuted", "budget exhausted")
                examined += 1
                up = e_obstruction_at(skel, a, b)
                if up is None:
                    continue
                down = e_homotopic(
                    Chain(f.target, ff, img_a), Chain(f.target, ff, img_b), ff, per_pair
                )
                down_unknown += down.is_unknown()
                if down.is_yes():
                    return refuted(a, b, up)
    return answer("unrefuted", "no violation found")


def loop_image_under(f, e: Entourage) -> Entourage:
    """`image_under` by one pass over the target points and their preimages."""
    m = f.target.n
    rel = np.zeros((m, m), dtype=bool)
    assign = np.asarray(f.assign)
    for a in range(m):
        pre_a = np.nonzero(assign == a)[0]
        if pre_a.size == 0:
            continue
        hit = e.rel[pre_a].any(axis=0)
        rel[a, np.unique(assign[np.nonzero(hit)[0]])] = True
    rel |= rel.T
    return Entourage(rel, meta={"image_points": sorted(set(f.assign))})


EXPLORED_CANDIDATES = 5  # class-matched walks tried per pair before answering unknown


class ExploredWalker:
    """Breadth-first walk from one root over (point, class-vector) states of a
    step graph, tracking each partial walk's cycle class read at a coarser
    target scale.  A class coordinate past `class_norm` is not followed."""

    def __init__(self, space, walk_rel: Entourage, target: Entourage, root: int,
                 budget: SearchBudget, class_norm: int = 8):
        self.space = space
        self.walk_rel = walk_rel
        self.target = target
        self.root = root
        self.skel = build_skeleton(space, target)
        self.data = self.skel.h1_data()
        self.group = self.data.group
        self.budget = budget
        self.class_norm = class_norm
        self._steps: dict[tuple[int, int], tuple[int, ...]] = {}

    def step_class(self, u: int, v: int) -> tuple[int, ...]:
        got = self._steps.get((u, v))
        if got is None:
            gs = self.skel.step_gen(u, v)
            got = self.data.zero() if gs is None else self.data.class_of({gs[0]: gs[1]})
            self._steps[(u, v)] = got
        return got

    def add(self, z1, z2):
        return self.group.reduce(a + b for a, b in zip(z1, z2))

    @cached_property
    def forest(self):
        return bfs_forest(self.walk_rel, first=self.root)

    @cached_property
    def lattice(self):
        masked, _, _ = _mask_to_component(self.walk_rel, self.root, bfs_forest(self.walk_rel)[1])
        return inclusion_h1_map(build_skeleton(self.space, masked), self.skel).image_lattice()

    @cached_property
    def explored(self):
        """Reachable (point, class) states with parents, and whether the
        state budget or the class norm cut the walk short."""
        start = (self.root, self.data.zero())
        parents = {start: None}
        queue = [start]
        expanded = 0
        truncated = False
        rank = self.group.rank
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
                    if any(abs(v) > self.class_norm for v in nz[:rank]):
                        truncated = True
                        continue
                    ns = (q, nz)
                    if ns not in parents:
                        parents[ns] = (state, q)
                        nxt.append(ns)
            queue = nxt
        return parents, truncated

    @cached_property
    def reach(self):
        """Classes of the explored walks ending at each point, smallest first."""
        reach = {}
        for (p, z) in self.explored[0]:
            reach.setdefault(p, []).append(z)
        for v in reach.values():
            v.sort(key=lambda z: (sum(map(abs, z)), z))
        return reach

    def walk_of(self, state) -> tuple[int, ...]:
        parents = self.explored[0]
        seq = [state[0]]
        while parents[state] is not None:
            state, _ = parents[state]
            seq.append(state[0])
        return tuple(reversed(seq))


def explored_witness(walker: ExploredWalker, x: int, y: int, starts):
    """The witness search the built walk replaced: component test, coset
    test, then for each start class z at x the explored walks ending at
    (x, z) and (y, z + edge class), joined and decided, at most
    `EXPLORED_CANDIDATES` of them.  Returns (verdict, walks or None)."""
    parent, component = walker.forest
    if not component[x] == component[y] == component[walker.root]:
        return Trivalue("no", obstruction={"kind": "unreachable_at_fine"}), None
    loop = (*path_to_root(parent, x), *path_to_root(parent, y)[::-1][1:], x)
    if not walker.lattice.contains(list(h1_class(walker.skel, loop))):
        return Trivalue("no", obstruction={"kind": "h1_coset"}), None
    parents, truncated = walker.explored
    goal = walker.step_class(x, y)
    edge = Chain(walker.space, walker.target, edge_seq(x, y))
    tried = 0
    for z in starts:
        want = (y, walker.add(goal, z))
        if want not in parents:
            continue
        walk_x, walk_y = walker.walk_of((x, z)), walker.walk_of(want)
        chain = validate_chain(walker.space, walker.target, tuple(reversed(walk_x)) + walk_y[1:])
        res = decide_homotopic(chain, edge, walker.budget)
        tried += 1
        if res.is_yes():
            return res, (walk_x, walk_y)
        if tried >= EXPLORED_CANDIDATES:
            break
    if truncated or tried:
        return Trivalue("unknown", stats={"candidates_tried": tried, "norm_truncated": truncated}), None
    return Trivalue("no", obstruction={"kind": "h1_reachability"}), None
