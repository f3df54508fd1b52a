"""Per-scale verification of covering behavior for maps of finite spaces.

Every predicate here is an exact finite check except the approximate
chain-lift uniqueness question, which can only be refuted or left
unrefuted at a budget.  Verdicts are always relative to the supplied
ladder and the reports say so.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

import numpy as np

from .chains import Chain, Trivalue, decide_homotopic, e_homotopic
from .errors import CarrierMismatch, ChainError, ValidationError
from .rips import build_skeleton
from .space import (
    DEFAULT_BUDGET,
    Entourage,
    FiniteSpace,
    ScaleLadder,
    SearchBudget,
    SpaceMap,
    ball,
    compose,
    image_under,
)


def evenly_covers(f: SpaceMap, e: Entourage) -> tuple[bool, dict | None]:
    """Does every ball upstairs map bijectively onto its image ball?  Exactly
    when lifts are unique at e (no ball holds two points with one image) and
    chains lift at (e, e) (every point of an image ball lifts into the ball)."""
    if e.n != f.source.n:
        raise CarrierMismatch("entourage does not live on the map's source")
    split = _first_split(f, e)
    if split is not None:
        x, y, yp = split
        return False, {"kind": "injectivity", "x": x, "lifts": [y, yp], "image": f(y)}
    miss = _unlifted_link(f, e, e)
    if miss is not None:
        return False, {"kind": "surjectivity", "x": miss[0], "missing": miss[2]}
    return True, None


def is_simplicial_cover(f: SpaceMap, e: Entourage) -> tuple[bool, dict | None]:
    """Even covering plus unique lifting of downstairs triangles.  A triangle
    at f(x) is f(x) and two related points u < v of its image ball, which
    ball(e, x) covers bijectively, so it lifts when their lifts are related."""
    ok, cx = evenly_covers(f, e)
    if not ok:
        return False, cx
    fe = image_under(f, e)
    for x in range(f.source.n):
        lift = {f(y): y for y in ball(e, x) if y != x}
        others = sorted(lift)
        for i, u in enumerate(others):
            for v in others[i + 1:]:
                if fe.related(u, v) and not e.related(lift[u], lift[v]):
                    tri = sorted((f(x), u, v))
                    return False, {"kind": "triangle_lift", "x": x, "triangle": tri, "lifts": [lift[u], lift[v]]}
    return True, None


def _unlifted_link(f: SpaceMap, e: Entourage, fine: Entourage) -> tuple[int, int, int] | None:
    """First (x, a, b) with a -> b a link of f(fine), f(x) = a and no
    e-neighbour of x over b, if any."""
    fibers: dict[int, list[int]] = {}
    for x, y in enumerate(f.assign):
        fibers.setdefault(y, []).append(x)
    for y, yp in image_under(f, fine).pairs():
        for a, b in ((y, yp), (yp, y)):
            for x in fibers.get(a, ()):
                if not any(e.related(x, xp) for xp in fibers.get(b, ())):
                    return x, a, b
    return None


def chain_lifting_at(f: SpaceMap, e: Entourage, fine: Entourage) -> tuple[bool, dict | None]:
    """Can every image-scale link be lifted to an e-link from any fiber point?"""
    if e.n != f.source.n or fine.n != f.source.n:
        raise CarrierMismatch("entourages must live on the map's source")
    miss = _unlifted_link(f, e, fine)
    if miss is None:
        return True, None
    return False, {"kind": "link", "x": miss[0], "link": list(miss[1:])}


def transverse(f: SpaceMap, e: Entourage) -> bool:
    """No related pair with equal images except equal points."""
    if e.n != f.source.n:
        raise CarrierMismatch("entourage does not live on the map's source")
    assign = np.asarray(f.assign)
    eq = assign[:, None] == assign[None, :]
    off = e.rel & eq
    np.fill_diagonal(off, False)
    return not bool(off.any())


def _product_steps(f: SpaceMap, step: Entourage):
    """Synchronized steps (x, x') -> (y, y') with f(y) = f(y') out of every
    state reachable from the diagonal, in BFS order.  A state's first step
    in is its BFS-tree edge.  The queue starts at the diagonal in point
    order, so the witnesses the reports carry follow point order."""
    assign = f.assign
    nbrs = [np.flatnonzero(row).tolist() for row in step.rel]
    queue = [(x, x) for x in range(f.source.n)]
    seen = set(queue)
    while queue:
        nxt = []
        for src in queue:
            for y in nbrs[src[0]]:
                for yp in nbrs[src[1]]:
                    if assign[y] == assign[yp]:
                        if (y, yp) not in seen:
                            seen.add((y, yp))
                            nxt.append((y, yp))
                        yield src, (y, yp)
        queue = nxt


def _first_split(f: SpaceMap, e: Entourage) -> tuple[int, int, int] | None:
    """The first step of the product walk at e that leaves the diagonal, as
    (x, y, y'): two e-neighbours of x with one image, if any."""
    for (x, _), (y, yp) in _product_steps(f, e):
        if y != yp:
            return x, y, yp
    return None


def uniqueness_of_lifts(f: SpaceMap, e: Entourage) -> tuple[bool, tuple[int, int] | None]:
    """Exact check that equal-image equal-origin chains must agree."""
    split = _first_split(f, e)
    return (True, None) if split is None else (False, split[1:])


def c3_check(f: SpaceMap, e: Entourage, fine: Entourage) -> tuple[bool, tuple[int, int] | None]:
    """Equal-image fine chains from one origin stay e-close (exact)."""
    for _, (y, yp) in _product_steps(f, fine):
        if not e.related(y, yp):
            return False, (y, yp)
    return True, None


# c2_check's fixed leash: each downstairs search of phase two stores at
# most C2_DOWN_STATES states (fewer if the state budget is smaller); the
# pairs phase two examines count against the state budget
C2_DOWN_STATES = 400


def _obstruction(h1, e_rows, a: int, b: int, diff) -> dict | None:
    """`chains.e_obstruction_at` on two chains from one origin that end at a
    and b and whose H1 coordinates at e (`_H1Data.coords`) differ by `diff`:
    endpoints when a and b are not e-related, else the class of the loop
    (first chain, step a -> b, second chain reversed), reduce(diff + step)."""
    if a != b:
        if not e_rows[a][b]:
            return {"kind": "endpoints", "pair": [a, b]}
        diff = map(add, diff, h1.step_coords(a, b))
    vector = h1.group.reduce(diff)
    return {"kind": "h1_class", "vector": list(vector)} if any(vector) else None


class _Fan:
    """The tight fine chains from one origin x with one or two links, in
    BFS order (neighbours ascending), with their images and their H1
    coordinates at e.  Tight means that no point is fine-related to the
    point two before it: (x, y) for each fine neighbour y, the constant
    chain (x, x) among them, and (x, y, z) for each z not fine-related to x.

    Every chain the rule drops is fine-homotopic to a kept one: (x) to
    (x, x), and (x, y, z) with z related to x to (x, z) by one delete, which
    is (x, x) when z is x.  Homotopic chains share their endpoint and their
    class at e, and their images are homotopic downstairs, so a dropped
    pair refutes exactly when its reduced pair does, and a reduced pair with
    identical images is phase one's.  The constant chain keeps its
    two-point form because the move calculus isolates one-point chains, so
    a downstairs search from (f(x),) could only run out of budget.

    A chain's coordinates are its prefix's plus its last step's, so every
    pair of chains from the origin is settled by integer arithmetic.
    """

    __slots__ = ("chains", "images", "vectors", "h1", "e_rows")

    def __init__(self, x: int, nbrs, fine_rows, assign, h1, e_rows):
        step = h1.step_coords
        ones = [(x, y) for y in nbrs[x]]
        twos = [(x, y, z) for y in nbrs[x] for z in nbrs[y] if not fine_rows[x][z]]
        self.chains = ones + twos
        self.images = [tuple(assign[v] for v in seq) for seq in self.chains]
        self.vectors = [step(x, y) for _, y in ones]
        self.vectors += [tuple(map(add, step(x, y), step(y, z))) for _, y, z in twos]
        self.h1 = h1
        self.e_rows = e_rows

    def obstruction(self, i: int, j: int) -> dict | None:
        """`chains.e_obstruction_at` on chains i and j at e."""
        diff = map(sub, self.vectors[i], self.vectors[j])
        return _obstruction(self.h1, self.e_rows, self.chains[i][-1], self.chains[j][-1], diff)


def c2_check(f: SpaceMap, e: Entourage, fine: Entourage, budget: SearchBudget = DEFAULT_BUDGET) -> dict:
    """Search for a pair of fine chains violating approximate lift uniqueness.

    A pair refutes when its chains are not homotopic at e while their images
    are homotopic at the image of the fine scale.  Upstairs No comes from
    the endpoint and H1 tests alone, read from H1 coordinates, so nothing is
    searched upstairs.  Phase one decides chains with identical images at
    every length by one walk of the product graph: extending two such chains
    from one origin by a step (x, x') -> (y, y') adds the class of the square
    x -> y -> y' -> x' -> x to their loop's, so some pair is refuted exactly
    when a reachable step ends at points that are not e-related or has a
    square of nonzero class.  Its refutation is the BFS-tree chains to the
    first such step's source, extended by the step.  Phase two pairs the
    tight chains of `_Fan` whose images differ, from every origin, counted
    in `examined` against `budget.states`, and searches downstairs only for
    pairs whose image ends are related and whose upstairs answer is No,
    once per pair, each search storing at most `C2_DOWN_STATES` states
    (`budget.states` if that is smaller).

    Returns {"status": "proved" | "refuted" | "unrefuted", ...}.  A genuine
    positive is only available in the decidable special case (injective
    map); otherwise the best honest answer is "no violation found at this
    budget".  Every other answer says in `phase1` that phase one found no
    refutation, and counts in `down_unknown` the pairs whose downstairs
    search ran out of budget: refutations this budget may have missed.  The
    fine scale must lie inside e, as on any ladder.
    """
    if e.n != f.source.n or fine.n != f.source.n:
        raise CarrierMismatch("entourages must live on the map's source")
    if not fine.issubset(e):
        raise ChainError("c2 needs the fine scale inside e")
    if f.is_injective():
        return {"status": "proved", "note": "injective map with nested scales"}
    ff = image_under(f, fine)
    ff_rows = ff.rel.tolist()
    # fine chains are valid at e, as fine lies inside e
    h1 = build_skeleton(e).h1_data()
    step = h1.step_coords
    e_rows = e.rel.tolist()
    per_pair = SearchBudget(states=min(C2_DOWN_STATES, budget.states))
    examined = 0
    down_unknown = 0
    phase1 = {}

    def answer(status: str, note: str) -> dict:
        return {"status": status, "examined": examined, "note": note, "down_unknown": down_unknown, **phase1}

    def refuted(a, b, obstruction: dict) -> dict:
        return {
            "status": "refuted",
            "witness": {"alpha": list(a), "beta": list(b), "obstruction": obstruction},
            "examined": examined,
            "down_unknown": down_unknown,
            **phase1,
        }

    # phase one: each state's BFS-tree parent and the coordinate difference
    # of its tree chains, whose class the walk has already found to be zero
    tree = {(x, x): (None, h1.zero()) for x in range(f.source.n)}
    for src, (y, yp) in _product_steps(f, fine):
        diff = tuple(map(sub, map(add, tree[src][1], step(src[0], y)), step(src[1], yp)))
        up = _obstruction(h1, e_rows, y, yp, diff)
        if up is not None:
            path = [src]
            while tree[path[-1]][0] is not None:
                path.append(tree[path[-1]][0])
            path = path[::-1]
            return refuted([s[0] for s in path] + [y], [s[1] for s in path] + [yp], up)
        tree.setdefault((y, yp), (src, diff))
    phase1 = {"phase1": "no identical-image refutation at any length"}
    # phase two: tight chains with homotopic (not identical) images
    nbrs = [np.flatnonzero(row).tolist() for row in fine.rel]
    fine_rows = fine.rel.tolist()
    for origin in range(f.source.n):
        fan = _Fan(origin, nbrs, fine_rows, f.assign, h1, e_rows)
        images = fan.images
        for i, img_a in enumerate(images):
            for j in range(i + 1, len(images)):
                img_b = images[j]
                if img_a == img_b:
                    continue  # phase one covered identical images
                if examined >= budget.states:
                    return answer("unrefuted", "budget exhausted")
                examined += 1
                if not ff_rows[img_a[-1]][img_b[-1]]:
                    continue  # image ends not related: e_homotopic would say No
                up = fan.obstruction(i, j)
                if up is None:
                    continue
                down = e_homotopic(Chain(f.target, ff, img_a), Chain(f.target, ff, img_b), ff, per_pair)
                down_unknown += down.is_unknown()
                if down.is_yes():
                    return refuted(fan.chains[i], fan.chains[j], up)
    return answer("unrefuted", "no violation found")


def uniform_cover_verdict(
    f: SpaceMap, ladder: ScaleLadder, budget: SearchBudget = DEFAULT_BUDGET
) -> dict:
    """Every per-scale and per-pair check and the ladder-level verdicts, as
    the cover report.

    "Uniform covering map at this ladder" asks that every scale has an
    image-structure witness, a fine-or-equal scale with chain lifting, and
    that some scale is transverse; the simplicial-cover verdict asks for a
    simplicial covering at the finest scale.  Everything is relative to the
    ladder that was supplied.
    """
    if ladder.n != f.source.n:
        raise CarrierMismatch("ladder does not live on the map's source")
    k = len(ladder)
    # fits[t][i]: the image of scale t squares into the image of scale i
    images = [image_under(f, e) for e in ladder]
    fits = [[sq.issubset(g) for g in images] for sq in (compose(h, h) for h in images)]
    squares = [compose(d, d) for d in ladder]

    def scale_entry(i: int) -> dict:
        e = ladder[i]
        ok_sc, cx_sc = is_simplicial_cover(f, e)
        # is_simplicial_cover runs evenly_covers first and returns its failure
        ok_ec = ok_sc or cx_sc["kind"] == "triangle_lift"
        cx_ec = None if ok_ec else cx_sc
        # evenly_covers checks uniqueness_of_lifts first and reports its
        # split as the injectivity failure, with the same two lifts
        split = not ok_ec and cx_ec["kind"] == "injectivity"
        gen = next((t for t in range(k) if fits[t][i]), None)
        return {
            "scale": ladder.describe(i),
            "transverse": transverse(f, e),
            "evenly_covers": ok_ec,
            "evenly_covers_counterexample": cx_ec,
            "simplicial_cover": ok_sc,
            "simplicial_cover_counterexample": cx_sc,
            "uniqueness_of_lifts": not split,
            "uniqueness_witness": cx_ec["lifts"] if split else None,
            "generates_witness": None if gen is None else ladder.describe(gen),
        }

    def pair_entry(i: int, j: int) -> dict:
        ok_cl, cx_cl = chain_lifting_at(f, ladder[i], ladder[j])
        ok_c3, wit_c3 = c3_check(f, ladder[i], ladder[j])
        return {
            "scale": ladder.describe(i),
            "fine": ladder.describe(j),
            "chain_lifting": ok_cl,
            "chain_lifting_counterexample": cx_cl,
            "c3": ok_c3,
            "c3_witness": list(wit_c3) if wit_c3 else None,
            "c2": c2_check(f, ladder[i], ladder[j], budget),
        }

    per_scale = [scale_entry(i) for i in range(k)]
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    per_pair = [pair_entry(i, j) for i, j in pairs]
    lifting = {ij: p["chain_lifting"] for ij, p in zip(pairs, per_pair)}

    generates_ok = all(s["generates_witness"] is not None for s in per_scale)
    lifting_ok = all(any(lifting[i, j] for j in range(i, k)) for i in range(k))
    transverse_some = any(s["transverse"] for s in per_scale)
    ucm = generates_ok and lifting_ok and transverse_some
    simplicial_base = per_scale[-1]["simplicial_cover"]
    checks = {
        "generates_structure": generates_ok,
        "chain_lifting": lifting_ok,
        "transverse": transverse_some,
        "simplicial_cover": simplicial_base,
    }
    failing = [name for name, ok in checks.items() if not ok]

    implications = {
        "simplicial_implies_evenly": all(
            (not s["simplicial_cover"]) or s["evenly_covers"] for s in per_scale
        ),
        # 2.9(b): D o D inside E and chains lifting at (D, F) give f(F) o f(F) inside f(E)
        "lifting_squares_give_structure": all(
            fits[t][i]
            for i, e in enumerate(ladder)
            for j in range(i, k)
            if squares[j].issubset(e)
            for t in range(j, k)
            if lifting[j, t]
        ),
        "uniqueness_iff_transverse_per_scale": all(
            (not s["uniqueness_of_lifts"]) or s["transverse"] for s in per_scale
        ),
    }
    verdicts = {
        "uniform_covering_map_at_ladder": ucm,
        "simplicial_cover_base_at_ladder": simplicial_base,
        "failing": failing,
        "note": "verdicts are relative to the supplied ladder",
    }
    return {"schema": 1, "kind": "cover_report", "ladder": ladder.to_json(), "per_scale": per_scale,
            "per_pair": per_pair, "verdicts": verdicts, "implications": implications}


def _paths_equal(space, entourage, s1, s2, budget) -> Trivalue:
    """Verdict-only comparison treating (x,) and (x, x) as the same path.

    Length-1 chains admit no moves, so the raw move calculus isolates them;
    for class identification we compare their two-point constant form.
    """
    a = s1 if len(s1) > 1 else (s1[0], s1[0])
    b = s2 if len(s2) > 1 else (s2[0], s2[0])
    return decide_homotopic(Chain(space, entourage, a), Chain(space, entourage, b), budget)


@dataclass
class CoverBall:
    """Bounded piece of the chain-class space over a basepoint.

    Vertices are homotopy classes of chains from the basepoint, stored as
    (endpoint, canonical witness); edges connect classes one step apart.
    Unproven identifications are never merged: Unknown comparisons keep
    vertices distinct and mark the ball approximate.
    """

    space: FiniteSpace
    entourage: Entourage
    basepoint: int
    radius: int
    vertices: list[tuple[int, tuple[int, ...]]]
    edges: list[tuple[int, int]]
    approximate: bool
    frontier: bool

    def fibers(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for cid, (endpoint, _) in enumerate(self.vertices):
            out.setdefault(endpoint, []).append(cid)
        return out

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "kind": "cover_ball",
            "basepoint": self.basepoint,
            "radius": self.radius,
            "vertices": [
                {"id": cid, "endpoint": ep, "witness": list(w)}
                for cid, (ep, w) in enumerate(self.vertices)
            ],
            "edges": [list(e) for e in self.edges],
            "fibers": {str(k): v for k, v in sorted(self.fibers().items())},
            "approximate": self.approximate,
            "frontier": self.frontier,
        }

    def to_dot(self) -> str:
        lines = ["graph cover_ball {"]
        for endpoint, cids in sorted(self.fibers().items()):
            # escape \ and then " (DOT's one escape in a quoted string), so
            # no label can end its quotes early or swallow the closing one
            label = self.space.labels[endpoint].replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  subgraph "cluster_{label}" {{')
            lines.append(f'    label="{label}";')
            for cid in cids:
                lines.append(f'    v{cid} [label="{label}#{cid}"];')
            lines.append("  }")
        for a, b in self.edges:
            lines.append(f"  v{a} -- v{b};")
        lines.append("}")
        return "\n".join(lines)


def build_cover_ball(
    space: FiniteSpace,
    entourage: Entourage,
    basepoint: int,
    radius: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> CoverBall:
    """Grow chain classes from the constant chain, one step per layer.

    New chains are identified with an existing class only on a proven Yes;
    growth stops at the radius and the frontier flag says whether deeper
    layers were cut off.
    """
    if not (0 <= basepoint < space.n):
        raise ValidationError("basepoint out of range")
    if radius < 0:
        raise ValidationError("radius must be nonnegative")
    vertices: list[tuple[int, tuple[int, ...]]] = [(basepoint, (basepoint,))]
    by_endpoint: dict[int, list[int]] = {basepoint: [0]}
    edges: set[tuple[int, int]] = set()
    approximate = False
    layer = [0]
    for _ in range(radius):
        nxt: list[int] = []
        for cid in layer:
            endpoint, witness = vertices[cid]
            for q in ball(entourage, endpoint):
                if q == endpoint:
                    continue
                cand = witness + (q,)
                target = None
                for cid2 in by_endpoint.get(q, []):
                    verdict = _paths_equal(space, entourage, cand, vertices[cid2][1], budget)
                    if verdict.is_yes():
                        target = cid2
                        break
                    if verdict.is_unknown():
                        approximate = True
                if target is None:
                    target = len(vertices)
                    vertices.append((q, cand))
                    by_endpoint.setdefault(q, []).append(target)
                    nxt.append(target)
                edges.add((min(cid, target), max(cid, target)))
        layer = nxt
        if not nxt:
            break
    if radius == 0:
        frontier = any(q != basepoint for q in ball(entourage, basepoint))
    else:
        frontier = bool(layer)
    return CoverBall(
        space, entourage, basepoint, radius, vertices, sorted(edges), approximate, frontier
    )
