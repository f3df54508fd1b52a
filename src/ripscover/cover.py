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

from .chains import (
    DEFAULT_BUDGET,
    Chain,
    SearchBudget,
    Trivalue,
    canonicalize,
    decide_homotopic,
    e_homotopic,
)
from .errors import CarrierMismatch, ChainError, ValidationError
from .rips import build_skeleton
from .space import (
    Entourage,
    FiniteSpace,
    ScaleLadder,
    SpaceMap,
    ball,
    component_labels,
    compose,
    image_under,
)


def generates_at(f: SpaceMap, e: Entourage, candidates) -> tuple[int, Entourage] | None:
    """First candidate scale F with f(F) o f(F) inside f(E), if any."""
    if e.n != f.source.n:
        raise CarrierMismatch("entourage does not live on the map's source")
    return _generates_at(image_under(f, e), candidates, (image_under(f, c) for c in candidates))


def _generates_at(fe: Entourage, candidates, images) -> tuple[int, Entourage] | None:
    """`generates_at` with e pushed forward as `fe` and the candidates'
    images, in order, as `images`."""
    for idx, (cand, ff) in enumerate(zip(candidates, images)):
        if compose(ff, ff).issubset(fe):
            return idx, cand
    return None


def evenly_covers(f: SpaceMap, e: Entourage) -> tuple[bool, dict | None]:
    """Does every ball upstairs map bijectively onto its image ball?"""
    if e.n != f.source.n:
        raise CarrierMismatch("entourage does not live on the map's source")
    return _evenly_covers(f, e, image_under(f, e))


def _evenly_covers(f: SpaceMap, e: Entourage, fe: Entourage) -> tuple[bool, dict | None]:
    """`evenly_covers` with e pushed forward as `fe`."""
    for x in range(f.source.n):
        bx = ball(e, x)
        images = [f(y) for y in bx]
        seen: dict[int, int] = {}
        for y, fy in zip(bx, images):
            if fy in seen:
                return False, {"kind": "injectivity", "x": x, "lifts": [seen[fy], y], "image": fy}
            seen[fy] = y
        missing = [q for q in ball(fe, f(x)) if q not in seen]
        if missing:
            return False, {"kind": "surjectivity", "x": x, "missing": missing[0]}
    return True, None


def is_simplicial_cover(f: SpaceMap, e: Entourage) -> tuple[bool, dict | None]:
    """Even covering plus unique lifting of downstairs triangles."""
    return _simplicial_cover(f, e, image_under(f, e))


def _simplicial_cover(f: SpaceMap, e: Entourage, fe: Entourage) -> tuple[bool, dict | None]:
    """`is_simplicial_cover` with e pushed forward as `fe`."""
    ok, cx = _evenly_covers(f, e, fe)
    if not ok:
        return False, cx
    down = build_skeleton(f.target, fe)
    tris_at: dict[int, list[list[int]]] = {}
    for tri in down.tri.tolist():
        for v in tri:
            tris_at.setdefault(v, []).append(tri)
    for x in range(f.source.n):
        fx = f(x)
        if fx not in tris_at:
            continue
        bx = ball(e, x)
        lift = {f(y): y for y in bx}
        for tri in tris_at[fx]:
            u, v = [p for p in tri if p != fx]
            y, z = lift[u], lift[v]
            if not e.related(y, z):
                return False, {
                    "kind": "triangle_lift", "x": x, "triangle": tri, "lifts": [y, z],
                }
    return True, None


def chain_lifting_at(
    f: SpaceMap, e: Entourage, fine: Entourage, basepoint: int | None = None
) -> tuple[bool, dict | None]:
    """Can every image-scale link be lifted to an e-link from any fiber point?

    The default quantifies over all starting points (the stronger reading the
    ladder-level verdicts use).  Passing a basepoint restricts the check to
    chains lifted from that point's fiber positions reachable at scale e.
    """
    if e.n != f.source.n or fine.n != f.source.n:
        raise CarrierMismatch("entourages must live on the map's source")
    return _chain_lifting(f, e, image_under(f, fine), basepoint)


def _chain_lifting(
    f: SpaceMap, e: Entourage, ff: Entourage, basepoint: int | None = None
) -> tuple[bool, dict | None]:
    """`chain_lifting_at` with the fine scale pushed forward as `ff`."""
    fibers: dict[int, list[int]] = {}
    for x, y in enumerate(f.assign):
        fibers.setdefault(y, []).append(x)
    allowed = None
    if basepoint is not None:
        labels = component_labels(e)
        allowed = {x for x in range(f.source.n) if labels[x] == labels[basepoint]}
    for y, yp in ff.pairs():
        for a, b in ((y, yp), (yp, y)):
            for x in fibers.get(a, ()):
                if allowed is not None and x not in allowed:
                    continue
                if not any(e.related(x, xp) for xp in fibers.get(b, ())):
                    return False, {"kind": "link", "x": x, "link": [a, b]}
    return True, None


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
    in is its BFS-tree edge.  The queue starts in the diagonal set's
    iteration order, which fixes the witnesses the reports carry."""
    assign = f.assign
    nbrs = [np.flatnonzero(row).tolist() for row in step.rel]
    seen = {(x, x) for x in range(f.source.n)}
    queue = list(seen)
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


def uniqueness_of_lifts(f: SpaceMap, e: Entourage) -> tuple[bool, tuple[int, int] | None]:
    """Exact check that equal-image equal-origin chains must agree."""
    for _, (y, yp) in _product_steps(f, e):
        if y != yp:
            return False, (y, yp)
    return True, None


def c3_check(f: SpaceMap, e: Entourage, fine: Entourage) -> tuple[bool, tuple[int, int] | None]:
    """Equal-image fine chains from one origin stay e-close (exact)."""
    for _, (y, yp) in _product_steps(f, fine):
        if not e.related(y, yp):
            return False, (y, yp)
    return True, None


# c2_check's fixed limits: phase two pairs tight chains of up to
# C2_SHORT_LINKS links, and each downstairs search gets a leash of
# C2_DOWN_STATES states (fewer if the state budget is smaller) at chain length
# C2_DOWN_LENGTH; the pairs phase two examines count against the state budget
C2_SHORT_LINKS = 2
C2_DOWN_STATES = 400
C2_DOWN_LENGTH = 12


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
    """The tight fine chains from one origin x with 1 to C2_SHORT_LINKS
    links, in BFS order (neighbours ascending), with their images and their
    H1 coordinates at e.  Tight means that no point is fine-related to the
    point two before it.  At two links that is (x, y) for each fine
    neighbour y, the constant chain (x, x) among them, and (x, y, z) for
    each z not fine-related to x.

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

    def __init__(self, origin: int, nbrs, fine_rows, assign, h1, e_rows):
        chains = [(origin, y) for y in nbrs[origin]]
        vectors = [h1.step_coords(origin, y) for y in nbrs[origin]]
        frontier = range(len(chains))
        for _ in range(C2_SHORT_LINKS - 1):
            done = len(chains)
            for k in frontier:
                seq, vec = chains[k], vectors[k]
                u, back = seq[-1], fine_rows[seq[-2]]
                for v in nbrs[u]:
                    if not back[v]:
                        chains.append(seq + (v,))
                        vectors.append(tuple(map(add, vec, h1.step_coords(u, v))))
            frontier = range(done, len(chains))
        self.chains = chains
        self.images = [tuple(assign[v] for v in seq) for seq in chains]
        self.vectors = vectors
        self.h1 = h1
        self.e_rows = e_rows

    def obstruction(self, i: int, j: int) -> dict | None:
        """`chains.e_obstruction_at` on chains i and j at e."""
        diff = map(sub, self.vectors[i], self.vectors[j])
        return _obstruction(self.h1, self.e_rows, self.chains[i][-1], self.chains[j][-1], diff)


def c2_check(
    f: SpaceMap, e: Entourage, fine: Entourage, budget: SearchBudget | None = None,
    *, ff: Entourage | None = None,
) -> dict:
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
    once per pair of images.

    Returns {"status": "proved" | "refuted" | "unrefuted", ...}.  A genuine
    positive is only available in the decidable special case (injective
    map); otherwise the best honest answer is "no violation found at this
    budget".  Every other answer says in `phase1` that phase one found no
    refutation, and counts in `down_unknown` the pairs whose downstairs
    search ran out of budget: refutations this budget may have missed.  The
    fine scale must lie inside e, as on any ladder.

    `ff` must be `image_under(f, fine)`; only `uniform_cover_verdict`, which
    has pushed every scale forward, passes it.  That caller calls c2_check
    itself, not a private helper, because `perfbench/tracer.py` wraps public
    functions only and reads the c2 time and pair count off this name.
    """
    budget = budget or DEFAULT_BUDGET
    if e.n != f.source.n or fine.n != f.source.n:
        raise CarrierMismatch("entourages must live on the map's source")
    if not fine.issubset(e):
        raise ChainError("c2 needs the fine scale inside e")
    if f.is_injective():
        return {"status": "proved", "note": "injective map with nested scales"}
    if ff is None:
        ff = image_under(f, fine)
    ff_rows = ff.rel.tolist()
    # fine chains are valid at e, as fine lies inside e
    h1 = build_skeleton(f.source, e).h1_data()
    step = h1.step_coords
    e_rows = e.rel.tolist()
    per_pair = SearchBudget(states=min(C2_DOWN_STATES, budget.states), max_length=C2_DOWN_LENGTH)
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
            path.reverse()
            return refuted([s[0] for s in path] + [y], [s[1] for s in path] + [yp], up)
        tree.setdefault((y, yp), (src, diff))
    phase1 = {"phase1": "no identical-image refutation at any length"}
    # phase two: tight chains with homotopic (not identical) images; the k
    # sheets of a cover ask about the same image pairs (172 of the 307
    # downstairs questions over the benchmark's five cover maps repeat one),
    # so each downstairs answer is kept, and a kept Unknown counts once for
    # every pair that asks it, as a fresh search would
    nbrs = [np.flatnonzero(row).tolist() for row in fine.rel]
    fine_rows = fine.rel.tolist()
    down_answers: dict[tuple, Trivalue] = {}
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
                down = down_answers.get((img_a, img_b))
                if down is None:
                    down = down_answers[img_a, img_b] = e_homotopic(
                        Chain(f.target, ff, img_a), Chain(f.target, ff, img_b), ff, per_pair
                    )
                down_unknown += down.is_unknown()
                if down.is_yes():
                    return refuted(fan.chains[i], fan.chains[j], up)
    return answer("unrefuted", "no violation found")


@dataclass
class CoverReport:
    """All per-scale and per-pair covering diagnostics for one map."""

    ladder_descr: list
    per_scale: list[dict]
    per_pair: list[dict]
    verdicts: dict
    implications: dict

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "kind": "cover_report",
            "ladder": self.ladder_descr,
            "per_scale": self.per_scale,
            "per_pair": self.per_pair,
            "verdicts": self.verdicts,
            "implications": self.implications,
        }


def uniform_cover_verdict(
    f: SpaceMap, ladder: ScaleLadder, budget: SearchBudget | None = None
) -> CoverReport:
    """Assemble every per-scale check and the ladder-level verdicts.

    "Uniform covering map at this ladder" asks that every scale has an
    image-structure witness, a fine-or-equal scale with chain lifting, and
    that some scale is transverse; the simplicial-cover verdict asks for a
    simplicial covering at the finest scale.  Everything is relative to the
    ladder that was supplied.
    """
    budget = budget or DEFAULT_BUDGET
    if ladder.n != f.source.n:
        raise CarrierMismatch("ladder does not live on the map's source")
    k = len(ladder)
    images = [image_under(f, e) for e in ladder]

    def scale_entry(i: int) -> dict:
        e = ladder[i]
        ok_sc, cx_sc = _simplicial_cover(f, e, images[i])
        # _simplicial_cover runs _evenly_covers first and returns its failure
        ok_ec = ok_sc or cx_sc["kind"] == "triangle_lift"
        cx_ec = None if ok_ec else cx_sc
        ok_ul, wit_ul = uniqueness_of_lifts(f, e)
        gen = _generates_at(images[i], ladder, images)
        return {
            "scale": ladder.describe(i),
            "transverse": transverse(f, e),
            "evenly_covers": ok_ec,
            "evenly_covers_counterexample": cx_ec,
            "simplicial_cover": ok_sc,
            "simplicial_cover_counterexample": cx_sc,
            "uniqueness_of_lifts": ok_ul,
            "uniqueness_witness": list(wit_ul) if wit_ul else None,
            "generates_witness": None if gen is None else ladder.describe(gen[0]),
        }

    def pair_entry(i: int, j: int) -> dict:
        ok_cl, cx_cl = _chain_lifting(f, ladder[i], images[j])
        ok_c3, wit_c3 = c3_check(f, ladder[i], ladder[j])
        return {
            "scale": ladder.describe(i),
            "fine": ladder.describe(j),
            "chain_lifting": ok_cl,
            "chain_lifting_counterexample": cx_cl,
            "c3": ok_c3,
            "c3_witness": list(wit_c3) if wit_c3 else None,
            "c2": c2_check(f, ladder[i], ladder[j], budget, ff=images[j]),
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
    failing = []
    if not generates_ok:
        failing.append("generates_structure")
    if not lifting_ok:
        failing.append("chain_lifting")
    if not transverse_some:
        failing.append("transverse")
    if not simplicial_base:
        failing.append("simplicial_cover")

    implications = {
        "simplicial_implies_evenly": all(
            (not s["simplicial_cover"]) or s["evenly_covers"] for s in per_scale
        ),
        "lifting_squares_give_structure": _prop_29b(ladder, images, lifting),
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
    return CoverReport(ladder.to_json(), per_scale, per_pair, verdicts, implications)


def _prop_29b(ladder: ScaleLadder, images: list[Entourage], lifting: dict[tuple[int, int], bool]) -> bool:
    """Whenever D o D fits in E and chains lift at (D, F), the image of F
    squares into the image of E; recorded as a concrete per-triple check.
    `images` are the scales pushed forward, and `lifting[j, t]` is the
    chain-lifting verdict at ladder indices j <= t."""
    for i, e in enumerate(ladder):
        for j in range(i, len(ladder)):
            if not compose(ladder[j], ladder[j]).issubset(e):
                continue
            for t in range(j, len(ladder)):
                if lifting[j, t] and not compose(images[t], images[t]).issubset(images[i]):
                    return False
    return True


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
            label = self.space.labels[endpoint]
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
    budget: SearchBudget | None = None,
) -> CoverBall:
    """Grow chain classes from the constant chain, one step per layer.

    New chains are identified with an existing class only on a proven Yes;
    growth stops at the radius and the frontier flag says whether deeper
    layers were cut off.
    """
    budget = budget or DEFAULT_BUDGET
    if not (0 <= basepoint < space.n):
        raise ValidationError("basepoint out of range")
    if radius < 0:
        raise ValidationError("radius must be nonnegative")
    vertices: list[tuple[int, tuple[int, ...]]] = [(basepoint, (basepoint,))]
    by_endpoint: dict[int, list[int]] = {basepoint: [0]}
    edges: set[tuple[int, int]] = set()
    approximate = False
    layer = [0]
    last_new: list[int] = [0]
    for _ in range(radius):
        nxt: list[int] = []
        for cid in layer:
            endpoint, witness = vertices[cid]
            for q in ball(entourage, endpoint):
                if q == endpoint:
                    continue
                cand = canonicalize(witness + (q,))
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
        last_new = nxt
        if not nxt:
            break
    if radius == 0:
        frontier = any(q != basepoint for q in ball(entourage, basepoint))
    else:
        frontier = bool(last_new)
    return CoverBall(
        space, entourage, basepoint, radius, vertices, sorted(edges), approximate, frontier
    )
