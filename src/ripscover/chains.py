"""Chain calculus at a scale: validity, moves, certificates, and
three-valued homotopy decisions.

A chain is a vertex walk whose consecutive pairs are related at the scale.
Interior vertices may be inserted or deleted when they span a triangle with
their neighbors; endpoints never move.  Homotopy questions are answered
with an honest verdict shape: Yes carries a replayable move certificate,
No carries an obstruction that re-verifies independently, Unknown reports
the budget that ran out.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import CertificateError, ChainError, MoveError, ValidationError
from .rips import build_skeleton, h1_class
from .space import (
    DEFAULT_BUDGET,
    Entourage,
    FiniteSpace,
    SearchBudget,
    as_index,
    compose,
    read_json_object,
    scale_from_json,
    space_from_json,
)


@dataclass(frozen=True)
class Chain:
    """A vertex walk valid at one scale."""

    space: FiniteSpace
    entourage: Entourage
    seq: tuple[int, ...]

    @property
    def start(self) -> int:
        return self.seq[0]

    @property
    def end(self) -> int:
        return self.seq[-1]


def validate_chain(space: FiniteSpace, entourage: Entourage, seq) -> Chain:
    """Check every link; failures report the first offending position."""
    seq = tuple(int(v) for v in seq)
    if not seq:
        raise ChainError("empty sequence")
    if space.n != entourage.n:
        raise ChainError("space and entourage sizes differ")
    for v in seq:
        if not (0 <= v < space.n):
            raise ChainError(f"vertex {v} out of range")
    for i, (u, v) in enumerate(zip(seq, seq[1:])):
        if not entourage.related(u, v):
            raise ChainError(f"link {i}: pair ({u},{v}) not related at this scale", position=i)
    return Chain(space, entourage, seq)


def apply_move(chain: Chain, move: tuple) -> Chain:
    """Insert or delete one interior vertex under the triangle condition.

    A move is `("insert", pos, vertex)` or `("delete", pos)`, the tuple form
    of a certificate file's move entries; any other value is a MoveError.
    """
    seq = chain.seq
    rel = chain.entourage
    match move:
        case ("insert", int(i), int(v)):
            if not (0 < i <= len(seq) - 1):
                raise MoveError(f"insert position {i} would move an endpoint")
            if not (0 <= v < chain.space.n):
                raise MoveError(f"vertex {v} out of range")
            if not (rel.related(seq[i - 1], v) and rel.related(v, seq[i])):
                raise MoveError(f"insert of {v} at {i} breaks the triangle condition")
            return Chain(chain.space, chain.entourage, seq[:i] + (v,) + seq[i:])
        case ("delete", int(i)):
            if not (0 < i < len(seq) - 1):
                raise MoveError(f"delete position {i} would move an endpoint")
            if not rel.related(seq[i - 1], seq[i + 1]):
                raise MoveError(f"delete at {i} leaves an unrelated pair ({seq[i - 1]},{seq[i + 1]})")
            return Chain(chain.space, chain.entourage, seq[:i] + seq[i + 1:])
    raise MoveError(f"unknown move {move!r}")


@dataclass(frozen=True)
class HomotopyCertificate:
    """A replayable move sequence transforming one chain into another."""

    space: FiniteSpace
    entourage: Entourage
    start: tuple[int, ...]
    moves: tuple[tuple, ...]
    end: tuple[int, ...]

    def replay(self) -> Chain:
        """Re-apply every move, checking legality; returns the final chain."""
        try:
            chain = validate_chain(self.space, self.entourage, self.start)
        except ChainError as e:
            raise CertificateError(f"invalid start chain: {e}") from e
        for m in self.moves:
            try:
                chain = apply_move(chain, m)
            except MoveError as e:
                raise CertificateError(f"illegal move {m!r}: {e}") from e
        if chain.seq != tuple(self.end):
            raise CertificateError("certificate does not end at the declared chain")
        return chain

    def to_json(self) -> dict:
        """The relation is written as its scale (`eps`, `strict`) when it is
        one, which `from_json` recomputes from the space, else as its pairs."""
        ent = {"n": self.entourage.n}
        meta = self.entourage.meta
        if "eps" in meta:
            ent["eps"] = meta["eps"]
            ent["strict"] = meta.get("strict", False)
        else:
            ent["pairs"] = [list(p) for p in self.entourage.pairs()]
        return {
            "schema": 1,
            "kind": "homotopy_certificate",
            "space": self.space.to_json(),
            "entourage": ent,
            "start": list(self.start),
            "moves": [list(m) for m in self.moves],
            "end": list(self.end),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "HomotopyCertificate":
        """Parse a certificate; its relation is read by `scale_from_json`, so
        a relation labelled with an `eps` is that scale of the carried space
        and a file cannot bring its own relation.  A pair list given next to
        the `eps` must equal that scale."""
        try:
            if doc.get("kind") != "homotopy_certificate":
                raise CertificateError("not a homotopy certificate document")
            space = space_from_json(doc["space"])
            ent = doc["entourage"]
            n = as_index(ent["n"])
            if n != space.n:
                raise CertificateError(f"the relation is on {n} points, the certificate's space has {space.n}")
            entourage = scale_from_json(space, ent)
            moves = []
            for m in doc["moves"]:
                if m[0] == "insert":
                    moves.append(("insert", as_index(m[1]), as_index(m[2])))
                elif m[0] == "delete":
                    moves.append(("delete", as_index(m[1])))
                else:
                    raise CertificateError(f"unknown move kind {m[0]!r}")
            start = tuple(as_index(v) for v in doc["start"])
            end = tuple(as_index(v) for v in doc["end"])
            return cls(space, entourage, start, tuple(moves), end)
        except (KeyError, IndexError, TypeError, ValueError, ValidationError) as e:
            raise CertificateError(f"malformed certificate: {e}") from e


@dataclass(frozen=True)
class Trivalue:
    """Verdict of a semi-decidable question: yes / no / unknown."""

    kind: str  # "yes" | "no" | "unknown"
    certificate: HomotopyCertificate | None = None
    obstruction: dict | None = None
    stats: dict = field(default_factory=dict)

    def is_yes(self) -> bool:
        return self.kind == "yes"

    def is_no(self) -> bool:
        return self.kind == "no"

    def is_unknown(self) -> bool:
        return self.kind == "unknown"

    def to_json(self) -> dict:
        doc = {"verdict": self.kind}
        if self.certificate is not None:
            doc["certificate"] = self.certificate.to_json()
        if self.obstruction is not None:
            doc["obstruction"] = self.obstruction
        if self.stats:
            doc["stats"] = self.stats
        return doc


def _deletes(seq: tuple[int, ...], adj):
    """A state's delete neighbors as (moves, new_state) pairs, by position.

    `adj` is the skeleton's relation table.  A delete that leaves a repeated
    point deletes the repeat too, unless that leaves the two-point constant
    walk.  `_tighten` takes the first of these; the search takes them all.
    """
    L = len(seq)
    for i in range(1, L - 1):
        a, b = seq[i - 1], seq[i + 1]
        if not adj[a][b]:
            continue
        if a != b or L == 3:  # (a, x, a) -> (a, a) keeps its repeat
            yield (("delete", i),), seq[:i] + seq[i + 1:]
        else:
            # the deletion created one duplicate pair; collapse it
            yield (("delete", i), ("delete", i if i < L - 2 else i - 1)), seq[:i] + seq[i + 2:]


def _neighbors(seq: tuple[int, ...], adj, common) -> list:
    """A state's neighbors as (moves, new_state) pairs.

    `adj` and `common` are the skeleton's move tables.  Moves are the tagged
    tuples `apply_move` takes, as certificates carry them.  Deletes
    come first (`_deletes`), then inserts by position and vertex: this order
    fixes which states the search visits and which certificate it returns.
    An insert never makes a repeated point, so the search stores no repeats
    past the given chains and their tightening paths, which count as stored.
    """
    out = list(_deletes(seq, adj))
    for i in range(1, len(seq)):
        head, tail = seq[:i], seq[i:]
        for v in common[seq[i - 1]][seq[i]]:
            out.append(((("insert", i, v),), head + (v,) + tail))
    return out


def _invert_edge(prev: tuple[int, ...], moves) -> list[tuple]:
    """Inverse moves: transform the edge's result back into `prev`."""
    inv = []
    states = [prev]
    cur = prev
    for m in moves:
        pos = m[1]
        cur = cur[:pos] + m[2:] + cur[pos:] if m[0] == "insert" else cur[:pos] + cur[pos + 1:]
        states.append(cur)
    for m, before in zip(reversed(moves), reversed(states[:-1])):
        inv.append(("delete", m[1]) if m[0] == "insert" else ("insert", m[1], before[m[1]]))
    return inv


def _h1_obstruction(skel, c_seq: tuple[int, ...], d_seq: tuple[int, ...]) -> dict | None:
    """The class of the loop c, then d backwards, as a `no` obstruction, if nonzero."""
    vector = h1_class(skel, c_seq + tuple(reversed(d_seq))[1:])
    return {"kind": "h1_class", "vector": list(vector)} if any(vector) else None


def _tighten(seq: tuple[int, ...], adj, seen: dict) -> tuple[int, ...]:
    """Greedy deletes, each the first `_deletes` offers, until none applies;
    each state reached is recorded in `seen` with its parent edge, as the
    search records the states it stores."""
    while (first := next(_deletes(seq, adj), None)) is not None:
        moves, new = first
        seen[new] = (seq, moves)
        seq = new
    return seq


def decide_homotopic(c: Chain, d: Chain, budget: SearchBudget = DEFAULT_BUDGET) -> Trivalue:
    """Are two same-endpoint chains homotopic relative their endpoints?

    The homology obstruction is checked first (cheap and sound).  When it
    vanishes, both chains are tightened by greedy deletes, which also remove
    their repeated points, and the bidirectional search runs between the
    tightened ends, storing at most `budget.states` states; the given
    chains and their tightening paths count as stored.  Yes always carries a
    certificate that replays from `c` to `d`; a nonzero obstruction yields
    No; otherwise Unknown reports the spent budget and its reason: "state
    budget exhausted", or "frontier exhausted" when one side's reachable
    states are all stored and none meets the other's.
    """
    if c.space != d.space or c.entourage != d.entourage:
        raise ChainError("chains must share a space and scale")
    if c.start != d.start or c.end != d.end:
        raise ChainError("endpoint mismatch: rel-endpoint homotopy needs equal endpoints")
    ent = c.entourage
    if c.seq == d.seq:
        return Trivalue("yes", certificate=HomotopyCertificate(c.space, ent, c.seq, (), d.seq))

    skel = build_skeleton(ent)
    obstruction = _h1_obstruction(skel, c.seq, d.seq)
    if obstruction is not None:
        return Trivalue("no", obstruction=obstruction)

    adj, common = skel.move_tables()
    fwd: dict[tuple[int, ...], tuple | None] = {c.seq: None}
    bwd: dict[tuple[int, ...], tuple | None] = {d.seq: None}
    fq = deque([_tighten(c.seq, adj, fwd)])
    bq = deque([_tighten(d.seq, adj, bwd)])
    expanded = 0

    def finish(meet: tuple[int, ...]) -> Trivalue:
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
        cert = HomotopyCertificate(c.space, ent, c.seq, tuple(fpath), d.seq)
        if __debug__:
            cert.replay()
        return Trivalue("yes", certificate=cert)

    def unknown(reason: str) -> Trivalue:
        return Trivalue("unknown", stats={
            "states_expanded": expanded, "states_stored": len(fwd) + len(bwd), "reason": reason,
        })

    meet = next((state for state in bwd if state in fwd), None)
    if meet is not None:
        return finish(meet)
    if len(fwd) + len(bwd) >= budget.states:
        return unknown("state budget exhausted")
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
            for moves, new in _neighbors(state, adj, common):
                if new in seen:
                    continue
                seen[new] = (state, moves)
                if new in other:
                    return finish(new)
                if len(fwd) + len(bwd) >= budget.states:
                    return unknown("state budget exhausted")
                queue.append(new)
    return unknown("frontier exhausted")


def _conjugate(entourage: Entourage, c_seq: tuple[int, ...], d_seq: tuple[int, ...]) -> tuple[int, ...] | dict:
    """d's walk conjugated by the edges joining its endpoints to c's, or an
    endpoint obstruction when those edges are missing."""
    if not entourage.related(c_seq[0], d_seq[0]) or not entourage.related(c_seq[-1], d_seq[-1]):
        bad = (c_seq[0], d_seq[0]) if not entourage.related(c_seq[0], d_seq[0]) else (c_seq[-1], d_seq[-1])
        return {"kind": "endpoints", "pair": list(bad)}
    tseq = d_seq if c_seq[0] == d_seq[0] else (c_seq[0],) + d_seq
    if d_seq[-1] != c_seq[-1]:
        tseq = tseq + (c_seq[-1],)
    return tseq


def e_homotopic(c: Chain, d: Chain, entourage: Entourage, budget: SearchBudget = DEFAULT_BUDGET) -> Trivalue:
    """Endpoint-relaxed homotopy at a scale: conjugate by the connecting edges.

    Chains valid at finer scales are re-read at `entourage`; unrelated
    endpoint pairs are a legitimate No, not an error.
    """
    if c.space != d.space:
        raise ChainError("chains live on different spaces")
    cc, dd = validate_chain(c.space, entourage, c.seq), validate_chain(d.space, entourage, d.seq)
    target = _conjugate(entourage, cc.seq, dd.seq)
    if isinstance(target, dict):
        return Trivalue("no", obstruction=target)
    return decide_homotopic(cc, Chain(c.space, entourage, target), budget)


def e_obstruction_at(skel, c_seq: tuple[int, ...], d_seq: tuple[int, ...]) -> dict | None:
    """The obstruction of `e_homotopic`'s No at the skeleton's scale, found
    without a search, for walks already valid there.

    `e_homotopic` answers No exactly when this returns a dict, and with
    that dict: the endpoint check, then the H1 class of the conjugated loop.
    None means its answer would be Yes or Unknown.  Nothing is validated and
    no skeleton is looked up, so a caller that asks about many pairs at one
    scale checks their validity once itself.
    """
    target = _conjugate(skel.entourage, c_seq, d_seq)
    if isinstance(target, dict):
        return target
    return _h1_obstruction(skel, c_seq, target)


def is_short(c: Chain, entourage: Entourage, budget: SearchBudget = DEFAULT_BUDGET) -> Trivalue:
    """Is the chain's class at this scale just the edge between its endpoints?

    The edge of a closed chain is the constant chain (x, x), not (x,), which
    the move calculus isolates; a one-point chain is its own target.
    """
    cc = validate_chain(c.space, entourage, c.seq)
    x, y = cc.start, cc.end
    if not entourage.related(x, y):
        return Trivalue("no", obstruction={"kind": "endpoints", "pair": [x, y]})
    target = Chain(c.space, entourage, (x, y) if len(cc.seq) > 1 else cc.seq)
    return decide_homotopic(cc, target, budget)


def close_chains_certificate(c: Chain, d: Chain, entourage: Entourage) -> HomotopyCertificate:
    """Certificate at the squared scale joining two pointwise-close chains.

    Interleaves the two walks and then drops the first one; every move is
    legal at the composed scale, so this is constructive and never searches.
    """
    cc = validate_chain(c.space, entourage, c.seq)
    dd = validate_chain(d.space, entourage, d.seq)
    if len(cc.seq) != len(dd.seq):
        raise ChainError("chains must have equal length")
    if cc.start != dd.start or cc.end != dd.end:
        raise ChainError("chains must share endpoints")
    for i, (u, v) in enumerate(zip(cc.seq, dd.seq)):
        if not entourage.related(u, v):
            raise ChainError(f"chains are not pointwise close at {i}: ({u},{v})", position=i)
    e2 = compose(entourage, entourage)
    if cc.seq == dd.seq:
        return HomotopyCertificate(c.space, e2, cc.seq, (), dd.seq)
    k = len(cc.seq) - 1
    moves = tuple(("insert", 2 * i, dd.seq[i]) for i in range(1, k))
    moves += tuple(("delete", i) for i in range(1, k))
    cert = HomotopyCertificate(c.space, e2, cc.seq, moves, dd.seq)
    cert.replay()
    return cert


def certificate_from_file(path: str) -> HomotopyCertificate:
    try:
        doc = read_json_object(path, "certificate")
    except ValidationError as e:
        raise CertificateError(str(e)) from e
    return HomotopyCertificate.from_json(doc)
