"""Command-line surface.

Subcommands: analyze, cover, join, short, replay, ball, gallery.
Exit codes: 0 success (or positive verdict), 1 negative verdict on a
yes/no question, 2 input validation problem, 3 certificate failure.
Reports are deterministic json: one line, sorted keys, no timestamps.

Each call is a fresh interpreter, so importing this module loads only the
H1-tower path that the package exports (`errors`, `space`, `snf`, `rips`,
`gallery`, `tower`); each command imports the homotopy search (`chains`)
and the cover checks (`cover`) itself, when it uses them.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from .gallery import gallery as make_gallery
from .errors import CertificateError, RipscoverError, ValidationError
from .space import (
    FiniteSpace,
    ScaleLadder,
    SearchBudget,
    SpaceMap,
    as_index,
    as_number,
    dump_space,
    entourage_at,
    load_space,
    read_json_object,
    space_from_json,
    write_report,
)
from .tower import build_tower, g_entourage, joinability_witness, uniform_joinability_audit

if TYPE_CHECKING:
    from .chains import HomotopyCertificate

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_CERTIFICATE = 3


def _basepoint(args, space: FiniteSpace) -> int:
    """--basepoint, else the space's first distinguished point, else point 0."""
    if args.basepoint is not None:
        return space.index_of(args.basepoint)
    return space.distinguished[0][1] if space.distinguished else 0


def _load_input(args, with_ladder: bool = False) -> tuple[FiniteSpace, ScaleLadder | None]:
    """The space and, when `with_ladder`, the ladder it comes with: a
    gallery's own, or a json space file's `recommended_ladder`.  A command
    asks for the ladder only when it uses it, so a malformed ladder it would
    not read is never an error."""
    if args.gallery:
        g = make_gallery(args.gallery)
        return g.space, g.ladder
    if not args.space:
        raise ValidationError("provide --gallery or --space")
    if not args.space.endswith(".json"):
        return load_space(args.space), None
    doc = read_json_object(args.space, "space")
    space = space_from_json(doc)
    if with_ladder and "recommended_ladder" in doc:
        return space, ScaleLadder.from_json(space, doc["recommended_ladder"])
    return space, None


def _resolve_ladder(args, space: FiniteSpace, recommended: ScaleLadder | None) -> ScaleLadder:
    """'auto' (the recommended ladder), comma thresholds like '3,1', or
    count+range like '4@3:0.5'."""
    spec = args.ladder
    if spec == "auto":
        if recommended is None:
            raise ValidationError("no recommended ladder for this input; pass --ladder")
        return recommended
    try:
        if "@" in spec:
            count, rng = spec.split("@", 1)
            hi, lo = (float(v) for v in rng.split(":", 1))
            count = int(count)
            if count < 2 or hi <= lo:
                raise ValueError("count+range needs count >= 2 and hi > lo")
            step = (hi - lo) / (count - 1)
            thresholds = [hi - i * step for i in range(count)]
        else:
            thresholds = [float(v) for v in spec.split(",")]
    except ValueError as e:
        raise ValidationError(f"bad ladder spec {spec!r}: {e}") from e
    return ScaleLadder.from_thresholds(space, thresholds, strict=args.strict_thresholds)


def _config_block(args) -> dict:
    return {
        "budget": {"states": args.budget_states},
        "strict_thresholds": args.strict_thresholds,
    }


def cmd_analyze(args) -> int:
    space, recommended = _load_input(args, with_ladder=args.ladder == "auto")
    ladder = _resolve_ladder(args, space, recommended)
    basepoint = _basepoint(args, space)
    tower = build_tower(space, ladder, basepoint)
    if args.certified_pairs is not None:
        target = entourage_at(space, args.certified_pairs, strict=args.strict_thresholds)
    if args.format == "text":  # the table shows none of the json-only sections below
        write_report(tower.text_table() + "\n", args.output)
        return EXIT_OK
    doc = tower.to_json()
    doc["skeletons"] = [
        {
            "scale": ladder.describe(i),
            "edges": len(sk.edges),
            "triangles": sk.triangle_count,
        }
        for i, sk in enumerate(tower.skeletons)
    ]
    if args.audit:
        doc["joinability_audit"] = uniform_joinability_audit(space, ladder, args.budget)
    if args.certified_pairs is not None:
        _, rep = g_entourage(space, target, ladder, args.budget, basepoint)
        doc["certified_pairs"] = rep
    doc["config"] = _config_block(args)
    write_report(doc, args.output)
    return EXIT_OK


def _space_field(value) -> FiniteSpace:
    """A space given inline as a json object or as a path to a space file."""
    if isinstance(value, dict):
        return space_from_json(value)
    if isinstance(value, str):
        return load_space(value)
    raise ValidationError(f"a space must be a json object or a file path, got {value!r}")


def _load_map(path: str) -> tuple[SpaceMap, list | None]:
    doc = read_json_object(path, "map", ("source", "target", "assign"))
    if not isinstance(doc["assign"], list):
        raise ValidationError("map 'assign' must be a list of target indices")
    return SpaceMap(_space_field(doc["source"]), _space_field(doc["target"]), doc["assign"]), doc.get("ladder")


def cmd_cover(args) -> int:
    from .cover import uniform_cover_verdict

    f, ladder_doc = _load_map(args.map)
    recommended = None
    if args.ladder == "auto" and ladder_doc is not None:
        recommended = ScaleLadder.from_json(f.source, ladder_doc)
    ladder = _resolve_ladder(args, f.source, recommended)
    report = uniform_cover_verdict(f, ladder, args.budget)
    report["config"] = _config_block(args)
    write_report(report, args.output)
    positive = report["verdicts"]["uniform_covering_map_at_ladder"]
    return EXIT_OK if positive else EXIT_NEGATIVE


def _write_certificate(cert: HomotopyCertificate, args) -> str:
    path = args.certificate_out or "certificate.json"
    write_report(cert.to_json(), path)
    return path


def cmd_join(args) -> int:
    """The fine scale is `--fine`, else the finest scale of the input's
    recommended ladder."""
    space, recommended = _load_input(args, with_ladder=args.fine is None)
    names = args.pair.split(",")
    if len(names) != 2:
        raise ValidationError("--pair needs two comma-separated points")
    x, y = (space.index_of(s.strip()) for s in names)
    target = entourage_at(space, args.target, strict=args.strict_thresholds)
    if args.fine is not None:
        fine = entourage_at(space, args.fine, strict=args.strict_thresholds)
    elif recommended is not None:
        fine = recommended.finest()
    else:
        raise ValidationError("no recommended ladder for this input; pass --fine")
    verdict = joinability_witness(space, x, y, target, fine, args.budget)
    doc = verdict.to_json()
    doc.update({"schema": 1, "kind": "joinability", "config": _config_block(args)})
    if verdict.verdict.is_yes() and verdict.verdict.certificate is not None:
        doc["certificate_file"] = _write_certificate(verdict.verdict.certificate, args)
    write_report(doc, args.output)
    return EXIT_OK if not verdict.verdict.is_no() else EXIT_NEGATIVE


def cmd_short(args) -> int:
    from .chains import is_short, validate_chain

    doc = read_json_object(args.chain, "chain", ("space", "seq"))
    space = _space_field(doc["space"])
    if not isinstance(doc["seq"], list):
        raise ValidationError("chain 'seq' must be a list of point indices")
    seq = [as_index(v) for v in doc["seq"]]
    scale = entourage_at(space, args.scale, strict=args.strict_thresholds)
    chain_scale = entourage_at(space, as_number(doc.get("eps", args.scale)), strict=args.strict_thresholds)
    chain = validate_chain(space, chain_scale, seq)
    verdict = is_short(chain, scale, args.budget)
    out = verdict.to_json()
    out.update({"schema": 1, "kind": "shortness", "config": _config_block(args)})
    if verdict.is_yes() and verdict.certificate is not None:
        out["certificate_file"] = _write_certificate(verdict.certificate, args)
    write_report(out, args.output)
    return EXIT_OK if not verdict.is_no() else EXIT_NEGATIVE


def cmd_replay(args) -> int:
    from .chains import certificate_from_file

    cert = certificate_from_file(args.certificate)
    final = cert.replay()
    meta = cert.entourage.meta
    scale = {"eps": meta["eps"], "strict": meta["strict"]} if "eps" in meta else None
    write_report(
        {
            "schema": 1,
            "kind": "replay",
            "ok": True,
            "scale": scale,
            "moves": len(cert.moves),
            "end": list(final.seq),
        },
        args.output,
    )
    return EXIT_OK


def cmd_ball(args) -> int:
    from .cover import build_cover_ball

    space, _ = _load_input(args)
    scale = entourage_at(space, args.eps, strict=args.strict_thresholds)
    ball = build_cover_ball(space, scale, _basepoint(args, space), args.radius, args.budget)
    if args.format == "dot":
        write_report(ball.to_dot() + "\n", args.output)
    else:
        doc = ball.to_json()
        doc["config"] = _config_block(args)
        write_report(doc, args.output)
    return EXIT_OK


def cmd_gallery(args) -> int:
    g = make_gallery(args.name)
    dump_space(g.space, args.output, g.ladder)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ripscover",
        description="Rips skeletons, chain homotopy, covering checks and scale towers",
    )
    parser.add_argument("--budget-states", type=int, default=SearchBudget.states, help="search state budget")
    parser.add_argument("--strict-thresholds", action="store_true", help="use < instead of <= for eps scales")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_io(p):
        p.add_argument("--gallery", help="gallery spec like hexagon_ex72 or solenoid:2")
        p.add_argument("--space", help="space file (json / csv-points / csv-matrix)")
        p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("analyze", help="tower, diagnostics and skeleton summary")
    common_io(p)
    p.add_argument("--ladder", default="auto", help="'auto', comma thresholds like 3,1, or count+range like 4@3:0.5")
    p.add_argument("--basepoint", help="basepoint label or index")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--audit", action="store_true", help="include the joinability audit")
    p.add_argument("--certified-pairs", metavar="EPS", type=float, default=None,
                   help="include the certified-pair relation at this scale")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cover", help="covering-map report for a map file")
    p.add_argument("--map", required=True, help="json file with source, target, assign, ladder")
    p.add_argument("--ladder", default="auto", help="override ladder (comma thresholds)")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("join", help="joinability witness for a pair")
    common_io(p)
    p.add_argument("--pair", required=True, help="two points, e.g. a,b")
    p.add_argument("--target", type=float, required=True, help="target eps")
    p.add_argument("--fine", type=float, default=None, help="fine eps (default: ladder's finest)")
    p.add_argument("--certificate-out", help="where to write the Yes certificate")
    p.set_defaults(func=cmd_join)

    p = sub.add_parser("short", help="is a chain short at a scale")
    p.add_argument("--chain", required=True, help="json file with space, seq, eps")
    p.add_argument("--scale", type=float, required=True, help="scale eps to test shortness at")
    p.add_argument("--certificate-out", help="where to write the Yes certificate")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_short)

    p = sub.add_parser("replay", help="re-verify a certificate file")
    p.add_argument("certificate", help="certificate json file")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("ball", help="bounded chain-class ball over a basepoint")
    common_io(p)
    p.add_argument("--eps", type=float, required=True, help="scale eps")
    p.add_argument("--basepoint", help="basepoint label or index")
    p.add_argument("--radius", type=int, default=5)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("gallery", help="dump a gallery space with its ladder")
    p.add_argument("name", help="gallery spec like hexagon_ex72 or solenoid:2,64,4,1")
    p.add_argument("--output", help="write the space json here instead of stdout")
    p.set_defaults(func=cmd_gallery)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a malformed budget exits 2 before any work
        args.budget = SearchBudget(states=args.budget_states)
        return args.func(args)
    except CertificateError as e:
        print(f"certificate error: {e}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except OSError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError:
        print("input error: out of memory; the input is too large", file=sys.stderr)
        return EXIT_INVALID
    except RipscoverError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
