"""One benchmark job: a fresh interpreter that builds its inputs and runs the CLI.

    python3 perfbench/job.py SPEC REPORT META [SPANS]

SPEC holds {"command", "options", "flags", "inputs"} written by run.py:
options go before the subcommand, flags after it.  The job
imports ripscover, builds and validates the space, ladder and map through
the public API (this is the set-up the benchmark times), then calls
`ripscover.cli.main` with the CLI's input loaders pointed at those objects,
so the report comes from the real command path.  META receives monotonic
timestamps and the exit code.  With SPANS the package is traced and the
spans are written there at exit.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    if not __debug__:
        raise SystemExit("job.py must not run under python -O: certificate replay would be skipped")
    spec_path, report_path, meta_path = argv[:3]
    spans_path = argv[3] if len(argv) > 3 else None
    import ripscover
    import ripscover.cli as cli

    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer(ripscover)
    t_imported = time.monotonic()

    with open(spec_path) as fh:
        spec = json.load(fh)
    inputs = spec["inputs"]
    if spec["command"] == "analyze":
        space = ripscover.space_from_json(inputs["space"])
        ladder = ripscover.ScaleLadder.from_json(space, inputs["ladder"])
        prebuilt = ripscover.GallerySpace(space, ladder)
        cli.make_gallery = lambda name: prebuilt
        argv_cli = [*spec["options"], "analyze", "--gallery", "input", *spec["flags"]]
    else:
        source = ripscover.space_from_json(inputs["source"])
        target = ripscover.space_from_json(inputs["target"])
        fmap = ripscover.SpaceMap(source, target, inputs["assign"])
        ripscover.ScaleLadder.from_json(source, inputs["ladder"])
        cli._load_map = lambda path: (fmap, inputs["ladder"])
        argv_cli = [*spec["options"], "cover", "--map", "input", *spec["flags"]]
    t_ready = time.monotonic()

    rc = cli.main([*argv_cli, "--output", report_path])
    t_done = time.monotonic()
    if tracer is not None:
        tracer.dump(spans_path)
    with open(meta_path, "w") as fh:
        json.dump({"t_imported": t_imported, "t_ready": t_ready, "t_done": t_done, "rc": rc}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
