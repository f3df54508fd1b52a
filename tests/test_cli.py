import hashlib
import json
import os
import shlex
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ripscover import cli
from ripscover.chains import HomotopyCertificate, decide_homotopic, validate_chain
from ripscover.cli import main
from ripscover.gallery import hexagon_ex72, hexagon_ex73
from ripscover.rips import RipsSkeleton
from ripscover.space import Entourage, entourage_at, load_space, space_from_json

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run(args):
    return main(args)


def test_analyze_gallery(tmp_path):
    out = tmp_path / "report.json"
    code = run(["analyze", "--gallery", "hexagon_ex72", "--ladder", "3,1", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "tower_report"
    assert [s["rank"] for s in doc["scales"]] == [0, 1]


def test_analyze_solenoid_auto(tmp_path):
    out = tmp_path / "report.json"
    code = run(["analyze", "--gallery", "solenoid:2", "--ladder", "auto", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert [b["snf"] for b in doc["bondings"]] == [[2], [2]]
    assert doc["diagnostics"]["mittag_leffler"][0]["status"] == "not_stabilized_within_ladder"


def test_analyze_missing_file():
    assert run(["analyze", "--space", "/nonexistent/nowhere.json"]) == 2


def test_cover_fixtures():
    assert run(["cover", "--map", os.path.join(FIXTURES, "double_cover_map.json"),
                "--output", os.devnull]) == 0
    assert run(["cover", "--map", os.path.join(FIXTURES, "fold_map.json"),
                "--output", os.devnull]) == 1
    assert run(["cover", "--map", os.path.join(FIXTURES, "identity_map.json"),
                "--output", os.devnull]) == 0


def test_cover_map_without_assignment(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"source": hexagon_ex72().space.to_json(),
                               "target": hexagon_ex72().space.to_json()}))
    assert run(["cover", "--map", str(bad)]) == 2


def test_join_verdicts_and_replay(tmp_path):
    out = tmp_path / "join.json"
    cert = tmp_path / "cert.json"
    code = run(["join", "--gallery", "hexagon_ex72", "--pair", "a,b",
                "--target", "1", "--fine", "1", "--output", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["verdict"] == "no"

    code = run(["join", "--gallery", "hexagon_ex72", "--pair", "a,b",
                "--target", "3", "--fine", "1", "--output", str(out),
                "--certificate-out", str(cert)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "yes"
    assert doc["certificate_file"] == str(cert)
    assert run(["replay", str(cert), "--output", os.devnull]) == 0


def test_join_writes_no_certificate_file_unless_asked(tmp_path, monkeypatch, capsys):
    # the report carries the yes's certificate inline; a file is written
    # only to --certificate-out
    monkeypatch.chdir(tmp_path)
    assert run(["join", "--gallery", "hexagon_ex73", "--pair", "a,b", "--target", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "yes" and "certificate" in doc and "certificate_file" not in doc
    assert list(tmp_path.iterdir()) == []


def test_short_command(tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({
        "space": hexagon_ex72().space.to_json(),
        "seq": [0, 5, 4, 3, 2, 1],
        "eps": 1.0,
    }))
    out = tmp_path / "short.json"
    assert run(["short", "--chain", str(chain), "--scale", "1", "--output", str(out)]) == 1
    cert = tmp_path / "c.json"
    assert run(["short", "--chain", str(chain), "--scale", "3", "--output", str(out),
                "--certificate-out", str(cert)]) == 0
    assert run(["replay", str(cert), "--output", os.devnull]) == 0


def test_short_command_on_a_loop(tmp_path):
    # a loop that bounds at the scale is short: exit 0 and a certificate
    # that replays
    chain = tmp_path / "loop.json"
    chain.write_text(json.dumps({"space": hexagon_ex72().space.to_json(), "seq": [0, 1, 2, 0], "eps": 3.0}))
    out, cert = tmp_path / "short.json", tmp_path / "c.json"
    assert run(["short", "--chain", str(chain), "--scale", "3", "--output", str(out),
                "--certificate-out", str(cert)]) == 0
    assert json.loads(out.read_text())["verdict"] == "yes"
    assert run(["replay", str(cert), "--output", os.devnull]) == 0


def test_replay_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"kind\": \"homotopy_certificate\"}")
    assert run(["replay", str(bad)]) == 3
    worse = tmp_path / "worse.json"
    worse.write_text("not json")
    assert run(["replay", str(worse)]) == 3
    undecodable = tmp_path / "bytes.json"
    undecodable.write_bytes(b"\xff\xfe\x00")
    assert run(["replay", str(undecodable)]) == 3
    assert run(["replay", str(tmp_path / "missing.json")]) == 2


def test_replay_tampered_certificate(tmp_path):
    cert = tmp_path / "cert.json"
    run(["join", "--gallery", "hexagon_ex72", "--pair", "a,b",
         "--target", "3", "--fine", "1", "--output", os.devnull,
         "--certificate-out", str(cert)])
    doc = json.loads(cert.read_text())
    doc["end"] = [0, 2]
    cert.write_text(json.dumps(doc))
    assert run(["replay", str(cert)]) == 3


def test_ball_dot_output(tmp_path):
    out = tmp_path / "ball.dot"
    code = run(["ball", "--gallery", "hexagon_ex72", "--eps", "1", "--basepoint", "a",
                "--radius", "3", "--format", "dot", "--output", str(out)])
    assert code == 0
    assert out.read_text().startswith("graph cover_ball")


def test_gallery_dump_round_trip(tmp_path, capsys):
    out = tmp_path / "hex.json"
    assert run(["gallery", "hexagon_ex72", "--output", str(out)]) == 0
    sp = load_space(str(out))
    assert sp == hexagon_ex72().space
    doc = json.loads(out.read_text())
    assert doc["recommended_ladder"] == [{"eps": 3.0}, {"eps": 1.0}]
    # `analyze --space` reads the ladder the file carries; hexagon_ex73's
    # finest scale is a labelled pair list
    for spec in ("hexagon_ex72", "hexagon_ex73"):
        assert run(["gallery", spec, "--output", str(out)]) == 0
        assert run(["analyze", "--space", str(out), "--audit", "--output", str(tmp_path / "a.json")]) == 0
        assert run(["analyze", "--gallery", spec, "--audit", "--output", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    # `join` with no --fine takes the finest scale of the file's ladder
    reports = []
    for source in (["--space", str(out)], ["--gallery", "hexagon_ex73"]):
        assert run(["join", *source, "--pair", "a,b", "--target", "3", "--output", str(tmp_path / "j.json"),
                    "--certificate-out", str(tmp_path / "cert.json")]) == 0
        reports.append((tmp_path / "j.json").read_bytes())
    assert reports[0] == reports[1]
    # a malformed ladder is an input error, unless --ladder overrides it
    out.write_text(json.dumps(dict(doc, recommended_ladder=[{"eps": "x"}])))
    assert run(["analyze", "--space", str(out), "--output", os.devnull]) == 2
    assert run(["analyze", "--space", str(out), "--ladder", "3,1", "--output", os.devnull]) == 0
    # pairs next to an eps must be that scale
    e1 = [list(p) for p in entourage_at(sp, 1.0).pairs()]
    out.write_text(json.dumps(dict(doc, recommended_ladder=[{"eps": 3.0}, {"eps": 1.0, "pairs": [[0, 2]]}])))
    capsys.readouterr()
    assert run(["analyze", "--space", str(out), "--output", os.devnull]) == 2
    assert "the pairs are not the eps=1 scale" in capsys.readouterr().err
    out.write_text(json.dumps(dict(doc, recommended_ladder=[{"eps": 3.0}, {"eps": 1.0, "pairs": e1}])))
    assert run(["analyze", "--space", str(out), "--output", os.devnull]) == 0


def test_deterministic_reports(tmp_path):
    for args in (
        ["analyze", "--gallery", "hexagon_ex72", "--ladder", "3,1"],
        ["analyze", "--gallery", "solenoid:2", "--ladder", "auto"],
        ["join", "--gallery", "hexagon_ex72", "--pair", "a,b", "--target", "1", "--fine", "1"],
        ["cover", "--map", os.path.join(FIXTURES, "double_cover_map.json")],
    ):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        extra_a = ["--output", str(a)]
        extra_b = ["--output", str(b)]
        if args[0] == "join":
            extra_a += ["--certificate-out", str(tmp_path / "ca.json")]
            extra_b += ["--certificate-out", str(tmp_path / "cb.json")]
        run(args + extra_a)
        run(args + extra_b)
        assert a.read_bytes() == b.read_bytes()


def _compact(path) -> bool:
    """Is the file one line of sorted compact json?"""
    text = path.read_text()
    return text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


def test_reports_are_one_line_of_sorted_compact_json(tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"space": hexagon_ex72().space.to_json(), "seq": [0, 5, 4, 3, 2, 1], "eps": 1.0}))
    runs = [
        (["analyze", "--gallery", "hexagon_ex73", "--audit", "--certified-pairs", "3"], 0),
        (["cover", "--map", os.path.join(FIXTURES, "double_cover_map.json")], 0),
        (["join", "--gallery", "hexagon_ex72", "--pair", "a,b", "--target", "3", "--fine", "1"], 0),
        (["short", "--chain", str(chain), "--scale", "3"], 0),
        (["ball", "--gallery", "hexagon_ex72", "--eps", "1", "--radius", "3"], 0),
        (["gallery", "solenoid:2"], 0),
    ]
    written = []
    for k, (args, code) in enumerate(runs):
        out = tmp_path / f"report{k}.json"
        extra = ["--output", str(out)]
        if args[0] in ("join", "short"):
            cert = tmp_path / f"cert{k}.json"
            extra += ["--certificate-out", str(cert)]
            written.append(cert)
        assert run(args + extra) == code
        written.append(out)
    replayed = tmp_path / "replay.json"
    assert run(["replay", str(written[2]), "--output", str(replayed)]) == 0
    written.append(replayed)
    assert len(written) == 9
    for path in written:
        assert _compact(path), path


def test_certified_pairs_report_size(tmp_path):
    # 55 certificates at eps=3, where all 11 points are related: 368,208
    # bytes indented and with each certificate's pair list, 41,084 as one
    # compact line that writes the relation as its eps
    out = tmp_path / "cp.json"
    assert run(["analyze", "--gallery", "hexagon_ex73", "--certified-pairs", "3", "--output", str(out)]) == 0
    assert out.stat().st_size <= 45_000
    certs = [p["certificate"] for p in json.loads(out.read_text())["certified_pairs"]["pairs"] if "certificate" in p]
    assert len(certs) == 55
    assert all(c["entourage"] == {"n": 11, "eps": 3.0, "strict": False} for c in certs)


def test_report_digests_match_the_recorded_ones(tmp_path):
    # sha256 and exit code of each report, keyed by its argv with the map
    # files named relative to the fixtures; a change that alters report bytes
    # on purpose records the new digests here
    with open(os.path.join(FIXTURES, "report_digests.json")) as f:
        recorded = json.load(f)
    assert len(recorded) == 17
    out = tmp_path / "report.json"
    for key, want in recorded.items():
        args = key.split()
        if args[0] == "cover":
            args[-1] = os.path.join(FIXTURES, args[-1])
        code = run(args + ["--output", str(out)])
        assert [code, hashlib.sha256(out.read_bytes()).hexdigest()] == want, key


def test_replay_eps_certificates_with_and_without_a_pair_list(tmp_path, capsys):
    sp = hexagon_ex73().space
    e3 = entourage_at(sp, 3.0)
    doc = decide_homotopic(validate_chain(sp, e3, [0, 5, 4, 3, 2, 1]), validate_chain(sp, e3, [0, 1])).certificate.to_json()
    assert "pairs" not in doc["entourage"]
    cert, out = tmp_path / "cert.json", tmp_path / "replay.json"
    cert.write_text(json.dumps(doc))
    assert run(["replay", str(cert), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["scale"] == {"eps": 3.0, "strict": False}
    # the older format: the scale's pair list next to its eps still replays,
    # and a pair list that is not that scale does not
    doc["entourage"]["pairs"] = [list(p) for p in e3.pairs()]
    cert.write_text(json.dumps(doc))
    assert run(["replay", str(cert), "--output", str(out)]) == 0
    doc["entourage"]["pairs"] = doc["entourage"]["pairs"][1:]
    cert.write_text(json.dumps(doc))
    assert run(["replay", str(cert), "--output", os.devnull]) == 3
    # a relation given neither as a scale nor as pairs
    doc["entourage"] = {"n": sp.n}
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["replay", str(cert), "--output", os.devnull]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_analyze_audit_and_certified_pairs(tmp_path):
    out = tmp_path / "full.json"
    code = run([
        "analyze", "--gallery", "hexagon_ex73", "--ladder", "auto",
        "--audit", "--certified-pairs", "1", "--output", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["joinability_audit"]["kind"] == "uniform_joinability_audit"
    certified = {tuple(p) for p in doc["certified_pairs"]["certified"]}
    assert (0, 1) in certified  # the distinguished pair


def test_analyze_text_skips_json_only_work(tmp_path, monkeypatch, capsys):
    # the text table shows no audit, certified pairs or triangle counts, so
    # none is computed; --certified-pairs is still validated
    plain, full = tmp_path / "plain.txt", tmp_path / "full.txt"
    base = ["analyze", "--gallery", "hexagon_ex73", "--format", "text"]
    assert run(base + ["--output", str(plain)]) == 0
    called = []
    monkeypatch.setattr(cli, "uniform_joinability_audit", lambda *a: called.append("audit"))
    monkeypatch.setattr(cli, "g_entourage", lambda *a: called.append("certified_pairs"))
    monkeypatch.setattr(RipsSkeleton, "triangle_count", property(lambda sk: called.append("triangles")))
    assert run(base + ["--audit", "--certified-pairs", "1", "--output", str(full)]) == 0
    assert called == [] and full.read_bytes() == plain.read_bytes()
    assert _exit_code(base + ["--certified-pairs", "-1", "--output", str(full)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_ladder_count_range_spec(tmp_path):
    out = tmp_path / "r.json"
    code = run(["analyze", "--gallery", "hexagon_ex72", "--ladder", "3@3:1",
                "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert [s["scale"] for s in doc["scales"]] == ["eps=3", "eps=2", "eps=1"]
    assert run(["analyze", "--gallery", "hexagon_ex72", "--ladder", "1@3:1"]) == 2


def _join_certificate(tmp_path) -> dict:
    cert = tmp_path / "cert.json"
    run(["join", "--gallery", "hexagon_ex72", "--pair", "a,b",
         "--target", "3", "--fine", "1", "--output", os.devnull,
         "--certificate-out", str(cert)])
    return json.loads(cert.read_text())


@pytest.mark.parametrize("field,value", [
    ("moves", [["insert", "x", 2]]),
    ("moves", [["delete", 1.5]]),
    ("start", [0, "5", 1]),
    ("end", [0, None]),
])
def test_replay_non_integer_entries_exit_3(tmp_path, capsys, field, value):
    doc = _join_certificate(tmp_path)
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["replay", str(bad)]) == 3
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("path, value", [
    (("entourage",), {"n": 7, "pairs": [[0, 1]]}),  # a relation on more points than the space
    (("start",), [0, 9, 1]),  # a vertex out of range
    (("start",), [0, 3, 1]),  # a link 0-3 unrelated at eps=1
    (("entourage", "eps"), "1.0"),  # a scale given as a string
])
def test_replay_certificate_faults_exit_3(tmp_path, capsys, path, value):
    sp = hexagon_ex72().space
    doc = HomotopyCertificate(sp, entourage_at(sp, 1.0), (0, 1), (), (0, 1)).to_json()
    _set(doc, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["replay", str(bad)]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_replay_checks_relation_against_its_scale(tmp_path):
    sp = hexagon_ex73().space
    complete = Entourage.complete(sp.n)
    arc = validate_chain(sp, complete, [0, 5, 4, 3, 2, 1])  # the planar arc from a to b
    edge = validate_chain(sp, complete, [0, 1])
    doc = decide_homotopic(arc, edge).certificate.to_json()
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    out = tmp_path / "replay.json"
    assert run(["replay", str(cert), "--output", str(out)]) == 0  # an explicit relation
    assert json.loads(out.read_text())["scale"] is None
    # the same moves under the claim "this is eps=1 of the space": at eps=1
    # the arc is not short, and the pair list is not that scale
    doc["entourage"].update({"eps": 1.0, "strict": False})
    cert.write_text(json.dumps(doc))
    assert run(["replay", str(cert)]) == 3

    e3 = entourage_at(sp, 3.0)
    good = decide_homotopic(validate_chain(sp, e3, [0, 5, 4, 3, 2, 1]), validate_chain(sp, e3, [0, 1]))
    doc = good.certificate.to_json()
    assert doc["entourage"]["eps"] == 3.0 and doc["entourage"]["strict"] is False
    cert.write_text(json.dumps(doc))
    assert run(["replay", str(cert), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["scale"] == {"eps": 3.0, "strict": False}


def _space_file(tmp_path, doc) -> str:
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))  # json writes NaN / Infinity literals
    return str(path)


_NO_NUMPY_MA = """
import sys
from ripscover.cli import main
for argv in (["cover", "--map", sys.argv[1], "--output", sys.argv[2]],
             ["analyze", "--gallery", "polygon:12,1", "--audit", "--output", sys.argv[2]]):
    assert main(argv) in (0, 1), argv
assert "numpy.ma" not in sys.modules
"""


def _fresh_python(script: str, *args: str) -> str:
    """Run `script` in a fresh interpreter on this checkout; its stdout."""
    src = os.path.join(os.path.dirname(FIXTURES), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = [sys.executable, "-c", script, *args]
    return subprocess.run(argv, env=env, check=True, timeout=120, capture_output=True, text=True).stdout


def test_cli_paths_do_not_import_numpy_ma():
    # numpy.ma costs a fresh process about 15 ms to import, and np.unique
    # imports it; neither command may need it
    _fresh_python(_NO_NUMPY_MA, os.path.join(FIXTURES, "fold_map.json"), os.devnull)


_LOADED_LAYERS = """
import json, os, sys
import ripscover
import ripscover.cli as cli
def layers():
    return sorted(m for m in ("ripscover.chains", "ripscover.cover") if m in sys.modules)
seen = {"import": layers()}
from ripscover import *
seen["star import"] = layers()
assert cli.main(["analyze", "--gallery", "hawaiian:2,16", "--output", os.devnull]) == 0
seen["analyze"] = layers()
assert cli.main(["analyze", "--gallery", "hawaiian:2,16", "--audit", "--output", os.devnull]) == 0
seen["audit"] = layers()
print(json.dumps(seen))
"""


def test_commands_load_the_search_and_cover_layers_only_when_they_run_them():
    # every call is a fresh interpreter, so a layer a command never runs is
    # import time for nothing; a stray top-level import would undo that
    seen = json.loads(_fresh_python(_LOADED_LAYERS))
    assert seen == {
        "import": [],
        "star import": [],
        "analyze": [],
        "audit": ["ripscover.chains"],
    }


_HELP = """
import contextlib, io, json, sys
from ripscover.cli import main
out = {}
for command in ("", "analyze", "cover", "join", "short", "replay", "ball", "gallery"):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        try:
            main([command, "--help"] if command else ["--help"])
        except SystemExit as e:
            out[command] = [e.code, text.getvalue()]
out["layers"] = [m for m in ("ripscover.chains", "ripscover.cover") if m in sys.modules]
print(json.dumps(out))
"""


def test_help_works_without_the_search_layer():
    # --budget-states takes its default from SearchBudget, which lives
    # outside the search layer, so no help text imports it
    out = json.loads(_fresh_python(_HELP))
    assert out.pop("layers") == []
    assert set(out) == set(cli.build_parser()._subparsers._group_actions[0].choices) | {""}
    assert all(code == 0 and text.startswith("usage: ripscover") for code, text in out.values())
    assert "--budget-states" in out[""][1]


def test_readme_cli_examples_parse():
    # every command line of the README's CLI block, `\` continuations joined
    with open(os.path.join(os.path.dirname(FIXTURES), os.pardir, "README.md")) as fh:
        block = fh.read().split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    assert len(lines) >= 10 and all(argv[0] == "ripscover" for argv in lines)
    parser = cli.build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])


# the package's names, the H1-tower path, by the module that defines them
_PACKAGE_NAMES = {
    "errors": ["CarrierMismatch", "CertificateError", "ChainError", "MoveError", "RipscoverError",
               "ValidationError"],
    "gallery": ["GallerySpace", "gallery", "hawaiian", "hexagon_ex72", "hexagon_ex73", "polygon", "solenoid"],
    "rips": ["AbelianGroup", "H1Map", "RipsSkeleton", "build_skeleton", "h1", "h1_class", "inclusion_h1_map"],
    "space": ["Entourage", "FiniteSpace", "ScaleLadder", "SearchBudget", "SpaceMap", "ball", "compose",
              "dump_space", "entourage_at", "image_under", "load_space", "space_from_json"],
    "tower": ["JoinabilityVerdict", "TowerReport", "TruncatedGeneralizedPath", "build_tower", "g_entourage",
              "joinability_witness", "ml_diagnostic", "triviality_diagnostic", "uniform_joinability_audit"],
}
# the search and cover names, which the package does not export: importing it
# loads neither layer.  Each list is every public function and class its
# module defines, the names a trace of that layer wraps
_LAYER_NAMES = {
    "chains": ["Chain", "HomotopyCertificate", "Trivalue", "apply_move", "certificate_from_file",
               "close_chains_certificate", "decide_homotopic", "e_homotopic", "e_obstruction_at", "is_short",
               "validate_chain"],
    "cover": ["CoverBall", "build_cover_ball", "c2_check", "c3_check", "chain_lifting_at",
              "evenly_covers", "is_simplicial_cover", "transverse", "uniform_cover_verdict",
              "uniqueness_of_lifts"],
}


def test_package_exports_the_same_names_as_eager_imports_did():
    import importlib
    import inspect

    import ripscover
    import ripscover.gallery

    names = {name for module_names in _PACKAGE_NAMES.values() for name in module_names}
    assert len(names) == len(ripscover.__all__) == 41 and set(ripscover.__all__) == names
    for module, module_names in _PACKAGE_NAMES.items():
        mod = importlib.import_module(f"ripscover.{module}")
        for name in module_names:
            assert getattr(ripscover, name) is getattr(mod, name), name
    assert ripscover.gallery is importlib.import_module("ripscover.gallery").gallery  # the function
    star: dict = {}
    exec("from ripscover import *", star)
    assert names <= set(star) and names <= set(dir(ripscover))
    for module, module_names in _LAYER_NAMES.items():
        mod = importlib.import_module(f"ripscover.{module}")
        public = {name for name, obj in vars(mod).items()
                  if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                  and obj.__module__ == mod.__name__}
        assert set(module_names) == public, module
        for name in module_names:
            with pytest.raises(AttributeError):
                getattr(ripscover, name)
    with pytest.raises(AttributeError):
        ripscover.no_such_name


def test_nan_distance_exits_2(tmp_path, capsys):
    path = _space_file(tmp_path, {"labels": ["x", "y"], "dist": [[0.0, float("nan")], [float("nan"), 0.0]]})
    assert run(["analyze", "--space", path, "--ladder", "1"]) == 2
    assert "non-finite distance" in capsys.readouterr().err


def test_infinite_coordinate_exits_2(tmp_path, capsys):
    path = _space_file(tmp_path, {"labels": ["x", "y"], "coords": [[0.0, 0.0], [float("inf"), 1.0]]})
    assert run(["analyze", "--space", path, "--ladder", "1"]) == 2
    assert "coords must be finite" in capsys.readouterr().err


def test_memory_error_exits_2(monkeypatch, capsys):
    # an input too large to build (say polygon:1000000,1) runs out of memory
    # in numpy; that is an input error, not the CLI's "no"
    import ripscover.cli as cli

    def too_large(spec):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "make_gallery", too_large)
    assert run(["analyze", "--gallery", "polygon:1000000,1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_nan_eps_exits_2(capsys):
    # NaN fails every comparison, so it used to yield the identity relation
    assert run(["ball", "--gallery", "hexagon_ex72", "--eps", "nan", "--output", os.devnull]) == 2
    assert run(["ball", "--gallery", "hexagon_ex72", "--eps", "inf", "--output", os.devnull]) == 2
    assert "eps must be finite" in capsys.readouterr().err


def test_nan_ladder_threshold_exits_2(capsys):
    # NaN passes the "strictly decreasing" comparison
    assert run(["analyze", "--gallery", "hexagon_ex72", "--ladder", "3,nan,1"]) == 2
    assert "thresholds must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    "hawaiian:nan", "polygon:1e400,1", "hawaiian:-1e400", "hawaiian:3.9,16", "polygon:12.7,1",
    "solenoid:2.5", "hexagon_ex72:1.5", "solenoid:2,64,inf", "polygon:12,nan", "hexagon_ex73:5",
])
@pytest.mark.parametrize("command", ["gallery", "analyze"])
def test_malformed_gallery_spec_exits_2(capsys, spec, command):
    # counts are integers, never truncated reals, and reals are finite; the
    # spec is rejected before numpy sees a value
    argv = [command, spec] if command == "gallery" else [command, "--gallery", spec]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--output", os.devnull]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def _exit_code(argv) -> int:
    try:
        return run(argv)
    except SystemExit as e:  # argparse rejects an option value with exit 2
        return e.code


@pytest.mark.parametrize("budget", [
    ["--budget-states", "0"],
    ["--budget-states", "-5"],
])
@pytest.mark.parametrize("command", [
    ["analyze", "--gallery", "hexagon_ex72"],
    ["cover", "--map", os.path.join(FIXTURES, "identity_map.json")],
    ["ball", "--gallery", "hexagon_ex72", "--eps", "1"],
])
def test_malformed_search_budget_exits_2(tmp_path, capsys, budget, command):
    # rejected before any work, so no report echoes the bad budget
    out = tmp_path / "report.json"
    assert _exit_code([*budget, *command, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "at least 1" in err and "Traceback" not in err
    assert not out.exists()


def _identity_map() -> dict:
    with open(os.path.join(FIXTURES, "identity_map.json")) as fh:
        return json.load(fh)


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("case", [
    ["join", "--gallery", "hexagon_ex72", "--pair", "a,b", "--target", "abc", "--fine", "1"],
    ["ball", "--gallery", "hexagon_ex72", "--eps", "abc"],
    ["analyze", "--gallery", "hexagon_ex72", "--certified-pairs", "abc"],
    (("ladder", 0, "eps"), "abc"),
    (("ladder", 0), {"pairs": [[0]]}),
    (("ladder", 0), {"pairs": [[0, 1.5]]}),
    (("ladder",), 5),
    (("ladder", 0, "strict"), "false"),
    (("assign", 0), "x"),
    (("assign", 0), 0.5),
    (("source", "labels"), 5),
    (("source", "coords", 0), [1.0]),
])
def test_malformed_input_exits_2(tmp_path, capsys, case):
    # a command line, or one field of the identity map file replaced
    if isinstance(case, tuple):
        doc = _identity_map()
        _set(doc, *case)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        case = ["cover", "--map", str(bad), "--output", os.devnull]
    assert _exit_code(case) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, name, data", [
    (["cover", "--map"], "map.json", b"\xff\xfe\x00"),
    (["analyze", "--ladder", "1,0.5", "--space"], "space.json", b"\xff\xfe\x00"),
    (["analyze", "--space"], "space.csv", b"label,x,y\na,0,0\n\xff,1,0\n"),
], ids=["cover-json", "analyze-json", "analyze-csv"])
def test_input_that_is_not_utf8_exits_2(tmp_path, capsys, argv, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    assert _exit_code([*argv, str(path), "--output", os.devnull]) == 2
    err = capsys.readouterr().err
    assert "not UTF-8 text" in err and "Traceback" not in err


_HEXAGON_JOIN = ["join", "--gallery", "hexagon_ex72", "--target", "3"]


@pytest.mark.parametrize("argv, edit, code, ladder", [
    (["cover", "--ladder", "1.5,0.8"], None, 0, [1.5, 0.8]),  # the option overrides the file's ladder
    (["cover"], "space_paths", 0, [3.0, 1.0, 0.0]),  # both spaces named by a file path
    (["cover"], "no_ladder", 2, None),  # no ladder in the file and no --ladder
    ([*_HEXAGON_JOIN, "--pair", "a", "--fine", "1"], None, 2, None),  # one point, not a pair
    # no --fine: the finest scale of the gallery's ladder
    ([*_HEXAGON_JOIN, "--pair", "a,b", "--certificate-out", os.devnull], None, 0, None),
    (["join", "--pair", "a,b", "--target", "3"], "csv_space", 2, None),  # no --fine, and a csv has no ladder
])
def test_cover_and_join_input_paths(tmp_path, capsys, argv, edit, code, ladder):
    # a cover runs on the identity map file, edited as `edit` says
    if argv[0] == "cover":
        doc = _identity_map()
        if edit == "space_paths":
            for side in ("source", "target"):
                path = tmp_path / f"{side}.json"
                path.write_text(json.dumps(doc[side]))
                doc[side] = str(path)
        elif edit == "no_ladder":
            del doc["ladder"]
        path = tmp_path / "map.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, "--map", str(path)]
    elif edit == "csv_space":
        path = tmp_path / "space.csv"
        sp = hexagon_ex72().space
        rows = zip(sp.labels, sp.coords.tolist())
        path.write_text("label,x,y\n" + "".join(f"{lab},{x!r},{y!r}\n" for lab, (x, y) in rows))
        argv = [*argv, "--space", str(path)]
    out = tmp_path / "report.json"
    assert _exit_code([*argv, "--output", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert edit != "csv_space" or "pass --fine" in err
    if ladder is None:
        assert out.exists() == (code == 0)
    else:
        assert [s["eps"] for s in json.loads(out.read_text())["ladder"]] == ladder


_POINTS = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
_MAP_FIELDS = [
    ("source",), ("source", "labels"), ("source", "labels", 1), ("source", "coords"),
    ("source", "coords", 1), ("source", "coords", 1, 0), ("target", "coords", 2),
    ("target", "labels"), ("assign",), ("assign", 0), ("assign", 2), ("ladder",),
    ("ladder", 0), ("ladder", 0, "eps"), ("ladder", 1, "eps"), ("ladder", 0, "strict"),
    ("ladder", 1, "pairs"), ("ladder", 1, "label"),
]
_BAD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
    st.lists(st.one_of(st.integers(-1, 3), st.floats(-1, 3)), max_size=3),
    st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["eps", "pairs", "strict", "labels"]), st.integers(0, 2), max_size=2),
)


@settings(derandomize=True, max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(_MAP_FIELDS), value=_BAD_VALUES)
def test_map_loader_never_raises(tmp_path, path, value):
    # one field of a 3-point identity map replaced by a value of the wrong
    # shape or type: the command answers (0 or 1) or rejects the file (2)
    space = {"labels": ["p", "q", "r"], "coords": [list(row) for row in _POINTS]}
    doc = {"source": space, "target": json.loads(json.dumps(space)), "assign": [0, 1, 2],
           "ladder": [{"eps": 1.5}, {"eps": 1.0}]}
    _set(doc, path, value)
    bad = tmp_path / "map.json"
    bad.write_text(json.dumps(doc))
    assert _exit_code(["cover", "--map", str(bad), "--output", os.devnull]) in (0, 1, 2)


_SPACE_FIELDS = [  # (which metric the file gives, the field replaced)
    ("coords", ("labels",)), ("coords", ("labels", 1)), ("coords", ("coords",)),
    ("coords", ("coords", 1)), ("coords", ("coords", 1, 0)), ("coords", ("dist",)),
    ("coords", ("distinguished",)), ("coords", ("distinguished", "p")),
    ("dist", ("dist",)), ("dist", ("dist", 1)), ("dist", ("dist", 1, 2)), ("dist", ("dist", 0, 0)),
    ("dist", ("coords",)), ("dist", ("labels", 2)), ("dist", ("distinguished", "q")),
]


@settings(derandomize=True, max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(_SPACE_FIELDS), value=_BAD_VALUES)
def test_space_loader_never_raises(tmp_path, capsys, field, value):
    # one field of a 3-point space file replaced by a value of the wrong shape
    # or type: analyze reports (0 or 1) or rejects the file (2), no traceback
    metric, path = field
    doc = {"labels": ["p", "q", "r"], "distinguished": {"p": 0}}
    if metric == "coords":
        doc["coords"] = [list(row) for row in _POINTS]
    else:
        doc["dist"] = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.5], [1.0, 1.5, 0.0]]
    _set(doc, path, value)
    bad = tmp_path / "space.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert _exit_code(["analyze", "--space", str(bad), "--ladder", "1.5,1", "--output", os.devnull]) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


def _points_space() -> dict:
    return {"labels": ["p", "q", "r"], "coords": [list(row) for row in _POINTS]}


_CHAIN_FIELDS = [
    ("space",), ("space", "labels"), ("space", "coords"), ("space", "coords", 2),
    ("space", "coords", 2, 1), ("seq",), ("seq", 0), ("seq", 1), ("seq", 2), ("eps",),
]


@settings(derandomize=True, max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(_CHAIN_FIELDS), value=_BAD_VALUES)
def test_chain_file_never_raises(tmp_path, capsys, path, value):
    # one field of a chain file replaced by a value of the wrong shape or
    # type: short answers (0 or 1) or rejects the file (2), no traceback
    doc = {"space": _points_space(), "seq": [0, 2, 1], "eps": 1.5}
    _set(doc, path, value)
    bad = tmp_path / "chain.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    argv = ["short", "--chain", str(bad), "--scale", "1.5",
            "--certificate-out", str(tmp_path / "cert.json"), "--output", os.devnull]
    assert _exit_code(argv) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


_CERTIFICATE_FIELDS = [
    ("kind",), ("space",), ("space", "coords", 0), ("space", "labels", 1), ("entourage",),
    ("entourage", "n"), ("entourage", "pairs"), ("entourage", "pairs", 0),
    ("entourage", "pairs", 0, 1), ("entourage", "eps"), ("entourage", "strict"), ("start",),
    ("start", 0), ("start", 1), ("moves",), ("moves", 0), ("moves", 0, 0), ("moves", 0, 1),
    ("moves", 0, 2), ("moves", 1), ("moves", 1, 1), ("end",), ("end", 1),
]


def _certificate_doc(listed: bool) -> dict:
    """A replayable eps certificate; `listed` adds the scale's pair list
    next to its eps, as older certificates carry it."""
    space = space_from_json(_points_space())
    cert = HomotopyCertificate(space, entourage_at(space, 1.5), (0, 1), (("insert", 1, 2), ("delete", 1)), (0, 1))
    cert.replay()
    doc = cert.to_json()
    if listed:
        doc["entourage"]["pairs"] = [list(p) for p in cert.entourage.pairs()]
    return doc


@settings(derandomize=True, max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(_CERTIFICATE_FIELDS), value=_BAD_VALUES, listed=st.booleans())
def test_certificate_file_never_raises(tmp_path, capsys, path, value, listed):
    # one field of a replayable certificate, with or without a pair list
    # next to its eps, replaced by a value of the wrong shape or type:
    # replay accepts (0) or rejects the certificate (3), no traceback
    doc = _certificate_doc(listed or path[:2] == ("entourage", "pairs"))
    _set(doc, path, value)
    bad = tmp_path / "cert.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert _exit_code(["replay", str(bad), "--output", os.devnull]) in (0, 3)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("name, index", [("b", 1), ("6", 6)])
def test_certified_pairs_start_at_the_basepoint(tmp_path, name, index):
    # a label, or a digit string read as a point index
    out = tmp_path / "report.json"
    assert run(["analyze", "--gallery", "hexagon_ex73", "--basepoint", name, "--certified-pairs", "1",
                "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["basepoint"] == doc["certified_pairs"]["basepoint"] == index


@pytest.mark.parametrize("strict, sep", [([], "="), (["--strict-thresholds"], "<")])
def test_join_names_its_scales_as_analyze_does(tmp_path, strict, sep):
    out, cert = tmp_path / "join.json", tmp_path / "cert.json"
    assert run(strict + ["join", "--gallery", "hexagon_ex73", "--pair", "a,b", "--target", "3", "--fine", "1.5",
                         "--output", str(out), "--certificate-out", str(cert)]) == 0
    doc = json.loads(out.read_text())
    names = [f"eps{sep}3", f"eps{sep}1.5"]
    assert [doc["target"], doc["fine"]] == doc["witness"]["scales"] == names
    assert run(strict + ["analyze", "--gallery", "hexagon_ex73", "--ladder", "3,1.5", "--output", str(out)]) == 0
    assert [s["scale"] for s in json.loads(out.read_text())["scales"]] == names


def test_ball_past_its_budget_is_approximate(tmp_path):
    # at two states some class comparisons end unknown, and an unknown
    # comparison keeps its two chains as distinct vertices
    out = tmp_path / "ball.json"
    args = ["ball", "--gallery", "hexagon_ex73", "--eps", "1", "--radius", "4", "--output", str(out)]
    assert run(["--budget-states", "2"] + args) == 0
    doc = json.loads(out.read_text())
    assert (len(doc["vertices"]), doc["approximate"]) == (22, True)
    assert run(args) == 0
    doc = json.loads(out.read_text())
    assert (len(doc["vertices"]), doc["approximate"]) == (14, False)


def test_short_command_with_unrelated_endpoints(tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"space": hexagon_ex72().space.to_json(), "seq": [0, 1, 2], "eps": 1.0}))
    out = tmp_path / "short.json"
    assert run(["short", "--chain", str(chain), "--scale", "1", "--output", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "no" and doc["obstruction"] == {"kind": "endpoints", "pair": [0, 2]}


def test_benchmark_entry_points_keep_their_names(tmp_path, monkeypatch):
    # perfbench/job.py builds its inputs through the package, rebinds the two
    # loaders below and calls cli.main; perfbench/tracer.py reads the names
    # checked after that off the package's calls.  A rename would show only
    # as a failed benchmark run.
    import inspect

    import ripscover
    from ripscover.cover import c2_check
    from ripscover.tower import joinability_witness

    g = hexagon_ex73()
    space = ripscover.space_from_json(g.space.to_json())
    prebuilt = ripscover.GallerySpace(space, ripscover.ScaleLadder.from_json(space, g.ladder.to_json()))
    with open(os.path.join(FIXTURES, "fold_map.json")) as fh:
        doc = json.load(fh)
    source, target = (ripscover.space_from_json(doc[k]) for k in ("source", "target"))
    fold = ripscover.SpaceMap(source, target, doc["assign"])
    monkeypatch.setattr(cli, "make_gallery", lambda name: prebuilt)
    monkeypatch.setattr(cli, "_load_map", lambda path: (fold, doc["ladder"]))
    built = []
    real_init = RipsSkeleton.__init__

    def init(*args, **kwargs):
        real_init(*args, **kwargs)
        built.append((len(args[0].edges), len(args[0].triangles)))

    monkeypatch.setattr(RipsSkeleton, "__init__", init)
    out = tmp_path / "report.json"
    assert main(["analyze", "--gallery", "input", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["ladder"] == g.ladder.to_json()
    assert main(["cover", "--map", "input", "--output", str(out)]) == 1  # the fold is no cover
    assert json.loads(out.read_text())["kind"] == "cover_report"
    assert built

    e3 = entourage_at(space, 3.0)
    res = decide_homotopic(validate_chain(space, e3, [0, 5, 4, 3, 2, 1]), validate_chain(space, e3, [0, 1]))
    assert res.kind == "yes" and len(res.certificate.moves) > 0
    fold_ladder = ripscover.ScaleLadder.from_json(source, doc["ladder"])
    assert type(c2_check(fold, fold_ladder[0], fold_ladder[1])["examined"]) is int
    bound = inspect.signature(joinability_witness).bind(space, 0, 1, e3, prebuilt.ladder.finest()).arguments
    assert (bound["x"], bound["y"], bound["target"], bound["fine"]) == (0, 1, e3, prebuilt.ladder.finest())
