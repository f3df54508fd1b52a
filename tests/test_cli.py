import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ripscover.chains import Delete, HomotopyCertificate, Insert, decide_homotopic, validate_chain
from ripscover.cli import main
from ripscover.gallery import hexagon_ex72, hexagon_ex73
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


def test_replay_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"kind\": \"homotopy_certificate\"}")
    assert run(["replay", str(bad)]) == 3
    worse = tmp_path / "worse.json"
    worse.write_text("not json")
    assert run(["replay", str(worse)]) == 3
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


def test_gallery_dump_round_trip(tmp_path):
    out = tmp_path / "hex.json"
    assert run(["gallery", "hexagon_ex72", "--output", str(out)]) == 0
    sp = load_space(str(out))
    assert sp == hexagon_ex72().space
    doc = json.loads(out.read_text())
    assert doc["recommended_ladder"] == [{"eps": 3.0}, {"eps": 1.0}]


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


def test_cli_paths_do_not_import_numpy_ma():
    # numpy.ma costs a fresh process about 15 ms to import, and np.unique
    # imports it; neither command may need it
    src = os.path.join(os.path.dirname(FIXTURES), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = [sys.executable, "-c", _NO_NUMPY_MA, os.path.join(FIXTURES, "fold_map.json"), os.devnull]
    subprocess.run(argv, env=env, check=True, timeout=120)


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


def _exit_code(argv) -> int:
    try:
        return run(argv)
    except SystemExit as e:  # argparse rejects an option value with exit 2
        return e.code


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


def _certificate_doc() -> dict:
    space = space_from_json(_points_space())
    cert = HomotopyCertificate(space, entourage_at(space, 1.5), (0, 1), (Insert(1, 2), Delete(1)), (0, 1))
    cert.replay()
    return cert.to_json()


@settings(derandomize=True, max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(_CERTIFICATE_FIELDS), value=_BAD_VALUES)
def test_certificate_file_never_raises(tmp_path, capsys, path, value):
    # one field of a replayable certificate replaced by a value of the wrong
    # shape or type: replay accepts (0), rejects the input (2) or the
    # certificate (3), no traceback
    doc = _certificate_doc()
    _set(doc, path, value)
    bad = tmp_path / "cert.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert _exit_code(["replay", str(bad), "--output", os.devnull]) in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
