"""Output checks: invariants in reference labelling, verdict flips, replay.

`invariants` reads a report back into the reference labelling through the
inverse permutations.  Its "exact" part must equal the recorded one.  Its
"verdicts" part maps each semi-decidable answer to yes / no / unknown:
budget-limited answers may shift between labellings, but a definite yes
never becomes a no or the other way round.  `replay_certificates` re-runs
every certificate against a relation this file recomputes from the input
coordinates, never against the relation stored in the report.
"""

from __future__ import annotations

import copy

import numpy as np


def _pair_key(pair, inv) -> str:
    a, b = sorted((inv[pair[0]], inv[pair[1]]))
    return f"{a},{b}"


def _snf(matrix) -> list[int]:
    """Nonzero invariant factors of an integer matrix, by plain elimination."""
    a = [[int(v) for v in row] for row in matrix]
    m, k = len(a), len(a[0]) if a else 0
    out = []
    for t in range(min(m, k)):
        while True:
            nz = [(abs(a[i][j]), i, j) for i in range(t, m) for j in range(t, k) if a[i][j]]
            if not nz:
                return out
            _, i, j = min(nz)
            a[t], a[i] = a[i], a[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
            p = a[t][t]
            for i in range(t + 1, m):
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, k):
                q = a[t][j] // p
                for row in a:
                    row[j] -= q * row[t]
            if any(a[i][t] for i in range(t + 1, m)) or any(a[t][j] for j in range(t + 1, k)):
                continue  # remainders below |p| remain: pick a smaller pivot
            bad = next((i for i in range(t + 1, m) for j in range(t + 1, k) if a[i][j] % p), None)
            if bad is None:
                out.append(abs(p))
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
    return out


def _tower(report, inv) -> dict:
    return {
        "basepoint": inv[report["basepoint"]],
        "scales": [[s["scale"], s["rank"], s["torsion"], s["components"], s["component_size"]]
                   for s in report["scales"]],
        "bonding_snf": [b["snf"] for b in report["bondings"]],
        "bonding_snf_recomputed": [_snf(b["matrix"]) for b in report["bondings"]],
        "mittag_leffler": [[d["status"], d.get("at")] for d in report["diagnostics"]["mittag_leffler"]],
        "triviality": [[d["status"], d.get("at")] for d in report["diagnostics"]["triviality"]],
        "skeletons": [[s["scale"], s["edges"], s["triangles"]] for s in report["skeletons"]],
        "images": sorted(report["images"]),
    }


def _audit(audit, inv, verdicts: dict) -> list:
    """Cell shapes; the pairs a cell lists as failures, by reference key."""
    cells = []
    for c in audit["cells"]:
        failed = {_pair_key(f["pair"], inv): f["verdict"] for f in c["failures"]}
        cells.append([c["scale"], c["fine"], c["pairs"],
                      c["witnessed"] == c["pairs"] - len(failed),
                      c["fully_supported"] == (c["witnessed"] == c["pairs"])])
        for key, kind in failed.items():
            verdicts[f"audit|{c['scale']}|{c['fine']}|{key}"] = kind
    return cells


def _c2_class(c2: dict) -> str:
    status = c2["status"]
    if status == "proved":
        return "yes"
    if status == "refuted":
        return "no"
    return "unknown" if c2.get("note") == "budget exhausted" else "clear"


def invariants(report: dict, command: str, inv: dict) -> dict:
    """Label-free content of a report, keyed by reference point indices."""
    answers = 0
    verdicts: dict = {}  # absent keys are yes: the audit lists only its failures
    if command == "analyze":
        sp = inv["space"]
        exact = _tower(report, sp)
        if "joinability_audit" in report:
            exact["audit_cells"] = _audit(report["joinability_audit"], sp, verdicts)
            answers += sum(c["pairs"] for c in report["joinability_audit"]["cells"])
        if "certified_pairs" in report:
            cp = report["certified_pairs"]
            answers += len(cp["pairs"])
            for p in cp["pairs"]:
                verdicts[f"certified|{_pair_key(p['pair'], sp)}"] = p["verdict"]
            exact["certified_consistent"] = sorted(
                _pair_key(p, sp) for p in cp["certified"]
            ) == sorted(_pair_key(p["pair"], sp) for p in cp["pairs"] if p["verdict"] == "yes")
    else:
        exact = {
            "verdicts": report["verdicts"],
            "implications": report["implications"],
            "per_scale": [[s["scale"], s["transverse"], s["evenly_covers"], s["simplicial_cover"],
                           s["uniqueness_of_lifts"], s["generates_witness"]]
                          for s in report["per_scale"]],
            "per_pair": [[p["scale"], p["fine"], p["chain_lifting"], p["c3"],
                          p["c2"]["status"] == "proved"] for p in report["per_pair"]],
        }
        for p in report["per_pair"]:
            verdicts[f"c2|{p['scale']}|{p['fine']}"] = _c2_class(p["c2"])
        answers += len(report["per_pair"])
    exact["answers"] = answers
    return {"exact": exact, "verdicts": verdicts}


DEFINITE = {"yes", "no"}


def compare(expected: dict, actual: dict) -> list[str]:
    """Mismatches between recorded and observed invariants."""
    problems = []
    for key, want in expected["exact"].items():
        got = actual["exact"].get(key)
        if got != want:
            problems.append(f"{key}: expected {want!r}, got {got!r}")
    want_v, got_v = expected["verdicts"], actual["verdicts"]
    for key in sorted(set(want_v) | set(got_v)):
        a, b = want_v.get(key, "yes"), got_v.get(key, "yes")
        if a != b and ({a, b} <= DEFINITE or {a, b} == {"no", "clear"}):
            problems.append(f"verdict flip at {key}: expected {a}, got {b}")
    return problems


def unknown_answers(inv: dict) -> tuple[int, int]:
    """(answers left unknown, all semi-decidable answers) in one report."""
    return sum(v == "unknown" for v in inv["verdicts"].values()), inv["exact"]["answers"]


def relation(space: dict, eps: float) -> np.ndarray:
    """Closed eps relation on the input coordinates, computed independently."""
    coords = np.asarray(space["coords"], dtype=float)
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    dist = (dist + dist.T) / 2.0
    return dist <= eps


def replay(cert: dict, rel: np.ndarray) -> str | None:
    """None when the move list turns start into end under `rel`, else why not."""
    n = len(rel)
    seq = [int(v) for v in cert["start"]]
    if not all(0 <= v < n for v in seq) or any(not rel[u, v] for u, v in zip(seq, seq[1:])):
        return "start chain is not valid at the scale"
    for move in cert["moves"]:
        if move[0] == "insert":
            pos, v = int(move[1]), int(move[2])
            if not (0 < pos <= len(seq) - 1 and 0 <= v < n
                    and rel[seq[pos - 1], v] and rel[v, seq[pos]]):
                return f"illegal move {move}"
            seq.insert(pos, v)
        elif move[0] == "delete":
            pos = int(move[1])
            if not (0 < pos < len(seq) - 1 and rel[seq[pos - 1], seq[pos + 1]]):
                return f"illegal move {move}"
            del seq[pos]
        else:
            return f"unknown move {move}"
    if seq != [int(v) for v in cert["end"]]:
        return "moves do not end at the declared chain"
    return None


def replay_certificates(report: dict, inputs: dict, flags: tuple) -> list[str]:
    """Replay every yes certificate of the certified-pair relation."""
    if "certified_pairs" not in report:
        return []
    eps = float(flags[flags.index("--certified-pairs") + 1])
    rel = relation(inputs["space"], eps)
    problems = []
    for p in report["certified_pairs"]["pairs"]:
        if p["verdict"] != "yes":
            continue
        cert, (x, y) = p.get("certificate"), p["pair"]
        if cert is None:
            problems.append(f"yes for {p['pair']} carries no certificate")
            continue
        if cert["space"]["coords"] != inputs["space"]["coords"]:
            problems.append(f"certificate for {p['pair']} names another space")
        elif cert["start"][0] != x or cert["start"][-1] != y or cert["end"] != [x, y]:
            problems.append(f"certificate for {p['pair']} joins the wrong chains")
        else:
            why = replay(cert, rel)
            if why:
                problems.append(f"certificate for {p['pair']}: {why}")
    return problems


def check_report(report: dict, job, inputs: dict, inv: dict, expected: dict) -> list[str]:
    problems = compare(expected, invariants(report, job.command, inv))
    return problems + replay_certificates(report, inputs, job.flags)


def planted_faults(report: dict, command: str, inv: dict, expected: dict) -> dict[str, dict]:
    """Copies of a correct report, each with one planted fault."""
    faults = {}
    if command == "cover":
        bad = copy.deepcopy(report)
        v = bad["verdicts"]
        v["uniform_covering_map_at_ladder"] = not v["uniform_covering_map_at_ladder"]
        faults["flipped cover verdict"] = bad
        return faults
    bad = copy.deepcopy(report)
    bad["scales"][-1]["torsion"] = bad["scales"][-1]["torsion"] + [2]
    faults["changed torsion factor"] = bad
    bad = copy.deepcopy(report)
    diag = bad["diagnostics"]["triviality"][0]
    diag["status"] = "not_within_ladder" if diag["status"] == "trivial_at" else "trivial_at"
    faults["flipped triviality status"] = bad
    pairs = report.get("certified_pairs", {}).get("pairs", [])
    for i, p in enumerate(pairs):
        key = f"certified|{_pair_key(p['pair'], inv['space'])}"
        if p["verdict"] != "yes" or expected["verdicts"].get(key) != "yes" or not p["certificate"]["moves"]:
            continue
        bad = copy.deepcopy(report)
        moves = bad["certified_pairs"]["pairs"][i]["certificate"]["moves"]
        moves[0] = ["delete", moves[0][1]] if moves[0][0] == "insert" else ["insert", moves[0][1], 0]
        faults["corrupted certificate move"] = bad
        bad = copy.deepcopy(report)
        flipped = bad["certified_pairs"]["pairs"][i]
        flipped["verdict"] = "no"
        del flipped["certificate"]
        faults["flipped certified-pair verdict"] = bad
        break
    return faults
