"""ripscover benchmark: drives the CLI one job at a time and checks every report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Run from the root of a checkout; the program is imported from `src/`.  A
workload is a batch of CLI jobs (see inputs.py).  The runner is a closed
loop with one client: each job is a fresh interpreter (cold caches, as for
a CLI user), launched only after the previous one exited.  A round runs
the whole batch on one relabelling of the inputs; each round takes a new
relabelling of the seed while the next round still fits in --seconds, and
a last round repeats the first relabelling, so each run averages over
several relabellings and still checks that a report is byte-identical when
its inputs repeat.

--trace 0 prints the end-to-end metrics, medians over rounds:
  wall_s       launch of the first job to exit of the last, per round
  setup_s      per job, launch until ripscover is imported and the inputs
               are built and validated, summed over the round
  peak_rss_mb  largest max-RSS of any job process
  decided_frac share of semi-decidable answers that are not unknown

--trace 1 runs each relabelling untraced and then traced, and prints the
per-layer metrics of layers.py, medians over the traced rounds, plus the
tracing overhead.

Every report is checked against expected.json (recorded on the reference
labelling with --record); a job that fails any check counts in `failed`.
The last line of stdout is the result object; the line before it records
the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import check
import inputs
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB = HERE / "job.py"
EXPECTED = HERE / "expected.json"
DEADLINE_S = 170.0  # a run never outlives this, measured from its start

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "decided_frac": "ratio"}


@dataclass
class JobRun:
    job: inputs.Job
    variant: int
    wall_s: float
    setup_s: float
    inproc_s: float
    rss_mb: float
    rc: int | None
    report: bytes | None
    spans: Path | None
    stderr: str


@dataclass
class Case:
    """One job on one relabelling: its inputs, inverse permutations and spec file."""

    inputs: dict
    inverse: dict
    spec: Path


class Runner:
    """Owns one workload's relabelled inputs and its scratch directory."""

    def __init__(self, jobs: list[inputs.Job], seed: int | None, workdir: Path, deadline: float):
        self.jobs = jobs
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("PYTHONOPTIMIZE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(HERE)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.seed = seed
        self.cases: dict[tuple[int, str], Case] = {}
        self.count = 0

    def case(self, variant: int, job: inputs.Job) -> Case:
        """The job's inputs under relabelling `variant` of the seed, made on first use."""
        key = (variant, job.name)
        if key not in self.cases:
            doc, perms = inputs.relabel(job, self.seed, variant)
            spec = self.workdir / f"{job.name}.{variant}.spec.json"
            spec.write_text(json.dumps({"command": job.command, "options": list(job.options),
                                        "flags": list(job.flags), "inputs": doc}))
            inverse = {role: inputs.inverse(p) for role, p in perms.items()}
            self.cases[key] = Case(doc, inverse, spec)
        return self.cases[key]

    def warm_up(self) -> None:
        """Compile the package's bytecode once; CLI users do not pay that per run."""
        subprocess.run([sys.executable, "-c", "import ripscover.cli, tracer"], env=self.env,
                       check=True, timeout=max(1.0, self.deadline - time.monotonic()))

    def launch(self, job: inputs.Job, variant: int, traced: bool) -> JobRun:
        self.count += 1
        report, meta, spans, err = (self.workdir / f"{job.name}-{self.count}.{ext}"
                                    for ext in ("report", "meta", "spans", "err"))
        argv = [sys.executable, str(JOB), str(self.case(variant, job).spec), str(report), str(meta)]
        if traced:
            argv.append(str(spans))
        with open(err, "wb") as errfh:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=errfh)
            killer = threading.Timer(max(0.0, self.deadline - t0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                t1 = time.monotonic()
                killer.cancel()
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        times = json.loads(meta.read_text()) if meta.exists() else None
        run = JobRun(
            job=job,
            variant=variant,
            wall_s=t1 - t0,
            setup_s=times["t_ready"] - t0 if times else float("nan"),
            inproc_s=times["t_done"] - times["t_imported"] if times else float("nan"),
            rss_mb=usage.ru_maxrss / 1024.0,
            rc=rc if times else None,
            report=report.read_bytes() if report.exists() else None,
            spans=spans if traced and spans.exists() else None,
            stderr=err.read_text(errors="replace")[-2000:],
        )
        for path in (report, meta, err):
            path.unlink(missing_ok=True)
        return run

    def batch(self, variant: int, traced: bool) -> list[JobRun]:
        return [self.launch(job, variant, traced) for job in self.jobs]


def check_job(run: JobRun, runner: Runner, expected: dict, digests: dict) -> list[str]:
    """Every problem with one job's outcome; empty when it is correct."""
    want = expected[run.job.name]
    if run.rc is None or run.report is None:
        return [f"job did not finish (exit {run.rc}): {run.stderr.strip()[-300:]}"]
    problems = []
    if run.rc != want["rc"]:
        problems.append(f"exit code {run.rc}, expected {want['rc']}")
    digest = hashlib.sha256(run.report).hexdigest()
    if digests.setdefault((run.variant, run.job.name), digest) != digest:
        problems.append("report differs from an earlier run of the same inputs")
    case = runner.case(run.variant, run.job)
    try:
        problems += check.check_report(json.loads(run.report), run.job, case.inputs, case.inverse, want)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        problems.append(f"malformed report: {e!r}")
    return problems


def self_test(run: JobRun, runner: Runner, expected: dict) -> list[str]:
    """Faults the checker missed when planted into a report it passed."""
    case = runner.case(run.variant, run.job)
    missed = []
    want = expected[run.job.name]
    for fault, bad in check.planted_faults(json.loads(run.report), run.job.command, case.inverse, want).items():
        if check.check_report(bad, run.job, case.inputs, case.inverse, want):
            print(f"self-test: planted {fault} in {run.job.name}: caught", file=sys.stderr)
        else:
            missed.append(fault)
    return missed


def measure(runner: Runner, seconds: float, traced: bool) -> tuple[list, list]:
    """Untraced and traced rounds, each on its own relabelling, for `seconds`.

    A traced run takes each relabelling untraced and then traced, so the
    overhead compares rounds on the same inputs and the traced round is
    the repeat.  An untraced run ends with a repeat of its first round.
    """
    untraced, traced_rounds = [], []
    start = time.monotonic()
    variant = 0
    while True:
        rounds = [runner.batch(variant, False)] + ([runner.batch(variant, True)] if traced else [])
        untraced.append(rounds[0])
        traced_rounds.extend(rounds[1:])
        variant += 1
        took = sum(round_wall(b) for b in rounds)
        now = time.monotonic()
        if any(r.rc is None for b in rounds for r in b) or now + 1.5 * took > runner.deadline:
            return untraced, traced_rounds
        if now + took > start + seconds:
            break
    if not traced:
        untraced.append(runner.batch(0, False))
    return untraced, traced_rounds


def round_wall(batch: list[JobRun]) -> float:
    return sum(r.wall_s for r in batch)


def end_to_end(batches: list[list[JobRun]], unknown: int, answers: int) -> dict:
    return {
        "wall_s": statistics.median(round_wall(b) for b in batches),
        "setup_s": statistics.median(sum(r.setup_s for r in b) for b in batches),
        "peak_rss_mb": max(r.rss_mb for b in batches for r in b),
        "decided_frac": 1.0 - unknown / answers if answers else 1.0,
    }


def per_layer(untraced: list, traced: list) -> dict:
    rows = [layers.batch_metrics([r.spans for r in b], sum(r.inproc_s for r in b)) for b in traced]
    out = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
    wall = statistics.median(round_wall(b) for b in untraced)
    out["trace.overhead_frac"] = statistics.median(round_wall(b) for b in traced) / wall - 1
    return out


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path, deadline: float) -> int:
    expected = json.loads(EXPECTED.read_text())
    runner = Runner(inputs.workloads()[name], seed, workdir, deadline)
    runner.warm_up()
    untraced, traced = measure(runner, seconds, trace)
    digests: dict = {}
    attempted = failed = unknown = answers = 0
    for run in (r for b in untraced + traced for r in b):
        attempted += 1
        problems = check_job(run, runner, expected, digests)
        if problems:
            failed += 1
            print(f"FAIL {run.job.name}: " + "; ".join(problems[:5]), file=sys.stderr)
        else:
            inv = runner.case(run.variant, run.job).inverse
            u, a = check.unknown_answers(check.invariants(json.loads(run.report), run.job.command, inv))
            unknown, answers = unknown + u, answers + a
    missed = [] if failed else [m for r in untraced[0] for m in self_test(r, runner, expected)]
    for fault in missed:
        print(f"self-test: planted fault not caught: {fault}", file=sys.stderr)
    if trace and traced and not failed:
        values = per_layer(untraced, traced)
        metrics = {k: {"value": v, "unit": layers.unit_of(k)} for k, v in sorted(values.items())}
    else:
        values = end_to_end(untraced, unknown, answers)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(f"rounds: {len(untraced)} untraced, {len(traced)} traced, {len(runner.jobs)} jobs each; "
          f"round walls {[round(round_wall(b), 3) for b in untraced + traced]}", file=sys.stderr)
    print(json.dumps({"environment": {**environment(seed), "workload": name}}))
    print(json.dumps({"correct": failed == 0 and not missed, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def record(workdir: Path, deadline: float) -> int:
    """Write expected.json from one run of every job on the reference labelling."""
    out = {}
    for name, jobs in inputs.workloads().items():
        runner = Runner(jobs, None, workdir, deadline)
        for run in runner.batch(0, False):
            if run.report is None:
                raise SystemExit(f"{run.job.name} produced no report: {run.stderr}")
            inv = check.invariants(json.loads(run.report), run.job.command,
                                   runner.case(run.variant, run.job).inverse)
            out[run.job.name] = {"rc": run.rc, **inv}
            print(f"recorded {run.job.name} (exit {run.rc}, {run.wall_s:.2f} s)", file=sys.stderr)
    EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    if not __debug__ or sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        print("refusing to run under python -O: it strips the certificate replay in "
              "decide_homotopic, so the timings would measure a different program", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(inputs.workloads()))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite expected.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ripscover" / "__init__.py").is_file():
        print(f"no ripscover sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.record:
            return record(workdir, deadline)
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
