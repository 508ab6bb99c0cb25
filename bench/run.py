"""Benchmark of detcal's synth -> run -> report and ingest pipeline.

Run from the root of a checkout; the program is run from `src/`:

    python3 bench/run.py --workload desk --seed 0 --seconds 15 --trace 0

With `--trace 0` the benchmark makes the workload's inputs with the
program (set-up, timed several times), then runs the timed pipeline
through the `detcal` command line in child processes, over and over for
`--seconds` seconds. The first pass's outputs are checked against
computations made apart from the program (bench/checks.py); every later
pass must write the same bytes. With `--trace 1` the same commands run
inside this process with the program's module attributes wrapped by
timers (bench/trace_layers.py), and the per-layer metrics are printed instead.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. An operation is one pass of the timed pipeline; it
fails when a command exits non-zero or its outputs fail a check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3

# Make-up of each workload's inputs: categories C, systems and scenes T per
# system, and the run stage's worker count. Where a pool runs, "systems" is
# a multiple of its workers so the slowest worker does not set the run
# stage's time. bulk_baselines runs in one process: its tasks take
# milliseconds each, so with a pool the parent and two workers trade tasks
# one at a time on the two cores and the stage time measures the scheduler.
WORKLOADS = {
    "desk": {"categories": 5, "systems": 4, "scenes": 75, "models": None, "jobs": 2},
    "wide": {"categories": 8, "systems": 4, "scenes": 30, "models": None, "jobs": 2},
    "bulk_baselines": {"categories": 5, "systems": 150, "scenes": 75,
                       "models": "threshold,fixed_prior", "jobs": 1},
    "long_ingest": {"categories": 5, "systems": 1, "scenes": 300, "models": None,
                    "jobs": 1},
}
ALL_MODELS = ("online", "retrospective", "threshold", "fixed_prior")


def vocabulary(categories: int) -> str:
    return ",".join(f"cat{i:02d}" for i in range(categories))


def setup_argv(workload: str, seed: int, inputs: Path) -> list:
    """Command line (after the interpreter) that makes the workload's inputs."""
    w = WORKLOADS[workload]
    if workload == "long_ingest":
        return [str(BENCH / "export_log.py"), "--seed", str(seed), "--out", str(inputs),
                "--categories", str(w["categories"]), "--scenes", str(w["scenes"])]
    return ["-m", "detcal.cli", "synth", "--out", str(inputs / "corpus.jsonl"),
            "--systems", str(w["systems"]), "--categories", str(w["categories"]),
            "--world-states", str(w["scenes"]), "--seed", str(seed)]


def pipeline(workload: str, seed: int, inputs: Path, out: Path) -> list:
    """(stage, detcal argv) of the timed pipeline; the first stage does the
    inference whose scenes per second are reported."""
    if workload == "long_ingest":
        return [("ingest", ["ingest", str(inputs / "percepts.jsonl"), "--out",
                            str(out / "inferred.jsonl"), "--seed", str(seed),
                            "--vocab", vocabulary(WORKLOADS[workload]["categories"])])]
    run = ["run", str(inputs / "corpus.jsonl"), "--out", str(out / "results.jsonl"),
           "--seed", str(seed), "--jobs", str(WORKLOADS[workload]["jobs"])]
    if WORKLOADS[workload]["models"]:
        run += ["--models", WORKLOADS[workload]["models"]]
    return [("run", run),
            ("report", ["report", str(out / "results.jsonl"), "--out", str(out / "report")])]


def scenes(workload: str) -> int:
    return WORKLOADS[workload]["systems"] * WORKLOADS[workload]["scenes"]


def check_pass(workload: str, inputs: Path, out: Path):
    """(errors, scene_accuracy, (online accuracy, prior-mean MSE, final MSE)
    or None without a filter) of one pass's outputs."""
    import checks

    models = WORKLOADS[workload]["models"]
    models = tuple(models.split(",")) if models else ALL_MODELS
    scored = "retrospective" if "retrospective" in models else "fixed_prior"
    try:
        if workload == "long_ingest":
            return checks.check_ingest_outputs(inputs / "truth.json", out / "inferred.jsonl")
        errors, recount, figures = checks.check_run_outputs(
            inputs / "corpus.jsonl", out / "results.jsonl",
            out / "report" / "summary.csv", models)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {exc!r}"], 0.0, None
    return errors, recount.get(scored, 0.0), figures


def judge_repeat(out: Path, reference: dict) -> list:
    """A later pass of one seed must write the first pass's bytes."""
    return [] if digest(out) == reference else [
        "output bytes differ from the first pass of this seed"]


def digest(directory: Path) -> dict:
    """sha256 of every file under a directory, by relative path."""
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def timed(argv: list, log: Path):
    """Run the interpreter on argv; (wall s, exit code, peak RSS MB of the
    process and every descendant it waited for)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, env=env, cwd=ROOT,
                                stdout=fh, stderr=fh)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def make_inputs(workload: str, seed: int, work: Path):
    """Set up SETUP_REPEATS times; (inputs dir, median set-up s). Every
    repeat must exit 0 and write the same bytes."""
    times, digests = [], []
    for i in range(SETUP_REPEATS):
        inputs = work / f"inputs-{i}"
        inputs.mkdir()
        wall, code, _ = timed(setup_argv(workload, seed, inputs), work / "setup.log")
        if code != 0:
            raise SystemExit(f"set-up exited {code}; see {work / 'setup.log'}")
        times.append(wall)
        digests.append(digest(inputs))
    if any(d != digests[0] for d in digests):
        raise SystemExit("set-up wrote different bytes on repeats of one seed")
    return work / "inputs-0", statistics.median(times)


def measure(workload: str, seed: int, seconds: float, work: Path) -> dict:
    inputs, setup_s = make_inputs(workload, seed, work)
    walls, rates, rss = [], [], []
    attempted = failed = 0
    wrong = False
    reference = None
    accuracy = None
    start = time.perf_counter()
    # Whole passes only: another pass starts only if one more of the median
    # pass so far still ends within the run, so a run measures at most
    # `seconds` and does not overrun by up to a pass.
    while attempted == 0 or (time.perf_counter() - start
                             + statistics.median(walls or [0.0]) <= seconds):
        out = work / f"pass-{attempted}"
        out.mkdir()
        attempted += 1
        stage_walls, peak, ok = [], 0.0, True
        for _, argv in pipeline(workload, seed, inputs, out):
            wall, code, mb = timed(["-m", "detcal.cli"] + argv, work / "pipeline.log")
            stage_walls.append(wall)
            peak = max(peak, mb)
            ok = ok and code == 0
        if not ok:
            failed += 1
            continue
        if reference is None:
            reference = digest(out)
            errors, accuracy, _ = check_pass(workload, inputs, out)
        else:
            errors = judge_repeat(out, reference)
            shutil.rmtree(out)
        for e in errors[:5]:
            print(f"check failed: {e}", file=sys.stderr)
        if errors:
            failed += 1
            wrong = True
            continue
        print(f"pass {attempted}: " + ", ".join(
            f"{stage} {wall:.3f} s" for (stage, _), wall in zip(
                pipeline(workload, seed, inputs, out), stage_walls)), file=sys.stderr)
        walls.append(sum(stage_walls))
        rates.append(scenes(workload) / stage_walls[0])
        rss.append(peak)
    metrics = {"setup_s": (setup_s, "s")}
    if walls:
        metrics.update({
            "wall_s": (statistics.median(walls), "s"),
            "observations_per_s": (statistics.median(rates), "obs/s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "scene_accuracy": (accuracy, "fraction"),
        })
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="detcal pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "detcal" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'detcal'} is missing; run from the "
              "root of a detcal checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # On SIGTERM, unwind: the child in flight is killed and waited for, and
    # the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            import trace_layers
            result = trace_layers.measure(args.workload, args.seed, args.seconds, work)
        else:
            result = measure(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
