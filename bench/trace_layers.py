"""Per-layer timings of the detcal pipeline, traced from outside the program.

The traced run executes the workload's own command lines in this process
through `detcal.cli.main`. Before it does, every function in TARGETS is
replaced, in its defining module and in every detcal module that imported
it by name, with a wrapper that records a span: target, start, end and the
enclosing span. Pool workers that `detcal run --jobs 2` forks inherit the
wrappers and append their spans to a spool file after each top-level call;
the parent reads them back when the pass ends.

A layer's time counts only its outermost spans, so a call that reaches
the same layer again through another path is not counted twice; the
retrospective readout that the fixed-prior baseline runs is counted as
fixed-prior time. A target that no longer exists in the program is
skipped and its metrics are left out. A layer the workload never calls
reads 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from pathlib import Path

import run as bench

# target ("module.attribute" or "module.Class.method") -> layer metric
TARGETS = {
    "dataset.synthesize_run": "dataset.synthesize_s",
    "dataset.read_corpus": "dataset.run_parse_s",
    "dataset.Run.from_record": "dataset.run_parse_s",
    "dataset.ingest_percept_groups": "dataset.ingest_parse_s",
    "core.StateSpace.build": "core.state_space_build_s",
    "core.state_log_joint": "core.state_log_joint_s",
    "inference.run_filter": "inference.run_filter_s",
    "inference.assimilate_observation": "inference.assimilate_s",
    "inference._rejuvenation_sweep": "inference.rejuvenation_sweep_s",
    "inference._refresh_posteriors": "inference.posterior_refresh_s",
    "inference._state_ll_matrix": "inference.weight_update_s",
    "inference._loglik_at_states": "inference.weight_update_s",
    "inference.logsumexp": "inference.weight_update_s",
    "inference.systematic_resample": "inference.resample_s",
    "inference.ParticleEnsemble._reorder": "inference.resample_s",
    "inference.estimate_v": "inference.readout_s",
    "inference.online_map_world_state": "inference.readout_s",
    "inference.retrospective_infer": "inference.retrospective_s",
    "inference.retrospective_map_with_mass": "inference.retrospective_s",
    "baselines.threshold_infer": "baselines.threshold_s",
    "baselines.fixed_prior_infer": "baselines.fixed_prior_s",
    "baselines.fit_threshold": "baselines.fit_threshold_s",
    "metrics.meta_mse": "metrics.s",
    "metrics.observation_noise": "metrics.s",
    "metrics.world_state_accuracy": "metrics.s",
    "metrics.rolling_accuracy_by_noise": "metrics.s",
    "experiment.evaluate_run": "experiment.evaluate_run_s",
    "experiment.result_chunk": "experiment.serialize_s",
    "experiment.read_results": "experiment.read_results_s",
    "experiment.report_command": "experiment.report_s",
}

# A span of the key's layer does not count inside a span of these layers.
NOT_INSIDE = {"inference.retrospective_s": {"baselines.fixed_prior_s"}}


# target -> what its span records besides time, from (args, result):
# the state count S, the MH proposals of a sweep (2 entries per category,
# one per particle) and the particle rows a refresh accepted.
EXTRAS = {
    "core.StateSpace.build": lambda args, result: result.size,
    "inference._rejuvenation_sweep": lambda args, result: 2 * args[0].size,
    "inference._refresh_posteriors": lambda args, result: len(args[3]),
}


class Tracer:
    """Spans of one process, kept in memory; forked workers spool theirs."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.pid = os.getpid()
        self.owner = self.pid
        self.spans = []
        self.stack = []

    def open(self, target: str) -> int:
        if os.getpid() != self.pid:  # first span in a forked worker
            self.pid = os.getpid()
            self.spans, self.stack = [], []
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([target, time.perf_counter(), 0.0, parent, 0])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int, extra=0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = extra
        self.stack.pop()
        if self.pid != self.owner and not self.stack:
            with open(self.spool / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(self.spans) + "\n")
            self.spans = []

    def collect(self) -> list:
        """Span lists of this pass: this process's, then each worker's."""
        lists = [self.spans]
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            lists += [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
            path.unlink()
        self.spans = []
        return lists


def _wrap(tracer: Tracer, target: str, fn):
    extra = EXTRAS.get(target)
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def generator(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                index = tracer.open(target)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                yield item
        return generator

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(target)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(index)
            raise
        tracer.close(index, extra(args, result) if extra else 0)
        return result
    return wrapper


def _resolve(target: str):
    """(owner object, attribute, raw attribute) or None when it is gone."""
    module, _, rest = target.partition(".")
    owner = importlib.import_module(f"detcal.{module}")
    *path, attr = rest.split(".")
    for name in path:
        owner = getattr(owner, name, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


def install(tracer: Tracer):
    """Wrap every target that exists; returns (present targets, undo list)."""
    undo, present = [], set()
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "detcal" or name.startswith("detcal.")]
    for target in TARGETS:
        found = _resolve(target)
        if found is None:
            continue
        owner, attr, raw = found
        present.add(target)
        if inspect.isclass(owner):
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = _wrap(tracer, target, fn)
            undo.append((owner, attr, raw))
            setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            continue
        wrapped = _wrap(tracer, target, raw)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is raw:
                    undo.append((module, name, raw))
                    setattr(module, name, wrapped)
    return present, undo


def uninstall(undo) -> None:
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)


def aggregate(span_lists) -> dict:
    """Per target: [outermost time in its layer, span count, extra sum, extra max]."""
    out = {}
    for spans in span_lists:
        for span in spans:
            target, start, end, parent, extra = span
            layer = TARGETS[target]
            ancestors = set()
            while parent >= 0:
                ancestors.add(TARGETS[spans[parent][0]])
                parent = spans[parent][3]
            row = out.setdefault(target, [0.0, 0, 0, 0])
            row[1] += 1
            row[2] += extra
            row[3] = max(row[3], extra)
            if layer not in ancestors and not ancestors & NOT_INSIDE.get(layer, set()):
                row[0] += end - start
    return out


def layer_metrics(rows: dict, present: set) -> dict:
    """Layer metrics (value, unit) of one traced pass; absent targets are left out."""
    def total(layer):
        return sum(r[0] for t, r in rows.items() if TARGETS[t] == layer)

    def count(target, column=1):
        return rows.get(target, [0, 0, 0, 0])[column]

    out = {}
    for layer in sorted(set(TARGETS.values()) - {"dataset.synthesize_s"}):
        if any(TARGETS[t] == layer for t in present):
            out[layer] = (total(layer), "s")
    if "core.StateSpace.build" in present:
        out["core.state_space_builds"] = (count("core.StateSpace.build"), "count")
        out["core.states"] = (count("core.StateSpace.build", 3), "count")
    if "inference.systematic_resample" in present:
        out["inference.resamples"] = (count("inference.systematic_resample"), "count")
    if "inference._rejuvenation_sweep" in present:
        proposals = count("inference._rejuvenation_sweep", 2)
        out["inference.sweeps"] = (count("inference._rejuvenation_sweep"), "count")
        out["inference.mh_proposals"] = (proposals, "count")
        if "inference._refresh_posteriors" in present:
            accepted = count("inference._refresh_posteriors", 2)
            out["inference.mh_accepted"] = (accepted, "count")
            out["inference.mh_accept_ratio"] = (accepted / proposals if proposals else 0.0,
                                                "ratio")
    parts = ("inference.weight_update_s", "inference.resample_s",
             "inference.rejuvenation_sweep_s")
    if "inference.assimilate_s" in out and all(p in out for p in parts):
        out["inference.assimilate_other_s"] = (
            out["inference.assimilate_s"][0] - sum(out[p][0] for p in parts), "s")
    return out


def _startup_s(workload: str, work: Path) -> float:
    """Median wall of one `detcal <command> --help`: interpreter start,
    imports and argument parsing."""
    command = bench.pipeline(workload, 0, work, work)[0][0]
    walls = [bench.timed(["-m", "detcal.cli", command, "--help"], work / "startup.log")[0]
             for _ in range(3)]
    return statistics.median(walls)


def _run_pass(workload, seed, inputs, out):
    """Run the pipeline in this process; (total wall, first stage's wall)."""
    from detcal import cli

    out.mkdir()
    walls = []
    for stage, argv in bench.pipeline(workload, seed, inputs, out):
        start = time.perf_counter()
        code = cli.main(argv)
        walls.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"detcal {stage} exited {code} in the traced run")
    return sum(walls), walls[0]


def measure(workload: str, seed: int, seconds: float, work: Path) -> dict:
    from detcal import cli

    spool = work / "spool"
    spool.mkdir()
    tracer = Tracer(spool)
    startup = _startup_s(workload, work)
    stages = len(bench.pipeline(workload, seed, work, work))

    # set-up, traced
    inputs = work / "inputs"
    inputs.mkdir()
    _, undo = install(tracer)
    try:
        if workload == "long_ingest":
            import export_log
            w = bench.WORKLOADS[workload]
            export_log.export(seed, inputs, w["categories"], w["scenes"])
            input_bytes = (inputs / "percepts.jsonl").stat().st_size
        else:
            code = cli.main(bench.setup_argv(workload, seed, inputs)[2:])
            if code != 0:
                raise SystemExit(f"detcal synth exited {code} in the traced run")
            input_bytes = (inputs / "corpus.jsonl").stat().st_size
        setup_rows = aggregate(tracer.collect())
    finally:
        uninstall(undo)

    # The first pass, untraced, warms the process up, is checked in full and
    # sets the bytes every later pass must write. Then traced and untraced
    # passes alternate; their medians give the tracing overhead.
    _run_pass(workload, seed, inputs, work / "first")
    reference = bench.digest(work / "first")
    errors, _, figures = bench.check_pass(workload, inputs, work / "first")
    failed = 1 if errors else 0

    passes, traced_walls, untraced_walls = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        out = work / f"traced-{len(passes)}"
        present, undo = install(tracer)
        try:
            wall, first_stage = _run_pass(workload, seed, inputs, out)
        finally:
            uninstall(undo)
        rows = aggregate(tracer.collect())
        metrics = layer_metrics(rows, present)
        busy = metrics.get("experiment.evaluate_run_s", (0.0, "s"))[0]
        jobs = bench.WORKLOADS[workload]["jobs"]
        metrics["experiment.parallel_efficiency"] = (
            busy / (jobs * first_stage) if workload != "long_ingest" else 0.0, "ratio")
        passes.append(metrics)
        traced_walls.append(wall)
        untraced = work / f"untraced-{len(passes)}"
        untraced_walls.append(_run_pass(workload, seed, inputs, untraced)[0])
        for directory in (out, untraced):
            problems = bench.judge_repeat(directory, reference)
            errors += problems
            failed += bool(problems)

    metrics = {name: (statistics.mean(p[name][0] for p in passes), unit)
               for name, (_, unit) in passes[0].items()}
    online, mse_prior, mse_final = figures or (0.0, 0.0, 0.0)
    results = "inferred.jsonl" if workload == "long_ingest" else "results.jsonl"
    synthesis = setup_rows.get("dataset.synthesize_run", [0.0, 0])
    metrics.update({
        "cli.startup_s": (startup * stages, "s"),
        "dataset.synthesize_s": (synthesis[0], "s"),
        "dataset.systems_synthesized": (synthesis[1], "count"),
        "dataset.corpus_bytes": (input_bytes, "B"),
        "experiment.result_bytes": ((work / "first" / results).stat().st_size, "B"),
        "inference.online_accuracy": (online, "ratio"),
        "inference.rate_mse_prior": (mse_prior, "mse"),
        "inference.rate_mse_final": (mse_final, "mse"),
        "trace.overhead_ratio": (statistics.median(traced_walls)
                                 / statistics.median(untraced_walls) - 1.0, "ratio"),
    })
    for e in errors[:5]:
        print(f"check failed: {e}", file=sys.stderr)
    return {"correct": not errors, "attempted": 1 + 2 * len(passes), "failed": failed,
            "metrics": metrics}
