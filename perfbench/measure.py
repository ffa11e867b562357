"""One measuring round of the pipeline benchmark, in a fresh process.

Usage (``run.py`` starts these; running one by hand is for debugging)::

    python3 perfbench/measure.py --workload NAME --seed N --work-dir DIR
    python3 perfbench/measure.py --workload NAME --seed N --work-dir DIR --trace
    python3 perfbench/measure.py --workload NAME --seed N --work-dir DIR --prepare
    python3 perfbench/measure.py --workload NAME --seed N --work-dir DIR --setup-only

A round builds the workload's inputs from the seed, runs the program
once through ``repro``'s public functions and prints one JSON object
as its last stdout line: the set-up and run windows, the job count,
peak RSS, one digest per simulated cell and the exact simulated-work
counts.  ``--trace`` adds per-layer metrics, taken from timing
wrappers around the calls into each layer and from the engine's own
handler profiler.  ``--prepare`` writes the round's input files (the
SWF fixture) and compiles the package, outside any timing.
``--setup-only`` stops once the first event could be dispatched and
reports ``setup_s`` alone.

Each round is its own process so that ``setup_s`` starts just before
the first ``import repro`` and ``peak_rss_mb`` is this round's alone.
"""

from __future__ import annotations

import argparse
import copy
import heapq
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path
from time import perf_counter

import common

SRC = Path(__file__).resolve().parent.parent / "src"


class HostProbe:
    """Samples how fast the host runs, from inside the measuring thread.

    Every ``TICK_S`` an interval timer runs a fixed pure-Python kernel
    (about 0.2 ms of heap and dict work, like the simulator's) and
    records how long it took.  Other tenants of the host slow the
    program and the kernel alike, so the mean kernel time over a window
    says how fast the host ran during exactly that window.  The kernel
    touches no program state; it costs about 1% of the round.
    """

    TICK_S = 0.02

    def __init__(self) -> None:
        self.samples = []  # (start, seconds)
        self._heap = list(range(0, 4096, 3))
        heapq.heapify(self._heap)

    def _tick(self, signum, frame) -> None:
        started = perf_counter()
        heap = self._heap
        counts = {}
        for i in range(300):
            value = heapq.heappop(heap)
            heapq.heappush(heap, value + 4096)
            counts[i & 63] = counts.get(value & 63, 0) + 1
        self.samples.append((started, perf_counter() - started))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mean_s(self, start: float, end: float) -> float:
        """Mean kernel time of the samples taken in ``[start, end]``."""
        inside = [s for t, s in self.samples if start <= t <= end]
        return statistics.fmean(inside or [s for _, s in self.samples])


class Layers(dict):
    """Per-layer metric accumulator (name -> number)."""

    def add(self, name: str, value: float) -> None:
        self[name] = self.get(name, 0) + value


class TimedPolicy:
    """Read-only proxy timing every decision of a rescheduling policy."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.name = inner.name
        self.wait_threshold = inner.wait_threshold
        self.seconds = 0.0
        self.calls = 0

    def _timed(self, hook, job, view):
        started = perf_counter()
        decision = hook(job, view)
        self.seconds += perf_counter() - started
        self.calls += 1
        return decision

    def on_suspend(self, job, view):
        return self._timed(self._inner.on_suspend, job, view)

    def on_wait_timeout(self, job, view):
        return self._timed(self._inner.on_wait_timeout, job, view)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def timed_iter(feed, layers: Layers, name: str):
    """Yield from ``feed``, adding the time spent inside its ``next()``."""
    feed = iter(feed)
    while True:
        started = perf_counter()
        try:
            item = next(feed)
        except StopIteration:
            layers.add(name, perf_counter() - started)
            return
        layers.add(name, perf_counter() - started)
        yield item


def wrap_attr(owner, attr: str, layers: Layers, name: str, on_result=None):
    """Replace ``owner.attr`` with a timing wrapper; returns an undo callable."""
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        started = perf_counter()
        result = original(*args, **kwargs)
        layers.add(name, perf_counter() - started)
        if on_result is not None:
            on_result(result)
        return result

    setattr(owner, attr, wrapper)
    return lambda: setattr(owner, attr, original)


def profiled_config(config):
    from repro import Instrumentation

    return replace(config, instrumentation=Instrumentation(profile=True))


def fold_profile(layers: Layers, report) -> None:
    """Add an engine :class:`ProfileReport` into the handler metrics."""
    for stats in report.handlers:
        handler = stats.handler.replace("-", "_")
        if handler in common.HANDLERS:
            layers.add(f"simulator.handler.{handler}_s", stats.seconds)
            layers.add(f"simulator.handler.{handler}_n", stats.events)
    layers.add("simulator.events", report.total_events)
    layers.add("simulator.loop_s", report.wall_seconds)


def fold_policy(layers: Layers, policy: TimedPolicy) -> None:
    layers.add("policies.decide_s", policy.seconds)
    layers.add("policies.decisions", policy.calls)


def fold_faults(layers: Layers, fault_stats) -> None:
    if fault_stats is not None:
        layers.add("faults.crashes", fault_stats.machine_crashes)
        layers.add("faults.evictions", fault_stats.attempts_killed)


def restarts(summary) -> int:
    return round(summary.avg_restarts * summary.completed_count)


def cell(cell_id: str, summary) -> dict:
    return {"id": cell_id, "digest": common.cell_digest(cell_id, asdict(summary))}


def replay_cells(tasks, expected, layers: Layers) -> list:
    """Re-simulate grid cells in-process with the handler profiler on.

    Grid cells run inside the runner or a fabric worker, out of reach of
    outside wrappers, so the simulator, policy, metrics and fault layers
    of a grid are attributed from this replay.  Returns the indexes of
    cells whose replayed summary differs from the grid's.
    """
    from repro import SimulationEngine, summarize

    mismatched = []
    for position, (task, want) in enumerate(zip(tasks, expected)):
        policy = TimedPolicy(copy.deepcopy(task.policy))
        started = perf_counter()
        engine = SimulationEngine(
            task.scenario.trace,
            task.scenario.cluster,
            policy=policy,
            initial_scheduler=copy.deepcopy(task.scheduler),
            config=profiled_config(task.config),
        )
        built = perf_counter()
        result = engine.run()
        ran = perf_counter()
        summary = summarize(result)
        layers.add("metrics.summarize_s", perf_counter() - ran)
        layers.add("simulator.construct_s", built - started)
        layers.add("simulator.run_s", ran - built)
        layers.add("simulator.restarts", restarts(summary))
        fold_profile(layers, engine.profile_report())
        fold_policy(layers, policy)
        fold_faults(layers, result.fault_stats)
        if cell(want["id"], summary) != want:
            mismatched.append(position)
    return mismatched


# -- workloads -----------------------------------------------------------------
#
# Each returns (ready, done, outputs): when the first event could be
# dispatched, when the summary was ready, and the jobs, cells and counts.
# With setup_only it returns at ready.


def busy_week_full(inputs, work: Path, trace: bool, layers: Layers, setup_only: bool):
    import repro
    from repro import SimulationConfig, SimulationEngine

    started = perf_counter()
    scenario = repro.busy_week(scale=inputs["scale"], seed=inputs["seed"])
    generated = perf_counter()
    policy = repro.policy_from_spec(
        inputs["policy"], defaults={"wait_threshold": scenario.wait_threshold}
    )
    config = SimulationConfig(strict=False)
    if trace:
        policy = TimedPolicy(policy)
        config = profiled_config(config)
    engine = SimulationEngine(
        scenario.trace, scenario.cluster, policy=policy, config=config
    )
    ready = perf_counter()
    if setup_only:
        return ready, None, None
    result = engine.run()
    ran = perf_counter()
    summary = repro.summarize(result)
    done = perf_counter()
    if trace:
        layers.add("workload.scenario_s", generated - started)
        layers.add("workload.jobs_generated", len(scenario.trace))
        layers.add("simulator.construct_s", ready - generated)
        layers.add("simulator.run_s", ran - ready)
        layers.add("simulator.restarts", restarts(summary))
        layers.add("metrics.summarize_s", done - ran)
        fold_profile(layers, engine.profile_report())
        fold_policy(layers, policy)
        fold_faults(layers, result.fault_stats)
    outputs = {
        "jobs": summary.job_count,
        "cells": [cell(f"{scenario.name}#{scenario.seed}|{summary.policy_name}", summary)],
        "counts": {"samples": len(result.samples), "restarts": restarts(summary)},
    }
    return ready, done, outputs


def swf_fixture_path(work: Path, inputs) -> Path:
    return work / f"fixture-{inputs['fixture_seed']}.swf"


def swf_cluster(inputs):
    from repro import ClusterTemplate, RandomStreams

    template = ClusterTemplate(scale=inputs["cluster_scale"])
    return template, template.build(RandomStreams(inputs["cluster_seed"]))


def prepare_swf(inputs, work: Path) -> None:
    from repro.workload.traces import generate_swf_fixture

    _, cluster = swf_cluster(inputs)
    generate_swf_fixture(
        swf_fixture_path(work, inputs),
        inputs["jobs"],
        seed=inputs["fixture_seed"],
        target_cores=cluster.total_cores,
        utilization=inputs["utilization"],
    )


def swf_replay(inputs, work: Path, trace: bool, layers: Layers, setup_only: bool):
    """Stream the fixture into :class:`OnlineResults`.

    Builds the engine exactly as :func:`repro.run_streaming` does, so
    that engine construction and the handler profile can be read.
    """
    import repro
    from repro import OnlineResults, SimulationConfig, SimulationEngine
    from repro.workload.traces import default_replay_spec

    started = perf_counter()
    template, cluster = swf_cluster(inputs)
    built = perf_counter()
    spec = default_replay_spec(template)
    feed = spec.replay(str(swf_fixture_path(work, inputs)), "swf")
    policy = repro.policy_from_spec(inputs["policy"])
    config = SimulationConfig(strict=False)
    sink = OnlineResults()
    if trace:
        feed = timed_iter(feed, layers, "traces.feed_s")
        policy = TimedPolicy(policy)
        config = profiled_config(config)
        wrap_attr(sink, "add_record", layers, "simulator.sink_s")
    constructing = perf_counter()
    engine = SimulationEngine(feed, cluster, policy=policy, config=config, sink=sink)
    ready = perf_counter()
    if setup_only:
        return ready, None, None
    sink = engine.run()
    ran = perf_counter()
    summary = sink.summary()
    done = perf_counter()
    if trace:
        layers.add("workload.cluster_build_s", built - started)
        layers.add("workload.jobs_generated", sink.job_count)
        layers.add("simulator.construct_s", ready - constructing)
        layers.add("simulator.run_s", ran - ready)
        layers.add("simulator.restarts", restarts(summary))
        layers.add("metrics.summarize_s", done - ran)
        fold_profile(layers, engine.profile_report())
        fold_policy(layers, policy)
        fold_faults(layers, sink.fault_stats)
    outputs = {
        "jobs": summary.job_count,
        "cells": [cell(f"swf-{inputs['fixture_seed']}|{summary.policy_name}", summary)],
        "counts": {"samples": sink.sample_count, "restarts": restarts(summary)},
    }
    return ready, done, outputs


def cache_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*.bin"))


def fault_sweep_grid(inputs, work: Path, trace: bool, layers: Layers, setup_only: bool):
    import repro.fabric.presets
    from repro.experiments.cache import ResultCache
    from repro.fabric import LeaseStore, backend_from_spec, build_grid, run_grid_fabric

    if trace:
        undo = wrap_attr(repro.fabric.presets, "high_load", layers, "workload.scenario_s")
    started = perf_counter()
    tasks = build_grid(inputs["preset"], scale=inputs["scale"], seed=inputs["seed"])
    built = perf_counter()
    cache_root = work / "cache"
    cache = ResultCache(cache_root)
    backend = backend_from_spec(inputs["backend"])
    # Keep the coordinator, and the worker that inherits its affinity, on
    # one vCPU: the host probe then samples the vCPU the worker runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ready = perf_counter()
    if setup_only:
        return ready, None, None
    dispatched_at = time.time()
    report = run_grid_fabric(tasks, backend, cache)
    done = perf_counter()
    outcomes = report.completed
    cells = [cell(tasks[o.index].cell_id, o.summary) for o in outcomes]
    if trace:
        undo()
        compute = sum(o.wall_seconds for o in outcomes)
        leases = LeaseStore(cache_root, run_id="perfbench", worker_id="perfbench")
        first_start = min(
            lease.claimed_at - lease.wall_seconds
            for lease in (leases.read(t.cache_key) for t in tasks)
            if lease is not None
        )
        totals = dict(report.worker_totals)
        layers.add("experiments.grid_build_s", built - started - layers["workload.scenario_s"])
        layers.add("experiments.cells", len(outcomes))
        layers.add("experiments.cell_compute_s", compute)
        layers.add("experiments.cache_put_bytes", cache_bytes(cache_root))
        layers.add("experiments.cache_hits", report.provenance_counts().get("cache_hit", 0))
        layers.add("fabric.spawn_s", first_start - dispatched_at)
        layers.add("fabric.overhead_per_cell_ms", (done - ready - compute) / len(outcomes) * 1e3)
        layers.add("fabric.computed_per_claim", totals["computed"] / totals["claimed"])
        layers.add(
            "fabric.worker_rss_mb",
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        )
        layers.add("workload.jobs_generated", len(tasks[0].scenario.trace))
        layers["replay_mismatches"] = replay_cells(
            [tasks[o.index] for o in outcomes], cells, layers
        )
    outputs = {
        "jobs": sum(o.summary.job_count for o in outcomes),
        "cells": cells,
        "counts": {"restarts": sum(restarts(o.summary) for o in outcomes)},
    }
    return ready, done, outputs


def smoke_grid(inputs, work: Path, trace: bool, layers: Layers, setup_only: bool):
    import repro
    import repro.experiments.runner
    from repro.experiments.cache import ResultCache

    started = perf_counter()
    scenarios = [repro.smoke(seed=seed) for seed in inputs["seeds"]]
    generated = perf_counter()
    cache_root = work / "cache"
    tasks = []
    if trace:
        undo = [
            wrap_attr(
                repro.experiments.runner,
                "make_cell_task",
                layers,
                "experiments.grid_build_s",
                on_result=tasks.append,
            ),
            wrap_attr(ResultCache, "put", layers, "experiments.cache_put_s"),
        ]
    ready = perf_counter()
    if setup_only:
        return ready, None, None
    grid = repro.run_experiment(scenarios, inputs["policies"], cache_dir=str(cache_root))
    done = perf_counter()
    cells = [
        cell(f"{i}|{c.scenario_name}|{c.policy_name}|{c.seed}", c.summary)
        for i, c in enumerate(grid)
    ]
    if trace:
        for restore in undo:
            restore()
        compute = sum(c.wall_seconds for c in grid)
        layers.add("workload.scenario_s", generated - started)
        layers.add("workload.jobs_generated", sum(len(s.trace) for s in scenarios))
        layers.add("experiments.cells", len(grid))
        layers.add("experiments.cell_compute_s", compute)
        layers.add("experiments.overhead_per_cell_ms", (done - ready - compute) / len(grid) * 1e3)
        layers.add("experiments.cache_put_bytes", cache_bytes(cache_root))
        layers.add("experiments.cache_hits", sum(c.provenance == "cache_hit" for c in grid))
        layers["replay_mismatches"] = replay_cells(tasks, cells, layers)
    outputs = {
        "jobs": sum(c.summary.job_count for c in grid),
        "cells": cells,
        "counts": {"restarts": sum(restarts(c.summary) for c in grid)},
    }
    return ready, done, outputs


WORKLOADS = {
    "busy_week_full": busy_week_full,
    "swf_replay": swf_replay,
    "fault_sweep_grid": fault_sweep_grid,
    "smoke_grid": smoke_grid,
}


def per_layer(layers: Layers) -> dict:
    """Every per-layer metric; layers a workload bypasses read 0."""
    metrics = {name: layers.get(name, 0) for name in common.PER_LAYER_UNITS}
    events = metrics["simulator.events"]
    if events:
        metrics["simulator.host_us_per_event"] = metrics["simulator.run_s"] / events * 1e6
    loop = layers.get("simulator.loop_s", 0)
    if loop:
        metrics["simulator.sample_share"] = metrics["simulator.handler.sample_s"] / loop
    return metrics


def prepare(workload: str, inputs, work: Path) -> None:
    """Compile the package and write input files, outside any timing."""
    import compileall

    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    sys.path.insert(0, str(SRC))
    if workload == "swf_replay":
        prepare_swf(inputs, work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    inputs = common.workload_inputs(args.workload, args.seed)
    args.work_dir.mkdir(parents=True, exist_ok=True)
    # Every round starts from an empty result cache.
    shutil.rmtree(args.work_dir / "cache", ignore_errors=True)
    if args.prepare:
        prepare(args.workload, inputs, args.work_dir)
        return 0
    layers = Layers()
    probe = HostProbe()
    probe.start()
    t0 = perf_counter()  # just before the first import of repro
    sys.path.insert(0, str(SRC))
    ready, done, outputs = WORKLOADS[args.workload](
        inputs, args.work_dir, args.trace, layers, args.setup_only
    )
    probe.stop()
    record = {"setup_s": ready - t0, "setup_probe_s": probe.mean_s(t0, ready)}
    if not args.setup_only:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        record.update(
            window_s=done - ready,
            window_probe_s=probe.mean_s(ready, done),
            peak_rss_mb=max(own, children) / 1024.0,
            **outputs,
        )
    if args.trace:
        record["replay_mismatches"] = layers.pop("replay_mismatches", [])
        record["layers"] = per_layer(layers)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
