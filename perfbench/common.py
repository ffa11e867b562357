"""Helpers shared by the benchmark's entry point and its measuring rounds.

Nothing here imports ``repro``: the entry point (``run.py``) must be able
to load this module, and fail cleanly, in a directory that holds only
the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Dict, Iterable, List, Mapping, Sequence

#: The seed whose outputs are pinned in ``digests.json``.  2010 is the
#: repository's own default workload seed (the paper's year).
DEFAULT_SEED = 2010

#: Workload name -> number of simulation cells one round runs.
WORKLOAD_CELLS: Dict[str, int] = {
    "busy_week_full": 1,
    "swf_replay": 1,
    "fault_sweep_grid": 9,
    "smoke_grid": 48,
}

#: The smoke grid's policy family and seed count (seeds ``s .. s+15``).
SMOKE_POLICIES = ("NoRes", "ResSusUtil", "ResSusWaitUtil")
SMOKE_SEEDS = 16

#: The SWF fixture: job count and offered load against the replay
#: cluster, whose own seed is fixed so only the fixture varies.
SWF_JOBS = 100_000
SWF_CLUSTER_SCALE = 0.1
SWF_CLUSTER_SEED = 2010
SWF_UTILIZATION = 0.35

FAULT_SWEEP_SCALE = 0.06

#: Mean time of ``measure.HostProbe``'s kernel on the reference host (a
#: 2-vCPU 2.0 GHz Xeon guest).  Reported timings are rescaled to it.
REFERENCE_PROBE_S = 2.0e-4

#: The end-to-end metrics with their units (``--trace 0``).
END_TO_END_UNITS: Dict[str, str] = {
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

HANDLERS = (
    "submit",
    "finish",
    "wait_timeout",
    "pool_arrival",
    "sample",
    "machine_crash",
    "machine_recover",
)

#: The per-layer metrics with their units (``--trace 1``), in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "workload.scenario_s": "s",
    "workload.cluster_build_s": "s",
    "workload.jobs_generated": "count",
    "traces.feed_s": "s",
    "simulator.construct_s": "s",
    "simulator.run_s": "s",
    "simulator.events": "count",
    "simulator.host_us_per_event": "us",
    **{
        f"simulator.handler.{name}_{suffix}": unit
        for name in HANDLERS
        for suffix, unit in (("s", "s"), ("n", "count"))
    },
    "simulator.sample_share": "ratio",
    "simulator.sink_s": "s",
    "simulator.restarts": "count",
    "policies.decide_s": "s",
    "policies.decisions": "count",
    "metrics.summarize_s": "s",
    "faults.crashes": "count",
    "faults.evictions": "count",
    "experiments.cells": "count",
    "experiments.grid_build_s": "s",
    "experiments.cell_compute_s": "s",
    "experiments.overhead_per_cell_ms": "ms",
    "experiments.cache_put_s": "s",
    "experiments.cache_put_bytes": "bytes",
    "experiments.cache_hits": "count",
    "fabric.spawn_s": "s",
    "fabric.overhead_per_cell_ms": "ms",
    "fabric.computed_per_claim": "ratio",
    "fabric.worker_rss_mb": "MB",
    "trace.overhead_ratio": "ratio",
}

#: Simulated-work counts: exact, seed-determined, and identical under
#: any change that only makes the program faster.
WORK_COUNTS = (
    "workload.jobs_generated",
    "simulator.events",
    "simulator.restarts",
    "policies.decisions",
    "faults.crashes",
    "faults.evictions",
    "experiments.cells",
    "experiments.cache_hits",
) + tuple(f"simulator.handler.{name}_n" for name in HANDLERS)

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_metric_name(name: str) -> bool:
    """Whether ``name`` is a legal metric or workload name."""
    return bool(_NAME.fullmatch(name))


def valid_unit(unit: str) -> bool:
    """Whether ``unit`` is a legal metric unit."""
    return bool(_UNIT.fullmatch(unit))


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the host probe took ``probe_s``, rescaled
    to the speed at which it takes :data:`REFERENCE_PROBE_S`."""
    return seconds * REFERENCE_PROBE_S / probe_s


def workload_inputs(workload: str, seed: int) -> Dict[str, object]:
    """Everything the program receives for ``workload`` under ``seed``.

    The benchmark seed only ever selects generated inputs; the program
    never sees it otherwise.
    """
    if workload == "busy_week_full":
        return {"scale": 1.0, "seed": seed, "policy": "ResSusWaitUtil"}
    if workload == "swf_replay":
        return {
            "fixture_seed": seed,
            "jobs": SWF_JOBS,
            "utilization": SWF_UTILIZATION,
            "cluster_scale": SWF_CLUSTER_SCALE,
            "cluster_seed": SWF_CLUSTER_SEED,
            "policy": "ResSusUtil",
        }
    if workload == "fault_sweep_grid":
        # Fixed at the pinned seed: under harsh churn the simulated tail is
        # chaotic in the trace seed (see README.md, "Why fault_sweep_grid
        # ignores --seed"), so every run replays the pinned grid.
        return {
            "preset": "fault-sweep",
            "scale": FAULT_SWEEP_SCALE,
            "seed": DEFAULT_SEED,
            "backend": "subprocess:1",
        }
    if workload == "smoke_grid":
        return {
            "seeds": list(range(seed, seed + SMOKE_SEEDS)),
            "policies": list(SMOKE_POLICIES),
        }
    raise ValueError(f"unknown workload {workload!r}")


def cell_digest(cell_id: str, summary: Mapping[str, object]) -> str:
    """SHA-256 of one cell's identity and summary fields.

    ``json`` writes floats with ``repr``, which round-trips exactly, so
    two summaries share a digest only if every field is bit-identical.
    """
    blob = json.dumps(
        {"cell": cell_id, "summary": summary}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def combined_digest(cell_digests: Iterable[str]) -> str:
    """One digest over a round's cell digests, in grid order."""
    return hashlib.sha256("\n".join(cell_digests).encode("ascii")).hexdigest()


def compare_cells(
    got: Sequence[str], want: Sequence[str], expected_cells: int
) -> List[int]:
    """Indexes of cells whose digest differs from ``want``.

    A round that returned the wrong number of cells fails every cell.
    """
    if len(got) != expected_cells or len(want) != expected_cells:
        return list(range(expected_cells))
    return [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
