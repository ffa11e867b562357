"""Tests for the pipeline benchmark's own helpers.

    python3 -m pytest perfbench/tests -q

They cover the digest, the metric names, the seed plumbing and the
output checks; none of them runs a workload.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402

SUMMARY = {
    "policy_name": "ResSusUtil",
    "job_count": 412,
    "avg_ct_all": 301.25,
    "avg_st": None,
    "waste": {"wait_time": 12.5, "suspend_time": 0.1 + 0.2},
}


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- digest stability ------------------------------------------------------------


def test_digest_is_pinned_for_a_fixed_summary():
    assert common.cell_digest("c", SUMMARY) == common.cell_digest("c", dict(SUMMARY))
    assert common.cell_digest("c", SUMMARY) == (
        "973346e363e0649a965b8413ab9cab6e6c1572e396cdf5bad9614d612673d47d"
    )


def test_digest_ignores_key_order():
    reordered = dict(reversed(list(SUMMARY.items())))
    assert common.cell_digest("c", reordered) == common.cell_digest("c", SUMMARY)


def test_digest_sees_the_last_bit_of_a_float_and_the_cell_identity():
    nudged = dict(SUMMARY, avg_ct_all=301.25000000000006)
    assert nudged["avg_ct_all"] != SUMMARY["avg_ct_all"]
    assert common.cell_digest("c", nudged) != common.cell_digest("c", SUMMARY)
    assert common.cell_digest("d", SUMMARY) != common.cell_digest("c", SUMMARY)


def test_digest_of_a_real_summary_repeats():
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    def digest():
        summary = repro.summarize(repro.simulate(repro.smoke(seed=3), "ResSusUtil"))
        return common.cell_digest("smoke", asdict(summary))

    assert digest() == digest()


def test_combined_digest_depends_on_order():
    assert common.combined_digest(["a", "b"]) != common.combined_digest(["b", "a"])


def test_pinned_digests_cover_every_workload_at_the_default_seed():
    with open(BENCH / "digests.json", "r", encoding="utf-8") as handle:
        pins = json.load(handle)
    assert set(pins) == set(common.WORKLOAD_CELLS)
    for workload, pin in pins.items():
        assert pin["seed"] == common.DEFAULT_SEED
        assert len(pin["cells"]) == common.WORKLOAD_CELLS[workload]
        assert pin["digest"] == common.combined_digest(pin["cells"])
        assert set(pin["trace_counts"]) == set(common.WORK_COUNTS)


# -- metric names ----------------------------------------------------------------


@pytest.mark.parametrize("name", ["jobs_per_s", "simulator.handler.sample_n", "a-b.c_9", "9x"])
def test_valid_names(name):
    assert common.valid_metric_name(name)


@pytest.mark.parametrize(
    "name", ["", "_x", ".x", "jobs/s", "jobs per s", "x" * 65, "simulator.handler.wait-timeout!"]
)
def test_invalid_names(name):
    assert not common.valid_metric_name(name)


def test_every_declared_name_and_unit_is_valid():
    names = (
        list(common.END_TO_END_UNITS)
        + list(common.PER_LAYER_UNITS)
        + list(common.WORKLOAD_CELLS)
    )
    assert all(common.valid_metric_name(n) for n in names)
    assert len(set(names)) == len(names)
    units = list(common.END_TO_END_UNITS.values()) + list(common.PER_LAYER_UNITS.values())
    assert all(common.valid_unit(u) for u in units)


def test_benchmark_json_matches_the_code():
    spec = load_benchmark()
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOAD_CELLS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == common.PER_LAYER_UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert set(common.WORK_COUNTS) <= set(common.PER_LAYER_UNITS)


# -- seed plumbing ---------------------------------------------------------------


@pytest.mark.parametrize("workload", ["busy_week_full", "swf_replay", "smoke_grid"])
def test_inputs_are_a_function_of_the_seed(workload):
    assert common.workload_inputs(workload, 11) == common.workload_inputs(workload, 11)
    assert common.workload_inputs(workload, 11) != common.workload_inputs(workload, 12)


def test_fault_sweep_always_replays_the_pinned_grid():
    pinned = common.workload_inputs("fault_sweep_grid", common.DEFAULT_SEED)
    assert common.workload_inputs("fault_sweep_grid", 3) == pinned
    assert run.load_pins("fault_sweep_grid", 3) is not None


def test_seed_reaches_only_the_generated_inputs():
    swf = common.workload_inputs("swf_replay", 5)
    assert swf["fixture_seed"] == 5
    assert swf["cluster_seed"] == common.SWF_CLUSTER_SEED
    smoke = common.workload_inputs("smoke_grid", 5)
    assert smoke["seeds"] == list(range(5, 5 + common.SMOKE_SEEDS))
    assert common.workload_inputs("busy_week_full", 5)["seed"] == 5


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        common.workload_inputs("nope", 1)


def test_pins_apply_only_to_the_pinned_inputs():
    assert run.load_pins("smoke_grid", common.DEFAULT_SEED + 1) is None
    assert run.load_pins("smoke_grid", common.DEFAULT_SEED)["seed"] == common.DEFAULT_SEED


def test_children_do_not_see_repro_overrides(monkeypatch):
    monkeypatch.setenv("REPRO_SEED", "99")
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    env = run.child_env()
    assert not any(key.startswith("REPRO_") for key in env)


# -- output checks ---------------------------------------------------------------


def record(digests, restarts=3):
    return {"cells": [{"id": str(i), "digest": d} for i, d in enumerate(digests)],
            "counts": {"restarts": restarts}}


def test_first_good_round_becomes_the_reference():
    checker = run.Checker("fault_sweep_grid", None)
    good = ["d%d" % i for i in range(9)]
    assert not checker.check(None)
    assert checker.check(record(good))
    assert checker.check(record(good))
    assert not checker.check(record(good[:8] + ["x"]))
    assert (checker.attempted, checker.failed) == (36, 10)


def test_a_count_or_cell_number_mismatch_fails_every_cell():
    checker = run.Checker("fault_sweep_grid", None)
    good = ["d%d" % i for i in range(9)]
    assert checker.check(record(good))
    assert not checker.check(record(good, restarts=4))
    assert not checker.check(record(good[:8]))
    assert checker.failed == 18


def test_pinned_reference_is_used_from_the_first_round():
    pins = {"cells": ["p"], "counts": {"restarts": 3}}
    checker = run.Checker("busy_week_full", pins)
    assert not checker.check(record(["q"]))
    assert checker.check(record(["p"]))


# -- host probe ------------------------------------------------------------------


def test_host_probe_samples_while_the_thread_is_busy():
    probe = measure.HostProbe()
    probe.start()
    try:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= 5
    first, seconds = probe.samples[0]
    assert probe.mean_s(first, first) == seconds
    # An interval with no sample falls back to the whole round's mean.
    assert probe.mean_s(-2.0, -1.0) == statistics.fmean(s for _, s in probe.samples)


def test_timings_rescale_to_the_reference_probe():
    assert common.at_reference_speed(3.0, common.REFERENCE_PROBE_S) == 3.0
    assert common.at_reference_speed(3.0, 2 * common.REFERENCE_PROBE_S) == 1.5
    record = {"jobs": 100, "window_s": 2.0, "window_probe_s": 2 * common.REFERENCE_PROBE_S}
    assert run.jobs_per_s(record) == 100.0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    spec = load_benchmark()
    proc = subprocess.run(
        spec["command"] + ["--workload", "smoke_grid", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
