"""Pipeline benchmark for repro: end-to-end and per-layer, one workload a run.

Run from the repository root::

    python3 perfbench/run.py --workload busy_week_full --seed 2010 --seconds 30 --trace 0

Each run measures rounds of one workload, every round in a fresh
process started one after another (a closed loop: one simulation or
one grid at a time), until ``--seconds`` would be exceeded, with at
least two rounds.  It checks every simulated cell against the digests
pinned in ``digests.json`` (at the pinned seed) or against the first
round (at any other seed), prints a report, and ends with one JSON
line: ``correct``, ``attempted`` and ``failed`` cells, and ``metrics``.

``--trace 0`` reports the end-to-end metrics as medians over the
rounds.  ``--trace 1`` runs one untraced and one traced round and
reports the per-layer metrics of the traced round; its digests must
equal the untraced round's.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MEASURE = HERE / "measure.py"
DIGESTS = HERE / "digests.json"

#: A run must end within this many seconds, whatever ``--seconds`` says.
RUN_DEADLINE_S = 170.0
MAX_ROUNDS = 12
SETUP_SAMPLES = 5


def child_env() -> dict:
    """Our environment minus ``REPRO_*`` overrides the inputs must not see."""
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


class Runner:
    """Starts measuring rounds and keeps the run inside its deadline."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def measure(self, *flags: str):
        """One child process; its JSON record, or ``None`` if it failed."""
        cmd = [
            sys.executable,
            str(MEASURE),
            "--workload",
            self.workload,
            "--seed",
            str(self.seed),
            "--work-dir",
            str(self.work),
            *flags,
        ]
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env=child_env(),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=max(1.0, self.remaining()),
            )
        except subprocess.TimeoutExpired:
            print(f"round {' '.join(flags)} timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            return None
        if "--prepare" in flags:
            return {}
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            sys.stderr.write(proc.stdout[-2000:])
            return None
        finally:
            shutil.rmtree(self.work / "cache", ignore_errors=True)


def load_pins(workload: str, seed: int):
    """The pinned record, or ``None`` when ``seed`` gives other inputs."""
    if common.workload_inputs(workload, seed) != common.workload_inputs(
        workload, common.DEFAULT_SEED
    ):
        return None
    with open(DIGESTS, "r", encoding="utf-8") as handle:
        return json.load(handle)[workload]


class Checker:
    """Counts attempted and failed cells; a failed cell is never timed."""

    def __init__(self, workload: str, pins) -> None:
        self.cells = common.WORKLOAD_CELLS[workload]
        self.reference = pins
        self.pinned = pins is not None
        self.attempted = 0
        self.failed = 0

    def check(self, record, trace: bool = False) -> bool:
        """Whether ``record`` matches the reference (the first good round)."""
        self.attempted += self.cells
        if record is None:
            self.failed += self.cells
            return False
        got = [c["digest"] for c in record["cells"]]
        if self.reference is None:
            self.reference = {"cells": got, "counts": record["counts"]}
        bad = set(common.compare_cells(got, self.reference["cells"], self.cells))
        bad.update(record.get("replay_mismatches", ()))
        if record["counts"] != self.reference["counts"]:
            bad = set(range(self.cells))
        if trace and "trace_counts" in self.reference:
            layers = record["layers"]
            work = {name: layers[name] for name in common.WORK_COUNTS}
            if work != self.reference["trace_counts"]:
                print(f"work counts differ from the pin: {work}", file=sys.stderr)
                bad = set(range(self.cells))
        self.failed += len(bad)
        return not bad


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# Timings are rescaled by the host probe sampled during the same interval:
# on a shared host the raw figures of one program move by 15-25% from
# minute to minute, the rescaled ones by a few percent.
def window_s(record) -> float:
    return common.at_reference_speed(record["window_s"], record["window_probe_s"])


def jobs_per_s(record) -> float:
    return record["jobs"] / window_s(record)


def setup_s(record) -> float:
    return common.at_reference_speed(record["setup_s"], record["setup_probe_s"])


def run_untraced(runner: Runner, checker: Checker, seconds: float) -> dict:
    # Without pinned digests, correctness is two rounds agreeing.
    min_rounds = 1 if checker.pinned else 2
    started = time.monotonic()
    good = []
    setups = []
    rounds = 0
    while rounds < MAX_ROUNDS:
        round_started = time.monotonic()
        record = runner.measure()
        rounds += 1
        if checker.check(record):
            good.append(record)
            setups.append(setup_s(record))
            print(
                f"round {rounds}: setup {record['setup_s']:.3f} s, "
                f"window {record['window_s']:.3f} s, "
                f"{record['jobs'] / record['window_s']:.1f} jobs/s as measured, "
                f"{jobs_per_s(record):.1f} at reference speed, "
                f"peak RSS {record['peak_rss_mb']:.1f} MB, counts {record['counts']}"
            )
        else:
            print(f"round {rounds}: FAILED output check")
        last = time.monotonic() - round_started
        elapsed = time.monotonic() - started
        if rounds >= min_rounds and elapsed + last > seconds:
            break
        if last > runner.remaining():
            break
    # Set-up is short next to a whole round: top its samples up with
    # rounds that stop once the first event could be dispatched.
    while good and len(setups) < SETUP_SAMPLES:
        round_started = time.monotonic()
        record = runner.measure("--setup-only")
        if record is None:
            checker.check(None)
            break
        setups.append(setup_s(record))
        print(f"set-up round: {record['setup_s']:.3f} s")
        last = time.monotonic() - round_started
        if time.monotonic() - started + last > seconds or last > runner.remaining():
            break
    if not good:
        return {}
    return {
        "jobs_per_s": metric(statistics.median([jobs_per_s(r) for r in good]), "1/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median([r["peak_rss_mb"] for r in good]), "MB"),
    }


def run_traced(runner: Runner, checker: Checker) -> dict:
    plain = runner.measure()
    if not checker.check(plain):
        return {}
    traced = runner.measure("--trace")
    if not checker.check(traced, trace=True):
        return {}
    layers = traced["layers"]
    layers["trace.overhead_ratio"] = window_s(traced) / window_s(plain)
    return {
        name: metric(layers[name], unit) for name, unit in common.PER_LAYER_UNITS.items()
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """One workload's result object, or ``None`` if its inputs failed."""
    work = HERE / ".work" / f"{workload}-{os.getpid()}"
    runner = Runner(workload, seed, work)
    checker = Checker(workload, load_pins(workload, seed))
    try:
        if runner.measure("--prepare") is None:
            print(f"error: preparing the {workload} inputs failed", file=sys.stderr)
            return None
        if trace:
            metrics = run_traced(runner, checker)
        else:
            metrics = run_untraced(runner, checker, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, entry in metrics.items():
        print(f"{workload} {name}: {entry['value']:.6g} {entry['unit']}")
    return {
        "correct": checker.failed == 0 and bool(metrics),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=sorted(common.WORKLOAD_CELLS) + ["all"],
        help="one workload, or 'all' to run each in turn",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    # Every workload in turn; metrics are named <workload>.<metric>.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in common.WORKLOAD_CELLS:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
