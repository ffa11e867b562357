"""Rewrite ``digests.json``: the outputs every run is checked against.

    python3 perfbench/pin.py [WORKLOAD ...]

Runs one untraced and one traced round of each named workload (all by
default) at the pinned seed and records their cell digests and exact
simulated-work counts.  Only rerun it when a change is meant to alter
simulated results; a change that is only faster must leave the file
as it is.
"""

from __future__ import annotations

import json
import shutil
import sys

import common
from run import DIGESTS, HERE, Runner


def pin(workload: str) -> dict:
    work = HERE / ".work" / f"pin-{workload}"
    runner = Runner(workload, common.DEFAULT_SEED, work)
    try:
        if runner.measure("--prepare") is None:
            raise SystemExit(f"preparing {workload} failed")
        plain = runner.measure()
        traced = runner.measure("--trace")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if plain is None or traced is None:
        raise SystemExit(f"a {workload} round failed")
    cells = [c["digest"] for c in plain["cells"]]
    if [c["digest"] for c in traced["cells"]] != cells or traced["replay_mismatches"]:
        raise SystemExit(f"{workload}: traced outputs differ from untraced ones")
    return {
        "seed": common.DEFAULT_SEED,
        "digest": common.combined_digest(cells),
        "cells": cells,
        "counts": plain["counts"],
        "trace_counts": {name: traced["layers"][name] for name in common.WORK_COUNTS},
    }


def main(argv) -> int:
    workloads = argv or sorted(common.WORKLOAD_CELLS)
    try:
        with open(DIGESTS, "r", encoding="utf-8") as handle:
            pins = json.load(handle)
    except FileNotFoundError:
        pins = {}
    for workload in workloads:
        pins[workload] = pin(workload)
        print(f"{workload}: {pins[workload]['digest']}")
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
