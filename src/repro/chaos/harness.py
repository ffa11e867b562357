"""Seeded chaos scenarios against a live supervised worker fleet.

A scenario is a *deterministic* fault schedule: from ``(name, seed,
workers)``, :func:`build_schedule` derives the same in-band
:class:`~repro.chaos.plan.ChaosAction` list and the same out-of-band
operations every time, so a failing chaos run can be replayed
bit-for-bit.  :func:`run_scenario` then:

1. computes the grid **serially** for the ground-truth digests;
2. arms the plan (``REPRO_CHAOS_PLAN``) and runs the same grid on a
   real :class:`~repro.fabric.supervisor.SupervisedWorkerBackend`
   subprocess fleet while an injector thread applies the out-of-band
   faults (SIGSTOP freezes, entry corruption, lease truncation);
3. audits the wreckage with :func:`~repro.chaos.invariants.audit_run`
   plus the scenario's own expectations (a kill storm that never
   restarted anything is a failed test of the supervisor, not a
   lucky run);
4. exports ``repro_chaos_*`` counters and the supervisor's recovery
   numbers for ``BENCH_chaos.json``.

The scenario matrix (also rendered in ``docs/robustness.md``):

================ ====================================================
``kill-storm``    three first-incarnation workers SIGKILL themselves
                  between publish and lease release; slot 0 dies at
                  its first compute and then at every restarted
                  boot (persistent crasher).  Expects ≥3 restarts,
                  quarantine, and recovered cells.
``heartbeat-freeze`` every worker's first cell is slowed, one live
                  lease holder is SIGSTOPped past the TTL and resumed
                  only after its cell moved on.  Expects ≥1 takeover.
``corruption``    one publish hits ENOSPC, one is torn (garbage bytes
                  + SIGKILL), one already-published entry is
                  corrupted in place and one live lease truncated.
                  Expects the fleet to re-publish everything.
``straggler``     one worker sleeps through every cell; nobody dies.
                  Expects a clean, takeover-free run.
================ ====================================================
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ReproError
from ..experiments.cache import ResultCache
from ..experiments.parallel import run_grid_parallel
from ..fabric.coordinator import run_grid_fabric
from ..fabric.lease import CLAIMED
from ..fabric.presets import build_grid
from ..fabric.supervisor import SupervisedWorkerBackend, SupervisorConfig
from ..fabric.worker import CELL_FLOOR_ENV
from .invariants import ChaosAudit, audit_run, grid_digests
from .plan import CHAOS_PLAN_ENV, ChaosAction, ChaosPlan

__all__ = [
    "ChaosReport",
    "ChaosSchedule",
    "SCENARIOS",
    "build_schedule",
    "run_scenario",
]

#: Scenario name -> one-line description (the supported matrix).
SCENARIOS: Dict[str, str] = {
    "kill-storm": (
        "SIGKILL three workers in the publish window + one persistent "
        "crasher (restart, backoff, quarantine)"
    ),
    "heartbeat-freeze": (
        "SIGSTOP a live lease holder past the TTL, resume it after the "
        "takeover (stale-lease steal, duplicate publish)"
    ),
    "corruption": (
        "ENOSPC on publish, a torn cache entry, in-place corruption of "
        "a published entry, a truncated live lease (re-publish paths)"
    ),
    "straggler": (
        "one slow worker, no faults (control: nothing should trigger)"
    ),
}

#: Lease TTL for chaos runs — short, so takeovers happen in test time.
CHAOS_LEASE_TTL = 1.0

#: Per-cell wall-time floor giving faults a window to land in.  Sized
#: like a sampled ``smoke`` cell (0.13-0.2 s): summary-only cells skip
#: the state sampler and compute in ~0.03 s, which would let the grid
#: drain before a crash-looping slot reaches quarantine.
CHAOS_CELL_FLOOR = 0.15

#: Supervisor budget tuned for second-scale scenarios (same shape as
#: the production default, faster clocks).
CHAOS_SUPERVISOR_CONFIG = SupervisorConfig(
    backoff_base_seconds=0.1,
    backoff_factor=2.0,
    backoff_max_seconds=1.0,
    jitter_fraction=0.25,
    # Quarantine on the third consecutive crash: chaos grids are
    # seconds long, so a production-sized budget would let the grid
    # finish before the crash-looper exhausts it.
    restart_budget=2,
    healthy_uptime_seconds=10.0,
    rescan_budget=1,
    drain_timeout_seconds=5.0,
)


@dataclasses.dataclass(frozen=True)
class ChaosSchedule:
    """The fully-derived fault schedule for one seeded scenario."""

    scenario: str
    seed: int
    workers: int
    actions: Tuple[ChaosAction, ...]
    #: Out-of-band operation names the injector thread performs.
    out_of_band: Tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "workers": self.workers,
            "actions": [a.to_dict() for a in self.actions],
            "out_of_band": list(self.out_of_band),
        }


def build_schedule(name: str, seed: int, workers: int = 4) -> ChaosSchedule:
    """Derive the deterministic fault schedule for a scenario."""
    if name not in SCENARIOS:
        raise ReproError(
            f"unknown chaos scenario {name!r} "
            f"(want one of: {', '.join(sorted(SCENARIOS))})"
        )
    if workers < 2:
        raise ReproError("chaos scenarios need at least 2 workers")
    rng = random.Random(f"chaos|{name}|{seed}")
    actions: List[ChaosAction] = []
    out_of_band: List[str] = []
    if name == "kill-storm":
        # Slot 0 crash-loops: the first incarnation dies mid-compute
        # (orphaning a claimed lease for takeover), and every restarted
        # incarnation dies at startup — a boot crash fires whether or
        # not any claimable cell remains, so the slot reliably burns
        # its restart budget into quarantine even if the rest of the
        # fleet finishes the grid first.  Three other first
        # incarnations die in the publish window, each orphaning a
        # settled lease.
        actions.append(
            ChaosAction(worker="w0", stage="compute", action="die", nth=0)
        )
        for incarnation in range(1, 5):
            actions.append(
                ChaosAction(
                    worker=f"w0r{incarnation}", stage="start", action="die"
                )
            )
        victims = rng.sample(range(1, workers), k=min(3, workers - 1))
        for slot in victims:
            actions.append(
                ChaosAction(
                    worker=f"w{slot}r0",
                    stage="post-publish",
                    action="kill",
                    nth=0,
                )
            )
    elif name == "heartbeat-freeze":
        # Slow every worker's first cell so the injector reliably
        # catches one alive and mid-claim; the freeze itself is
        # out-of-band (SIGSTOP cannot be self-inflicted usefully).
        actions.append(
            ChaosAction(
                worker="*",
                stage="compute",
                action="delay",
                nth=0,
                seconds=0.4,
            )
        )
        out_of_band.append("freeze-holder")
    elif name == "corruption":
        slots = rng.sample(range(workers), k=2)
        actions.append(
            ChaosAction(
                worker=f"w{slots[0]}r0", stage="publish", action="enospc",
                nth=0,
            )
        )
        actions.append(
            ChaosAction(
                worker=f"w{slots[1]}r0", stage="publish", action="torn",
                nth=1,
            )
        )
        out_of_band.extend(["corrupt-entry", "truncate-lease"])
    elif name == "straggler":
        slot = rng.randrange(workers)
        actions.append(
            ChaosAction(
                worker=f"w{slot}",
                stage="compute",
                action="delay",
                every=True,
                seconds=0.1,
            )
        )
    return ChaosSchedule(
        scenario=name,
        seed=seed,
        workers=workers,
        actions=tuple(actions),
        out_of_band=tuple(out_of_band),
    )


@dataclasses.dataclass(frozen=True)
class ChaosReport:
    """Everything one chaos run produced, audit verdict included."""

    scenario: str
    seed: int
    workers: int
    cells: int
    wall_seconds: float
    #: First observed worker death -> grid complete (0 when nothing died).
    recovery_seconds: float
    restarts: int
    quarantined: int
    grown: int
    shrunk: int
    cells_recovered: int
    takeovers: int
    swept_leases: int
    #: action name -> times injected (in-band planned + out-of-band done).
    injections: Tuple[Tuple[str, int], ...]
    violations: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["injections"] = {k: v for k, v in self.injections}
        data["violations"] = list(self.violations)
        data["ok"] = self.ok
        return data


class _Injector(threading.Thread):
    """Applies a schedule's out-of-band faults to the live fleet."""

    def __init__(
        self,
        schedule: ChaosSchedule,
        backend: SupervisedWorkerBackend,
        cache: ResultCache,
        ttl: float,
        deadline_seconds: float = 20.0,
    ) -> None:
        super().__init__(name="chaos-injector", daemon=True)
        self._schedule = schedule
        self._backend = backend
        self._cache = cache
        self._ttl = ttl
        self._deadline = time.monotonic() + deadline_seconds
        self.performed: Dict[str, int] = {}
        self.notes: List[str] = []

    def _expired(self) -> bool:
        return time.monotonic() > self._deadline

    def _note(self, op: str, message: str) -> None:
        self.performed[op] = self.performed.get(op, 0) + 1
        self.notes.append(message)
        print(f"[chaos] injector: {message}", file=sys.stderr, flush=True)

    def _claimed_leases(self) -> Dict[str, dict]:
        """worker_id -> {key, path} for currently-claimed leases."""
        held: Dict[str, dict] = {}
        leases_dir = self._cache.leases_dir
        if not leases_dir.is_dir():
            return held
        for path in leases_dir.iterdir():
            if not path.name.endswith(".lease"):
                continue
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if data.get("status") == CLAIMED:
                held[data.get("worker_id", "")] = {
                    "key": path.name[: -len(".lease")],
                    "path": path,
                }
        return held

    def _live_holder(self):
        """A (handle, key, lease_path) triple for a live claim holder."""
        supervisor = self._backend.current_supervisor
        if supervisor is None:
            return None
        held = self._claimed_leases()
        for _, handle in supervisor.live_handles():
            worker_id = getattr(handle, "worker_id", None)
            if worker_id in held:
                return handle, held[worker_id]["key"], held[worker_id]["path"]
        return None

    def _freeze_holder(self) -> None:
        """SIGSTOP a live lease holder until its cell moves on."""
        target = None
        while target is None and not self._expired():
            target = self._live_holder()
            if target is None:
                time.sleep(0.02)
        if target is None:
            return
        handle, key, path = target
        try:
            os.kill(handle.pid, signal.SIGSTOP)
        except OSError:
            return
        self._note(
            "freeze-holder",
            f"froze pid {handle.pid} holding cell {key[:12]}…",
        )
        try:
            # Hold the freeze until the cell is published by a peer or
            # the lease visibly changed hands — i.e. the fleet routed
            # around the frozen holder.
            while not self._expired():
                if self._cache.peek(key) is not None:
                    break
                try:
                    data = json.loads(path.read_text(encoding="utf-8"))
                    holder = data.get("worker_id")
                except (OSError, ValueError):
                    holder = None
                if holder != getattr(handle, "worker_id", None):
                    break
                time.sleep(0.05)
        finally:
            try:
                os.kill(handle.pid, signal.SIGCONT)
                self._note(
                    "freeze-holder", f"resumed pid {handle.pid}"
                )
            except OSError:
                pass

    def _corrupt_entry(self) -> None:
        """Flip a published entry's bytes in place, early in the run."""
        while not self._expired():
            entries = [
                p
                for p in self._cache.root.glob("*/*.bin")
                if p.parent.name != "manifests"
            ]
            if entries:
                victim = sorted(entries)[0]
                try:
                    blob = victim.read_bytes()
                    victim.write_bytes(b"\x00" * 16 + blob[16:])
                except OSError:
                    return
                self._note(
                    "corrupt-entry",
                    f"corrupted published entry {victim.name[:16]}…",
                )
                return
            time.sleep(0.02)

    def _truncate_lease(self) -> None:
        """Tear a live claimed lease file mid-JSON."""
        while not self._expired():
            held = self._claimed_leases()
            if held:
                info = next(iter(held.values()))
                try:
                    info["path"].write_text('{"status": "cla', encoding="utf-8")
                except OSError:
                    return
                self._note(
                    "truncate-lease",
                    f"truncated lease for cell {info['key'][:12]}…",
                )
                return
            time.sleep(0.02)

    def run(self) -> None:
        ops: Dict[str, Callable[[], None]] = {
            "freeze-holder": self._freeze_holder,
            "corrupt-entry": self._corrupt_entry,
            "truncate-lease": self._truncate_lease,
        }
        for op in self._schedule.out_of_band:
            try:
                ops[op]()
            except Exception as exc:  # noqa: BLE001 — an injector bug
                # must surface as an audit failure, not a hung run.
                self.notes.append(f"injector {op} failed: {exc}")


def _scenario_expectations(
    schedule: ChaosSchedule,
    audit: ChaosAudit,
    stats,
    worker_totals: Dict[str, int],
    injector_performed: Dict[str, int],
) -> List[str]:
    """Scenario-specific assertions (a chaos run where nothing
    happened is a failed test of the harness, not a pass)."""
    problems: List[str] = []
    name = schedule.scenario
    if name == "kill-storm":
        if stats.restarts < 3:
            problems.append(
                f"kill-storm: expected >=3 supervisor restarts, "
                f"got {stats.restarts}"
            )
        if stats.quarantined < 1:
            problems.append(
                "kill-storm: the persistent crasher was never quarantined"
            )
        if audit.counter("cells_recovered") < 1:
            problems.append(
                "kill-storm: no cell was recorded as lost-then-recovered"
            )
    elif name == "heartbeat-freeze":
        if injector_performed.get("freeze-holder", 0) < 1:
            problems.append(
                "heartbeat-freeze: the injector never froze a holder"
            )
        if audit.counter("takeovers") + worker_totals.get("stolen", 0) < 1:
            problems.append(
                "heartbeat-freeze: the frozen holder's lease was never "
                "taken over"
            )
    elif name == "corruption":
        for op in ("corrupt-entry", "truncate-lease"):
            if injector_performed.get(op, 0) < 1:
                problems.append(f"corruption: injector never performed {op}")
    elif name == "straggler":
        if stats.restarts or stats.quarantined:
            problems.append(
                "straggler: the control scenario triggered recovery "
                f"actions (restarts={stats.restarts}, "
                f"quarantined={stats.quarantined})"
            )
    return problems


def run_scenario(
    name: str,
    seed: int = 2010,
    workers: int = 4,
    work_dir: Optional[Path] = None,
    registry=None,
) -> ChaosReport:
    """Run one seeded chaos scenario end to end and audit it.

    Args:
        name: a :data:`SCENARIOS` key.
        seed: derives the whole fault schedule (and the grid's cell
            seeds) — same seed, same chaos.
        workers: fleet ceiling (min stays at 1; the supervisor flexes).
        work_dir: scratch directory (a fresh temp dir by default,
            removed on success and kept for inspection on violations).
        registry: optional
            :class:`~repro.telemetry.registry.MetricsRegistry` —
            receives ``repro_chaos_injections_total`` /
            ``repro_chaos_violations`` on top of the fabric gauges the
            coordinator already publishes.
    """
    schedule = build_schedule(name, seed=seed, workers=workers)
    tasks = build_grid("smoke", seed=seed)

    # Ground truth: the serial run the chaos run must equal, bit for bit.
    serial = run_grid_parallel(tasks, n_workers=1)
    serial_digests = grid_digests(serial)

    owns_dir = work_dir is None
    if owns_dir:
        work_dir = Path(tempfile.mkdtemp(prefix=f"repro-chaos-{name}-"))
    work_dir = Path(work_dir)
    cache = ResultCache(work_dir / "cache")
    plan_path = ChaosPlan.dump(schedule.actions, work_dir / "chaos-plan.json")

    backend = SupervisedWorkerBackend(
        min_workers=1,
        max_workers=workers,
        poll_interval=0.05,
        config=CHAOS_SUPERVISOR_CONFIG,
    )
    injector = _Injector(schedule, backend, cache, ttl=CHAOS_LEASE_TTL)

    saved = {
        var: os.environ.get(var) for var in (CHAOS_PLAN_ENV, CELL_FLOOR_ENV)
    }
    os.environ[CHAOS_PLAN_ENV] = str(plan_path)
    os.environ[CELL_FLOOR_ENV] = str(CHAOS_CELL_FLOOR)
    start = time.perf_counter()
    try:
        injector.start()
        report = run_grid_fabric(
            tasks,
            backend,
            cache,
            registry=registry,
            lease_ttl=CHAOS_LEASE_TTL,
            poll_interval=0.05,
            run_id=f"chaos-{name}-{seed}",
        )
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    wall = time.perf_counter() - start
    injector.join(timeout=5.0)

    stats = backend.last_supervisor_stats
    worker_totals = dict(report.worker_totals)
    audit = audit_run(
        report,
        tasks,
        cache,
        serial_digests=serial_digests,
        swept_leases=backend.last_swept_leases,
    )
    violations = list(audit.violations)
    violations.extend(
        _scenario_expectations(
            schedule, audit, stats, worker_totals, injector.performed
        )
    )

    injections: Dict[str, int] = {}
    for action in schedule.actions:
        injections[action.action] = injections.get(action.action, 0) + 1
    for op, count in injector.performed.items():
        injections[op] = injections.get(op, 0) + count

    if registry is not None:
        counter = registry.counter(
            "repro_chaos_injections_total",
            "Faults injected by the chaos harness",
            ("scenario", "action"),
        )
        for action_name in sorted(injections):
            counter.labels(scenario=name, action=action_name).inc(
                injections[action_name]
            )
        registry.gauge(
            "repro_chaos_violations",
            "Invariant violations found by the last chaos audit",
            ("scenario",),
        ).labels(scenario=name).set(len(violations))

    chaos_report = ChaosReport(
        scenario=name,
        seed=seed,
        workers=workers,
        cells=len(tasks),
        wall_seconds=round(wall, 6),
        recovery_seconds=round(stats.recovery_seconds(), 6),
        restarts=stats.restarts,
        quarantined=stats.quarantined,
        grown=stats.grown,
        shrunk=stats.shrunk,
        cells_recovered=audit.counter("cells_recovered"),
        takeovers=audit.counter("takeovers"),
        swept_leases=backend.last_swept_leases,
        injections=tuple(sorted(injections.items())),
        violations=tuple(violations),
    )
    if owns_dir and chaos_report.ok:
        import shutil

        shutil.rmtree(work_dir, ignore_errors=True)
    elif not chaos_report.ok:
        print(
            f"[chaos] scenario {name} left its evidence in {work_dir}",
            file=sys.stderr,
        )
    return chaos_report
