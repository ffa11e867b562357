"""Process-pool execution backend for experiment grids.

Every sweep in this repository — the paper's tables, the ablations, any
user grid through :class:`~repro.experiments.runner.ExperimentRunner` —
reduces to the same unit of work: simulate one
(scenario, policy, scheduler) *cell* and summarize it.  This module
owns that unit:

* :func:`make_cell_task` freezes a cell into a :class:`CellTask`,
  deriving a spawn-key-style child seed from the cell's identity (see
  :func:`~repro.experiments.cache.derive_cell_seed`) so results are
  bit-identical no matter which worker runs the cell or in what order;
* :func:`run_grid_parallel` executes a batch of tasks — serially for
  ``n_workers=1``, else on a :class:`~concurrent.futures.ProcessPoolExecutor`
  — consulting an optional
  :class:`~repro.experiments.cache.ResultCache` and
  :class:`~repro.experiments.checkpoint.GridCheckpoint` first, and
  storing every fresh computation back to both.

The grid runner is built to survive its own platform, the same way the
simulated scheduler is expected to survive machine churn:

* cells whose **worker process died** (``BrokenProcessPool``) are
  retried with exponential backoff on a fresh pool; after repeated pool
  breaks each remaining cell runs in its *own* single-worker pool, so a
  persistently crashing cell is identified and only it fails;
* an optional **cell timeout** bounds how long the pool may go without
  completing a cell; stuck cells are recorded as timed out and the rest
  of the grid continues on a fresh pool;
* with **keep_going** the grid degrades gracefully: completed cells are
  returned in a :class:`GridReport` alongside structured
  :class:`CellFailure` entries (grid order) instead of the whole grid
  being lost;
* a **checkpoint** records every completed cell, so an interrupted grid
  resumes without recomputing them.

Tasks whose payload cannot be pickled (a user policy capturing a
lambda, an open file, ...) transparently fall back to serial in-process
execution, so exotic policies cost speed, never correctness.  Each
outcome reports its wall-clock seconds and whether it was served from
cache, making the speedup observable in benchmark logs and the CLI.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ExperimentExecutionError
from ..metrics.summary import PerformanceSummary, summarize
from ..simulator.config import SimulationConfig
from ..simulator.results import SimulationResult
from ..simulator.simulation import run_simulation
from .cache import ResultCache, cell_cache_key, derive_cell_seed
from .checkpoint import GridCheckpoint

__all__ = [
    "CellTask",
    "CellOutcome",
    "CellFailure",
    "GridReport",
    "PROVENANCE_COMPUTED",
    "PROVENANCE_CACHE_HIT",
    "PROVENANCE_CHECKPOINT",
    "PROVENANCE_CLAIMED_ELSEWHERE",
    "make_cell_task",
    "execute_cells",
    "run_grid_parallel",
]

#: This invocation actually ran the simulation.
PROVENANCE_COMPUTED = "computed"
#: Served from the content-addressed result cache (entry predates this run).
PROVENANCE_CACHE_HIT = "cache_hit"
#: Resumed from a grid checkpoint written by an earlier interrupted run.
PROVENANCE_CHECKPOINT = "checkpoint"
#: Computed during this run by a *different* worker/host sharing the
#: cache (the fabric's work-claiming protocol; see :mod:`repro.fabric`).
PROVENANCE_CLAIMED_ELSEWHERE = "claimed_elsewhere"


@dataclass(frozen=True)
class CellTask:
    """One fully specified simulation cell, ready to run anywhere.

    Attributes:
        index: position in the grid (outcomes are returned in this
            order regardless of completion order).
        scenario: the workload + cluster to simulate.
        policy: the rescheduling policy instance.
        scheduler: the initial scheduler instance (``None`` = engine
            default round-robin).
        config: simulation config whose ``seed`` is already the derived
            per-cell child seed.
        cell_id: stable human-readable identity used for seed
            derivation and error messages.
        cache_key: content-addressed cache key, or ``None`` when the
            cell must not be cached.
        keep_result: ship the full :class:`SimulationResult` back (not
            just the summary).
        policy_spec: the canonical registry spec string the policy was
            built from (see :mod:`repro.policies`), or ``None`` when it
            was constructed directly.  Carried for provenance and
            telemetry labels only — never part of the cell identity,
            seed or cache key.
    """

    index: int
    scenario: object
    policy: object
    scheduler: Optional[object]
    config: SimulationConfig
    cell_id: str
    cache_key: Optional[str]
    keep_result: bool = False
    policy_spec: Optional[str] = None


@dataclass(frozen=True)
class CellOutcome:
    """The observable output of one executed (or cache-served) cell.

    ``wall_seconds`` is always the cell's *simulation* cost — for a
    cache or checkpoint hit, the cost recorded when the entry was
    computed — so logs can show how much time was saved; ``provenance``
    says whether this invocation actually paid it and, if not, where
    the result came from: one of :data:`PROVENANCE_COMPUTED`,
    :data:`PROVENANCE_CACHE_HIT`, :data:`PROVENANCE_CHECKPOINT` or
    :data:`PROVENANCE_CLAIMED_ELSEWHERE`.  ``from_cache`` /
    ``from_checkpoint`` are the pre-provenance booleans, kept in sync
    for backward compatibility.
    """

    index: int
    scenario_name: str
    policy_name: str
    scheduler_name: str
    summary: PerformanceSummary
    result: Optional[SimulationResult]
    wall_seconds: float
    from_cache: bool
    seed: int
    from_checkpoint: bool = False
    provenance: str = PROVENANCE_COMPUTED
    policy_spec: Optional[str] = None


@dataclass(frozen=True)
class CellFailure:
    """Structured record of one cell that could not be completed.

    Attributes:
        index: the cell's grid position.
        cell_id: the cell's stable identity.
        scenario_name / policy_name / scheduler_name: the cell's naming,
            mirrored from the task for report rendering.
        error_type: exception class name (``"TimeoutError"``,
            ``"BrokenProcessPool"``, ...).
        message: the exception message.
        attempts: how many executions were attempted.
        error: the exception object itself.
    """

    index: int
    cell_id: str
    scenario_name: str
    policy_name: str
    scheduler_name: str
    error_type: str
    message: str
    attempts: int
    error: BaseException = field(repr=False)


@dataclass(frozen=True)
class GridReport:
    """Everything :func:`run_grid_parallel` knows about one grid run.

    ``outcomes`` is in grid order with ``None`` holes where cells
    failed (only possible under ``keep_going``); ``failures`` holds the
    corresponding :class:`CellFailure` entries, also in grid order, so
    reports are stable across runs regardless of completion order.
    """

    outcomes: Tuple[Optional[CellOutcome], ...]
    failures: Tuple[CellFailure, ...]

    @property
    def ok(self) -> bool:
        """Whether every cell completed."""
        return not self.failures

    @property
    def completed(self) -> Tuple[CellOutcome, ...]:
        """The completed outcomes, grid order, holes removed."""
        return tuple(o for o in self.outcomes if o is not None)

    def provenance_counts(self) -> Dict[str, int]:
        """How many completed cells came from each provenance.

        Keys are the ``PROVENANCE_*`` values that actually occurred,
        in fixed order, so two identical runs render identically.
        """
        counts: Dict[str, int] = {}
        for kind in (
            PROVENANCE_COMPUTED,
            PROVENANCE_CACHE_HIT,
            PROVENANCE_CHECKPOINT,
            PROVENANCE_CLAIMED_ELSEWHERE,
        ):
            n = sum(1 for o in self.completed if o.provenance == kind)
            if n:
                counts[kind] = n
        return counts


def make_cell_task(
    index: int,
    scenario,
    policy,
    scheduler,
    config: SimulationConfig,
    keep_result: bool = False,
    variant: str = "",
    policy_spec: Optional[str] = None,
) -> CellTask:
    """Freeze one grid cell into a :class:`CellTask`.

    The cell's child seed is derived from ``config.seed`` and the cell
    identity (scenario name + seed, policy name, scheduler name) — not
    from call order — so two cells sharing a scenario but differing in
    policy never share a random stream, and re-running one cell alone
    reproduces its grid result exactly.

    ``variant`` extends the cell identity for grids where the *config*
    (not the scenario/policy/scheduler triple) distinguishes cells —
    e.g. the fault sweep's MTBF ladder — so such cells get distinct
    seeds and checkpoint entries.  Empty (the default) keeps cell ids
    bit-identical to pre-variant builds.

    ``policy_spec`` (or, absent that, a ``spec`` attribute left on the
    policy by :func:`repro.policies.policy_from_spec`) rides along on
    the task for provenance records; it never enters the cell identity.
    """
    scheduler_name = scheduler.name if scheduler is not None else "RoundRobin"
    cell_id = f"{scenario.name}#{scenario.seed}|{policy.name}|{scheduler_name}"
    if variant:
        cell_id += f"|{variant}"
    cell_config = replace(config, seed=derive_cell_seed(config.seed, cell_id))
    return CellTask(
        index=index,
        scenario=scenario,
        policy=policy,
        scheduler=scheduler,
        config=cell_config,
        cell_id=cell_id,
        cache_key=cell_cache_key(scenario, policy, scheduler, cell_config),
        keep_result=keep_result,
        policy_spec=policy_spec or getattr(policy, "spec", None),
    )


def _simulate_task(task: CellTask) -> Tuple[int, PerformanceSummary, Optional[SimulationResult], float]:
    """Worker entry point: run one cell and time it.

    Module-level (not a closure) so it pickles into pool workers.  A
    cell that keeps only its summary runs without recording state
    samples (``summarize`` never reads them); ``task.config`` and the
    cache key are untouched, so the summary and cache entry are the
    same either way.
    """
    config = task.config
    if not task.keep_result:
        config = replace(config, record_samples=False)
    start = time.perf_counter()
    result = run_simulation(
        task.scenario.trace,
        task.scenario.cluster,
        policy=task.policy,
        initial_scheduler=task.scheduler,
        config=config,
    )
    wall = time.perf_counter() - start
    summary = summarize(result)
    return task.index, summary, result if task.keep_result else None, wall


def _outcome(
    task: CellTask,
    summary,
    result,
    wall: float,
    from_cache: bool,
    from_checkpoint: bool = False,
    provenance: Optional[str] = None,
) -> CellOutcome:
    if provenance is None:
        if from_cache:
            provenance = PROVENANCE_CACHE_HIT
        elif from_checkpoint:
            provenance = PROVENANCE_CHECKPOINT
        else:
            provenance = PROVENANCE_COMPUTED
    return CellOutcome(
        index=task.index,
        scenario_name=task.scenario.name,
        policy_name=task.policy.name,
        scheduler_name=summary.scheduler_name,
        summary=summary,
        result=result,
        wall_seconds=wall,
        from_cache=from_cache,
        seed=task.config.seed,
        from_checkpoint=from_checkpoint,
        provenance=provenance,
        policy_spec=task.policy_spec,
    )


def _is_picklable(task: CellTask) -> bool:
    try:
        pickle.dumps(task)
        return True
    except Exception:
        return False


def _task_scheduler_name(task: CellTask) -> str:
    return task.scheduler.name if task.scheduler is not None else "RoundRobin"


def _cell_error(
    task: CellTask, exc: BaseException, completed: Sequence[CellOutcome]
) -> ExperimentExecutionError:
    return ExperimentExecutionError(
        task.scenario.name,
        task.policy.name,
        _task_scheduler_name(task),
        exc,
        # Grid order, not completion order: error reports must be
        # stable across runs however the pool interleaved the cells.
        completed_cells=tuple(sorted(completed, key=lambda o: o.index)),
    )


def run_grid_parallel(
    tasks: Sequence[CellTask],
    *,
    n_workers: int = 1,
    cache: Optional[ResultCache] = None,
    checkpoint: Optional[GridCheckpoint] = None,
    cell_timeout: Optional[float] = None,
    max_attempts: int = 3,
    retry_backoff: float = 0.5,
    keep_going: bool = False,
    progress: Optional[Callable[[CellOutcome], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> GridReport:
    """Execute a batch of cells, surviving worker crashes; return a report.

    Args:
        tasks: the cells, as built by :func:`make_cell_task`.
        n_workers: process-pool width; ``1`` runs everything serially
            in-process (no pool, no pickling).
        cache: optional result cache consulted before any simulation and
            updated after every fresh one.
        checkpoint: optional :class:`GridCheckpoint`; completed cells
            are journalled there and an interrupted grid resumes from
            it without recomputing them.  Cells that are not cacheable
            (live instrumentation) are not checkpointed either.
        cell_timeout: optional seconds the pool may go without
            completing a single cell.  When it trips, currently running
            cells are recorded as timed out (their worker processes are
            abandoned, not killed) and not-yet-started cells continue
            on a fresh pool.  In the per-cell isolation fallback (and
            with ``n_workers`` >= outstanding cells) this is an exact
            per-cell bound.  Timeouts are not retried.
        max_attempts: total executions allowed per cell when its worker
            process dies (``BrokenProcessPool``).  A pool break cannot
            be attributed to one cell, so every cell that was in flight
            is retried with backoff on a fresh pool; a cell reaching
            its final attempt runs in an isolated single-worker pool so
            a persistent crasher is identified and only it fails.
            Deterministic simulation errors are never retried.
        retry_backoff: base seconds slept after a pool break, doubling
            per subsequent break.
        keep_going: degrade gracefully — record a structured
            :class:`CellFailure` per dead cell and keep executing the
            rest of the grid, instead of raising at the first failure.
        progress: optional callable invoked with each
            :class:`CellOutcome` as it completes — cache hits included,
            parallel cells as their futures resolve (completion order,
            not grid order).  If it has an ``add_total(count)`` method,
            that is called first with this batch's size.
        sleep: sleep function, injectable for tests.

    Raises:
        ExperimentExecutionError: without ``keep_going``, when any cell
            fails; carries every completed cell, in grid order.
        ConfigurationError: for invalid ``n_workers``/``max_attempts``/
            ``retry_backoff``.
    """
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    if max_attempts < 1:
        raise ConfigurationError(f"max_attempts must be >= 1, got {max_attempts}")
    if retry_backoff < 0:
        raise ConfigurationError(f"retry_backoff must be >= 0, got {retry_backoff}")
    if progress is not None:
        add_total = getattr(progress, "add_total", None)
        if add_total is not None:
            add_total(len(tasks))

    outcomes: Dict[int, CellOutcome] = {}
    failures: Dict[int, CellFailure] = {}

    def record(outcome: CellOutcome) -> None:
        outcomes[outcome.index] = outcome
        if progress is not None:
            progress(outcome)

    def fail(task: CellTask, exc: BaseException, attempts_used: int) -> None:
        if not keep_going:
            raise _cell_error(task, exc, list(outcomes.values())) from exc
        failures[task.index] = CellFailure(
            index=task.index,
            cell_id=task.cell_id,
            scenario_name=task.scenario.name,
            policy_name=task.policy.name,
            scheduler_name=_task_scheduler_name(task),
            error_type=type(exc).__name__,
            message=str(exc),
            attempts=attempts_used,
            error=exc,
        )

    pending: List[CellTask] = []
    for task in tasks:
        entry = cache.get(task.cache_key) if cache and task.cache_key else None
        if entry is not None and (not task.keep_result or entry.get("result") is not None):
            record(
                _outcome(
                    task,
                    entry["summary"],
                    entry.get("result") if task.keep_result else None,
                    entry.get("wall_seconds", 0.0),
                    from_cache=True,
                )
            )
            continue
        if entry is not None:
            # present but missing the raw result this caller needs:
            # recompute (and overwrite below); keep the stats honest.
            cache.stats.hits -= 1
            cache.stats.misses += 1
        if checkpoint is not None and task.cache_key:
            saved = checkpoint.get(task.cell_id, task.cache_key)
            if saved is not None and (
                not task.keep_result or saved.get("result") is not None
            ):
                record(
                    _outcome(
                        task,
                        saved["summary"],
                        saved.get("result") if task.keep_result else None,
                        saved.get("wall_seconds", 0.0),
                        from_cache=False,
                        from_checkpoint=True,
                    )
                )
                continue
        pending.append(task)

    def finish(task: CellTask, summary, result, wall: float) -> None:
        if cache is not None and task.cache_key:
            cache.put(
                task.cache_key,
                {"summary": summary, "result": result, "wall_seconds": wall},
            )
        if checkpoint is not None and task.cache_key:
            checkpoint.put(
                task.cell_id,
                task.cache_key,
                {
                    "summary": summary,
                    "result": result if task.keep_result else None,
                    "wall_seconds": wall,
                },
            )
        record(_outcome(task, summary, result, wall, from_cache=False))

    def run_serial(serial_tasks: Sequence[CellTask]) -> None:
        for task in serial_tasks:
            try:
                _, summary, result, wall = _simulate_task(task)
            except Exception as exc:
                fail(task, exc, 1)
                continue
            finish(task, summary, result, wall)

    def report() -> GridReport:
        return GridReport(
            outcomes=tuple(outcomes.get(t.index) for t in tasks),
            failures=tuple(
                failures[t.index] for t in tasks if t.index in failures
            ),
        )

    if n_workers == 1 or len(pending) <= 1:
        run_serial(pending)
        return report()

    poolable = [t for t in pending if _is_picklable(t)]
    hostile = [t for t in pending if t.index not in {p.index for p in poolable}]

    attempts: Dict[int, int] = {t.index: 0 for t in poolable}
    queue: List[CellTask] = list(poolable)
    isolate = False
    breaks = 0
    while queue:
        if isolate:
            # Per-cell isolation: each remaining cell gets its own
            # single-worker pool, so a crash (or timeout) is
            # unambiguously this cell's.
            task = queue.pop(0)
            attempts[task.index] += 1
            pool = ProcessPoolExecutor(max_workers=1)
            future = pool.submit(_simulate_task, task)
            try:
                _, summary, result, wall = future.result(timeout=cell_timeout)
            except BrokenExecutor as exc:
                pool.shutdown(wait=False, cancel_futures=True)
                fail(task, exc, attempts[task.index])
                continue
            except FuturesTimeoutError:
                pool.shutdown(wait=False, cancel_futures=True)
                fail(
                    task,
                    TimeoutError(
                        f"cell {task.cell_id} did not finish within {cell_timeout}s"
                    ),
                    attempts[task.index],
                )
                continue
            except Exception as exc:
                pool.shutdown(wait=False)
                fail(task, exc, attempts[task.index])
                continue
            pool.shutdown(wait=False)
            finish(task, summary, result, wall)
            continue

        batch = queue
        queue = []
        pool = ProcessPoolExecutor(max_workers=min(n_workers, len(batch)))
        future_tasks: Dict[object, CellTask] = {}
        broke: Optional[BaseException] = None
        try:
            try:
                for t in batch:
                    future_tasks[pool.submit(_simulate_task, t)] = t
            except BrokenExecutor as exc:
                broke = exc  # pool died during submission
            for t in batch:
                attempts[t.index] += 1
            unfinished = set(future_tasks)
            submitted = {t.index for t in future_tasks.values()}
            unsubmitted = [t for t in batch if t.index not in submitted]
            timed_out = False
            while unfinished and broke is None:
                done, _ = wait(
                    unfinished, timeout=cell_timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    timed_out = True
                    break
                for future in sorted(done, key=lambda f: future_tasks[f].index):
                    task = future_tasks[future]
                    exc = future.exception()
                    if exc is None:
                        unfinished.discard(future)
                        _, summary, result, wall = future.result()
                        finish(task, summary, result, wall)
                    elif isinstance(exc, BrokenExecutor):
                        # The pool is dead; every unfinished future is
                        # about to fail the same way.  Leave them (and
                        # this one) in `unfinished`: they are victims,
                        # not verdicts.
                        broke = exc
                    else:
                        unfinished.discard(future)
                        if not keep_going:
                            for f in unfinished:
                                f.cancel()
                        fail(task, exc, attempts[task.index])
            if timed_out:
                # Nothing completed inside the window: the running
                # cells are stuck.  Never-started cells continue on a
                # fresh pool; running ones are recorded as timed out
                # and their workers abandoned.
                for future in list(unfinished):
                    if future.cancel():
                        task = future_tasks[future]
                        attempts[task.index] -= 1  # never actually ran
                        queue.append(task)
                        unfinished.discard(future)
                stuck = sorted(
                    (future_tasks[f] for f in unfinished), key=lambda t: t.index
                )
                for task in stuck:
                    fail(
                        task,
                        TimeoutError(
                            f"cell {task.cell_id} did not finish within "
                            f"{cell_timeout}s"
                        ),
                        attempts[task.index],
                    )
            elif broke is not None:
                breaks += 1
                victims = sorted(
                    {future_tasks[f].index: future_tasks[f] for f in unfinished}.values(),
                    key=lambda t: t.index,
                )
                for t in unsubmitted:
                    attempts[t.index] -= 1  # never actually ran
                victims = victims + unsubmitted
                for task in victims:
                    if attempts[task.index] >= max_attempts:
                        fail(task, broke, attempts[task.index])
                    else:
                        queue.append(task)
                        if attempts[task.index] >= max_attempts - 1:
                            # Final attempt: run it isolated so the
                            # persistent crasher is identifiable.
                            isolate = True
                if queue and retry_backoff > 0:
                    sleep(retry_backoff * (2 ** (breaks - 1)))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    # pickling-hostile cells run serially in this process, after the
    # pool batches so a pool failure cannot lose their results.
    run_serial(hostile)
    return report()


def execute_cells(
    tasks: Sequence[CellTask],
    n_workers: int = 1,
    cache: Optional[ResultCache] = None,
    timeout: Optional[float] = None,
    progress: Optional[Callable[[CellOutcome], None]] = None,
    max_attempts: int = 3,
    retry_backoff: float = 0.5,
    checkpoint: Optional[GridCheckpoint] = None,
) -> List[CellOutcome]:
    """Execute a batch of cells and return outcomes in grid order.

    The strict-mode wrapper over :func:`run_grid_parallel`: worker
    crashes are retried the same way, but any cell that ultimately
    fails raises :class:`~repro.errors.ExperimentExecutionError`
    (carrying the completed cells, grid order) instead of producing a
    partial report.

    Raises:
        ExperimentExecutionError: when any cell fails.
        ConfigurationError: for a non-positive ``n_workers``.
    """
    grid = run_grid_parallel(
        tasks,
        n_workers=n_workers,
        cache=cache,
        checkpoint=checkpoint,
        cell_timeout=timeout,
        max_attempts=max_attempts,
        retry_backoff=retry_backoff,
        keep_going=False,
        progress=progress,
    )
    return list(grid.outcomes)
