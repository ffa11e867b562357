"""Summary-only grid cells run without recording state samples.

``_simulate_task`` is the one cell entry point shared by the serial
runner, the process pool and the fabric worker.  A cell that keeps only
its :class:`~repro.metrics.summary.PerformanceSummary` runs the engine
with ``record_samples=False``: ``summarize`` never reads samples, so
the summary must be bit-identical to a fully sampled run, while the
cell's config and cache key stay as they were.

The engine side of the contract: the sampling tick still runs when
telemetry or invariant checks need it, and only the ``StateSample``
append honours ``record_samples``.  Also here: the ``max_minutes``
guard ignores trailing events once no job is left.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro
from repro.errors import SchedulingError, SimulationError
from repro.experiments import parallel
from repro.experiments.cache import cell_cache_key
from repro.experiments.parallel import _simulate_task, make_cell_task
from repro.faults import FaultConfig
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import SimulationEngine
from repro.simulator.online import OnlineResults
from repro.telemetry import Instrumentation, MetricsRegistry

#: The paper's baselines plus the two non-restart policy families.
POLICY_SPECS = [
    "NoRes",
    "ResSusRand",
    "ResSusUtil",
    "ResSusWaitRand",
    "ResSusWaitUtil",
    "dfrs",
    "migration_cost",
]

CHURN = FaultConfig.with_exponential_churn(3000.0, 60.0)

SAMPLED = SimulationConfig(strict=False)


@pytest.fixture(scope="module")
def scenario():
    return repro.smoke(seed=2010)


def policy(spec: str, scenario):
    return repro.policy_from_spec(
        spec, defaults={"wait_threshold": scenario.wait_threshold}
    )


def cell(scenario, spec: str, config=SAMPLED, keep_result=False):
    return make_cell_task(
        0, scenario, policy(spec, scenario), None, config, keep_result=keep_result
    )


def sampled_run(task):
    """The cell simulated exactly as its config says, samples and all."""
    return repro.run_simulation(
        task.scenario.trace,
        task.scenario.cluster,
        policy=task.policy,
        initial_scheduler=task.scheduler,
        config=task.config,
    )


class TestSummaryOnlyCells:
    @pytest.mark.parametrize("faults", [None, CHURN], ids=["no-faults", "churn"])
    @pytest.mark.parametrize("spec", POLICY_SPECS)
    def test_summary_equals_fully_sampled_run(self, scenario, spec, faults):
        config = SAMPLED if faults is None else replace(SAMPLED, faults=faults)
        task = cell(scenario, spec, config)
        _, summary, result, _ = _simulate_task(task)
        assert result is None
        reference = sampled_run(cell(scenario, spec, config))
        assert reference.samples, "the reference run must actually sample"
        assert summary == repro.summarize(reference)

    def test_engine_runs_without_recording(self, scenario, monkeypatch):
        seen = []
        real = parallel.run_simulation

        def spy(*args, config, **kwargs):
            seen.append(config)
            return real(*args, config=config, **kwargs)

        monkeypatch.setattr(parallel, "run_simulation", spy)
        task = cell(scenario, "ResSusUtil")
        _simulate_task(task)
        (config,) = seen
        assert config.record_samples is False
        assert config == replace(task.config, record_samples=False)
        assert task.config.record_samples is True

    def test_kept_result_has_every_sample(self, scenario):
        task = cell(scenario, "ResSusWaitUtil", keep_result=True)
        _, summary, result, _ = _simulate_task(task)
        reference = sampled_run(task)
        assert result.samples
        assert result.samples == reference.samples
        assert result.records == reference.records
        assert summary == repro.summarize(reference)

    def test_cache_key_unchanged(self, scenario):
        task = cell(scenario, "ResSusUtil")
        key = task.cache_key
        _simulate_task(task)
        assert task.cache_key == key
        assert key == cell_cache_key(
            scenario, task.policy, task.scheduler, task.config
        )
        # Keying on the engine's sample-free config would split the cache.
        assert key != cell_cache_key(
            scenario,
            task.policy,
            task.scheduler,
            replace(task.config, record_samples=False),
        )


def corrupted_engine(scenario, config, streaming: bool):
    trace = iter(scenario.trace) if streaming else scenario.trace
    engine = SimulationEngine(
        trace,
        scenario.cluster,
        config=config,
        sink=OnlineResults() if streaming else None,
    )
    next(iter(engine.pools.values())).busy_cores += 1
    return engine


def sample_ticks(snapshot) -> float:
    (family,) = [
        f for f in snapshot["families"] if f["name"] == "repro_sim_samples_total"
    ]
    return family["series"][0]["value"]


class TestTickWithoutRecording:
    @pytest.mark.parametrize("streaming", [False, True], ids=["materialized", "streaming"])
    def test_invariants_checked_without_samples(self, scenario, streaming):
        config = SimulationConfig(
            strict=False, record_samples=False, check_invariants=True
        )
        engine = corrupted_engine(scenario, config, streaming)
        with pytest.raises(SchedulingError, match="busy-core drift"):
            engine.run()

    @pytest.mark.parametrize("streaming", [False, True], ids=["materialized", "streaming"])
    def test_telemetry_gauges_match_sampled_run(self, scenario, streaming):
        snapshots = []
        for record in (True, False):
            registry = MetricsRegistry()
            config = SimulationConfig(
                strict=False,
                record_samples=record,
                instrumentation=Instrumentation(metrics=registry),
            )
            if streaming:
                sink = repro.run_streaming(
                    iter(scenario.trace), scenario.cluster, config=config
                )
                assert bool(sink.sample_count) is record
            else:
                result = repro.run_simulation(
                    scenario.trace, scenario.cluster, config=config
                )
                assert bool(result.samples) is record
            snapshots.append(registry.as_dict())
        sampled, unsampled = snapshots
        ticks = sample_ticks(unsampled)
        assert ticks > 0
        assert ticks == sample_ticks(sampled)
        assert unsampled == sampled

    def test_no_tick_when_nothing_needs_it(self, scenario):
        engine = SimulationEngine(
            scenario.trace,
            scenario.cluster,
            config=SimulationConfig(strict=False, record_samples=False),
        )
        result = engine.run()
        last_finish = max(
            r.finish_minute for r in result.records if r.finish_minute is not None
        )
        assert engine.now == last_finish


class TestMaxMinutesTrailingTick:
    """``max_minutes`` just past the last finish: the trailing sample
    tick lands beyond the wall with no job left and must not raise."""

    @pytest.fixture(scope="class")
    def baseline(self, scenario):
        result = repro.run_simulation(
            scenario.trace, scenario.cluster, config=SAMPLED
        )
        last_finish = max(
            r.finish_minute for r in result.records if r.finish_minute is not None
        )
        assert result.samples[-1].minute > last_finish + 1e-6
        return result, last_finish + 1e-6

    def test_materialized(self, scenario, baseline):
        reference, wall = baseline
        result = repro.run_simulation(
            scenario.trace,
            scenario.cluster,
            config=replace(SAMPLED, max_minutes=wall),
        )
        assert result.records == reference.records
        assert result.samples == reference.samples

    def test_streaming(self, scenario, baseline):
        _, wall = baseline

        def stream(config):
            return repro.run_streaming(
                iter(scenario.trace),
                scenario.cluster,
                config=config,
                sink=OnlineResults(keep_samples=True),
            )

        reference = stream(SAMPLED)
        bounded = stream(replace(SAMPLED, max_minutes=wall))
        assert bounded.samples == reference.samples
        assert bounded.sample_count == reference.sample_count
        assert bounded.summary() == reference.summary()

    @pytest.mark.parametrize("streaming", [False, True], ids=["materialized", "streaming"])
    def test_still_raises_with_jobs_outstanding(self, scenario, baseline, streaming):
        _, wall = baseline
        config = replace(SAMPLED, max_minutes=wall / 2)
        with pytest.raises(SimulationError, match="jobs outstanding"):
            if streaming:
                repro.run_streaming(iter(scenario.trace), scenario.cluster, config=config)
            else:
                repro.run_simulation(scenario.trace, scenario.cluster, config=config)

    def test_streaming_raises_while_feed_has_jobs(self, scenario):
        # The wall falls before a later submission even though every
        # job submitted so far has finished.
        first = scenario.trace[0]
        finish = first.submit_minute + first.runtime_minutes
        gap_job = replace(first, job_id=first.job_id + 1, submit_minute=finish + 200)
        config = replace(SAMPLED, max_minutes=finish + 100)
        feed = [first, gap_job]
        with pytest.raises(SimulationError, match="0 jobs outstanding"):
            repro.run_streaming(iter(feed), scenario.cluster, config=config)
