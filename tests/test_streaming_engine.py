"""Streaming engine path: equivalence with the materialized path."""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro
from repro.errors import SimulationError
from repro.faults import FaultConfig, MachineChurn
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import SimulationEngine
from repro.telemetry import Instrumentation, MetricsRegistry
from repro.workload.distributions import Exponential
from repro.workload.traces import TraceReplaySpec, default_replay_spec, generate_swf_fixture

from conftest import make_cluster, make_job, make_trace


#: The paper baselines, a duplication policy and the two extension families.
RECORD_POLICIES = (
    "NoRes",
    "ResSusRand",
    "ResSusUtil",
    "ResSusWaitRand",
    "ResSusWaitUtil",
    "dup_sus",
    "dfrs:share=0.5,floor=0.1",
    "migration_cost:transfer_minutes=5",
)

CHURN = FaultConfig(
    machine_churn=MachineChurn(mtbf=Exponential(300.0), mttr=Exponential(20.0))
)


#: Three pools; the high-priority jobs may only run in ``p0``, so they
#: preempt there while the other pools have room to reschedule into.
CONTENDED_POOLS = (("p0", 2), ("p1", 2), ("p2", 1))


def contended_jobs():
    """Three submissions per instant, mixed priorities, ``p0`` oversubscribed."""
    return [
        make_job(i, submit=(i // 3) * 4.0, runtime=20.0 + (i % 7) * 6,
                 priority=(0, 50, 100)[i % 3], cores=1 + i % 3,
                 candidate_pools=("p0",) if i % 3 == 2 else None)
        for i in range(90)
    ]


def contended_engine(feed, spec, config):
    policy = repro.policy_from_spec(spec, defaults={"wait_threshold": 10.0})
    return SimulationEngine(
        feed, make_cluster(CONTENDED_POOLS), policy=policy, config=config
    )


class TestEquivalence:
    @pytest.mark.parametrize("faults", [None, CHURN], ids=["plain", "churn"])
    @pytest.mark.parametrize("spec", RECORD_POLICIES)
    def test_trace_and_stream_give_identical_records(self, spec, faults):
        config = SimulationConfig(strict=False)
        if faults is not None:
            config = replace(config, faults=faults)
        jobs = contended_jobs()
        materialized = contended_engine(make_trace(jobs), spec, config).run()
        streamed = contended_engine(iter(jobs), spec, config).run()
        assert streamed.records == materialized.records
        assert streamed.samples == materialized.samples
        assert streamed.fault_stats == materialized.fault_stats
        # The workload exercises what the policies act on.
        assert any(r.suspension_count for r in materialized.records)
        if faults is not None:
            assert materialized.fault_stats.machine_crashes > 0

    def test_instrumentation_leaves_records_unchanged(self):
        jobs = contended_jobs()
        config = SimulationConfig(strict=False, faults=CHURN)
        plain = contended_engine(make_trace(jobs), "ResSusWaitUtil", config).run()
        registry = MetricsRegistry()
        instrumented = replace(
            config, instrumentation=Instrumentation(metrics=registry, profile=True)
        )
        engine = contended_engine(make_trace(jobs), "ResSusWaitUtil", instrumented)
        result = engine.run()
        assert result.records == plain.records
        assert result.samples == plain.samples
        assert result.fault_stats == plain.fault_stats
        profiled = {h.handler: h.events for h in engine.profile_report().handlers}
        counted = {
            labels[0]: int(series.value)
            for labels, series in registry.get("repro_engine_queue_events_total").series()
        }
        assert profiled == counted
        assert profiled["submit"] == len(jobs)
        assert profiled["machine-crash"] > 0

    def test_streaming_matches_materialized_records(self):
        jobs = [
            make_job(i, submit=i * 2.0, runtime=20.0 + (i % 5) * 7,
                     priority=(0, 100)[i % 2], cores=1 + i % 3)
            for i in range(60)
        ]
        materialized = repro.run_simulation(make_trace(jobs), make_cluster())
        sink = repro.OnlineResults(keep_samples=True)
        streamed = repro.run_streaming(iter(jobs), make_cluster(), sink=sink)
        assert streamed.summary() == repro.summarize(materialized)
        assert len(streamed.samples) == len(materialized.samples)

    def test_streaming_matches_under_faults(self):
        jobs = [make_job(i, submit=i * 3.0, runtime=30.0) for i in range(40)]
        config = SimulationConfig(
            faults=FaultConfig(
                machine_churn=MachineChurn(
                    mtbf=Exponential(200.0), mttr=Exponential(15.0)
                )
            )
        )
        materialized = repro.run_simulation(
            make_trace(jobs), make_cluster(), config=config
        )
        streamed = repro.run_streaming(iter(jobs), make_cluster(), config=config)
        assert streamed.summary() == repro.summarize(materialized)

    def test_replay_feed_drives_the_engine_end_to_end(self, tmp_path):
        path = tmp_path / "t.swf"
        generate_swf_fixture(path, 400, seed=6, target_cores=60)
        template = repro.ClusterTemplate(scale=0.02)
        cluster = template.build(repro.RandomStreams(2010))
        spec = default_replay_spec(template)
        sink = repro.run_streaming(spec.replay(path, "swf"), cluster)
        summary = sink.summary()
        assert summary.job_count > 0
        assert summary.completed_count + summary.rejected_count <= summary.job_count
        # Replaying the identical feed is bit-identical.
        again = repro.run_streaming(
            default_replay_spec(template).replay(path, "swf"),
            template.build(repro.RandomStreams(2010)),
        )
        assert again.summary() == summary


class TestEngineLifetime:
    @pytest.mark.parametrize("instrumented", [False, True], ids=["plain", "instrumented"])
    def test_finished_engine_is_freed_by_reference_counting(self, instrumented):
        # Grid workers run cell after cell; a finished engine left in a
        # reference cycle holds its pools and records until the cyclic
        # collector happens to run.
        import gc
        import weakref

        config = SimulationConfig(strict=False, faults=CHURN)
        if instrumented:
            config = replace(
                config,
                instrumentation=Instrumentation(metrics=MetricsRegistry(), profile=True),
            )
        engine = contended_engine(make_trace(contended_jobs()), "dup_sus", config)
        engine.run()
        ref = weakref.ref(engine)
        gc.disable()
        try:
            del engine
            assert ref() is None
        finally:
            gc.enable()


class TestFeedValidation:
    def test_unsorted_feed_raises(self):
        jobs = [make_job(0, submit=50.0), make_job(1, submit=10.0)]
        with pytest.raises(SimulationError, match="not sorted"):
            repro.run_streaming(iter(jobs), make_cluster())

    def test_empty_feed_finalizes_cleanly(self):
        sink = repro.run_streaming(iter(()), make_cluster())
        summary = sink.summary()
        assert summary.job_count == 0
        assert summary.completed_count == 0

    def test_quantized_replay_bounds_engine_caches(self):
        # The constant-memory contract end to end: feed many jobs with
        # near-unique raw memory through a quantizing spec and check the
        # engine's signature caches stay small.
        import io

        from repro.simulator.engine import SimulationEngine
        from repro.workload.traces.swf import SWFJob, write_swf

        raw = [
            SWFJob(
                job_number=i, submit_time=i * 30, wait_time=-1, run_time=300,
                allocated_procs=1, avg_cpu_time=-1, used_memory_kb=900_000 + i,
                requested_procs=1, requested_time=300,
                requested_memory_kb=900_000 + i, status=1, user_id=i % 8,
                group_id=0, executable=1, queue=0, partition=1,
                preceding_job=-1, think_time=-1,
            )
            for i in range(1, 501)
        ]
        buffer = io.StringIO()
        write_swf(buffer, raw)
        feed = TraceReplaySpec().replay_swf(io.StringIO(buffer.getvalue()))
        cluster = make_cluster()
        engine = SimulationEngine(iter(feed), cluster)
        engine.run()
        assert len(engine._signature_pools) <= 4
        assert len(engine._eligibility_cache) <= 4
