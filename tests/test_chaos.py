"""Tests for the chaos harness: plans, invariant audit, recovery paths.

Three layers, cheapest first:

* **plan mechanics** — selector matching, action validation, hook
  firing and consumption, dump/load (no subprocesses, chaos deaths
  stubbed out);
* **invariant audit** — each violation class is injected by hand into
  a small fabricated run and must be flagged with its specific
  message, and the recovery counters must add up;
* **end to end** (``slow``) — the crash-mid-publish window against a
  real SIGKILLed worker subprocess, torn-publish re-publication, and
  the full seeded scenario matrix converging under
  :func:`repro.chaos.run_scenario`.
"""

from __future__ import annotations

import errno
import json
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from repro.chaos import SCENARIOS, build_schedule, run_scenario
from repro.chaos.invariants import audit_run
from repro.chaos.plan import (
    CHAOS_PLAN_ENV,
    ChaosAction,
    ChaosPlan,
    ChaosPlanError,
    worker_suffix,
)
from repro.errors import ReproError
from repro.experiments.cache import ResultCache, sweep_tmp_droppings
from repro.experiments.parallel import GridReport
from repro.fabric.backends import SubprocessWorkerBackend
from repro.fabric.lease import CLAIMED, DONE, LeaseStore
from repro.fabric.presets import build_grid
from repro.fabric.supervisor import sweep_settled_leases
from repro.fabric.worker import run_worker, write_manifest


KEY = "ab" + "0" * 62


def delay(worker, nth=0, every=False):
    return ChaosAction(
        worker=worker, stage="compute", action="delay", nth=nth,
        every=every, seconds=1.0,
    )


def make_plan(actions, worker_id):
    """A plan whose delay-sleeps are recorded instead of slept."""
    slept = []
    plan = ChaosPlan(actions, worker_id=worker_id, sleep=slept.append)
    return plan, slept


class TestSelectors:
    def test_worker_suffix(self):
        assert worker_suffix("run-123-w2r1") == "w2r1"
        assert worker_suffix("w2r0") == "w2r0"

    def test_slot_selector_matches_every_incarnation(self):
        for incarnation in ("w2r0", "w2r3"):
            plan, slept = make_plan([delay("w2")], f"run-1-{incarnation}")
            plan.on_compute(KEY, 0)
            assert slept == [1.0], incarnation

    def test_slot_selector_does_not_match_longer_slot(self):
        plan, slept = make_plan([delay("w2")], "run-1-w21r0")
        plan.on_compute(KEY, 0)
        assert slept == []

    def test_incarnation_selector_is_exact(self):
        plan, slept = make_plan([delay("w2r1")], "run-1-w2r1")
        plan.on_compute(KEY, 0)
        assert slept == [1.0]
        plan, slept = make_plan([delay("w2r1")], "run-1-w2r0")
        plan.on_compute(KEY, 0)
        assert slept == []

    def test_star_matches_everyone(self):
        plan, slept = make_plan([delay("*")], "run-1-w7r4")
        plan.on_compute(KEY, 0)
        assert slept == [1.0]


class TestActionValidation:
    def test_unknown_stage_rejected(self):
        with pytest.raises(ChaosPlanError, match="unknown chaos stage"):
            ChaosAction(worker="*", stage="teardown", action="die")

    def test_action_must_fit_stage(self):
        with pytest.raises(ChaosPlanError, match="not valid at stage"):
            ChaosAction(worker="*", stage="compute", action="enospc")
        with pytest.raises(ChaosPlanError, match="not valid at stage"):
            ChaosAction(worker="*", stage="start", action="delay")

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ChaosPlanError, match="unknown chaos action field"):
            ChaosAction.from_dict(
                {"worker": "*", "stage": "compute", "action": "die",
                 "blast_radius": 9}
            )

    def test_from_dict_rejects_missing_fields(self):
        with pytest.raises(ChaosPlanError, match="bad chaos action"):
            ChaosAction.from_dict({"worker": "*"})

    def test_dict_round_trip(self):
        action = delay("w3", nth=2, every=True)
        assert ChaosAction.from_dict(action.to_dict()) == action


class TestDumpLoad:
    def test_round_trip_keeps_targeted_actions(self, tmp_path):
        actions = [delay("w0"), delay("w1"), delay("*")]
        path = ChaosPlan.dump(actions, tmp_path / "plan.json")
        plan = ChaosPlan.load(path, worker_id="run-9-w1r0")
        slept = []
        plan._sleep = slept.append
        plan.on_compute(KEY, 0)
        plan.on_compute(KEY, 0)
        plan.on_compute(KEY, 0)
        # w1 and * match; w0 does not.
        assert slept == [1.0, 1.0]

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(ChaosPlanError, match="cannot read"):
            ChaosPlan.load(tmp_path / "absent.json", worker_id="w0")

    def test_load_non_json_raises(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{torn", encoding="utf-8")
        with pytest.raises(ChaosPlanError, match="not JSON"):
            ChaosPlan.load(path, worker_id="w0")

    def test_load_wrong_shape_raises(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('["not", "a", "plan"]', encoding="utf-8")
        with pytest.raises(ChaosPlanError, match="actions"):
            ChaosPlan.load(path, worker_id="w0")


class TestHooks:
    """Hook firing with the SIGKILL stubbed to a recorder."""

    def _armed(self, actions, worker_id="run-1-w0r0"):
        plan, slept = make_plan(actions, worker_id)
        deaths = []
        plan._die = lambda: deaths.append(True)
        return plan, slept, deaths

    def test_nth_selects_the_ordinal_and_consumes(self):
        action = ChaosAction(worker="*", stage="compute", action="die", nth=1)
        plan, _, deaths = self._armed([action])
        plan.on_compute(KEY, 0)
        assert deaths == []
        plan.on_compute(KEY, 1)
        assert deaths == [True]
        plan.on_compute(KEY, 1)  # consumed: fires once
        assert deaths == [True]
        assert plan.fired == [action]

    def test_every_repeats_across_cells(self):
        plan, slept, _ = self._armed([delay("*", every=True)])
        for ordinal in range(3):
            plan.on_compute(KEY, ordinal)
        assert slept == [1.0, 1.0, 1.0]

    def test_on_start_fires_before_any_claim(self):
        action = ChaosAction(worker="w0r1", stage="start", action="die")
        plan, _, deaths = self._armed([action], worker_id="run-1-w0r1")
        plan.on_start()
        assert deaths == [True]

    def test_on_start_is_a_noop_without_a_start_action(self):
        plan, _, deaths = self._armed([delay("*")])
        plan.on_start()
        assert deaths == []

    def test_enospc_raises_in_place_of_the_write(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        action = ChaosAction(worker="*", stage="publish", action="enospc")
        plan, _, deaths = self._armed([action])
        with pytest.raises(OSError) as excinfo:
            plan.on_publish(cache, KEY, 0)
        assert excinfo.value.errno == errno.ENOSPC
        assert deaths == []

    def test_torn_publish_leaves_bytes_peek_rejects(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        action = ChaosAction(worker="*", stage="publish", action="torn")
        plan, _, deaths = self._armed([action])
        plan.on_publish(cache, KEY, 0)
        assert deaths == [True]
        assert cache.path_for(KEY).exists()
        assert cache.peek(KEY) is None  # the envelope rejects the garbage


class TestScheduleDeterminism:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_same_seed_same_schedule(self, name):
        assert build_schedule(name, seed=2010) == build_schedule(name, seed=2010)
        assert build_schedule(name, seed=2010).actions

    def test_schedules_serialize_to_json(self):
        for name in SCENARIOS:
            json.dumps(build_schedule(name, seed=7).to_dict())

    def test_kill_storm_shape(self):
        schedule = build_schedule("kill-storm", seed=2010, workers=4)
        stages = [a.stage for a in schedule.actions]
        # one mid-compute death, four boot deaths (the crash loop),
        # three publish-window kills
        assert stages.count("compute") == 1
        assert stages.count("start") == 4
        assert stages.count("post-publish") == 3

    def test_straggler_is_in_band_only(self):
        schedule = build_schedule("straggler", seed=2010)
        assert schedule.out_of_band == ()
        assert all(a.action == "delay" for a in schedule.actions)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ReproError, match="unknown chaos scenario"):
            build_schedule("meteor-strike", seed=1)

    def test_needs_two_workers(self):
        with pytest.raises(ReproError, match="at least 2 workers"):
            build_schedule("kill-storm", seed=1, workers=1)


def _key(i):
    return f"{i:02x}" + "c" * 62


def _tasks(keys):
    return [SimpleNamespace(cache_key=k) for k in keys]


def _report(n, failures=(), holes=()):
    outcomes = tuple(
        None if i in holes else SimpleNamespace(summary={"cell": i})
        for i in range(n)
    )
    return GridReport(outcomes=outcomes, failures=tuple(failures))


def _publish_done(cache, keys, worker="w0"):
    store = LeaseStore(
        cache.root, run_id="audit-test", worker_id=worker, ttl_seconds=60.0
    )
    for k in keys:
        cache.put(k, {"summary": {"cell": k[:2]}})
        assert store.claim(k)
        store.release_done(k, wall_seconds=0.1)
    return store


class TestAudit:
    """Each invariant violation class, injected by hand and flagged."""

    def test_clean_run_passes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = [_key(0), _key(1)]
        _publish_done(cache, keys)
        audit = audit_run(_report(2), _tasks(keys), cache)
        assert audit.ok, audit.violations
        assert audit.cells == 2
        assert audit.counter("done_markers") == 2
        assert audit.counter("takeovers") == 0
        assert audit.counter("cells_recovered") == 0

    def test_missing_outcome_flagged(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = [_key(0), _key(1)]
        _publish_done(cache, keys)
        audit = audit_run(_report(2, holes={1}), _tasks(keys), cache)
        assert any("missing outcomes" in v for v in audit.violations)

    def test_cell_failures_flagged(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = [_key(0)]
        _publish_done(cache, keys)
        audit = audit_run(
            _report(1, failures=(object(),)), _tasks(keys), cache
        )
        assert any("cell failure" in v for v in audit.violations)

    def test_digest_divergence_flagged(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = [_key(0)]
        _publish_done(cache, keys)
        audit = audit_run(
            _report(1), _tasks(keys), cache,
            serial_digests=["not-the-same-digest"],
        )
        assert any("digests diverge" in v for v in audit.violations)

    def test_unpublished_cell_flagged(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        audit = audit_run(_report(1), _tasks([_key(0)]), cache)
        assert any("no valid cache entry" in v for v in audit.violations)

    def test_orphan_claimed_lease_flagged(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = [_key(0)]
        _publish_done(cache, keys)
        orphan = LeaseStore(
            cache.root, run_id="audit-test", worker_id="ghost",
            ttl_seconds=60.0,
        )
        cache.put(_key(1), {"summary": {}})
        assert orphan.claim(_key(1))  # claimed, never released
        audit = audit_run(
            _report(2), _tasks(keys + [_key(1)]), cache
        )
        assert any("orphan claimed lease" in v for v in audit.violations)
        assert audit.counter("claimed_leases") == 1

    def test_unparsable_lease_flagged(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = [_key(0)]
        _publish_done(cache, keys)
        cache.leases_dir.mkdir(parents=True, exist_ok=True)
        (cache.leases_dir / f"{_key(1)}.lease").write_text(
            '{"status": "cla', encoding="utf-8"
        )
        audit = audit_run(_report(1), _tasks(keys), cache)
        assert any("unparsable lease" in v for v in audit.violations)
        assert audit.counter("torn_leases") == 1

    def test_done_marker_without_entry_flagged(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = _key(0)
        store = _publish_done(cache, [key])
        cache.path_for(key).unlink()  # the entry was gc'ed
        del store
        audit = audit_run(_report(1, holes={0}), _tasks([key]), cache)
        assert any(
            "journals an unpublished cell" in v for v in audit.violations
        )

    def test_takeover_marker_counts_as_recovered(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = _key(0)

        class Clock:
            now = 1000.0

            def __call__(self):
                return self.now

        clock = Clock()
        dead = LeaseStore(
            cache.root, run_id="r", worker_id="dead", ttl_seconds=10.0,
            clock=clock,
        )
        thief = LeaseStore(
            cache.root, run_id="r", worker_id="thief", ttl_seconds=10.0,
            clock=clock,
        )
        assert dead.claim(key)
        clock.now += 11.0
        assert thief.claim(key)
        cache.put(key, {"summary": {}})
        thief.release_done(key, wall_seconds=0.1)
        audit = audit_run(_report(1), _tasks([key]), cache)
        assert audit.ok, audit.violations
        assert audit.counter("takeovers") == 1
        assert audit.counter("cells_recovered") == 1

    def test_swept_leases_count_as_recovered(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = [_key(0)]
        _publish_done(cache, keys)
        audit = audit_run(_report(1), _tasks(keys), cache, swept_leases=2)
        assert audit.counter("swept_leases") == 2
        assert audit.counter("cells_recovered") == 2

    def test_tmp_dropping_flagged(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = [_key(0)]
        _publish_done(cache, keys)
        dropping = cache.leases_dir / f"{_key(0)}.lease.tmp.99999"
        dropping.write_text("half a heartbeat", encoding="utf-8")
        audit = audit_run(_report(1), _tasks(keys), cache)
        assert any("abandoned tmp file" in v for v in audit.violations)
        assert audit.counter("tmp_droppings") == 1

    def test_manifest_scratch_is_not_a_dropping(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = [_key(0)]
        _publish_done(cache, keys)
        scratch = cache.root / "manifests"
        scratch.mkdir(parents=True, exist_ok=True)
        (scratch / "grid.pkl.tmp.12345").write_bytes(b"in flight")
        audit = audit_run(_report(1), _tasks(keys), cache)
        assert audit.ok, audit.violations


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class TestSweeps:
    def test_settled_orphan_is_swept(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = _key(0)
        cache.put(key, {"summary": {}})
        store = LeaseStore(
            cache.root, run_id="r", worker_id="dead", ttl_seconds=60.0
        )
        assert store.claim(key)  # published but never released: settled
        clock = FakeClock(start=time.time())
        removed = sweep_settled_leases(
            cache, [key], ttl=60.0, sleep=clock.sleep, clock=clock
        )
        assert removed == 1
        assert not store.path_for(key).exists()

    def test_unpublished_claim_is_not_ours_to_judge(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = _key(0)
        store = LeaseStore(
            cache.root, run_id="r", worker_id="w", ttl_seconds=60.0
        )
        assert store.claim(key)
        clock = FakeClock(start=time.time())
        removed = sweep_settled_leases(
            cache, [key], ttl=60.0, sleep=clock.sleep, clock=clock
        )
        assert removed == 0
        assert store.read(key).status == CLAIMED

    def test_done_markers_are_left_alone(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = _key(0)
        _publish_done(cache, [key])
        clock = FakeClock(start=time.time())
        removed = sweep_settled_leases(
            cache, [key], ttl=60.0, sleep=clock.sleep, clock=clock
        )
        assert removed == 0

    def test_tmp_droppings_swept_only_for_dead_pids(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.leases_dir.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import os, sys; sys.stdout.write(str(os.getpid()))"],
            capture_output=True, text=True, check=True,
        )
        dead_pid = int(proc.stdout)
        import os as os_module

        dead = cache.leases_dir / f"{_key(0)}.lease.tmp.{dead_pid}"
        live = cache.leases_dir / f"{_key(1)}.lease.tmp.{os_module.getpid()}"
        nonpid = cache.leases_dir / f"{_key(2)}.lease.tmp.notapid"
        for p in (dead, live, nonpid):
            p.write_text("half a write", encoding="utf-8")
        removed = sweep_tmp_droppings(cache)
        assert removed == 1
        assert not dead.exists()
        assert live.exists()
        assert nonpid.exists()


@pytest.mark.slow
class TestCrashMidPublish:
    """Satellite regression: SIGKILL between ``cache.put`` and
    ``release_done`` must leave a valid entry plus a settled orphan
    lease — never a torn entry — and the sweep must reconcile it."""

    def test_killed_publisher_leaves_valid_entry_and_orphan(
        self, tmp_path, monkeypatch
    ):
        tasks = build_grid("smoke", seed=5)[:2]
        keys = [t.cache_key for t in tasks]
        cache = ResultCache(tmp_path / "cache")
        plan_path = ChaosPlan.dump(
            [ChaosAction(worker="*", stage="post-publish", action="kill",
                         nth=0)],
            tmp_path / "plan.json",
        )
        monkeypatch.setenv(CHAOS_PLAN_ENV, str(plan_path))

        backend = SubprocessWorkerBackend(n_workers=1, poll_interval=0.05)
        manifest = write_manifest(
            tasks, cache.root / "manifests" / "crash-test.pkl"
        )
        proc = backend.spawn_worker(
            manifest, cache.root, run_id="crash-test", lease_ttl=0.5,
            worker_id="crash-test-w0r0",
        )
        assert proc.wait(timeout=60) == -9  # SIGKILLed itself

        published = [k for k in keys if cache.peek(k) is not None]
        assert len(published) == 1  # died right after its first publish
        orphan = json.loads(
            (cache.leases_dir / f"{published[0]}.lease").read_text(
                encoding="utf-8"
            )
        )
        assert orphan["status"] == CLAIMED  # release_done never ran

        # The sweep reconciles the settled orphan (real clock: the
        # lease stopped heartbeating when the worker died).
        swept = sweep_settled_leases(cache, keys, ttl=0.5)
        assert swept == 1
        assert not (cache.leases_dir / f"{published[0]}.lease").exists()

        # A recovery worker finishes the grid without recomputing the
        # published cell.
        monkeypatch.delenv(CHAOS_PLAN_ENV)
        store = LeaseStore(
            cache.root, run_id="crash-test-recovery", worker_id="rescue",
            ttl_seconds=0.5,
        )
        stats = run_worker(tasks, cache, store, poll_interval=0.05)
        assert stats.computed == 1
        assert stats.skipped == 1
        for k in keys:
            assert cache.peek(k) is not None
        # The recomputed cell has a done marker; the swept cell's
        # orphan stays gone (a skip never re-journals).
        recomputed = [k for k in keys if k != published[0]]
        assert store.read(recomputed[0]).status == DONE
        assert store.read(published[0]) is None


@pytest.mark.slow
class TestTornPublishRecovery:
    def test_torn_entry_is_republished(self, tmp_path):
        tasks = build_grid("smoke", seed=5)[:1]
        key = tasks[0].cache_key
        cache = ResultCache(tmp_path / "cache")

        plan, _ = make_plan(
            [ChaosAction(worker="*", stage="publish", action="torn")],
            "run-1-w0r0",
        )
        plan._die = lambda: None  # the write, without the death
        plan.on_publish(cache, key, 0)
        assert cache.path_for(key).exists()
        assert cache.peek(key) is None

        store = LeaseStore(
            cache.root, run_id="torn-recovery", worker_id="rescue",
            ttl_seconds=0.5,
        )
        stats = run_worker(tasks, cache, store, poll_interval=0.05)
        assert stats.computed == 1
        assert cache.peek(key) is not None  # atomically overwritten


@pytest.mark.slow
class TestScenarioMatrix:
    """The acceptance gate: every seeded scenario converges — grid
    complete, digests bit-identical to serial, journal clean — per the
    invariant checker inside :func:`run_scenario`."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_converges(self, name):
        report = run_scenario(name, seed=2010, workers=4)
        assert report.ok, report.violations
        assert report.cells > 0
        assert report.wall_seconds > 0
