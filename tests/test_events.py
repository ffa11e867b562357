"""Unit tests for the event queue and simulation config."""

import random
from bisect import insort

import pytest

from repro.core.overheads import RestartOverhead
from repro.errors import ConfigurationError, SimulationError
from repro.simulator.config import SimulationConfig
from repro.simulator.events import (
    EVENT_FINISH,
    EVENT_NAMES,
    EVENT_SAMPLE,
    EVENT_SUBMIT,
    CalendarEventQueue,
    EventQueue,
    bucket_width_for,
)


class SortedListEventQueue:
    """Reference scheduler: one list kept sorted, popped from the front.

    The specification the calendar queue must reproduce: events pop by
    time; at equal times submissions come first, then runtime events,
    each in push order.
    """

    def __init__(self):
        self._events = []
        self._pushed = 0
        self.now = 0.0

    def __len__(self):
        return len(self._events)

    def push(self, time, kind, payload=None):
        insort(self._events, (time, 1, self._pushed, kind, payload))
        self._pushed += 1

    def push_submission(self, time, job):
        insort(self._events, (time, 0, self._pushed, EVENT_SUBMIT, job))
        self._pushed += 1

    def pop(self):
        time, _, _, kind, payload = self._events.pop(0)
        self.now = time
        return time, kind, payload


class TestEventQueue:
    def test_pop_in_time_order(self):
        q = EventQueue()
        q.push(5.0, EVENT_SUBMIT, "b")
        q.push(1.0, EVENT_SUBMIT, "a")
        q.push(9.0, EVENT_SUBMIT, "c")
        assert [q.pop()[3] for _ in range(3)] == ["a", "b", "c"]

    def test_fifo_at_equal_times(self):
        q = EventQueue()
        for i in range(5):
            q.push(1.0, EVENT_SUBMIT, i)
        assert [q.pop()[3] for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_clock_advances(self):
        q = EventQueue()
        q.push(4.0, EVENT_SUBMIT, None)
        assert q.now == 0.0
        q.pop()
        assert q.now == 4.0

    def test_cannot_schedule_in_past(self):
        q = EventQueue()
        q.push(5.0, EVENT_SUBMIT, None)
        q.pop()
        with pytest.raises(SimulationError):
            q.push(4.0, EVENT_SUBMIT, None)

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_submissions_pop_first_at_equal_times(self):
        q = EventQueue()
        q.push(2.0, EVENT_FINISH, "runtime")
        q.push_submission(2.0, "first")
        q.push_submission(2.0, "second")
        q.push(1.0, EVENT_SAMPLE, "earlier")
        assert [q.pop()[3] for _ in range(4)] == [
            "earlier", "first", "second", "runtime",
        ]

    def test_submission_is_a_submit_event(self):
        q = EventQueue()
        q.push_submission(3.0, "job")
        time, _, kind, payload = q.pop()
        assert (time, kind, payload) == (3.0, EVENT_SUBMIT, "job")

    def test_cannot_submit_in_past(self):
        q = EventQueue()
        q.push(5.0, EVENT_FINISH, None)
        q.pop()
        with pytest.raises(SimulationError):
            q.push_submission(4.0, None)


class TestCalendarQueue:
    """Calendar-specific behavior the generic contract tests don't reach."""

    def test_engine_queue_is_the_calendar_queue(self):
        assert EventQueue is CalendarEventQueue

    def test_bucket_width_sized_from_span(self):
        width = bucket_width_for(1023.0, 1024)
        assert width == pytest.approx(1023.0 / 64)
        q = CalendarEventQueue(width)
        for i in reversed(range(1024)):
            q.push(float(i), EVENT_SUBMIT, i)
        assert q.bucket_width == width
        assert [q.pop()[3] for _ in range(1024)] == list(range(1024))

    def test_small_or_instant_loads_keep_default_width(self):
        assert bucket_width_for(1023.0, 10) == CalendarEventQueue().bucket_width
        assert bucket_width_for(0.0, 1024) == CalendarEventQueue().bucket_width

    def test_push_into_active_bucket_mid_consumption(self):
        q = CalendarEventQueue(bucket_width=10.0)
        q.push(1.0, EVENT_SUBMIT, "a")
        q.push(9.0, EVENT_SUBMIT, "d")
        assert q.pop()[3] == "a"
        # Now inside bucket 0; schedule ahead of the remaining entry.
        q.push(3.0, EVENT_SUBMIT, "b")
        q.push(3.0, EVENT_SUBMIT, "c")
        assert [q.pop()[3] for _ in range(3)] == ["b", "c", "d"]

    def test_push_below_active_bucket_after_gap(self):
        # Drain bucket 0, activate a far bucket, then push an event
        # whose bucket index is below the active one (legal while its
        # time is >= now): it must still pop first.
        q = CalendarEventQueue(bucket_width=10.0)
        q.push(7.9, EVENT_SUBMIT, "early")
        q.push(25.0, EVENT_SUBMIT, "late")
        assert q.pop()[3] == "early"
        q.push(7.95, EVENT_SUBMIT, "squeezed")
        assert [q.pop()[3] for _ in range(2)] == ["squeezed", "late"]

    def test_invalid_width_rejected(self):
        with pytest.raises(SimulationError):
            CalendarEventQueue(bucket_width=0.0)


class TestCalendarHeapDifferential:
    """The bucketed queue must pop in exactly heap order.

    Heap order is the ``(time, seq)`` order the engine's original binary
    heap popped in; :class:`SortedListEventQueue` is its specification.

    Same-timestamp events have to pop in the exact (time, sequence)
    order, or fault-injected runs silently diverge from the seed — this
    replays large randomized mixed schedules (an unsorted initial
    population, a sorted submission feed, interleaved pushes at the
    current minute, heavy ties) through the calendar queue and the
    sorted-list oracle and asserts identical pop streams.
    """

    KINDS = sorted(EVENT_NAMES)

    def _differential(
        self, rng, total_events, initial_count, tie_fraction, width=None
    ):
        calendar = (
            CalendarEventQueue(bucket_width=width)
            if width is not None
            else CalendarEventQueue()
        )
        oracle = SortedListEventQueue()
        for i in range(initial_count):
            time = round(rng.uniform(0.0, 5000.0), 2)
            kind = rng.choice(self.KINDS)
            calendar.push(time, kind, i)
            oracle.push(time, kind, i)
        pushed = initial_count
        popped = 0
        last_submit = 0.0
        while popped < total_events:
            if pushed < total_events and (len(calendar) == 0 or rng.random() < 0.45):
                a = calendar.now
                if rng.random() < 0.3:
                    # The submission feed: sorted, never in the past.
                    last_submit = max(last_submit, a)
                    if rng.random() >= tie_fraction:
                        last_submit = round(last_submit + rng.uniform(0.0, 7.0), 2)
                    calendar.push_submission(last_submit, pushed)
                    oracle.push_submission(last_submit, pushed)
                    pushed += 1
                    continue
                if rng.random() < tie_fraction:
                    time = a  # exact tie with the current minute
                elif rng.random() < 0.5:
                    time = round(a + rng.uniform(0.0, 7.0), 2)  # near future
                else:
                    time = round(a + rng.uniform(0.0, 900.0), 2)  # far future
                kind = rng.choice(self.KINDS)
                calendar.push(time, kind, pushed)
                oracle.push(time, kind, pushed)
                pushed += 1
                continue
            time, _, kind, payload = calendar.pop()
            want = oracle.pop()
            assert (time, kind, payload) == want, (
                f"divergence at pop #{popped}: {(time, kind, payload)} != {want}"
            )
            assert calendar.now == oracle.now
            popped += 1
        assert len(calendar) == len(oracle) == 0

    def test_replay_100k_mixed_events_identical_order(self):
        rng = random.Random(0xC0FFEE)
        self._differential(
            rng, total_events=100_000, initial_count=30_000, tie_fraction=0.3
        )

    def test_replay_heavy_ties_small_width(self):
        rng = random.Random(42)
        self._differential(
            rng, total_events=20_000, initial_count=0, tie_fraction=0.7, width=0.5
        )

    def test_replay_wide_buckets(self):
        rng = random.Random(7)
        self._differential(
            rng, total_events=20_000, initial_count=5_000, tie_fraction=0.2, width=4096.0
        )


class TestSimulationConfig:
    def test_defaults_are_paper_faithful(self):
        config = SimulationConfig()
        assert config.sample_interval == 1.0
        assert config.restart_overhead.is_free
        assert config.strict

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(sample_interval=0.0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(vpm_count=0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(max_minutes=0.0)

    def test_custom_overhead(self):
        config = SimulationConfig(restart_overhead=RestartOverhead(fixed_minutes=5.0))
        assert not config.restart_overhead.is_free
