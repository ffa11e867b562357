"""Discrete-event machinery.

The engine's event queue is a *calendar queue*: events are hashed into
fixed-width time buckets (a dict keyed by ``int(time / width)``), each
bucket kept unsorted until the clock reaches it, then sorted once in a
single C-speed ``list.sort`` and consumed in order.  Pushes into the
active bucket use ``bisect.insort``.  Pops are O(1) amortised instead
of a binary heap's O(log n).

Events are ``(time, seq, kind, payload)`` tuples.  ``seq`` is a
monotonically increasing tie-breaker, so events at equal times fire in
scheduling order and ordering never compares payloads.  Trace
submissions draw their ``seq`` from a second counter that starts far
below the first, so at equal times they fire before every runtime
event, in trace order.  Because buckets partition the time axis and
every bucket is sorted by ``(time, seq)`` before consumption, the queue
pops in **exactly** ``(time, seq)`` order — ``tests/test_events.py``
replays large randomized mixed schedules against a sorted-list oracle
to prove it.

Event kinds are plain ints for speed; the engine dispatches on them
through a handler table.

Stale events are handled by *versioning*, not by removal: completion
events carry the job's ``epoch`` and wait-timeout events its
``wait_episode``; handlers drop events whose version no longer matches.
This keeps all queue operations cheap with no bookkeeping of handles.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Any, Dict, List, Tuple

from ..errors import SimulationError

__all__ = [
    "EventQueue",
    "CalendarEventQueue",
    "bucket_width_for",
    "EVENT_SUBMIT",
    "EVENT_FINISH",
    "EVENT_WAIT_TIMEOUT",
    "EVENT_POOL_ARRIVAL",
    "EVENT_SAMPLE",
    "EVENT_MACHINE_CRASH",
    "EVENT_MACHINE_RECOVER",
    "EVENT_POOL_DOWN",
    "EVENT_POOL_UP",
    "EVENT_JOB_FAILURE",
    "EVENT_JOB_RETRY",
    "EVENT_NAMES",
]

#: A job is submitted to its virtual pool manager.  Payload: Job.
EVENT_SUBMIT = 0
#: A running job's completion time arrives.  Payload: (Job, epoch).
EVENT_FINISH = 1
#: A waiting job's threshold check fires.  Payload: (Job, wait_episode).
EVENT_WAIT_TIMEOUT = 2
#: A rescheduled job arrives at its target pool.  Payload: (Job, pool_id).
EVENT_POOL_ARRIVAL = 3
#: The per-minute state sampler ticks.  Payload: None.
EVENT_SAMPLE = 4
#: A machine dies (fault injection).  Payload: (pool_id, Machine).
EVENT_MACHINE_CRASH = 5
#: A dead machine comes back (fault injection).  Payload: (pool_id, Machine).
EVENT_MACHINE_RECOVER = 6
#: A pool blackout window opens (fault injection).  Payload: pool_id.
EVENT_POOL_DOWN = 7
#: A pool blackout window closes (fault injection).  Payload: pool_id.
EVENT_POOL_UP = 8
#: A running job's execution segment dies (fault injection).
#: Payload: (Job, epoch).
EVENT_JOB_FAILURE = 9
#: A failed or orphaned job re-enters placement.  Payload: Job.
EVENT_JOB_RETRY = 10

EVENT_NAMES = {
    EVENT_SUBMIT: "submit",
    EVENT_FINISH: "finish",
    EVENT_WAIT_TIMEOUT: "wait-timeout",
    EVENT_POOL_ARRIVAL: "pool-arrival",
    EVENT_SAMPLE: "sample",
    EVENT_MACHINE_CRASH: "machine-crash",
    EVENT_MACHINE_RECOVER: "machine-recover",
    EVENT_POOL_DOWN: "pool-down",
    EVENT_POOL_UP: "pool-up",
    EVENT_JOB_FAILURE: "job-failure",
    EVENT_JOB_RETRY: "job-retry",
}

Event = Tuple[float, int, int, Any]

#: Default bucket width in simulated minutes.
DEFAULT_BUCKET_WIDTH = 16.0

#: Target mean events per bucket when sizing the calendar for a trace.
_TARGET_BUCKET_OCCUPANCY = 16

#: First submission sequence number: far below the runtime events' seqs,
#: which count up from 0, so no run can make the two ranges meet.
_SUBMISSION_SEQ_BASE = -(1 << 62)


class CalendarEventQueue:
    """Bucketed (calendar-queue) event scheduler with FIFO tie-breaking.

    Pops in exact ``(time, seq)`` order with O(1) amortised push/pop.
    The active bucket is a sorted list consumed by cursor; future
    buckets stay unsorted until the clock reaches them.
    """

    __slots__ = (
        "_buckets",
        "_bucket_order",
        "_current",
        "_cursor",
        "_current_idx",
        "_width",
        "_seq",
        "_submission_seq",
        "_now",
        "_size",
    )

    def __init__(self, bucket_width: float = DEFAULT_BUCKET_WIDTH) -> None:
        if bucket_width <= 0:
            raise SimulationError(
                f"calendar bucket width must be > 0, got {bucket_width}"
            )
        # Unsorted future buckets, keyed by int(time / width).
        self._buckets: Dict[int, List[Event]] = {}
        # Min-heap of bucket keys awaiting activation (in sync with
        # ``_buckets``: a key is pushed when its bucket is created and
        # popped exactly when the bucket is activated).
        self._bucket_order: List[int] = []
        # The active bucket, sorted ascending, consumed via ``_cursor``.
        self._current: List[Event] = []
        self._cursor = 0
        self._current_idx = -1
        self._width = bucket_width
        self._seq = 0
        self._submission_seq = _SUBMISSION_SEQ_BASE
        self._now = 0.0
        self._size = 0

    @property
    def now(self) -> float:
        """Time of the most recently popped event."""
        return self._now

    @property
    def bucket_width(self) -> float:
        """Width of one calendar bucket in simulated minutes."""
        return self._width

    def __len__(self) -> int:
        return self._size

    def push(self, time: float, kind: int, payload: Any = None) -> None:
        """Schedule an event; must not be in the past."""
        if time < self._now - 1e-9:
            raise SimulationError(
                f"cannot schedule {EVENT_NAMES.get(kind, kind)} at {time} "
                f"(current time {self._now})"
            )
        self._insert((time, self._seq, kind, payload))
        self._seq += 1

    def push_submission(self, time: float, job: Any) -> None:
        """Schedule a trace submission (an :data:`EVENT_SUBMIT` of ``job``).

        Submissions take sequence numbers from their own counter, which
        counts up from below every :meth:`push` sequence number: at
        equal times submissions pop before runtime events, and among
        themselves in push (trace) order.
        """
        if time < self._now - 1e-9:
            raise SimulationError(
                f"cannot schedule submit at {time} (current time {self._now})"
            )
        self._insert((time, self._submission_seq, EVENT_SUBMIT, job))
        self._submission_seq += 1

    def _insert(self, entry: Event) -> None:
        self._size += 1
        idx = int(entry[0] / self._width)
        if idx <= self._current_idx:
            # Lands in (or before) the active bucket: keep the sorted
            # invariant.  ``lo=_cursor`` skips the consumed prefix, and
            # any in-tolerance event earlier than remaining entries
            # simply becomes the next pop.
            insort(self._current, entry, lo=self._cursor)
        else:
            bucket = self._buckets.get(idx)
            if bucket is None:
                self._buckets[idx] = [entry]
                heapq.heappush(self._bucket_order, idx)
            else:
                bucket.append(entry)

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing the clock."""
        cursor = self._cursor
        current = self._current
        if cursor >= len(current):
            self._activate_next_bucket()
            cursor = 0
            current = self._current
        event = current[cursor]
        cursor += 1
        if cursor >= len(current):
            # Bucket consumed: drop the storage so pushes landing back
            # in this (still-current) bucket start from a clean list.
            current.clear()
            cursor = 0
        self._cursor = cursor
        self._size -= 1
        self._now = event[0]
        return event

    def _activate_next_bucket(self) -> None:
        """Sort the earliest pending bucket and make it active."""
        if not self._bucket_order:
            raise SimulationError("pop from an empty event queue")
        idx = heapq.heappop(self._bucket_order)
        bucket = self._buckets.pop(idx)
        bucket.sort()
        self._current = bucket
        self._cursor = 0
        self._current_idx = idx


def bucket_width_for(span: float, count: int) -> float:
    """Calendar bucket width for ``count`` events spread over ``span`` minutes.

    Sized so buckets hold about :data:`_TARGET_BUCKET_OCCUPANCY` events;
    small or instantaneous loads keep :data:`DEFAULT_BUCKET_WIDTH`.
    """
    if span > 0 and count >= 4 * _TARGET_BUCKET_OCCUPANCY:
        return span / (count / _TARGET_BUCKET_OCCUPANCY)
    return DEFAULT_BUCKET_WIDTH


#: The engine's event queue implementation.
EventQueue = CalendarEventQueue
