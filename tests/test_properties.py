"""Property-based tests (hypothesis) on core data structures and invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.cdf import EmpiricalCDF
from repro.simulator.events import EVENT_FINISH, EVENT_SUBMIT, EventQueue
from repro.simulator.job import Job
from repro.simulator.queues import PriorityWaitQueue
from repro.workload.distributions import BoundedPareto, LogNormal, quantile
from repro.workload.trace import Trace

from conftest import make_cluster, make_job, run_tiny

# -- distributions -------------------------------------------------------------


@given(
    alpha=st.floats(0.5, 3.0),
    low=st.floats(1.0, 100.0),
    spread=st.floats(1.5, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200)
def test_bounded_pareto_stays_in_bounds(alpha, low, spread, seed):
    high = low * spread
    d = BoundedPareto(alpha=alpha, low=low, high=high)
    value = d.sample(random.Random(seed))
    assert low <= value <= high


@given(mu=st.floats(-2.0, 6.0), sigma=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_lognormal_positive(mu, sigma, seed):
    assert LogNormal(mu=mu, sigma=sigma).sample(random.Random(seed)) > 0


@given(
    values=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=200),
    q=st.floats(0.0, 1.0),
)
def test_quantile_within_range(values, q):
    ordered = sorted(values)
    result = quantile(ordered, q)
    assert ordered[0] <= result <= ordered[-1]


# -- CDF -----------------------------------------------------------------------


@given(values=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=300))
def test_cdf_fraction_monotone(values):
    cdf = EmpiricalCDF(values)
    probes = sorted({cdf.minimum, cdf.maximum, cdf.mean})
    fractions = [cdf.fraction_at_most(p) for p in probes]
    assert fractions == sorted(fractions)
    assert cdf.fraction_at_most(cdf.maximum) == 1.0


@given(
    values=st.lists(st.floats(0.0, 1e6), min_size=2, max_size=300),
    count=st.integers(2, 50),
)
def test_cdf_points_are_valid_cdf(values, count):
    points = EmpiricalCDF(values).points(count)
    xs = [x for x, _ in points]
    fs = [f for _, f in points]
    assert xs == sorted(xs)
    assert fs == sorted(fs)
    assert all(0.0 < f <= 1.0 for f in fs)


# -- priority queue --------------------------------------------------------------


@given(
    operations=st.lists(
        st.tuples(st.sampled_from(["push", "pop", "remove"]), st.integers(0, 200)),
        max_size=200,
    )
)
@settings(max_examples=100)
def test_wait_queue_matches_reference_model(operations):
    """The heap-based queue behaves exactly like a sorted-list model."""
    queue = PriorityWaitQueue()
    model = []  # list of (-priority, order, job)
    order = 0
    jobs = {}
    for op, value in operations:
        if op == "push":
            if value in jobs:
                continue
            job = Job(make_job(value, priority=value % 5))
            jobs[value] = job
            queue.push(job)
            model.append((-job.priority, order, job))
            order += 1
        elif op == "pop":
            if not model:
                continue
            model.sort()
            expected = model.pop(0)[2]
            actual = queue.pop()
            del jobs[actual.job_id]
            assert actual is expected
        else:  # remove
            if value not in jobs:
                continue
            job = jobs.pop(value)
            queue.remove(job)
            model = [entry for entry in model if entry[2] is not job]
        assert len(queue) == len(model)


# -- event queue -------------------------------------------------------------------


@given(
    times=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=200),
    submissions=st.lists(st.floats(0.0, 1e6), max_size=200),
)
def test_event_queue_pops_sorted(times, submissions):
    q = EventQueue()
    for i, t in enumerate(times):
        q.push(t, EVENT_FINISH, i)
    for i, t in enumerate(sorted(submissions)):
        q.push_submission(t, i)
    popped = [q.pop() for _ in range(len(times) + len(submissions))]
    # By time; at equal times submissions first; each kind in push order.
    keys = [(time, kind != EVENT_SUBMIT, payload) for time, _, kind, payload in popped]
    assert keys == sorted(keys)


# -- trace ------------------------------------------------------------------------


@given(
    submits=st.lists(st.floats(0.0, 1e5), min_size=0, max_size=100),
    lo=st.floats(0.0, 1e5),
    span=st.floats(0.0, 1e5),
)
def test_trace_window_subset_property(submits, lo, span):
    trace = Trace([make_job(i, submit=s) for i, s in enumerate(submits)])
    window = trace.window(lo, lo + span)
    ids = {j.job_id for j in window}
    for job in trace:
        inside = lo <= job.submit_minute < lo + span
        assert (job.job_id in ids) == inside


# -- end-to-end accounting -----------------------------------------------------------


@given(
    runtimes=st.lists(st.floats(1.0, 50.0), min_size=1, max_size=15),
    gaps=st.lists(st.floats(0.0, 10.0), min_size=15, max_size=15),
    priorities=st.lists(st.sampled_from([0, 50, 100]), min_size=15, max_size=15),
)
@settings(max_examples=50, deadline=None)
def test_simulation_accounting_identity(runtimes, gaps, priorities):
    """On speed-1 machines: completion == wait + suspend + service."""
    submit = 0.0
    jobs = []
    for i, runtime in enumerate(runtimes):
        submit += gaps[i]
        jobs.append(
            make_job(i, submit=submit, runtime=runtime, priority=priorities[i])
        )
    result = run_tiny(jobs, cluster=make_cluster([("p0", 1), ("p1", 1)]))
    for record in result.records:
        expected = record.wait_time + record.suspend_time + record.runtime_minutes
        assert abs(record.completion_time - expected) < 1e-6
