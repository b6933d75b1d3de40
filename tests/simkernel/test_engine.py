"""Tests for the discrete-event loop: clock, ordering, run modes."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.simkernel.engine import Simulator
from repro.simkernel.events import NORMAL, URGENT


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_custom_start():
    assert Simulator(start_time=5.0).now == 5.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(3.5)
    sim.run()
    assert sim.now == 3.5


def test_run_until_time_stops_early():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_run_until_time_with_no_events_advances_clock():
    sim = Simulator()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_run_until_event_returns_value():
    sim = Simulator()
    timeout = sim.timeout(2.0, value="ready")
    assert sim.run(until=timeout) == "ready"
    assert sim.now == 2.0


def test_run_until_past_event_returns_immediately():
    sim = Simulator()
    timeout = sim.timeout(1.0, value=42)
    sim.run()
    assert sim.run(until=timeout) == 42


def test_run_until_event_that_never_fires_raises():
    sim = Simulator()
    orphan = sim.event()
    sim.timeout(1.0)
    with pytest.raises(SimulationError):
        sim.run(until=orphan)


def test_run_until_past_time_raises():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SchedulingError):
        sim.run(until=2.0)


def test_step_with_empty_heap_raises():
    with pytest.raises(SimulationError):
        Simulator().step()


def test_same_time_events_run_in_schedule_order():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.timeout(1.0).add_callback(lambda _e, i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_urgent_priority_runs_before_normal():
    sim = Simulator()
    order = []
    normal = sim.event()
    normal._ok, normal._value = True, None
    sim._schedule(normal, priority=NORMAL, delay=1.0)
    normal.add_callback(lambda _e: order.append("normal"))
    urgent = sim.event()
    urgent._ok, urgent._value = True, None
    sim._schedule(urgent, priority=URGENT, delay=1.0)
    urgent.add_callback(lambda _e: order.append("urgent"))
    sim.run()
    assert order == ["urgent", "normal"]


def test_peek_reports_next_event_time():
    sim = Simulator()
    sim.timeout(2.0)
    sim.timeout(1.0)
    assert sim.peek() == 1.0


def test_peek_empty_heap_is_infinite():
    assert Simulator().peek() == float("inf")


def test_processed_event_counter():
    sim = Simulator()
    for _ in range(3):
        sim.timeout(1.0)
    sim.run()
    assert sim.processed_events == 3


def test_double_schedule_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(Exception):
        sim._schedule(event)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.timeout(-1.0)


def test_nested_timeouts_from_callbacks():
    sim = Simulator()
    seen = []

    def chain(_event, depth=0):
        seen.append(sim.now)
        if depth < 3:
            sim.timeout(1.0).add_callback(lambda e: chain(e, depth + 1))

    sim.timeout(1.0).add_callback(chain)
    sim.run()
    assert seen == [1.0, 2.0, 3.0, 4.0]


def test_failed_event_without_defuse_propagates():
    sim = Simulator()
    event = sim.event()
    event.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_failed_event_with_defuse_is_silent():
    sim = Simulator()
    event = sim.event()
    event.fail(ValueError("boom"))
    event.defuse()
    sim.run()  # no raise
    assert not event.ok


def test_nan_delay_rejected():
    """NaN slips through every `<` comparison; the engine must reject it
    before it corrupts heap ordering."""
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.timeout(float("nan"))
    assert sim.peek() == float("inf")  # nothing entered the heap


def test_infinite_delay_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.timeout(float("inf"))
    with pytest.raises(SchedulingError):
        sim.timeout(float("-inf"))


def test_nan_delay_rejected_on_raw_schedule():
    sim = Simulator()
    event = sim.event()
    event._ok, event._value = True, None
    with pytest.raises(SchedulingError):
        sim._schedule(event, delay=float("nan"))
    assert len(sim._heap) == 0


def test_events_processed_total_tracks_all_simulators():
    from repro.simkernel.engine import events_processed_total

    before = events_processed_total()
    for _ in range(2):
        sim = Simulator()
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.run()
        assert sim.processed_events == 2
    assert events_processed_total() - before == 4
