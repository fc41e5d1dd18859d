"""Tests for Event lifecycle and AllOf/AnyOf conditions."""

import pytest

from repro.sim import AllOf, AnyOf, Event, SimulationError, Simulator


def test_event_initial_state():
    sim = Simulator()
    ev = sim.event()
    assert not ev.triggered
    assert not ev.processed


def test_succeed_sets_value():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(42)
    assert ev.triggered and ev.ok
    assert ev.value == 42


def test_double_succeed_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_fail_then_succeed_raises():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("boom"))
    with pytest.raises(SimulationError):
        ev.succeed()


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_ok_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_callback_runs_when_processed():
    sim = Simulator()
    ev = sim.event()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    ev.succeed("x")
    assert seen == []  # not yet processed
    sim.run()
    assert seen == ["x"]


def test_callback_after_processed_runs_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("x")
    sim.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["x"]


def test_remove_callback():
    sim = Simulator()
    ev = sim.event()
    seen = []
    cb = lambda e: seen.append(1)  # noqa: E731
    ev.add_callback(cb)
    assert ev.remove_callback(cb)
    assert not ev.remove_callback(cb)
    ev.succeed()
    sim.run()
    assert seen == []


def test_unhandled_failure_raises_at_processing():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("nobody catches me"))
    with pytest.raises(ValueError, match="nobody catches me"):
        sim.run()


def test_succeed_with_delay():
    sim = Simulator()
    ev = sim.event()
    times = []
    ev.add_callback(lambda e: times.append(sim.now))
    ev.succeed(delay=2.5)
    sim.run()
    assert times == [2.5]


def test_allof_waits_for_all():
    sim = Simulator()
    a = sim.timeout(1.0, value="a")
    b = sim.timeout(3.0, value="b")
    both = AllOf(sim, [a, b])
    result = sim.run_until_event(both)
    assert sim.now == 3.0
    assert result[a] == "a" and result[b] == "b"


def test_allof_empty_succeeds_immediately():
    sim = Simulator()
    cond = AllOf(sim, [])
    assert sim.run_until_event(cond) == {}


def test_allof_with_already_processed_events():
    sim = Simulator()
    a = sim.timeout(1.0, value="a")
    sim.run()
    b = sim.timeout(1.0, value="b")
    both = AllOf(sim, [a, b])
    result = sim.run_until_event(both)
    assert set(result.values()) == {"a", "b"}


def _processed_failure(sim, message):
    """A failed event that a waiting process already observed."""
    bad = sim.event()

    def waiter():
        try:
            yield bad
        except RuntimeError:
            pass

    sim.process(waiter())
    bad.fail(RuntimeError(message))
    sim.run()
    assert bad.processed
    return bad


def test_allof_counts_only_unprocessed_events():
    sim = Simulator()
    done = sim.timeout(1.0, value="done")
    sim.run()
    late = sim.timeout(2.0, value="late")
    cond = AllOf(sim, [done, late])
    assert cond._pending == 1
    assert sim.run_until_event(cond) == {done: "done", late: "late"}
    assert cond._pending == 0
    assert sim.now == 3.0


def test_allof_fires_in_the_last_constituents_callback():
    """The condition triggers while its last constituent is processed,
    before callbacks that were added to that event after it."""
    sim = Simulator()
    first = sim.timeout(1.0)
    last = sim.timeout(2.0)
    cond = AllOf(sim, [first, last, first])
    seen = []
    first.add_callback(lambda _ev: seen.append(("first", cond.triggered)))
    last.add_callback(lambda _ev: seen.append(("last", cond.triggered)))
    sim.run_until_event(cond)
    assert seen == [("first", False), ("last", True)]
    assert cond._pending == 0


def test_allof_mixed_processed_pending_and_failing():
    sim = Simulator()
    done = sim.timeout(0.5, value="done")
    sim.run()
    ok = sim.timeout(1.0, value="ok")
    bad = sim.event()
    cond = AllOf(sim, [done, ok, bad])
    assert cond._pending == 2
    bad.fail(RuntimeError("late failure"), delay=2.0)
    with pytest.raises(RuntimeError, match="late failure"):
        sim.run_until_event(cond)
    assert sim.now == 2.5
    assert cond._pending == 1  # ``ok`` succeeded, ``bad`` never will


def test_allof_with_processed_failure_fails():
    sim = Simulator()
    done = sim.timeout(1.0)
    sim.run()
    bad = _processed_failure(sim, "already failed")
    for events in ([done, bad], [bad, done]):
        cond = AllOf(sim, events)
        assert cond.triggered and not cond.ok
        assert str(cond.value) == "already failed"
        cond._defused = True


def test_anyof_keeps_its_first_processed_success():
    """A processed success listed before a processed failure wins."""
    sim = Simulator()
    done = sim.timeout(1.0, value="done")
    sim.run()
    bad = _processed_failure(sim, "ignored")
    cond = AnyOf(sim, [done, bad])
    assert sim.run_until_event(cond) == {done: "done"}


def test_anyof_fires_on_first():
    sim = Simulator()
    a = sim.timeout(1.0, value="fast")
    b = sim.timeout(10.0, value="slow")
    first = AnyOf(sim, [a, b])
    result = sim.run_until_event(first)
    assert sim.now == 1.0
    assert result == {a: "fast"}


def test_anyof_empty_succeeds_immediately():
    sim = Simulator()
    cond = AnyOf(sim, [])
    assert sim.run_until_event(cond) == {}


def test_allof_propagates_failure():
    sim = Simulator()
    a = sim.timeout(1.0)
    b = sim.event()
    cond = AllOf(sim, [a, b])
    b.fail(RuntimeError("bad"))
    with pytest.raises(RuntimeError, match="bad"):
        sim.run_until_event(cond)


def test_condition_rejects_foreign_events():
    sim1, sim2 = Simulator(), Simulator()
    a = sim1.event()
    b = sim2.event()
    with pytest.raises(SimulationError):
        AllOf(sim1, [a, b])


def test_event_repr_shows_state():
    sim = Simulator()
    ev = Event(sim, name="my-event")
    assert "my-event" in repr(ev)
    assert "pending" in repr(ev)
    ev.succeed()
    assert "triggered" in repr(ev)
