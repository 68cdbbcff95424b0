"""Unit tests for the time-step engine, hooks, and event traces of a run."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import StopSimulation, TimeStepEngine
from repro.sim.hooks import HookRegistry


class TestTimeStepEngine:
    def test_processes_run_each_step(self):
        engine = TimeStepEngine()
        seen = []
        engine.add_process(seen.append)
        engine.run(3)
        assert seen == [1, 2, 3]

    def test_process_order_is_registration_order(self):
        engine = TimeStepEngine()
        order = []
        engine.add_process(lambda t: order.append("a"))
        engine.add_process(lambda t: order.append("b"))
        engine.run(1)
        assert order == ["a", "b"]

    def test_stop_simulation_ends_run_early(self):
        engine = TimeStepEngine()

        def stopper(t):
            if t == 2:
                raise StopSimulation("done")

        engine.add_process(stopper)
        last = engine.run(10)
        assert last == 2
        assert engine.stop_reason == "done"

    def test_run_returns_last_time(self):
        engine = TimeStepEngine()
        assert engine.run(5) == 5
        assert engine.clock.now == 5

    def test_run_twice_continues_clock(self):
        engine = TimeStepEngine()
        engine.run(2)
        engine.run(2)
        assert engine.clock.now == 4

    def test_negative_max_steps_rejected(self):
        with pytest.raises(SimulationError):
            TimeStepEngine().run(-1)

    def test_scheduled_event_fires_before_processes(self):
        engine = TimeStepEngine()
        order = []
        engine.schedule_at(2, lambda: order.append("event"))
        engine.add_process(lambda t: order.append(f"step{t}"))
        engine.run(3)
        assert order == ["step1", "event", "step2", "step3"]

    def test_schedule_in_relative(self):
        engine = TimeStepEngine()
        fired = []
        engine.run(2)
        engine.schedule_in(3, lambda: fired.append(engine.clock.now))
        engine.run(5)
        assert fired == [5]

    def test_schedule_in_past_rejected(self):
        engine = TimeStepEngine()
        engine.run(5)
        with pytest.raises(SimulationError):
            engine.schedule_at(5, lambda: None)

    def test_hooks_fire(self):
        engine = TimeStepEngine()
        events = []
        engine.hooks.subscribe("step_start", lambda time: events.append(("start", time)))
        engine.hooks.subscribe("step_end", lambda time: events.append(("end", time)))
        engine.hooks.subscribe(
            "run_end", lambda time, reason: events.append(("run_end", reason))
        )
        engine.run(2)
        assert events == [
            ("start", 1),
            ("end", 1),
            ("start", 2),
            ("end", 2),
            ("run_end", "max_steps"),
        ]

    def test_run_end_reports_stop_reason(self):
        engine = TimeStepEngine()
        reasons = []
        engine.hooks.subscribe("run_end", lambda time, reason: reasons.append(reason))

        def stopper(t):
            raise StopSimulation("why")

        engine.add_process(stopper)
        engine.run(5)
        assert reasons == ["why"]

    def test_run_end_fires_exactly_once_on_error(self):
        # A process raising a non-StopSimulation error must still fire
        # run_end (exactly once, with an "error: …" reason) so metric
        # collectors can finalize before the exception propagates.
        engine = TimeStepEngine()
        fired = []
        engine.hooks.subscribe(
            "run_end", lambda time, reason: fired.append((time, reason))
        )

        def exploder(t):
            if t == 2:
                raise ValueError("boom")

        engine.add_process(exploder)
        with pytest.raises(ValueError):
            engine.run(10)
        assert fired == [(2, "error: boom")]

    def test_error_leaves_engine_restartable(self):
        engine = TimeStepEngine()
        state = {"explode": True}

        def sometimes(t):
            if state["explode"]:
                raise RuntimeError("first run dies")

        engine.add_process(sometimes)
        with pytest.raises(RuntimeError):
            engine.run(3)
        state["explode"] = False
        assert engine.run(3) > 0  # _running was reset; a rerun works


class TestHookRegistry:
    def test_fire_without_subscribers_is_noop(self):
        HookRegistry().fire("nothing", x=1)

    def test_subscribe_and_fire(self):
        hooks = HookRegistry()
        got = []
        hooks.subscribe("h", lambda **kw: got.append(kw))
        hooks.fire("h", a=1, b="x")
        assert got == [{"a": 1, "b": "x"}]

    def test_subscription_order_preserved(self):
        hooks = HookRegistry()
        order = []
        hooks.subscribe("h", lambda: order.append(1))
        hooks.subscribe("h", lambda: order.append(2))
        hooks.fire("h")
        assert order == [1, 2]

    def test_unsubscribe(self):
        hooks = HookRegistry()
        callback = lambda: None  # noqa: E731
        hooks.subscribe("h", callback)
        assert hooks.subscriber_count("h") == 1
        hooks.unsubscribe("h", callback)
        assert hooks.subscriber_count("h") == 0

    def test_is_live_needs_a_subscriber_or_a_profiler(self):
        hooks = HookRegistry()
        assert not hooks.is_live("h")
        callback = lambda: None  # noqa: E731
        hooks.subscribe("h", callback)
        assert hooks.is_live("h")
        assert not hooks.is_live("other")
        hooks.unsubscribe("h", callback)
        assert not hooks.is_live("h")
        hooks.set_profiler(object())
        assert hooks.is_live("h")

    def test_unsubscribe_missing_is_noop(self):
        HookRegistry().unsubscribe("h", lambda: None)

    def test_unsubscribe_during_fire_does_not_skip_subscribers(self):
        # fire() must iterate a snapshot: a callback that unsubscribes
        # itself used to shift the live list and silently skip the next
        # subscriber.
        hooks = HookRegistry()
        ran = []

        def one_shot():
            ran.append("one_shot")
            hooks.unsubscribe("h", one_shot)

        hooks.subscribe("h", one_shot)
        hooks.subscribe("h", lambda: ran.append("steady"))
        hooks.fire("h")
        assert ran == ["one_shot", "steady"]
        hooks.fire("h")
        assert ran == ["one_shot", "steady", "steady"]

    def test_subscribe_during_fire_affects_next_fire_only(self):
        hooks = HookRegistry()
        ran = []

        def recruiter():
            ran.append("recruiter")
            hooks.subscribe("h", lambda: ran.append("recruit"))

        hooks.subscribe("h", recruiter)
        hooks.fire("h")
        assert ran == ["recruiter"]


class TestTraceRecorder:
    """A run's hook fires recorded as events: a plain list subscribed to
    the engine's hooks."""

    @staticmethod
    def traced_run(steps, kinds=("move", "learn")):
        """Run an engine whose one process fires ``move`` then ``learn``;
        return the ``(time, kind, payload)`` fires of ``kinds``."""
        engine = TimeStepEngine()
        events = []
        for kind in kinds:
            engine.hooks.subscribe(
                kind,
                lambda time, kind=kind, **payload: events.append((time, kind, payload)),
            )

        def process(now):
            engine.hooks.fire("move", time=now, agent=0, to=now + 4)
            engine.hooks.fire("learn", time=now, agent=0)

        engine.add_process(process)
        engine.run(steps)
        return events

    def test_records_events(self):
        events = self.traced_run(1)
        assert len(events) == 2
        assert events[0] == (1, "move", {"agent": 0, "to": 5})

    def test_kind_filter(self):
        events = self.traced_run(1, kinds=("move",))
        assert [kind for __, kind, __ in events] == ["move"]

    def test_of_kind(self):
        events = self.traced_run(3)
        assert [time for time, kind, __ in events if kind == "learn"] == [1, 2, 3]
