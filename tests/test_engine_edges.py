"""Edge-case tests for the simulation kernel and RNG registry."""

import pytest

from repro.engine import RngRegistry, Simulator, SimulationError


class TestSchedulingEdges:
    def test_zero_delay_fires_at_now(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: sim.schedule(0.0, fired.append, sim.now))
        sim.run()
        assert fired == [5.0]

    def test_schedule_at_now_allowed(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: sim.schedule_at(sim.now, lambda: None))
        sim.run()  # must not raise

    def test_until_zero(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, fired.append, 1)
        sim.run(until=0.0)
        assert fired == [1]

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("nested"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "nested"]

    def test_massive_same_time_batch_is_stable(self):
        sim = Simulator()
        out = []
        for i in range(2000):
            sim.schedule(7.0, out.append, i)
        sim.run()
        assert out == list(range(2000))

    def test_cancel_already_executed_is_noop(self):
        sim = Simulator()
        eid = sim.schedule(1.0, lambda: None)
        sim.run()
        sim.cancel(eid)  # stale id; harmless
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_executed == 2

    def test_exception_in_handler_propagates_and_loop_recovers(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("handler failure")

        sim.schedule(1.0, boom)
        sim.schedule(2.0, lambda: None)
        with pytest.raises(RuntimeError, match="handler failure"):
            sim.run()
        # The loop can be resumed afterwards.
        sim.run()
        assert sim.events_executed == 2

    def test_nan_time_is_rejected_and_strands_nothing(self):
        # ``nan < 0`` is false, so a ``delay < 0`` guard let NaN through;
        # a NaN key then broke the heap invariant silently: this sequence
        # fired b, c and stranded a.
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "a")
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), fired.append, "x")
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), fired.append, "y")
        sim.schedule(1.0, fired.append, "b")
        sim.schedule(3.0, fired.append, "c")
        sim.run(until=10.0)
        assert fired == ["b", "c", "a"]
        assert sim.pending == 0


class TestRngEdges:
    def test_tuple_like_keys_distinct(self):
        reg = RngRegistry(1)
        a = reg.stream("gen", 12)
        b = reg.stream("gen", 1, 2)
        assert a is not b

    def test_large_seed(self):
        reg = RngRegistry(2**62)
        assert reg.stream("x").random() is not None

    def test_numpy_integer_seed_accepted(self):
        import numpy as np

        reg = RngRegistry(np.int64(7))
        assert reg.master_seed == 7
