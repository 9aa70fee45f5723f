"""Unit tests for the adversary's tick view."""

import dataclasses

import pytest

from repro.core import AlgorithmX, solve_write_all
from repro.faults import RandomAdversary, ThrashingAdversary
from repro.faults.base import Adversary
from repro.pram.cycles import Cycle, Write
from repro.pram.failures import Decision
from repro.pram.lanes import LANES
from repro.pram.machine import Machine
from repro.pram.memory import SharedMemory
from repro.pram.processor import ProcessorStatus


class Recorder(Adversary):
    def __init__(self):
        self.views = []

    def decide(self, view):
        self.views.append(view)
        return Decision.none()


def build(num_processors, program, context=None):
    recorder = Recorder()
    machine = Machine(
        num_processors, SharedMemory(8), adversary=recorder, context=context
    )
    machine.load_program(program)
    return machine, recorder


class TestTickView:
    def test_pending_exposes_computed_writes(self):
        def program(pid):
            values = yield Cycle(reads=(0,), writes=lambda v: (Write(1, v[0] + 1),))

        machine, recorder = build(1, program)
        machine.memory.poke(0, 6)
        machine.step()
        view = recorder.views[0]
        pending = view.pending[0]
        assert pending.read_values == (6,)
        assert pending.writes == (Write(1, 7),)
        assert pending.writes_to(1)
        assert not pending.writes_to(0)

    def test_status_partitions(self):
        def program(pid):
            if pid == 0:
                return
                yield  # pragma: no cover
            yield Cycle()
            yield Cycle()

        machine, recorder = build(3, program)
        machine.step()
        view = recorder.views[0]
        assert view.halted_pids == (0,)
        assert view.running_pids == (1, 2)
        assert view.failed_pids == ()

    def test_writers_of(self):
        def program(pid):
            yield Cycle(writes=(Write(2, 1),) if pid != 1 else ())

        machine, recorder = build(3, program)
        machine.step()
        view = recorder.views[0]
        assert view.writers_of(2) == (0, 2)

    def test_context_passthrough(self):
        def program(pid):
            yield Cycle()

        machine, recorder = build(1, program, context={"layout": "marker"})
        machine.step()
        assert recorder.views[0].context["layout"] == "marker"

    def test_memory_is_read_only_view(self):
        def program(pid):
            yield Cycle()

        machine, recorder = build(1, program)
        machine.memory.poke(3, 42)
        machine.step()
        assert recorder.views[0].memory.read(3) == 42
        assert not hasattr(recorder.views[0].memory, "write")

    def test_time_is_one_based(self):
        def program(pid):
            yield Cycle()
            yield Cycle()

        machine, recorder = build(1, program)
        machine.step()
        machine.step()
        assert [view.time for view in recorder.views] == [1, 2]


class StatusSpy(Adversary):
    """Checks every view's status tuples, then defers to ``inner``."""

    def __init__(self, inner):
        self.inner = inner
        self.views = 0
        self.cached = 0

    def decide(self, view):
        statuses = sorted(view.statuses.items())
        expected = tuple(
            tuple(pid for pid, status in statuses if status is wanted)
            for wanted in (ProcessorStatus.RUNNING, ProcessorStatus.FAILED,
                           ProcessorStatus.HALTED)
        )
        bare = dataclasses.replace(view, status_pids=None)
        for source in (view, bare):
            assert (source.running_pids, source.failed_pids,
                    source.halted_pids) == expected
        self.views += 1
        self.cached += view.status_pids is not None
        return self.inner.decide(view)


class TestCachedStatusTuples:
    @pytest.mark.parametrize("lane", ["fast", "nokernel", "reference"])
    @pytest.mark.parametrize("inner", [
        lambda: RandomAdversary(0.2, 0.35, seed=3),
        ThrashingAdversary,
    ], ids=["random", "thrashing"])
    def test_tuples_match_statuses_every_tick(self, lane, inner):
        spy = StatusSpy(inner())
        result = solve_write_all(
            AlgorithmX(), 32, 8, adversary=spy, max_ticks=5_000,
            **LANES[lane].solver_kwargs(),
        )
        assert result.solved
        assert spy.views == result.ledger.ticks
        # The fast tick hands the per-epoch cache to every view; the
        # reference core builds bare views that recompute the tuples.
        expected_cached = spy.views if LANES[lane].fast_path else 0
        assert spy.cached == expected_cached
