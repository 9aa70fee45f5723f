"""Compiled program kernels: protocol, trust guard, lifecycle edges.

The differential suite (``test_fast_path_differential``) asserts whole
runs are identical with kernels on/off; this file covers the pieces in
isolation — the :class:`~repro.pram.compiled.CompiledProgram` protocol,
the MRO trust guard, the runner's gating, and the processor lifecycle
edges the kernels must reproduce (immediate halt at spawn, restart
rebuilding state from the PID alone).
"""

from __future__ import annotations

import pytest

from repro.core import (
    AlgorithmV,
    AlgorithmVX,
    AlgorithmW,
    AlgorithmX,
    TrivialAssignment,
    solve_write_all,
)
from repro.core.tasks import CycleFactoryTasks
from repro.core.trivial import TrivialKernel
from repro.faults import RandomAdversary
from repro.perf.phases import PhaseCounters
from repro.pram.compiled import (
    CompiledProgram,
    resolve_kernel,
    trusted_compiled_program,
)
from repro.pram.cycles import Cycle, Write
from repro.pram.errors import ProgramError
from repro.pram.processor import Processor, ProcessorStatus


class TestProtocol:
    def test_base_class_methods_are_abstract(self):
        stepper = CompiledProgram()
        with pytest.raises(NotImplementedError):
            stepper.reset()
        with pytest.raises(NotImplementedError):
            stepper.current_cycle()
        with pytest.raises(NotImplementedError):
            stepper.advance(())
        with pytest.raises(NotImplementedError):
            stepper.quiet_step([], [])
        with pytest.raises(NotImplementedError):
            stepper.stage([])  # the default stages from current_cycle()

    def test_default_stage_builds_on_current_cycle(self):
        # A kernel that only implements current_cycle() (as kernels
        # written before the staging step do) still stages correctly.
        class Reader(_CountingKernel):
            def current_cycle(self):
                return Cycle(
                    reads=(1, lambda got: None, lambda got: got[0]),
                    writes=lambda values: (Write(0, sum(values)),),
                    label="reader",
                )

        staged = Reader([True]).stage([0, 2, 5])
        assert staged == ("reader", (2, 0, 5), 2, (Write(0, 7),))

    def test_trivial_kernel_matches_generator_stream(self):
        # Drive the kernel and the generator side by side through one
        # full program and compare every materialized cycle.
        algorithm = TrivialAssignment()
        layout = algorithm.build_layout(16, 4)
        generator = algorithm.program(layout)(2)
        kernel = algorithm.compiled_program(layout)(2)
        assert kernel.reset()
        cycle = next(generator)
        while True:
            compiled = kernel.current_cycle()
            assert compiled.label == cycle.label
            assert compiled.reads == cycle.reads
            assert list(compiled.materialize_writes(())) == \
                list(cycle.materialize_writes(()))
            kernel_live = kernel.advance(())
            try:
                cycle = generator.send(())
            except StopIteration:
                assert not kernel_live
                break
            assert kernel_live


class TestTrustGuard:
    def test_shipped_algorithms_are_trusted(self):
        for algorithm in (TrivialAssignment(), AlgorithmW(), AlgorithmX(),
                          AlgorithmV(), AlgorithmVX()):
            assert trusted_compiled_program(algorithm) is not None

    def test_algorithm_without_own_kernel_is_not_trusted(self):
        # The snapshot algorithm defines program() but no kernel;
        # honoring the base class's default through its MRO would be
        # meaningless (it returns None) — the guard must stop at the
        # program-defining class.
        from repro.core import SnapshotAlgorithm

        assert trusted_compiled_program(SnapshotAlgorithm()) is None

    def test_subclass_overriding_program_is_distrusted(self):
        class Patched(TrivialAssignment):
            def program(self, layout, tasks=None):
                return super().program(layout, tasks)

        assert trusted_compiled_program(Patched()) is None
        layout = Patched().build_layout(8, 2)
        assert resolve_kernel(Patched(), layout, None) is None

    def test_subclass_overriding_both_is_trusted(self):
        class Both(TrivialAssignment):
            def program(self, layout, tasks=None):
                return super().program(layout, tasks)

            def compiled_program(self, layout, tasks=None):
                return super().compiled_program(layout, tasks)

        assert trusted_compiled_program(Both()) is not None

    def test_instance_program_assignment_is_distrusted(self):
        algorithm = TrivialAssignment()
        algorithm.program = algorithm.program  # binds into __dict__
        assert trusted_compiled_program(algorithm) is None

    def test_resolve_kernel_escape_hatch(self):
        algorithm = TrivialAssignment()
        layout = algorithm.build_layout(8, 2)
        assert resolve_kernel(algorithm, layout, None, compiled=False) is None
        assert resolve_kernel(algorithm, layout, None) is not None

    def test_task_carrying_kernels_resolve_where_they_exist(self):
        # W, X, V and V+X carry task cycles on their kernels; the trivial
        # algorithm, ACC and snapshot keep gating real task cycles to
        # the generator path, and no vector program takes them.
        from repro.core import AccAlgorithm, SnapshotAlgorithm

        tasks = CycleFactoryTasks(1, lambda element, pid: [
            Cycle(writes=(Write(element, 1),), label="task")
        ])
        for algorithm in (TrivialAssignment(), AlgorithmW(), AlgorithmX(),
                          AlgorithmV(), AlgorithmVX()):
            layout = algorithm.build_layout(16, 4)
            assert resolve_kernel(algorithm, layout, None) is not None
        for algorithm in (AlgorithmW(), AlgorithmX(), AlgorithmV(),
                          AlgorithmVX()):
            layout = algorithm.build_layout(16, 4)
            assert resolve_kernel(algorithm, layout, tasks) is not None
        for algorithm in (TrivialAssignment(), AccAlgorithm(),
                          SnapshotAlgorithm()):
            layout = algorithm.build_layout(16, 4)
            assert resolve_kernel(algorithm, layout, tasks) is None
        for algorithm in (TrivialAssignment(), AlgorithmW(), AlgorithmX(),
                          AlgorithmV(), AlgorithmVX(), AccAlgorithm(),
                          SnapshotAlgorithm()):
            layout = algorithm.build_layout(16, 4)
            assert algorithm.vectorized_program(layout, tasks) is None


class _StagingSpy(CompiledProgram):
    """Wraps a shipped kernel; checks every staged tick, counts cycles.

    ``stage`` compares the kernel's pure staging with what its own
    ``current_cycle()`` materializes against the same cells (called on
    the wrapped kernel directly, so it is not counted); the counter
    tallies only the ``current_cycle()`` calls the machine makes.
    """

    def __init__(self, inner, log):
        self.inner = inner
        self.log = log

    @property
    def live(self):
        return self.inner.live

    def reset(self):
        return self.inner.reset()

    def advance(self, values):
        return self.inner.advance(values)

    def quiet_step(self, cells, out):
        return self.inner.quiet_step(cells, out)

    def current_cycle(self):
        cycle = self.inner.current_cycle()
        self.log["materialized"][cycle.label] = \
            self.log["materialized"].get(cycle.label, 0) + 1
        return cycle

    def stage(self, cells):
        staged = self.inner.stage(cells)
        cycle = self.inner.current_cycle()
        values, charged = [], 0
        for spec in cycle.read_specs():
            address = spec(tuple(values)) if callable(spec) else spec
            if address is None:
                values.append(0)
            else:
                values.append(cells[address])
                charged += 1
        values = tuple(values)
        expected = (cycle.label, values, charged,
                    cycle.materialize_writes(values))
        assert staged == expected
        self.log["staged"] += 1
        self.log.setdefault("labels", set()).add(staged[0])
        return staged


class TestObservedStaging:
    """Observed ticks run the kernels' pure staging, not Cycle objects."""

    @pytest.mark.parametrize("algorithm_cls", [
        TrivialAssignment, AlgorithmW, AlgorithmX, AlgorithmV, AlgorithmVX,
    ])
    def test_staging_matches_materialized_cycles(self, algorithm_cls):
        from repro.core.base import done_predicate
        from repro.pram.machine import Machine
        from repro.pram.memory import SharedMemory

        algorithm = algorithm_cls()
        layout = algorithm.build_layout(64, 16)
        memory = SharedMemory(layout.size)
        machine = Machine(16, memory,
                          adversary=RandomAdversary(0.15, 0.3, seed=7),
                          context={"layout": layout})
        factory = resolve_kernel(algorithm, layout, None)
        log = {"staged": 0, "materialized": {}}
        machine.load_program(
            algorithm.program(layout, None),
            compiled_program=lambda pid: _StagingSpy(factory(pid), log),
        )
        ledger = machine.run(until=done_predicate(layout), max_ticks=5_000)
        assert ledger.goal_reached
        # Every tick is adversary-visible, so every attempt was staged.
        assert log["staged"] == ledger.charged_work
        # The validation gate: one materialized cycle per distinct label.
        assert log["materialized"]
        assert max(log["materialized"].values()) == 1

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("algorithm_cls", [
        AlgorithmW, AlgorithmX, AlgorithmV, AlgorithmVX,
    ])
    def test_task_staging_matches_materialized_cycles(self, algorithm_cls, k):
        # The same proof for task-carrying kernels: every observed tick,
        # task cycles included, is staged by the kernel and matches its
        # materialized cycle, and current_cycle() still runs only for
        # the validation gate.
        from repro.core.base import done_predicate
        from repro.pram.machine import Machine
        from repro.pram.memory import SharedMemory
        from tests.pram.test_fast_path_differential import pointer_tasks

        algorithm = algorithm_cls()
        n, p = 32, 8
        layout = algorithm.build_layout(n, p)
        memory = SharedMemory(layout.size + n + n * k)
        memory.load([(5 * i + 1) % (2 * n) for i in range(n)], layout.size)
        tasks = pointer_tasks(k, n, layout.size, layout.size + n)
        machine = Machine(p, memory,
                          adversary=RandomAdversary(0.1, 0.4, seed=3),
                          context={"layout": layout})
        factory = resolve_kernel(algorithm, layout, tasks)
        log = {"staged": 0, "materialized": {}}
        machine.load_program(
            algorithm.program(layout, tasks),
            compiled_program=lambda pid: _StagingSpy(factory(pid), log),
        )
        ledger = machine.run(until=done_predicate(layout), max_ticks=20_000)
        assert ledger.goal_reached
        assert log["staged"] == ledger.charged_work
        assert {f"task:{slot}" for slot in range(k)} <= log["labels"]
        if algorithm_cls in (AlgorithmX, AlgorithmVX):
            assert "x:mark" in log["labels"]
        assert max(log["materialized"].values()) == 1

    def test_pending_view_materializes_its_cycle_lazily(self):
        from repro.faults.base import Adversary
        from repro.pram.failures import Decision
        from repro.pram.machine import Machine
        from repro.pram.memory import SharedMemory

        seen = []

        class Inspector(Adversary):
            def decide(self, view):
                seen.append(view.pending[0])
                if view.time == 3:
                    cycle = view.pending[0].cycle
                    assert cycle.label == view.pending[0].label
                    assert cycle.materialize_writes(()) == \
                        view.pending[0].writes
                return Decision.none()

        algorithm = TrivialAssignment()
        layout = algorithm.build_layout(16, 2)
        machine = Machine(2, SharedMemory(layout.size), adversary=Inspector())
        machine.load_program(
            algorithm.program(layout, None),
            compiled_program=algorithm.compiled_program(layout),
        )
        for _ in range(4):
            machine.step()
        assert seen[1]._cycle is None  # staged, never read as a Cycle
        with pytest.raises(ProgramError, match="stale pending view"):
            seen[1].cycle


class TestSimulatorKernels:
    """The Theorem 4.1 simulator's phases run on kernels where asked."""

    @pytest.mark.parametrize("lane, expected", [
        ("fast", True), ("nokernel", False),
    ])
    def test_every_phase_installs_a_kernel_on_kernel_lanes(
        self, monkeypatch, lane, expected
    ):
        from repro.pram.lanes import LANES
        from repro.pram.machine import Machine
        from repro.simulation import RobustSimulator
        from repro.simulation.programs import prefix_sum_program

        installed = []
        original = Machine.load_program

        def spy(machine, *args, **kwargs):
            original(machine, *args, **kwargs)
            installed.append(
                [processor._stepper is not None
                 for processor in machine.processors]
            )

        monkeypatch.setattr(Machine, "load_program", spy)
        simulator = RobustSimulator(
            p=4, adversary=RandomAdversary(0.1, 0.3, seed=2),
            **LANES[lane].solver_kwargs(),
        )
        result = simulator.execute(prefix_sum_program(8), list(range(8)))
        assert result.solved
        assert len(installed) == len(result.phases) > 0
        assert all(all(phase) == expected and any(phase) == expected
                   for phase in installed)


class _CountingKernel(CompiledProgram):
    """Test stepper: ``lives`` schedules reset() outcomes per incarnation.

    Real kernels must rebuild identical state from the PID every reset;
    this one deliberately varies by incarnation to exercise the
    processor's handling of a restart that halts immediately.
    """

    __slots__ = ("lives", "incarnation", "steps")

    def __init__(self, lives):
        self.lives = list(lives)
        self.incarnation = -1
        self.steps = 0
        self.live = False

    def reset(self):
        self.incarnation += 1
        self.steps = 0
        self.live = self.lives[self.incarnation]
        return self.live

    def current_cycle(self):
        return Cycle(writes=(Write(0, 1),), label="count")

    def advance(self, values):
        self.steps += 1
        return self.live

    def quiet_step(self, cells, out):
        out.append(0)
        out.append(1)
        self.steps += 1
        return 0


class TestImmediateHalt:
    """Satellite: first-cycle halts, at spawn and after restart."""

    def test_generator_spawn_immediate_halt(self):
        processor = Processor(0, lambda pid: iter(()))
        processor.spawn()
        assert processor.status is ProcessorStatus.HALTED
        with pytest.raises(ProgramError):
            processor.pending_cycle

    def test_kernel_spawn_immediate_halt(self):
        # TrivialKernel with pid >= n is the compiled analogue of the
        # generator's empty range.
        processor = Processor(
            5, lambda pid: iter(()),
            compiled_factory=lambda pid: TrivialKernel(pid, 4, 8, 0),
        )
        processor.spawn()
        assert processor.status is ProcessorStatus.HALTED
        with pytest.raises(ProgramError):
            processor.pending_cycle

    def test_generator_restart_immediate_halt(self):
        # The program yields on its first incarnation and halts
        # immediately on the second: restart() must land in HALTED.
        incarnations = []

        def factory(pid):
            incarnations.append(pid)
            if len(incarnations) == 1:
                def run():
                    while True:
                        yield Cycle(writes=(Write(0, 1),), label="w")
                return run()
            return iter(())

        processor = Processor(0, factory)
        processor.spawn()
        assert processor.is_running
        processor.fail()
        processor.restart()
        assert processor.status is ProcessorStatus.HALTED
        assert processor.restart_count == 1

    def test_kernel_restart_immediate_halt(self):
        processor = Processor(
            0, lambda pid: iter(()),
            compiled_factory=lambda pid: _CountingKernel([True, False]),
        )
        processor.spawn()
        assert processor.is_running
        processor.fail()
        processor.restart()
        assert processor.status is ProcessorStatus.HALTED
        assert processor.restart_count == 1

    def test_kernel_restart_rebuilds_state_from_pid(self):
        algorithm = TrivialAssignment()
        layout = algorithm.build_layout(16, 2)
        processor = Processor(
            1, lambda pid: iter(()),
            compiled_factory=algorithm.compiled_program(layout),
        )
        processor.spawn()
        processor.complete_cycle(())
        processor.complete_cycle(())
        assert processor._stepper.element == 1 + 2 * 2
        processor.fail()
        processor.restart()
        assert processor.is_running
        assert processor._stepper.element == 1  # back to the PID

    @pytest.mark.parametrize("compiled", [True, False])
    def test_machine_run_with_immediately_halting_pids(self, compiled):
        # p > n: pids n..p-1 halt at spawn on both protocols; the run
        # must still solve with identical accounting.
        outcomes = [
            solve_write_all(
                TrivialAssignment(), 8, 16,
                adversary=RandomAdversary(0.2, 0.5, seed=11),
                compiled=lane, max_ticks=5_000,
            )
            for lane in (compiled, False)
        ]
        for outcome in outcomes:
            assert outcome.solved
        assert outcomes[0].ledger.completed_work == \
            outcomes[1].ledger.completed_work
        assert list(outcomes[0].ledger.pattern) == \
            list(outcomes[1].ledger.pattern)


class TestKernelLifecycle:
    def test_complete_cycle_counts_and_halts(self):
        algorithm = TrivialAssignment()
        layout = algorithm.build_layout(4, 4)
        processor = Processor(
            3, lambda pid: iter(()),
            compiled_factory=algorithm.compiled_program(layout),
        )
        processor.spawn()
        assert processor.pending_cycle.label == "trivial:write"
        processor.complete_cycle(())
        assert processor.cycles_completed == 1
        assert processor.is_halted  # one element per pid at n == p
        with pytest.raises(ProgramError):
            processor.complete_cycle(())

    def test_pending_cycle_is_cached_until_completed(self):
        algorithm = TrivialAssignment()
        layout = algorithm.build_layout(16, 2)
        processor = Processor(
            0, lambda pid: iter(()),
            compiled_factory=algorithm.compiled_program(layout),
        )
        processor.spawn()
        first = processor.pending_cycle
        assert processor.pending_cycle is first
        processor.complete_cycle(())
        assert processor.pending_cycle is not first


class TestFusedTickCounter:
    """Satellite: --phases no longer disables event-horizon fusion."""

    def test_fused_ticks_accounts_for_batched_windows(self):
        phases = PhaseCounters()
        result = solve_write_all(
            AlgorithmX(), 64, 16, phase_counters=phases,
        )
        assert phases.fused_ticks > 0
        assert phases.ticks + phases.fused_ticks == result.ledger.ticks

    def test_no_fast_forward_keeps_counter_zero(self):
        phases = PhaseCounters()
        result = solve_write_all(
            AlgorithmX(), 64, 16, phase_counters=phases,
            fast_forward=False,
        )
        assert phases.fused_ticks == 0
        assert phases.ticks == result.ledger.ticks

    def test_describe_mentions_fused_ticks(self):
        counters = PhaseCounters(ticks=2, fused_ticks=40)
        assert "fused_ticks=40" in counters.describe()
        assert "fused_ticks" not in PhaseCounters(ticks=2).describe()
