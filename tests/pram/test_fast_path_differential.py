"""Differential harness: every machine lane vs the reference semantics.

The machine ships several tick implementations (see the lane registry
in ``repro.pram.lanes``): the reference path is the executable
specification; the fast path, event-horizon batching, compiled kernels,
and the vectorized numpy lane are optimizations over it.  These tests
run the same (algorithm, adversary, policy) configuration through every
available lane and assert the *entire* observable outcome is identical:
ticks, per-PID completed/charged work, the realized failure pattern,
per-tick completions, memory traffic, veto counters, termination flags,
final memory contents — and, through a composed
:class:`~repro.pram.trace.Tracer`, the per-tick execution trace itself.

The ``vec`` lane needs the optional numpy extra and is skipped (not
failed) when it is absent; the remaining lanes always run.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.core import (
    AlgorithmV,
    AlgorithmVX,
    AlgorithmW,
    AlgorithmX,
    SnapshotAlgorithm,
    solve_write_all,
)
from repro.faults import (
    BurstAdversary,
    HalvingAdversary,
    NoFailures,
    NoRestartAdversary,
    RandomAdversary,
    SpeedClassAdversary,
    ThrashingAdversary,
    UnionAdversary,
)
from repro.core.tasks import CycleFactoryTasks
from repro.faults.base import Adversary, ScheduledAdversary
from repro.faults.stalking import StalkingAdversaryX
from repro.perf.phases import PhaseCounters
from repro.pram.cycles import Cycle, Write
from repro.pram.errors import (
    AdversaryError,
    MemoryError_,
    ProgramError,
    WriteConflictError,
)
from repro.pram.failures import (
    BEFORE_WRITES,
    Decision,
    FailureEvent,
    FailureTag,
)
from repro.pram.lanes import LANES, lane_available
from repro.pram.policies import RotatingArbitraryCrcw
from repro.pram.trace import Tracer

ALGORITHMS = {
    "W": AlgorithmW,
    "V": AlgorithmV,
    "VX": AlgorithmVX,
    "X": AlgorithmX,
    "snapshot": SnapshotAlgorithm,
}

ADVERSARIES = {
    "none": lambda: None,
    "nofailures": NoFailures,
    "random": lambda: RandomAdversary(0.15, 0.3, seed=7),
    "crash": lambda: NoRestartAdversary(RandomAdversary(0.08, seed=3)),
    "thrashing": ThrashingAdversary,
    "halving": HalvingAdversary,
    # Stalls defer a pending cycle: on a kernel lane the stalled
    # stepper must be left un-advanced and re-staged next tick.
    "speed-classes": lambda: SpeedClassAdversary((1, 2, 4), seed=1),
    # Mass failure and revival: most of the machine fails and restarts
    # on one tick, through the fast tick's folded fail/restart.
    "stalker": StalkingAdversaryX,
    "burst": lambda: BurstAdversary(period=3, fraction=0.5, downtime=1),
}

#: The stalker walks X's position array, which only X and V+X have.
MATRIX_CASES = [
    (adversary_key, algorithm_key)
    for adversary_key in sorted(ADVERSARIES)
    for algorithm_key in sorted(ALGORITHMS)
    if adversary_key != "stalker" or algorithm_key in ("X", "VX")
]


#: The legs every configuration runs through, straight from the lane
#: registry (``repro.pram.lanes``): fast, noff (``--no-fast-forward``),
#: nokernel (``--no-compiled``), vec (``--vectorized``, when numpy is
#: installed), and the reference core last.  Algorithms without a
#: kernel or vector program silently run the generator protocol on
#: every leg — the legs still must agree.
MODES = tuple(LANES[name] for name in LANES if lane_available(name))

#: (algorithm, schedule seed) pairs of ``TestRandomSchedules`` whose
#: program commits a COMMON CRCW conflict on every lane (ROADMAP item 6).
KNOWN_VX_CONFLICTS = {("VX", 1), ("VX", 2)}


def run_both(algorithm_key, adversary_factory, n=64, p=16, **kwargs):
    """Run one configuration through all available lanes, reference last."""
    outcomes = []
    for lane in MODES:
        outcomes.append(solve_write_all(
            ALGORITHMS[algorithm_key](), n, p,
            adversary=adversary_factory(),
            **lane.solver_kwargs(),
            **kwargs,
        ))
    return outcomes


def assert_all_identical(outcomes):
    """Every outcome must match the last (reference) one exactly."""
    reference = outcomes[-1]
    for outcome in outcomes[:-1]:
        assert_identical(outcome, reference)


def assert_identical(fast, reference):
    fast_ledger, ref_ledger = fast.ledger, reference.ledger
    assert fast_ledger.ticks == ref_ledger.ticks
    assert dict(fast_ledger.completed_by_pid) == dict(ref_ledger.completed_by_pid)
    assert dict(fast_ledger.attempted_by_pid) == dict(ref_ledger.attempted_by_pid)
    assert list(fast_ledger.pattern) == list(ref_ledger.pattern)
    assert fast_ledger.completed_per_tick == ref_ledger.completed_per_tick
    assert fast_ledger.memory_reads == ref_ledger.memory_reads
    assert fast_ledger.memory_writes == ref_ledger.memory_writes
    assert fast_ledger.progress_vetoes == ref_ledger.progress_vetoes
    assert fast_ledger.fairness_vetoes == ref_ledger.fairness_vetoes
    flags = ("halted", "goal_reached", "stalled", "tick_limited")
    assert {f: getattr(fast_ledger, f) for f in flags} == \
        {f: getattr(ref_ledger, f) for f in flags}
    assert fast.solved == reference.solved
    assert fast.memory.snapshot() == reference.memory.snapshot()


class TestAlgorithmAdversaryMatrix:
    @pytest.mark.parametrize("adversary_key, algorithm_key", MATRIX_CASES)
    def test_ledger_identical(self, algorithm_key, adversary_key):
        outcomes = run_both(
            algorithm_key, ADVERSARIES[adversary_key],
            max_ticks=5_000,
        )
        assert_all_identical(outcomes)

    @pytest.mark.parametrize("algorithm_key", ["W", "X", "V", "VX"])
    def test_with_fairness_window(self, algorithm_key):
        outcomes = run_both(
            algorithm_key, ThrashingAdversary,
            fairness_window=3, max_ticks=5_000,
        )
        assert_all_identical(outcomes)

    def test_v_under_thrashing_hits_tick_limit_identically(self):
        # V need not terminate under restarts; all cores must agree on
        # the truncated run too.
        outcomes = run_both("V", ThrashingAdversary, max_ticks=200)
        assert_all_identical(outcomes)

    def test_rotating_arbitrary_policy(self):
        # RotatingArbitraryCrcw declares singleton_resolve_is_identity
        # False, forcing the fast path through the general resolve route
        # every tick; the rotation counters must stay in lock step.
        outcomes = run_both(
            "X", lambda: RandomAdversary(0.1, 0.4, seed=11),
            policy=RotatingArbitraryCrcw(), max_ticks=5_000,
        )
        assert_all_identical(outcomes)

    def test_heavy_crash_exercises_progress_vetoes(self):
        # A raw high crash rate with no restarts (NoRestartAdversary
        # would spare the last runner itself) forces the *machine* to
        # veto the adversary to preserve the progress condition.
        outcomes = run_both(
            "X", lambda: RandomAdversary(0.7, 0.0, seed=5),
            n=32, p=8, max_ticks=5_000,
        )
        assert outcomes[0].ledger.progress_vetoes > 0
        assert_all_identical(outcomes)

    def test_all_failed_forced_restart_in_passive_path(self):
        # With a passive adversary the only way every processor can be
        # down is harness intervention; the passive fast tick must then
        # reproduce the reference order exactly: an empty tick (zero
        # completions) plus a forced restart of the lowest failed PID,
        # recorded in the pattern and counted as a progress veto.
        from repro.pram.machine import Machine
        from repro.pram.memory import SharedMemory

        ledgers = []
        for fast in (True, False):
            algorithm = AlgorithmX()
            layout = algorithm.build_layout(16, 4)
            memory = SharedMemory(layout.size)
            machine = Machine(num_processors=4, memory=memory,
                              fast_path=fast, context={"layout": layout})
            machine.load_program(algorithm.program(layout, None))
            machine.step()
            for processor in machine.processors:
                processor.fail()
            machine.step()  # empty tick: forced restart of PID 0
            machine.step()  # only PID 0 runs
            ledger = machine.ledger
            assert ledger.completed_per_tick[-2] == 0
            assert ledger.completed_per_tick[-1] == 1
            assert ledger.progress_vetoes == 1
            ledgers.append(ledger)
        fast_ledger, ref_ledger = ledgers
        assert list(fast_ledger.pattern) == list(ref_ledger.pattern)
        assert dict(fast_ledger.completed_by_pid) == \
            dict(ref_ledger.completed_by_pid)


class TestRandomSchedules:
    """Seeded-random offline schedules (the property-test satellite)."""

    @staticmethod
    def random_schedule(seed, p, horizon=80):
        rng = random.Random(seed)
        schedule = {}
        for tick in range(1, horizon):
            if rng.random() < 0.35:
                fails = rng.sample(range(p), rng.randint(1, max(1, p // 2)))
                restarts = rng.sample(range(p), rng.randint(0, p // 2))
                schedule[tick] = (fails, restarts)
        return schedule

    @pytest.mark.parametrize("seed, algorithm_key", [
        pytest.param(seed, key, marks=pytest.mark.xfail(
            strict=True, raises=WriteConflictError,
            reason="V+X COMMON conflict on V's step cell (ROADMAP item 6)",
        )) if (key, seed) in KNOWN_VX_CONFLICTS else (seed, key)
        for seed in range(6)
        for key in sorted(ALGORITHMS)
    ])
    def test_scheduled_runs_identical(self, algorithm_key, seed):
        schedule = self.random_schedule(seed * 101 + 17, p=8)
        outcomes = run_both(
            algorithm_key,
            lambda: ScheduledAdversary(schedule),
            n=32, p=8, max_ticks=5_000,
        )
        assert_all_identical(outcomes)

    @pytest.mark.parametrize("seed", sorted(
        seed for key, seed in KNOWN_VX_CONFLICTS
    ))
    def test_known_vx_conflict_aborts_identically(self, seed):
        # ROADMAP item 6: under these two schedules two V cohorts one
        # step apart write V's step cell in the same tick, so the
        # program itself breaks COMMON.  Every lane, the reference
        # included, must abort with the same error.
        schedule = self.random_schedule(seed * 101 + 17, p=8)
        messages = []
        for lane in MODES:
            with pytest.raises(WriteConflictError) as info:
                solve_write_all(
                    AlgorithmVX(), 32, 8,
                    adversary=ScheduledAdversary(schedule),
                    max_ticks=5_000, **lane.solver_kwargs(),
                )
            messages.append(str(info.value))
        assert len(set(messages)) == 1, messages

    @pytest.mark.parametrize("seed", range(4))
    def test_random_online_adversary_identical(self, seed):
        outcomes = run_both(
            "X",
            lambda: RandomAdversary(0.2, 0.35, seed=seed),
            n=64, p=16, max_ticks=5_000,
        )
        assert_all_identical(outcomes)


class TestTraceIdentity:
    def test_tick_by_tick_trace_identical(self):
        # The Tracer records, per tick, the status partition, the
        # pending-cycle labels, and watched cell values — through the
        # same TickView the machine hands real adversaries.  Composing
        # it over a random adversary checks the fast path presents the
        # identical per-tick world, not just identical totals.
        traces = []
        for lane in MODES:
            tracer = Tracer(watch=(0, 1, 2, 3))
            adversary = UnionAdversary([
                tracer, RandomAdversary(0.15, 0.3, seed=13),
            ])
            solve_write_all(
                AlgorithmX(), 64, 16, adversary=adversary,
                max_ticks=5_000, **lane.solver_kwargs(),
            )
            traces.append(tracer.records)
        reference_trace = traces[-1]
        for trace in traces[:-1]:
            assert len(trace) == len(reference_trace)
            for tick_record, reference_tick in zip(trace, reference_trace):
                assert tick_record == reference_tick


class TestEventHorizonEdges:
    """Boundary cases of the event-horizon fast-forward windows."""

    def test_scheduled_restart_exactly_on_horizon_tick(self):
        # After the tick-3 failure the schedule's bisect horizon is
        # tick 40: the quiet window must stop one tick short so the
        # restart lands through a real consult, not inside the batch.
        schedule = {3: ([1], []), 40: ([], [1])}
        outcomes = run_both(
            "X", lambda: ScheduledAdversary(schedule),
            n=32, p=8, max_ticks=5_000,
        )
        assert outcomes[0].ledger.pattern_size == 2
        assert_all_identical(outcomes)

    def test_last_event_precedes_termination(self):
        # Once the schedule is exhausted quiet_until is QUIET_FOREVER
        # and the machine fast-forwards straight to termination; the
        # ledger must still match per-tick execution exactly.
        schedule = {2: ([0], []), 4: ([], [0])}
        outcomes = run_both(
            "X", lambda: ScheduledAdversary(schedule),
            n=64, p=16, max_ticks=5_000,
        )
        assert outcomes[0].solved
        assert outcomes[0].ledger.pattern_size == 2
        assert_all_identical(outcomes)

    def test_tick_limit_hit_inside_quiet_window(self):
        # The window must clip at max_ticks even when the horizon is
        # infinite (schedule exhausted, victim never restarted).
        schedule = {5: ([2], [])}
        outcomes = run_both(
            "X", lambda: ScheduledAdversary(schedule),
            n=64, p=4, max_ticks=50,
        )
        for outcome in outcomes:
            assert not outcome.solved
            assert outcome.ledger.tick_limited
            assert outcome.ledger.ticks == 50
        assert_all_identical(outcomes)

    def test_until_goal_breaks_quiet_window(self):
        # With a passive adversary the whole run is one quiet window;
        # the until() predicate must still end it at the exact tick the
        # per-tick loop would.
        from repro.core.base import done_predicate
        from repro.pram.compiled import resolve_kernel
        from repro.pram.machine import Machine
        from repro.pram.memory import SharedMemory
        from repro.pram.vectorized import resolve_vectorized

        ticks = []
        for lane in MODES:
            algorithm = AlgorithmX()
            layout = algorithm.build_layout(32, 8)
            memory = SharedMemory(layout.size)
            machine = Machine(num_processors=8, memory=memory,
                              adversary=NoFailures(),
                              fast_path=lane.fast_path,
                              fast_forward=lane.fast_forward,
                              context={"layout": layout})
            machine.load_program(
                algorithm.program(layout, None),
                compiled_program=resolve_kernel(
                    algorithm, layout, None, lane.compiled
                ),
                vectorized_program=resolve_vectorized(
                    algorithm, layout, None, lane.vectorized
                ),
            )
            ledger = machine.run(until=done_predicate(layout),
                                 max_ticks=100_000)
            assert ledger.goal_reached
            assert not ledger.tick_limited
            ticks.append(ledger.ticks)
        assert len(set(ticks)) == 1

    def test_tracer_composition_pins_horizon_to_every_tick(self):
        # A composed Tracer must see every tick even when the other
        # union member promises a huge quiet window.
        schedule = {3: ([1], []), 200: ([], [1])}
        tracer = Tracer()
        adversary = UnionAdversary([
            tracer, ScheduledAdversary(schedule),
        ])
        result = solve_write_all(
            AlgorithmX(), 32, 8, adversary=adversary,
            fast_path=True, fast_forward=True, max_ticks=5_000,
        )
        assert len(tracer.records) == result.ledger.ticks


class TestPassivityDetection:
    def test_subclass_overriding_decide_is_consulted(self):
        # `passive = True` must not be trusted through inheritance: a
        # subclass that overrides decide() (here, to actually kill a
        # processor) has to be consulted every tick.
        class Killer(NoFailures):
            def decide(self, view):
                if view.time == 2 and 0 in view.pending:
                    return Decision.fail([0], BEFORE_WRITES)
                return Decision.none()

        result = solve_write_all(
            AlgorithmX(), 16, 4, adversary=Killer(), fast_path=True,
        )
        assert result.ledger.pattern_size == 1

    def test_passive_declared_with_decide_is_honored(self):
        class Quiet(NoFailures):
            passive = True

            def decide(self, view):  # pragma: no cover - must be skipped
                raise AssertionError("passive adversary was consulted")

        result = solve_write_all(
            AlgorithmX(), 16, 4, adversary=Quiet(), fast_path=True,
        )
        assert result.solved

    def test_direct_processor_failure_invalidates_status_cache(self):
        # Tests (and harnesses) may fail processors behind the
        # machine's back; the status-epoch cell must invalidate the
        # fast path's cached running list.
        from repro.core.base import done_predicate
        from repro.pram.machine import Machine
        from repro.pram.memory import SharedMemory

        algorithm = AlgorithmX()
        layout = algorithm.build_layout(16, 4)
        memory = SharedMemory(layout.size)
        machine = Machine(num_processors=4, memory=memory,
                          context={"layout": layout})
        machine.load_program(algorithm.program(layout, None))
        machine.step()
        machine.processors[2].fail()
        machine.step()
        assert machine.ledger.completed_per_tick[-1] == 3
        machine.processors[2].restart()
        ledger = machine.run(until=done_predicate(layout), max_ticks=2_000)
        assert ledger.goal_reached


class TestConflictPartialState:
    def test_common_conflict_leaves_reference_partial_state(self):
        # A multi-writer address is resolved before the batched commit;
        # when its resolve raises, the cells below it must already be
        # written and the cells above it untouched, exactly as in the
        # reference's ascending write loop.
        from repro.pram.machine import Machine
        from repro.pram.memory import SharedMemory

        writes = {
            0: (Write(1, 5), Write(6, 1)),
            1: (Write(4, 7),),
            2: (Write(4, 8), Write(2, 1)),
            3: (Write(6, 1),),
        }

        def program(pid):
            yield Cycle(writes=writes[pid], label=f"w{pid}")

        states = []
        for fast in (True, False):
            memory = SharedMemory(8)
            machine = Machine(4, memory, fast_path=fast)
            machine.load_program(program)
            with pytest.raises(WriteConflictError, match="cell 4"):
                machine.step()
            states.append((memory.snapshot(), memory.writes_applied))
        assert states[0] == states[1]
        assert states[0] == ([0, 5, 1, 0, 0, 0, 0, 0], 2)


class BadRestartAdversary(Adversary):
    """Fails PIDs 0 and 1 on tick 2, then restarts them with a bad PID.

    The bad PID sorts after the two valid ones, so every lane must have
    restarted (and recorded) 0 and 1 when it raises: ``unknown`` is out
    of range, ``running`` is the highest running PID (never failed),
    and ``halted`` is the highest halted PID, once one has halted.
    """

    def __init__(self, kind):
        self.kind = kind

    def decide(self, view):
        if view.time == 2:
            return Decision.fail([0, 1])
        if view.time > 2:
            bad = self._bad_pid(view)
            if bad is not None:
                return Decision.restart([0, 1, bad])
        return Decision.none()

    def _bad_pid(self, view):
        if self.kind == "unknown":
            return len(view.statuses) + 3
        pids = view.running_pids if self.kind == "running" else \
            view.halted_pids
        return max(pids) if pids else None


class VacuousRestartAdversary(Adversary):
    """Every fourth tick, fails and restarts every pending processor.

    The progress veto spares the lowest PID, so its paired restart is
    vacuous and must be skipped on every lane.
    """

    def decide(self, view):
        if view.time % 4 or not view.pending:
            return Decision.none()
        pids = list(view.pending)
        return Decision(failures={pid: BEFORE_WRITES for pid in pids},
                        restarts=frozenset(pids))


def build_machine(algorithm_key, adversary, lane, n=32, p=8):
    """A loaded machine for ``lane``; returns ``(machine, until)``."""
    from repro.core.base import done_predicate
    from repro.pram.compiled import resolve_kernel
    from repro.pram.machine import Machine
    from repro.pram.memory import SharedMemory

    algorithm = ALGORITHMS[algorithm_key]()
    layout = algorithm.build_layout(n, p)
    memory = SharedMemory(layout.size)
    algorithm.initialize_memory(memory, layout)
    machine = Machine(
        num_processors=p, memory=memory, adversary=adversary,
        fast_path=lane.fast_path, fast_forward=lane.fast_forward,
        context={"layout": layout},
    )
    machine.load_program(
        algorithm.program(layout, None),
        compiled_program=resolve_kernel(
            algorithm, layout, None, lane.compiled
        ),
    )
    return machine, done_predicate(layout)


class TestRestartParity:
    """The fast tick's folded restart matches ``_apply_restarts``."""

    PARITY_LANES = ("fast", "nokernel", "reference")

    @pytest.mark.parametrize("algorithm_key", ["X", "VX"])
    @pytest.mark.parametrize("kind", ["unknown", "running", "halted"])
    def test_bad_restart_same_error_same_state(self, algorithm_key, kind):
        seen = []
        for lane in self.PARITY_LANES:
            machine, _ = build_machine(
                algorithm_key, BadRestartAdversary(kind), LANES[lane],
            )
            if lane == "fast":
                # The fast lane must really run the kernel branch.
                assert machine.processors[0]._stepper is not None
            with pytest.raises(AdversaryError) as info:
                # No goal predicate: the run goes on until a processor
                # halts, which the halted kind waits for.
                machine.run(max_ticks=4_000)
            tick = machine.ledger.ticks
            events = list(machine.ledger.pattern)
            assert events[-2:] == [
                FailureEvent(FailureTag.RESTART, pid, tick) for pid in (0, 1)
            ]
            seen.append((
                str(info.value), tick, events, machine.statuses(),
                [proc.restart_count for proc in machine.processors],
            ))
        for outcome in seen[:-1]:
            assert outcome == seen[-1]

    @pytest.mark.parametrize("algorithm_key", ["X", "VX", "W"])
    def test_vacuous_restart_after_veto(self, algorithm_key):
        outcomes = run_both(algorithm_key, VacuousRestartAdversary,
                            max_ticks=5_000)
        assert outcomes[-1].ledger.progress_vetoes > 0
        assert_all_identical(outcomes)


# --------------------------------------------------------------------- #
# task-carrying kernels (Section 4.3: Write-All elements as real tasks)
# --------------------------------------------------------------------- #

#: A sparse offline schedule that lands inside these small runs, so
#: the fast lanes reach fused quiet windows between its events.
SPARSE_SCHEDULE = {
    6: ([1], []), 13: ([], [1]),
    30: ([3], []), 37: ([], [3]),
    60: ([5], []), 67: ([], [5]),
}

TASK_ADVERSARIES = {
    "random": lambda: RandomAdversary(0.15, 0.3, seed=7),
    "stalker": StalkingAdversaryX,
    "speed-classes": lambda: SpeedClassAdversary((1, 2, 4), seed=1),
    "sched-sparse": lambda: ScheduledAdversary(SPARSE_SCHEDULE),
}

#: The stalker walks X's position array, which W and V do not have.
TASK_CASES = [
    (algorithm_key, adversary_key, k)
    for algorithm_key in ("V", "VX", "W", "X")
    for adversary_key in sorted(TASK_ADVERSARIES)
    for k in (1, 2)
    if not (adversary_key == "stalker" and algorithm_key in ("V", "W"))
]


def pointer_tasks(k, n, data_base, out_base, factory_hook=None):
    """``k`` idempotent cycles per element over an immutable data region.

    Each cycle reads ``data[e]``, chases it as a pointer into ``data``
    (a callable read spec), then reads or skips a third cell depending
    on the second value (a ``None`` read), and writes one output cell.
    Concurrent executions read the same inputs and write the same
    value, so COMMON CRCW holds.  ``factory_hook(element, cycles)`` may
    rewrite an element's cycle list (the error-parity tests plant bad
    cycles through it).
    """

    def factory(element, pid):
        cycles = []
        for slot in range(k):
            def writes(values, target=out_base + element * k + slot,
                       slot=slot):
                return (Write(target, values[0] + values[1] + values[2]
                              + slot),)

            cycles.append(Cycle(
                reads=(
                    data_base + element,
                    lambda got: data_base + got[0] % n,
                    lambda got: None if got[1] % 2 else data_base + got[1] % n,
                ),
                writes=writes,
                label=f"task:{slot}",
            ))
        if factory_hook is not None:
            cycles = factory_hook(element, cycles)
        return cycles

    return CycleFactoryTasks(k, factory)


def build_task_machine(algorithm_key, adversary, k, lane, n=32, p=8,
                       factory_hook=None, phases=None):
    """A loaded machine whose Write-All elements are :func:`pointer_tasks`.

    Built on the machine directly (the solver has no room for the
    tasks' data and output regions); returns ``(machine, until)``.
    """
    from repro.core.base import done_predicate
    from repro.pram.compiled import resolve_kernel
    from repro.pram.machine import Machine
    from repro.pram.memory import SharedMemory
    from repro.pram.vectorized import resolve_vectorized

    algorithm = ALGORITHMS[algorithm_key]()
    layout = algorithm.build_layout(n, p)
    data_base = layout.size
    out_base = data_base + n
    memory = SharedMemory(out_base + n * k)
    algorithm.initialize_memory(memory, layout)
    memory.load([(7 * i + 3) % (2 * n) for i in range(n)], data_base)
    tasks = pointer_tasks(k, n, data_base, out_base, factory_hook)
    if adversary is not None and hasattr(adversary, "reset"):
        adversary.reset()
    machine = Machine(
        num_processors=p, memory=memory, adversary=adversary,
        fast_path=lane.fast_path, fast_forward=lane.fast_forward,
        phase_counters=phases,
        context={"layout": layout, "algorithm": algorithm.name},
    )
    machine.load_program(
        algorithm.program(layout, tasks),
        compiled_program=resolve_kernel(
            algorithm, layout, tasks, lane.compiled
        ),
        vectorized_program=resolve_vectorized(
            algorithm, layout, tasks, lane.vectorized
        ),
        vector_dispatch="auto" if lane.vectorized == "auto" else "always",
    )
    return machine, done_predicate(layout)


def run_task_machine(algorithm_key, adversary, k, lane, **kwargs):
    """Build a :func:`build_task_machine` run and run it to completion."""
    machine, until = build_task_machine(
        algorithm_key, adversary, k, lane, **kwargs
    )
    machine.run(until=until, max_ticks=4_000, raise_on_limit=False)
    return machine


def _as_outcome(machine):
    ledger = machine.ledger
    return SimpleNamespace(
        ledger=ledger, solved=ledger.goal_reached, memory=machine.memory,
    )


class TestTaskCarryingKernels:
    """Every lane runs real task cycles identically, kernels included."""

    @pytest.mark.parametrize("algorithm_key, adversary_key, k", TASK_CASES)
    def test_ledger_and_memory_identical(self, algorithm_key,
                                         adversary_key, k):
        outcomes = [
            _as_outcome(run_task_machine(
                algorithm_key, TASK_ADVERSARIES[adversary_key](), k, lane,
            ))
            for lane in MODES
        ]
        # W is not restart-safe (Section 4.1): under random restarts
        # with two cycles per task it runs out of ticks, on every lane.
        assert outcomes[-1].ledger.goal_reached or \
            (algorithm_key, adversary_key, k) == ("W", "random", 2)
        assert_all_identical(outcomes)

    @pytest.mark.parametrize("algorithm_key, adversary_key, k", TASK_CASES)
    def test_trace_identical(self, algorithm_key, adversary_key, k):
        traces = []
        for lane in MODES:
            tracer = Tracer(watch=range(0, 8))
            adversary = UnionAdversary([
                tracer, TASK_ADVERSARIES[adversary_key](),
            ])
            run_task_machine(algorithm_key, adversary, k, lane)
            traces.append(tracer.records)
        assert traces[-1]
        for trace in traces[:-1]:
            assert trace == traces[-1]

    @pytest.mark.parametrize("algorithm_key", ["V", "VX", "W", "X"])
    def test_sparse_schedule_reaches_fused_windows(self, algorithm_key):
        # The kernels decline user task cycles on the fused lane; this
        # pins that the sparse schedule really drives them there.
        phases = PhaseCounters()
        run_task_machine(
            algorithm_key, TASK_ADVERSARIES["sched-sparse"](), 2,
            LANES["fast"], phases=phases,
        )
        assert phases.fused_ticks > 0


def _two_writes(element, cycles):
    """Every first task slot writes two cells (illegal under V/W; under
    V+X only the V half raises, so every element carries it)."""
    first = cycles[0]
    target = first.materialize_writes((0, 0, 0))[0].address

    def writes(values):
        return (Write(target, values[0]), Write(target + 1, values[0]))

    return [Cycle(reads=first.reads, writes=writes, label=first.label)] \
        + cycles[1:]


def _short_list(element, cycles):
    """Element 5's factory returns one cycle fewer than declared."""
    return cycles[:-1] if element == 5 else cycles


def _wild_pointer(element, cycles):
    """Element 5's pointer-chasing read leaves memory."""
    if element != 5:
        return cycles
    first = cycles[0]
    reads = (first.reads[0], lambda got: 10**6 + got[0], first.reads[2])
    return [Cycle(reads=reads, writes=first.writes, label=first.label)] \
        + cycles[1:]


class TestTaskErrorParity:
    """A broken task cycle raises the same error on the same tick on the
    kernel lane, the generator lane and the reference core, whether the
    tick is adversary-visible (staged) or fused (declined)."""

    PARITY_LANES = ("fast", "nokernel", "reference")

    @pytest.mark.parametrize("adversary_key", ["none", "random"])
    @pytest.mark.parametrize("algorithm_key, hook, error", [
        (algorithm_key, hook, error)
        for hook, error, algorithms in (
            (_two_writes, ProgramError, ("V", "VX", "W")),
            (_short_list, ValueError, ("V", "VX", "W", "X")),
            (_wild_pointer, MemoryError_, ("V", "VX", "W", "X")),
        )
        for algorithm_key in algorithms
    ], ids=lambda value: getattr(value, "__name__", value))
    def test_same_error_same_tick(self, algorithm_key, hook, error,
                                  adversary_key):
        adversaries = {
            "none": lambda: None,
            "random": lambda: RandomAdversary(0.1, 0.3, seed=4),
        }
        seen = []
        for lane in self.PARITY_LANES:
            machine, until = build_task_machine(
                algorithm_key, adversaries[adversary_key](), 2,
                LANES[lane], factory_hook=hook,
            )
            with pytest.raises(error) as info:
                machine.run(until=until, max_ticks=4_000)
            seen.append((type(info.value), str(info.value),
                         machine.ledger.ticks))
        assert len(set(seen)) == 1, seen
