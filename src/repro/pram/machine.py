"""The restartable fail-stop CRCW PRAM, executed in lock step.

One machine tick implements one synchronous PRAM clock step for every
running processor:

1. restart events from the previous tick take effect (revived processors
   run their first cycle on the *next* tick — they restart "at their
   initial state with their PID as their only knowledge");
2. every running processor's pending update cycle performs its reads
   against the memory state at the start of the tick (synchronous PRAM
   semantics) and its fixed compute step produces a write set;
3. the on-line adversary inspects everything (clock, memory, statuses,
   pending cycles *including* their computed write sets) and rules: for
   each processor, survive, or fail after a prefix of its atomic writes;
4. the machine enforces the model's progress condition — at least one
   pending cycle must complete per tick — by vetoing the adversary on one
   processor if necessary (configurable);
5. the surviving writes are resolved under the machine's CRCW policy and
   applied atomically;
6. processors whose cycles completed are charged one unit of completed
   work and advance to their next cycle; interrupted cycles are charged
   only under the S' measure.

This is a *model-level* simulator: "work" is the paper's completed-work
measure, not wall-clock time, so the results are exact in the paper's own
cost model regardless of host parallelism.

Two tick implementations share these semantics:

* the **reference path** (``fast_path=False``) is the original
  straight-line implementation — it rebuilds every per-tick structure
  from scratch and validates every memory access, and serves as the
  executable specification;
* the **fast path** (``fast_path=True``, the default) commits the same
  reads→compute→writes with near-zero per-tick allocation: the running
  list and status table are cached and invalidated only on status
  transitions (a shared status-epoch cell bumped by the processors),
  cell reads go straight to the backing array after an explicit
  bounds/type check (invalid accesses fall back to the validated reader
  so errors are identical), per-PID work counters are array-backed, the
  CRCW resolve call is skipped when every address has a single writer
  and the policy declares singleton resolution the identity, and — when
  no (active) adversary is attached — the adversary view and pending
  dataclasses are never built at all.  A one-time program-validation
  gate runs each distinct cycle label through the fully validated
  reference collection once before trusting its shape.  Compiled
  kernels are *staged* on observed ticks (``CompiledProgram.stage``):
  no ``Cycle`` is built unless something reads a pending view's
  ``cycle``.

On top of the fast path, :meth:`Machine.run` is **event-driven**: before
each tick it asks the adversary for its *event horizon*
(``Adversary.quiet_until`` — the earliest future tick at which it might
act; scheduled/budget/periodic adversaries know theirs exactly).  All
ticks strictly inside the horizon are executed by a batched inner loop
(``fast_forward=True``, the default) that skips the adversary view,
consult, and failure phases entirely and flushes per-PID ledger charges
once per status generation — while still checking the status epoch and
the ``until`` goal every tick, so halting, termination, and the ledger
stay exact.  A composed ``Tracer`` pins the horizon to one tick, keeping
traces tick-exact.

The differential suite (``tests/pram/test_fast_path_differential.py``)
holds the two paths ledger- and trace-identical across the algorithm ×
adversary matrix, including fast-forwarded quiescent windows.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from types import MappingProxyType
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.pram.compiled import CycleFallback
from repro.pram.cycles import Cycle, Write
from repro.pram.errors import (
    AdversaryError,
    ProgramError,
    ProgressViolationError,
    TickLimitError,
)
from repro.pram.failures import (
    AFTER_ALL_WRITES,
    Decision,
    FailureTag,
)
from repro.pram.ledger import RunLedger
from repro.pram.memory import MemoryReader, SharedMemory
from repro.pram.policies import CommonCrcw, WritePolicy
from repro.pram.processor import Processor, ProcessorStatus, ProgramFactory
from repro.pram.view import PendingCycleView, TickView

#: Termination predicate: receives a read-only memory view.
UntilPredicate = Callable[[MemoryReader], bool]

#: Event horizon of a passive/absent adversary: "never acts again".
#: (Numerically equal to repro.faults.base.QUIET_FOREVER; the pram layer
#: cannot import the faults layer, which builds on top of it.)
_NO_HORIZON = 1 << 62

#: Outcomes of one fast-forwarded quiescent window (see
#: Machine._run_quiet_window).
_WINDOW_RAN = "ran"
_WINDOW_GOAL = "goal"
_WINDOW_IDLE = "idle"


def _is_passive(adversary: object) -> bool:
    """Whether ``adversary`` is declared passive (never acts).

    ``passive = True`` is only trusted when it is declared by the same
    class that defines the instance's ``decide`` — a subclass that
    overrides ``decide()`` while inheriting the flag (e.g. a spy wrapped
    around NoFailures) must still be consulted every tick.
    """
    if not getattr(adversary, "passive", False):
        return False
    for klass in type(adversary).__mro__:
        if "decide" in vars(klass):
            return bool(vars(klass).get("passive", False))
    return False


def _trusted_quiet_hook(adversary: object):
    """The adversary's ``quiet_until`` hook, or None if it can't be trusted.

    A ``quiet_until`` horizon is a promise about what ``decide`` will do,
    so — exactly like the ``passive`` flag in :func:`_is_passive` — it is
    only trusted when defined by the class that defines the instance's
    effective ``decide`` (or a subclass of it).  A subclass that
    overrides ``decide()`` while inheriting, say, NoFailures' infinite
    horizon has broken the promise and falls back to the always-sound
    per-tick horizon.
    """
    hook = getattr(adversary, "quiet_until", None)
    if hook is None:
        return None
    instance_vars = getattr(adversary, "__dict__", {})
    if "quiet_until" in instance_vars:
        return hook
    if "decide" in instance_vars:
        return None
    for klass in type(adversary).__mro__:
        if "quiet_until" in vars(klass):
            return hook
        if "decide" in vars(klass):
            return None
    return None


class Machine:
    """A P-processor restartable fail-stop PRAM over shared memory."""

    def __init__(
        self,
        num_processors: int,
        memory: SharedMemory,
        policy: Optional[WritePolicy] = None,
        adversary: Optional[object] = None,
        max_reads: int = 4,
        max_writes: int = 2,
        allow_snapshot: bool = False,
        enforce_progress: bool = True,
        strict_progress: bool = False,
        fairness_window: Optional[int] = None,
        context: Optional[Dict[str, object]] = None,
        fast_path: bool = True,
        fast_forward: bool = True,
        phase_counters: Optional[object] = None,
    ) -> None:
        if num_processors <= 0:
            raise ValueError(
                f"machine needs at least one processor, got {num_processors}"
            )
        self.num_processors = num_processors
        self.memory = memory
        self.policy = policy if policy is not None else CommonCrcw()
        self.adversary = adversary
        self.max_reads = max_reads
        self.max_writes = max_writes
        self.allow_snapshot = allow_snapshot
        self.enforce_progress = enforce_progress
        self.strict_progress = strict_progress
        # Optional fairness guarantee: a processor whose attempts were
        # interrupted `fairness_window` consecutive times cannot be
        # interrupted again until it completes a cycle.  This is the
        # "eventual progress" reading of the model's condition 2.(i) —
        # without it, an adversary can satisfy the letter of the
        # condition by letting only repeatable read-only cycles (e.g.
        # algorithm V's waiter polls) complete, while starving every
        # productive cycle forever.  None disables the guarantee.
        if fairness_window is not None and fairness_window < 1:
            raise ValueError(
                f"fairness_window must be >= 1 or None, got {fairness_window}"
            )
        self.fairness_window = fairness_window
        self._consecutive_interrupts: Dict[int, int] = {}
        self.context: Dict[str, object] = dict(context or {})
        self.ledger = RunLedger()
        self.ledger.use_array_counters(num_processors)
        self._processors: List[Processor] = []
        self._reader = MemoryReader(memory)
        #: Selects the optimized tick implementation (see module docs).
        self.fast_path = fast_path
        #: Lets :meth:`run` batch ticks across adversary-promised
        #: quiescent windows (the event-horizon protocol of
        #: ``repro.faults.base.Adversary.quiet_until``).  Only effective
        #: together with ``fast_path``; ``False`` is the escape hatch
        #: that forces one adversary consult per tick.
        self.fast_forward = fast_forward
        #: Optional per-phase wall-clock accumulator (duck-typed, see
        #: repro.perf.phases.PhaseCounters).  Instrumented on the fast
        #: path only so the reference path stays byte-for-byte the
        #: executable specification.
        self.phase_counters = phase_counters
        # -- fast-path state ------------------------------------------- #
        # Shared status-epoch cell: every processor status transition
        # bumps it, invalidating the cached running list/status table.
        self._status_epoch: List[int] = [0]
        self._cache_epoch = -1
        self._running_cache: List[Processor] = []
        self._statuses_view: Mapping[int, ProcessorStatus] = MappingProxyType({})
        self._status_pids: Tuple[Tuple[int, ...], ...] = ((), (), ())
        # Raw cell array (validated accesses fall back to memory.read /
        # memory.write); raw value storage is only safe without a word
        # width to enforce.
        self._cells = memory.raw_cells()
        self._raw_write_ok = memory.word_bits is None
        # One-time program-validation gate: cycle labels whose shape ran
        # through the fully validated reference collection once.
        self._validated_labels: set = set()
        # Memoized passivity and event-horizon hook of the
        # currently-attached adversary (the sentinel object never
        # compares `is` to a real adversary).
        self._passivity_for: object = object()
        self._passivity = False
        self._quiet_hook: Optional[Callable[[int], int]] = None
        # Reusable per-tick scratch (the point is zero steady-state
        # allocation; cleared, never reallocated).
        self._collect_scratch: List[tuple] = []
        self._pairs_scratch: List[tuple] = []
        self._resolved_scratch: List[Tuple[int, int]] = []
        self._single_scratch: Dict[int, Tuple[int, int]] = {}
        # Quiet-window scratch (the fused tick of _run_quiet_window).
        self._window_procs_scratch: List[Processor] = []
        self._window_values_scratch: List[tuple] = []
        self._window_writes_scratch: List[object] = []
        self._window_staged: Dict[int, int] = {}
        # Compiled-kernel lane (see repro.pram.compiled): set by
        # load_program when a kernel factory is installed; the kernel
        # fused tick stages flat (address, value) pairs here.
        self._kernel_mode = False
        self._kernel_raw_scratch: List[int] = []
        self._kernel_ends_scratch: List[int] = []
        # Vectorized lane (see repro.pram.vectorized): set by
        # load_program when a whole-machine vector program is installed;
        # fused quiet windows then run as batched ndarray bursts.
        self._vector: Optional[object] = None
        # Resident vector window: persists across consecutive quiet
        # windows (mirror + packed columns stay warm) and is flushed by
        # _flush_resident before anything outside the vector lane can
        # observe memory or per-PID kernel state.  With
        # vector_dispatch="auto", _dispatch holds the calibrated cost
        # model that picks vec vs scalar per fused window.
        self._resident: Optional[object] = None
        self._vector_auto = False
        self._dispatch: Optional[object] = None

    # ------------------------------------------------------------------ #
    # setup
    # ------------------------------------------------------------------ #

    def load_program(
        self,
        program_factory: ProgramFactory,
        compiled_program: Optional[object] = None,
        vectorized_program: Optional[object] = None,
        vector_dispatch: str = "always",
    ) -> None:
        """Install the program on all P processors and start them.

        ``compiled_program`` optionally installs a compiled kernel
        factory (see :mod:`repro.pram.compiled`) alongside the program:
        every processor then advances through its per-PID stepper
        instead of a generator, and quiet-window ticks take the fused
        kernel lane.  Callers are expected to route the factory through
        :func:`repro.pram.compiled.resolve_kernel`, which applies the
        MRO trust guard and the ``--no-compiled`` opt-out.

        ``vectorized_program`` optionally installs a whole-machine
        vector program (see :mod:`repro.pram.vectorized`, routed through
        ``resolve_vectorized``): its per-PID scalar kernels then drive
        every observable tick exactly like the compiled lane (it
        supersedes ``compiled_program``), and fused quiet windows run
        as batched array bursts instead of per-processor Python steps.

        ``vector_dispatch`` selects how a vector program is used:
        ``"always"`` (every eligible quiet window runs vectorized —
        the ``--vectorized`` behaviour) or ``"auto"`` (the calibrated
        cost model in :mod:`repro.pram.dispatch` picks vec vs scalar
        per fused window — the ``--lane auto`` behaviour).  Either
        lane choice produces bit-identical results; dispatch only
        decides which one is faster.
        """
        if self._resident is not None:
            self._resident.close()
            self._resident = None
        self._vector = vectorized_program
        self._vector_auto = (
            vectorized_program is not None and vector_dispatch == "auto"
        )
        if vectorized_program is not None:
            compiled_program = vectorized_program.pid_stepper
        self._kernel_mode = compiled_program is not None
        self._processors = [
            Processor(pid, program_factory, compiled_program)
            for pid in range(self.num_processors)
        ]
        for processor in self._processors:
            processor.bind_epoch_cell(self._status_epoch)
            processor.spawn()

    @property
    def processors(self) -> Tuple[Processor, ...]:
        return tuple(self._processors)

    @property
    def time(self) -> int:
        """Ticks executed so far."""
        return self.ledger.ticks

    def statuses(self) -> Dict[int, ProcessorStatus]:
        return {proc.pid: proc.status for proc in self._processors}

    # ------------------------------------------------------------------ #
    # one tick
    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """Execute one clock tick.

        Returns ``True`` when the machine is still live (some processor is
        running or failed-but-restartable), ``False`` once every processor
        has halted.
        """
        if not self._processors:
            raise ProgramError("no program loaded; call load_program() first")
        if self._resident is not None:
            # Observable tick: the adversary view, traces, and the
            # scalar kernels all read memory / per-PID state directly.
            self._resident.flush()
        if self.fast_path:
            return self._step_fast()
        return self._step_reference()

    # ================================================================== #
    # reference tick (executable specification; fast_path=False)
    # ================================================================== #

    def _step_reference(self) -> bool:
        running = [proc for proc in self._processors if proc.is_running]
        failed = [proc for proc in self._processors if proc.is_failed]
        if not running and not failed:
            return False

        self.ledger.ticks += 1
        tick = self.ledger.ticks

        pending = self._collect_pending(running)
        view = TickView(
            time=tick,
            memory=self._reader,
            statuses=self.statuses(),
            pending=pending,
            ledger=self.ledger,
            context=self.context,
        )
        decision = self._consult_adversary(view)
        failures = self._validated_failures(decision, pending)
        failures = self._apply_fairness(failures)
        stalls = self._validated_stalls(decision, pending)
        failures, stalls = self._apply_progress_policy(
            failures, pending, stalls
        )

        self._apply_writes(pending, failures, stalls)
        completed_this_tick = self._settle_processors(
            pending, failures, tick, stalls
        )
        self.ledger.completed_per_tick.append(completed_this_tick)
        self._apply_restarts(decision, failures, pending, tick)
        self._sync_traffic()
        return True

    # -- tick sub-phases ------------------------------------------------ #

    def _collect_pending(
        self, running: List[Processor]
    ) -> Dict[int, PendingCycleView]:
        pending: Dict[int, PendingCycleView] = {}
        readers_by_address: Dict[int, List[int]] = defaultdict(list)
        for processor in running:
            cycle = processor.pending_cycle
            if cycle.is_snapshot:
                if not self.allow_snapshot:
                    raise ProgramError(
                        f"pid {processor.pid}: snapshot read on a machine "
                        f"without allow_snapshot (label={cycle.label!r})"
                    )
                values: Tuple[int, ...] = tuple(self.memory.snapshot())
                self.memory.reads_served += 1  # unit cost by assumption
            else:
                specs = cycle.read_specs()
                if len(specs) > self.max_reads:
                    raise ProgramError(
                        f"pid {processor.pid}: cycle reads {len(specs)} "
                        f"cells, limit is {self.max_reads} "
                        f"(label={cycle.label!r})"
                    )
                value_list: List[int] = []
                for spec in specs:
                    address = spec(tuple(value_list)) if callable(spec) else spec
                    if address is None:
                        value_list.append(0)
                        continue
                    value_list.append(self.memory.read(address))
                    readers_by_address[address].append(processor.pid)
                values = tuple(value_list)
            writes = cycle.materialize_writes(values)
            if len(writes) > self.max_writes:
                raise ProgramError(
                    f"pid {processor.pid}: cycle writes {len(writes)} cells, "
                    f"limit is {self.max_writes} (label={cycle.label!r})"
                )
            pending[processor.pid] = PendingCycleView(
                pid=processor.pid, cycle=cycle, read_values=values, writes=writes
            )
        for address, reader_pids in readers_by_address.items():
            self.policy.check_reads(address, reader_pids)
        return pending

    def _consult_adversary(self, view: TickView) -> Decision:
        if self.adversary is None:
            return Decision.none()
        decision = self.adversary.decide(view)
        if decision is None:
            return Decision.none()
        if not isinstance(decision, Decision):
            raise AdversaryError(
                f"adversary returned {decision!r}, expected a Decision"
            )
        return decision

    def _validated_failures(
        self, decision: Decision, pending: Mapping[int, PendingCycleView]
    ) -> Dict[int, int]:
        failures: Dict[int, int] = {}
        for pid, writes_applied in decision.failures.items():
            if pid not in pending:
                raise AdversaryError(
                    f"adversary failed pid {pid}, which has no pending cycle"
                )
            write_count = len(pending[pid].writes)
            if writes_applied == AFTER_ALL_WRITES:
                writes_applied = write_count
            if not 0 <= writes_applied <= write_count:
                raise AdversaryError(
                    f"adversary applied {writes_applied} writes for pid {pid}, "
                    f"cycle has {write_count}"
                )
            failures[pid] = writes_applied
        return failures

    def _validated_stalls(
        self, decision: Decision, pending: Mapping[int, PendingCycleView]
    ) -> FrozenSet[int]:
        """Validate the decision's stall set (heterogeneous-speed model).

        A stalled processor's pending cycle is deferred: not executed,
        not charged, not failed.  The processor keeps its private state
        and re-attempts the same cycle (with fresh reads) on the next
        tick it is allowed to run.  Stalls never enter the failure
        pattern.  Only pending PIDs may be stalled, and a PID may not be
        both stalled and failed in one decision.
        """
        stalls = decision.stalls
        if not stalls:
            return frozenset()
        for pid in stalls:
            if pid not in pending:
                raise AdversaryError(
                    f"adversary stalled pid {pid}, which has no pending cycle"
                )
            if pid in decision.failures:
                raise AdversaryError(
                    f"adversary both stalled and failed pid {pid}"
                )
        return frozenset(stalls)

    def _apply_fairness(self, failures: Dict[int, int]) -> Dict[int, int]:
        if self.fairness_window is None:
            return failures
        for pid in list(failures):
            if self._consecutive_interrupts.get(pid, 0) >= self.fairness_window:
                del failures[pid]
                self.ledger.fairness_vetoes += 1
        return failures

    def _cycle_completes(
        self, pid: int, failures: Mapping[int, int], pending: Mapping[int, PendingCycleView]
    ) -> bool:
        """A cycle completes iff the processor was not failed during it.

        A failure with ``writes_applied == len(writes)`` leaves every
        atomic write in memory but the cycle still counts as interrupted
        (charged to S' only): the processor stopped before reaching the
        cycle boundary.
        """
        return pid not in failures

    def _apply_progress_policy(
        self,
        failures: Dict[int, int],
        pending: Mapping[int, PendingCycleView],
        stalls: FrozenSet[int] = frozenset(),
    ) -> Tuple[Dict[int, int], FrozenSet[int]]:
        if not pending:
            return failures, stalls
        if any(
            pid not in failures and pid not in stalls for pid in pending
        ):
            return failures, stalls
        # Every pending cycle would be interrupted or deferred: the
        # model's progress condition (at least one completing update
        # cycle at any time) is violated.
        if self.strict_progress:
            raise ProgressViolationError(
                "adversary interrupted every pending update cycle at tick "
                f"{self.ledger.ticks}"
            )
        if not self.enforce_progress:
            return failures, stalls
        if failures:
            spared_pid = min(failures)
            del failures[spared_pid]
        else:
            # Everyone pending was stalled: un-stall the lowest PID so
            # one cycle completes this tick.
            stalls = stalls - {min(stalls)}
        self.ledger.progress_vetoes += 1
        return failures, stalls

    def _apply_writes(
        self,
        pending: Mapping[int, PendingCycleView],
        failures: Mapping[int, int],
        stalls: FrozenSet[int] = frozenset(),
    ) -> None:
        writers_by_address: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for pid in sorted(pending):
            if pid in stalls:
                continue  # deferred cycle: its writes never happen
            entry = pending[pid]
            if pid in failures:
                surviving: Tuple[Write, ...] = entry.writes[: failures[pid]]
            else:
                surviving = entry.writes
            for write in surviving:
                writers_by_address[write.address].append((pid, write.value))
        for address in sorted(writers_by_address):
            writers = writers_by_address[address]
            value = self.policy.resolve(address, writers)
            self.memory.write(address, value)

    def _settle_processors(
        self,
        pending: Mapping[int, PendingCycleView],
        failures: Mapping[int, int],
        tick: int,
        stalls: FrozenSet[int] = frozenset(),
    ) -> int:
        completed_this_tick = 0
        for pid in sorted(pending):
            if pid in stalls:
                # Deferred: no charge, no completion, no failure.  The
                # processor's pending cycle stays cached and re-collects
                # (with fresh reads) on its next un-stalled tick.
                continue
            processor = self._processors[pid]
            self.ledger.charge_attempt(pid)
            completes = self._cycle_completes(pid, failures, pending)
            if completes:
                self.ledger.charge_completion(pid)
                completed_this_tick += 1
                self._consecutive_interrupts[pid] = 0
            else:
                self._consecutive_interrupts[pid] = (
                    self._consecutive_interrupts.get(pid, 0) + 1
                )
            if pid in failures:
                self.ledger.pattern.record(FailureTag.FAILURE, pid, tick)
                processor.fail()
            else:
                processor.complete_cycle(pending[pid].read_values)
        return completed_this_tick

    def _apply_restarts(
        self,
        decision: Decision,
        failures: Mapping[int, int],
        pending: Mapping[int, PendingCycleView],
        tick: int,
    ) -> None:
        for pid in sorted(decision.restarts):
            if not 0 <= pid < self.num_processors:
                raise AdversaryError(f"adversary restarted unknown pid {pid}")
            processor = self._processors[pid]
            if not processor.is_failed:
                if processor.is_running and pid in decision.failures:
                    # The progress veto cancelled this pid's failure, so
                    # its paired restart is vacuous — skip it.
                    continue
                raise AdversaryError(
                    f"adversary restarted pid {pid}, which is "
                    f"{processor.status.value}"
                )
            self.ledger.pattern.record(FailureTag.RESTART, pid, tick)
            processor.restart()
        # Progress policy for an all-failed machine: something must be
        # executing an update cycle.  If the adversary left every processor
        # failed, forcibly restart the lowest PID.
        if self.enforce_progress and not pending and not decision.restarts:
            self._force_restart_lowest_failed(tick)

    def _force_restart_lowest_failed(self, tick: int) -> None:
        failed = [proc for proc in self._processors if proc.is_failed]
        if failed:
            revived = min(failed, key=lambda proc: proc.pid)
            self.ledger.pattern.record(FailureTag.RESTART, revived.pid, tick)
            revived.restart()
            self.ledger.progress_vetoes += 1

    def _sync_traffic(self) -> None:
        self.ledger.memory_reads = self.memory.reads_served
        self.ledger.memory_writes = self.memory.writes_applied

    # ================================================================== #
    # fast tick (allocation-lean; semantics identical to the reference)
    # ================================================================== #

    def _refresh_status_caches(self) -> None:
        epoch = self._status_epoch[0]
        if epoch == self._cache_epoch:
            return
        running: List[Processor] = []
        statuses: Dict[int, ProcessorStatus] = {}
        running_pids: List[int] = []
        failed_pids: List[int] = []
        halted_pids: List[int] = []
        for proc in self._processors:
            status = proc.status
            pid = proc.pid
            statuses[pid] = status
            if status is ProcessorStatus.RUNNING:
                running.append(proc)
                running_pids.append(pid)
            elif status is ProcessorStatus.FAILED:
                failed_pids.append(pid)
            else:
                halted_pids.append(pid)
        self._running_cache = running
        self._statuses_view = MappingProxyType(statuses)
        # PID-sorted because the processor list is; handed to TickView.
        self._status_pids = (
            tuple(running_pids), tuple(failed_pids), tuple(halted_pids)
        )
        self._cache_epoch = epoch

    def _refresh_adversary_memo(self) -> None:
        adversary = self.adversary
        if adversary is not self._passivity_for:
            # self.adversary is public and may be swapped between runs.
            self._passivity_for = adversary
            self._passivity = adversary is None or _is_passive(adversary)
            self._quiet_hook = (
                None if adversary is None else _trusted_quiet_hook(adversary)
            )

    def _event_horizon(self) -> int:
        """First future tick at which the adversary might act.

        A passive (or absent) adversary never acts; an adversary without
        the ``quiet_until`` hook is consulted every tick.  Malformed or
        stale horizons are clamped to the always-sound next tick.
        """
        self._refresh_adversary_memo()
        tick = self.ledger.ticks
        if self._passivity:
            return _NO_HORIZON
        hook = self._quiet_hook
        if hook is None:
            return tick + 1
        horizon = hook(tick)
        if not isinstance(horizon, int):
            raise AdversaryError(
                f"adversary quiet_until({tick}) returned {horizon!r}, "
                "expected an int tick number"
            )
        return horizon if horizon > tick else tick + 1

    def _step_fast(self) -> bool:
        self._refresh_status_caches()
        running = self._running_cache
        if not running and not self._status_pids[1]:
            return False
        self.ledger.ticks += 1
        tick = self.ledger.ticks
        self._refresh_adversary_memo()
        if self._passivity:
            self._tick_fast_passive(tick, running)
        else:
            self._tick_fast_adversary(tick, running)
        self._sync_traffic()
        return True

    def _fusable(self) -> bool:
        """Whether ticks may skip per-access validation and reader sets.

        The gate of the fused quiet loops, the vector windows, and the
        staged collection of compiled kernels: raw cell writes allowed
        (no word width to enforce), concurrent reads allowed (no reader
        sets to check), and singleton resolve the identity.
        """
        policy = self.policy
        return (
            self._raw_write_ok
            and policy.allows_concurrent_reads
            and policy.singleton_resolve_is_identity
        )

    def _collect_fast(self, running: List[Processor]) -> List[tuple]:
        """Collect every running processor's pending cycle.

        Returns a reusable list of ``(processor, cycle, read_values,
        writes, label)`` tuples in running-list (ascending PID) order;
        ``cycle`` is ``None`` when a compiled kernel staged the entry.
        Plain tuples keep the passive ticks allocation-lean; only the
        adversary tick wraps them in :class:`PendingCycleView`.  Reads
        go straight to the cell array after a type/bounds check, with
        invalid accesses routed through the validated reader so error
        behavior matches the reference path exactly.
        """
        if self._kernel_mode and self._fusable():
            return self._collect_staged(running)
        memory = self.memory
        cells = self._cells
        size = len(cells)
        max_reads = self.max_reads
        max_writes = self.max_writes
        validated = self._validated_labels
        policy = self.policy
        readers_by_address: Optional[Dict[int, List[int]]] = (
            None if policy.allows_concurrent_reads else defaultdict(list)
        )
        collected = self._collect_scratch
        collected.clear()
        reads_charged = 0
        for processor in running:
            cycle = processor._pending
            if cycle is None:
                # Compiled kernels materialize their pending cycle only
                # for observed ticks; a generator processor with nothing
                # pending raises the standard ProgramError here.
                cycle = processor.materialize_pending()
            label = cycle.label
            if label not in validated:
                collected.append(
                    self._collect_one_validated(processor, cycle, readers_by_address)
                )
                validated.add(label)
                continue
            reads = cycle.reads
            if type(reads) is tuple:
                if len(reads) > max_reads:
                    raise ProgramError(
                        f"pid {processor.pid}: cycle reads {len(reads)} "
                        f"cells, limit is {self.max_reads} "
                        f"(label={cycle.label!r})"
                    )
                value_list: List[int] = []
                for spec in reads:
                    if spec.__class__ is int:
                        address = spec
                    elif spec is None:
                        value_list.append(0)
                        continue
                    else:
                        # The validation gate pinned this label's shape:
                        # non-int, non-None specs are callables.
                        address = spec(tuple(value_list))
                        if address is None:
                            value_list.append(0)
                            continue
                    if address.__class__ is int and 0 <= address < size:
                        value_list.append(cells[address])
                        reads_charged += 1
                    else:
                        # Exotic-but-valid addresses succeed (and charge
                        # themselves); invalid ones raise MemoryError_.
                        value_list.append(memory.read(address))
                    if readers_by_address is not None:
                        readers_by_address[address].append(processor.pid)
                values: Tuple[int, ...] = tuple(value_list)
            elif cycle.is_snapshot:
                if not self.allow_snapshot:
                    raise ProgramError(
                        f"pid {processor.pid}: snapshot read on a machine "
                        f"without allow_snapshot (label={cycle.label!r})"
                    )
                values = tuple(memory.snapshot())
                reads_charged += 1  # unit cost by assumption
            else:
                cycle.read_specs()  # raises the standard ProgramError
                raise AssertionError("unreachable")  # pragma: no cover
            writes_spec = cycle.writes
            writes = writes_spec(values) if callable(writes_spec) else writes_spec
            if len(writes) > max_writes:
                raise ProgramError(
                    f"pid {processor.pid}: cycle writes {len(writes)} cells, "
                    f"limit is {self.max_writes} (label={cycle.label!r})"
                )
            collected.append((
                processor, cycle, values,
                writes if type(writes) is tuple else tuple(writes),
                label,
            ))
        if readers_by_address is not None:
            for address, reader_pids in readers_by_address.items():
                policy.check_reads(address, reader_pids)
        memory.charge_reads(reads_charged)
        return collected

    def _collect_staged(self, running: List[Processor]) -> List[tuple]:
        """Collect an observed tick through the compiled kernels' staging.

        Each stepper's pure :meth:`~repro.pram.compiled.CompiledProgram.stage`
        reads the raw cells and returns the label, read values, read
        charge, and writes of its pending cycle — no ``Cycle`` is built
        and the stepper does not advance, so a processor that is then
        stalled re-stages with fresh reads next tick and a failed one is
        rebuilt by ``reset()``.  The first occurrence of each label
        still materializes its cycle through the fully validated route
        (the one-time validation gate), and so does a cycle whose
        stepper declines to stage it (:class:`CycleFallback`).
        """
        cells = self._cells
        max_reads = self.max_reads
        max_writes = self.max_writes
        validated = self._validated_labels
        collected = self._collect_scratch
        collected.clear()
        reads_charged = 0
        for processor in running:
            try:
                label, values, charged, writes = processor._stepper.stage(cells)
            except CycleFallback:
                # A task cycle the kernel cannot read raw: the validated
                # route reads it (or raises the generator path's error).
                entry = self._collect_one_validated(
                    processor, processor.materialize_pending(), None
                )
                validated.add(entry[4])
                collected.append(entry)
                continue
            if label not in validated:
                collected.append(self._collect_one_validated(
                    processor, processor.materialize_pending(), None
                ))
                validated.add(label)
                continue
            if len(values) > max_reads:
                raise ProgramError(
                    f"pid {processor.pid}: cycle reads {len(values)} "
                    f"cells, limit is {max_reads} (label={label!r})"
                )
            if len(writes) > max_writes:
                raise ProgramError(
                    f"pid {processor.pid}: cycle writes {len(writes)} cells, "
                    f"limit is {max_writes} (label={label!r})"
                )
            reads_charged += charged
            collected.append((processor, None, values, writes, label))
        self.memory.charge_reads(reads_charged)
        return collected

    def _collect_one_validated(
        self,
        processor: Processor,
        cycle: Cycle,
        readers_by_address: Optional[Dict[int, List[int]]],
    ) -> tuple:
        """Reference-semantics collection of one cycle.

        The one-time program-validation gate: the first occurrence of
        each cycle label takes this fully validated route (type checks
        on every read spec and produced write); later occurrences are
        trusted to keep the same shape and take the raw route.
        """
        if cycle.is_snapshot:
            if not self.allow_snapshot:
                raise ProgramError(
                    f"pid {processor.pid}: snapshot read on a machine "
                    f"without allow_snapshot (label={cycle.label!r})"
                )
            values: Tuple[int, ...] = tuple(self.memory.snapshot())
            self.memory.reads_served += 1  # unit cost by assumption
        else:
            specs = cycle.read_specs()
            if len(specs) > self.max_reads:
                raise ProgramError(
                    f"pid {processor.pid}: cycle reads {len(specs)} "
                    f"cells, limit is {self.max_reads} "
                    f"(label={cycle.label!r})"
                )
            value_list: List[int] = []
            for spec in specs:
                address = spec(tuple(value_list)) if callable(spec) else spec
                if address is None:
                    value_list.append(0)
                    continue
                value_list.append(self.memory.read(address))
                if readers_by_address is not None:
                    readers_by_address[address].append(processor.pid)
            values = tuple(value_list)
        writes = cycle.materialize_writes(values)
        if len(writes) > self.max_writes:
            raise ProgramError(
                f"pid {processor.pid}: cycle writes {len(writes)} cells, "
                f"limit is {self.max_writes} (label={cycle.label!r})"
            )
        return (processor, cycle, values, writes, cycle.label)

    def _resolve_and_apply_fast(self, pairs: List[tuple]) -> None:
        """Resolve per-address writers and apply the results.

        ``pairs`` holds ``(pid, surviving_writes)`` in ascending PID
        order.  Equivalent to the reference ``_apply_writes``, but when
        every address has exactly one writer (the overwhelmingly common
        case) the grouping dict, the sort, and the policy resolve call
        are all skipped and the writes land through one batched commit.
        """
        single = self._single_scratch
        single.clear()
        groups: Optional[Dict[int, List[Tuple[int, int]]]] = None
        for pid, writes in pairs:
            for write in writes:
                address = write.address
                if groups is not None:
                    group = groups.get(address)
                    if group is not None:
                        group.append((pid, write.value))
                        continue
                prev = single.get(address)
                if prev is None:
                    single[address] = (pid, write.value)
                else:
                    if groups is None:
                        groups = {}
                    groups[address] = [prev, (pid, write.value)]
                    del single[address]
        self._commit_grouped(single, groups)

    def _resolve_and_apply_raw(
        self,
        procs: List[Processor],
        ends: List[int],
        raw: List[int],
    ) -> None:
        """Resolve and apply kernel-staged flat ``address, value`` pairs.

        The compiled-kernel analogue of :meth:`_resolve_and_apply_fast`:
        ``raw`` holds each processor's writes as flat pairs in cycle
        write order, ``ends[i]`` is processor ``i``'s end offset into
        ``raw``, and ``procs`` is in ascending-PID (running-list) order,
        so grouping order matches the reference ``_apply_writes``.
        """
        single = self._single_scratch
        single.clear()
        groups: Optional[Dict[int, List[Tuple[int, int]]]] = None
        start = 0
        for index, processor in enumerate(procs):
            pid = processor.pid
            end = ends[index]
            i = start
            while i < end:
                address = raw[i]
                value = raw[i + 1]
                i += 2
                if groups is not None:
                    group = groups.get(address)
                    if group is not None:
                        group.append((pid, value))
                        continue
                prev = single.get(address)
                if prev is None:
                    single[address] = (pid, value)
                else:
                    if groups is None:
                        groups = {}
                    groups[address] = [prev, (pid, value)]
                    del single[address]
            start = end
        self._commit_grouped(single, groups)

    def _commit_grouped(
        self,
        single: Dict[int, Tuple[int, int]],
        groups: Optional[Dict[int, List[Tuple[int, int]]]],
    ) -> None:
        """Commit grouped writers: one batched commit or the reference path.

        When singleton resolution is the identity and raw writes are
        allowed, only multi-writer addresses call ``policy.resolve`` (in
        ascending address order, as the reference does) and everything
        lands through one batched commit.  If a resolve raises, the
        cells below the failing address are committed first, leaving
        the partial state of the reference's ascending write loop.
        """
        policy = self.policy
        memory = self.memory
        if policy.singleton_resolve_is_identity and self._raw_write_ok:
            size = len(self._cells)
            resolved = self._resolved_scratch
            resolved.clear()
            clean = True
            try:
                for address, pid_value in single.items():
                    if type(address) is int and 0 <= address < size:
                        resolved.append((address, pid_value[1]))
                    else:
                        clean = False
                        break
                if clean and groups:
                    for address in groups:
                        if not (type(address) is int and 0 <= address < size):
                            clean = False
                            break
            except TypeError:  # pragma: no cover - defensive
                clean = False
            if clean:
                if groups:
                    resolve = policy.resolve
                    failed_at = None
                    try:
                        for address in sorted(groups):
                            failed_at = address
                            resolved.append(
                                (address, resolve(address, groups[address]))
                            )
                    except BaseException:
                        memory.commit_resolved([
                            pair for pair in resolved if pair[0] < failed_at
                        ])
                        raise
                memory.commit_resolved(resolved)
                return
        # General path: a stateful policy, a word-width-enforcing
        # memory, or an invalid address.  Reproduce
        # the reference semantics exactly (same resolve calls, same
        # ascending-address application order, same errors and partial
        # state on error).
        writers_by_address: Dict[int, List[Tuple[int, int]]] = {
            address: [pid_value] for address, pid_value in single.items()
        }
        if groups:
            writers_by_address.update(groups)
        resolve = policy.resolve
        write = memory.write
        for address in sorted(writers_by_address):
            write(address, resolve(address, writers_by_address[address]))

    def _tick_fast_passive(self, tick: int, running: List[Processor]) -> None:
        """One tick with no (active) adversary: nothing can fail.

        Skips the adversary view, the pending dataclasses, and every
        failure-handling phase; every collected cycle completes.
        """
        phases = self.phase_counters
        mark = perf_counter() if phases is not None else 0.0
        collected = self._collect_fast(running)
        if phases is not None:
            now = perf_counter()
            phases.collect_s += now - mark
            mark = now
        ledger = self.ledger
        if not collected:
            # Every processor is failed or halted: an empty tick, then
            # the all-failed progress policy (reference order).
            ledger.completed_per_tick.append(0)
            if self.enforce_progress:
                self._force_restart_lowest_failed(tick)
            if phases is not None:
                phases.settle_s += perf_counter() - mark
                phases.ticks += 1
            return
        pairs = self._pairs_scratch
        pairs.clear()
        for entry in collected:
            pairs.append((entry[0].pid, entry[3]))
        self._resolve_and_apply_fast(pairs)
        if phases is not None:
            now = perf_counter()
            phases.resolve_s += now - mark
            mark = now
        attempts = ledger.attempted_by_pid.backing_list()
        completions = ledger.completed_by_pid.backing_list()
        for entry in collected:
            processor = entry[0]
            pid = processor.pid
            attempts[pid] += 1
            completions[pid] += 1
            processor.complete_cycle(entry[2])
        ledger.completed_per_tick.append(len(collected))
        if phases is not None:
            phases.settle_s += perf_counter() - mark
            phases.ticks += 1

    def _tick_fast_adversary(self, tick: int, running: List[Processor]) -> None:
        """One tick with an active adversary.

        Builds the full adversary view (from cached statuses, status
        tuples and the fast collection) and runs the reference
        failure-handling phases, so adversary-visible state and the
        realized pattern are identical to the reference path.  The
        settle is one PID-ordered pass over the collection that charges
        the ledger's backing lists directly (the reference
        ``_settle_processors``, folded); the pending dict is built in
        running-list order, so it is PID-ordered.  Kernel processors
        fail and restart inline (see :meth:`_restart_fast`); each phase
        records its events with one ``record_many`` and bumps the status
        epoch once.
        """
        phases = self.phase_counters
        mark = perf_counter() if phases is not None else 0.0
        pending = {
            processor.pid: PendingCycleView(
                processor.pid, cycle, values, writes, label, processor
            )
            for processor, cycle, values, writes, label
            in self._collect_fast(running)
        }
        if phases is not None:
            now = perf_counter()
            phases.collect_s += now - mark
            mark = now
        ledger = self.ledger
        view = TickView(
            time=tick,
            memory=self._reader,
            statuses=self._statuses_view,
            pending=pending,
            ledger=ledger,
            context=self.context,
            status_pids=self._status_pids,
        )
        decision = self._consult_adversary(view)
        failures = self._validated_failures(decision, pending)
        failures = self._apply_fairness(failures)
        stalls = self._validated_stalls(decision, pending)
        failures, stalls = self._apply_progress_policy(
            failures, pending, stalls
        )
        if phases is not None:
            now = perf_counter()
            phases.adversary_s += now - mark
            mark = now
        pairs = self._pairs_scratch
        pairs.clear()
        for pid, entry in pending.items():
            if pid in stalls:
                continue
            if pid in failures:
                surviving = entry.writes[: failures[pid]]
                if surviving:
                    pairs.append((pid, surviving))
            else:
                pairs.append((pid, entry.writes))
        self._resolve_and_apply_fast(pairs)
        if phases is not None:
            now = perf_counter()
            phases.resolve_s += now - mark
            mark = now
        attempts = ledger.attempted_by_pid.backing_list()
        completions = ledger.completed_by_pid.backing_list()
        interrupts = self._consecutive_interrupts
        failed: List[int] = []
        halted = False
        completed_this_tick = 0
        try:
            for pid, entry in pending.items():
                if pid in stalls:
                    # Deferred: no charge, no completion, no failure; the
                    # next tick re-collects it with fresh reads.
                    continue
                attempts[pid] += 1
                processor = entry._source
                if pid in failures:
                    interrupts[pid] = interrupts.get(pid, 0) + 1
                    failed.append(pid)
                    if processor._generator is None:
                        # Inlined Processor.fail, kernel branch (there
                        # is no generator to close).
                        processor._pending = None
                        processor.status = ProcessorStatus.FAILED
                    else:
                        processor.fail()
                    continue
                completions[pid] += 1
                completed_this_tick += 1
                if interrupts:
                    # Same observable count as the reference's reset to 0.
                    interrupts.pop(pid, None)
                stepper = processor._stepper
                if stepper is None:
                    processor.complete_cycle(entry.read_values)
                    continue
                # Inlined Processor.complete_cycle, kernel branch.
                processor.cycles_completed += 1
                processor._pending = None
                if not stepper.advance(entry.read_values):
                    processor.status = ProcessorStatus.HALTED
                    halted = True
        finally:
            # Also on a raise part-way: the pattern then holds exactly
            # the failures the reference had recorded by that point.
            if failed:
                ledger.pattern.record_many(FailureTag.FAILURE, failed, tick)
            if failed or halted:
                self._status_epoch[0] += 1
        ledger.completed_per_tick.append(completed_this_tick)
        self._restart_fast(decision, pending, tick)
        if phases is not None:
            phases.settle_s += perf_counter() - mark
            phases.ticks += 1

    def _restart_fast(
        self,
        decision: Decision,
        pending: Mapping[int, PendingCycleView],
        tick: int,
    ) -> None:
        """The reference ``_apply_restarts``, folded for the fast tick.

        Same PID order, checks and ``AdversaryError`` messages (the
        vacuous restart of a processor whose failure the progress veto
        cancelled is skipped), and the same partial state when a check
        raises: every restart before the offending PID has happened and
        is recorded.  Kernel processors restart inline (a stepper reset
        rebuilds the state from the PID); generator processors go
        through ``Processor.restart``.
        """
        restarts = decision.restarts
        if not restarts:
            if self.enforce_progress and not pending:
                self._force_restart_lowest_failed(tick)
            return
        processors = self._processors
        num_processors = self.num_processors
        requested = decision.failures
        revived: List[int] = []
        try:
            for pid in sorted(restarts):
                if not 0 <= pid < num_processors:
                    raise AdversaryError(
                        f"adversary restarted unknown pid {pid}"
                    )
                processor = processors[pid]
                status = processor.status
                if status is not ProcessorStatus.FAILED:
                    if status is ProcessorStatus.RUNNING and pid in requested:
                        continue  # vacuous: its failure was vetoed
                    raise AdversaryError(
                        f"adversary restarted pid {pid}, which is "
                        f"{status.value}"
                    )
                revived.append(pid)
                stepper = processor._stepper
                if stepper is None:
                    processor.restart()
                    continue
                # Inlined Processor.restart and spawn, kernel branch.
                processor.restart_count += 1
                if stepper.reset():
                    processor.status = ProcessorStatus.RUNNING
                else:
                    processor.status = ProcessorStatus.HALTED
        finally:
            if revived:
                self.ledger.pattern.record_many(
                    FailureTag.RESTART, revived, tick
                )
                self._status_epoch[0] += 1

    # ================================================================== #
    # event-horizon fast-forward (run()-level tick batching)
    # ================================================================== #

    def _flush_quiet_batch(
        self, running: List[Processor], batch_ticks: int
    ) -> None:
        """Charge a batch of fully-quiet ticks to the ledger at once."""
        if batch_ticks:
            self.ledger.charge_quiet_window(
                [processor.pid for processor in running], batch_ticks
            )

    def _quiet_tick_fused(self, running: List[Processor]) -> None:
        """One adversary-free tick in a single fused sweep.

        The quiet-window specialization of ``_collect_fast`` +
        ``_resolve_and_apply_fast`` + the settle loop: one read/stage
        pass over the running processors, one batched memory commit, one
        generator-advance pass.  No per-processor tuples or pending
        views are built and no per-tick ledger charges land (the window
        flushes those in one batch).  Preconditions, checked by the
        window: concurrent reads allowed, singleton resolve is the
        identity, raw writes allowed.  Phase counters do not disable
        fusion — fused ticks land in ``phases.fused_ticks``, charged
        per batch by the window.  Same-tick write collisions and exotic
        addresses fall back to the reference-exact resolution for the
        whole tick.
        """
        memory = self.memory
        cells = self._cells
        size = len(cells)
        max_reads = self.max_reads
        max_writes = self.max_writes
        validated = self._validated_labels
        procs = self._window_procs_scratch
        values_list = self._window_values_scratch
        writes_list = self._window_writes_scratch
        staged = self._window_staged
        procs.clear()
        values_list.clear()
        writes_list.clear()
        staged.clear()
        clean = True
        reads_charged = 0
        for processor in running:
            cycle = processor._pending
            if cycle is None:
                raise ProgramError(f"pid {processor.pid}: no pending cycle")
            label = cycle.label
            if label not in validated:
                entry = self._collect_one_validated(processor, cycle, None)
                validated.add(label)
                values = entry[2]
                writes = entry[3]
            else:
                reads = cycle.reads
                if type(reads) is tuple:
                    if len(reads) > max_reads:
                        raise ProgramError(
                            f"pid {processor.pid}: cycle reads {len(reads)} "
                            f"cells, limit is {self.max_reads} "
                            f"(label={cycle.label!r})"
                        )
                    value_list: List[int] = []
                    for spec in reads:
                        if spec.__class__ is int:
                            address = spec
                        elif spec is None:
                            value_list.append(0)
                            continue
                        else:
                            address = spec(tuple(value_list))
                            if address is None:
                                value_list.append(0)
                                continue
                        if address.__class__ is int and 0 <= address < size:
                            value_list.append(cells[address])
                            reads_charged += 1
                        else:
                            value_list.append(memory.read(address))
                    values = tuple(value_list)
                elif cycle.is_snapshot:
                    if not self.allow_snapshot:
                        raise ProgramError(
                            f"pid {processor.pid}: snapshot read on a machine "
                            f"without allow_snapshot (label={cycle.label!r})"
                        )
                    values = tuple(memory.snapshot())
                    reads_charged += 1  # unit cost by assumption
                else:
                    cycle.read_specs()  # raises the standard ProgramError
                    raise AssertionError("unreachable")  # pragma: no cover
                writes_spec = cycle.writes
                writes = (
                    writes_spec(values) if callable(writes_spec) else writes_spec
                )
                if len(writes) > max_writes:
                    raise ProgramError(
                        f"pid {processor.pid}: cycle writes {len(writes)} "
                        f"cells, limit is {self.max_writes} "
                        f"(label={cycle.label!r})"
                    )
            procs.append(processor)
            values_list.append(values)
            writes_list.append(writes)
            if clean:
                for write in writes:
                    address = write.address
                    if (
                        address.__class__ is int
                        and 0 <= address < size
                        and address not in staged
                    ):
                        staged[address] = write.value
                    else:
                        clean = False
                        break
        memory.charge_reads(reads_charged)
        if clean:
            memory.commit_resolved(staged.items())
        else:
            # Collision or exotic address somewhere this tick: redo the
            # whole tick's writes through the reference-exact resolver
            # (same policy calls, same order, same errors).
            pairs = self._pairs_scratch
            pairs.clear()
            for processor, writes in zip(procs, writes_list):
                pairs.append((processor.pid, writes))
            self._resolve_and_apply_fast(pairs)
        for processor, values in zip(procs, values_list):
            # Inlined Processor.complete_cycle (every guard holds here:
            # the whole window runs, completes, and stays running unless
            # the program itself returns).
            processor.cycles_completed += 1
            try:
                next_cycle = processor._generator.send(values)
            except StopIteration:
                processor._generator = None
                processor._pending = None
                processor.status = ProcessorStatus.HALTED
                processor._bump_epoch()
                continue
            if next_cycle.__class__ is not Cycle:
                processor._check_cycle(next_cycle)
            processor._pending = next_cycle

    def _quiet_tick_kernel(self, running: List[Processor]) -> None:
        """One adversary-free tick through the compiled-kernel lane.

        The compiled analogue of :meth:`_quiet_tick_fused`: one sweep
        over the running list calls each stepper's ``quiet_step``, which
        reads the raw cells, stages flat ``address, value`` pairs, and
        advances its own state — no generator resume, no ``Cycle`` or
        ``Write`` allocation, no pending views.  Kernels are trusted to
        respect the cycle read/write budgets (the soundness contract in
        :mod:`repro.pram.compiled`); addresses are still bounds-checked
        during staging, and same-tick write collisions or exotic
        addresses fall back to the reference-exact resolution for the
        whole tick.
        """
        memory = self.memory
        cells = self._cells
        size = len(cells)
        procs = self._window_procs_scratch
        raw = self._kernel_raw_scratch
        ends = self._kernel_ends_scratch
        staged = self._window_staged
        procs.clear()
        raw.clear()
        ends.clear()
        staged.clear()
        reads_charged = 0
        for processor in running:
            stepper = processor._stepper
            try:
                reads_charged += stepper.quiet_step(cells, raw)
            except CycleFallback:
                self._quiet_step_validated(processor, raw)
            processor.cycles_completed += 1
            procs.append(processor)
            ends.append(len(raw))
            if not stepper.live:
                # Voluntary halt: the compiled analogue of the generator
                # raising StopIteration in complete_cycle.
                processor.status = ProcessorStatus.HALTED
                processor._bump_epoch()
        memory.charge_reads(reads_charged)
        clean = True
        for i in range(0, len(raw), 2):
            address = raw[i]
            if (
                address.__class__ is int
                and 0 <= address < size
                and address not in staged
            ):
                staged[address] = raw[i + 1]
            else:
                clean = False
                break
        if clean:
            memory.commit_resolved(staged.items())
        else:
            self._resolve_and_apply_raw(procs, ends, raw)

    def _quiet_step_validated(
        self, processor: Processor, raw: List[int]
    ) -> None:
        """Run a cycle the kernel declined on the fused lane (a task cycle).

        The pending cycle takes the validated route (every read and
        write checked, reads charged as they are served), its writes
        join ``raw`` in cycle order, and the stepper advances with the
        values read.
        """
        entry = self._collect_one_validated(
            processor, processor.materialize_pending(), None
        )
        self._validated_labels.add(entry[4])
        for write in entry[3]:
            raw.append(write.address)
            raw.append(write.value)
        processor._pending = None
        processor._stepper.advance(entry[2])

    def _run_quiet_window(
        self, stop_tick: int, until: Optional[UntilPredicate]
    ) -> str:
        """Run ticks up to ``stop_tick`` without consulting the adversary.

        Only called inside a window the adversary promised quiet (or
        with a passive adversary), so every collected cycle completes:
        the per-tick adversary view, failure phases, and status checks
        collapse, and per-PID ledger charges batch into one flush per
        status generation.  The status epoch is still checked every tick
        (halting is a processor-driven transition), and the ``until``
        goal is still evaluated exactly once per tick, so termination
        and the ledger stay bit-identical to the reference path.

        Returns :data:`_WINDOW_GOAL` when ``until`` fired,
        :data:`_WINDOW_IDLE` when there is nothing to run (no running
        processors — zero ticks consumed, the caller's ``step()``
        handles empty ticks and halting), and :data:`_WINDOW_RAN`
        otherwise (``stop_tick`` reached, or the running set drained
        mid-window).
        """
        fused = self._fusable()
        if self._vector is not None and fused:
            # The vectorized lane batches the whole window, so it needs
            # the goal in machine-readable form (the ``zero_goal``
            # marker of ``done_predicate``) to find the exact tick the
            # predicate flips.  Unmarked predicates fall through to the
            # per-tick loop below.
            goal = None if until is None else getattr(until, "zero_goal", None)
            if until is None or goal is not None:
                if not self._vector_auto or self._prefer_vectorized(
                    stop_tick
                ):
                    return self._run_quiet_window_vectorized(
                        stop_tick, until, goal
                    )
        if self._resident is not None:
            # Scalar window chosen (dispatch, unmarked predicate, or
            # ineligible policy): the fused scalar loop reads and
            # writes memory directly, so the mirror must stand down.
            self._resident.flush()
        self._refresh_status_caches()
        running = self._running_cache
        if not running:
            return _WINDOW_IDLE
        ledger = self.ledger
        reader = self._reader
        epoch_cell = self._status_epoch
        pairs = self._pairs_scratch
        interrupts = self._consecutive_interrupts
        if interrupts:
            # Every running processor completes a cycle each quiet tick,
            # which in the reference path zeroes its consecutive-
            # interrupt count; failed processors keep theirs.
            for processor in running:
                interrupts.pop(processor.pid, None)
        phases = self.phase_counters
        # Phase counters do not disable fusion: fused ticks are counted
        # in phases.fused_ticks (flushed per batch below) instead of
        # being timed per-phase — the fused sweep has no phase
        # boundaries to time without destroying what it measures.
        quiet_tick = (
            self._quiet_tick_kernel if self._kernel_mode else self._quiet_tick_fused
        )
        batch_ticks = 0
        outcome = _WINDOW_RAN
        while True:
            if fused:
                ledger.ticks += 1
                quiet_tick(running)
                batch_ticks += 1
            else:
                mark = perf_counter() if phases is not None else 0.0
                ledger.ticks += 1
                collected = self._collect_fast(running)
                if phases is not None:
                    now = perf_counter()
                    phases.collect_s += now - mark
                    mark = now
                pairs.clear()
                for entry in collected:
                    pairs.append((entry[0].pid, entry[3]))
                self._resolve_and_apply_fast(pairs)
                if phases is not None:
                    now = perf_counter()
                    phases.resolve_s += now - mark
                    mark = now
                for entry in collected:
                    entry[0].complete_cycle(entry[2])
                batch_ticks += 1
                if phases is not None:
                    phases.settle_s += perf_counter() - mark
                    phases.ticks += 1
            if epoch_cell[0] != self._cache_epoch:
                # A processor halted this tick: flush the batch against
                # the status generation that actually ran it (halting
                # pids completed this tick too), then recompute.
                self._flush_quiet_batch(running, batch_ticks)
                if fused and phases is not None:
                    phases.fused_ticks += batch_ticks
                batch_ticks = 0
                self._refresh_status_caches()
                running = self._running_cache
            if until is not None and until(reader):
                outcome = _WINDOW_GOAL
                break
            if not running:
                break
            if ledger.ticks >= stop_tick:
                break
        self._flush_quiet_batch(running, batch_ticks)
        if fused and phases is not None:
            phases.fused_ticks += batch_ticks
        self._sync_traffic()
        return outcome

    def _run_quiet_window_vectorized(
        self,
        stop_tick: int,
        until: Optional[UntilPredicate],
        goal: Optional[Tuple[int, int]],
    ) -> str:
        """Run a fused quiet window as batched vector-lane bursts.

        The vectorized analogue of the fused loop in
        :meth:`_run_quiet_window`: the vector program advances every
        running lane as array operations, in bursts that stop exactly on
        the first tick a lane halts or the ``goal`` region empties, so
        ticks, per-PID charges, statuses, and the goal tick are
        bit-identical to the per-processor loop.

        The window is *resident*: it outlives this call, so the next
        quiet window reuses the memory mirror and any still-packed
        lanes at zero boundary cost.  Traffic is charged at every
        window boundary (so the ledger is exact whenever control
        leaves), but cells and kernel state are written back lazily —
        by the ``flush()`` the machine issues before any outside
        observation, or here on error so policy failures leave
        reference-equal state.
        """
        self._refresh_status_caches()
        running = self._running_cache
        if not running:
            return _WINDOW_IDLE
        ledger = self.ledger
        interrupts = self._consecutive_interrupts
        if interrupts:
            # Same rule as the per-tick window: every running processor
            # completes a cycle each quiet tick, zeroing its
            # consecutive-interrupt count; failed processors keep theirs.
            for processor in running:
                interrupts.pop(processor.pid, None)
        phases = self.phase_counters
        vector = self._vector
        window = self._resident
        if window is None:
            window = vector.begin_window(self.memory, self.policy, goal)
            self._resident = window
        else:
            window.resume(goal)
        outcome = _WINDOW_RAN
        try:
            while True:
                budget = stop_tick - ledger.ticks
                if budget <= 0:
                    break
                if until is not None and window.goal_reached:
                    # Goal already true at the burst boundary: the
                    # per-tick loop would still run exactly one more
                    # tick before observing it.
                    budget = 1
                pids = [processor.pid for processor in running]
                burst = vector.run_quiet(window, pids, budget)
                ticks = burst.ticks
                ledger.ticks += ticks
                self._flush_quiet_batch(running, ticks)
                if phases is not None:
                    phases.fused_ticks += ticks
                for processor in running:
                    processor.cycles_completed += ticks
                if burst.halted:
                    by_pid = {processor.pid: processor for processor in running}
                    for pid in burst.halted:
                        halting = by_pid[pid]
                        halting.status = ProcessorStatus.HALTED
                        halting._bump_epoch()
                    self._refresh_status_caches()
                    running = self._running_cache
                if until is not None and window.goal_reached:
                    outcome = _WINDOW_GOAL
                    break
                if not running:
                    break
        except BaseException:
            # A policy error mid-burst: charge what ran and write back
            # so the caller sees the same partially-applied state the
            # reference path would leave (matching PR 7's finish()-in-
            # finally; _sync_traffic is skipped on error there too).
            window.charge_traffic()
            window.flush()
            raise
        window.charge_traffic()
        self._sync_traffic()
        return outcome

    def _prefer_vectorized(self, stop_tick: int) -> bool:
        """Adaptive dispatch: is the vector lane worth it for this window?

        Consults the calibrated cost model (:mod:`repro.pram.dispatch`)
        with the window's tick budget, the running-lane count, the
        vector program's kind, and whether the resident window's packed
        state is still warm.  Either answer is bit-identical; this only
        picks the faster lane.
        """
        model = self._dispatch
        if model is None:
            from repro.pram.dispatch import get_model

            model = self._dispatch = get_model()
        self._refresh_status_caches()
        window = self._resident
        return model.prefer_vector(
            kind=getattr(self._vector, "kind", "generic"),
            ticks=max(1, stop_tick - self.ledger.ticks),
            p=len(self._running_cache),
            cells=len(self._cells),
            mirror=window is not None,
            packed=window is not None and not window.suspended,
        )

    # ------------------------------------------------------------------ #
    # whole runs
    # ------------------------------------------------------------------ #

    def run(
        self,
        until: Optional[UntilPredicate] = None,
        max_ticks: int = 1_000_000,
        raise_on_limit: bool = True,
        stall_limit: int = 1024,
    ) -> RunLedger:
        """Tick until ``until`` holds, all processors halt, or limits hit.

        ``until`` is evaluated exactly once before the first tick and
        once after every tick (Write-All's predicate is O(1) thanks to
        the memory layer's zero-region tracker, but arbitrary predicates
        may be expensive — they are never called twice per tick, not
        even at the ``max_ticks`` boundary).

        ``stall_limit`` bounds consecutive ticks in which no update cycle
        was even attempted (all processors failed, adversary silent) —
        only reachable with ``enforce_progress=False``.

        With ``fast_path`` and ``fast_forward`` both set (the default),
        ticks inside an adversary-promised quiescent window (see
        ``Adversary.quiet_until``) run through a batched inner loop that
        skips the per-tick adversary machinery entirely; everything
        observable — the ledger, the realized pattern, traces, memory —
        is identical to per-tick execution, which is a differential-test
        surface (``tests/pram/test_fast_path_differential.py``).
        """
        ledger = self.ledger
        reader = self._reader
        if self._resident is not None:
            # A resident window from an earlier run() on this machine:
            # the entry `until` check (and anything else this run
            # observes before the first vectorized window) must see
            # authoritative memory.
            self._resident.flush()
        if until is not None and until(reader):
            ledger.goal_reached = True
            self._sync_traffic()
            return ledger
        fast_forward = (
            self.fast_path and self.fast_forward and bool(self._processors)
        )
        stalled_ticks = 0
        while True:
            if fast_forward:
                stop_tick = min(self._event_horizon() - 1, max_ticks)
                if stop_tick > ledger.ticks:
                    outcome = self._run_quiet_window(stop_tick, until)
                    if outcome == _WINDOW_GOAL:
                        ledger.goal_reached = True
                        break
                    if outcome == _WINDOW_RAN:
                        # Every window tick completed cycles, so the
                        # stall counter resets; `until` was already
                        # checked once after each tick.
                        stalled_ticks = 0
                        if ledger.ticks >= max_ticks:
                            ledger.tick_limited = True
                            if raise_on_limit:
                                if self._resident is not None:
                                    self._resident.flush()
                                raise TickLimitError(
                                    f"run exceeded max_ticks={max_ticks} "
                                    f"(S={ledger.completed_work})"
                                )
                            break
                        continue
                    # _WINDOW_IDLE: nothing is running — fall through to
                    # step(), which owns empty ticks, forced restarts,
                    # and halt detection.
            live = self.step()
            if not live:
                ledger.halted = True
                break
            if ledger.completed_per_tick and ledger.completed_per_tick[-1] == 0 and not any(
                proc.is_running for proc in self._processors
            ):
                stalled_ticks += 1
                if stalled_ticks >= stall_limit:
                    ledger.stalled = True
                    break
            else:
                stalled_ticks = 0
            if until is not None and until(reader):
                ledger.goal_reached = True
                break
            if ledger.ticks >= max_ticks:
                ledger.tick_limited = True
                if raise_on_limit:
                    raise TickLimitError(
                        f"run exceeded max_ticks={max_ticks} "
                        f"(S={ledger.completed_work})"
                    )
                break
        if self._resident is not None:
            # Run over: callers inspect memory (σ, snapshots, asserts)
            # the moment this returns.
            self._resident.flush()
        self._sync_traffic()
        return ledger
