"""The omniscient on-line adversary's view of a machine tick.

"A failure pattern F is determined by an on-line adversary, that knows
everything about the algorithm and is unknown to the algorithm"
(Section 2.1).  The view hands the adversary, per tick:

* the clock, every processor's status, and the run ledger so far;
* read-only shared memory;
* each running processor's *pending* update cycle — including the write
  set its compute step will produce — so the adversary can fail processors
  based on what they are about to do (this is exactly the power the
  pigeonhole-halving and stalking adversaries of the paper require);
* harness-provided context (e.g. the algorithm's memory layout) so
  adversaries can locate the Write-All array, progress tree, etc.

Views are rebuilt every tick on the machine's hot path, so they are
deliberately allocation-lean: :class:`PendingCycleView` is a slotted
record whose ``cycle`` is materialized only when something reads it
(compiled kernels stage the label, reads and writes without building a
``Cycle``).  It is not a tuple (it was a NamedTuple before kernels
staged observed ticks): read its fields by name, since it does not
unpack, index, or compare by value.  ``statuses`` may be a read-only
proxy over the machine's cached status table rather than a fresh
dict — adversaries must treat every view field as frozen.

Status tuples (``running_pids``, ``failed_pids``, ``halted_pids``) are
PID-sorted.  The machine's fast tick builds them once per status epoch
(the counter every status transition bumps), in the same pass that
builds its status table, and hands them to the view through
``status_pids``; a tick whose statuses did not change reuses them.
Lower-bound adversaries read ``failed_pids`` every tick, so this
replaces a sort of all P statuses per ``decide`` with a field read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from repro.pram.cycles import Cycle, Write
from repro.pram.errors import ProgramError
from repro.pram.ledger import RunLedger
from repro.pram.memory import MemoryReader
from repro.pram.processor import Processor, ProcessorStatus


class PendingCycleView:
    """What one running processor is about to do this tick.

    ``source`` is the processor the view describes (machine-internal:
    the fast tick settles through it).  ``cycle`` may be ``None`` at
    construction when the processor's compiled kernel staged ``label``,
    ``read_values`` and ``writes``: the ``Cycle`` is then materialized
    on first access, from the same (unadvanced) kernel state.  Such a
    view read after its processor moved on (completed the cycle, or
    failed and restarted) raises :class:`ProgramError` rather than
    describe a later cycle.
    """

    __slots__ = ("pid", "read_values", "writes", "label", "_cycle",
                 "_source", "_mark")

    def __init__(
        self,
        pid: int,
        cycle: Optional[Cycle],
        read_values: Tuple[int, ...],
        writes: Tuple[Write, ...],
        label: Optional[str] = None,
        source: Optional[Processor] = None,
    ) -> None:
        self.pid = pid
        self.read_values = read_values
        self.writes = writes
        self.label = cycle.label if label is None else label
        self._cycle = cycle
        self._source = source
        if cycle is None:
            # Completions and restarts both bump this sum; a stall
            # leaves it (and the pending cycle) unchanged.
            self._mark = source.cycles_completed + source.restart_count

    @property
    def cycle(self) -> Cycle:
        cycle = self._cycle
        if cycle is None:
            source = self._source
            if source.cycles_completed + source.restart_count != self._mark:
                raise ProgramError(
                    f"pid {self.pid}: stale pending view (its cycle "
                    "already ran)"
                )
            cycle = self._cycle = source.materialize_pending()
        return cycle

    def __repr__(self) -> str:
        return (
            f"PendingCycleView(pid={self.pid}, label={self.label!r}, "
            f"read_values={self.read_values!r}, writes={self.writes!r})"
        )

    def writes_to(self, address: int) -> bool:
        return any(write.address == address for write in self.writes)


@dataclass(frozen=True)
class TickView:
    """Everything the adversary may inspect before ruling on a tick.

    ``status_pids`` optionally carries the machine's per-epoch cached
    ``(running, failed, halted)`` PID tuples; the ``*_pids`` properties
    return those tuples as they are.  A view built without them (the
    reference core, tests) recomputes each tuple from ``statuses``.
    """

    time: int
    memory: MemoryReader
    statuses: Mapping[int, ProcessorStatus]
    pending: Mapping[int, PendingCycleView]
    ledger: RunLedger
    context: Mapping[str, object]
    status_pids: Optional[Tuple[Tuple[int, ...], ...]] = field(
        default=None, repr=False, compare=False
    )

    def _pids_with(self, status: ProcessorStatus) -> Tuple[int, ...]:
        return tuple(
            pid
            for pid, current in sorted(self.statuses.items())
            if current is status
        )

    @property
    def running_pids(self) -> Tuple[int, ...]:
        cached = self.status_pids
        if cached is not None:
            return cached[0]
        return self._pids_with(ProcessorStatus.RUNNING)

    @property
    def failed_pids(self) -> Tuple[int, ...]:
        cached = self.status_pids
        if cached is not None:
            return cached[1]
        return self._pids_with(ProcessorStatus.FAILED)

    @property
    def halted_pids(self) -> Tuple[int, ...]:
        cached = self.status_pids
        if cached is not None:
            return cached[2]
        return self._pids_with(ProcessorStatus.HALTED)

    def writers_of(self, address: int) -> Tuple[int, ...]:
        """PIDs whose pending cycle writes to ``address`` this tick."""
        return tuple(
            pid
            for pid, pending in sorted(self.pending.items())
            if pending.writes_to(address)
        )
