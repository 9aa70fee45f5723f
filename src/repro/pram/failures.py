"""Failure events, failure patterns, and per-tick adversary decisions.

Definition 2.1 of the paper: a *failure pattern* ``F`` is a set of triples
``<tag, PID, t>`` where ``tag`` is ``failure`` or ``restart``, ``PID`` is
the processor identifier and ``t`` the time.  The *size* of the pattern is
its cardinality ``|F|``; the overhead ratio amortizes completed work over
``|I| + |F|``.

These types are owned by the substrate (the machine both consumes
decisions and records the realized pattern); the :mod:`repro.faults`
package builds concrete adversaries on top of them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Sequence, Tuple


class FailureTag(Enum):
    """Tag of a failure-pattern event (Definition 2.1)."""

    FAILURE = "failure"
    RESTART = "restart"


@dataclass(frozen=True)
class FailureEvent:
    """One ``<tag, PID, t>`` triple of a failure pattern."""

    # Adversarial runs record tens of thousands of events; slots keep
    # each one ~40 bytes smaller than an instance dict would.
    __slots__ = ("tag", "pid", "time")

    tag: FailureTag
    pid: int
    time: int

    def __reduce__(self):
        # Frozen slots cannot be restored by pickle's setattr protocol.
        return (FailureEvent, (self.tag, self.pid, self.time))

    def is_failure(self) -> bool:
        return self.tag is FailureTag.FAILURE

    def is_restart(self) -> bool:
        return self.tag is FailureTag.RESTART


class FailurePattern:
    """An ordered record of failure/restart events.

    The machine appends events as the run unfolds; afterwards the pattern
    is the realized ``F`` whose size ``|F|`` enters the overhead ratio.

    Lower-bound adversaries record hundreds of thousands of events per
    run, so the pattern is stored as three parallel arrays (tag codes,
    PIDs, times) rather than one object per event: an event costs three
    appends and no heap object.  :class:`FailureEvent` triples are built
    only when the pattern is iterated or queried.
    """

    __slots__ = ("_tags", "_pids", "_times")

    def __init__(self, events: Iterable[FailureEvent] = ()) -> None:
        self._tags = bytearray()
        self._pids = array("q")
        self._times = array("q")
        for event in events:
            self.record(event.tag, event.pid, event.time)

    def __reduce__(self):
        return (_restore_pattern, (
            bytes(self._tags), self._pids.tobytes(), self._times.tobytes()
        ))

    def record(self, tag: FailureTag, pid: int, time: int) -> None:
        self._tags.append(_TAG_CODES[tag])
        self._pids.append(pid)
        self._times.append(time)

    def record_many(self, tag: FailureTag, pids: Sequence[int], time: int) -> None:
        """Record ``<tag, pid, time>`` for every PID of ``pids``, in order."""
        count = len(pids)
        if count:
            self._tags += _TAG_BYTES[tag] * count
            self._pids.extend(pids)
            self._times.extend(repeat(time, count))

    def __len__(self) -> int:
        return len(self._tags)

    def __iter__(self) -> Iterator[FailureEvent]:
        return map(FailureEvent, map(_TAGS.__getitem__, self._tags),
                   self._pids, self._times)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FailurePattern(|F|={len(self._tags)})"

    @property
    def size(self) -> int:
        """``|F|`` — the cardinality used by the overhead ratio."""
        return len(self._tags)

    @property
    def failure_count(self) -> int:
        return len(self._tags) - self.restart_count

    @property
    def restart_count(self) -> int:
        return self._tags.count(_TAG_CODES[FailureTag.RESTART])

    def events_at(self, time: int) -> Tuple[FailureEvent, ...]:
        return tuple(event for event in self if event.time == time)

    def events_for(self, pid: int) -> Tuple[FailureEvent, ...]:
        return tuple(event for event in self if event.pid == pid)


#: Tag codes of the compact pattern: ``_TAGS[code]`` is the tag.
_TAGS: Tuple[FailureTag, ...] = (FailureTag.FAILURE, FailureTag.RESTART)
_TAG_CODES: Dict[FailureTag, int] = {tag: code for code, tag in enumerate(_TAGS)}
_TAG_BYTES: Dict[FailureTag, bytes] = {
    tag: bytes((code,)) for tag, code in _TAG_CODES.items()
}


def _restore_pattern(tags: bytes, pids: bytes, times: bytes) -> FailurePattern:
    """Unpickle (or copy) a pattern into fresh arrays of its own."""
    pattern = FailurePattern()
    pattern._tags += tags
    pattern._pids.frombytes(pids)
    pattern._times.frombytes(times)
    return pattern


#: Sentinel for :class:`Decision` failure values: the processor completes
#: every write of its current update cycle (the cycle counts as completed
#: work) and *then* fails, i.e. the failure lands between cycles.
AFTER_ALL_WRITES = -1

#: A failure landing before any write of the cycle is applied.  The cycle
#: is charged to ``S'`` but not to the completed work ``S``.
BEFORE_WRITES = 0


@dataclass(frozen=True)
class Decision:
    """An adversary's verdict for one machine tick.

    ``failures`` maps a running processor's PID to the number of atomic
    writes of its current cycle that land before the processor stops
    (``BEFORE_WRITES`` = none, ``AFTER_ALL_WRITES`` = all of them, any
    ``0 <= k <= len(writes)`` for a prefix — bit/word writes are atomic so
    a failure can only fall between writes, never inside one).

    ``restarts`` lists failed processors revived at this tick; a restarted
    processor re-enters its program from the initial state (knowing only
    its PID) and executes its first update cycle on the *next* tick.

    ``stalls`` lists running processors whose pending cycle is *deferred*
    this tick (the heterogeneous-speed model of Zavou & Fernández Anta: a
    class-k processor advances only every k-th tick).  A stalled cycle is
    not executed, not charged, and not a failure — the processor keeps
    its private state and re-attempts the same cycle with fresh reads on
    the next tick the adversary lets it run.  Stalls never enter the
    failure pattern ``F``.  A PID may not be both stalled and failed.
    """

    failures: Mapping[int, int] = field(default_factory=dict)
    restarts: FrozenSet[int] = frozenset()
    stalls: FrozenSet[int] = frozenset()

    @staticmethod
    def none() -> "Decision":
        """The adversary does nothing this tick."""
        return Decision()

    @staticmethod
    def fail(pids: Iterable[int], writes_applied: int = BEFORE_WRITES) -> "Decision":
        """Fail every PID in ``pids`` at the same point of its cycle."""
        return Decision(failures={pid: writes_applied for pid in pids})

    @staticmethod
    def restart(pids: Iterable[int]) -> "Decision":
        """Restart every PID in ``pids``."""
        return Decision(restarts=frozenset(pids))

    @staticmethod
    def stall(pids: Iterable[int]) -> "Decision":
        """Defer the pending cycles of ``pids`` to a later tick."""
        return Decision(stalls=frozenset(pids))

    def merged_with(self, other: "Decision") -> "Decision":
        """Combine two decisions (later failure verdicts win on overlap)."""
        failures: Dict[int, int] = dict(self.failures)
        failures.update(other.failures)
        return Decision(
            failures=failures,
            restarts=frozenset(self.restarts) | frozenset(other.restarts),
            stalls=(frozenset(self.stalls) | frozenset(other.stalls))
            - set(failures),
        )
