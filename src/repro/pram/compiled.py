"""Compiled program kernels: cycle streams without generator dispatch.

A processor *program* is normally a Python generator yielding
:class:`~repro.pram.cycles.Cycle` objects.  That representation is the
executable specification — every cycle is a fresh dataclass, every tick
resumes one generator frame per running processor.  After the fast path
(allocation-lean ticks) and event horizons (batched quiescent windows),
that generator dispatch is the last big constant factor on the inner
loop of large sweeps.

A :class:`CompiledProgram` is the compiled form of the same program: a
per-PID stepper object with *explicit* state that

* is rebuilt from the PID alone on every (re)start — matching the
  paper's fail-stop semantics, where a restarted processor comes back
  "at its initial state with its PID as its only knowledge";
* can emit read addresses and staged writes directly into the machine's
  scratch buffers (:meth:`CompiledProgram.quiet_step`), with no
  generator resume and no ``Cycle``/``Write`` allocation;
* can *stage* an adversary-visible tick purely
  (:meth:`CompiledProgram.stage`): the label, read values, read charge
  and writes the pending cycle would produce, read straight from the
  raw cells without building a ``Cycle`` and without advancing;
* can still materialize a bona-fide :class:`Cycle` for any tick
  something needs to inspect as a cycle
  (:meth:`CompiledProgram.current_cycle`) — the validation gate, the
  reference core, a pending view's ``cycle`` — so traces, pending
  views, and the realized failure pattern are identical to the
  generator path.

**Soundness contract for kernel authors.**  A kernel must be
*observationally identical* to the generator program it compiles:

* ``current_cycle()`` must return a cycle with the same label, the same
  read specs (same addresses, in the same order, with the same
  ``None``-skip shape), and writes that materialize to the same
  ``(address, value)`` sequence the generator's cycle would produce for
  any read-value tuple;
* ``stage(cells)`` must be *pure* and return exactly what
  ``current_cycle()`` materializes against ``cells``: the same label,
  the full read-value tuple (a skipped ``None`` read is a 0 slot), the
  number of charged (non-``None``) reads, and the same writes in cycle
  order.  Purity is what makes observed ticks safe: a stalled processor
  is re-staged, with fresh reads, on its next tick; a failed one is
  rebuilt by ``reset()``; in neither case may staging have moved the
  state;
* ``quiet_step()`` must charge exactly as many reads as the generator
  cycle performs (``None`` read specs charge nothing), append only
  in-range integer ``(address, value)`` pairs in the cycle's write
  order, and advance the state exactly as ``advance()`` would with the
  values it just read;
* state transitions may depend only on the PID, the layout constants
  captured at construction, and the values read — never on wall-clock,
  randomness that is not PID-derived, or machine internals;
* ``reset()`` must restore the exact initial state (a restarted
  processor must be indistinguishable from a freshly spawned one).

**Task cycles.**  With a non-trivial task set (Section 4.3's simulated
PRAM steps) a kernel also hands out the task set's own cycles, which
are user code.  They keep every check the generator path gives them:

* the kernel fetches them with ``TaskSet.task_cycles(element, pid)``
  where the generator does (inside ``advance``), so a factory error
  surfaces on the same tick, and ``reset()`` drops them, as a failure
  drops the generator's locals;
* ``stage`` reads them with :func:`stage_cycle`, which reads only
  in-range ``int`` addresses raw and materializes writes through
  :meth:`~repro.pram.cycles.Cycle.materialize_writes`;
* for anything it cannot serve raw (a read address that is not an
  in-range ``int``, a non-tuple read spec), and for every user task
  cycle on the fused quiet lane, the kernel raises
  :class:`CycleFallback` before changing any state.  The machine then
  collects that processor's ``current_cycle()`` through its validated
  reader, which raises the generator path's error on the same tick,
  and completes it with ``advance``.

The differential suite runs every algorithm × adversary combination
with kernels on, off, and against the reference core and asserts
ledger, trace, and memory equality — that suite is the contract's
enforcement.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.pram.cycles import Cycle, Write

#: A compiled-program factory: called with the PID, returns the per-PID
#: stepper.  The machine calls ``reset()`` before first use.
CompiledFactory = Callable[[int], "CompiledProgram"]

#: What :meth:`CompiledProgram.stage` returns for one observed tick:
#: ``(label, read values, charged reads, writes)``.
Staged = Tuple[str, Tuple[int, ...], int, Tuple[Write, ...]]


class CycleFallback(Exception):
    """Raised by ``stage``/``quiet_step`` to decline the pending cycle.

    The stepper's state is untouched; the machine collects the pending
    cycle (``current_cycle()``) through its validated route instead and
    completes it with ``advance``.  Kernels raise it for user task
    cycles they cannot (or, on the fused lane, do not) read raw.
    """


def stage_cycle(cycle: Cycle, cells: Sequence[int]) -> Staged:
    """Stage a materialized ``cycle`` against the raw ``cells``, purely.

    Returns ``(label, values, charged, writes)`` like
    :meth:`CompiledProgram.stage`.  Only in-range ``int`` addresses are
    read raw; any other read (an out-of-range or non-``int`` address, a
    snapshot or malformed read spec) raises :class:`CycleFallback`, so
    the machine's validated reader decides it exactly as on the
    generator path.
    """
    reads = cycle.reads
    if reads.__class__ is not tuple:
        raise CycleFallback
    size = len(cells)
    value_list: List[int] = []
    charged = 0
    for spec in reads:
        if spec.__class__ is int:
            address = spec
        elif spec is None:
            value_list.append(0)
            continue
        elif callable(spec):
            address = spec(tuple(value_list))
            if address is None:
                value_list.append(0)
                continue
        else:
            raise CycleFallback
        if address.__class__ is int and 0 <= address < size:
            value_list.append(cells[address])
            charged += 1
        else:
            raise CycleFallback
    values = tuple(value_list)
    return cycle.label, values, charged, cycle.materialize_writes(values)


class CompiledProgram:
    """Base class / protocol for compiled per-PID program steppers.

    Subclasses hold the program state explicitly (plain attributes), so
    the machine can advance them without resuming a generator frame.
    The machine drives a stepper through exactly one of two lanes per
    tick:

    * the **fused quiet lane** calls :meth:`quiet_step` once per tick —
      read, compute, stage writes, advance, all in one call;
    * the **observed lane** (adversary ticks, tracing) calls
      :meth:`stage` to learn what the pending cycle reads and writes,
      and after the machine resolves the tick, :meth:`advance` with
      the values that were read.  :meth:`current_cycle` materializes
      the pending cycle for whatever needs a real ``Cycle`` (the
      one-time validation gate, the reference core).

    ``live`` is ``True`` from a successful :meth:`reset` until the
    program halts voluntarily (``advance``/``quiet_step`` observed the
    halt condition).  A failed processor's stepper keeps whatever state
    it had — the state is conceptually lost, and :meth:`reset` rebuilds
    it from the PID on restart.
    """

    __slots__ = ("live",)

    def reset(self) -> bool:
        """(Re)build the initial state from the PID alone.

        Returns ``False`` when the program halts immediately (the
        generator analogue: the first ``next()`` raises
        ``StopIteration``), ``True`` otherwise.  Must set ``live``
        accordingly.
        """
        raise NotImplementedError

    def current_cycle(self) -> Cycle:
        """Materialize the pending cycle for adversary-visible ticks.

        Pure: must not mutate the stepper state.  The returned cycle
        must be observationally identical to the one the generator
        program would currently have pending.
        """
        raise NotImplementedError

    def stage(self, cells: Sequence[int]) -> Staged:
        """Stage the pending cycle of an observed tick, without advancing.

        Returns ``(label, values, charged, writes)``: the cycle's label,
        its read values against the raw ``cells`` (a skipped ``None``
        read is a 0 slot), the number of reads to charge, and its writes
        in cycle order.  Pure, like :meth:`current_cycle`.  This default
        stages :meth:`current_cycle` with :func:`stage_cycle`, so
        kernels written before the staging step keep working; shipped
        kernels override it to skip the ``Cycle``.  May raise
        :class:`CycleFallback` (see the module docstring).
        """
        return stage_cycle(self.current_cycle(), cells)

    def advance(self, values: Tuple[int, ...]) -> bool:
        """Complete the pending cycle with the values that were read.

        Returns ``False`` when the program halts voluntarily (the
        generator analogue: ``send()`` raises ``StopIteration``), and
        must keep ``live`` in sync.
        """
        raise NotImplementedError

    def quiet_step(self, cells: Sequence[int], out: List[int]) -> int:
        """One fused read→compute→stage→advance step (quiet ticks only).

        ``cells`` is the raw memory cell array (read-only by contract);
        staged writes are appended to ``out`` as flat
        ``address, value`` pairs in cycle write order.  Returns the
        number of reads to charge.  Must update ``live`` exactly as
        :meth:`advance` would.  May raise :class:`CycleFallback`, before
        touching ``out`` or the state, to hand the cycle to the machine.
        """
        raise NotImplementedError


def trusted_compiled_program(algorithm: object):
    """The algorithm's ``compiled_program`` hook, or None if untrusted.

    A compiled kernel is a promise about what ``program()`` does, so —
    exactly like the adversary's ``passive`` flag and ``quiet_until``
    horizon — it is only trusted when declared by the class that
    defines the instance's *effective* ``program()`` (or a subclass of
    it).  A subclass that overrides ``program()`` while inheriting its
    parent's kernel would silently run the wrong compiled code; it
    falls back to the always-sound generator path instead.
    """
    hook = getattr(algorithm, "compiled_program", None)
    if hook is None:
        return None
    instance_vars = getattr(algorithm, "__dict__", {})
    if "compiled_program" in instance_vars:
        return hook
    if "program" in instance_vars:
        return None
    for klass in type(algorithm).__mro__:
        if "compiled_program" in vars(klass):
            return hook
        if "program" in vars(klass):
            return None
    return None


def resolve_kernel(
    algorithm: object, layout: object, tasks: object, compiled: bool = True
) -> Optional[CompiledFactory]:
    """The kernel factory to install for a run, or None for generators.

    Combines the opt-out switch (``compiled=False`` — the
    ``--no-compiled`` escape hatch), the MRO trust guard, and the
    algorithm's own gating (``compiled_program`` returns None for
    configurations it has no kernel for).  W, X, V and V+X compile
    non-trivial task sets too, carrying the task cycles under the
    module's soundness contract; the trivial algorithm, ACC and the
    snapshot algorithm still gate them to the generator path.
    """
    if not compiled:
        return None
    hook = trusted_compiled_program(algorithm)
    if hook is None:
        return None
    return hook(layout, tasks)
