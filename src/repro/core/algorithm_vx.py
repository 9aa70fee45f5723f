"""Algorithm V+X — the interleaved combination of Theorem 4.9.

    "We first observe that the executions of algorithms V and X can be
    interleaved to yield an algorithm that achieves the following
    performance: ... S = O(min{N + P log^2 N + M log N, N * P^0.6}),
    overhead ratio sigma = O(log^2 N)."

Each processor alternates update cycles of X and V, each algorithm on
its own data structures but over the *shared* Write-All array ``x``
(both only ever write 1 into it, so COMMON CRCW is respected).  X
guarantees termination with sub-quadratic work under any failure
pattern; V contributes the ``N + P log^2 N + M log N`` bound when the
pattern is small — the interleaving pays at most a factor of two over
whichever finishes first.

Safety of the interleaving: all progress-tree operations of both
algorithms are monotone and idempotent, and V's step-counter cohorts can
only de-phase by whole ticks (never writing conflicting values in the
same tick), so the COMMON write discipline holds throughout — the
property tests hammer exactly this.  Some restart schedules still break
it: two seeded schedules in the differential suite drive two V cohorts
one step apart onto V's step cell in the same tick, and the machine
aborts with a COMMON conflict (on every lane alike).

:class:`InterleavedKernel` is the compiled form of :func:`_interleave`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Sequence, Tuple

from repro.core.algorithm_v import AlgorithmV, VLayout
from repro.core.algorithm_x import AlgorithmX, XLayout
from repro.core.base import BaseLayout, WriteAllAlgorithm, default_tasks
from repro.core.iterative import phased_program
from repro.core.tasks import TaskSet
from repro.pram.compiled import CompiledProgram, Staged
from repro.pram.cycles import Cycle


@dataclass(frozen=True)
class VXLayout(BaseLayout):
    """Composite layout: X's structures, then V's, over one ``x`` array."""

    x_layout: XLayout = None  # type: ignore[assignment]
    v_layout: VLayout = None  # type: ignore[assignment]

    # Conveniences for adversaries (the stalker reads w_base like on X).
    @property
    def d_base(self) -> int:
        return self.x_layout.d_base

    @property
    def w_base(self) -> int:
        return self.x_layout.w_base


class AlgorithmVX(WriteAllAlgorithm):
    """Cycle-by-cycle interleaving of algorithms X and V."""

    name = "V+X"

    def __init__(self) -> None:
        self._x = AlgorithmX()
        self._v = AlgorithmV()

    def build_layout(self, n: int, p: int) -> VXLayout:
        x_layout = self._x.build_layout(n, p)
        # Shift V's structures past X's; both share x at base 0.
        v_template = self._v.build_layout(n, p)
        offset = x_layout.size - n  # V's non-x cells start after X's
        v_layout = VLayout(
            n=n, p=p, x_base=0,
            size=v_template.size + offset,
            d_base=v_template.d_base + offset,
            leaves=v_template.leaves,
            chunk=v_template.chunk,
            step_addr=v_template.step_addr + offset,
            done_addr=v_template.done_addr + offset,
        )
        return VXLayout(
            n=n, p=p, x_base=0, size=v_layout.size,
            x_layout=x_layout, v_layout=v_layout,
        )

    def program(
        self, layout: VXLayout, tasks: Optional[TaskSet] = None
    ) -> Callable[[int], Generator[Cycle, tuple, None]]:
        tasks = default_tasks(tasks)
        x_factory = self._x.program(layout.x_layout, tasks)

        def factory(pid: int) -> Generator[Cycle, tuple, None]:
            return _interleave(
                [x_factory(pid), phased_program(pid, layout.v_layout, tasks)]
            )

        return factory

    def compiled_program(
        self, layout: VXLayout, tasks: Optional[TaskSet] = None
    ) -> Optional[Callable[[int], "InterleavedKernel"]]:
        tasks = default_tasks(tasks)
        x_factory = self._x.compiled_program(layout.x_layout, tasks)
        v_factory = self._v.compiled_program(layout.v_layout, tasks)

        def factory(pid: int) -> InterleavedKernel:
            return InterleavedKernel(x_factory(pid), v_factory(pid))

        return factory


def _interleave(
    generators: List[Generator[Cycle, tuple, None]],
) -> Generator[Cycle, tuple, None]:
    """Round-robin the update cycles of several sub-programs.

    A sub-program that returns drops out; the interleaving ends when all
    have returned.  (For V+X, X returns exactly when the whole problem is
    solved, so the machine's termination predicate fires no later.)
    """
    slots: List[List[object]] = []
    for generator in generators:
        try:
            first = next(generator)
        except StopIteration:
            slots.append([generator, None])
        else:
            slots.append([generator, first])
    while any(cycle is not None for _generator, cycle in slots):
        for slot in slots:
            generator, cycle = slot
            if cycle is None:
                continue
            values = yield cycle  # type: ignore[misc]
            try:
                slot[1] = generator.send(values)  # type: ignore[union-attr]
            except StopIteration:
                slot[1] = None


class InterleavedKernel(CompiledProgram):
    """Compiled form of :func:`_interleave` over two compiled programs.

    Round-robins the update cycles of ``first`` and ``second`` exactly
    like the generator: after one sub-program's cycle completes, the
    turn passes to the other if it is still live, stays put if only the
    current one is, and the interleaving halts when both have halted.
    All state lives in the two sub-kernels plus whose turn it is, so
    ``reset()`` rebuilds it from the PID alone.
    """

    __slots__ = ("first", "second", "current", "other")

    def __init__(self, first: CompiledProgram, second: CompiledProgram) -> None:
        self.first = first
        self.second = second
        self.current = first
        self.other = second
        self.live = False

    def reset(self) -> bool:
        first_live = self.first.reset()
        second_live = self.second.reset()
        if first_live or not second_live:
            self.current, self.other = self.first, self.second
        else:
            self.current, self.other = self.second, self.first
        self.live = first_live or second_live
        return self.live

    def _pass_turn(self) -> bool:
        """Pick the next sub-program after the current one's cycle."""
        other = self.other
        if other.live:
            self.other = self.current
            self.current = other
        elif not self.current.live:
            self.live = False
        return self.live

    def current_cycle(self) -> Cycle:
        return self.current.current_cycle()

    def stage(self, cells: Sequence[int]) -> Staged:
        return self.current.stage(cells)

    def advance(self, values: Tuple[int, ...]) -> bool:
        self.current.advance(values)
        return self._pass_turn()

    def quiet_step(self, cells: Sequence[int], out: List[int]) -> int:
        reads = self.current.quiet_step(cells, out)
        self._pass_turn()
        return reads
