"""The trivial (non-fault-tolerant) parallel assignment.

"In the absence of failures, this problem is solved by a trivial and
optimal parallel assignment" (Section 1).  Each processor writes its
N/P-th share of the array.  It is the work-optimal baseline every
fault-tolerant algorithm is compared against — and it simply never
finishes if a processor with unwritten elements stays failed, which the
failure-injection tests demonstrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Sequence, Tuple

from repro.core.base import BaseLayout, WriteAllAlgorithm, default_tasks
from repro.core.tasks import TaskSet
from repro.pram.compiled import CompiledProgram, Staged
from repro.pram.cycles import Cycle, Write
from repro.util.bits import is_power_of_two


@dataclass(frozen=True)
class TrivialLayout(BaseLayout):
    pass


class TrivialAssignment(WriteAllAlgorithm):
    """One pass over a static partition of the array; no recovery."""

    name = "trivial"
    fault_tolerant = False
    terminates_under_restarts = False

    def build_layout(self, n: int, p: int) -> TrivialLayout:
        if not is_power_of_two(n):
            raise ValueError(f"trivial assignment needs power-of-two n, got {n}")
        return TrivialLayout(n=n, p=p, x_base=0, size=n)

    def program(
        self, layout: TrivialLayout, tasks: Optional[TaskSet] = None
    ) -> Callable[[int], Generator[Cycle, tuple, None]]:
        tasks = default_tasks(tasks)
        n = layout.n
        p = layout.p
        x_base = layout.x_base

        def factory(pid: int) -> Generator[Cycle, tuple, None]:
            def run() -> Generator[Cycle, tuple, None]:
                for element in range(pid, n, p):
                    for task_cycle in tasks.task_cycles(element, pid):
                        yield task_cycle
                    yield Cycle(
                        writes=(Write(x_base + element, 1),),
                        label="trivial:write",
                    )

            return run()

        return factory

    def compiled_program(
        self, layout: TrivialLayout, tasks: Optional[TaskSet] = None
    ) -> Optional[Callable[[int], "TrivialKernel"]]:
        tasks = default_tasks(tasks)
        if tasks.cycles_per_task != 0:
            return None  # task cycles need the generator path
        n = layout.n
        p = layout.p
        x_base = layout.x_base

        def factory(pid: int) -> TrivialKernel:
            return TrivialKernel(pid, n, p, x_base)

        return factory

    def vectorized_program(
        self, layout: TrivialLayout, tasks: Optional[TaskSet] = None
    ) -> Optional[object]:
        tasks = default_tasks(tasks)
        if tasks.cycles_per_task != 0:
            return None  # task cycles need the generator path
        from repro.core.vector_kernels import TrivialVector

        return TrivialVector(layout)


class TrivialKernel(CompiledProgram):
    """Compiled form of the trivial assignment's program.

    State is the current element index; the program halts after writing
    its last element (or immediately at spawn when ``pid >= n``, the
    compiled analogue of the generator's empty range).
    """

    __slots__ = ("pid", "n", "p", "x_base", "element")

    def __init__(self, pid: int, n: int, p: int, x_base: int) -> None:
        self.pid = pid
        self.n = n
        self.p = p
        self.x_base = x_base
        self.element = pid
        self.live = False

    def reset(self) -> bool:
        self.element = self.pid
        self.live = self.pid < self.n
        return self.live

    def current_cycle(self) -> Cycle:
        return Cycle(
            writes=(Write(self.x_base + self.element, 1),),
            label="trivial:write",
        )

    def stage(self, cells: Sequence[int]) -> Staged:
        return "trivial:write", (), 0, (Write(self.x_base + self.element, 1),)

    def advance(self, values: Tuple[int, ...]) -> bool:
        element = self.element + self.p
        self.element = element
        self.live = element < self.n
        return self.live

    def quiet_step(self, cells: Sequence[int], out: List[int]) -> int:
        element = self.element
        out.append(self.x_base + element)
        out.append(1)
        element += self.p
        self.element = element
        self.live = element < self.n
        return 0
