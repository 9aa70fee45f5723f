"""Algorithm W of [KS 89] — the fail-stop (no-restart) baseline.

The four synchronized phases of Section 4.1:

1. live processors are counted and enumerated bottom-up in a processor
   counting tree;
2. processors are allocated to unvisited leaves top-down using their
   (rank, total) from phase 1;
3. the work at the leaves is performed (log N elements per leaf);
4. the progress tree is updated bottom-up.

W is efficient under fail-stop errors *without* restarts; with restarts
its enumeration becomes stale (revived processors are invisible until
the next iteration, failed ones are over-counted), which motivates
algorithm V.  Our implementation runs under restarts anyway (the same
wrap-around counter mechanism as V) so the degradation is measurable.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.core.algorithm_v import progress_geometry
from repro.core.base import WriteAllAlgorithm, default_tasks
from repro.core.iterative import (
    IterativeLayout,
    PhasedKernel,
    iteration_length,
    phased_kernel_factory,
    phased_program,
)
from repro.core.tasks import TaskSet
from repro.pram.cycles import Cycle
from repro.util.bits import next_power_of_two


class WLayout(IterativeLayout):
    pass


class AlgorithmW(WriteAllAlgorithm):
    """Four synchronized phases per iteration; rank-driven allocation."""

    name = "W"
    terminates_under_restarts = False

    def build_layout(self, n: int, p: int) -> WLayout:
        leaves, chunk = progress_geometry(n)
        p_leaves = next_power_of_two(p)
        x_base = 0
        d_base = n
        c_base = d_base + (2 * leaves - 1)
        step_addr = c_base + (2 * p_leaves - 1)
        done_addr = step_addr + 1
        size = done_addr + 1
        return WLayout(
            n=n, p=p, x_base=x_base, size=size,
            d_base=d_base, leaves=leaves, chunk=chunk,
            step_addr=step_addr, done_addr=done_addr,
            c_base=c_base, p_leaves=p_leaves,
        )

    def program(
        self, layout: WLayout, tasks: Optional[TaskSet] = None
    ) -> Callable[[int], Generator[Cycle, tuple, None]]:
        tasks = default_tasks(tasks)

        def factory(pid: int) -> Generator[Cycle, tuple, None]:
            return phased_program(pid, layout, tasks)

        return factory

    def compiled_program(
        self, layout: WLayout, tasks: Optional[TaskSet] = None
    ) -> Optional[Callable[[int], PhasedKernel]]:
        return phased_kernel_factory(layout, default_tasks(tasks))

    def vectorized_program(
        self, layout: WLayout, tasks: Optional[TaskSet] = None
    ) -> Optional[object]:
        tasks = default_tasks(tasks)
        if tasks.cycles_per_task != 0:
            return None  # task cycles run on PhasedTaskKernel
        from repro.core.vector_kernels import WVector

        return WVector(layout, iteration_length(layout, tasks))
