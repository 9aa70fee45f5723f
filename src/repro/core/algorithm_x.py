"""Algorithm X (Section 4.2 and the appendix of the paper).

X is the paper's new Write-All algorithm whose completed work is bounded
for *any* failure/restart pattern: ``S = O(N * P^{log(3/2)+delta})``
(Theorem 4.7), i.e. sub-quadratic, with a matching stalking-adversary
lower bound of ``Omega(N^{log 3})`` at ``P = N`` (Theorem 4.8).

Structure (Figure 5): a progress heap ``d[1 .. 2N-1]`` over the input
array ``x[1 .. N]``; each processor independently walks the tree, storing
its position in the shared array ``w[0 .. P-1]``:

* at a node marked done — move up;
* at an unvisited leaf — perform the work, then mark the leaf done;
* at an interior node — mark it done if both children are, descend into
  a single undone child, or, when *both* are undone, descend left/right
  according to the PID bit at the node's depth (MSB first).

Each loop body is one update cycle: at most 4 reads (``w[PID]``,
``d[where]``, and either the leaf's ``x`` cell or the two children), a
fixed compute, and exactly one write.  Two properties carry the
fault-tolerance story:

* the position array ``w`` lives in shared memory, so a restarted
  processor resumes exactly where it stopped ([SS 83] action/recovery,
  Remark 6) — no free teleports back to the initial leaf, which is what
  keeps the work bounded under restarts;
* *every* cycle writes (position value 0 means "not yet initialized" and
  triggers the initial leaf assignment; the sentinel ``2N`` means
  "exited").  There is no repeatable read-only cycle an adversary could
  let complete for free, so the model's progress condition ("at least
  one update cycle completes at any time") forces genuine progress —
  this is why X terminates under arbitrary failure/restart patterns
  (Lemma 4.4) while algorithm V, whose restarted processors poll
  read-only while waiting, can be starved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Sequence, Tuple

from repro.core.base import BaseLayout, WriteAllAlgorithm, default_tasks
from repro.core.tasks import TaskSet
from repro.core.trees import HeapTree
from repro.pram.compiled import (
    CompiledProgram,
    CycleFallback,
    Staged,
    stage_cycle,
)
from repro.pram.cycles import Cycle, Write, expect_cycle
from repro.util.bits import bit_length_of_power, is_power_of_two, msb_first_bit
from repro.util.rng import derive_seed


@dataclass(frozen=True)
class XLayout(BaseLayout):
    """Shared-memory plan: ``x`` | ``d`` heap | ``w`` positions."""

    d_base: int = 0
    w_base: int = 0

    @property
    def tree(self) -> HeapTree:
        return HeapTree(base=self.d_base, leaves=self.n)

    @property
    def exit_marker(self) -> int:
        """The ``w`` value of a processor that has left the tree."""
        return 2 * self.n


#: Routing rules for the "both subtrees undone" case.  The paper's X
#: uses the PID bit at the node's depth; the alternatives exist for the
#: ablation study (benchmarks/bench_ablation_x_routing.py) showing why
#: the PID split matters.
ROUTING_RULES = ("pid", "left", "right", "random")


class AlgorithmX(WriteAllAlgorithm):
    """The appendix's algorithm X, generalized over task sets.

    ``routing`` selects the both-children-undone descent rule: "pid"
    (the paper's balanced PID-bit split), "left"/"right" (everyone
    piles into one subtree), or "random" (a stateless hash coin —
    balanced in expectation but uncoordinated, so processors following
    it do not partition the tree the way PID bits do).
    """

    name = "X"

    def __init__(self, routing: str = "pid", spread: bool = False) -> None:
        if routing not in ROUTING_RULES:
            raise ValueError(
                f"unknown routing {routing!r}; options: {ROUTING_RULES}"
            )
        self.routing = routing
        #: Remark 5(i): space the P processors N/P leaves apart instead
        #: of packing them into the first P leaves (Theorem 4.7's proof
        #: layout).  "Our worst case analysis does not benefit from
        #: these modifications" — but failure-free runs with P < N do.
        self.spread = spread
        if routing != "pid" or spread:
            tags = [routing] if routing != "pid" else []
            tags += ["spread"] if spread else []
            self.name = f"X[{','.join(tags)}]"

    def build_layout(self, n: int, p: int) -> XLayout:
        if not is_power_of_two(n):
            raise ValueError(f"algorithm X needs power-of-two n, got {n}")
        x_base = 0
        d_base = n
        w_base = d_base + (2 * n - 1)
        size = w_base + p
        return XLayout(
            n=n, p=p, x_base=x_base, size=size,
            d_base=d_base, w_base=w_base,
        )

    def program(
        self, layout: XLayout, tasks: Optional[TaskSet] = None
    ) -> Callable[[int], Generator[Cycle, tuple, None]]:
        tasks = default_tasks(tasks)

        routing = self.routing
        spread = self.spread

        def factory(pid: int) -> Generator[Cycle, tuple, None]:
            return _x_program(pid, layout, tasks, routing, spread)

        return factory

    def compiled_program(
        self, layout: XLayout, tasks: Optional[TaskSet] = None
    ) -> Optional[Callable[[int], "XKernel"]]:
        tasks = default_tasks(tasks)
        routing = self.routing
        spread = self.spread
        if tasks.cycles_per_task == 0:
            def factory(pid: int) -> XKernel:
                return XKernel(pid, layout, routing, spread)
        else:
            def factory(pid: int) -> XKernel:
                return XTaskKernel(pid, layout, routing, spread, tasks)

        return factory

    def vectorized_program(
        self, layout: XLayout, tasks: Optional[TaskSet] = None
    ) -> Optional[object]:
        tasks = default_tasks(tasks)
        if tasks.cycles_per_task != 0:
            return None  # the task/mark sub-loop runs on XTaskKernel
        if self.routing == "random":
            # The stateless (pid, node) hash coin is evaluated per
            # descent; there is no array form of derive_seed.
            return None
        from repro.core.vector_kernels import XVector

        return XVector(layout, self.routing, self.spread)


def _x_initial_leaf(pid: int, layout: XLayout, spread: bool) -> int:
    """The node a position-0 processor takes as its first leaf."""
    n = layout.n
    if spread and layout.p < n:
        return n + (pid * (n // layout.p)) % n
    return n + (pid % n)


def _x_cycle_body(
    pid: int,
    layout: XLayout,
    routing: str,
    spread: bool,
    trivial: bool,
) -> Tuple[tuple, Callable[[Tuple[int, ...]], Tuple[Write, ...]]]:
    """Build the (reads, writes) body of X's single update cycle.

    Shared by the generator program and :class:`XKernel`'s materialized
    cycles, so both lanes are observationally identical by construction.
    """
    n = layout.n
    x_base = layout.x_base
    tree = layout.tree
    w_address = layout.w_base + pid
    exit_marker = layout.exit_marker
    log_n = bit_length_of_power(n)
    route_pid = pid % n
    initial_leaf = _x_initial_leaf(pid, layout, spread)

    def in_tree(where: int) -> bool:
        return 1 <= where < exit_marker

    def read_done(so_far: Tuple[int, ...]) -> Optional[int]:
        where = so_far[0]
        return tree.address(where) if in_tree(where) else None

    def read_third(so_far: Tuple[int, ...]) -> Optional[int]:
        where, done = so_far[0], so_far[1]
        if not in_tree(where) or done != 0:
            return None
        if where >= n:  # leaf: read its x element
            return x_base + (where - n)
        return tree.address(2 * where)  # interior: left child

    def read_fourth(so_far: Tuple[int, ...]) -> Optional[int]:
        where, done = so_far[0], so_far[1]
        if not in_tree(where) or done != 0 or where >= n:
            return None
        return tree.address(2 * where + 1)  # interior: right child

    body_reads = (w_address, read_done, read_third, read_fourth)

    def body_writes(values: Tuple[int, ...]) -> Tuple[Write, ...]:
        where, done, third, fourth = values
        if where == 0:
            # First-ever cycle: take the initial leaf assignment.
            return (Write(w_address, initial_leaf),)
        if where == exit_marker:
            # Final cycle before halting (idempotent rewrite, so even
            # this cycle is not a free read-only completion).
            return (Write(w_address, exit_marker),)
        if done != 0:
            parent = where // 2
            return (
                Write(w_address, parent if parent >= 1 else exit_marker),
            )  # move up one level / leave the tree
        if where >= n:  # at a leaf
            element = where - n
            if third == 0:  # leaf not yet visited
                if trivial:
                    return (Write(x_base + element, 1),)
                # Non-trivial task: the task cycles emitted below do the
                # work; rewrite the position so this cycle still writes.
                return (Write(w_address, where),)
            return (Write(tree.address(where), 1),)  # indicate "done"
        # interior node, not done
        left, right = third, fourth
        if left != 0 and right != 0:
            return (Write(tree.address(where), 1),)  # both children done
        if left == 0 and right != 0:
            return (Write(w_address, 2 * where),)  # go left
        if left != 0 and right == 0:
            return (Write(w_address, 2 * where + 1),)  # go right
        # both subtrees not done: move down according to the routing rule
        if routing == "pid":
            bit = msb_first_bit(route_pid, tree.depth(where), log_n)
        elif routing == "left":
            bit = 0
        elif routing == "right":
            bit = 1
        else:  # "random": a stateless coin keyed by (pid, node)
            bit = derive_seed(pid, where) & 1
        return (Write(w_address, 2 * where + bit),)

    return body_reads, body_writes


def _x_program(
    pid: int,
    layout: XLayout,
    tasks: TaskSet,
    routing: str = "pid",
    spread: bool = False,
) -> Generator[Cycle, tuple, None]:
    n = layout.n
    x_base = layout.x_base
    exit_marker = layout.exit_marker
    trivial = tasks.cycles_per_task == 0
    body_reads, body_writes = _x_cycle_body(pid, layout, routing, spread, trivial)

    while True:
        values = yield Cycle(reads=body_reads, writes=body_writes, label="x:step")
        where, done, third, _fourth = values
        if where == exit_marker:
            return  # exited the tree: the processor halts
        if where == 0:
            continue  # position just initialized
        if done == 0 and where >= n and third == 0 and not trivial:
            # Unvisited leaf with a non-trivial task: run its cycles,
            # then mark x (the marking cycle makes re-execution after a
            # mid-task failure safe — x stays 0 until the task finished).
            element = where - n
            for task_cycle in tasks.task_cycles(element, pid):
                yield task_cycle
            yield Cycle(
                writes=(Write(x_base + element, 1),),
                label="x:mark",
            )

class XKernel(CompiledProgram):
    """Compiled form of X's single-cycle loop (:class:`XTaskKernel` adds
    the task sub-loop of non-trivial task sets).

    X keeps all of its recovery state in shared memory (the position
    array ``w``), so the kernel itself is stateless between cycles:
    ``reset()`` is trivial and a restarted stepper is indistinguishable
    from a fresh one — exactly the [SS 83] recovery property the
    algorithm is built on.  ``quiet_step`` re-implements the cycle body
    over raw cells with no ``Cycle``/``Write`` allocation, and ``stage``
    runs that same body (so the fused and observed lanes share one
    encoding); the materialized cycle reuses the *same* body closures
    as the generator program (:func:`_x_cycle_body`), so both lanes
    agree by construction.
    """

    __slots__ = (
        "pid", "layout", "routing", "spread", "n", "x_base", "d1",
        "w_address", "exit_marker", "log_n", "route_pid", "route_code",
        "initial_leaf", "tasks", "_cycle",
    )

    _ROUTE_CODES = {"pid": 0, "left": 1, "right": 2, "random": 3}

    def __init__(
        self, pid: int, layout: XLayout, routing: str, spread: bool
    ) -> None:
        self.pid = pid
        self.layout = layout
        self.routing = routing
        self.spread = spread
        n = layout.n
        self.n = n
        self.x_base = layout.x_base
        # tree.address(node) == d_base + node - 1; fold the -1 once.
        self.d1 = layout.d_base - 1
        self.w_address = layout.w_base + pid
        self.exit_marker = layout.exit_marker
        self.log_n = bit_length_of_power(n)
        self.route_pid = pid % n
        self.route_code = self._ROUTE_CODES[routing]
        self.initial_leaf = _x_initial_leaf(pid, layout, spread)
        #: The task set of a task-carrying kernel; None for plain X.
        self.tasks: Optional[TaskSet] = None
        self._cycle: Optional[Cycle] = None
        self.live = False

    def reset(self) -> bool:
        # All recovery state lives in shared memory (w[pid]); the
        # stepper has none of its own.  X never halts at spawn.
        self.live = True
        return True

    def current_cycle(self) -> Cycle:
        cycle = self._cycle
        if cycle is None:
            body_reads, body_writes = _x_cycle_body(
                self.pid, self.layout, self.routing, self.spread,
                self.tasks is None,
            )
            cycle = Cycle(reads=body_reads, writes=body_writes, label="x:step")
            self._cycle = cycle
        return cycle

    def advance(self, values: Tuple[int, ...]) -> bool:
        self.live = values[0] != self.exit_marker
        return self.live

    def quiet_step(
        self,
        cells: Sequence[int],
        out: List[int],
        values: Optional[List[int]] = None,
    ) -> int:
        """One cycle over raw cells: stage its write into ``out``.

        Returns the charged-read count.  ``stage`` passes a ``values``
        list to receive the read values (skipped reads are 0) and undoes
        the one state change, ``live``, so both lanes share this body.
        """
        w_address = self.w_address
        where = cells[w_address]
        reads = 1
        exit_marker = self.exit_marker
        n = self.n
        d1 = self.d1
        done = 0
        third = 0
        fourth = 0
        if 1 <= where < exit_marker:
            done = cells[d1 + where]
            reads = 2
            if done == 0:
                if where >= n:  # leaf: read its x element
                    third = cells[self.x_base + (where - n)]
                    reads = 3
                else:  # interior: read both children
                    third = cells[d1 + 2 * where]
                    fourth = cells[d1 + 2 * where + 1]
                    reads = 4
        # Mirror _x_cycle_body's body_writes branch for branch.
        if where == 0:
            out.append(w_address)
            out.append(self.initial_leaf)
        elif where == exit_marker:
            out.append(w_address)
            out.append(exit_marker)
            self.live = False
        elif done != 0:
            parent = where // 2
            out.append(w_address)
            out.append(parent if parent >= 1 else exit_marker)
        elif where >= n:  # at a leaf
            if third == 0:  # leaf not yet visited
                if self.tasks is None:
                    out.append(self.x_base + (where - n))
                    out.append(1)
                else:  # the task cycles do the work; rewrite the position
                    out.append(w_address)
                    out.append(where)
            else:
                out.append(d1 + where)  # indicate "done"
                out.append(1)
        elif third != 0 and fourth != 0:
            out.append(d1 + where)  # both children done
            out.append(1)
        elif third == 0 and fourth != 0:
            out.append(w_address)
            out.append(2 * where)  # go left
        elif third != 0:
            out.append(w_address)
            out.append(2 * where + 1)  # go right
        else:
            # both subtrees not done: the routing rule picks a child
            out.append(w_address)
            out.append(2 * where + self._route_bit(where))
        if values is not None:
            values += (where, done, third, fourth)
        return reads

    def stage(self, cells: Sequence[int]) -> Staged:
        out: List[int] = []
        values: List[int] = []
        live = self.live
        reads = self.quiet_step(cells, out, values)
        self.live = live
        return "x:step", tuple(values), reads, (Write(out[0], out[1]),)

    def _route_bit(self, where: int) -> int:
        """The routing rule's child bit at an undone interior node."""
        code = self.route_code
        if code == 0:  # the paper's MSB-first PID bit at this depth
            depth = where.bit_length() - 1
            return (self.route_pid >> (self.log_n - 1 - depth)) & 1
        if code == 1:
            return 0
        if code == 2:
            return 1
        return derive_seed(self.pid, where) & 1


class XTaskKernel(XKernel):
    """:class:`XKernel` plus the task sub-loop of non-trivial task sets.

    At an unvisited leaf the ``x:step`` cycle rewrites ``w[pid]``; on
    its completion the kernel fetches the element's task cycles, as
    :func:`_x_program` does, then hands them out one per tick, followed
    by one ``x:mark`` cycle.  The sub-loop state (element, cycle list,
    index) is private memory: ``reset()`` drops it, so a restarted
    processor resumes from ``w[pid]`` and re-runs the idempotent task.
    Task cycles are staged with :func:`~repro.pram.compiled.stage_cycle`
    on observed ticks and declined (:class:`CycleFallback`) on the
    fused lane; the ``x:mark`` cycle is compiled.
    """

    __slots__ = ("element", "task_cycles", "task_index")

    def __init__(
        self,
        pid: int,
        layout: XLayout,
        routing: str,
        spread: bool,
        tasks: TaskSet,
    ) -> None:
        super().__init__(pid, layout, routing, spread)
        self.tasks = tasks
        self.element = 0
        self.task_cycles: Optional[List[Cycle]] = None
        self.task_index = 0

    def reset(self) -> bool:
        self.task_cycles = None  # lost with the rest of private memory
        return XKernel.reset(self)

    def current_cycle(self) -> Cycle:
        cycles = self.task_cycles
        if cycles is None:
            return XKernel.current_cycle(self)
        if self.task_index < len(cycles):
            return cycles[self.task_index]
        return Cycle(
            writes=(Write(self.x_base + self.element, 1),), label="x:mark"
        )

    def stage(self, cells: Sequence[int]) -> Staged:
        cycles = self.task_cycles
        if cycles is None:
            # XKernel.stage, over the bare cycle body (this class's
            # quiet_step wraps the sub-loop around it).
            out: List[int] = []
            values: List[int] = []
            live = self.live
            reads = XKernel.quiet_step(self, cells, out, values)
            self.live = live
            return "x:step", tuple(values), reads, (Write(out[0], out[1]),)
        if self.task_index < len(cycles):
            return stage_cycle(cycles[self.task_index], cells)
        return "x:mark", (), 0, (Write(self.x_base + self.element, 1),)

    def advance(self, values: Tuple[int, ...]) -> bool:
        cycles = self.task_cycles
        if cycles is not None:
            self._next_task(cycles, self.task_index + 1)
            return True
        where = values[0]
        if where == self.exit_marker:
            self.live = False
            return False
        if where >= self.n and values[1] == 0 and values[2] == 0:
            self._enter_tasks(where)
        return True

    def _enter_tasks(self, where: int) -> None:
        """At an unvisited leaf: fetch its task cycles (see _x_program)."""
        element = where - self.n
        self.element = element
        self._next_task(self.tasks.task_cycles(element, self.pid), 0)

    def _next_task(self, cycles: List[Cycle], index: int) -> None:
        """Move to sub-loop slot ``index``: a task cycle, the mark
        (``index == len(cycles)``), or past it, back to the tree walk."""
        if index > len(cycles):
            self.task_cycles = None
            return
        if index < len(cycles):
            expect_cycle(self.pid, cycles[index])
        self.task_cycles = cycles
        self.task_index = index

    def quiet_step(  # type: ignore[override]
        self, cells: Sequence[int], out: List[int]
    ) -> int:
        cycles = self.task_cycles
        if cycles is None:
            values: List[int] = []
            reads = XKernel.quiet_step(self, cells, out, values)
            where = values[0]
            if where >= self.n and self.live and values[1] == 0 \
                    and values[2] == 0:
                self._enter_tasks(where)
            return reads
        if self.task_index < len(cycles):
            raise CycleFallback  # user code takes the machine's checked route
        out.append(self.x_base + self.element)
        out.append(1)
        self.task_cycles = None
        return 0
