"""In-memory spans around the public boundaries of each layer.

The benchmark never edits the program.  For the length of a traced
pass, :class:`Tracer` swaps a few public methods and functions for
thin wrappers that open a span, call the original, and close the
span; :meth:`Tracer.install` restores every original on exit.  The
wrappers replace class-dict *values* only, never add or remove keys,
so the machine's MRO trust guards (``passive``, ``quiet_until``,
compiled and vector programs) see exactly the classes they saw before.

A span is ``[name, layer, start, end, parent, instance]``: ``parent``
indexes the enclosing span (``None`` at top level) and ``instance``
is the benchmark's id of the solve, simulate or sweep pass the span
belongs to.  A wrapper that is re-entered under a span of the same name
(``super().decide()``, composite adversaries, a ``build_layout`` that
calls its parent's) records nothing, so each boundary is counted once.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

from repro.core.base import WriteAllAlgorithm
from repro.experiments.cache import ResultCache
from repro.faults.base import Adversary
import repro.faults.registry  # noqa: F401 - loads every adversary class
from repro.perf.phases import PhaseCounters
from repro.pram.dispatch import DispatchModel
from repro.pram.machine import Machine
import repro.core.runner

#: Layers in report order (the benchmark's own spans use these too).
LAYERS = ("core", "pram", "faults", "simulation", "experiments")


def _subclasses(root: type) -> List[type]:
    found, todo = [], [root]
    while todo:
        klass = todo.pop()
        found.append(klass)
        todo.extend(klass.__subclasses__())
    return found


class Tracer:
    """Collects spans and boundary counts while :attr:`active`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.instance: Optional[int] = None
        self.active = False
        self.phases = PhaseCounters()
        self.counts: Counter = Counter()

    # -- spans --------------------------------------------------------- #

    def open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            [name, layer, time.perf_counter(), None, parent, self.instance]
        )
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def _innermost(self) -> Optional[str]:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, original: Callable, name: str, layer: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``original`` wrapped in a span; hooks see args (and result)."""

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.active or self._innermost() == name:
                return original(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            index = self.open(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- installation -------------------------------------------------- #

    @contextlib.contextmanager
    def install(self):
        """Wrap every traced boundary; restore the originals on exit."""
        saved = []

        def patch(owner, attr: str, name: str, layer: str, **hooks) -> None:
            raw = vars(owner).get(attr)
            if not inspect.isfunction(raw) or any(
                owner is o and attr == a for o, a, _ in saved
            ):
                return
            saved.append((owner, attr, raw))
            setattr(owner, attr, self.wrap(raw, name, layer, **hooks))

        patch(Machine, "run", "pram.run", "pram",
              before=self._attach_counters, after=self._count_run)
        patch(Machine, "load_program", "pram.load_program", "pram",
              after=self._count_load)
        patch(DispatchModel, "prefer_vector", "pram.prefer_vector", "pram",
              after=self._count_dispatch)
        for klass in _subclasses(Adversary):
            patch(klass, "decide", "faults.decide", "faults")
            patch(klass, "quiet_until", "faults.quiet_until", "faults")
        for klass in _subclasses(WriteAllAlgorithm):
            patch(klass, "build_layout", "core.build_layout", "core")
            patch(klass, "initialize_memory", "core.initialize_memory",
                  "core")
        patch(ResultCache, "load", "experiments.cache_load", "experiments")
        patch(ResultCache, "store", "experiments.cache_store",
              "experiments")
        verify = repro.core.runner.verify_solution
        saved.append((repro.core.runner, "verify_solution", verify))
        repro.core.runner.verify_solution = self.wrap(
            verify, "core.verify", "core"
        )
        try:
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # -- boundary counts ----------------------------------------------- #

    def _attach_counters(self, args, kwargs) -> None:
        machine = args[0]
        if machine.phase_counters is None:
            machine.phase_counters = self.phases

    def _count_run(self, args, kwargs, ledger) -> None:
        self.counts["pram.ticks"] += ledger.ticks
        self.counts["pram.charged"] += ledger.charged_work
        self.counts["pram.completed"] += ledger.completed_work

    def _count_load(self, args, kwargs, result) -> None:
        def argument(position: int, key: str):
            if key in kwargs:
                return kwargs[key]
            return args[position] if len(args) > position else None

        self.counts["pram.loads"] += 1
        if argument(2, "compiled_program") is not None:
            self.counts["pram.kernel_loads"] += 1
        if argument(3, "vectorized_program") is not None:
            self.counts["pram.vec_loads"] += 1

    def _count_dispatch(self, args, kwargs, vector: bool) -> None:
        self.counts["pram.dispatch_vec" if vector
                    else "pram.dispatch_scalar"] += 1

    # -- reduction ----------------------------------------------------- #

    def totals(self) -> Dict[str, List[float]]:
        """``name -> [calls, seconds, self seconds]`` over all spans."""
        child_s = [0.0] * len(self.spans)
        for name, layer, start, end, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        totals: Dict[str, List[float]] = {}
        for index, (name, layer, start, end, _, _) in enumerate(self.spans):
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_s[index]
        return totals

    def layer_self_s(self) -> Dict[str, float]:
        """Each layer's self time: span time not covered by child spans."""
        layers = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.totals().items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
        return layers

    def dump(self) -> dict:
        """The spans as JSON-ready columns (times relative to the first)."""
        origin = self.spans[0][2] if self.spans else 0.0
        return {
            "columns": ["name", "layer", "start_s", "end_s", "parent",
                        "instance"],
            "spans": [
                [name, layer, round(start - origin, 9),
                 round(end - origin, 9), parent, instance]
                for name, layer, start, end, parent, instance in self.spans
            ],
        }
