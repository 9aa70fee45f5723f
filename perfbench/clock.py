"""Pass timing in host seconds and in reference-host seconds.

The benchmark host's speed drifts by tens of percent within seconds
(shared cores).  :func:`spin` is a fixed interpreter workload that
belongs to the benchmark, not to the program, so no change to the
program can move it; timing it next to each unit of work gives the
host's current speed.  :class:`Clock` brackets every unit of a pass
with a spin and rescales the unit's host seconds by
``REFERENCE_SPIN_S / spin``: the seconds the unit would have taken on
the reference host.  Both the raw and the rescaled times are kept.
"""

from __future__ import annotations

import random
import time
from typing import Callable, List, Optional, Tuple

#: Median seconds of :func:`spin` on the reference host (2-vCPU x86_64
#: VM, CPython 3.11).  A fixed constant: it sets the unit, not the result.
REFERENCE_SPIN_S = 0.065


#: Shuffled keys for :func:`spin`: scattered dict accesses over a
#: working set larger than the first-level caches, like the program's.
_KEYS = list(range(1 << 16))
random.Random(0).shuffle(_KEYS)


def spin() -> float:
    """Seconds taken by a fixed dict and sort workload (two containers)."""
    started = time.perf_counter()
    keys, table, acc = _KEYS, {}, 0
    for i in range(200_000):
        key = keys[(i * 40503) & 0xFFFF]
        table[key] = acc
        acc = (acc + (key & 15)) & 0xFFFFF
    values = list(range(100_000))
    values.sort(key=lambda value: -value)
    return time.perf_counter() - started


def host_factor(spins) -> float:
    """Reference seconds per host second, from spins around the work."""
    return REFERENCE_SPIN_S / (sum(spins) / len(spins))


class Clock:
    """Times the units of one pass, each bracketed by calibration spins.

    With a tracer, each unit also opens a top-level span (its
    ``instance`` is the unit's index in the pass).
    """

    def __init__(self, tracer: Optional[object] = None) -> None:
        self.tracer = tracer
        #: ``(host seconds, reference seconds)`` of each unit, in order.
        self.units: List[Tuple[float, float]] = []
        self._last_spin = spin()

    def unit(self, name: str, layer: str, work: Callable[[], object]):
        tracer = self.tracer
        if tracer is not None:
            tracer.instance = len(self.units)
            span = tracer.open(name, layer)
        started = time.perf_counter()
        try:
            return work()
        finally:
            elapsed = time.perf_counter() - started
            if tracer is not None:
                tracer.close(span)
            before, self._last_spin = self._last_spin, spin()
            self.units.append((
                elapsed, elapsed * host_factor((before, self._last_spin))
            ))
