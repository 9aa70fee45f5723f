"""The benchmark's four workloads: seeded inputs, one pass, output checks.

Every workload runs the ``auto`` lane.  A *pass* is the unit the
closed loop repeats and times; it is made of *instances* (a solve, a
simulate, or a sweep point), and every instance's output is checked
after the timed region.  Inputs are drawn from the workload seed only,
so the same seed gives the same inputs and the same deterministic
counts (S, S', |F|, ticks) on every pass.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import random
import shutil
import tempfile
from typing import Dict, List, Optional, Tuple

import repro.cli as cli
from repro.core.problem import verify_solution
from repro.core.runner import solve_write_all
from repro.experiments import run_sweep_parallel
from repro.experiments.bench import get_scenario
from repro.pram.compiled import resolve_kernel
from repro.pram.dispatch import get_model
from repro.pram.machine import Machine
from repro.pram.memory import MemoryReader, SharedMemory
from repro.pram.vectorized import resolve_vectorized
from repro.simulation import RobustSimulator
from repro.simulation.programs.list_ranking import list_ranking_input

LANE = "auto"
#: Exclusive bound of the seed each adversary is built with.  The
#: ``sched-sparse`` seed is a tick offset of its schedule, so it stays
#: small enough for every event to fall inside the run.
SEED_BOUND = {"sched-sparse": 64}


@dataclasses.dataclass
class Instance:
    """One checked unit of work: its label, counts and verdict."""

    label: str
    counts: Dict[str, float]
    ok: bool
    why: str = ""


@dataclasses.dataclass
class PassResult:
    """A timed pass: ``(host s, reference s)`` per unit, and its instances."""

    units: List[Tuple[float, float]]
    instances: List[Instance]
    extra: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(wall for wall, _ in self.units)

    @property
    def ref_s(self) -> float:
        return sum(ref for _, ref in self.units)

    @property
    def completed_work(self) -> int:
        return int(sum(i.counts.get("S", 0) for i in self.instances))


def build_first_machine(algorithm_name: str, n: int, p: int,
                        adversary: Optional[object]) -> Machine:
    """Layout, memory and machine of a Write-All instance, ready to run."""
    algorithm = cli.ALGORITHMS[algorithm_name]()
    layout = algorithm.build_layout(n, p)
    memory = SharedMemory(layout.size)
    algorithm.initialize_memory(memory, layout)
    machine = Machine(
        num_processors=p, memory=memory, adversary=adversary,
        allow_snapshot=algorithm.requires_snapshot,
        context={"layout": layout, "algorithm": algorithm.name},
    )
    machine.load_program(
        algorithm.program(layout, None),
        compiled_program=resolve_kernel(algorithm, layout, None, True),
        vectorized_program=resolve_vectorized(algorithm, layout, None, LANE),
        vector_dispatch=LANE,
    )
    return machine


class WriteAll:
    """Write-All solves, one instance per (algorithm, adversary) pair."""

    def __init__(self, name: str, seed: int, n: int, p: int,
                 algorithms: Tuple[str, ...], adversaries: Tuple[str, ...]):
        self.name = name
        self.n, self.p = n, p
        rng = random.Random(seed)
        self.cells = [
            ((algorithm, adversary),
             rng.randrange(SEED_BOUND.get(adversary, 1 << 31)))
            for adversary in adversaries for algorithm in algorithms
        ]

    def first_instance(self) -> None:
        (algorithm, adversary), adv_seed = self.cells[0]
        build_first_machine(
            algorithm, self.n, self.p,
            cli.build_adversary(adversary, 0.1, 0.3, adv_seed),
        )

    def warm_up(self) -> None:
        get_model()
        for (algorithm, adversary), adv_seed in self.cells:
            solve_write_all(
                cli.ALGORITHMS[algorithm](), 256, 16,
                adversary=cli.build_adversary(adversary, 0.1, 0.3, adv_seed),
                vectorized=LANE,
            )

    def _solve(self, algorithm: str, adversary: str, adv_seed: int,
               phases):
        return solve_write_all(
            cli.ALGORITHMS[algorithm](), self.n, self.p,
            adversary=cli.build_adversary(adversary, 0.1, 0.3, adv_seed),
            vectorized=LANE, phase_counters=phases,
        )

    def run_pass(self, clock) -> PassResult:
        phases = None if clock.tracer is None else clock.tracer.phases
        results = [
            clock.unit("core.solve_write_all", "core", functools.partial(
                self._solve, algorithm, adversary, adv_seed, phases,
            ))
            for (algorithm, adversary), adv_seed in self.cells
        ]
        instances = []
        for ((algorithm, adversary), _), result in zip(self.cells, results):
            ledger = result.ledger
            ok = (
                result.solved and ledger.goal_reached
                and verify_solution(
                    MemoryReader(result.memory), result.layout.x_base,
                    self.n, skip=result.memory.faulty_addresses(),
                )
            )
            instances.append(Instance(
                label=f"{algorithm}@{adversary}",
                counts={
                    "S": ledger.completed_work,
                    "S_prime": ledger.charged_work,
                    "F": ledger.pattern_size,
                    "ticks": ledger.ticks,
                },
                ok=ok,
                why="" if ok else "unsolved or verify_solution failed",
            ))
        return PassResult(clock.units, instances)


def ideal_memory(program, initial: List[int]) -> List[int]:
    """The program's fault-free synchronous result (reads see step start)."""
    memory = list(initial) + [0] * (program.memory_size - len(initial))
    for step in program.steps:
        writes = []
        for processor in range(program.width):
            addresses = step.write_addresses(processor)
            if not addresses:
                continue
            values: Tuple[int, ...] = ()
            for spec in step.read_addresses(processor):
                address = spec if isinstance(spec, int) else spec(values)
                if address is not None:
                    values += (memory[address],)
            writes.extend(zip(addresses, step.compute(processor, values)))
        for address, value in writes:
            memory[address] = value
    return memory


class Simulate:
    """Theorem 4.1: ``RobustSimulator.execute`` with the default VX."""

    PROGRAMS = ("prefix-sum", "list-ranking")

    def __init__(self, name: str, seed: int, width: int, p: int) -> None:
        self.name = name
        self.width, self.p = width, p
        rng = random.Random(seed)
        self.jobs = []
        for program_name in self.PROGRAMS:
            if program_name == "list-ranking":
                order = list(range(width))
                rng.shuffle(order)
                successor = list(range(width))
                for node, following in zip(order, order[1:]):
                    successor[node] = following
                initial, _ = list_ranking_input(successor)
            else:
                initial = [rng.randint(0, 9) for _ in range(width)]
            program = cli.PROGRAMS[program_name](width)
            self.jobs.append((
                program_name, program, initial, rng.randrange(1 << 31),
                ideal_memory(program, initial),
            ))

    def first_instance(self) -> None:
        """The machine of a first phase: VX Write-All over ``width`` tasks."""
        build_first_machine("VX", self.width, self.p, None)

    def _simulator(self, adv_seed: int) -> RobustSimulator:
        return RobustSimulator(
            p=self.p, adversary=cli.build_adversary("random", 0.1, 0.3,
                                                    adv_seed),
            vectorized=LANE,
        )

    def warm_up(self) -> None:
        get_model()
        for name, _, _, adv_seed, _ in self.jobs:
            program = cli.PROGRAMS[name](8)
            self._simulator(adv_seed).execute(
                program, [0] * program.memory_size
            )

    def run_pass(self, clock) -> PassResult:
        results = [
            clock.unit("simulation.execute", "simulation", functools.partial(
                self._simulator(adv_seed).execute, program, initial,
            ))
            for _, program, initial, adv_seed, _ in self.jobs
        ]
        instances = []
        for (name, _, _, _, expected), result in zip(self.jobs, results):
            ok = result.solved and result.memory == expected
            instances.append(Instance(
                label=name,
                counts={
                    "S": result.total_work,
                    "S_prime": sum(r.ledger.charged_work
                                   for r in result.phases),
                    "F": result.total_pattern_size,
                    "ticks": sum(r.ledger.ticks for r in result.phases),
                    "phases": len(result.phases),
                },
                ok=ok,
                why="" if ok else "unsolved or memory differs from fault-free",
            ))
        return PassResult(clock.units, instances)


class Sweep:
    """Lower-bound registry scenarios through the pool engine, cold + warm."""

    SCENARIOS = ("E1_thrashing", "E2_thm31_lower_bound",
                 "E7_thm48_x_stalking")

    def __init__(self, name: str, seed: int, work_dir: str) -> None:
        self.name = name
        self.work_dir = work_dir
        self.workers = os.cpu_count() or 1
        self.scenarios = [
            [dataclasses.replace(spec, seeds=(seed,), vectorized=LANE)
             for spec in get_scenario(tag).specs]
            for tag in self.SCENARIOS
        ]
        self.specs = [spec for specs in self.scenarios for spec in specs]

    def first_instance(self) -> None:
        """The machine of the first point: E1's algorithm X, smallest N."""
        spec = self.specs[0]
        n = spec.sizes[0]
        seed = next(iter(spec.seeds))
        build_first_machine("X", n, spec.processors_for(n),
                            spec.adversary_for(seed))

    def warm_up(self) -> None:
        get_model()
        spec = self.specs[1]  # the smallest sweep (snapshot/halving)
        cache_dir = tempfile.mkdtemp(prefix="warm-", dir=self.work_dir)
        try:
            run_sweep_parallel(spec, workers=1, cache_dir=cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def run_pass(self, clock, backend: str = "pool") -> PassResult:
        """Every sweep cold, writing a fresh cache, then warm, reading it.

        Each scenario's cold sweeps are one unit of the clock, so the
        host-speed calibration brackets them; the short warm sweeps
        share one unit.
        """
        cache_dir = tempfile.mkdtemp(prefix="sweep-", dir=self.work_dir)

        def sweep(specs):
            return [
                run_sweep_parallel(spec, workers=self.workers,
                                   cache_dir=cache_dir, backend=backend)
                for spec in specs
            ]

        try:
            cold = [
                result for specs in self.scenarios
                for result in clock.unit(
                    "experiments.sweeps", "experiments",
                    functools.partial(sweep, specs),
                )
            ]
            warm = clock.unit("experiments.sweeps", "experiments",
                              functools.partial(sweep, self.specs))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        instances = []
        for cold_result, warm_result in zip(cold, warm):
            name = cold_result.spec.name
            clean = not cold_result.failures and not warm_result.failures
            for point in cold_result.points:
                instances.append(Instance(
                    label=f"{name}@{point.n}",
                    counts={
                        "S": point.completed_work,
                        "S_prime": point.charged_work,
                        "F": point.pattern_size,
                        "ticks": point.parallel_time,
                    },
                    ok=clean and point.solved,
                    why="" if clean and point.solved else "unsolved or failed",
                ))
            same = warm_result.points == cold_result.points
            hits = warm_result.stats.cache_hits == warm_result.stats.total
            for point in warm_result.points:
                instances.append(Instance(
                    label=f"{name}@{point.n}:warm", counts={},
                    ok=clean and same and hits,
                    why="" if clean and same and hits
                    else "warm pass missed the cache or differs from cold",
                ))
            missing = (len(cold_result.failures) + len(warm_result.failures))
            instances.extend(
                Instance(label=f"{name}:failed", counts={}, ok=False,
                         why="point failed or was quarantined")
                for _ in range(missing)
            )
        stats = [result.stats for result in cold + warm]
        elapsed = sum(meta.elapsed_s for result in cold
                      for meta in result.meta)
        workers = self.workers if backend == "pool" else 1
        cold_s = sum(wall for wall, _ in clock.units[:-1])
        _, warm_ref_s = clock.units[-1]
        return PassResult(clock.units, instances, extra={
            "points": sum(s.total for s in stats),
            "executed": sum(s.executed for s in stats),
            "cache_hits": sum(s.cache_hits for s in stats),
            "retries": sum(s.retries for s in stats),
            "overhead_share": 1.0 - elapsed / (workers * cold_s),
            "warm_s": warm_ref_s,
            "exponents": {
                result.spec.name: result.fitted_exponent() for result in cold
            },
        })


def build(name: str, seed: int, work_dir: str):
    """The named workload, its inputs drawn from ``seed``."""
    if name == "writeall-online":
        return WriteAll(name, seed, 4096, 64, ("X", "VX"), ("random",))
    if name == "writeall-quiet":
        return WriteAll(name, seed, 65536, 64, ("trivial", "W", "X"),
                        ("none", "sched-sparse"))
    if name == "simulate-thm41":
        return Simulate(name, seed, 256, 64)
    if name == "sweep-lowerbound":
        return Sweep(name, seed, work_dir)
    raise KeyError(name)


NAMES = ("writeall-online", "writeall-quiet", "simulate-thm41",
         "sweep-lowerbound")
