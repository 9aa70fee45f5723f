"""Cross-lane differential tests for every library PRAM program.

Each program in :mod:`repro.simulation.programs` runs through every
machine lane of the shared registry (:mod:`repro.pram.lanes`) under at
least two adversaries, on both X and V+X (the simulator's default),
and every run's final simulated memory must be bit-identical to the
fault-free reference execution — Theorem 4.1's semantic transparency,
asserted program x algorithm x adversary x lane.  Every lane must also
reproduce the reference lane's accounting phase by phase (S, S', |F|,
ticks and completions per tick): the kernel lanes run the robust
phases' task cycles on compiled kernels, the others on generators.
The Write-All differential suite (``tests/pram/``) proves lane
identity for the *solver*; this suite proves it for the *simulation
layer* on real workloads.
"""

import functools
import random

import pytest

from repro.core import AlgorithmVX, AlgorithmX
from repro.faults import BurstAdversary, NoFailures, RandomAdversary
from repro.pram.lanes import LANES as LANE_REGISTRY, lane_available
from repro.simulation import RobustSimulator
from repro.simulation.programs import (
    bfs_input,
    bfs_program,
    list_ranking_program,
    matvec_program,
    max_find_program,
    odd_even_sort_program,
    polynomial_input,
    polynomial_program,
    prefix_sum_program,
)
from repro.simulation.programs.list_ranking import list_ranking_input

#: Straight from the shared registry (reference last), minus lanes this
#: environment cannot run (vec without the numpy extra).  The robust
#: phases use non-trivial task sets, which no vector program takes, so
#: the vec/auto lanes run the scalar kernels here.
LANES = {
    name: lane
    for name, lane in LANE_REGISTRY.items()
    if lane_available(name)
}

ALGORITHMS = {"X": AlgorithmX, "VX": AlgorithmVX}

ADVERSARIES = {
    "random": lambda: RandomAdversary(0.12, 0.35, seed=5),
    "burst": lambda: BurstAdversary(period=3, fraction=0.5, downtime=1),
}


def _programs():
    rng = random.Random(11)
    m = 8
    data = [rng.randint(0, 50) for _ in range(m)]
    successor = list(range(1, m)) + [m - 1]
    ranking_initial, _ = list_ranking_input(successor)
    ring = [[(v - 1) % m, (v + 1) % m] for v in range(m)]
    coefficients = [rng.randint(-3, 3) for _ in range(m)]
    matrix_m = 4
    matvec_initial = (
        [rng.randint(-3, 3) for _ in range(matrix_m * matrix_m)]
        + [rng.randint(-3, 3) for _ in range(matrix_m)]
        + [0] * matrix_m
    )
    return {
        "prefix-sum": (prefix_sum_program(m), list(data)),
        "max-find": (max_find_program(m), list(data)),
        "list-ranking": (list_ranking_program(m), ranking_initial),
        "odd-even-sort": (odd_even_sort_program(m), list(data)),
        "bfs": (bfs_program(ring, rounds=m), bfs_input(m, [0])),
        "polynomial": (polynomial_program(m),
                       polynomial_input(coefficients, 2)),
        "matvec": (matvec_program(matrix_m), matvec_initial),
    }


PROGRAMS = _programs()


def execute(program, initial, adversary, lane, algorithm_key="X"):
    simulator = RobustSimulator(
        p=4,
        algorithm=ALGORITHMS[algorithm_key](),
        adversary=adversary,
        **LANES[lane].solver_kwargs(),
    )
    return simulator.execute(program, list(initial))


@functools.lru_cache(maxsize=None)
def faulty_run(name, algorithm_key, adversary_key, lane):
    """One (program, algorithm, adversary, lane) run, shared by tests."""
    program, initial = PROGRAMS[name]
    return execute(
        program, initial, ADVERSARIES[adversary_key](), lane, algorithm_key
    )


def phase_accounting(result):
    """Per phase: S, S', |F|, ticks and completions per tick."""
    return [
        (record.step_index, record.phase, record.ledger.completed_work,
         record.ledger.charged_work, record.ledger.pattern_size,
         record.ledger.ticks, list(record.ledger.completed_per_tick))
        for record in result.phases
    ]


@pytest.fixture(scope="module")
def fault_free_memories():
    """The reference-lane, failure-free memory per program — the
    differential baseline every faulty lane must reproduce exactly."""
    baselines = {}
    for name, (program, initial) in PROGRAMS.items():
        result = execute(program, initial, NoFailures(), "reference")
        assert result.solved
        baselines[name] = result.memory
    return baselines


class TestEveryProgramEveryLane:
    @pytest.mark.parametrize("adversary_key", sorted(ADVERSARIES))
    @pytest.mark.parametrize("lane", sorted(LANES))
    @pytest.mark.parametrize("algorithm_key", sorted(ALGORITHMS))
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_lane_matches_fault_free_baseline(
        self, name, algorithm_key, lane, adversary_key, fault_free_memories
    ):
        result = faulty_run(name, algorithm_key, adversary_key, lane)
        assert result.solved
        assert result.memory == fault_free_memories[name]

    @pytest.mark.parametrize("adversary_key", sorted(ADVERSARIES))
    @pytest.mark.parametrize("lane", sorted(set(LANES) - {"reference"}))
    @pytest.mark.parametrize("algorithm_key", sorted(ALGORITHMS))
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_phase_accounting_matches_reference_lane(
        self, name, algorithm_key, lane, adversary_key
    ):
        result = faulty_run(name, algorithm_key, adversary_key, lane)
        reference = faulty_run(name, algorithm_key, adversary_key,
                               "reference")
        assert phase_accounting(result) == phase_accounting(reference)

    @pytest.mark.parametrize("algorithm_key", sorted(ALGORITHMS))
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_adversaries_actually_injected_faults(self, name, algorithm_key):
        result = faulty_run(name, algorithm_key, "random", "fast")
        assert result.total_pattern_size > 0


class TestSemanticSpotChecks:
    """The baselines themselves compute what the programs claim."""

    def test_prefix_sum_baseline(self, fault_free_memories):
        _, data = PROGRAMS["prefix-sum"]
        assert fault_free_memories["prefix-sum"] == [
            sum(data[: i + 1]) for i in range(len(data))
        ]

    def test_max_find_baseline(self, fault_free_memories):
        _, data = PROGRAMS["max-find"]
        m = len(data)
        assert fault_free_memories["max-find"][m] == max(data)

    def test_sort_baseline(self, fault_free_memories):
        _, data = PROGRAMS["odd-even-sort"]
        assert fault_free_memories["odd-even-sort"] == sorted(data)

    def test_bfs_baseline(self, fault_free_memories):
        m = 8
        assert fault_free_memories["bfs"] == [
            min(v, m - v) for v in range(m)
        ]

    def test_list_ranking_baseline(self, fault_free_memories):
        m = 8
        assert fault_free_memories["list-ranking"][m:] == [
            m - 1 - i for i in range(m)
        ]
