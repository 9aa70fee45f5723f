"""The fuzz driver: generated programs x lanes x adversaries x passes.

Each iteration draws a program, an initial memory, and an adversary
from the named-adversary registry (all pure functions of the fuzz
seed), computes the ideal fault-free oracle, then executes the program
through :class:`~repro.simulation.executor.RobustSimulator` on every
machine lane of the registry in :mod:`repro.pram.lanes` (``fast``,
``noff``, ``nokernel``, ``vec``, ``auto``, ``reference`` — the ``vec``
lane is skipped with a note when the optional numpy extra is absent,
``auto`` degrades to the scalar compiled lane instead),
under the same three-pass bit-identical convergence contract as
``repro chaos``: every (iteration, lane) memory must equal the oracle
*and* reproduce bit-identically across all passes.  A
:class:`~repro.experiments.chaos.ChaosPolicy` additionally injects
inline crashes, stalls and transient errors around executions (the
driver retries, and the retried run must still converge) — the
harness-level faults of PR 5 layered on top of the model-level
adversaries.

The robust phases' task cycles run on the task-carrying compiled
kernels on ``fast``, ``noff``, ``vec`` and ``auto`` (no vector program
takes task sets, so ``vec`` and ``auto`` run the scalar kernels) and
on generators on ``nokernel`` and ``reference``, so a kernel bug
diverges from the oracle on the kernel lanes only.

On mismatch the driver delta-debugs the program to a minimal
reproduction (:mod:`repro.fuzz.shrinker`) and emits a replayable JSON
fixture (:mod:`repro.fuzz.fixtures`).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import AlgorithmVX
from repro.experiments.chaos import ChaosCrash, ChaosError, ChaosPolicy
from repro.experiments.factories import build_named_adversary
from repro.faults import registry as adversary_registry
from repro.fuzz.generator import (
    DEFAULT_CONFIG,
    GeneratedProgram,
    GeneratorConfig,
    generate_initial_memory,
    generate_program,
    int_draw,
    unit_draw,
)
from repro.fuzz.oracle import ideal_run
from repro.fuzz.shrinker import shrink
from repro.pram.lanes import LANES, lane_available
from repro.simulation.executor import RobustSimulator

#: Adversaries the fuzzer draws from — the registry entries marked
#: ``fuzzable``: layout-agnostic and terminating for the simulator's
#: V+X engine (``stalker``/``acc-stalker``/``starver`` are bespoke to
#: one algorithm's layout, and the ``static-mem`` entries poison cells
#: that generated programs have no routing discipline for).  Kept in
#: registration order so a new registry entry extends the draw table
#: instead of permuting existing draws.
ADVERSARY_DRAWS: Tuple[str, ...] = adversary_registry.fuzz_names()


@dataclass(frozen=True)
class AdversarySpec:
    """A replayable adversary draw (registry name + parameters)."""

    name: str
    fail: float = 0.1
    restart_prob: float = 0.3
    seed: int = 0

    def build(self):
        return build_named_adversary(
            self.name, self.fail, self.restart_prob, self.seed
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "fail": self.fail,
            "restart_prob": self.restart_prob,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "AdversarySpec":
        return cls(
            name=str(data["name"]),
            fail=float(data["fail"]),
            restart_prob=float(data["restart_prob"]),
            seed=int(data["seed"]),
        )


def draw_adversary_spec(seed: int, iteration: int) -> AdversarySpec:
    """The adversary for ``(seed, iteration)`` — hash-derived, stable."""
    name = ADVERSARY_DRAWS[
        int_draw(seed, 0, len(ADVERSARY_DRAWS) - 1, "adv", iteration)
    ]
    fail = 0.05 + 0.25 * unit_draw(seed, "adv-fail", iteration)
    restart_prob = 0.2 + 0.4 * unit_draw(seed, "adv-restart", iteration)
    adversary_seed = int_draw(seed, 0, 2**31 - 1, "adv-seed", iteration)
    return AdversarySpec(
        name=name, fail=round(fail, 6), restart_prob=round(restart_prob, 6),
        seed=adversary_seed,
    )


def execute_lane(
    program: GeneratedProgram,
    initial: Sequence[int],
    lane: str,
    adversary_spec: AdversarySpec,
    p: int,
    max_ticks_per_phase: int = 300_000,
):
    """One robust execution of ``program`` on ``lane``; returns the
    SimulationResult."""
    simulator = RobustSimulator(
        p=p,
        algorithm=AlgorithmVX(),
        adversary=adversary_spec.build(),
        max_ticks_per_phase=max_ticks_per_phase,
        **LANES[lane].solver_kwargs(),
    )
    return simulator.execute(program.to_sim_program(), list(initial))


def _memory_digest(memory: Sequence[int]) -> str:
    return hashlib.sha256(
        json.dumps(list(memory)).encode("utf-8")
    ).hexdigest()


@dataclass
class FuzzFailure:
    """One detected divergence, before and after shrinking."""

    kind: str  # "mismatch" | "unsolved" | "nonconverged"
    iteration: int
    lane: str
    pass_index: int
    adversary: AdversarySpec
    p: int
    program: GeneratedProgram
    initial: List[int]
    expected: List[int]
    observed: Optional[List[int]]
    shrunk_program: Optional[GeneratedProgram] = None
    shrunk_initial: Optional[List[int]] = None
    #: Every lane the detecting run covered (registry order); replays
    #: re-check the fixture on all of them, not just the failing one.
    run_lanes: Tuple[str, ...] = ()

    def describe(self) -> str:
        size = len(self.program.steps)
        shrunk = (
            f", shrunk to {len(self.shrunk_program.steps)} step(s)"
            if self.shrunk_program is not None else ""
        )
        return (
            f"{self.kind} at iteration {self.iteration}, lane {self.lane}, "
            f"pass {self.pass_index}: {self.program.name} "
            f"({size} step(s), width {self.program.width}) under "
            f"{self.adversary.name}[seed={self.adversary.seed}] "
            f"on p={self.p}{shrunk}"
        )


@dataclass
class FuzzOutcome:
    """A fuzz run's verdict and accounting."""

    seed: int
    iterations: int
    passes: int
    lanes: Tuple[str, ...]
    converged: bool
    #: Requested lanes dropped because this environment cannot run them
    #: (today: ``vec`` without the optional numpy extra).
    skipped_lanes: Tuple[str, ...] = ()
    executions: int = 0
    injected: Dict[str, int] = field(default_factory=dict)
    adversary_histogram: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)
    fixture_paths: List[str] = field(default_factory=list)

    def summary(self) -> str:
        verdict = "CONVERGED" if self.converged else "DIVERGED"
        injected = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.injected.items())
        ) or "none"
        lines = [
            f"{verdict}: seed {self.seed}, {self.iterations} program(s) x "
            f"{len(self.lanes)} lane(s) x {self.passes} pass(es) = "
            f"{self.executions} robust executions, chaos injected {injected}",
        ]
        if self.skipped_lanes:
            lines.append(
                f"  skipped lane(s) {', '.join(self.skipped_lanes)}: "
                "the optional numpy extra is not installed"
            )
        lines.extend(
            f"  FAILURE: {failure.describe()}" for failure in self.failures
        )
        lines.extend(
            f"  fixture: {path}" for path in self.fixture_paths
        )
        return "\n".join(lines)


def _perturb_inline(policy: ChaosPolicy, point: int, attempt: int) -> None:
    """Act on the chaos plan like :meth:`ChaosPolicy.perturb`, but
    always inline: crashes surface as :class:`ChaosCrash` even inside a
    subprocess.  The fuzz driver's retry loop is the recovery path
    under test — the process tree (a remote worker's sandbox, say) must
    not die for it."""
    kind = policy.plan(point, attempt)
    if kind is None:
        return
    if kind in ("crash", "worker-kill"):
        raise ChaosCrash(
            f"chaos: injected crash (point {point}, attempt {attempt})"
        )
    if kind == "stall":
        deadline = time.monotonic() + policy.stall_s
        while time.monotonic() < deadline:
            pass
        return
    raise ChaosError(
        f"chaos: injected transient error "
        f"(point {point}, attempt {attempt})"
    )


@dataclass
class FuzzIterationResult:
    """One iteration's accounting, mergeable into a FuzzOutcome."""

    iteration: int
    executions: int
    injected: Dict[str, int]
    adversary: str
    failure: Optional[FuzzFailure]


def run_fuzz_iteration(
    seed: int,
    iteration: int,
    passes: int,
    lanes: Sequence[str],
    config: GeneratorConfig = DEFAULT_CONFIG,
    chaos: bool = True,
    chaos_retries: int = 4,
) -> FuzzIterationResult:
    """One complete fuzz iteration: draw, oracle, lanes x passes.

    Pure function of its arguments (every draw is hash-derived), so
    iterations can run locally in a loop or fan out across a remote
    worker fleet and produce identical results.  Shrinking and fixture
    emission stay with the caller.
    """
    program = generate_program(
        int_draw(seed, 0, 2**31 - 1, "program", iteration), config,
    )
    initial = generate_initial_memory(
        int_draw(seed, 0, 2**31 - 1, "initial", iteration),
        program.memory_size, config,
    )
    adversary_spec = draw_adversary_spec(seed, iteration)
    p = int_draw(seed, 1, 4, "p", iteration)
    expected = ideal_run(program, initial)
    policy = ChaosPolicy(
        seed=int_draw(seed, 0, 2**31 - 1, "chaos"),
        crash=0.02, stall=0.01, error=0.02, stall_s=0.01,
    ) if chaos else None

    executions = 0
    injected: Dict[str, int] = {}
    failure: Optional[FuzzFailure] = None
    digests: Dict[str, str] = {}
    for pass_index in range(passes):
        if failure is not None:
            break
        for lane in lanes:
            result = None
            point = (iteration * passes + pass_index) * len(LANES) \
                + list(LANES).index(lane)
            for attempt in range(1, chaos_retries + 2):
                try:
                    if policy is not None:
                        _perturb_inline(policy, point, attempt)
                    result = execute_lane(
                        program, initial, lane, adversary_spec, p
                    )
                    break
                except (ChaosCrash, ChaosError) as exc:
                    kind = ("crash" if isinstance(exc, ChaosCrash)
                            else "error")
                    injected[kind] = injected.get(kind, 0) + 1
            if result is None:  # pragma: no cover - retries exhausted
                raise RuntimeError(
                    f"chaos exhausted {chaos_retries} retries at "
                    f"iteration {iteration}, lane {lane}"
                )
            executions += 1

            failure_kind = None
            if not result.solved:
                failure_kind = "unsolved"
            elif result.memory != expected:
                failure_kind = "mismatch"
            else:
                digest = _memory_digest(result.memory)
                prior = digests.setdefault(lane, digest)
                if digest != prior:  # pragma: no cover - needs a bug
                    failure_kind = "nonconverged"
            if failure_kind is None:
                continue

            failure = FuzzFailure(
                kind=failure_kind,
                iteration=iteration,
                lane=lane,
                pass_index=pass_index,
                adversary=adversary_spec,
                p=p,
                program=program,
                initial=list(initial),
                expected=list(expected),
                observed=list(result.memory),
                run_lanes=tuple(lanes),
            )
            break  # stop re-running a known-bad (iteration, lane)
    return FuzzIterationResult(
        iteration=iteration,
        executions=executions,
        injected=injected,
        adversary=adversary_spec.name,
        failure=failure,
    )


@dataclass(frozen=True)
class FuzzIterationTask:
    """A fuzz iteration shaped like a sweep point for the remote
    backend: ``sweep``/``index``/``cache_key()`` for scheduling and a
    ``to_wire_job`` whose ``run`` executes the iteration in the worker
    sandbox.  ``cache_key`` is ``None`` on purpose — fuzz results do
    not land in the shared sweep store."""

    seed: int
    iteration: int
    passes: int
    lanes: Tuple[str, ...]
    config: GeneratorConfig
    chaos: bool
    chaos_retries: int

    @property
    def sweep(self) -> str:
        return f"fuzz/{self.seed}"

    @property
    def index(self) -> int:
        return self.iteration

    def cache_key(self) -> Optional[str]:
        return None

    def to_wire_job(self) -> "FuzzIterationTask":
        return self

    def run(self, timeout=None, chaos=None, attempt=1):
        started = time.perf_counter()
        result = run_fuzz_iteration(
            seed=self.seed, iteration=self.iteration, passes=self.passes,
            lanes=self.lanes, config=self.config, chaos=self.chaos,
            chaos_retries=self.chaos_retries,
        )
        return "ok", result, time.perf_counter() - started


def _failure_predicate(
    lane: str, adversary_spec: AdversarySpec, p: int
) -> Callable[[GeneratedProgram, List[int]], bool]:
    """Does a candidate still diverge from its oracle on this lane?"""

    def is_failing(program: GeneratedProgram, initial: List[int]) -> bool:
        try:
            expected = ideal_run(program, initial)
            result = execute_lane(program, initial, lane, adversary_spec, p)
        except ValueError:
            return False
        return not result.solved or result.memory != expected

    return is_failing


def run_fuzz(
    seed: int = 0,
    iterations: int = 100,
    passes: int = 3,
    lanes: Sequence[str] = tuple(LANES),
    config: GeneratorConfig = DEFAULT_CONFIG,
    chaos: bool = True,
    chaos_retries: int = 4,
    fixture_dir: Optional[str] = None,
    max_fixtures: int = 5,
    shrink_budget: int = 250,
    backend: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzOutcome:
    """The fuzz soak: seeded programs, registry lanes, three passes.

    Convergence means every (iteration, lane, pass) execution solved
    and ended bit-identical to the ideal fault-free oracle — which also
    makes every pass bit-identical to every other, the ``repro chaos``
    contract.  Pass-to-pass divergence with a correct oracle match is
    impossible, but is still checked independently (``nonconverged``)
    so a nondeterminism bug cannot hide behind a coincidentally-correct
    final memory digest.

    ``backend="remote:host:port"`` fans complete iterations out across
    a ``repro serve`` daemon's worker fleet (each iteration is a pure
    function of the seed, so results are identical to a local run and
    are merged in iteration order); ``None``/``"serial"`` runs the loop
    in-process.  Shrinking and fixture emission always happen locally.
    """
    requested = list(lanes)
    unknown = [lane for lane in requested if lane not in LANES]
    if unknown:
        raise ValueError(f"unknown lane(s) {unknown}; known: {list(LANES)}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    if backend not in (None, "serial") \
            and not str(backend).startswith("remote:"):
        raise ValueError(
            f"fuzz backend must be 'serial' or 'remote:host:port', got "
            f"{backend!r} (iterations are not sweep points; the local "
            f"process pool does not apply)"
        )

    def emit(line: str) -> None:
        if log is not None:
            log(line)

    active = [lane for lane in requested if lane_available(lane)]
    skipped = tuple(lane for lane in requested if lane not in active)
    if not active:
        raise ValueError(
            f"no runnable lanes left from {requested}: "
            f"{list(skipped)} need the optional numpy extra "
            "(pip install .[numpy])"
        )
    for lane in skipped:
        emit(
            f"skipping lane {lane!r}: the optional numpy extra is not "
            "installed"
        )

    outcome = FuzzOutcome(
        seed=seed, iterations=iterations, passes=passes,
        lanes=tuple(active), converged=True, skipped_lanes=skipped,
    )
    shrinks_left = max_fixtures

    def absorb(result: FuzzIterationResult) -> None:
        nonlocal shrinks_left
        outcome.executions += result.executions
        for kind, count in result.injected.items():
            outcome.injected[kind] = outcome.injected.get(kind, 0) + count
        outcome.adversary_histogram[result.adversary] = (
            outcome.adversary_histogram.get(result.adversary, 0) + 1
        )
        failure = result.failure
        if failure is None:
            return
        outcome.converged = False
        outcome.failures.append(failure)
        emit(f"FAILURE: {failure.describe()}")
        if shrinks_left > 0:
            shrinks_left -= 1
            predicate = _failure_predicate(
                failure.lane, failure.adversary, failure.p
            )
            if predicate(failure.program, list(failure.initial)):
                shrunk, shrunk_initial = shrink(
                    failure.program, failure.initial, predicate,
                    max_evaluations=shrink_budget,
                )
                failure.shrunk_program = shrunk
                failure.shrunk_initial = shrunk_initial
                emit(
                    f"shrunk to {len(shrunk.steps)} step(s), "
                    f"width {shrunk.width}"
                )
            if fixture_dir is not None:
                from repro.fuzz.fixtures import dump_fixture

                path = dump_fixture(fixture_dir, failure)
                outcome.fixture_paths.append(str(path))
                emit(f"fixture written: {path}")

    if backend in (None, "serial"):
        for iteration in range(iterations):
            absorb(run_fuzz_iteration(
                seed, iteration, passes, tuple(active), config,
                chaos, chaos_retries,
            ))
        return outcome

    # Remote fan-out: one task per iteration, results merged in
    # iteration order so the outcome (and any fixtures) are identical
    # to a local run regardless of fleet scheduling.
    from repro.experiments.backends.remote import RemoteBackend

    client = RemoteBackend(str(backend), timeout=None, chaos=None,
                           resume=False)
    by_iteration: Dict[int, FuzzIterationResult] = {}
    attempts: Dict[int, int] = {}
    try:
        for iteration in range(iterations):
            task = FuzzIterationTask(
                seed=seed, iteration=iteration, passes=passes,
                lanes=tuple(active), config=config, chaos=chaos,
                chaos_retries=chaos_retries,
            )
            attempts[iteration] = 1
            client.submit(task, 1)
        outstanding = iterations
        while outstanding:
            for res in client.collect():
                iteration = res.point.iteration
                if res.status == "ok":
                    by_iteration[iteration] = res.payload
                    outstanding -= 1
                elif attempts[iteration] < 3:
                    # A worker died mid-iteration (fleet-level fault,
                    # not a fuzz finding); re-run the pure function.
                    attempts[iteration] += 1
                    emit(f"iteration {iteration} lost to a worker "
                         f"fault ({res.status}); resubmitting")
                    client.submit(res.point, attempts[iteration])
                else:
                    raise RuntimeError(
                        f"fuzz iteration {iteration} failed remotely "
                        f"after {attempts[iteration]} attempts "
                        f"({res.status}): {res.payload}"
                    )
    finally:
        client.close()
    for iteration in range(iterations):
        absorb(by_iteration[iteration])
    return outcome
