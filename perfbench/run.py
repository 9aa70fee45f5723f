"""The repository's end-to-end benchmark, with per-layer attribution.

Usage (from the repository root)::

    python3 perfbench/run.py --workload writeall-online --seed 0 \\
        --seconds 25 --trace 0

Workloads: ``writeall-online``, ``writeall-quiet``, ``simulate-thm41``
and ``sweep-lowerbound`` (``BENCHMARK.json`` says why each was chosen).
Each is a closed loop with one client: a pass starts when the previous
one finished, for ``--seconds`` seconds (at least ``MIN_PASSES``
passes).

``--trace 0`` prints the end-to-end metrics (``wall_s``,
``cycles_per_s``, ``setup_s``, ``peak_rss_mb``), measured without
tracing.  ``--trace 1`` runs one untraced pass and two traced passes,
prints the per-layer metrics, checks that the two traced passes give
identical deterministic counts, and writes the spans to
``.perfbench/trace-<workload>-<seed>.json``.

Every instance's output is checked; on the default seed the counts
S, S', |F| and ticks (and the sweep's fitted exponents) must also equal
``perfbench/expected.json``.  The last line of standard output is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``); the
exit code is 1 when any check failed.  ``--record`` rewrites
``expected.json`` from one pass of every workload on the default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 0
#: String hashing is salted per process, which gives every run its own
#: dict layouts and moves timings by several percent; every run of the
#: benchmark (and its set-up probes) uses this salt instead.
HASH_SEED = "0"
MIN_PASSES = 3
#: The host facts recorded beside the expected counts.
ENVIRONMENT_KEYS = ("cpu_count", "machine", "python", "numpy",
                    "load_avg_1min")
SETUP_REPEATS = 5
#: Counts that must repeat exactly across two traced passes of one seed.
DETERMINISTIC = ("pram.ticks", "pram.fused_ticks", "S",
                 "faults.decide_calls", "experiments.executed",
                 "experiments.cache_hits")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json on the default seed")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    return args


def setup_times(name: str, seed: int, repeats: int):
    """Run the set-up probe in ``repeats`` fresh interpreters."""
    probes = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


def closed_loop(workload, seconds: float):
    """Run passes back to back until the next would overrun ``seconds``."""
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(workload.run_pass(Clock()))
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + passes[-1].wall_s > seconds:
            return passes


# ---------------------------------------------------------------------- #
# correctness
# ---------------------------------------------------------------------- #


def load_expected():
    return json.loads((HERE / "expected.json").read_text())


def check(name: str, seed: int, passes, expected):
    """Verdicts over every instance of every pass: (attempted, problems).

    Seed-independent checks: each instance's own verdict, and the same
    counts on every pass.  On the recorded seed the counts and fitted
    exponents must also equal the recorded values.
    """
    recorded = None
    if expected["seed"] == seed:
        recorded = expected["workloads"][name]
    problems, attempted = [], 0
    first = {i.label: i.counts for i in passes[0].instances}
    for index, result in enumerate(passes):
        for instance in result.instances:
            attempted += 1
            if not instance.ok:
                problems.append(f"pass {index} {instance.label}: {instance.why}")
            elif instance.counts != first[instance.label]:
                problems.append(f"pass {index} {instance.label}: counts "
                                f"{instance.counts} != {first[instance.label]}")
            elif recorded is not None and instance.counts and (
                instance.counts != recorded["instances"].get(instance.label)
            ):
                problems.append(f"pass {index} {instance.label}: counts "
                                f"{instance.counts} differ from expected.json")
        for sweep, exponent in result.extra.get("exponents", {}).items():
            want = None if recorded is None else \
                recorded["exponents"].get(sweep)
            if recorded is not None and (
                want is None or not math.isclose(exponent, want,
                                                 rel_tol=1e-9)
            ):
                problems.append(f"pass {index} {sweep}: fitted exponent "
                                f"{exponent} != expected {want}")
    return attempted, problems


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, seed: int, seconds: float):
    probes = setup_times(workload.name, seed, SETUP_REPEATS)
    workload.warm_up()
    passes = closed_loop(workload, seconds)
    refs = [p.ref_s for p in passes]
    walls = [p.wall_s for p in passes]
    # A typical pass: the median of each unit's reference seconds over
    # the passes, summed, so one disturbed unit moves only its own median.
    typical_s = sum(
        statistics.median(units) for units in zip(
            *([ref for _, ref in p.units] for p in passes)
        )
    )
    metrics = {
        "wall_s": typical_s,
        "cycles_per_s": passes[0].completed_work / typical_s,
        "setup_s": statistics.median(p["setup_ref_s"] for p in probes),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        f"{len(passes)} passes, closed loop with one client",
        "reference seconds per pass: "
        + ", ".join(f"{ref:.4f}" for ref in refs),
        "host seconds per pass: " + ", ".join(f"{w:.4f}" for w in walls)
        + f" (host wall_s median {statistics.median(walls):.4f} s)",
        f"setup_s from {len(probes)} fresh interpreters, host seconds: "
        + ", ".join(f"{p['setup_s']:.4f}" for p in probes),
    ]
    return passes, metrics, notes


def traced_pass(workload, **kwargs):
    """One pass under a fresh tracer; the dispatch model re-probes first."""
    from repro.pram.dispatch import set_model
    from tracing import Tracer

    set_model(None)
    tracer = Tracer()
    with tracer.install():
        tracer.active = True
        result = workload.run_pass(Clock(tracer), **kwargs)
        tracer.active = False
    return tracer, result


def layer_values(tracer, result, workload_name: str):
    """Per-layer metrics of one traced pass."""
    totals = tracer.totals()
    counts, phases = tracer.counts, tracer.phases

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def seconds(name, column=1):
        return totals.get(name, [0, 0.0, 0.0])[column]

    layout_s = seconds("core.build_layout") + seconds("core.initialize_memory")
    loads = counts["pram.loads"] or 1
    ticks = counts["pram.ticks"]
    extra = result.extra
    values = {
        "core.layouts": calls("core.build_layout"),
        "core.layout_s": layout_s,
        "core.verify_s": seconds("core.verify"),
        "pram.ticks": ticks,
        "pram.fused_ticks": phases.fused_ticks,
        "pram.fused_share": phases.fused_ticks / ticks if ticks else 0.0,
        "pram.collect_s": phases.collect_s,
        "pram.adversary_s": phases.adversary_s,
        "pram.resolve_s": phases.resolve_s,
        "pram.settle_s": phases.settle_s,
        "pram.run_self_s": seconds("pram.run", 2),
        "pram.us_per_cycle": (
            1e6 * seconds("pram.run") / counts["pram.charged"]
            if counts["pram.charged"] else 0.0
        ),
        "pram.kernel_share": counts["pram.kernel_loads"] / loads,
        "pram.vec_share": counts["pram.vec_loads"] / loads,
        "pram.dispatch_vec": counts["pram.dispatch_vec"],
        "pram.dispatch_scalar": counts["pram.dispatch_scalar"],
        "faults.decide_calls": calls("faults.decide"),
        "faults.decide_s": seconds("faults.decide"),
        "faults.quiet_until_calls": calls("faults.quiet_until"),
        "simulation.phases": sum(
            i.counts.get("phases", 0) for i in result.instances
        ),
        "simulation.phase_setup_s": (
            seconds("simulation.execute") - seconds("pram.run") - layout_s
            if workload_name == "simulate-thm41" else 0.0
        ),
        "experiments.points": extra.get("points", 0),
        "experiments.executed": extra.get("executed", 0),
        "experiments.cache_hits": extra.get("cache_hits", 0),
        "experiments.retries": extra.get("retries", 0),
        "experiments.cache_store_s": seconds("experiments.cache_store"),
        "experiments.cache_load_s": seconds("experiments.cache_load"),
        "S": result.completed_work,
    }
    for layer, self_s in tracer.layer_self_s().items():
        values[f"{layer}.self_s"] = self_s
    return values


def per_layer(workload, seed: int, units):
    """Untraced reference pass(es), then two traced passes."""
    import workloads

    probes = setup_times(workload.name, seed, 3)
    workload.warm_up()
    is_sweep = isinstance(workload, workloads.Sweep)
    # Traced sweeps run their points in this process (serial backend) so
    # the spans of the fault, machine and core layers are visible; the
    # untraced pool pass gives the engine's overhead share.
    kwargs = {"backend": "serial"} if is_sweep else {}
    passes = [workload.run_pass(Clock())] if is_sweep else []
    reference = workload.run_pass(Clock(), **kwargs)
    traced = [traced_pass(workload, **kwargs) for _ in range(2)]
    passes += [reference] + [result for _, result in traced]
    first, second = (
        rescale(layer_values(t, r, workload.name), r.ref_s / r.wall_s, units)
        for t, r in traced
    )
    metrics = {
        key: (value + second[key]) / 2
        if isinstance(value, float) else value
        for key, value in first.items()
    }
    metrics.pop("S")
    metrics["pram.dispatch_spread"] = max(
        abs(first[k] - second[k])
        for k in ("pram.dispatch_vec", "pram.dispatch_scalar")
    )
    metrics["cli.import_s"] = statistics.median(
        p["import_ref_s"] for p in probes
    )
    metrics["cli.numpy_eager"] = int(any(p["numpy_eager"] for p in probes))
    pool = passes[0].extra if is_sweep else {}
    metrics["experiments.overhead_share"] = pool.get("overhead_share", 0.0)
    metrics["experiments.warm_s"] = pool.get("warm_s", 0.0)
    metrics["trace.overhead"] = (
        statistics.mean(r.ref_s for _, r in traced) / reference.ref_s
    )
    drift = [
        f"traced passes disagree on {key}: {first[key]} != {second[key]}"
        for key in DETERMINISTIC if first[key] != second[key]
    ]
    notes = [
        f"untraced pass {reference.ref_s:.4f} reference s, traced "
        + ", ".join(f"{r.ref_s:.4f}" for _, r in traced),
    ]
    dump = {
        "workload": workload.name,
        "seed": seed,
        "passes": [
            {"wall_s": result.wall_s, "ref_s": result.ref_s, **tracer.dump()}
            for tracer, result in traced
        ],
        "metrics": metrics,
    }
    return passes, metrics, notes, drift, dump


def rescale(values, factor: float, units):
    """Times of a traced pass in reference seconds (``factor`` per host s)."""
    return {
        key: value * factor
        if key in units and units[key]["unit"] in ("s", "us") else value
        for key, value in values.items()
    }


# ---------------------------------------------------------------------- #
# entry points
# ---------------------------------------------------------------------- #


def record() -> int:
    """Rewrite expected.json from one pass per workload on the default seed."""
    import workloads
    from repro.metrics.report import environment_section

    recorded = {}
    for name in workloads.NAMES:
        workload = workloads.build(name, DEFAULT_SEED, str(WORK_DIR))
        result = workload.run_pass(Clock())
        entry = {"instances": {
            i.label: i.counts for i in result.instances if i.counts
        }}
        if "exponents" in result.extra:
            entry["exponents"] = result.extra["exponents"]
        recorded[name] = entry
        print(f"{name}: {len(entry['instances'])} instances recorded")
    environment = environment_section()
    payload = {
        "seed": DEFAULT_SEED,
        "environment": {key: environment[key] for key in ENVIRONMENT_KEYS},
        "workloads": recorded,
    }
    (HERE / "expected.json").write_text(json.dumps(payload, indent=1) + "\n")
    return 0


def stop_children() -> None:
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    args = parse_args(sys.argv[1:])
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORK_DIR.mkdir(exist_ok=True)
    import workloads

    if args.record:
        return record()
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    from repro.metrics.report import environment_section

    catalogue = json.loads((HERE / "metrics.json").read_text())
    workload = workloads.build(args.workload, args.seed, str(WORK_DIR))
    try:
        if args.trace:
            units = catalogue["per_layer"]
            passes, values, notes, drift, dump = per_layer(
                workload, args.seed, units
            )
        else:
            passes, values, notes = end_to_end(
                workload, args.seed, args.seconds
            )
            drift, dump = [], None
            units = catalogue["end_to_end"]
    finally:
        stop_children()
    attempted, found = check(args.workload, args.seed, passes,
                             load_expected())
    # The traced run's determinism self-check counts as one instance.
    attempted += args.trace
    failed = len(found) + bool(drift)
    problems = found + drift
    environment = environment_section()
    if dump is not None:
        dump["environment"] = environment
        dump["problems"] = problems
        path = WORK_DIR / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(dump) + "\n")
        notes.append(f"spans written to {path.relative_to(ROOT)}")

    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, lane auto")
    for note in notes:
        print("  " + note)
    for problem in problems:
        print("  FAILED " + problem)
    for name in units:
        value = values[name]
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {name:<28} {shown} {units[name]['unit']}")
    print(f"  {'failed_frac':<28} {failed / attempted:>16.6f} ratio "
          f"({failed} of {attempted} instances)")
    print(f"  environment: nproc {environment['cpu_count']}, python "
          f"{environment['python']}, numpy {environment['numpy']}, "
          f"load {environment['load_avg_1min']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]["unit"]}
            for name in units
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
