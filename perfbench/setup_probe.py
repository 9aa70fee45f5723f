"""Set-up time of one workload, measured in a fresh interpreter.

Usage (from the repository root)::

    python3 perfbench/setup_probe.py <workload> <seed>

Times ``import repro.cli``, the layout, memory and machine construction
of the workload's first instance, the once-per-process dispatch probe
(``repro.pram.dispatch.get_model``) and, for the sweep, the start-up of
a process pool as large as the engine's.  Two calibration spins after
the measured steps rescale the times to reference-host seconds (see
``clock.py``).  Prints one JSON object.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import repro.cli  # noqa: F401
    import_s = time.perf_counter() - started
    numpy_eager = "numpy" in sys.modules

    import workloads
    from clock import host_factor, spin
    from repro.pram.dispatch import get_model

    workload = workloads.build(name, seed, str(ROOT / ".perfbench"))
    started = time.perf_counter()
    workload.first_instance()
    build_s = time.perf_counter() - started
    started = time.perf_counter()
    get_model()
    probe_s = time.perf_counter() - started
    pool_s = 0.0
    if isinstance(workload, workloads.Sweep):
        from concurrent.futures import ProcessPoolExecutor

        started = time.perf_counter()
        with ProcessPoolExecutor(max_workers=workload.workers) as pool:
            list(pool.map(abs, range(workload.workers)))
            pool_s = time.perf_counter() - started
    factor = host_factor([spin(), spin()])
    setup_s = import_s + build_s + probe_s + pool_s
    print(json.dumps({
        "import_s": import_s,
        "numpy_eager": numpy_eager,
        "build_s": build_s,
        "probe_s": probe_s,
        "pool_s": pool_s,
        "setup_s": setup_s,
        "host_factor": factor,
        "import_ref_s": import_s * factor,
        "setup_ref_s": setup_s * factor,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
