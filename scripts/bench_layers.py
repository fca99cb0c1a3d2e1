"""Best-of-k per-call timings of the reaction-term layers; prints one JSON line.

Times `qform`, `bform` (two distinct tensors) and `rk4_step` at each size on
a projected Gaussian tensor, as the best over REPEATS of the mean of CALLS
back-to-back calls, in microseconds.  Run from the repository root as
``PYTHONPATH=src python scripts/bench_layers.py``; point PYTHONPATH at another
checkout's ``src`` to time that tree with the same script.
"""

import json
import os
import sys
import time

# One BLAS thread, as in bench/run.py.  Must precede numpy's import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from curvkit.core import bform, project_to_curvature, qform  # noqa: E402
from curvkit.flow import rk4_step  # noqa: E402

SIZES = (4, 6, 8, 12)
REPEATS = 7
CALLS = 50
SEED = 0


def best_of(fn) -> float:
    """Best over REPEATS of the mean seconds per call of CALLS calls."""
    fn()
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(CALLS):
            fn()
        best = min(best, (time.perf_counter() - t0) / CALLS)
    return best


def main() -> int:
    rng = np.random.default_rng(SEED)
    layers = {"qform": {}, "bform": {}, "rk4_step": {}}
    for n in SIZES:
        R, S = (project_to_curvature(rng.standard_normal((n, n, n, n))) for _ in range(2))
        h = 1e-3 / R.norm()
        for name, fn in (("qform", lambda: qform(R)), ("bform", lambda: bform(R, S)),
                         ("rk4_step", lambda: rk4_step(R, h))):
            layers[name][str(n)] = round(1e6 * best_of(fn), 2)

    print(json.dumps({"unit": "us_per_call", "layers": layers, "repeats": REPEATS,
                      "calls": CALLS, "seed": SEED, "numpy": np.__version__,
                      "python": sys.version.split()[0], "cpus": os.cpu_count()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
