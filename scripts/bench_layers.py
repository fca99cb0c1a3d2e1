"""Best-of-k per-call timings of the reaction-term and frame layers; prints one JSON line.

Times `qform`, `bform` (two distinct tensors) and `rk4_step` at each size on
a projected Gaussian tensor, and the frame layers on the same tensor: the
batched isotropic value and gradient `_iso_value_grad` and the QR retraction
`_retract`, each on a stack of FRAMES frames, and a whole `min_isotropic`
search with FRAMES restarts at optimizer seed 0, whose total descent
iterations are reported beside its time.  Each time is the best over REPEATS
of the mean of back-to-back calls (CALLS, or SEARCH_CALLS for the search), in
microseconds.  Run from the repository root as
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
from curvkit.frames import (OptimizerConfig, _iso_value_grad, _retract,  # noqa: E402
                            min_isotropic)

SIZES = (4, 6, 8, 12)
REPEATS = 7
CALLS = 50
SEARCH_CALLS = 3
FRAMES = 16
SEED = 0


def best_of(fn, calls: int = CALLS) -> float:
    """Best over REPEATS of the mean seconds per call of ``calls`` calls."""
    fn()
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def main() -> int:
    rng = np.random.default_rng(SEED)
    names = ("qform", "bform", "rk4_step", "_iso_value_grad", "_retract", "min_isotropic")
    layers = {name: {} for name in names}
    iterations = {}
    cfg = OptimizerConfig(restarts=FRAMES, seed=0)
    for n in SIZES:
        R, S = (project_to_curvature(rng.standard_normal((n, n, n, n))) for _ in range(2))
        h = 1e-3 / R.norm()
        raw = rng.standard_normal((FRAMES, n, 4))
        frames = _retract(raw)
        value_grad = _iso_value_grad(R.mat, n)
        for name, fn, calls in (("qform", lambda: qform(R), CALLS),
                                ("bform", lambda: bform(R, S), CALLS),
                                ("rk4_step", lambda: rk4_step(R, h), CALLS),
                                ("_iso_value_grad", lambda: value_grad(frames), CALLS),
                                ("_retract", lambda: _retract(raw), CALLS),
                                ("min_isotropic", lambda: min_isotropic(R, cfg), SEARCH_CALLS)):
            layers[name][str(n)] = round(1e6 * best_of(fn, calls), 2)
        iterations[str(n)] = sum(min_isotropic(R, cfg).restart_iterations)

    print(json.dumps({"unit": "us_per_call", "layers": layers,
                      "min_isotropic_iterations": iterations, "repeats": REPEATS,
                      "calls": CALLS, "search_calls": SEARCH_CALLS, "frames": FRAMES,
                      "seed": SEED, "numpy": np.__version__,
                      "python": sys.version.split()[0], "cpus": os.cpu_count()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
