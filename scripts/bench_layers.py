"""Per-call timings of the reaction-term, frame and subspace layers; prints one JSON line.

Times `qform`, `bform` (two distinct tensors), `rk4_step` and `dop853_step`
(one accepted step of `integrate_q_flow`: Q(R) into the first row of the
stage buffer, then `flow._dop853_step`, 12 reaction terms) at each size on
a projected Gaussian tensor, `project_to_curvature` of the Gaussian rank-4
table, and the frame layers on the same tensor: the batched isotropic value
and gradient `_iso_value_grad` and the QR retraction `_retract`, each on a
stack of FRAMES frames, the isotropic value `isotropic_from_columns` of one
frame, and a whole `min_isotropic` search with FRAMES restarts at optimizer
seed 0 (FRAMES + 1 rows: the restarts and the best axis-aligned frame),
whose total descent iterations, stack passes and the count of its
rows per stop reason (`grad_tol`, `line_search_floor`, `max_iters`) are
reported beside its time, and a whole `min_orthogonal_bisectional` search
(standard J, the same restarts and seed), whose total descent iterations
and stack passes are reported beside its time.  A stack pass is one
value-and-gradient call on a search's descent stack; a stack runs as long as
its slowest row, so passes, not iterations, are the work of a search.  The
subspace constructors are timed at their own sizes:
`curvature_space_basis` and `kahler_subspace` (standard J) at SPACE_SIZES,
`hyperkahler_subspace` (standard triple) at those divisible by 4 (4, 8 and
12), and `qk_q_bound_check` at n = 8 on QK_SAMPLES hyper-Kahler samples
(seeds 0, 1, ...; 4 restarts, as in the verify suite), twice: one call per
sample (`qk_q_bound_check`) and one call on the whole list, whose searches
run as one descent stack (`qk_q_bound_check_batched`, whose stack passes are
reported), each timed by one pass divided by QK_SAMPLES;
`maximizer_first_order_check` is timed at n = 8 on the first of those
samples, at its maximizer for I.  Every other time is the mean of
back-to-back calls (CALLS, or SEARCH_CALLS for the searches and the
subspaces).  Each layer is timed REPEATS times and reported, in microseconds
per call, as {"best", "q1", "median", "q3"} over those repeats: the best is
the least noisy estimate of the cost, and the quartiles show the noise band a
difference between two trees must clear.  Run from the repository root as
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

import curvkit.frames  # noqa: E402
from curvkit.core import (_stored, bform, isotropic_from_columns,  # noqa: E402
                          project_to_curvature, qform, standard_complex_structure,
                          standard_quaternion_triple)
from curvkit.flow import _dop853_step, rk4_step  # noqa: E402
from curvkit.frames import (STOP_REASONS, OptimizerConfig, _iso_value_grad,  # noqa: E402
                            _retract, max_holomorphic_sectional, maximizer_first_order_check,
                            min_isotropic, min_orthogonal_bisectional, qk_q_bound_check)
from curvkit.spaces import (curvature_space_basis, hyperkahler_subspace,  # noqa: E402
                            kahler_subspace, sample)

SIZES = (4, 6, 8, 12)
SPACE_SIZES = (4, 6, 8, 10, 12)
REPEATS = 7
CALLS = 50
SEARCH_CALLS = 3
FRAMES = 16
QK_SAMPLES = 20
SEED = 0


def timed(fn, calls: int = CALLS, per: int = 1) -> dict:
    """Best, quartiles and median over REPEATS of the mean microseconds per
    call of ``calls`` calls, each call counting as ``per`` calls."""
    fn()
    means = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        means.append(1e6 * (time.perf_counter() - t0) / (calls * per))
    q1, median, q3 = np.percentile(means, [25, 50, 75])
    return {"best": round(min(means), 2), "q1": round(q1, 2), "median": round(median, 2),
            "q3": round(q3, 2)}


def stack_passes(search) -> int:
    """Value-and-gradient calls of the descents that one call of ``search`` runs."""
    passes = 0
    descend = curvkit.frames._descend

    def counting(value_grad, F0, cfg, on_iterate=None):
        def counted(F, rows):
            nonlocal passes
            passes += 1
            return value_grad(F, rows)
        return descend(counted, F0, cfg, on_iterate)

    curvkit.frames._descend = counting
    try:
        search()
    finally:
        curvkit.frames._descend = descend
    return passes


def dop853_step(R, h: float):
    """Factory of one accepted DOP853 step of ``integrate_q_flow`` from R, on
    a stage buffer allocated once, as the integrator allocates it."""
    K = np.empty((12,) + R.mat.shape)

    def q(M):
        return qform(_stored(M, R.n)).mat

    def step():
        K[0] = q(R.mat)
        return _dop853_step(R, K, h, q)

    return step


def main() -> int:
    rng = np.random.default_rng(SEED)
    names = ("qform", "bform", "rk4_step", "dop853_step", "project_to_curvature",
             "_iso_value_grad", "_retract", "isotropic_from_columns", "min_isotropic",
             "min_orthogonal_bisectional", "curvature_space_basis",
             "kahler_subspace", "hyperkahler_subspace", "qk_q_bound_check",
             "qk_q_bound_check_batched", "maximizer_first_order_check")
    layers = {name: {} for name in names}
    iterations, stop_reasons, bis_iterations = {}, {}, {}
    passes, bis_passes = {}, {}
    cfg = OptimizerConfig(restarts=FRAMES, seed=0)
    for n in SIZES:
        table, other = (rng.standard_normal((n, n, n, n)) for _ in range(2))
        R, S = project_to_curvature(table), project_to_curvature(other)
        h = 1e-3 / R.norm()
        raw = rng.standard_normal((FRAMES, n, 4))
        frames = _retract(raw)
        value_grad = _iso_value_grad(R.mat, n)
        J = standard_complex_structure(n)
        for name, fn, calls in (("qform", lambda: qform(R), CALLS),
                                ("bform", lambda: bform(R, S), CALLS),
                                ("rk4_step", lambda: rk4_step(R, h), CALLS),
                                ("dop853_step", dop853_step(R, h), CALLS),
                                ("project_to_curvature",
                                 lambda: project_to_curvature(table), CALLS),
                                ("_iso_value_grad", lambda: value_grad(frames), CALLS),
                                ("_retract", lambda: _retract(raw), CALLS),
                                ("isotropic_from_columns",
                                 lambda: isotropic_from_columns(R.mat, frames[0]), CALLS),
                                ("min_isotropic", lambda: min_isotropic(R, cfg), SEARCH_CALLS),
                                ("min_orthogonal_bisectional",
                                 lambda: min_orthogonal_bisectional(R, J, cfg), SEARCH_CALLS)):
            layers[name][str(n)] = timed(fn, calls)
        res = min_isotropic(R, cfg)
        iterations[str(n)] = sum(res.restart_iterations)
        stop_reasons[str(n)] = {r: res.restart_stop_reasons.count(r) for r in STOP_REASONS}
        bis_iterations[str(n)] = sum(min_orthogonal_bisectional(R, J, cfg).restart_iterations)
        passes[str(n)] = stack_passes(lambda: min_isotropic(R, cfg))
        bis_passes[str(n)] = stack_passes(lambda: min_orthogonal_bisectional(R, J, cfg))
    for n in SPACE_SIZES:
        J = standard_complex_structure(n)
        for name, fn in (("curvature_space_basis", lambda: curvature_space_basis(n)),
                         ("kahler_subspace", lambda: kahler_subspace(J))):
            layers[name][str(n)] = timed(fn, SEARCH_CALLS)
        if n % 4 == 0:
            T = standard_quaternion_triple(n)
            layers["hyperkahler_subspace"][str(n)] = timed(lambda: hyperkahler_subspace(T),
                                                           SEARCH_CALLS)
    T = standard_quaternion_triple(8)
    hk = hyperkahler_subspace(T)
    tensors = [sample(hk, seed=seed) for seed in range(QK_SAMPLES)]
    qk_cfg = OptimizerConfig(restarts=4, seed=0)
    layers["qk_q_bound_check"]["8"] = timed(
        lambda: [qk_q_bound_check(R1, T, qk_cfg) for R1 in tensors], 1, QK_SAMPLES)
    layers["qk_q_bound_check_batched"]["8"] = timed(
        lambda: qk_q_bound_check(tensors, T, qk_cfg), 1, QK_SAMPLES)
    qk_passes = stack_passes(lambda: qk_q_bound_check(tensors, T, qk_cfg))
    x = max_holomorphic_sectional(tensors[0], T.I, qk_cfg).frame_or_vector
    layers["maximizer_first_order_check"]["8"] = timed(
        lambda: maximizer_first_order_check(tensors[0], T.I, x))

    print(json.dumps({"unit": "us_per_call", "layers": layers,
                      "min_isotropic_iterations": iterations,
                      "min_isotropic_passes": passes,
                      "min_isotropic_stop_reasons": stop_reasons,
                      "min_orthogonal_bisectional_iterations": bis_iterations,
                      "min_orthogonal_bisectional_passes": bis_passes,
                      "qk_q_bound_check_batched_passes": qk_passes, "repeats": REPEATS,
                      "calls": CALLS, "search_calls": SEARCH_CALLS, "frames": FRAMES,
                      "qk_samples": QK_SAMPLES, "seed": SEED, "numpy": np.__version__,
                      "python": sys.version.split()[0], "cpus": os.cpu_count()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
