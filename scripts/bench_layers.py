"""Per-call timings of the reaction-term, frame and subspace layers; prints one JSON line.

Times `qform`, its bare kernel `_reaction_terms` (no Bianchi or finiteness
check, so the checks' share of a `qform` call is the difference),
`bform` (two distinct tensors), `rk4_step` and `dop853_step`
(one accepted step of `integrate_q_flow` in its clock dtau = |M| dt on the
flat state (U, log |M|, t): the derivative at the state, through `qform`,
into the first row of the stage buffer, then `flow._dop853_step` with the
bare kernel at its 11 stages; its reaction terms per step, 12, are
reported) at each size on a projected Gaussian tensor,
`project_to_curvature` of the Gaussian rank-4 table, and the frame layers on
the same tensor: the batched isotropic value and gradient `_iso_value_grad`
and the Cholesky-QR retraction `_retract`, beside numpy's sign-fixed QR of
the same map (`_orthonormalize`, which orthonormalizes a search's starts),
each on a stack of FRAMES Gaussian frames, the isotropic value
`isotropic_from_columns` of one frame, and a whole `min_isotropic` search
with FRAMES restarts at optimizer seed 0 (FRAMES + 1 rows: the restarts and
the best axis-aligned frame),
whose total descent iterations, stack passes and the count of its
rows per stop reason (`grad_tol`, `line_search_floor`, `max_iters`, `certified`) are
reported beside its time, the certificate layer, Ky Fan's bound
`_ky_fan_bound` of the tensor (one `eigvalsh`) and a whole `min_isotropic`
of the Fubini-Study model (c = 4), which its probe frame certifies with no
descent (`min_isotropic_certified`), and a whole `min_orthogonal_bisectional` search
(standard J, the same restarts and seed), whose total descent iterations
and stack passes are reported beside its time.  A stack pass is one
value-and-gradient call on a search's descent stack, read from the search's
`passes`; a stack runs as long as its slowest row, so passes, not
iterations, are the work of a search.  Each of the two searches' times over
its passes is reported too (`min_isotropic_per_pass`,
`min_orthogonal_bisectional_per_pass`): the time of one pass of the descent
engine, value and gradient, tangent projection, retraction and acceptance.
The subspace constructors are timed at their own sizes:
`curvature_space_basis` and `kahler_subspace` (standard J) at SPACE_SIZES,
`kahler_subspace` also for P J P^T, P the Q factor of a Gaussian matrix
drawn at seed [SEED, n] (`kahler_subspace_conjugated`), and for the
standard J on its first call, with the cache of its closed-form table
cleared before each call (`kahler_subspace_first_call`),
`hyperkahler_subspace` (standard triple) at those divisible by 4 (4, 8 and
12), and `qk_q_bound_check` at n = 8 on QK_SAMPLES hyper-Kahler samples
(seeds 0, 1, ...; 4 restarts, as in the verify suite), twice: one call per
sample (`qk_q_bound_check`) and one call on the whole list, whose searches
run as one descent stack (`qk_q_bound_check_batched`, whose stack passes are
reported from the reports' `search`, and of them the Newton finish's passes
with the rows it finished and handed back to BB), each timed by one pass
divided by QK_SAMPLES; `maximizer_first_order_check` is timed at n = 8 on
the first of those samples, at its maximizer for I, read from that
sample's `search`.  The layers of `qk_q_bound_check` around
its search are timed at STACK_SIZES on QK_SAMPLES hyper-Kahler samples
(one stacked draw of seeds 0, 1, ...), per tensor against one call on the
stack: its residual gate, `invariance_defect` of each tensor against
`_invariance_defects` of the stack, and its reports, `_qk_reports` of each
tensor alone against `_qk_reports` of the stack, on the same maximizer
searches (one `_max_holomorphic_stack` of 4 restarts); each is the mean of
SEARCH_CALLS passes over the samples, divided by QK_SAMPLES.
`_kulkarni_nomizu_mat` of a stack of STACK_SAMPLES symmetric Gaussian h
with the identity, as `_einstein_stack` takes it, is timed at STACK_SIZES
per h, the mean of CALLS calls.  The sampled groups of the verify suite are
timed at STACK_SIZES on STACK_SAMPLES seeds (0, 1, ...), one draw per seed
against one stacked draw of all of them: `sample` against `_sample_stack`
in the generic, Kahler (standard J) and hyper-Kahler (standard triple)
spaces, keyed "<space>-<n>", and `einstein_normalize` of each generic sample
against `_einstein_stack` of their stack, keyed by n; each is the mean of
SEARCH_CALLS passes over the seeds, divided by STACK_SAMPLES.  Q of those
generic samples is timed the same way at STACK_SIZES, keyed by n, but as the
mean of CALLS passes: `qform` of each tensor (`qform_per_tensor`) against
one `_reaction` call on their stack (`_reaction`).  Every other time is the mean of
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

from curvkit.core import (ComplexStructure, _einstein_stack,  # noqa: E402
                          _invariance_defects, _kulkarni_nomizu_mat, _reaction,
                          _reaction_terms, _stored, bform,
                          einstein_normalize, invariance_defect, isotropic_from_columns,
                          model_fubini_study, project_to_curvature, qform,
                          standard_complex_structure, standard_quaternion_triple)
from curvkit.flow import _dop853_step, rk4_step  # noqa: E402
from curvkit.frames import (STOP_REASONS, OptimizerConfig, _iso_value_grad,  # noqa: E402
                            _ky_fan_bound, _max_holomorphic_stack, _orthonormalize,
                            _qk_reports, _retract, maximizer_first_order_check,
                            min_isotropic, min_orthogonal_bisectional, qk_q_bound_check)
from curvkit.spaces import (_kahler_table, _sample_stack,  # noqa: E402
                            curvature_space_basis, hyperkahler_subspace, kahler_subspace,
                            sample)

SIZES = (4, 6, 8, 12)
SPACE_SIZES = (4, 6, 8, 10, 12)
REPEATS = 7
CALLS = 50
SEARCH_CALLS = 3
FRAMES = 16
QK_SAMPLES = 20
STACK_SIZES = (8, 12)
STACK_SAMPLES = 20
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


def dop853_step(R, h: float, calls: list):
    """Factory of one accepted DOP853 step of ``integrate_q_flow`` from R, on
    a stage buffer allocated once, as the integrator allocates it; h is the
    step in t, h |M| the step in tau.  Appends each reaction term to
    ``calls``: Q of the state through ``qform``, the stages bare."""
    shape, scale = R.mat.shape, np.linalg.norm(R.mat)
    y = np.append(R.mat / scale, [np.log(scale), 0.0])
    K = np.empty((12, y.size))

    def f(x, out, checked=False):
        calls.append(1)
        U = x[:-2].reshape(shape)
        QU = qform(_stored(U, R.n)).mat if checked else _reaction_terms(U, R.n)[0]
        out[-2] = a = np.vdot(QU, U)
        np.subtract(QU, a * U, out=out[:-2].reshape(shape))
        out[-1] = np.exp(-x[-2])

    def step():
        f(y, K[0], checked=True)
        new, err = _dop853_step(y, K, h * scale, f, scale * np.linalg.norm(K[0][:-1]))
        return new, err, np.isfinite(K).all()

    return step


def main() -> int:
    rng = np.random.default_rng(SEED)
    names = ("qform", "_reaction_terms", "bform", "rk4_step", "dop853_step",
             "project_to_curvature",
             "_iso_value_grad", "_retract", "_orthonormalize", "isotropic_from_columns",
             "min_isotropic", "_ky_fan_bound", "min_isotropic_certified",
             "min_orthogonal_bisectional",
             "min_isotropic_per_pass", "min_orthogonal_bisectional_per_pass",
             "curvature_space_basis",
             "kahler_subspace", "kahler_subspace_conjugated", "kahler_subspace_first_call",
             "hyperkahler_subspace", "qk_q_bound_check",
             "qk_q_bound_check_batched", "maximizer_first_order_check",
             "invariance_defect", "_invariance_defects", "_qk_reports_per_tensor",
             "_qk_reports", "_kulkarni_nomizu_mat", "sample", "_sample_stack",
             "einstein_normalize", "_einstein_stack", "qform_per_tensor", "_reaction")
    layers = {name: {} for name in names}
    iterations, stop_reasons, bis_iterations = {}, {}, {}
    passes, bis_passes, step_q_calls = {}, {}, {}
    cfg = OptimizerConfig(restarts=FRAMES, seed=0)
    for n in SIZES:
        table, other = (rng.standard_normal((n, n, n, n)) for _ in range(2))
        R, S = project_to_curvature(table), project_to_curvature(other)
        h = 1e-3 / R.norm()
        raw = rng.standard_normal((FRAMES, n, 4))
        frames = _orthonormalize(raw)
        value_grad = _iso_value_grad(R.mat[None], n, FRAMES)    # one tensor, FRAMES rows
        rows = np.arange(FRAMES)
        J = standard_complex_structure(n)
        fs = model_fubini_study(n // 2, 4.0)[0]
        q_calls = []
        dop_step = dop853_step(R, h, q_calls)
        for name, fn, calls in (("qform", lambda: qform(R), CALLS),
                                ("_reaction_terms", lambda: _reaction_terms(R.mat, n), CALLS),
                                ("bform", lambda: bform(R, S), CALLS),
                                ("rk4_step", lambda: rk4_step(R, h), CALLS),
                                ("dop853_step", dop_step, CALLS),
                                ("project_to_curvature",
                                 lambda: project_to_curvature(table), CALLS),
                                ("_iso_value_grad", lambda: value_grad(frames, rows), CALLS),
                                ("_retract", lambda: _retract(raw), CALLS),
                                ("_orthonormalize", lambda: _orthonormalize(raw), CALLS),
                                ("isotropic_from_columns",
                                 lambda: isotropic_from_columns(R.mat, frames[0]), CALLS),
                                ("min_isotropic", lambda: min_isotropic(R, cfg), SEARCH_CALLS),
                                ("_ky_fan_bound", lambda: _ky_fan_bound(R.mat), CALLS),
                                ("min_isotropic_certified", lambda: min_isotropic(fs, cfg),
                                 CALLS),
                                ("min_orthogonal_bisectional",
                                 lambda: min_orthogonal_bisectional(R, J, cfg), SEARCH_CALLS)):
            layers[name][str(n)] = timed(fn, calls)
        q_calls.clear()
        dop_step()
        step_q_calls[str(n)] = len(q_calls)
        res = min_isotropic(R, cfg)
        iterations[str(n)] = sum(res.restart_iterations)
        stop_reasons[str(n)] = {r: res.restart_stop_reasons.count(r) for r in STOP_REASONS}
        passes[str(n)] = res.passes
        bis = min_orthogonal_bisectional(R, J, cfg)
        bis_iterations[str(n)] = sum(bis.restart_iterations)
        bis_passes[str(n)] = bis.passes
        for name, count in (("min_isotropic", res.passes),
                            ("min_orthogonal_bisectional", bis.passes)):
            layers[f"{name}_per_pass"][str(n)] = {
                k: round(v / count, 2) for k, v in layers[name][str(n)].items()}
    for n in SPACE_SIZES:
        J = standard_complex_structure(n)
        P = np.linalg.qr(np.random.default_rng([SEED, n]).standard_normal((n, n)))[0]
        PJ = ComplexStructure(P @ J.matrix @ P.T)

        def first_call():
            _kahler_table.cache_clear()
            return kahler_subspace(J)

        for name, fn in (("curvature_space_basis", lambda: curvature_space_basis(n)),
                         ("kahler_subspace", lambda: kahler_subspace(J)),
                         ("kahler_subspace_conjugated", lambda: kahler_subspace(PJ)),
                         ("kahler_subspace_first_call", first_call)):
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
    qk_searches = [rep.search for rep in qk_q_bound_check(tensors, T, qk_cfg)]
    qk_passes = qk_searches[0].passes
    qk_newton = {"passes": qk_searches[0].newton_passes,
                 "rows_finished": sum(res.newton_finished for res in qk_searches),
                 "rows_handed_back": sum(res.newton_handed_back for res in qk_searches)}
    x = qk_searches[0].frame_or_vector
    layers["maximizer_first_order_check"]["8"] = timed(
        lambda: maximizer_first_order_check(tensors[0], T.I, x))
    seeds = list(range(STACK_SAMPLES))
    for n in STACK_SIZES:
        T = standard_quaternion_triple(n)
        mats = _sample_stack(hyperkahler_subspace(T), range(QK_SAMPLES))
        tensors = [_stored(m, n) for m in mats]
        searches = _max_holomorphic_stack(mats, T.I.matrix, qk_cfg)
        residuals = _invariance_defects(mats, T.matrices)
        layers["invariance_defect"][str(n)] = timed(
            lambda: [invariance_defect(R1, T.matrices) for R1 in tensors], SEARCH_CALLS,
            QK_SAMPLES)
        layers["_invariance_defects"][str(n)] = timed(
            lambda: _invariance_defects(mats, T.matrices), SEARCH_CALLS, QK_SAMPLES)
        layers["_qk_reports_per_tensor"][str(n)] = timed(
            lambda: [_qk_reports(mats[t:t + 1], T, searches[t:t + 1], residuals[t:t + 1])
                     for t in range(QK_SAMPLES)], SEARCH_CALLS, QK_SAMPLES)
        layers["_qk_reports"][str(n)] = timed(
            lambda: _qk_reports(mats, T, searches, residuals), SEARCH_CALLS, QK_SAMPLES)
        h = np.random.default_rng(SEED).standard_normal((STACK_SAMPLES, n, n))
        h += np.swapaxes(h, 1, 2)
        layers["_kulkarni_nomizu_mat"][str(n)] = timed(
            lambda: _kulkarni_nomizu_mat(h, np.eye(n)), CALLS, STACK_SAMPLES)
        spaces = {"generic": curvature_space_basis(n),
                  "kahler": kahler_subspace(standard_complex_structure(n)),
                  "hyperkahler": hyperkahler_subspace(standard_quaternion_triple(n))}
        for label, space in spaces.items():
            key = f"{label}-{n}"
            layers["sample"][key] = timed(lambda: [sample(space, s) for s in seeds],
                                          SEARCH_CALLS, STACK_SAMPLES)
            layers["_sample_stack"][key] = timed(lambda: _sample_stack(space, seeds),
                                                 SEARCH_CALLS, STACK_SAMPLES)
        generic = [sample(spaces["generic"], s) for s in seeds]
        mats = np.stack([R.mat for R in generic])
        layers["einstein_normalize"][str(n)] = timed(
            lambda: [einstein_normalize(R) for R in generic], SEARCH_CALLS, STACK_SAMPLES)
        layers["_einstein_stack"][str(n)] = timed(lambda: _einstein_stack(mats, n),
                                                  SEARCH_CALLS, STACK_SAMPLES)
        layers["qform_per_tensor"][str(n)] = timed(lambda: [qform(R) for R in generic],
                                                   CALLS, STACK_SAMPLES)
        layers["_reaction"][str(n)] = timed(lambda: _reaction(mats, n), CALLS, STACK_SAMPLES)

    print(json.dumps({"unit": "us_per_call", "layers": layers,
                      "dop853_step_q_calls": step_q_calls,
                      "min_isotropic_iterations": iterations,
                      "min_isotropic_passes": passes,
                      "min_isotropic_stop_reasons": stop_reasons,
                      "min_orthogonal_bisectional_iterations": bis_iterations,
                      "min_orthogonal_bisectional_passes": bis_passes,
                      "qk_q_bound_check_batched_passes": qk_passes,
                      "qk_q_bound_check_batched_newton": qk_newton, "repeats": REPEATS,
                      "calls": CALLS, "search_calls": SEARCH_CALLS, "frames": FRAMES,
                      "qk_samples": QK_SAMPLES, "stack_samples": STACK_SAMPLES, "seed": SEED,
                      "numpy": np.__version__, "python": sys.version.split()[0],
                      "cpus": os.cpu_count()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
