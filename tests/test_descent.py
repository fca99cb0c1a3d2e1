"""The batched Stiefel descent engine against the serial one-start oracles in
helpers.py, its stop reasons, and the thin-SVD nullspace."""

import numpy as np
import pytest

from curvkit import frames, verify
from curvkit.core import (CurvatureError, CurvatureTensor, isotropic_from_columns,
                          model_fubini_study, model_r0, model_sphere, project_to_curvature,
                          standard_complex_structure, standard_quaternion_triple)
from curvkit.flow import FlowConfig, default_horizon, integrate_q_flow
from curvkit.frames import (STOP_REASONS, OptimizerConfig, _descend, _hol_value_grad,
                            _iso_value_grad, _orthonormalize, _retract, _stiefel_tangent,
                            max_holomorphic_sectional, min_isotropic,
                            min_orthogonal_bisectional)
from curvkit.spaces import _nullspace, hyperkahler_subspace, kahler_subspace, sample

from helpers import (hol_value_grad_serial, iso_value_grad_serial,
                     max_holomorphic_serial, min_isotropic_serial,
                     min_orthogonal_bisectional_serial, probe_frames, random_curvature,
                     retract_serial, rows_value_grad_serial)

SIZES = (4, 6, 8, 12)
SEEDS = (0, 1, 2)


def assert_values_match(batched, serial, rtol=1e-10):
    batched, serial = np.asarray(batched), np.asarray(serial)
    assert batched.shape == serial.shape
    scale = np.maximum(1.0, np.abs(serial))
    assert np.max(np.abs(batched - serial) / scale) <= rtol


def assert_reasons_match(batched, serial):
    """Stop reasons row by row, exactly: on a sweep of seeds 0-9 at
    n = 4, 6, 8, 12 through the three searches below (440 rows), no row's
    reason differs between the engine and the serial oracle."""
    assert list(batched) == list(serial)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_min_isotropic_matches_serial(n, seed):
    """The seeded restarts, then the probe row, in one stack."""
    R = random_curvature(n, seed=300 + 10 * n + seed)
    cfg = OptimizerConfig(restarts=3, max_iters=300, seed=seed)
    res = min_isotropic(R, cfg)
    runs = min_isotropic_serial(R, cfg)
    assert_values_match(res.restart_values, [r[0] for r in runs])
    assert_reasons_match(res.restart_stop_reasons, [r[2] for r in runs])
    assert len(res.restart_iterations) == len(res.restart_values)
    assert res.stop_reason in STOP_REASONS
    assert res.converged == (res.stop_reason == "grad_tol")
    for F in res.restart_frames:
        np.testing.assert_allclose(F.T @ F, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("n, seed", [(4, 1), (6, 0), (8, 4)])
def test_probe_start_matches_serial(n, seed):
    """After two iterations the one restart is still above the best
    axis-aligned frame; that frame is the last start of the same stack, and
    the search reports its row."""
    R = random_curvature(n, seed=900 + seed)
    cfg = OptimizerConfig(restarts=1, max_iters=2, seed=seed)
    res = min_isotropic(R, cfg)
    runs = min_isotropic_serial(R, cfg)
    assert len(runs) == len(res.restart_values) == 2
    assert_values_match(res.restart_values, [r[0] for r in runs])
    assert res.restart_iterations == [r[3] for r in runs]
    probes = isotropic_from_columns(R.mat, probe_frames(n))
    assert res.value == res.restart_values[1] <= np.min(probes)


@pytest.mark.parametrize("n, seed, restarts, max_iters, others", [
    (4, 1, 1, 2, 0), (6, 0, 1, 2, 0), (8, 4, 3, 500, 1)])
def test_min_isotropic_descends_once(monkeypatch, n, seed, restarts, max_iters, others):
    """Seeded and probe rows run as one stack, whichever row wins; the
    first two cases are those where the probe beats every restart, and in
    the last the rows of ``others`` more tensors join the stack.  Each
    result's ``passes`` counts the stack's value-and-gradient calls."""
    calls, passes = [], []
    descend = frames._descend

    def counted(value_grad, F0, cfg, on_iterate=None):
        def pass_counted(F, rows):
            passes.append(len(F))
            return value_grad(F, rows)

        calls.append(len(F0))
        return descend(pass_counted, F0, cfg, on_iterate)

    monkeypatch.setattr(frames, "_descend", counted)
    R = random_curvature(n, seed=900 + seed)
    cfg = OptimizerConfig(restarts=restarts, max_iters=max_iters, seed=seed)
    mats = np.stack([R.mat] + [random_curvature(n, seed=910 + t).mat for t in range(others)])
    results = frames._min_isotropic_stack(mats, n, cfg) if others else [min_isotropic(R, cfg)]
    assert calls == [(1 + others) * (restarts + 1)]
    assert {res.passes for res in results} == {len(passes)} and passes[0] == calls[0]


@pytest.mark.parametrize("n", SIZES)
def test_isotropic_stack_matches_one_search_per_tensor(n):
    """Each tensor of a ``_min_isotropic_stack`` gets the result of its own
    ``min_isotropic``, bit for bit: the same values, frames, iterations,
    stop reasons and bounds, in input order.  The searched tensors share the
    stack's passes; the sphere and Fubini-Study models between them are
    certified, with no passes."""
    Rs = [random_curvature(n, seed=960 + 10 * n + t) * (t + 0.5) for t in range(5)]
    Rs[1:1] = [model_sphere(n, 2.0)]
    Rs[4:4] = [model_fubini_study(n // 2, 4.0)[0]]
    cfg = OptimizerConfig(restarts=3, max_iters=300, seed=n)
    stacked = frames._min_isotropic_stack(np.stack([R.mat for R in Rs]), n, cfg)
    singles = [min_isotropic(R, cfg) for R in Rs]
    assert len(stacked) == len(Rs)
    for res, alone in zip(stacked, singles):
        assert res.restart_values == alone.restart_values
        assert res.restart_iterations == alone.restart_iterations
        assert res.restart_stop_reasons == alone.restart_stop_reasons
        assert (res.value, res.stop_reason, res.iterations, res.lower_bound) == (
            alone.value, alone.stop_reason, alone.iterations, alone.lower_bound)
        np.testing.assert_array_equal(res.frame_or_vector.matrix, alone.frame_or_vector.matrix)
    certified = [res.stop_reason == "certified" for res in stacked]
    assert certified == [False, True, False, False, True, False, False]
    searched = [alone.passes for alone, c in zip(singles, certified) if not c]
    assert [res.passes for res in stacked] == [0 if c else max(searched) for c in certified]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_max_holomorphic_matches_serial(n, seed):
    R = random_curvature(n, seed=500 + 10 * n + seed)
    J = standard_complex_structure(n)
    cfg = OptimizerConfig(restarts=4, max_iters=300, seed=seed)
    res = max_holomorphic_sectional(R, J, cfg)
    values, reasons = max_holomorphic_serial(R, J.matrix, cfg)
    assert_values_match(res.restart_values, values)
    assert_reasons_match(res.restart_stop_reasons, reasons)
    assert res.value == max(res.restart_values)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_min_orthogonal_bisectional_matches_serial(n, seed):
    """On a random tensor and on a Kahler one, fs + 0.1 * a Kahler sample,
    whose rows run long enough to leave the pairs if anything lets them."""
    fs, J = model_fubini_study(n // 2, 4.0)
    kahler = fs + 0.1 * sample(kahler_subspace(J), seed)
    cfg = OptimizerConfig(restarts=3, max_iters=300, seed=seed)
    for R in (random_curvature(n, seed=600 + 10 * n + seed), kahler):
        res = min_orthogonal_bisectional(R, J, cfg)
        values, reasons = min_orthogonal_bisectional_serial(R, J.matrix, cfg)
        assert_values_match(res.restart_values, values)
        assert_reasons_match(res.restart_stop_reasons, reasons)
        for XY in res.restart_frames:
            x, y = XY.T
            feas = [x @ x - 1.0, y @ y - 1.0, x @ y, (J.matrix @ x) @ y]
            assert np.max(np.abs(feas)) < 1e-12


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_batched_gradients_match_serial(n, seed):
    R = random_curvature(n, seed=700 + 10 * n + seed)
    rng = np.random.default_rng(seed)
    frames = _retract(rng.standard_normal((5, n, 4)))
    vals, grads = _iso_value_grad(R.mat[None], n, 5)(frames, np.arange(5))
    serial = iso_value_grad_serial(R.mat, n)
    Jm = standard_complex_structure(n).matrix
    xs = _retract(rng.standard_normal((5, n, 1)))
    hvals, hgrads = _hol_value_grad(R.mat[None], Jm, 5)(xs, np.arange(5))
    hserial = hol_value_grad_serial(R.mat, Jm)
    for b in range(5):
        v, G = serial(frames[b])
        assert abs(vals[b] - v) <= 1e-13 * max(1.0, abs(v))
        assert np.max(np.abs(grads[b] - G)) <= 1e-13 * max(1.0, np.max(np.abs(G)))
        v, G = hserial(xs[b])
        assert abs(hvals[b] - v) <= 1e-13 * max(1.0, abs(v))
        assert np.max(np.abs(hgrads[b] - G)) <= 1e-13 * max(1.0, np.max(np.abs(G)))


def assert_rows_match_separate_runs(mixed, separate, owner):
    """Each row of the mixed stack against the same row of its tensor's own run."""
    values, _, iterations, reasons, _ = mixed
    for t, (v, _, it, rs, _) in enumerate(separate):
        own = owner == t
        assert_values_match(values[own], v, rtol=1e-12)
        assert reasons[own].tolist() == rs.tolist()
        assert iterations[own].tolist() == it.tolist()


@pytest.mark.parametrize("n", (4, 8))
def test_descend_rows_of_two_tensors_match_separate_runs(n):
    """The engine passes each call the F0 indices of its active rows, so a
    value_grad can score each row on its own tensor, here interleaved."""
    owner = np.array([0, 1, 1, 0, 1, 0, 0])
    Rs = [random_curvature(n, seed=950 + 10 * n + t) for t in range(2)]
    cfg = OptimizerConfig(max_iters=300)
    F0 = np.random.default_rng(n).standard_normal((len(owner), n, 4))
    closures = [iso_value_grad_serial(R.mat, n) for R in Rs]
    mixed = _descend(rows_value_grad_serial(closures, owner), F0, cfg)
    separate = [_descend(rows_value_grad_serial([c], np.zeros(len(F0), dtype=int)),
                         F0[owner == t], cfg) for t, c in enumerate(closures)]
    assert_rows_match_separate_runs(mixed, separate, owner)


@pytest.mark.parametrize("n", (4, 8, 12))
def test_stacked_holomorphic_rows_match_separate_runs(n):
    """The holomorphic closure on a (2, N, N) stack, 4 rows per tensor,
    against one T = 1 run per tensor."""
    mats = np.stack([random_curvature(n, seed=980 + 10 * n + t).mat for t in range(2)])
    Jm = standard_complex_structure(n).matrix
    cfg = OptimizerConfig(max_iters=300)
    X0 = np.random.default_rng(n).standard_normal((8, n, 1))
    mixed = _descend(_hol_value_grad(mats, Jm, 4), X0, cfg)
    separate = [_descend(_hol_value_grad(mats[t:t + 1], Jm, 4), X0[4 * t:4 * t + 4], cfg)
                for t in range(2)]
    assert_rows_match_separate_runs(mixed, separate, np.repeat([0, 1], 4))


@pytest.mark.parametrize("k", (1, 2, 4))
def test_complex_stacks_stay_on_the_complex_stiefel_manifold(k):
    """On a complex stack (B, m, k) the retraction is complex Gram-Schmidt,
    with Z^H Z = I, and the tangent projection P of any G has
    Z^H P + P^H Z = 0."""
    rng = np.random.default_rng(40 + k)
    A, G = rng.standard_normal((2, 6, 9, k)) + 1j * rng.standard_normal((2, 6, 9, k))
    Z = _retract(A)
    Zh = np.swapaxes(Z, 1, 2).conj()
    np.testing.assert_allclose(Zh @ Z, np.broadcast_to(np.eye(k), (6, k, k)), atol=1e-14)
    for b in range(6):
        Q = np.zeros((9, k), dtype=complex)
        for j in range(k):
            v = A[b, :, j] - Q[:, :j] @ (Q[:, :j].conj().T @ A[b, :, j])
            Q[:, j] = v / np.linalg.norm(v)
        np.testing.assert_allclose(Z[b], Q, rtol=0, atol=1e-14)
    ZhP = Zh @ _stiefel_tangent(Z, G)
    assert np.max(np.abs(ZhP + np.swapaxes(ZhP, 1, 2).conj())) <= 1e-14


@pytest.mark.parametrize("k, dtype", [(1, float), (2, float), (4, float), (2, complex)],
                         ids=["1", "2", "4", "2-complex"])
def test_stacked_retraction_matches_serial_qr(k, dtype):
    """The Cholesky-QR retraction and the stacked QR of the starts are both
    the sign-fixed QR of each matrix, real or complex; for k = 1 it is
    x / |x|, the sign-fixed QR of one column."""
    rng = np.random.default_rng(k)
    F = rng.standard_normal((6, 9, k))
    if dtype is complex:
        F = F + 1j * rng.standard_normal((6, 9, k))
    for stacked in (_retract(F), _orthonormalize(F)):
        assert stacked.dtype == F.dtype
        for b in range(6):
            np.testing.assert_allclose(stacked[b], retract_serial(F[b]), rtol=0, atol=1e-15)


def _reaction_input(n=12, seed=1):
    """The generic tensor of the benchmark's reaction flow: a fixed Gaussian
    table plus 1e-3 of a seeded one, projected and scaled to norm 1."""
    shape = (n,) * 4
    table = (np.random.default_rng([20260, n]).standard_normal(shape)
             + 1e-3 * np.random.default_rng([seed, n]).standard_normal(shape))
    R = project_to_curvature(table)
    return R * (1.0 / R.norm())


def test_retracted_iterates_stay_orthonormal_on_the_reaction_endpoints():
    """Every accepted iterate of both endpoint searches of the n = 12
    reaction flow (start state and the state past the blow-up guard, each
    descended, not certified) has Gram defect |F^T F - I|_max <= 1e-14."""
    R0 = _reaction_input()
    cfg = FlowConfig(t_end=200.0 * default_horizon(R0), monitor_every=10**6)
    R1, trace = integrate_q_flow(R0, cfg)
    assert trace.terminated_by == "blowup_guard"
    for R in (R0, R1):
        defects = []
        res = min_isotropic(R, cfg.optimizer, on_iterate=lambda F, v, g: defects.append(
            np.max(np.abs(F.T @ F - np.eye(4)))))
        assert res.stop_reason != "certified" and res.passes > 1
        assert len(defects) >= res.passes and max(defects) <= 1e-14


@pytest.mark.parametrize("dtype", [float, complex])
def test_retraction_of_a_rank_deficient_or_non_finite_stack_raises(dtype):
    """A stack with one rank-deficient matrix (a repeated column, a column in
    the span of two others, a zero column) or one non-finite entry raises
    CurvatureError, never a frame; the stack without it retracts."""
    rng = np.random.default_rng(7)
    F = rng.standard_normal((3, 8, 4))
    if dtype is complex:
        F = F + 1j * rng.standard_normal((3, 8, 4))
    assert np.all(np.isfinite(_retract(F)))
    bad = []
    for col in (F[1, :, 0], 0.3 * F[1, :, 0] - 1.7 * F[1, :, 1], 0.0):
        G = F.copy()
        G[1, :, 3] = col
        bad.append(G)
    for v in (np.nan, np.inf):
        G = F.copy()
        G[1, 2, 1] = v
        bad.append(G)
    for G in bad:
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(CurvatureError, match="retraction"):
                _retract(G)


# ---------------------------------------------------------------------------
# why a search stopped
# ---------------------------------------------------------------------------

def test_stop_reason_grad_tol_on_sphere():
    """The search certifies its probe frame; the descent from the same
    starts stops at once on the constant objective."""
    R, cfg = model_sphere(6, 1.0), OptimizerConfig(restarts=3, seed=0)
    assert min_isotropic(R, cfg).stop_reason == "certified"
    res = frames._search_isotropic(frames._unit_probes(R.mat[None], 6), 6, cfg)[0]
    assert res.stop_reason == "grad_tol" and res.converged
    assert res.restart_iterations == [1] * 4          # 3 seeded rows and the probe row


def test_stop_reason_grad_tol_on_fubini_study():
    """As on the sphere: certified, and the descent from the same starts
    converges to the zero minimum."""
    R, _ = model_fubini_study(4, 4.0)
    cfg = OptimizerConfig(restarts=16, seed=0)
    assert min_isotropic(R, cfg).stop_reason == "certified"
    res = frames._search_isotropic(frames._unit_probes(R.mat[None], 8), 8, cfg)[0]
    assert abs(res.value) < 1e-12
    assert res.stop_reason == "grad_tol" and res.converged
    assert res.iterations < 500


@pytest.mark.parametrize("n", (4, 6, 8))
def test_stop_reason_grad_tol_on_random_tensors(n):
    """Every row converges, the probe row too: against the Zhang-Hager
    reference value the strict Armijo test alone keeps accepting steps
    down to the gradient tolerance."""
    R = random_curvature(n, seed=810 + n)
    res = min_isotropic(R, OptimizerConfig(restarts=16, seed=0))
    assert res.restart_stop_reasons == ["grad_tol"] * 17


def test_no_row_stops_at_the_line_search_floor():
    """Rows that once sat at the floor with a monotone acceptance test (a BB
    trial halved 60 times without a decrease): the maximizer and boundary
    searches of ``verify --n 8 --samples 20`` at seed 7.  Against the
    Zhang-Hager reference value their BB trials pass the Armijo test."""
    report = verify.run_verification_suite(n=8, seed=7, samples=20)
    details = {c.check_id: c.detail for c in report.checks}
    for check_id in ("q-hol-bound-maximizer", "boundary-q-nonneg"):
        assert "rows" in details[check_id]
        assert "line_search_floor" not in details[check_id], details[check_id]


def test_stop_reason_line_search_floor_on_inconsistent_gradient():
    """With the gradient's sign flipped the small trial steps climb, so each
    row, whatever it accepts on the way, ends at the line-search floor (60
    halvings without a decrease) well before max_iters."""
    n = 6
    R = random_curvature(n, seed=802)
    F0 = np.random.default_rng(0).standard_normal((8, n, 4))
    value_grad = _iso_value_grad(R.mat[None], n, len(F0))

    def negated(F, rows):
        val, G = value_grad(F, rows)
        return val, -G

    start = value_grad(_orthonormalize(F0), np.arange(len(F0)))[0]
    values, _, iterations, reasons, _ = _descend(negated, F0, OptimizerConfig())
    assert reasons.tolist() == ["line_search_floor"] * len(F0)
    assert np.all(values <= start)
    assert np.all(iterations < 500)


def test_stop_reason_max_iters():
    R = random_curvature(6, seed=800)
    res = min_isotropic(R, OptimizerConfig(restarts=3, max_iters=1, seed=0))
    assert res.stop_reason == "max_iters" and not res.converged
    assert set(res.restart_iterations) == {1}


def test_on_iterate_sees_every_iteration_of_every_row():
    R = random_curvature(5, seed=801)
    seen = []
    res = min_isotropic(R, OptimizerConfig(restarts=3, max_iters=200, seed=2),
                        on_iterate=lambda F, val, gnorm: seen.append(F.shape))
    assert len(seen) == sum(res.restart_iterations)
    assert set(seen) == {(5, 4)}


# ---------------------------------------------------------------------------
# scale equivariance: every search runs on M / |M|_max
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", (-20, -10, 10, 20))
def test_searches_are_scale_equivariant(k):
    """Dividing by |M|_max is exact for a power-of-two factor, so each value,
    and each value ``on_iterate`` sees, scales exactly by that factor."""
    n, c = 6, 2.0 ** k
    R = random_curvature(n, seed=820)
    R = R * (1.0 / R.norm())
    J = standard_complex_structure(n)
    cfg = OptimizerConfig(restarts=8, seed=0)
    seen = {}
    for scale in (1.0, c):
        log = seen[scale] = []
        res = min_isotropic(R * scale, cfg, on_iterate=lambda F, v, g: log.append((v, g)))
        log.append((res.value, 0.0))
        log.append((max_holomorphic_sectional(R * scale, J, cfg).value, 0.0))
        log.append((min_orthogonal_bisectional(R * scale, J, cfg).value, 0.0))
    assert (np.array(seen[c]) == c * np.array(seen[1.0])).all()


def test_searches_of_the_zero_tensor():
    """The zero tensor is searched as it is (scale 1): every row stops at
    once.  Its isotropic search certifies the probe frame (0 = 0, tol 0)."""
    n = 6
    R = random_curvature(n, seed=820) * 0.0
    cfg = OptimizerConfig(restarts=2, seed=0)
    J = standard_complex_structure(n)
    res = min_isotropic(R, cfg)
    assert (res.value, res.lower_bound, res.stop_reason) == (0.0, 0.0, "certified")
    for res in (frames._search_isotropic(frames._unit_probes(R.mat[None], n), n, cfg)[0],
                max_holomorphic_sectional(R, J, cfg), min_orthogonal_bisectional(R, J, cfg)):
        assert res.value == 0.0 and res.stop_reason == "grad_tol"


# ---------------------------------------------------------------------------
# the Newton finish of the holomorphic search
# ---------------------------------------------------------------------------

def hk_stack(n: int, seed: int, count: int):
    """(triple, a (count, N, N) stack of hyper-Kahler samples) at n."""
    T = standard_quaternion_triple(n)
    return T, np.stack([sample(hyperkahler_subspace(T), seed=100 * seed + t).mat
                        for t in range(count)])


def assert_finish_matches_bb_oracle(mats, Jm, cfg):
    """Every restart of ``_max_holomorphic_stack`` against the BB-only
    serial oracle (``descend_serial`` on ``hol_value_grad_serial``): values
    within 1e-12 relative, every row at grad_tol, and each returned vector's
    projected gradient on the unit-scaled tensor at most 1e-8."""
    results = frames._max_holomorphic_stack(mats, Jm, cfg)
    for M, res in zip(mats, results):
        R = CurvatureTensor(len(Jm), M)
        values, reasons = max_holomorphic_serial(R, Jm, cfg)
        assert_values_match(res.restart_values, values, rtol=1e-12)
        assert res.restart_stop_reasons == reasons == ["grad_tol"] * cfg.restarts
        grad = hol_value_grad_serial(M / np.abs(M).max(), Jm)
        for x in res.restart_frames:
            g = grad(x[:, None])[1][:, 0]
            assert np.linalg.norm(g - (x @ g) * x) <= frames._GRAD_TOL
    return results


@pytest.mark.parametrize("n", (4, 8, 12))
@pytest.mark.parametrize("seed", SEEDS)
def test_newton_finish_matches_the_bb_oracle(n, seed):
    T, mats = hk_stack(n, seed, 3)
    results = assert_finish_matches_bb_oracle(mats, T.I.matrix, OptimizerConfig(restarts=4,
                                                                                seed=seed))
    res = results[0]
    assert 0 < res.newton_passes < res.passes
    assert sum(r.newton_finished + r.newton_handed_back for r in results) <= 3 * 4


@pytest.mark.parametrize("patch", ("refuse", "one_step"))
def test_rows_handed_back_resume_bb_and_match_the_oracle(monkeypatch, patch):
    """Refuse every Newton step, or allow one step only: the rows handed
    back resume BB where they stand and still end at the oracle's values."""
    T, mats = hk_stack(8, 0, 3)
    cfg = OptimizerConfig(restarts=4, seed=0)
    if patch == "refuse":
        monkeypatch.setattr(frames, "_ROUNDOFF", -1.0)   # vt <= val - max(1, |val|) fails
    else:
        monkeypatch.setattr(frames, "_NEWTON_STEPS", 1)
    results = assert_finish_matches_bb_oracle(mats, T.I.matrix, cfg)
    back = sum(res.newton_handed_back for res in results)
    assert back == 12 if patch == "refuse" else back > 0
    # refused rows take one Newton step's evaluation; one step ends the finish
    assert results[0].newton_passes == 2


def test_a_row_on_an_indefinite_model_is_handed_back_and_matches_the_oracle():
    """On this tensor one row waits near a saddle, where its Newton model is
    indefinite: the finish hands it back unmoved, and BB ends it at the
    oracle's value.  Without the Cholesky test its Newton steps head for the
    saddle with falling values, and the row ends 0.23 away."""
    n = 12
    R = random_curvature(n, seed=3130)
    J = standard_complex_structure(n)
    cfg = OptimizerConfig(restarts=8, seed=10)
    res = max_holomorphic_sectional(R, J, cfg)
    values, reasons = max_holomorphic_serial(R, J.matrix, cfg)
    assert res.newton_handed_back == 1
    assert_values_match(res.restart_values, values, rtol=1e-12)
    assert res.restart_stop_reasons == reasons


def test_positive_definite_finds_each_indefinite_matrix():
    rng = np.random.default_rng(11)
    G = rng.standard_normal((9, 5, 5))
    A = G @ np.swapaxes(G, 1, 2) + 0.1 * np.eye(5)
    bad = [0, 4, 5, 8]
    A[bad, 2, 2] = -50.0
    want = np.ones(9, dtype=bool)
    want[bad] = False
    assert frames._positive_definite(A).tolist() == want.tolist()
    assert frames._positive_definite(A[1:4]).all()


@pytest.mark.parametrize("model", ("sphere", "fubini-study", "r0"))
def test_models_stop_at_the_first_pass_with_no_newton_pass(model):
    """R(x, Jx, x, Jx) is constant on the unit sphere of these models, so
    every row starts at grad_tol and nothing is polished."""
    n = 8
    T = standard_quaternion_triple(n)
    R = {"sphere": lambda: model_sphere(n, 1.0), "r0": lambda: model_r0(T),
         "fubini-study": lambda: model_fubini_study(n // 2, 4.0)[0]}[model]()
    J = T.I if model != "fubini-study" else model_fubini_study(n // 2, 4.0)[1]
    res = max_holomorphic_sectional(R, J, OptimizerConfig(restarts=4, seed=0))
    assert (res.passes, res.newton_passes, res.newton_finished, res.newton_handed_back) == (
        1, 0, 0, 0)
    assert res.restart_stop_reasons == ["grad_tol"] * 4


def test_verify_input_pass_count():
    """The quaternionic bound's search on ``verify --n 8 --samples 20``'s
    input (suite seed 7): 43 BB passes and 4 Newton passes, which finish all
    80 rows (66 passes with BB alone)."""
    report = verify.run_verification_suite(n=8, samples=20)
    detail = next(c.detail for c in report.checks if c.check_id == "q-hol-bound-maximizer")
    assert detail == ("20 samples, 80 rows, 47 stack passes (4 Newton; 80 rows finished, "
                      "0 handed back): grad_tol 80")


# ---------------------------------------------------------------------------
# subspace nullspace
# ---------------------------------------------------------------------------

def test_nullspace_thin_svd_of_tall_matrix_is_exact():
    """A tall system's thin vh equals the full one, so its nullspace does too."""
    rng = np.random.default_rng(9)
    A = rng.standard_normal((40, 7)) @ rng.standard_normal((7, 12))   # rank 7
    full = np.linalg.svd(A, full_matrices=True)[2]
    null = _nullspace(A)
    assert null.shape == (12, 5)
    np.testing.assert_array_equal(null, full[7:].T)
    assert np.max(np.abs(A @ null)) < 1e-12
