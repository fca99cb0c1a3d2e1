"""The batched Stiefel descent engine against the serial one-start oracles in
helpers.py, its stop reasons, and the thin-SVD nullspace."""

import numpy as np
import pytest

from curvkit.core import (model_fubini_study, model_sphere,
                          standard_complex_structure)
from curvkit.frames import (STOP_REASONS, OptimizerConfig, _descend, _hol_value_grad,
                            _iso_value_grad, _retract, max_holomorphic_sectional,
                            min_isotropic, min_orthogonal_bisectional)
from curvkit.spaces import _nullspace

from helpers import (hol_value_grad_serial, iso_value_grad_serial,
                     max_holomorphic_serial, min_isotropic_serial,
                     min_orthogonal_bisectional_serial, random_curvature,
                     retract_serial, rows_value_grad_serial)

SIZES = (4, 6, 8, 12)
SEEDS = (0, 1, 2)


def assert_values_match(batched, serial, rtol=1e-10):
    batched, serial = np.asarray(batched), np.asarray(serial)
    assert batched.shape == serial.shape
    scale = np.maximum(1.0, np.abs(serial))
    assert np.max(np.abs(batched - serial) / scale) <= rtol


def assert_reasons_match(batched, serial):
    """Stop reasons row by row.  A row's last accept decisions compare
    values that differ by roundoff, and the batched and the serial
    arithmetic differ there, so one row may end at the line-search floor on
    one side and at grad_tol on the other (3 of 360 rows on a sweep of 10
    seeds at n = 4, 6, 8, 12); with the engine on the old pure-Armijo rule,
    61 of 108 rows disagree."""
    differ = [(b, s) for b, s in zip(batched, serial, strict=True) if b != s]
    assert len(differ) <= 1 and set(differ) <= {("grad_tol", "line_search_floor"),
                                                ("line_search_floor", "grad_tol")}, differ


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_min_isotropic_matches_serial(n, seed):
    """Warm start first, then the seeded restarts, in one stack."""
    R = random_curvature(n, seed=300 + 10 * n + seed)
    cfg = OptimizerConfig(restarts=3, max_iters=300, seed=seed)
    warm = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, 4)))[0]
    res = min_isotropic(R, cfg, init_frames=[warm])
    runs = min_isotropic_serial(R, cfg, [warm])
    assert_values_match(res.restart_values, [r[0] for r in runs])
    assert_reasons_match(res.restart_stop_reasons, [r[2] for r in runs])
    assert len(res.restart_iterations) == len(res.restart_values)
    assert res.stop_reason in STOP_REASONS
    assert res.converged == (res.stop_reason == "grad_tol")
    for F in res.restart_frames:
        np.testing.assert_allclose(F.T @ F, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("n, seed", [(4, 1), (6, 0), (8, 4)])
def test_probe_rerun_matches_serial(n, seed):
    """Two iterations leave the one restart above the best axis-aligned
    frame, so the search re-runs from that probe as a one-row stack."""
    R = random_curvature(n, seed=900 + seed)
    cfg = OptimizerConfig(restarts=1, max_iters=2, seed=seed)
    res = min_isotropic(R, cfg)
    runs = min_isotropic_serial(R, cfg)
    assert len(runs) == len(res.restart_values) == 2
    assert_values_match(res.restart_values, [r[0] for r in runs])
    assert res.restart_iterations == [r[3] for r in runs]


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
    R = random_curvature(n, seed=600 + 10 * n + seed)
    J = standard_complex_structure(n)
    cfg = OptimizerConfig(restarts=3, max_iters=300, seed=seed)
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
    vals, grads = _iso_value_grad(R.mat, n)(frames)
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
    values, _, iterations, reasons = mixed
    for t, (v, _, it, rs) in enumerate(separate):
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
def test_stacked_retraction_matches_serial_qr(k):
    """For k = 1 the retraction is x / |x|, the sign-fixed QR of one column."""
    F = np.random.default_rng(k).standard_normal((6, 9, k))
    stacked = _retract(F)
    for b in range(6):
        np.testing.assert_allclose(stacked[b], retract_serial(F[b]), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# why a search stopped
# ---------------------------------------------------------------------------

def test_stop_reason_grad_tol_on_sphere():
    res = min_isotropic(model_sphere(6, 1.0), OptimizerConfig(restarts=3, seed=0))
    assert res.stop_reason == "grad_tol" and res.converged
    assert res.restart_iterations == [1, 1, 1]


def test_stop_reason_grad_tol_on_fubini_study():
    R, _ = model_fubini_study(4, 4.0)
    res = min_isotropic(R, OptimizerConfig(restarts=16, seed=0))
    assert abs(res.value) < 1e-12
    assert res.stop_reason == "grad_tol" and res.converged
    assert res.iterations < 500


@pytest.mark.parametrize("n", (4, 6, 8))
def test_stop_reason_grad_tol_on_random_tensors(n):
    """Near a minimum the values of a trial and its row tie to roundoff, and
    the slope test still tells a good step: every row converges."""
    R = random_curvature(n, seed=810 + n)
    res = min_isotropic(R, OptimizerConfig(restarts=16, seed=0))
    assert res.restart_stop_reasons == ["grad_tol"] * 16


def test_stop_reason_line_search_floor_on_inconsistent_gradient():
    """With the gradient's sign flipped the small trial steps climb, so each
    row, whatever it accepts on the way, ends at the line-search floor (60
    halvings without a decrease) well before max_iters."""
    n = 6
    R = random_curvature(n, seed=802)
    value_grad = _iso_value_grad(R.mat, n)

    def negated(F, rows):
        val, G = value_grad(F)
        return val, -G

    F0 = np.random.default_rng(0).standard_normal((8, n, 4))
    start = value_grad(_retract(F0))[0]
    values, _, iterations, reasons = _descend(negated, F0, OptimizerConfig())
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
    """The zero tensor is searched as it is (scale 1): every row stops at once."""
    n = 6
    R = random_curvature(n, seed=820) * 0.0
    cfg = OptimizerConfig(restarts=2, seed=0)
    J = standard_complex_structure(n)
    for res in (min_isotropic(R, cfg), max_holomorphic_sectional(R, J, cfg),
                min_orthogonal_bisectional(R, J, cfg)):
        assert res.value == 0.0 and res.stop_reason == "grad_tol"


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
