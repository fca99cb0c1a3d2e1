"""Frame search: optimizer behavior, analytic gradients, structured checks."""

import numpy as np
import pytest

from curvkit.core import (CurvatureError, isotropic_curvature, model_sphere,
                          standard_complex_structure, zero_tensor)
from curvkit.frames import (OptimizerConfig, _coordinate_probe_frames,
                            _coordinate_probe_values, _iso_value_grad, _retract, batch_isotropic,
                            boundary_q_check, max_holomorphic_sectional,
                            maximizer_first_order_check, min_isotropic,
                            min_orthogonal_bisectional, pinching_constant,
                            qk_q_bound_check, sample_frames_min)
from curvkit.spaces import sample

from helpers import iso_table, random_curvature


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(grad_tol=-1.0)


def test_sphere_constant_objective(light_cfg):
    res = min_isotropic(model_sphere(6, 1.5), light_cfg)
    assert np.isclose(res.value, 6.0)
    assert res.converged and res.iterations == 1


def test_result_internal_consistency(light_cfg):
    R = random_curvature(5, seed=40)
    res = min_isotropic(R, light_cfg)
    # reported value matches the functional at the reported frame
    assert abs(res.value - isotropic_curvature(R, res.frame_or_vector)) < 1e-10
    assert len(res.restart_values) >= light_cfg.restarts
    assert res.value == min(res.restart_values)


def test_iterates_stay_feasible_and_monotone():
    R = random_curvature(6, seed=41)
    trail = []

    def spy(F, val, gnorm):
        trail.append((F.copy(), val))

    cfg = OptimizerConfig(restarts=1, seed=3)
    min_isotropic(R, cfg, on_iterate=spy)
    values = [v for _, v in trail]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    for F, _ in trail[:: max(1, len(trail) // 10)]:
        defect = np.max(np.abs(F.T @ F - np.eye(4)))
        assert defect < 1e-9


def test_probe_set_dominance(light_cfg):
    """Reported minimum never exceeds any axis-aligned frame value."""
    for seed in (42, 43):
        R = random_curvature(6, seed=seed)
        res = min_isotropic(R, light_cfg)
        probe_vals = batch_isotropic(R, _coordinate_probe_frames(6))
        assert res.value <= np.min(probe_vals) + 1e-10


@pytest.mark.parametrize("n", [4, 6, 8, 12])
def test_probe_values_read_off_coefficients(n):
    R = random_curvature(n, seed=1000 + n)
    expected = batch_isotropic(R, _coordinate_probe_frames(n))
    got = _coordinate_probe_values(R.mat, n)
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))


def test_scale_equivariance(light_cfg):
    R = random_curvature(5, seed=44)
    base = min_isotropic(R, light_cfg).value
    scaled = min_isotropic(3.0 * R, light_cfg).value
    assert abs(scaled - 3.0 * base) < 1e-6 * max(1.0, abs(base))


def test_oracle_dominance(light_cfg):
    for seed in (45, 46):
        R = random_curvature(5, seed=seed)
        opt = min_isotropic(R, light_cfg).value
        oracle, frame = sample_frames_min(R, num_samples=4000, seed=1)
        assert opt <= oracle + 1e-9
        assert np.isclose(iso_table(R, frame), oracle)


def test_oracle_deterministic():
    R = random_curvature(5, seed=47)
    v1, f1 = sample_frames_min(R, num_samples=2000, seed=9)
    v2, f2 = sample_frames_min(R, num_samples=2000, seed=9)
    assert v1 == v2
    np.testing.assert_array_equal(f1, f2)


def test_batch_isotropic_matches_scalar_path():
    R = random_curvature(6, seed=48)
    rng = np.random.default_rng(48)
    frames = np.linalg.qr(rng.standard_normal((7, 6, 4)))[0]
    vals = batch_isotropic(R, frames)
    for b in range(7):
        assert np.isclose(vals[b], iso_table(R, frames[b]))


def test_warm_start_accepted(light_cfg):
    R = random_curvature(5, seed=49)
    res = min_isotropic(R, light_cfg)
    warm = min_isotropic(R, OptimizerConfig(restarts=1, seed=123),
                         init_frames=[res.frame_or_vector])
    assert warm.value <= res.value + 1e-9


def test_fubini_study_min_is_zero(fs4, light_cfg):
    res = min_isotropic(fs4[0], light_cfg)
    assert abs(res.value) < 1e-8
    assert all(v >= -1e-8 for v in res.restart_values)


def test_pinching_values(light_cfg, fs4):
    assert np.isclose(pinching_constant(model_sphere(6, 1.0), light_cfg), 1.0)
    assert np.isclose(pinching_constant(model_sphere(6, 2.0), light_cfg), 2.0)
    assert abs(pinching_constant(fs4[0], light_cfg)) < 1e-8


def test_pinch_scan_values_and_iteration_budget(fs4):
    """The sphere -> Fubini-Study scan at n = 4 (11 tensors, 16 restarts,
    seed 0): min iso is exactly 4 (1 - t), and the Barzilai-Borwein first
    trial keeps the total descent work to 614 iterations (the doubling step
    rule it replaced took 6179)."""
    cfg = OptimizerConfig(restarts=16, seed=0)
    sphere = model_sphere(4, 1.0)
    total = 0
    for k in range(11):
        t = k / 10
        res = min_isotropic((1.0 - t) * sphere + t * fs4[0], cfg)
        assert abs(res.value - 4.0 * (1.0 - t)) <= 1e-8
        total += sum(res.restart_iterations)
    assert total < 1500


def test_pinching_shift_leaves_zero_minimum(light_cfg):
    R = random_curvature(5, seed=50) + 4.0 * model_sphere(5, 1.0)
    kappa = pinching_constant(R, light_cfg)
    shifted = R + (-kappa) * model_sphere(5, 1.0)
    assert abs(min_isotropic(shifted, light_cfg).value) < 1e-6


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_iso_gradient_finite_difference():
    """Euclidean gradient against central differences of the raw objective."""
    h = 1e-6
    for seed in range(5):
        R = random_curvature(5, seed=60 + seed)
        vg = _iso_value_grad(R.mat, 5)
        rng = np.random.default_rng(seed)
        F = np.linalg.qr(rng.standard_normal((5, 4)))[0]
        _, G = vg(F)
        V = rng.standard_normal((5, 4))
        num = (vg(F + h * V)[0] - vg(F - h * V)[0]) / (2.0 * h)
        assert abs(num - np.vdot(G, V)) < 1e-6 * max(1.0, abs(num))


def test_retraction_orthonormalizes():
    rng = np.random.default_rng(61)
    F = _retract(rng.standard_normal((7, 4)))
    np.testing.assert_allclose(F.T @ F, np.eye(4), atol=1e-12)
    # fixed point on already-orthonormal input
    np.testing.assert_allclose(_retract(F), F, atol=1e-12)


# ---------------------------------------------------------------------------
# holomorphic sectional machinery
# ---------------------------------------------------------------------------

def test_max_holomorphic_fubini_study(fs4, light_cfg):
    R, J = fs4
    res = max_holomorphic_sectional(R, J, light_cfg)
    assert np.isclose(res.value, 4.0, atol=1e-9)
    assert np.isclose(np.linalg.norm(res.frame_or_vector), 1.0)


def test_max_holomorphic_zero_and_r0(t8, r0_8, light_cfg):
    J = t8.J
    assert abs(max_holomorphic_sectional(zero_tensor(8), J, light_cfg).value) < 1e-12
    res = max_holomorphic_sectional(r0_8, J, light_cfg)
    assert np.isclose(res.value, 1.0, atol=1e-8)


def test_first_order_check_fubini_study(fs4):
    R, J = fs4
    rng = np.random.default_rng(62)
    x = rng.standard_normal(4)
    x /= np.linalg.norm(x)
    rep = maximizer_first_order_check(R, J, x)
    assert rep.passed
    assert rep.deriv_y < 1e-12 and rep.deriv_jy < 1e-12
    assert abs(rep.min_slack) < 1e-10      # equality case: 4 - 2*2


def test_first_order_check_zero_tensor():
    J = standard_complex_structure(6)
    x = np.zeros(6)
    x[0] = 1.0
    assert maximizer_first_order_check(zero_tensor(6), J, x).passed


def test_first_order_check_rejects_non_maximizer(kahler4):
    J = standard_complex_structure(4)
    R = sample(kahler4, seed=63)
    x = np.zeros(4)
    x[0] = 1.0
    rep = maximizer_first_order_check(R, J, x, tol=1e-8)
    assert not rep.passed


# ---------------------------------------------------------------------------
# orthogonal bisectional search
# ---------------------------------------------------------------------------

def test_min_orthogonal_bisectional_fubini_study(fs8, light_cfg):
    R, J = fs8
    res = min_orthogonal_bisectional(R, J, light_cfg)
    assert np.isclose(res.value, 2.0, atol=1e-8)
    F = res.frame_or_vector.matrix
    np.testing.assert_allclose(F.T @ F, np.eye(4), atol=1e-8)
    # frame really is (X, JX, Y, JY)
    np.testing.assert_allclose(J.matrix @ F[:, 0], F[:, 1], atol=1e-8)
    np.testing.assert_allclose(J.matrix @ F[:, 2], F[:, 3], atol=1e-8)


def test_min_orthogonal_bisectional_r0(t8, r0_8, light_cfg):
    res = min_orthogonal_bisectional(r0_8, t8.J, light_cfg)
    assert abs(res.value) < 1e-8         # attained near Y = IX


def test_min_orthogonal_bisectional_zero(light_cfg):
    J = standard_complex_structure(6)
    assert abs(min_orthogonal_bisectional(zero_tensor(6), J, light_cfg).value) < 1e-12


# ---------------------------------------------------------------------------
# boundary and quaternionic bound checks
# ---------------------------------------------------------------------------

def test_boundary_check_on_boundary_frame(fs4, light_cfg):
    R, _ = fs4
    res = min_isotropic(R, light_cfg)
    rep = boundary_q_check(R, res.frame_or_vector, min_iso=res.value)
    assert rep.applicable
    assert rep.passed
    assert rep.q_value >= -1e-6


def test_boundary_check_inapplicable_off_boundary(light_cfg):
    R = model_sphere(6, 1.0)
    res = min_isotropic(R, light_cfg)
    rep = boundary_q_check(R, res.frame_or_vector, min_iso=res.value)
    assert not rep.applicable and rep.passed is None


def test_boundary_check_requires_cone_certificate(fs4, light_cfg):
    R, _ = fs4
    res = min_isotropic(R, light_cfg)
    rep = boundary_q_check(R, res.frame_or_vector, min_iso=-1.0)
    assert not rep.applicable


def test_qk_bound_on_samples(t8, hk8):
    cfg = OptimizerConfig(restarts=4, seed=0)
    for seed in range(3):
        rep = qk_q_bound_check(sample(hk8, seed=seed), t8, cfg)
        assert rep.passed
        assert rep.q_value <= rep.bound + 1e-6
        assert rep.first_order.passed
        assert rep.y2_max_excess <= 1e-8
        assert np.isclose(np.linalg.norm(rep.j_coeffs), 1.0)


def test_qk_bound_zero_tensor(t8):
    rep = qk_q_bound_check(zero_tensor(8), t8, OptimizerConfig(restarts=2, seed=0))
    assert rep.passed
    assert rep.max_value == 0.0 and rep.q_value == 0.0


def test_qk_bound_scale_covariance(t8, hk8):
    cfg = OptimizerConfig(restarts=4, seed=0)
    R1 = sample(hk8, seed=5)
    a, b = qk_q_bound_check(R1, t8, cfg), qk_q_bound_check(2.0 * R1, t8, cfg)
    assert np.isclose(b.max_value, 2.0 * a.max_value, rtol=1e-6)
    assert np.isclose(b.q_value, 4.0 * a.q_value, rtol=1e-5)
    assert np.isclose(b.bound, 4.0 * a.bound, rtol=1e-6)
    assert b.passed


def test_qk_bound_rejects_non_hyperkahler(t8, r0_8):
    with pytest.raises(CurvatureError):
        qk_q_bound_check(r0_8, t8, OptimizerConfig(restarts=2, seed=0))
