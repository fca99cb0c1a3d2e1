"""Frame search: optimizer behavior, analytic gradients, structured checks."""

import dataclasses
import itertools

import numpy as np
import pytest

from curvkit.core import (ComplexStructure, CurvatureError, CurvatureTensor, FourFrame,
                          NonFiniteError, QuaternionTriple, curvature_map, evaluate,
                          holomorphic_sectional, isotropic_curvature, isotropic_from_columns,
                          model_fubini_study, model_r0, model_sphere, orthogonal_bisectional,
                          rotate_triple, standard_complex_structure, standard_quaternion_triple,
                          two_form_action, wedge, zero_tensor)
from curvkit import frames
from curvkit.frames import (STOP_REASONS, FirstOrderReport, OptimizerConfig, QKBoundReport,
                            _best_probe, _complement, _iso_value_grad, _orthonormalize,
                            _retract, _stiefel_tangent,
                            boundary_q_check, max_holomorphic_sectional,
                            maximizer_first_order_check, min_isotropic,
                            min_orthogonal_bisectional, pinching_constant,
                            qk_q_bound_check, sample_frames_min)
from curvkit.spaces import (constraint_violation, curvature_space_basis, hyperkahler_subspace,
                            kahler_subspace, project_onto, qk_decompose, sample)

from helpers import (iso_table, min_isotropic_n4, probe_frames, qk_joint_search_serial,
                     qk_paired_excess_serial, random_curvature, raw_tensor, zh_update)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)


def test_config_fields():
    """The step and the gradient tolerance are the engine's constants, not settings."""
    names = [f.name for f in dataclasses.fields(OptimizerConfig)]
    assert names == ["restarts", "max_iters", "seed"]


@pytest.mark.parametrize("field, value", [
    ("restarts", 2.5), ("restarts", True), ("restarts", "3"), ("max_iters", 2.5),
    ("max_iters", 0), ("max_iters", False)])
def test_config_rejects_bad_numbers(field, value):
    """restarts and max_iters are non-bool integers >= 1; anything else fails
    at construction, not later inside a search (a float count)."""
    with pytest.raises(ValueError, match=field):
        OptimizerConfig(**{field: value})


@pytest.mark.parametrize("seed", [-1, 1.0, 2.5, True, "3", None])
def test_config_rejects_bad_seed(seed):
    """A negative, bool or non-integer seed fails at construction, not later
    inside default_rng."""
    with pytest.raises(ValueError, match="seed"):
        OptimizerConfig(seed=seed)


def test_sphere_constant_objective(light_cfg):
    """The search certifies the sphere at its probe frame, and the descent
    from the same starts stops after its first iteration."""
    R = model_sphere(6, 1.5)
    res = min_isotropic(R, light_cfg)
    assert res.value == res.lower_bound == 6.0 and res.stop_reason == "certified"
    res = frames._search_isotropic(frames._unit_probes(R.mat[None], 6), 6, light_cfg)[0]
    assert np.isclose(res.value, 6.0)
    assert res.converged and res.iterations == 1


def test_result_internal_consistency(light_cfg):
    R = random_curvature(5, seed=40)
    res = min_isotropic(R, light_cfg)
    # reported value matches the functional at the reported frame
    assert abs(res.value - isotropic_curvature(R, res.frame_or_vector)) < 1e-10
    assert len(res.restart_values) >= light_cfg.restarts
    assert res.value == min(res.restart_values)


def test_iterates_stay_feasible_and_below_reference_value():
    """Each of the two rows of min_isotropic at restarts = 1, the seeded
    start and the probe start, descended alone so that its iterates are not
    interleaved with the other row's.  Every accepted value is strictly below
    the Zhang-Hager reference value C_k recomputed from the trail (zh_update),
    C_k never increases, and the last value is at most the first."""
    R = random_curvature(6, seed=41)
    cfg = OptimizerConfig(restarts=1, seed=3)
    mat = R.mat / frames._unit_scale(R.mat)
    for F0 in (frames._random_starts(cfg, 6, 4)[0], _best_probe(mat, 6)):
        trail = []

        def spy(F, val, gnorm):
            trail.append((F.copy(), val))

        frames._descend(_iso_value_grad(mat[None], 6, 1), F0[None], cfg, spy)
        values = [v for _, v in trail]
        assert len(values) > 1
        ref, weight = values[0], 1.0
        for v in values[1:]:
            assert v < ref
            new_ref, weight = zh_update(ref, weight, v)
            assert new_ref <= ref + 1e-12
            ref = new_ref
        assert values[-1] <= values[0]
        assert max(np.diff(values)) > 1e-3  # some accepted steps rise above their row's value
        for F, _ in trail[:: max(1, len(trail) // 10)]:
            defect = np.max(np.abs(F.T @ F - np.eye(4)))
            assert defect < 1e-9


def test_probe_set_dominance(light_cfg):
    """Reported minimum never exceeds any axis-aligned frame value."""
    for seed in (42, 43):
        R = random_curvature(6, seed=seed)
        res = min_isotropic(R, light_cfg)
        probe_vals = isotropic_from_columns(R.mat, probe_frames(6))
        assert res.value <= np.min(probe_vals) + 1e-10


@pytest.mark.parametrize("n", [4, 5, 6, 8, 12])
def test_probe_values_read_off_coefficients(n):
    """The best probe, read off M, is the first minimum of the brute-force
    enumeration of all 2 C(n, 4) axis-aligned frames."""
    for seed in range(3):
        R = random_curvature(n, seed=1000 + 10 * n + seed)
        values = isotropic_from_columns(R.mat, probe_frames(n))
        np.testing.assert_array_equal(_best_probe(R.mat, n),
                                      probe_frames(n)[np.argmin(values)])


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


@pytest.mark.parametrize("seed", [0, 5])
def test_oracle_is_argmin_of_one_stream(seed):
    """The oracle scores the frames of one default_rng(seed) stream, however it
    chunks them, and reports the first minimum, value and frame."""
    R = random_curvature(6, seed=49)
    q = _orthonormalize(np.random.default_rng(seed).standard_normal((300, 6, 4)))
    vals = isotropic_from_columns(R.mat, q)
    value, frame = sample_frames_min(R, num_samples=300, seed=seed)
    assert value == vals.min()
    np.testing.assert_array_equal(frame, q[np.argmin(vals)])


def test_batch_isotropic_matches_scalar_path():
    R = random_curvature(6, seed=48)
    rng = np.random.default_rng(48)
    frames = np.linalg.qr(rng.standard_normal((7, 6, 4)))[0]
    stacked = isotropic_from_columns(R.mat, frames)
    assert stacked.shape == (7,)
    for b in range(7):
        assert np.isclose(stacked[b], iso_table(R, frames[b]))


def test_fubini_study_min_is_zero(fs4, light_cfg):
    res = min_isotropic(fs4[0], light_cfg)
    assert abs(res.value) < 1e-8
    assert all(v >= -1e-8 for v in res.restart_values)


def test_min_isotropic_matches_exact_n4_minimum():
    """At n = 4 the minimum is read off the eigenvalues on Lambda^+ and
    Lambda^-, so the search is held to it on tensors that are no model."""
    assert np.isclose(min_isotropic_n4(model_sphere(4, 1.5)), 6.0)
    cfg = OptimizerConfig(restarts=16, seed=0)
    for seed in range(20):
        R = random_curvature(4, seed=1100 + seed)
        exact = min_isotropic_n4(R)
        assert abs(min_isotropic(R, cfg).value - exact) <= 1e-12 * abs(exact)


def test_pinching_values(light_cfg, fs4):
    assert np.isclose(pinching_constant(model_sphere(6, 1.0), light_cfg), 1.0)
    assert np.isclose(pinching_constant(model_sphere(6, 2.0), light_cfg), 2.0)
    assert abs(pinching_constant(fs4[0], light_cfg)) < 1e-8


def test_pinch_scan_values_and_iteration_budget(fs4):
    """The sphere -> Fubini-Study scan at n = 4 (11 tensors, 16 restarts,
    seed 0): every tensor is certified at min iso 4 (1 - t), and the descent
    from the same starts finds those values too, where the Barzilai-Borwein
    first trial keeps the total work to 614 iterations (the doubling step
    rule it replaced took 6179)."""
    cfg = OptimizerConfig(restarts=16, seed=0)
    sphere = model_sphere(4, 1.0)
    total = 0
    for k in range(11):
        t = k / 10
        R = (1.0 - t) * sphere + t * fs4[0]
        res = min_isotropic(R, cfg)
        assert res.stop_reason == "certified" and abs(res.value - 4.0 * (1.0 - t)) <= 1e-12
        res = frames._search_isotropic(frames._unit_probes(R.mat[None], 4), 4, cfg)[0]
        assert abs(res.value - 4.0 * (1.0 - t)) <= 1e-8
        total += sum(res.restart_iterations)
    assert total < 1500


def test_pinching_shift_leaves_zero_minimum(light_cfg):
    R = random_curvature(5, seed=50) + 4.0 * model_sphere(5, 1.0)
    kappa = pinching_constant(R, light_cfg)
    shifted = R + (-kappa) * model_sphere(5, 1.0)
    assert abs(min_isotropic(shifted, light_cfg).value) < 1e-6


# ---------------------------------------------------------------------------
# Ky Fan certificate
# ---------------------------------------------------------------------------

def _rotated(R, seed):
    """R(P., P., P., P.) for the Q factor P of a Gaussian matrix: M -> C^T M C
    with C the action of P on 2-forms."""
    P = np.linalg.qr(np.random.default_rng(seed).standard_normal((R.n, R.n)))[0]
    C = two_form_action(P)
    return CurvatureTensor(R.n, C.T @ R.mat @ C)


@pytest.mark.parametrize("n", range(4, 13))
def test_ky_fan_bound_is_below_the_sampled_and_searched_minima(n):
    """2 (lambda_1 + lambda_2) of M is at most the sampled minimum, the
    search value and 2 (d_1 + d_2) of the diagonal; every search reports it
    as ``lower_bound``, to 1e-12 |M|_max, and certifies none of these
    tensors."""
    cfg = OptimizerConfig(restarts=4, seed=0)
    for seed in range(3):
        R = random_curvature(n, seed=1200 + 10 * n + seed)
        lam = np.linalg.eigvalsh(R.mat)
        bound = 2.0 * (lam[0] + lam[1])
        scale = np.abs(R.mat).max()
        res = min_isotropic(R, cfg)
        assert bound <= sample_frames_min(R, num_samples=512, seed=seed)[0]
        assert bound <= res.value and res.stop_reason != "certified"
        d = np.sort(np.diagonal(R.mat / scale))
        assert bound / scale <= 2.0 * (d[0] + d[1])
        assert isinstance(res.lower_bound, float)
        assert abs(res.lower_bound - bound) <= 1e-12 * scale


@pytest.mark.parametrize("n, kind", [(4, "fs"), (6, "fs"), (8, "fs"), (8, "r0"), (12, "r0")])
def test_certified_result_is_the_probe_frame_at_the_bound(n, kind):
    """The Fubini-Study and quaternionic models are certified: one row, the
    probe frame, whose value is within CERT_TOL |M|_max of the bound."""
    R = (model_fubini_study(n // 2, 4.0)[0] if kind == "fs"
         else model_r0(standard_quaternion_triple(n)))
    scale = np.abs(R.mat).max()
    res = min_isotropic(R, OptimizerConfig(restarts=4, seed=0))
    assert (res.stop_reason, res.converged, res.passes, res.iterations) == (
        "certified", True, 0, 0)
    assert (res.restart_values, res.restart_iterations, res.restart_stop_reasons) == (
        [res.value], [0], ["certified"])
    F = _best_probe(R.mat / scale, n)
    np.testing.assert_array_equal(res.frame_or_vector.matrix, F)
    np.testing.assert_array_equal(res.restart_frames[0], F)
    assert abs(res.value - isotropic_curvature(R, res.frame_or_vector)) <= 1e-14 * scale
    assert res.value - res.lower_bound <= frames.CERT_TOL * scale


@pytest.mark.parametrize("n, kind", [(6, "fs"), (8, "fs"), (8, "r0"), (12, "r0")])
def test_rotated_model_is_not_certified_and_descends_to_zero(n, kind):
    """Negative control: a random rotation keeps Ky Fan's bound at 0 but
    takes the zero frames off the axes, so the probe frame is no zero frame.
    The search must not certify it, and must descend to 0."""
    R = _rotated(model_fubini_study(n // 2, 4.0)[0] if kind == "fs"
                 else model_r0(standard_quaternion_triple(n)), seed=1300 + n)
    scale = np.abs(R.mat).max()
    assert abs(frames._ky_fan_bound(R.mat)) <= 1e-12 * scale
    assert isotropic_from_columns(R.mat, _best_probe(R.mat / scale, n)) > 0.1 * scale
    res = min_isotropic(R, OptimizerConfig(restarts=8, seed=0))
    assert res.stop_reason == "grad_tol" and res.passes > 0
    assert abs(res.value) <= 1e-10 * scale


def test_non_finite_tensor_is_never_certified(monkeypatch):
    """A sphere with one NaN or infinite entry, behind the sphere itself in
    one stack, raises NonFiniteError naming its index before any probe,
    bound or descent runs, so the search fails closed; the sphere alone is
    certified."""
    n = 6
    S = model_sphere(n, 1.0).mat
    cfg = OptimizerConfig(restarts=1, max_iters=3, seed=0)

    def refuse(*args, **kwargs):
        raise AssertionError("a certificate or a descent ran on a non-finite tensor")

    for (i, j), v in itertools.product([(0, 14), (7, 7)], [np.nan, np.inf, -np.inf]):
        M = S.copy()
        M[i, j] = M[j, i] = v
        with monkeypatch.context() as patched:
            for name in ("_unit_probes", "_ky_fan_bound", "_search_isotropic", "_descend"):
                patched.setattr(frames, name, refuse)
            with pytest.raises(NonFiniteError, match="isotropic search: tensor 1 is not finite"):
                frames._min_isotropic_stack(np.stack([S, M]), n, cfg)
    res = frames._min_isotropic_stack(S[None], n, cfg)[0]
    assert res.stop_reason == "certified" and res.value == 4.0


@pytest.mark.parametrize("first", (0, 2, 4))
def test_isotropic_stack_names_its_first_non_finite_tensor(first):
    """In a stack of random tensors, the error names the first bad index
    however many follow it."""
    n = 5
    stack = np.stack([random_curvature(n, seed=1400 + t).mat for t in range(5)])
    stack[first:, 0, 0] = np.nan
    stack[-1, 1, 2] = stack[-1, 2, 1] = np.inf
    with pytest.raises(NonFiniteError, match=f"tensor {first} is not finite"):
        frames._min_isotropic_stack(stack, n, OptimizerConfig(restarts=1, seed=0))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_iso_gradient_finite_difference():
    """Euclidean gradient against central differences of the raw objective."""
    h = 1e-6
    for seed in range(5):
        R = random_curvature(5, seed=60 + seed)
        vg = _iso_value_grad(R.mat[None], 5, 1)
        rows = np.arange(1)
        rng = np.random.default_rng(seed)
        F = np.linalg.qr(rng.standard_normal((1, 5, 4)))[0]
        _, G = vg(F, rows)
        V = rng.standard_normal((1, 5, 4))
        num = (vg(F + h * V, rows)[0][0] - vg(F - h * V, rows)[0][0]) / (2.0 * h)
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


def test_first_order_check_is_vacuous_at_n2():
    """At n = 2 no unit Y is orthogonal to X and JX: the conditions hold vacuously."""
    rep = maximizer_first_order_check(model_sphere(2), standard_complex_structure(2),
                                      np.array([1.0, 0.0]))
    assert rep.passed and rep.min_slack == np.inf
    assert rep.deriv_y == rep.deriv_jy == 0.0
    assert np.isclose(rep.value, 1.0)


def test_first_order_check_rejects_a_non_unit_vector():
    """At x = 2 e_1 on the round sphere the terms would mix |X|^4 with unit-Y
    ones (value 16, min_slack 16): x must be a unit vector."""
    J = standard_complex_structure(4)
    with pytest.raises(CurvatureError, match="unit vector"):
        maximizer_first_order_check(model_sphere(4), J, 2.0 * np.eye(4)[0])
    x = (1.0 + 1e-7) * np.eye(4)[0]        # within FEASIBILITY_TOL
    assert maximizer_first_order_check(model_sphere(4), J, x).passed


@pytest.mark.parametrize("n, k", [(4, 2), (6, 2), (8, 4), (12, 4), (9, 3)])
def test_complement_is_orthonormal_and_orthogonal_to_its_input(n, k):
    """The complete QR's last n - k columns are orthonormal and orthogonal to
    the k input columns, for each matrix of a stack."""
    V = _orthonormalize(np.random.default_rng(70 + n).standard_normal((3, n, k)))
    W = _complement(V)
    assert W.shape == (3, n, n - k)
    eye = np.eye(n - k)
    for v, w in zip(V, W):
        assert np.abs(w.T @ w - eye).max() <= 1e-14
        assert np.abs(v.T @ w).max() <= 1e-14


def test_complement_is_empty_for_a_full_basis():
    """[x, Jx] at n = 2 and [X, IX, JX, KX] at n = 4 span the space: no column is left."""
    x = np.array([0.6, 0.8])
    J = standard_complex_structure(2).matrix
    assert _complement(np.stack([x, J @ x], axis=1)[None]).shape == (1, 2, 0)
    X = np.array([0.5, 0.5, 0.5, 0.5])
    V = np.stack([X] + [A @ X for A in standard_quaternion_triple(4).matrices], axis=-1)
    assert _complement(V[None]).shape == (1, 4, 0)


def test_complement_of_a_stack_is_each_matrix_complement():
    """A stack's complements are those of its matrices one by one, bit for bit."""
    V = _orthonormalize(np.random.default_rng(71).standard_normal((5, 8, 4)))
    W = _complement(V)
    for v, w in zip(V, W):
        np.testing.assert_array_equal(w, _complement(v))


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


def complex_columns(Jm):
    """V (n, m) with J V = i V and V^H V = 2 I: x = Re(V z) maps C^m onto R^n."""
    V = np.sqrt(2.0) * np.linalg.eigh(1j * Jm)[1][:, :len(Jm) // 2]
    np.testing.assert_allclose(Jm @ V, 1j * V, atol=1e-14)
    np.testing.assert_allclose(V.conj().T @ V, 2.0 * np.eye(len(Jm) // 2), atol=1e-14)
    return V


def j_frame_defect(Jm, F):
    """|J F - F E| of a frame F = (X, JX, Y, JY), E = e2 e1^T - e1 e2^T + e4 e3^T - e3 e4^T."""
    E = np.zeros((4, 4))
    E[[1, 0, 3, 2], [0, 1, 2, 3]] = [1.0, -1.0, 1.0, -1.0]
    return np.linalg.norm(Jm @ F - F @ E)


@pytest.mark.parametrize("n", [4, 8])
def test_bisectional_gradient_finite_difference(n):
    """The closure's Euclidean gradient g in the complex pairs Z against
    central differences of its value along tangent directions xi of V_2(C^m):
    the derivative is Re <g, xi>.  Its value is R(X, JX, Y, JY) at
    (X, Y) = Re(V Z)."""
    h = 1e-6
    Jm = standard_complex_structure(n).matrix
    V = complex_columns(Jm)
    rows = np.arange(1)
    for seed in range(5):
        R = random_curvature(n, seed=70 + seed)
        vg = frames._bisectional_value_grad(R.mat[None], Jm, V, 1)
        rng = np.random.default_rng(seed)
        shape = (2, 1, n // 2, 2)
        Z, D = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        Z = _retract(Z)
        value, g = vg(Z, rows)
        xi = _stiefel_tangent(Z, D)
        num = (vg(Z + h * xi, rows)[0][0] - vg(Z - h * xi, rows)[0][0]) / (2.0 * h)
        assert abs(num - np.vdot(g, xi).real) < 1e-6 * max(1.0, abs(num))
        x, y = (V @ Z[0]).real.T
        exact = evaluate(R, x, Jm @ x, y, Jm @ y)
        assert abs(value[0] - exact) < 1e-12 * max(1.0, abs(exact))


@pytest.mark.parametrize("n", [4, 8])
def test_min_orthogonal_bisectional_reports_j_frame(n, light_cfg):
    """The reported frame satisfies J F = F E to 1e-12, and the restart
    frames are the (X, Y) columns."""
    J = standard_complex_structure(n)
    res = min_orthogonal_bisectional(random_curvature(n, seed=80 + n), J, light_cfg)
    F = res.frame_or_vector.matrix
    assert j_frame_defect(J.matrix, F) <= 1e-12
    assert all(XY.shape == (n, 2) for XY in res.restart_frames)
    np.testing.assert_array_equal(res.restart_frames[res.restart_values.index(res.value)],
                                  F[:, [0, 2]])


@pytest.mark.parametrize("kind, n", [("kahler", n) for n in (4, 6, 8, 10, 12)]
                         + [("generic", n) for n in (6, 8, 10, 12)])
def test_min_orthogonal_bisectional_stays_on_pairs(kind, n):
    """On fs + 0.1 * samples of the Kahler space, and of the whole curvature
    space, the search raises nothing, its value is orthogonal_bisectional at
    its reported (X, Y), that frame is a J-frame and every restart's pair is
    feasible, all to 1e-12."""
    fs, J = model_fubini_study(n // 2, 4.0)
    Jm = J.matrix
    space = kahler_subspace(J) if kind == "kahler" else curvature_space_basis(n)
    for s in range(3):
        R = fs + 0.1 * sample(space, s)
        res = min_orthogonal_bisectional(R, J, OptimizerConfig(4, 300, seed=3))
        F = res.frame_or_vector.matrix
        exact = orthogonal_bisectional(R, J, F[:, 0], F[:, 2])
        assert abs(res.value - exact) <= 1e-12 * max(1.0, abs(exact))
        assert j_frame_defect(Jm, F) <= 1e-12
        for XY in res.restart_frames:
            x, y = XY.T
            feas = [x @ x - 1.0, y @ y - 1.0, x @ y, (Jm @ x) @ y]
            assert np.max(np.abs(feas)) <= 1e-12


@pytest.mark.parametrize("n", [4, 6, 8])
def test_min_orthogonal_bisectional_minimizes_over_y(n):
    """At each converged row's X, its value is the exact minimum over Y: the
    bottom eigenvalue of y -> R(X, JX, y, Jy) on the complement of
    span{X, JX}, from the rank-4 table and a full SVD."""
    J = standard_complex_structure(n)
    Jm = J.matrix
    for seed in range(3):
        R = random_curvature(n, seed=860 + 10 * n + seed)
        T, tol = R.rank4, 1e-12 * max(1.0, float(np.max(np.abs(R.mat))))
        res = min_orthogonal_bisectional(R, J, OptimizerConfig(8, seed=seed))
        for v, XY, reason in zip(res.restart_values, res.restart_frames,
                                 res.restart_stop_reasons):
            if reason != "grad_tol":
                continue
            x = XY[:, 0]
            omega = np.einsum("ijab,i,j->ab", T, x, Jm @ x)     # R(x, Jx, e_a, e_b)
            B = omega @ Jm                                      # y^T B y = R(x, Jx, y, Jy)
            W = np.linalg.svd(np.array([x, Jm @ x]))[2][2:].T
            bottom = np.linalg.eigvalsh(W.T @ (0.5 * (B + B.T)) @ W)[0]
            assert v - tol <= bottom <= v + tol


def test_min_orthogonal_bisectional_r0(t8, r0_8, light_cfg):
    res = min_orthogonal_bisectional(r0_8, t8.J, light_cfg)
    assert abs(res.value) < 1e-8         # attained near Y = IX


def test_min_orthogonal_bisectional_zero(light_cfg):
    J = standard_complex_structure(6)
    assert abs(min_orthogonal_bisectional(zero_tensor(6), J, light_cfg).value) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("search", [min_isotropic, pinching_constant, sample_frames_min])
def test_isotropic_searches_reject_n_below_4(n, search):
    with pytest.raises(CurvatureError, match="n >= 4"):
        search(model_sphere(n))


def test_min_orthogonal_bisectional_rejects_n2(light_cfg):
    with pytest.raises(CurvatureError, match="n < 4"):
        min_orthogonal_bisectional(model_sphere(2), standard_complex_structure(2), light_cfg)


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


@pytest.mark.parametrize("min_iso", [np.nan, np.inf, -np.inf])
def test_boundary_check_rejects_a_non_finite_certificate(fs4, min_iso):
    """A non-finite min_iso is no certificate: the check fails closed instead
    of reporting itself inapplicable."""
    R, _ = fs4
    with pytest.raises(NonFiniteError, match="min_iso is not finite"):
        boundary_q_check(R, FourFrame(np.eye(4)), min_iso=min_iso)


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


def _triple(t8, kind):
    """The standard triple, an SO(3)-rotated one, or one conjugated by O(8)."""
    rng = np.random.default_rng(11)
    if kind == "rotated":
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        return rotate_triple(t8, q * np.sign(np.linalg.det(q)))
    if kind == "conjugated":
        Q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        return QuaternionTriple(*(ComplexStructure(Q @ A @ Q.T) for A in t8.matrices))
    return t8


@pytest.mark.parametrize("kind", ["standard", "rotated", "conjugated"])
def test_qk_bound_reaches_the_joint_maximum_at_i(t8, kind):
    """Sp(1) symmetry puts the joint maximum over (X, J) at J = I: the search
    over X alone matches the joint search over (X, J), and at its X no
    combination aI + bJ + cK does better than I (top eigenvalue of the Gram
    matrix R1(X, A X, X, B X) over A, B in the triple)."""
    T = _triple(t8, kind)
    hk = hyperkahler_subspace(T)
    cfg = OptimizerConfig(restarts=8, seed=0)
    for seed in range(3):
        R1 = sample(hk, seed=seed)
        rep = qk_q_bound_check(R1, T, cfg)
        v = rep.max_value
        assert rep.j_coeffs == (1.0, 0.0, 0.0)
        assert v >= qk_joint_search_serial(R1, T, cfg)[0] - 1e-9 * max(1.0, abs(v))
        x = max_holomorphic_sectional(R1, T.I, cfg).frame_or_vector
        ws = np.array([wedge(x, A @ x) for A in T.matrices])
        assert np.linalg.eigvalsh(ws @ R1.mat @ ws.T)[-1] - v <= 1e-12 * max(1.0, abs(v))
        # the closed-form paired diagnostic against the loop over I-pairs
        excess = qk_paired_excess_serial(R1, T, x, v)
        assert abs(rep.y2_max_excess - excess) <= 1e-12 * max(1.0, v * v)


def test_qk_bound_rejects_non_hyperkahler(t8, r0_8):
    with pytest.raises(CurvatureError):
        qk_q_bound_check(r0_8, t8, OptimizerConfig(restarts=2, seed=0))


# ---------------------------------------------------------------------------
# sequences of tensors: one descent stack
# ---------------------------------------------------------------------------

QK_FIELDS = ("max_value", "q_value", "bound", "y2_max_excess")


@pytest.fixture(scope="module")
def hk_samples(hk8):
    return [sample(hk8, seed=seed) for seed in range(20)]


@pytest.fixture(scope="module")
def hk_reports(hk_samples, t8):
    return qk_q_bound_check(hk_samples, t8, OptimizerConfig(restarts=4, seed=0))


def assert_reports_match(a, b, rtol=1e-12):
    for name in QK_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert abs(x - y) <= rtol * max(1.0, abs(y)), name


def test_qk_bound_sequence_matches_one_search_per_tensor(hk_samples, hk_reports, t8):
    cfg = OptimizerConfig(restarts=4, seed=0)
    assert len(hk_reports) == len(hk_samples)
    for R1, rep in zip(hk_samples, hk_reports):
        res = max_holomorphic_sectional(R1, t8.I, cfg)
        assert abs(rep.max_value - res.value) <= 1e-12 * max(1.0, abs(res.value))
        assert rep.passed and rep.first_order.passed
        assert (rep.stop_reason, rep.iterations) == (res.stop_reason, res.iterations)
        assert list(rep.restart_stop_reasons) == res.restart_stop_reasons
        assert set(rep.restart_stop_reasons) <= set(STOP_REASONS)
    # the tensors share one descent stack, and every report gives its passes
    assert len({rep.passes for rep in hk_reports}) == 1 and hk_reports[0].passes > 1
    # one tensor gives one report, the same as a sequence of one
    single = qk_q_bound_check(hk_samples[3], t8, cfg)
    assert isinstance(single, QKBoundReport)
    assert_reports_match(single, qk_q_bound_check(hk_samples[3:4], t8, cfg)[0])
    assert_reports_match(single, hk_reports[3])


def test_qk_bound_sequence_order_is_kept(hk_samples, hk_reports, t8):
    perm = np.random.default_rng(4).permutation(len(hk_samples))
    permuted = qk_q_bound_check([hk_samples[i] for i in perm], t8,
                                OptimizerConfig(restarts=4, seed=0))
    for j, i in enumerate(perm):
        assert_reports_match(permuted[j], hk_reports[i])


def test_qk_bound_empty_sequence(t8):
    assert qk_q_bound_check([], t8) == []


@pytest.fixture
def no_descent(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a descent ran before every input was checked")
    monkeypatch.setattr(frames, "_descend", refuse)


@pytest.mark.parametrize("at", [0, 2, 4])
def test_qk_bound_gate_fails_closed_before_any_descent(at, hk_samples, t8, r0_8, no_descent):
    tensors = list(hk_samples[:4])
    tensors.insert(at, r0_8)
    with pytest.raises(CurvatureError, match=f"input {at} fails the hyperkahler residual check"):
        qk_q_bound_check(tensors, t8, OptimizerConfig(restarts=2, seed=0))


def test_qk_bound_gate_fails_closed_on_nan_before_any_descent(hk_samples, t8, no_descent):
    """A NaN residual fails the gate: it is no pass of the residual test."""
    mat = np.array(hk_samples[0].mat)
    mat[1, 2] = mat[2, 1] = np.nan
    tensors = list(hk_samples[:4])
    tensors.insert(2, raw_tensor(8, mat))
    with pytest.raises(CurvatureError, match="input 2 fails the hyperkahler residual check: nan"):
        qk_q_bound_check(tensors, t8, OptimizerConfig(restarts=2, seed=0))


@pytest.mark.parametrize("at", [0, 2, 4])
def test_qk_bound_dimension_mismatch_anywhere_raises(at, hk_samples, t8, no_descent):
    tensors = list(hk_samples[:4])
    tensors.insert(at, zero_tensor(4))
    with pytest.raises(CurvatureError, match="dimensions differ"):
        qk_q_bound_check(tensors, t8, OptimizerConfig(restarts=2, seed=0))


@pytest.fixture(scope="module", params=[4, 8, 12])
def qk_case(request):
    """(triple, three hyper-Kahler samples, config, their sequence reports) at n."""
    T = standard_quaternion_triple(request.param)
    tensors = [sample(hyperkahler_subspace(T), seed=seed) for seed in range(3)]
    cfg = OptimizerConfig(restarts=4, seed=0)
    return T, tensors, cfg, qk_q_bound_check(tensors, T, cfg)


def assert_all_fields_match(a, b, rtol=1e-12, skip=()):
    """Every field of two QKBoundReports or FirstOrderReports but those named
    in ``skip``: floats to rtol relative to max(1, |b|), reports field by
    field, the rest exactly."""
    for f in dataclasses.fields(b):
        if f.name in skip:
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(y, FirstOrderReport):
            assert_all_fields_match(x, y, rtol)
        elif isinstance(y, float):
            assert x == y or abs(x - y) <= rtol * max(1.0, abs(y)), f.name
        else:
            assert x == y, f.name


def test_qk_stacked_reports_match_one_tensor_calls(qk_case):
    T, tensors, cfg, reports = qk_case
    for R1, rep in zip(tensors, reports):
        single = qk_q_bound_check(R1, T, cfg)
        # passes count the whole stack, which runs as long as its slowest row
        assert_all_fields_match(rep, single, skip=("passes", "newton_passes"))
        assert rep.passes >= single.passes and rep.newton_passes >= single.newton_passes


def test_qk_stacked_first_order_matches_maximizer_first_order_check(qk_case):
    T, tensors, cfg, reports = qk_case
    for R1, rep in zip(tensors, reports):
        x = max_holomorphic_sectional(R1, T.I, cfg).frame_or_vector
        assert_all_fields_match(rep.first_order, maximizer_first_order_check(R1, T.I, x))


def test_qk_paired_diagnostic_is_minus_max_squared_at_n4():
    """At n = 4 the quaternionic complement of X is empty."""
    T = standard_quaternion_triple(4)
    tensors = [sample(hyperkahler_subspace(T), seed=seed) for seed in range(3)]
    for rep in qk_q_bound_check(tensors, T, OptimizerConfig(restarts=2, seed=0)):
        assert rep.y2_max_excess == -rep.max_value ** 2


_J8, _X8 = standard_complex_structure(8), np.eye(8)[0]


@pytest.mark.parametrize("call", [
    lambda R, cfg: min_orthogonal_bisectional(R, _J8, cfg),
    lambda R, cfg: maximizer_first_order_check(R, _J8, _X8),
    lambda R, cfg: holomorphic_sectional(R, _J8, _X8),
    lambda R, cfg: orthogonal_bisectional(R, _J8, _X8, np.eye(8)[2]),
    lambda R, cfg: boundary_q_check(R, FourFrame(np.eye(8)[:, :4]), 0.0),
    lambda R, cfg: project_onto(curvature_space_basis(5), R),
    lambda R, cfg: constraint_violation(kahler_subspace(standard_complex_structure(4)), R),
    lambda R, cfg: max_holomorphic_sectional(R, _J8, cfg),
    lambda R, cfg: isotropic_curvature(R, FourFrame(np.eye(8)[:, :4])),
    lambda R, cfg: qk_q_bound_check(R, standard_quaternion_triple(8), cfg),
    lambda R, cfg: qk_decompose(R, standard_quaternion_triple(8)),
], ids=["min_orthogonal_bisectional", "maximizer_first_order_check", "holomorphic_sectional",
        "orthogonal_bisectional", "boundary_q_check", "project_onto", "constraint_violation",
        "max_holomorphic_sectional", "isotropic_curvature", "qk_q_bound_check", "qk_decompose"])
def test_dimension_mismatch_raises_curvature_error(call, light_cfg):
    """A structure, frame or space of another n than the tensor's fails at
    entry with CurvatureError, not inside numpy."""
    with pytest.raises(CurvatureError, match="dimensions differ: 6 and"):
        call(random_curvature(6, seed=50), light_cfg)


_J6, _E6 = standard_complex_structure(6), np.eye(6)


@pytest.mark.parametrize("call", [
    lambda R, v: holomorphic_sectional(R, _J6, v),
    lambda R, v: orthogonal_bisectional(R, _J6, v, _E6[2]),
    lambda R, v: orthogonal_bisectional(R, _J6, _E6[0], v),
    lambda R, v: maximizer_first_order_check(R, _J6, v),
    lambda R, v: evaluate(R, v, _E6[1], _E6[2], _E6[3]),
    lambda R, v: evaluate(R, _E6[0], _E6[1], _E6[2], v),
    lambda R, v: curvature_map(R, v, _E6[1]),
    lambda R, v: curvature_map(R, _E6[0], v),
], ids=["holomorphic_sectional", "orthogonal_bisectional-x", "orthogonal_bisectional-y",
        "maximizer_first_order_check", "evaluate-x", "evaluate-w", "curvature_map-z",
        "curvature_map-w"])
@pytest.mark.parametrize("v, error, match", [
    (np.ones(4), CurvatureError, r"must have shape \(6,\)"),
    (np.ones(7), CurvatureError, r"must have shape \(6,\)"),
    (np.ones((6, 1)), CurvatureError, r"must have shape \(6,\)"),
    (1.0, CurvatureError, r"must have shape \(6,\)"),
    (np.array([np.nan, 0.0, 0.0, 0.0, 0.0, 0.0]), NonFiniteError, "has non-finite entries"),
    (np.array([0.0, 0.0, 0.0, 0.0, 0.0, np.inf]), NonFiniteError, "has non-finite entries"),
], ids=["short", "long", "column", "scalar", "nan", "inf"])
def test_vector_length_mismatch_raises_curvature_error(call, v, error, match):
    """A vector of another shape than (n,) fails at entry with CurvatureError,
    not inside numpy, and one with a non-finite entry with NonFiniteError."""
    with pytest.raises(error, match=match):
        call(random_curvature(6, seed=1), v)
