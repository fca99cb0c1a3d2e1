"""Evolution tests: exact rays, step control, cone monitoring."""

import warnings

import numpy as np
import pytest

from curvkit import flow
from curvkit.core import (CurvatureError, NonFiniteError, _stored, inner, model_sphere, qform,
                          scalar_curvature, standard_quaternion_triple, zero_tensor)
from curvkit.flow import (FlowConfig, FlowError, cone_preservation_probe,
                          default_horizon, integrate_q_flow, rk4_step,
                          scalar_blowup_oracle)
from curvkit.frames import OptimizerConfig
from curvkit.spaces import curvature_space_basis, sample

from helpers import (dop853_step_public, q_flow_serial, random_curvature, raw_tensor,
                     rk4_step_public, shift_into_cone, step_doubling_flow)
from curvkit import model_r0, min_isotropic


LIGHT_OPT = OptimizerConfig(restarts=2, max_iters=200, seed=0)


def test_zero_tensor_is_fixed_point():
    R, trace = integrate_q_flow(zero_tensor(5), FlowConfig(t_end=0.3,
                                                           optimizer=LIGHT_OPT))
    assert R.norm() == 0.0
    assert trace.terminated_by == "t_end"
    assert trace.scalars[-1] == 0.0


def test_blowup_oracle_values():
    assert np.isclose(scalar_blowup_oracle(6.0, 1.0, 0.1), 2.5)
    assert np.isclose(scalar_blowup_oracle(8.0, 1.0, 0.05), 1.0 / 0.6)
    assert scalar_blowup_oracle(6.0, 1.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        scalar_blowup_oracle(6.0, 1.0, 1.0 / 6.0)


@pytest.mark.parametrize("n,lam0,t_end", [(4, 1.0, 0.1), (5, 0.5, 0.2)])
def test_sphere_ray_matches_oracle(n, lam0, t_end):
    R0 = model_sphere(n, lam0)
    c = 2.0 * (n - 1)
    R, trace = integrate_q_flow(R0, FlowConfig(t_end=t_end, rel_tol=1e-10,
                                               optimizer=LIGHT_OPT))
    lam = inner(R, model_sphere(n, 1.0)) / inner(model_sphere(n, 1.0),
                                                 model_sphere(n, 1.0))
    exact = scalar_blowup_oracle(c, lam0, t_end)
    assert abs(lam - exact) < 1e-6 * exact
    # the ray stays a ray: no component off the sphere line
    drift = (R + (-lam) * model_sphere(n, 1.0)).norm()
    assert drift < 1e-8 * R.norm()
    assert trace.terminated_by == "t_end"
    assert np.isclose(trace.scalars[-1], scalar_curvature(R))


def test_r0_ray_light():
    R0 = model_r0(standard_quaternion_triple(4), 0.5)
    R, _ = integrate_q_flow(R0, FlowConfig(t_end=0.05, rel_tol=1e-10,
                                           optimizer=LIGHT_OPT))
    # eigen-ray with c = 2m + 4 = 6 at n = 4
    lam = 0.5 * inner(R, R0) / inner(R0, R0)
    assert abs(lam - scalar_blowup_oracle(6.0, 0.5, 0.05)) < 1e-6


def test_final_tensor_still_algebraic():
    base = random_curvature(4, seed=70)
    c = shift_into_cone(base, lambda R: min_isotropic(R, LIGHT_OPT).value)
    R0 = base + c * model_sphere(4, 1.0)
    R, _ = integrate_q_flow(R0, FlowConfig(t_end=default_horizon(R0) / 4,
                                           optimizer=LIGHT_OPT))
    assert R.validation_defect() < 1e-8


def test_trace_bookkeeping():
    R0 = model_sphere(4, 1.0)
    _, trace = integrate_q_flow(R0, FlowConfig(t_end=0.05, monitor_every=3,
                                               optimizer=LIGHT_OPT))
    t = np.asarray(trace.times)
    assert t[0] == 0.0 and np.isclose(t[-1], 0.05)
    assert np.all(np.diff(t) > 0)
    assert len(trace.times) == len(trace.scalars) == len(trace.norm)
    assert len(trace.min_iso) == len(trace.times)
    assert trace.steps_accepted > 0


def test_blowup_guard_stops_early():
    R0 = model_sphere(4, 1.0)
    cfg = FlowConfig(t_end=0.16, blowup_guard=3.0, optimizer=LIGHT_OPT)
    R, trace = integrate_q_flow(R0, cfg)
    assert trace.terminated_by == "blowup_guard"
    assert trace.times[-1] < 0.16
    assert R.norm() > 3.0 * R0.norm()


def test_step_underflow_near_singularity():
    # push the integration straight through the blowup time
    cfg = FlowConfig(t_end=0.17, blowup_guard=1e30, optimizer=LIGHT_OPT)
    with pytest.raises(FlowError):
        integrate_q_flow(model_sphere(4, 1.0), cfg)


def test_overflow_stops_with_last_finite_state():
    """A reaction term that overflows ends the flow instead of raising."""
    R0 = model_sphere(4, 1e150)
    cfg = FlowConfig(t_end=1.0, blowup_guard=1e300, optimizer=LIGHT_OPT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        R, trace = integrate_q_flow(R0, cfg)
    assert trace.terminated_by == "non_finite"
    assert np.isfinite(R.mat).all()
    assert R.norm() >= R0.norm()
    assert np.isfinite(trace.norm).all() and trace.times[-1] < 1.0


def test_overflowing_reaction_term_raises_non_finite_error():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="not finite"):
            qform(model_sphere(4, 1e160))
    assert issubclass(NonFiniteError, CurvatureError)


def test_max_steps_cap():
    cfg = FlowConfig(t_end=0.1, max_steps=5, optimizer=LIGHT_OPT)
    _, trace = integrate_q_flow(model_sphere(4, 1.0), cfg)
    assert trace.terminated_by == "max_steps"
    assert trace.steps_accepted <= 5


def test_rk4_single_step_order():
    R0 = model_sphere(4, 1.0)
    errs = []
    for h in (2e-3, 1e-3, 5e-4):
        steps = int(round(0.04 / h))
        R = R0
        for _ in range(steps):
            R = rk4_step(R, h)
        G = model_sphere(4, 1.0)
        lam = inner(R, G) / inner(G, G)
        errs.append(abs(lam - scalar_blowup_oracle(6.0, 1.0, 0.04)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(abs(p - 4.0) < 0.3 for p in orders)


def _generic_flow_start():
    """A generic n = 5 tensor and a first step so large that it is rejected."""
    R0 = random_curvature(5, seed=72)
    t_end = 4.0 * default_horizon(R0)
    return R0, FlowConfig(t_end=t_end, dt_init=t_end, rel_tol=1e-10,
                          monitor_every=10**6, optimizer=LIGHT_OPT)


def test_dop853_makes_twelve_q_calls_per_accepted_step(monkeypatch):
    """Eleven new stages per attempt, and Q of each accepted state, the first
    stage of the next attempt (first same as last); the trace counts them."""
    calls = []
    real = flow.qform

    def counted(R):
        calls.append(R)
        return real(R)

    monkeypatch.setattr(flow, "qform", counted)
    R0, cfg = _generic_flow_start()
    _, trace = integrate_q_flow(R0, cfg)
    assert trace.steps_rejected > 0 and trace.steps_accepted > 0
    assert len(calls) == trace.reaction_evals
    assert len(calls) == 12 * trace.steps_accepted + 11 * trace.steps_rejected


def test_dop853_matches_serial_oracle():
    R0, cfg = _generic_flow_start()
    R, trace = integrate_q_flow(R0, cfg)
    S, accepted, rejected = q_flow_serial(R0, cfg.t_end, cfg.dt_init, cfg.rel_tol)
    assert (trace.steps_accepted, trace.steps_rejected) == (accepted, rejected)
    assert np.array_equal(R.mat, S.mat)


def test_dop853_tableau_order_conditions():
    """With c the row sums of A: sum_i b_i c_i^(k-1) = 1/k for k = 1..8 (and
    not for k = 9), and the 5th- and 3rd-order error weights integrate the
    monomials of degree below 5 and 3 exactly, so in particular sum to 0."""
    c = np.array([row.sum() for row in flow._A])
    assert len(c) == len(flow._B) == len(flow._E5) == len(flow._E3) == 12
    assert all(len(row) == i for i, row in enumerate(flow._A))
    for k in range(1, 9):
        assert abs(flow._B @ c ** (k - 1) - 1.0 / k) < 1e-14, k
    assert abs(flow._B @ c ** 8 - 1.0 / 9) > 1e-6
    for E, order in ((flow._E5, 5), (flow._E3, 3)):
        assert all(abs(E @ c ** k) < 1e-14 for k in range(order))
        assert abs(E @ c ** order) > 1e-4


def test_dop853_fixed_step_order_on_sphere_ray():
    R0 = G = model_sphere(4, 1.0)
    exact = scalar_blowup_oracle(6.0, 1.0, 0.1)

    def q(M):
        return qform(_stored(M, 4)).mat

    errs = []
    for steps in (4, 8, 16):
        R, K = R0, np.empty((12, 6, 6))
        for _ in range(steps):
            K[0] = q(R.mat)
            R, _ = flow._dop853_step(R, K, 0.1 / steps, q)
        errs.append(abs(inner(R, G) / inner(G, G) - exact))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(abs(p - 8.0) < 0.35 for p in orders), orders


def test_dop853_tableau_matches_scipy():
    coeffs = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    for i, row in enumerate(flow._A):
        assert np.array_equal(row, coeffs.A[i, :i]), i
    assert np.array_equal(flow._B, coeffs.B)
    assert np.array_equal(flow._E5, coeffs.E5[:12]) and coeffs.E5[12] == 0
    assert np.array_equal(flow._E3, coeffs.E3[:12]) and coeffs.E3[12] == 0


def _blowup_flow(blowup_guard):
    """A generic unit n = 6 tensor flowed to the blow-up guard, endpoints
    monitored only: (R0, trace)."""
    R0 = random_curvature(6, seed=73)
    R0 = R0 * (1.0 / R0.norm())
    _, trace = integrate_q_flow(R0, FlowConfig(t_end=200.0 * default_horizon(R0),
                                               blowup_guard=blowup_guard, monitor_every=10**6,
                                               optimizer=LIGHT_OPT))
    assert trace.terminated_by == "blowup_guard"
    return R0, trace


def test_step_control_reaches_the_blowup_without_alternating_rejections():
    """As |R| grows 1000-fold the error ratio rises step after step; the
    predictive factor keeps the steps just short of rejection (without it,
    a third of the attempts here were rejected, 890 reaction terms)."""
    _, trace = _blowup_flow(1e3)
    assert trace.steps_rejected <= 2 and trace.reaction_evals <= 600


def test_fixed_time_error_at_most_step_doubling():
    """On a generic n = 6 tensor, up to the time |R| reaches 500, the default
    tolerance errs no more than adaptive RK4 with step doubling did, both
    against a run at rel_tol 1e-13."""
    R0, trace = _blowup_flow(500.0)
    t_end = float(trace.times[-1])

    def run(rel_tol):
        return integrate_q_flow(R0, FlowConfig(t_end=t_end, rel_tol=rel_tol, blowup_guard=1e6,
                                               monitor_every=10**6, optimizer=LIGHT_OPT))[0]

    ref = run(1e-13)
    assert ref.norm() > 500.0
    dop853 = (run(1e-8) - ref).norm() / ref.norm()
    doubling = (step_doubling_flow(R0, t_end) - ref).norm() / ref.norm()
    assert dop853 <= doubling


@pytest.mark.parametrize("n", (4, 6, 8, 12))
def test_rk4_step_on_raw_stages_matches_constructed_stages(n):
    """Stages kept on the raw matrix give the same bits as stages built
    through the re-symmetrizing constructor."""
    R = random_curvature(n, seed=1700 + n)
    h = 1e-2 / R.norm()
    assert np.array_equal(rk4_step(R, h).mat, rk4_step_public(R, h).mat)


@pytest.mark.parametrize("n", (4, 6, 8, 12))
def test_dop853_step_on_raw_stages_matches_constructed_stages(n):
    """The integrator's step, stages kept on the raw matrix in one buffer,
    gives the same bits and error estimate as stages built through the
    re-symmetrizing constructor."""
    R = random_curvature(n, seed=1700 + n)
    h = 1e-1 / R.norm()

    def q(M):
        return qform(_stored(M, n)).mat

    K = np.empty((12,) + R.mat.shape)
    K[0] = q(R.mat)
    S, err = flow._dop853_step(R, K, h, q)
    T, err_public = dop853_step_public(R, h)
    assert np.array_equal(S.mat, T.mat) and err == err_public > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rk4_stages_fail_closed():
    R = random_curvature(5, seed=1800)
    bad = np.array(R.mat)
    bad[0, 0] = np.nan
    with pytest.raises(CurvatureError, match="reaction input"):
        rk4_step(raw_tensor(5, bad), 1e-3)
    with pytest.raises(CurvatureError, match="reaction input"):
        rk4_step(R, np.inf)


def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(dt_init=0.0)
    with pytest.raises(ValueError):
        FlowConfig(rel_tol=-1.0)
    with pytest.raises(ValueError):
        integrate_q_flow(model_sphere(4, 1.0), FlowConfig(t_end=-2.0))


@pytest.mark.parametrize("field, value", [
    ("rel_tol", float("nan")), ("t_end", float("nan")), ("t_end", 0.0), ("dt_init", float("nan")),
    ("dt_init", float("inf")), ("blowup_guard", float("nan")), ("blowup_guard", -1.0),
    ("rel_tol", True), ("monitor_every", 2.5), ("monitor_every", 0), ("max_steps", True),
    ("max_steps", 2.5), ("optimizer", 3), ("optimizer", None)])
def test_config_rejects_bad_numbers(field, value):
    """Counts are non-bool integers >= 1, the times, the tolerance and the
    guard finite positive numbers, and the optimizer an OptimizerConfig;
    anything else fails at construction, not inside the flow (a NaN rel_tol
    divided by zero, a NaN t_end or dt_init stopped at t = 0, a NaN guard
    switched the guard off, an int optimizer had no restarts)."""
    with pytest.raises(ValueError, match=field):
        FlowConfig(**{field: value})


def test_zero_tensor_needs_explicit_horizon():
    """A zero tensor never blows up, so it has no default horizon; with an
    explicit t_end it stays at zero up to t_end."""
    with pytest.raises(CurvatureError, match="t_end"):
        default_horizon(zero_tensor(4))
    with pytest.raises(CurvatureError, match="t_end"):
        integrate_q_flow(zero_tensor(4))
    R, trace = integrate_q_flow(zero_tensor(4), FlowConfig(t_end=0.5, optimizer=LIGHT_OPT))
    assert R.norm() == 0.0 and np.all(trace.norm == 0.0)
    assert trace.times[-1] == 0.5 and trace.terminated_by == "t_end"


# ---------------------------------------------------------------------------
# cone preservation probe
# ---------------------------------------------------------------------------

def test_probe_sphere_preserved():
    rep = cone_preservation_probe(model_sphere(4, 1.0),
                                  FlowConfig(t_end=0.05, optimizer=LIGHT_OPT))
    assert rep.preserved
    assert rep.worst_margin >= 0.0
    assert rep.trace.terminated_by == "t_end"


def test_probe_shifted_generic_sample():
    space = curvature_space_basis(4)
    R = sample(space, seed=71)
    c = shift_into_cone(R, lambda S: min_isotropic(S, LIGHT_OPT).value)
    R0 = R + (c + 0.25) * model_sphere(4, 1.0)   # strictly inside the cone
    cfg = FlowConfig(t_end=default_horizon(R0) / 2,
                     optimizer=OptimizerConfig(restarts=4, max_iters=300, seed=0))
    rep = cone_preservation_probe(R0, cfg)
    assert rep.preserved


def test_probe_rejects_tensor_outside_cone():
    R = -1.0 * model_sphere(4, 1.0)
    with pytest.raises(ValueError, match="outside"):
        cone_preservation_probe(R, FlowConfig(t_end=0.01, optimizer=LIGHT_OPT))
