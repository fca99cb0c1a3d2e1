"""Evolution tests: exact rays, step control, cone monitoring."""

import numpy as np
import pytest

from curvkit import flow
from curvkit.core import (CurvatureError, inner, model_sphere, scalar_curvature,
                          standard_quaternion_triple, zero_tensor)
from curvkit.flow import (FlowConfig, FlowError, cone_preservation_probe,
                          default_horizon, integrate_q_flow, rk4_step,
                          scalar_blowup_oracle)
from curvkit.frames import OptimizerConfig
from curvkit.spaces import curvature_space_basis, sample

from helpers import (q_flow_serial, random_curvature, raw_tensor, rk4_step_public,
                     shift_into_cone)
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


def test_step_doubling_makes_eleven_q_calls_per_attempt(monkeypatch):
    calls = []
    real = flow.qform

    def counted(R):
        calls.append(R)
        return real(R)

    monkeypatch.setattr(flow, "qform", counted)
    R0, cfg = _generic_flow_start()
    _, trace = integrate_q_flow(R0, cfg)
    assert trace.steps_rejected > 0 and trace.steps_accepted > 0
    assert len(calls) == 11 * (trace.steps_accepted + trace.steps_rejected)


def test_step_doubling_matches_serial_oracle():
    R0, cfg = _generic_flow_start()
    R, trace = integrate_q_flow(R0, cfg)
    S, accepted, rejected = q_flow_serial(R0, cfg.t_end, cfg.dt_init, cfg.rel_tol)
    assert (trace.steps_accepted, trace.steps_rejected) == (accepted, rejected)
    assert np.array_equal(R.mat, S.mat)


@pytest.mark.parametrize("n", (4, 6, 8, 12))
def test_rk4_step_on_raw_stages_matches_constructed_stages(n):
    """Stages kept on the raw matrix give the same bits as stages built
    through the re-symmetrizing constructor."""
    R = random_curvature(n, seed=1700 + n)
    h = 1e-2 / R.norm()
    assert np.array_equal(rk4_step(R, h).mat, rk4_step_public(R, h).mat)


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
