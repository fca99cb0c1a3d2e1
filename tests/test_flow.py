"""Evolution tests: exact rays, step control, cone monitoring."""

import warnings

import numpy as np
import pytest

from curvkit import core, flow
from curvkit.core import (CurvatureError, NonFiniteError, _stored, inner, model_sphere,
                          project_bianchi, qform, scalar_curvature, standard_quaternion_triple,
                          zero_tensor)
from curvkit.flow import (FlowConfig, FlowError, cone_preservation_probe,
                          default_horizon, integrate_q_flow, rk4_step,
                          scalar_blowup_oracle)
from curvkit.frames import OptimizerConfig
from curvkit.spaces import curvature_space_basis, sample

from helpers import (dop853_flat_step_public, initial_step_public, projective_flow_serial,
                     projective_rhs_public, q_flow_serial, random_curvature, raw_tensor,
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


def test_monitoring_stack_size_does_not_change_the_trace(monkeypatch):
    """The 34 recorded states are searched after they are recorded,
    ``_MONITOR_STACK`` (32) at a time; stacks of 1 and 2 states give the
    same values bit for bit, since a state's rows do not depend on the
    others in its stack.  ``monitor_s`` times those searches."""
    R0 = random_curvature(4, seed=73)
    R0 = R0 * (1.0 / R0.norm())
    cfg = FlowConfig(t_end=200.0 * default_horizon(R0), monitor_every=1, blowup_guard=1e9,
                     optimizer=LIGHT_OPT)
    _, trace = integrate_q_flow(R0, cfg)
    assert len(trace.min_iso) == 34 > flow._MONITOR_STACK
    assert trace.monitor_s > 0.0
    for size in (1, 2):
        monkeypatch.setattr(flow, "_MONITOR_STACK", size)
        assert integrate_q_flow(R0, cfg)[1].min_iso.tolist() == trace.min_iso.tolist()


@pytest.mark.parametrize("n", [2, 3])
def test_flow_refuses_n_below_4_before_any_step(monkeypatch, n):
    """The monitoring searches run after the steps, so the flow checks for
    4-frames first: no reaction term is evaluated, checked or bare."""
    def no_reaction(*args):
        raise AssertionError("the flow stepped")

    monkeypatch.setattr(flow, "qform", no_reaction)
    monkeypatch.setattr(flow, "_reaction_terms", no_reaction)
    with pytest.raises(CurvatureError, match="n >= 4"):
        integrate_q_flow(model_sphere(n, 1.0), FlowConfig(t_end=0.01))


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
    """A reaction term that overflows ends the flow instead of raising; the
    explicit first step, far too long for a tensor of norm 1e150, overflows."""
    R0 = model_sphere(4, 1e150)
    cfg = FlowConfig(t_end=1.0, dt_init=1e-3, blowup_guard=1e300, optimizer=LIGHT_OPT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        R, trace = integrate_q_flow(R0, cfg)
    assert trace.terminated_by == "non_finite"
    assert np.isfinite(R.mat).all()
    assert R.norm() >= R0.norm()
    assert np.isfinite(trace.norm).all() and trace.times[-1] < 1.0


def test_estimated_first_step_on_a_huge_tensor_underflows():
    """The estimated first step follows the scale: on a sphere of norm 1e150,
    whose blow-up time is about 1e-151, it is tiny in t and falls below the
    underflow floor of a flow to t_end = 1 before any step overflows."""
    cfg = FlowConfig(t_end=1.0, blowup_guard=1e300, optimizer=LIGHT_OPT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FlowError, match="underflow at t=0"):
            integrate_q_flow(model_sphere(4, 1e150), cfg)


def test_overflowing_reaction_term_raises_non_finite_error():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="not finite"):
            qform(model_sphere(4, 1e160))
    assert issubclass(NonFiniteError, CurvatureError)


@pytest.mark.parametrize("stage", range(1, 12))
def test_dop853_nan_stage_gives_non_finite_error_estimate(stage):
    """One NaN stage among finite ones makes the error estimate NaN, which
    the acceptance test err < inf rejects; it must not read as 0, a perfect
    step (constant finite stages give e5 and e3 of roundoff, err below 1e-15)."""
    y, calls = np.zeros(38), []

    def f(x, out):
        calls.append(1)
        out[:] = np.nan if len(calls) == stage else 1.0

    K = np.empty((12, len(y)))
    K[0] = 1.0
    assert 0.0 <= flow._dop853_step(y, K.copy(), 0.1, lambda x, out: out.fill(1.0), 1.0)[1] < 1e-15
    _, err = flow._dop853_step(y, K, 0.1, f, 1.0)
    assert len(calls) == 11 and not err < np.inf


def _nan_on_call(monkeypatch, k):
    """Makes the flow's bare reaction kernel return NaN on its k-th call;
    returns the list of its calls."""
    calls, real = [], flow._reaction_terms

    def terms(mats, n, S=None):
        calls.append(1)
        out, scales = real(mats, n, S)
        return (np.full_like(out, np.nan) if len(calls) == k else out), scales

    monkeypatch.setattr(flow, "_reaction_terms", terms)
    return calls


def test_non_finite_stage_ends_the_flow_at_the_last_accepted_state(monkeypatch):
    """The stages skip qform's check, so a NaN stage is caught by the
    finiteness test of the attempt: the flow ends with non_finite at its last
    accepted state, the state a flow capped at that many steps returns."""
    R0, cfg = _default_flow_start()
    cfg = FlowConfig(t_end=cfg.t_end, dt_init=1e-3, rel_tol=cfg.rel_tol,
                     monitor_every=cfg.monitor_every, optimizer=LIGHT_OPT)
    calls = _nan_on_call(monkeypatch, 11 * 4 + 6)       # the sixth stage of the fifth attempt
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        R, trace = integrate_q_flow(R0, cfg)
    assert len(calls) == 11 * 5                         # the attempt ends, then is refused
    assert trace.terminated_by == "non_finite" and np.isfinite(R.mat).all()
    assert 1 <= trace.steps_accepted <= 4 and np.isfinite(trace.norm).all()
    monkeypatch.undo()
    capped = FlowConfig(t_end=cfg.t_end, dt_init=1e-3, rel_tol=cfg.rel_tol,
                        max_steps=trace.steps_accepted, monitor_every=cfg.monitor_every,
                        optimizer=LIGHT_OPT)
    S, capped_trace = integrate_q_flow(R0, capped)
    assert capped_trace.terminated_by == "max_steps"
    assert np.array_equal(R.mat, S.mat)


def test_non_finite_first_step_probe_raises(monkeypatch):
    """The Euler probe of the estimated first step is a bare reaction term
    too; a non-finite one raises, as the checked probe did, before any step."""
    R0, cfg = _default_flow_start()
    calls = _nan_on_call(monkeypatch, 1)
    with pytest.raises(NonFiniteError, match="probe"):
        integrate_q_flow(R0, cfg)
    assert len(calls) == 1


def test_bianchi_defect_of_the_reaction_kernel_is_caught_in_the_first_step(monkeypatch):
    """Negative control of the guard left in the flow: a kernel whose every
    output gains a cyclic-sum defect of 1e-6 |Q| passes the bare stages, but
    qform of the first state stepped from checks Q to REACTION_TOL and
    raises, within the first step."""
    n = 12
    E = np.random.default_rng(1910).standard_normal((66, 66))
    D = E + E.T
    D -= project_bianchi(D, n)                  # the cyclic part alone
    D /= np.linalg.norm(D)
    calls, real = [], core._reaction_terms

    def defective(mats, n, S=None):
        calls.append(1)
        out, scales = real(mats, n, S)
        return out + 1e-6 * np.linalg.norm(out, axis=(-2, -1))[..., None, None] * D, scales

    monkeypatch.setattr(core, "_reaction_terms", defective)
    monkeypatch.setattr(flow, "_reaction_terms", defective)
    R0 = random_curvature(n, seed=1912)
    with pytest.raises(CurvatureError, match="reaction term Bianchi defect"):
        integrate_q_flow(R0 * (1.0 / R0.norm()), FlowConfig(t_end=1.0, monitor_every=10**6,
                                                            optimizer=LIGHT_OPT))
    assert 1 <= len(calls) <= 13


def test_n12_flow_on_bare_stages_matches_checked_oracles():
    """Bare stages change no bit: on a generic unit n = 12 tensor flowed
    until |R| grows 16-fold, the flow is bit for bit the serial oracle whose
    every stage is a checked public qform, with the same accepted and
    rejected steps.  The oracle in t, another clock, agrees to 1e-6."""
    R0 = random_curvature(12, seed=1912)
    R0 = R0 * (1.0 / R0.norm())
    cfg = FlowConfig(t_end=76.0 * default_horizon(R0), blowup_guard=1e6, monitor_every=10**6,
                     optimizer=LIGHT_OPT)
    R, trace = integrate_q_flow(R0, cfg)
    S, accepted, rejected = projective_flow_serial(R0, cfg.t_end, rel_tol=cfg.rel_tol)
    assert trace.terminated_by == "t_end" and R.norm() > 16.0
    assert (trace.steps_accepted, trace.steps_rejected) == (accepted, rejected)
    assert rejected > 0 and np.array_equal(R.mat, S.mat)
    T = q_flow_serial(R0, cfg.t_end, rel_tol=cfg.rel_tol)[0]
    assert (R - T).norm() <= 1e-6 * T.norm()


def test_max_steps_cap():
    """The flow to t_end takes 4 accepted steps; a cap of 3 stops it."""
    cfg = FlowConfig(t_end=0.1, max_steps=3, optimizer=LIGHT_OPT)
    _, trace = integrate_q_flow(model_sphere(4, 1.0), cfg)
    assert trace.terminated_by == "max_steps"
    assert trace.steps_accepted == 3 and trace.times[-1] < 0.1


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


def _count_reaction_calls(monkeypatch):
    """Counts the flow's checked calls (``qform``, at a state) and bare calls
    (``_reaction_terms``, at a stage or the Euler probe) into two lists."""
    checked, bare = [], []
    real_qform, real_terms = flow.qform, flow._reaction_terms

    def counted_qform(R):
        checked.append(R)
        return real_qform(R)

    def counted_terms(mats, n, S=None):
        bare.append(mats)
        return real_terms(mats, n, S)

    monkeypatch.setattr(flow, "qform", counted_qform)
    monkeypatch.setattr(flow, "_reaction_terms", counted_terms)
    return checked, bare


def test_dop853_makes_twelve_q_calls_per_accepted_step(monkeypatch):
    """Eleven new stages per attempt, and Q of each accepted state, the first
    stage of the next attempt (first same as last); the trace counts them.
    Q is checked once at the start and at each accepted state stepped from,
    the last state of a flow to t_end excluded; the stages are bare."""
    checked, bare = _count_reaction_calls(monkeypatch)
    R0, cfg = _generic_flow_start()
    _, trace = integrate_q_flow(R0, cfg)
    accepted, rejected = trace.steps_accepted, trace.steps_rejected
    assert trace.terminated_by == "t_end" and rejected > 0 and accepted > 0
    assert len(checked) == accepted and len(bare) == 11 * (accepted + rejected)
    assert len(checked) + len(bare) == trace.reaction_evals == 12 * accepted + 11 * rejected


def test_dop853_matches_serial_oracle():
    """The same states, bit for bit, and the same accepted and rejected
    counts as one independent public step per attempt; the first attempt
    lands on t_end and is rejected."""
    R0, cfg = _generic_flow_start()
    R, trace = integrate_q_flow(R0, cfg)
    S, accepted, rejected = projective_flow_serial(R0, cfg.t_end, cfg.dt_init, cfg.rel_tol)
    assert trace.terminated_by == "t_end" and trace.times[-1] == cfg.t_end
    assert (trace.steps_accepted, trace.steps_rejected) == (accepted, rejected)
    assert np.array_equal(R.mat, S.mat)


def _default_flow_start():
    """A generic n = 4 tensor whose flow from the estimated first step
    rejects one step on its way to t_end (13 accepted), and from
    dt_init = 1e-3 one step too (15 accepted)."""
    R0 = random_curvature(4, seed=83)
    return R0, FlowConfig(t_end=10.0 * default_horizon(R0), rel_tol=1e-10,
                          monitor_every=10**6, optimizer=LIGHT_OPT)


def test_estimated_start_matches_serial_oracle():
    """Without dt_init the first step is Hairer's estimate: the same first
    step, states, accepted and rejected counts, bit for bit, as the public
    estimate and one independent public step per attempt, ending at t_end
    exactly."""
    R0, cfg = _default_flow_start()
    R, trace = integrate_q_flow(R0, cfg)
    S, accepted, rejected = projective_flow_serial(R0, cfg.t_end, rel_tol=cfg.rel_tol)
    assert trace.terminated_by == "t_end" and trace.times[-1] == cfg.t_end
    assert (trace.steps_accepted, trace.steps_rejected) == (accepted, rejected)
    assert rejected > 0 and np.array_equal(R.mat, S.mat)
    P = project_bianchi(R0.mat, 4)
    scale = np.linalg.norm(P)
    y = np.concatenate([P.ravel() / scale, [np.log(scale), 0.0]])
    h = initial_step_public(4, y, cfg.rel_tol, 2.0 * scale)
    assert trace.first_step == h / np.exp(y[-2]) > 0


def test_estimated_start_costs_one_reaction_term(monkeypatch):
    """y' at the start is the first stage of the first step, checked; the
    estimate adds one bare reaction term, its explicit Euler probe."""
    checked, bare = _count_reaction_calls(monkeypatch)
    R0, cfg = _default_flow_start()
    _, trace = integrate_q_flow(R0, cfg)
    accepted, rejected = trace.steps_accepted, trace.steps_rejected
    assert trace.terminated_by == "t_end" and rejected > 0 and accepted > 0
    assert len(checked) == accepted and len(bare) == 11 * (accepted + rejected) + 1
    assert len(checked) + len(bare) == trace.reaction_evals == 12 * accepted + 11 * rejected + 1


@pytest.mark.parametrize("speed, step", [(0.0, 1e-6), (1e6, 1e-6)])
def test_estimate_fallback_and_cap(speed, step):
    """Where y' vanishes, Hairer's fallback: h0 = 1e-6 and the step
    max(1e-6, 1e-3 h0).  Where y' is fast and constant (no change over the
    probe, d2 = 0), the cap 100 h0 = 1 / |y'| binds, not
    (0.01 / d1)^(1/8) = 0.01."""
    f0 = np.zeros(38)
    f0[0] = speed

    def constant(x, out):
        out[:] = f0

    assert np.isclose(flow._initial_step(np.zeros(38), f0, constant, 1e-8), step,
                      rtol=1e-12, atol=0.0)


def test_explicit_dt_init_keeps_its_first_step():
    """An explicit dt_init starts at dt_init |M|_F in tau, a step of dt_init
    in t, with no probe, bit for bit as the serial oracle from that step."""
    R0, cfg = _default_flow_start()
    cfg = FlowConfig(t_end=cfg.t_end, dt_init=1e-3, rel_tol=cfg.rel_tol,
                     monitor_every=cfg.monitor_every, optimizer=LIGHT_OPT)
    R, trace = integrate_q_flow(R0, cfg)
    S, accepted, rejected = projective_flow_serial(R0, cfg.t_end, 1e-3, cfg.rel_tol)
    assert (trace.steps_accepted, trace.steps_rejected) == (accepted, rejected)
    assert np.array_equal(R.mat, S.mat)
    assert trace.reaction_evals == 12 * accepted + 11 * rejected
    assert np.isclose(trace.first_step, 1e-3, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n,lam0,t_end", [(4, 1.0, 0.05), (5, 0.5, 0.2), (6, 2.0, 0.01)])
def test_t_end_runs_end_exactly_at_t_end(n, lam0, t_end):
    """The last step lands on t_end in t, so the last record is t_end itself."""
    _, trace = integrate_q_flow(model_sphere(n, lam0) + random_curvature(n, seed=n, scale=0.1),
                                FlowConfig(t_end=t_end, optimizer=LIGHT_OPT))
    assert trace.terminated_by == "t_end" and trace.times[-1] == t_end


def test_step_in_tau_past_t_end_is_rejected_and_a_step_in_t_lands():
    """On the shrinking ray of the negative sphere t' = e^(-l) grows within a
    step, so a step predicted to stop short of t_end can pass it; it counts
    as rejected (11 reaction terms) and the next attempt lands on t_end."""
    R0 = -1.0 * model_sphere(4, 1.0)
    R, trace = integrate_q_flow(R0, FlowConfig(t_end=0.11, dt_init=0.1, rel_tol=1e-10,
                                               optimizer=LIGHT_OPT))
    S, accepted, rejected = projective_flow_serial(R0, 0.11, 0.1, 1e-10)
    assert (trace.steps_accepted, trace.steps_rejected) == (accepted, rejected) == (3, 3)
    assert trace.reaction_evals == 12 * 3 + 11 * 3
    assert np.array_equal(R.mat, S.mat) and trace.times[-1] == 0.11
    exact = scalar_blowup_oracle(6.0, -1.0, 0.11) * model_sphere(4, 1.0)
    assert (R - exact).norm() < 1e-12 * exact.norm()


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


def _raw_rhs(n):
    """The integrator's derivative in tau, written into a stage row, with the
    shape stored as it is."""
    N = n * (n - 1) // 2

    def f(x, out):
        U = x[:-2].reshape(N, N)
        QU = qform(_stored(U, n)).mat
        out[-2] = a = np.vdot(QU, U)
        out[:-2] = (QU - a * U).ravel()
        out[-1] = np.exp(-x[-2])

    return f


def test_dop853_fixed_step_order_on_sphere_ray():
    """On the sphere ray the shape stays put and l grows linearly in tau, so
    the whole error is in t; fixed tau steps up to 99% of the blow-up time
    show order 8 in the scale against its closed form at the reached t."""
    G = model_sphere(4, 1.0)
    f, scale = _raw_rhs(4), np.linalg.norm(G.mat)
    y0 = np.concatenate([G.mat.ravel() / scale, [np.log(scale), 0.0]])
    K = np.empty((12, len(y0)))
    f(y0, K[0])
    tau = np.log(100.0) / K[0][-2]
    errs = []
    for steps in (4, 8, 16):
        y = y0
        for _ in range(steps):
            f(y, K[0])
            y, _ = flow._dop853_step(y, K, tau / steps, f, 0.0)
        lam = np.exp(y[-2]) * inner(_stored(y[:-2].reshape(6, 6), 4), G) / inner(G, G)
        assert 0.98 / 6.0 < y[-1] < 1.0 / 6.0
        errs.append(abs(lam / scalar_blowup_oracle(6.0, 1.0, y[-1]) - 1.0))
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
    """As |R| grows 1000-fold the predictive factor keeps the steps just short
    of rejection (without it, a third of the attempts of a flow in t were
    rejected, 890 reaction terms).  In tau only the shape has dynamics: about
    half the reaction terms of the same flow in t (515)."""
    _, trace = _blowup_flow(1e3)
    assert trace.steps_rejected <= 2 and trace.reaction_evals <= 300


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


def test_fixed_time_error_at_most_time_clock():
    """On the same tensor, at the time |R| reaches 500, the default tolerance
    in tau errs no more than DOP853 in t at the same tolerance, both against
    the flow in t at rel_tol 1e-13."""
    R0, trace = _blowup_flow(500.0)
    t_end = float(trace.times[-1])
    ref = q_flow_serial(R0, t_end, rel_tol=1e-13)[0]
    assert ref.norm() > 500.0
    tau = integrate_q_flow(R0, FlowConfig(t_end=t_end, blowup_guard=1e6, monitor_every=10**6,
                                          optimizer=LIGHT_OPT))[0]
    t_clock = q_flow_serial(R0, t_end, rel_tol=1e-8)[0]
    assert (tau - ref).norm() <= (t_clock - ref).norm()


@pytest.mark.parametrize("n,seed", [(4, 1), (4, 2), (6, 3)])
def test_sphere_ray_to_80_percent_of_the_blowup_matches_closed_form(n, seed):
    """At rel_tol 1e-12, up to 80% of the blow-up time (the benchmark's
    closed-form check), the scale is within 1e-13 of its closed form."""
    c = 2.0 * (n - 1)
    lam0 = float(np.random.default_rng([seed, 1]).uniform(0.5, 2.0))
    sphere = model_sphere(n, 1.0)
    R, trace = integrate_q_flow(lam0 * sphere, FlowConfig(t_end=0.8 / (c * lam0), rel_tol=1e-12,
                                                          monitor_every=10**6,
                                                          optimizer=LIGHT_OPT))
    expected = scalar_blowup_oracle(c, lam0, float(trace.times[-1])) * sphere
    assert (R - expected).norm() <= 1e-13 * expected.norm()


@pytest.mark.parametrize("n", (4, 6, 8, 12))
def test_rk4_step_on_raw_stages_matches_constructed_stages(n):
    """Stages kept on the raw matrix give the same bits as stages built
    through the re-symmetrizing constructor."""
    R = random_curvature(n, seed=1700 + n)
    h = 1e-2 / R.norm()
    assert np.array_equal(rk4_step(R, h).mat, rk4_step_public(R, h).mat)


@pytest.mark.parametrize("n", (4, 6, 8, 12))
def test_dop853_step_on_raw_stages_matches_constructed_stages(n):
    """The integrator's step, stages kept on the raw matrix in one flat
    buffer, gives the same bits and error estimate as stages built through
    the re-symmetrizing constructor and stacked anew for each sum."""
    R = random_curvature(n, seed=1700 + n)
    scale = np.linalg.norm(R.mat)
    y = np.concatenate([R.mat.ravel() / scale, [np.log(scale), 0.25]])
    f, h = _raw_rhs(n), 0.2
    K = np.empty((12, len(y)))
    f(y, K[0])
    assert np.array_equal(K[0], projective_rhs_public(n, y))
    new, err = flow._dop853_step(y, K, h, f, scale * np.linalg.norm(K[0][:-1]))
    public, err_public = dop853_flat_step_public(n, y, h)
    assert np.array_equal(new, public) and err == err_public > 0


@pytest.mark.parametrize("n", [4, 8])
def test_dop853_stage_inputs_are_built_in_one_buffer_bit_for_bit(n):
    """Each stage input, A[i] @ K[:i] scaled by h and shifted by y in one
    reused buffer, is bit for bit y + h (A[i] @ K[:i])."""
    R = random_curvature(n, seed=1750 + n)
    scale = np.linalg.norm(R.mat)
    y = np.concatenate([R.mat.ravel() / scale, [np.log(scale), 0.25]])
    raw, seen, h = _raw_rhs(n), [], 0.2

    def f(x, out):
        seen.append(x.copy())
        raw(x, out)

    K = np.empty((12, len(y)))
    raw(y, K[0])
    flow._dop853_step(y, K, h, f, 1.0)
    assert len(seen) == 11
    for i, x in enumerate(seen, 1):
        assert np.array_equal(x, y + h * (flow._A[i] @ K[:i]))


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
    assert FlowConfig().dt_init is None
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
