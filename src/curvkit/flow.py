"""Time integration of the curvature reaction ODE dR/dt = Q(R).

Classical RK4 with step doubling drives the adaptive integrator; every
accepted state is re-projected onto the space of algebraic curvature tensors
to stop cyclic-sum drift.  Stages and projection work on the coefficient
matrix on 2-forms alone; no rank-4 table is formed.  Self-similar ray
solutions provide closed-form references for convergence checks.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import (CurvatureError, CurvatureTensor, NonFiniteError, _stored, project_bianchi,
                   qform, scalar_curvature)
from .frames import OptimizerConfig, _require_numbers, min_isotropic


class FlowError(RuntimeError):
    """Raised when the integrator cannot continue (step underflow)."""


@dataclass(frozen=True)
class FlowConfig:
    t_end: float | None = None       # default: 0.8 / (2 (n-1) ||R0||)
    dt_init: float = 1e-3
    rel_tol: float = 1e-8
    monitor_every: int = 10          # accepted steps between trace records
    blowup_guard: float = 1e3        # stop once ||R|| exceeds guard * max(1, ||R0||)
    max_steps: int = 50_000
    # the monitoring searches, lighter than a standalone search
    optimizer: OptimizerConfig = OptimizerConfig(restarts=4, max_iters=300)

    def __post_init__(self):
        times = ("dt_init",) if self.t_end is None else ("dt_init", "t_end")
        _require_numbers(vars(self), (("monitor_every", 1), ("max_steps", 1)),
                         times + ("rel_tol", "blowup_guard"))
        if not isinstance(self.optimizer, OptimizerConfig):
            raise ValueError(f"optimizer must be an OptimizerConfig, got {self.optimizer!r}")


@dataclass
class FlowTrace:
    times: np.ndarray
    scalars: np.ndarray
    min_iso: np.ndarray
    norm: np.ndarray
    # "t_end", "blowup_guard", "max_steps", or "non_finite": a step overflowed
    # (a reaction term or the error estimate), and the flow returned its last
    # accepted state, which is finite
    terminated_by: str
    steps_accepted: int
    steps_rejected: int


def _project(R: CurvatureTensor) -> CurvatureTensor:
    """Remove the cyclic (Bianchi-violating) part of R's coefficients; the
    projection moves (ij, kl) and (kl, ij) alike, so symmetry stays exact."""
    return _stored(project_bianchi(R.mat, R.n), R.n)


def rk4_step(R: CurvatureTensor, h: float) -> CurvatureTensor:
    """One classical Runge-Kutta step of dR/dt = Q(R), re-projected."""
    return _rk4_from(R, qform(R).mat, h)


def _rk4_from(R: CurvatureTensor, k1: np.ndarray, h: float) -> CurvatureTensor:
    """:func:`rk4_step` with its first stage k1 = Q(R).mat given, so that the
    full step and the first half step of step doubling share it.  Stages are
    sums of exactly symmetric matrices, so they are stored as they are;
    ``qform`` checks each stage input against Bianchi and for finiteness."""
    n, M = R.n, R.mat
    k2 = qform(_stored(M + (0.5 * h) * k1, n)).mat
    k3 = qform(_stored(M + (0.5 * h) * k2, n)).mat
    k4 = qform(_stored(M + h * k3, n)).mat
    return _project(_stored(M + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), n))


def default_horizon(R0: CurvatureTensor) -> float:
    """Conservative integration horizon scaled to the blow-up time of a
    comparable round model (stays clear of the singularity); CurvatureError
    when it is infinite: a zero tensor never blows up."""
    norm = R0.norm()
    horizon = 0.8 / (2.0 * (R0.n - 1) * norm) if norm > 0 else np.inf
    if horizon == np.inf:
        raise CurvatureError(f"no finite default horizon at norm {norm:.3e}; pass t_end (--t-end)")
    return horizon


def scalar_blowup_oracle(c: float, lam0: float, t: float) -> float:
    """Closed-form scale of the self-similar ray solution lam' = c lam^2.

    For a tensor with qform(R) = c R, the flow from lam0 * R stays on the ray
    with scale lam0 / (1 - c lam0 t); defined up to the blow-up time.
    """
    denom = 1.0 - c * lam0 * t
    if denom <= 0:
        raise ValueError("requested time is at or beyond the blow-up")
    return lam0 / denom


def integrate_q_flow(R0: CurvatureTensor,
                     cfg: FlowConfig | None = None) -> tuple[CurvatureTensor, FlowTrace]:
    """Integrate dR/dt = Q(R) from R0 with adaptive step doubling.

    Local error is estimated from one full step against two half steps
    (err = ||difference|| / 15), which share their first stage Q(R); a step
    is accepted when err stays below rel_tol * max(1, ||R||).  The trace
    records t, scalar curvature, minimum isotropic curvature (warm-started
    search) and tensor norm every ``monitor_every`` accepted steps and at
    both endpoints.  A step that overflows (a non-finite reaction term or
    error estimate) ends the flow with ``terminated_by="non_finite"`` at the
    last accepted state.
    """
    cfg = cfg or FlowConfig()
    t_end = cfg.t_end if cfg.t_end is not None else default_horizon(R0)

    R = _project(R0)
    norm0 = max(1.0, R.norm())

    times, scal, iso, nrm = [], [], [], []
    warm = None

    def record(t, Rt):
        nonlocal warm
        res = min_isotropic(Rt, cfg.optimizer,
                            init_frames=None if warm is None else [warm])
        warm = res.frame_or_vector
        times.append(t)
        scal.append(scalar_curvature(Rt))
        iso.append(res.value)
        nrm.append(Rt.norm())

    record(0.0, R)
    t = 0.0
    h = min(cfg.dt_init, t_end)
    accepted = rejected = 0
    terminated_by = "t_end"

    while t < t_end and accepted < cfg.max_steps:
        h = min(h, t_end - t)
        if h < 1e-14 * max(1.0, t_end):
            raise FlowError(f"step size underflow at t={t:.6g}")
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                k1 = qform(R).mat
                full = _rk4_from(R, k1, h)
                half = rk4_step(_rk4_from(R, k1, 0.5 * h), 0.5 * h)
                err = (full - half).norm() / 15.0
        except NonFiniteError:
            err = np.inf
        if not err < np.inf:
            terminated_by = "non_finite"
            break
        scale = cfg.rel_tol * max(1.0, half.norm())
        if err <= scale:
            R = half
            t += h
            accepted += 1
            if accepted % cfg.monitor_every == 0:
                record(t, R)
            if R.norm() > cfg.blowup_guard * norm0:
                terminated_by = "blowup_guard"
                break
            grow = 0.9 * (scale / err) ** 0.2 if err > 0 else 2.0
            h *= min(2.0, max(0.2, grow))
        else:
            rejected += 1
            h *= max(0.2, 0.9 * (scale / err) ** 0.2)

    if t < t_end and terminated_by == "t_end":
        terminated_by = "max_steps"
    if times[-1] != t:
        record(t, R)

    trace = FlowTrace(times=np.array(times), scalars=np.array(scal),
                      min_iso=np.array(iso), norm=np.array(nrm),
                      terminated_by=terminated_by,
                      steps_accepted=accepted, steps_rejected=rejected)
    return R, trace


@dataclass(frozen=True)
class ConeProbeReport:
    """Monitoring record for preservation of nonnegative isotropic curvature."""

    preserved: bool
    worst_margin: float              # min over trace of min_iso + 1e-6 (1 + ||R||)
    trace: FlowTrace = field(repr=False)


def cone_preservation_probe(R0: CurvatureTensor,
                            cfg: FlowConfig | None = None) -> ConeProbeReport:
    """Flow a tensor with nonnegative isotropic curvature and watch the sign.

    Raises ValueError when the initial tensor already has negative isotropic
    curvature beyond roundoff; afterwards the trace must keep
    min_iso >= -1e-6 (1 + ||R||) at every monitoring time.
    """
    cfg = cfg or FlowConfig()
    initial = min_isotropic(R0, cfg.optimizer).value
    if initial < -1e-8 * max(1.0, R0.norm()):
        raise ValueError(f"initial tensor outside the cone: min iso {initial:.3e}")
    _, trace = integrate_q_flow(R0, cfg)
    margins = trace.min_iso + 1e-6 * (1.0 + trace.norm)
    worst = float(np.min(margins))
    return ConeProbeReport(preserved=worst >= 0.0, worst_margin=worst, trace=trace)
