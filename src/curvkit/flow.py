"""Time integration of the curvature reaction ODE dR/dt = Q(R).

The adaptive integrator takes Dormand-Prince 8(5,3) steps (DOP853) under a
predictive step controller; every accepted state is re-projected onto the
space of algebraic curvature tensors to stop cyclic-sum drift.  Stages and
projection work on the coefficient matrix on 2-forms alone; no rank-4 table
is formed.  The classical RK4 step stays as a fixed-step reference.
Self-similar ray solutions provide closed-form references for convergence
checks.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import (CurvatureError, CurvatureTensor, NonFiniteError, _stored, project_bianchi,
                   qform, scalar_curvature)
from .frames import OptimizerConfig, _require_numbers, min_isotropic


class FlowError(RuntimeError):
    """Raised when the integrator cannot continue (step underflow)."""


# Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner, Solving ODEs I, II.10): rows
# 1-11 of A (row i has i entries), then B, E5 and E3 on the 12 stages.  Stage i
# is Q(M + h sum_j A[i][j] K[j]), K[0] = Q(M); the step is M + h sum_i B[i] K[i];
# E5 and E3 weight the 5th- and 3rd-order error estimates.  One string parsed at
# import: float literals would cost more to compile than the rest of the module.
_TABLEAU = np.array("""
    0.05260015195876773
    0.0197250569845379 0.0591751709536137
    0.02958758547680685 0 0.08876275643042054
    0.2413651341592667 0 -0.8845494793282861 0.924834003261792
    0.037037037037037035 0 0 0.17082860872947386 0.12546768756682242
    0.037109375 0 0 0.17025221101954405 0.06021653898045596 -0.017578125
    0.03709200011850479 0 0 0.17038392571223998 0.10726203044637328 -0.015319437748624402
        0.008273789163814023
    0.6241109587160757 0 0 -3.3608926294469414 -0.868219346841726 27.59209969944671
        20.154067550477894 -43.48988418106996
    0.47766253643826434 0 0 -2.4881146199716677 -0.590290826836843 21.230051448181193
        15.279233632882423 -33.28821096898486 -0.020331201708508627
    -0.9371424300859873 0 0 5.186372428844064 1.0914373489967295 -8.149787010746927
        -18.52006565999696 22.739487099350505 2.4936055526796523 -3.0467644718982196
    2.273310147516538 0 0 -10.53449546673725 -2.0008720582248625 -17.9589318631188
        27.94888452941996 -2.8589982771350235 -8.87285693353063 12.360567175794303
        0.6433927460157636
    0.054293734116568765 0 0 0 0 4.450312892752409 1.8915178993145003 -5.801203960010585
        0.3111643669578199 -0.1521609496625161 0.20136540080403034 0.04471061572777259
    0.01312004499419488 0 0 0 0 -1.2251564463762044 -0.4957589496572502 1.6643771824549864
        -0.35032884874997366 0.3341791187130175 0.08192320648511571 -0.022355307863886294
    -0.18980075407240762 0 0 0 0 4.450312892752409 1.8915178993145003 -5.801203960010585
        -0.4226823213237919 -0.1521609496625161 0.20136540080403034 0.02265179219836082
""".split(), dtype=float)
_A = np.split(_TABLEAU[:66], np.cumsum(range(11)))
_B, _E5, _E3 = _TABLEAU[66:].reshape(3, 12)


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
    # (a reaction term, the error estimate or the new state), and the flow
    # returned its last accepted state, which is finite
    terminated_by: str
    steps_accepted: int
    steps_rejected: int
    reaction_evals: int              # calls of qform by the integrator


def _project(R: CurvatureTensor) -> CurvatureTensor:
    """Remove the cyclic (Bianchi-violating) part of R's coefficients; the
    projection moves (ij, kl) and (kl, ij) alike, so symmetry stays exact."""
    return _stored(project_bianchi(R.mat, R.n), R.n)


def rk4_step(R: CurvatureTensor, h: float) -> CurvatureTensor:
    """One classical Runge-Kutta step of dR/dt = Q(R), re-projected.  Stages
    are sums of exactly symmetric matrices, so they are stored as they are;
    ``qform`` checks each stage input against Bianchi and for finiteness."""
    n, M = R.n, R.mat
    k1 = qform(R).mat
    k2 = qform(_stored(M + (0.5 * h) * k1, n)).mat
    k3 = qform(_stored(M + (0.5 * h) * k2, n)).mat
    k4 = qform(_stored(M + h * k3, n)).mat
    return _project(_stored(M + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), n))


def _dop853_step(R: CurvatureTensor, K: np.ndarray, h: float,
                 q) -> tuple[CurvatureTensor, float]:
    """One DOP853 step of size h from R, with K[0] = Q(R).mat given: fills the
    stages K[1:] of the (12, N, N) buffer K through ``q`` (a coefficient
    matrix to its reaction term's) and returns the re-projected 8th-order
    state and Hairer's error estimate h |e5|^2 / (|e5|^2 + 0.01 |e3|^2)^(1/2)
    in the tensor norm.  Stage inputs are sums of exactly symmetric matrices,
    stored as they are."""
    M = R.mat
    flat = K.reshape(len(K), -1)
    for i in range(1, len(_A)):
        K[i] = q(M + h * (_A[i] @ flat[:i]).reshape(M.shape))
    e5, e3 = (float(np.linalg.norm(E @ flat)) for E in (_E5, _E3))
    den = np.hypot(e5, 0.1 * e3)
    err = 2.0 * h * e5 * (e5 / den) if den > 0 else 0.0
    return _project(_stored(M + h * (_B @ flat).reshape(M.shape), R.n)), err


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
    """Integrate dR/dt = Q(R) from R0 with adaptive DOP853 steps.

    A step is accepted when its error estimate stays below rel_tol *
    max(1, ||R||) of its new state.  Q of an accepted state is the first
    stage of the next step (first same as last), so an accepted step costs 12
    reaction terms and a rejected one 11.  The step factor is 0.9 r^(-1/8) for
    the error ratio r, after an accepted step at most Gustafsson's predictive
    0.9 (h / h_prev) (r_prev / r^2)^(1/8), r_prev >= 1e-2 (Hairer & Wanner,
    Solving ODEs II, IV.8), clipped to [0.2, 2].  The trace records t, scalar
    curvature, minimum isotropic curvature (warm-started search) and tensor
    norm every ``monitor_every`` accepted steps and at both endpoints.  A step
    that overflows (a non-finite reaction term, error estimate or new state)
    ends the flow with ``terminated_by="non_finite"`` at the last accepted
    state.
    """
    cfg = cfg or FlowConfig()
    t_end = cfg.t_end if cfg.t_end is not None else default_horizon(R0)

    R = _project(R0)
    n = R.n
    norm0 = max(1.0, R.norm())
    K = np.empty((len(_A),) + R.mat.shape)
    evals = 0

    def q(M):
        nonlocal evals
        evals += 1
        return qform(_stored(M, n)).mat

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
    first_stage = False              # whether K[0] holds Q(R)
    last = None                      # (h, error ratio) of the last accepted step

    while t < t_end and accepted < cfg.max_steps:
        h = min(h, t_end - t)
        if h < 1e-14 * max(1.0, t_end):
            raise FlowError(f"step size underflow at t={t:.6g}")
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                if not first_stage:
                    K[0] = q(R.mat)
                    first_stage = True
                new, err = _dop853_step(R, K, h, q)
                size = new.norm()
        except NonFiniteError:
            err = size = np.inf
        if not (err < np.inf and size < np.inf):
            terminated_by = "non_finite"
            break
        ratio = err / (cfg.rel_tol * max(1.0, size))
        if ratio <= 1.0:
            R, first_stage = new, False
            t += h
            accepted += 1
            if accepted % cfg.monitor_every == 0:
                record(t, R)
            if size > cfg.blowup_guard * norm0:
                terminated_by = "blowup_guard"
                break
            grow = 2.0
            if ratio > 0:
                grow = 0.9 * ratio ** -0.125
                if last is not None:
                    grow = min(grow, 0.9 * (h / last[0]) * (last[1] / ratio ** 2) ** 0.125)
            last = h, max(ratio, 1e-2)
            h *= min(2.0, max(0.2, grow))
        else:
            rejected += 1
            h *= max(0.2, 0.9 * ratio ** -0.125)

    if t < t_end and terminated_by == "t_end":
        terminated_by = "max_steps"
    if times[-1] != t:
        record(t, R)

    trace = FlowTrace(times=np.array(times), scalars=np.array(scal),
                      min_iso=np.array(iso), norm=np.array(nrm),
                      terminated_by=terminated_by, steps_accepted=accepted,
                      steps_rejected=rejected, reaction_evals=evals)
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
