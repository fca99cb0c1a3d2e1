"""Time integration of the curvature reaction ODE dR/dt = Q(R).

Q is homogeneous of degree 2, so in the clock dtau = |M| dt (Stuart &
Floater 1990) log |M| grows linearly on every self-similar ray and only the
shape U = M / |M| has dynamics.  The adaptive integrator takes Dormand-Prince
8(5,3) steps (DOP853) under a predictive step controller on (U, log |M|, t),
from Hairer's estimate of the first step (Hairer, Norsett & Wanner, Solving
ODEs I, II.4) unless one is given; every accepted shape is re-projected onto
the space of algebraic curvature tensors to stop cyclic-sum drift.  Stages
and projection work on the coefficient matrix on 2-forms alone; no rank-4
table is formed.  The classical RK4 step stays as a fixed-step reference.
Self-similar ray solutions provide closed-form references for convergence
checks.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .core import (CurvatureError, CurvatureTensor, NonFiniteError, _reaction_terms, _stored,
                   project_bianchi, qform, scalar_curvature)
from .frames import (OptimizerConfig, _min_isotropic_stack, _require_four_frames,
                     _require_numbers, min_isotropic)


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
_MONITOR_STACK = 32     # recorded states per stacked monitoring search


@dataclass(frozen=True)
class FlowConfig:
    t_end: float | None = None       # default: 0.8 / (2 (n-1) ||R0||)
    dt_init: float | None = None     # first step in t; default: Hairer's estimate
    rel_tol: float = 1e-8
    monitor_every: int = 10          # accepted steps between trace records
    blowup_guard: float = 1e3        # stop once ||R|| exceeds guard * max(1, ||R0||)
    max_steps: int = 50_000
    # the monitoring searches, lighter than a standalone search
    optimizer: OptimizerConfig = OptimizerConfig(restarts=4, max_iters=300)

    def __post_init__(self):
        times = tuple(name for name in ("dt_init", "t_end") if getattr(self, name) is not None)
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
    reaction_evals: int              # reaction terms: checked at states, bare at stages
    first_step: float                # the first step in t, h e^(-l)
    monitor_s: float                 # seconds in the monitoring searches


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


def _dop853_step(y: np.ndarray, K: np.ndarray, h: float, f,
                 w: float) -> tuple[np.ndarray, float]:
    """One DOP853 step of size h from the flat state y, with K[0] = f(y)
    given: fills the stages K[1:] of the (12, len(y)) buffer K through
    ``f(x, out)``, which writes the derivative at x into out (every stage
    input x is built in one buffer), and returns the 8th-order state and
    Hairer's error estimate h |e5|^2 / (|e5|^2 + 0.01 |e3|^2)^(1/2), the last
    components of e5 and e3 weighted by w; the estimate is not finite when
    e5 or e3 is not."""
    x = np.empty_like(y)             # y + h (A[i] @ K[:i]), built in place
    for i in range(1, len(_A)):
        np.dot(_A[i], K[:i], out=x)
        x *= h
        x += y
        f(x, K[i])
    e5, e3 = (float(np.hypot(np.linalg.norm(e[:-1]), w * e[-1])) for e in (_E5 @ K, _E3 @ K))
    den = np.hypot(e5, 0.1 * e3)
    err = h * e5 * (e5 / den) if den != 0 else 0.0      # NaN stays NaN: not a perfect step
    return y + h * (_B @ K), err


def _initial_step(y: np.ndarray, f0: np.ndarray, f, sc: float) -> float:
    """Hairer's estimate of the first step from y with y' = f0 given (Solving
    ODEs I, II.4; the hinit of dop853.f), on the (U, l) part of y in the
    error unit sc of the acceptance test: d0 = |U|_F / sc = 1 / sc and
    d1 = |f0| / sc give the Euler step h0 = 0.01 d0 / d1 (1e-6 when
    d1 <= 1e-5), whose probe f1 = f(y + h0 f0) gives d2 = |f1 - f0| / (h0 sc);
    the step is min(100 h0, (0.01 / max(d1, d2))^(1/8)), the second term
    max(1e-6, 1e-3 h0) when max(d1, d2) <= 1e-15.  One call of f;
    NonFiniteError when f1 is not finite."""
    d1 = np.linalg.norm(f0[:-1]) / sc
    h0 = 0.01 / (sc * d1) if d1 > 1e-5 else 1e-6
    f1 = np.empty_like(y)
    f(y + h0 * f0, f1)
    if not np.isfinite(f1).all():
        raise NonFiniteError("reaction term of the first-step probe is not finite")
    d = max(d1, np.linalg.norm(f1[:-1] - f0[:-1]) / (h0 * sc))
    return min(100.0 * h0, (0.01 / d) ** 0.125 if d > 1e-15 else max(1e-6, 1e-3 * h0))


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

    The steps run in the clock dtau = |M|_F dt on y = (U, l, t), M = e^l U:
    U' = Q(U) - <Q(U), U> U, l' = <Q(U), U>, t' = e^(-l); the first is
    dt_init |M|_F, or without dt_init Hairer's estimate (``_initial_step``),
    whose Euler probe costs one reaction term.  Once the predicted time
    increment h e^(-l) reaches t_end - t, the step lands: size t_end - t in
    t on e^l y', then t = t_end exactly (a step in tau that passes t_end
    counts as rejected).  Each new e^l U is re-projected and split anew into
    U and l.  The error estimate is relative, its t component weighted by
    e^l |Q(U)|_F (the change of M a time error causes); a step is accepted
    when error * min(1, ||R||) of its new state is at most rel_tol, an error
    in M of rel_tol max(1, ||R||).  y' at an accepted state, and at the
    start, is the first stage of the next step, so an accepted step costs 12
    reaction terms and a rejected one 11.  Only that first stage is
    ``qform``, whose Bianchi check holds Q(U) of every state stepped from to
    REACTION_TOL.  The other 11 stages and the Euler probe call the bare
    kernel ``core._reaction_terms`` on the flat buffer: a stage input is a
    projected state plus a combination of reaction terms, so its cyclic sums
    are roundoff whenever the checked Q is right, and the stages are tested
    for finiteness alone, once per attempt.  The step
    factor is 0.9 r^(-1/8) for the error ratio r, after an accepted step at
    most Gustafsson's predictive 0.9 (h / h_prev) (r_prev / r^2)^(1/8),
    r_prev >= 1e-2 (Hairer & Wanner, Solving ODEs II, IV.8), clipped to
    [0.2, 2]; on the first accepted step, which has no step history, to
    [0.2, 6], dop853.f's fac2, so the flow climbs out of a small first step
    at once.  The trace records t, scalar curvature, minimum isotropic
    curvature and tensor norm every ``monitor_every`` accepted steps and at
    both endpoints, searching the states ``_MONITOR_STACK`` at a time as one
    ``_min_isotropic_stack``.  A step with a non-finite stage, error estimate
    or state ends the flow with ``terminated_by="non_finite"`` at the last
    accepted state; NonFiniteError when the Euler probe is not finite;
    FlowError when h e^(-l) underflows; CurvatureError for n < 4, before any
    step, and when the checked Q of a state fails its Bianchi check.
    """
    cfg = cfg or FlowConfig()
    _require_four_frames(R0.n)
    t_end = cfg.t_end if cfg.t_end is not None else default_horizon(R0)

    R = _project(R0)
    n, shape, scale = R.n, R.mat.shape, 0.5 * R.norm()
    norm0 = max(1.0, R.norm())
    y = (np.append(R.mat / scale, [np.log(scale), 0.0]) if scale > 0     # (U, l, t)
         else np.append(np.zeros(R.mat.size + 1), t_end))               # a fixed point
    K = np.empty((len(_A), y.size))
    evals = 0

    def stage_q(U):                  # bare: the stages are tested for finiteness
        return _reaction_terms(U, n)[0]

    def state_q(U):                  # checked to REACTION_TOL, once per state
        return qform(_stored(U, n)).mat

    def f(x, out, q=stage_q):
        nonlocal evals
        evals += 1
        U = x[:-2].reshape(shape)
        QU = q(U)
        out[-2] = a = np.vdot(QU, U)
        np.subtract(QU, a * U, out=out[:-2].reshape(shape))
        out[-1] = np.exp(-x[-2])

    def f_t(x, out):
        f(x, out)
        out *= np.exp(x[-2])

    times, scal, iso, nrm, queue, searched_s = [], [], [], [], [], []

    def search():
        t0 = time.perf_counter()
        iso.extend(res.value for res in _min_isotropic_stack(np.stack(queue), n, cfg.optimizer))
        searched_s.append(time.perf_counter() - t0)
        queue.clear()

    def record(t, Rt):
        times.append(t)
        scal.append(scalar_curvature(Rt))
        nrm.append(Rt.norm())
        queue.append(Rt.mat)
        if len(queue) == _MONITOR_STACK:
            search()

    record(0.0, R)
    f0 = None                        # y' at y
    if cfg.dt_init is not None:
        h = cfg.dt_init * scale
    elif scale > 0:
        f0 = np.empty_like(y)
        with np.errstate(over="ignore"):
            f(y, f0, state_q)
            h = _initial_step(y, f0, f, cfg.rel_tol / min(1.0, R.norm()))
    else:                            # a fixed point takes no step
        h = 0.0
    first_step = h / np.exp(y[-2])
    accepted = rejected = 0
    terminated_by = "t_end"
    last = None                      # (h, error ratio) of the last accepted step

    while y[-1] < t_end and accepted < cfg.max_steps:
        el, left = np.exp(y[-2]), t_end - y[-1]
        if h / el < 1e-14 * max(1.0, t_end):
            raise FlowError(f"step size underflow at t={y[-1]:.6g}")
        landing, h = h >= left * el, min(h, left * el)
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                if f0 is None:
                    f0 = np.empty_like(y)
                    f(y, f0, state_q)
                np.multiply(f0, el if landing else 1.0, out=K[0])
                new, err = _dop853_step(y, K, left if landing else h, f_t if landing else f,
                                        el * np.linalg.norm(f0[:-1]))
                if not np.isfinite(K).all():
                    raise NonFiniteError("a stage's reaction term is not finite")
                new_R = _project(_stored(np.exp(new[-2]) * new[:-2].reshape(shape), n))
                size = new_R.norm()
                new = np.append(new_R.mat / (0.5 * size),
                                [np.log(0.5 * size), t_end if landing else new[-1]])
        except NonFiniteError:
            err = size = np.inf
        if not (err < np.inf and size < np.inf and new[-1] < np.inf):
            terminated_by = "non_finite"
            break
        ratio = err * min(1.0, size) / cfg.rel_tol
        if new[-1] > t_end:                     # passed t_end in tau: land next
            rejected, h = rejected + 1, left * el
        elif ratio <= 1.0:
            y, R, f0 = new, new_R, None
            accepted += 1
            if accepted % cfg.monitor_every == 0:
                record(y[-1], R)
            if size > cfg.blowup_guard * norm0:
                terminated_by = "blowup_guard"
                break
            cap = grow = 6.0 if last is None else 2.0
            if ratio > 0:
                grow = 0.9 * ratio ** -0.125
                if last is not None:
                    grow = min(grow, 0.9 * (h / last[0]) * (last[1] / ratio ** 2) ** 0.125)
            last = h, max(ratio, 1e-2)
            h *= min(cap, max(0.2, grow))
        else:
            rejected += 1
            h *= max(0.2, 0.9 * ratio ** -0.125)

    if y[-1] < t_end and terminated_by == "t_end":
        terminated_by = "max_steps"
    if times[-1] != y[-1]:
        record(y[-1], R)
    if queue:
        search()

    trace = FlowTrace(times=np.array(times), scalars=np.array(scal),
                      min_iso=np.array(iso), norm=np.array(nrm),
                      terminated_by=terminated_by, steps_accepted=accepted,
                      steps_rejected=rejected, reaction_evals=evals,
                      first_step=first_step, monitor_s=sum(searched_s))
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
