"""Searches over orthonormal frames and unit vectors for curvature functionals.

The workhorse is projected gradient descent on the Stiefel manifold of
orthonormal k-column matrices (k = 4 for isotropic frames and for the
J-frames (X, JX, Y, JY) of the bisectional search, k = 1 for unit vectors;
Edelman-Arias-Smith 1998, Absil-Mahony-Sepulchre 2008): Euclidean
gradient, tangent projection G - F sym(F^T G), QR retraction with
positive-diagonal sign fix (x / |x| for k = 1), a Barzilai-Borwein first
trial step and a backtrack that accepts on Armijo decrease, or on the
approximate Wolfe slope test where roundoff ties the values (Barzilai-Borwein
1988; Wen-Yin 2013 use BB steps on the Stiefel manifold; Hager-Zhang 2005),
multistart, on tensors scaled to |M|_max = 1.  One engine,
``_descend``, runs all starts of a search as one (B, n, k) stack, each row
with its own step size.  Results say why the best restart stopped
(``stop_reason``) and how long each restart ran; they report values, and
frames are certificates, never compared directly.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral, Real

import numpy as np

from .core import (_ISO_FORMS, ComplexStructure, CurvatureError, CurvatureTensor, FourFrame,
                   QuaternionTriple, _bianchi_gather, _frame_forms, _frozen, _unpack_two_form,
                   curvature_map, evaluate, invariance_defect, isotropic_from_columns,
                   pair_indices, qform)
from .spaces import _nullspace


def _require_numbers(values: dict, integers, positives) -> None:
    """Raise ValueError naming the first bad entry of ``values``: ``integers``
    are (name, low) pairs whose values must be non-bool integers >= low,
    ``positives`` names values that must be finite positive non-bool numbers."""
    for name, low in integers:
        v = values[name]
        if isinstance(v, bool) or not isinstance(v, Integral) or v < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")
    for name in positives:
        v = values[name]
        if isinstance(v, bool) or not isinstance(v, Real) or not (np.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be a finite positive number, got {v!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 64
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        _require_numbers(vars(self), (("restarts", 1), ("max_iters", 1), ("seed", 0)), ())


@dataclass
class FrameSearchResult:
    value: float
    frame_or_vector: object            # FourFrame for frame searches, 1-d array else
    converged: bool                    # stop_reason == "grad_tol"
    iterations: int
    restart_values: list = field(default_factory=list)
    restart_frames: list = field(default_factory=list, repr=False)
    stop_reason: str | None = None     # of the reported restart, one of STOP_REASONS
    restart_iterations: list = field(default_factory=list)   # aligned with restart_values
    restart_stop_reasons: list = field(default_factory=list)  # likewise


# ---------------------------------------------------------------------------
# Stiefel descent engine
# ---------------------------------------------------------------------------

STOP_REASONS = ("grad_tol", "line_search_floor", "max_iters")
CHECK_TOL = 1e-6        # of boundary_q_check and qk_q_bound_check
FIRST_ORDER_TOL = 1e-5  # of the first-order conditions at a holomorphic maximizer
_STEP = 0.1             # first trial step; BB steps are clipped to [1e-6, 1e3] * _STEP
_GRAD_TOL = 1e-8        # a row stops once its projected gradient norm is at most this
_ARMIJO = 1e-4          # sufficient-decrease constant
_WOLFE = 0.9            # curvature constant of the slope test on flat trials
_FLAT = 16 * np.finfo(float).eps   # values this close, relative to max(1, |val|), tie
_BACKTRACKS = 60        # step halvings before a row sits at the line-search floor


def _retract(F: np.ndarray) -> np.ndarray:
    """QR retraction of a stack (..., n, k) onto orthonormal columns,
    sign-fixed for continuity; for k = 1 this is x / |x|."""
    if F.shape[-1] == 1:
        return F / np.linalg.norm(F, axis=-2, keepdims=True)
    q, r = np.linalg.qr(F)
    s = np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0, -1.0, 1.0)
    return q * s[..., None, :]


def _stiefel_tangent(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Projection G - F sym(F^T G) of a stack of gradients onto the tangent spaces."""
    FtG = np.swapaxes(F, -1, -2) @ G
    return G - F @ (0.5 * (FtG + np.swapaxes(FtG, -1, -2)))


def _descend(value_grad, F0: np.ndarray, cfg: OptimizerConfig, on_iterate=None):
    """Minimize value_grad over a (B, n, k) stack of starts, all rows at once.

    ``value_grad(F, rows)`` maps a (b, n, k) stack to values (b,) and
    Euclidean gradients; ``rows`` (b,) are the indices into F0 of the active
    rows in F, so one stack can carry rows whose functional differs (rows of
    different tensors, see ``_hol_value_grad``); a closure of one functional
    ignores it.  Every search, the J-frames of ``min_orthogonal_bisectional``
    too, steps along ``_stiefel_tangent`` and retracts by ``_retract``.  Each
    row's first trial after an accepted step is the BB step |s|^2 / |<s, y>|,
    with s the accepted move and y the change of the projected gradient,
    clipped to [1e-6, 1e3] * _STEP (the upper bound when <s, y> = 0; the
    first trial is _STEP); a rejected trial halves the step.  A trial with
    value vt, move s and projected gradient Pt is accepted on value, by a
    strict Armijo decrease vt < val, vt <= val - _ARMIJO a |P|^2, or, when
    |vt - val| <= _FLAT max(1, |val|) and roundoff hides any decrease, on
    slope, by Hager and Zhang's approximate Wolfe test (SIAM J. Optim. 16,
    2005) with delta = _ARMIJO and sigma = _WOLFE:
    <P, s> < 0 and sigma <P, s> <= <Pt, s> <= (1 - 2 delta) |<P, s>|.  The
    lower bound rejects steps too short to change the slope, such as steps
    along an ascent direction.  A row leaves the stack at projected gradient
    norm <= _GRAD_TOL (``grad_tol``), after 60 rejected halvings
    (``line_search_floor``) or after ``cfg.max_iters``.  The step and the
    tolerances are absolute: the searches normalize their tensors first
    (``_unit_scale``).
    ``on_iterate(F, val, gnorm)`` is called with the (n, k) frame of each
    active row at the start of each of its iterations.

    Returns (values, frames, iterations, stop reasons), aligned with F0's rows.
    """
    F = _retract(np.asarray(F0, dtype=float))
    B = len(F)
    rows = np.arange(B)                 # the rows of F0 still in the stack
    val, G = value_grad(F, rows)
    P = _stiefel_tangent(F, G)
    g2 = np.einsum("bij,bij->b", P, P)  # squared norms of the projected gradients
    a = np.full(B, _STEP)               # next trial step of each row
    lo, hi = 1e-6 * _STEP, 1e3 * _STEP
    # failed trials in the current iteration, iterations begun
    tries, iters = np.zeros(B, dtype=int), np.ones(B, dtype=int)
    ok = np.ones(B, dtype=bool)         # last trial accepted: a new iteration begins
    out = (np.empty(B), np.empty_like(F), np.empty(B, dtype=int), np.empty(B, dtype=int))
    while True:
        if on_iterate is not None:
            for i in np.flatnonzero(ok & (iters <= cfg.max_iters)):
                on_iterate(F[i], val[i], np.sqrt(g2[i]))
        # g2 changes only on acceptance, so a small g2 is met at an iteration start
        over = iters > cfg.max_iters
        done = (g2 <= _GRAD_TOL ** 2) | over | (tries == _BACKTRACKS)
        if np.count_nonzero(done):
            code = np.where(tries == _BACKTRACKS, 1, np.where(over, 2, 0))
            for dst, src in zip(out, (val, F, np.minimum(iters, cfg.max_iters), code)):
                dst[rows[done]] = src[done]
            if done.all():
                break
            F, val, P, g2, a, tries, iters, rows = (
                x[~done] for x in (F, val, P, g2, a, tries, iters, rows))
        Ft = _retract(F - a[:, None, None] * P)
        vt, Gt = value_grad(Ft, rows)
        Pt = _stiefel_tangent(Ft, Gt)
        s, y = Ft - F, Pt - P
        # on value (strict Armijo), or on slope where the values tie to roundoff
        flat = np.abs(vt - val) <= _FLAT * np.maximum(1.0, np.abs(val))
        sp, spt = np.einsum("bij,bij->b", s, P), np.einsum("bij,bij->b", s, Pt)
        wolfe = (sp < 0) & (_WOLFE * sp <= spt) & (spt <= (2 * _ARMIJO - 1) * sp)
        ok = ((vt < val) & (vt <= val - _ARMIJO * a * g2)) | (flat & wolfe)
        # BB step of the accepted rows; a rejected row has no step
        sy = np.abs(np.einsum("bij,bij->b", s, y))
        bb = np.divide(np.einsum("bij,bij->b", s, s), sy, out=np.full(len(sy), hi),
                       where=sy > 0)
        a = np.where(ok, np.clip(bb, lo, hi), 0.5 * a)
        m = ok[:, None, None]
        F, P = np.where(m, Ft, F), np.where(m, Pt, P)
        val, g2 = np.where(ok, vt, val), np.where(ok, np.einsum("bij,bij->b", Pt, Pt), g2)
        tries = np.where(ok, 0, tries + 1)
        iters += ok
    values, frames, iterations, codes = out
    return values, frames, iterations, np.array(STOP_REASONS)[codes]


def _unit_scale(mats: np.ndarray) -> np.ndarray:
    """|M|_max of each matrix of a (..., N, N) stack, 1 for a zero matrix.
    The searches run on M / s, whose step and tolerances are absolute, and
    report values times s: exact for s a power of two."""
    s = np.abs(mats).max(axis=(-2, -1))
    return np.where(s > 0, s, 1.0)


def _random_starts(cfg: OptimizerConfig, n: int, k: int) -> np.ndarray:
    """(restarts, n, k) Gaussian starts; restart r draws from seed cfg.seed + r."""
    return np.stack([np.random.default_rng(cfg.seed + r).standard_normal((n, k))
                     for r in range(cfg.restarts)])


def _search_result(values, frames, iterations, reasons, k: int, frame) -> FrameSearchResult:
    """Result of a search whose best restart is row k, reported as ``frame``."""
    return FrameSearchResult(value=float(values[k]), frame_or_vector=frame,
                             converged=bool(reasons[k] == "grad_tol"),
                             iterations=int(iterations[k]), restart_values=values.tolist(),
                             restart_frames=list(frames), stop_reason=str(reasons[k]),
                             restart_iterations=iterations.tolist(),
                             restart_stop_reasons=reasons.tolist())


# ---------------------------------------------------------------------------
# Isotropic curvature over 4-frames
# ---------------------------------------------------------------------------

def _form_value_grad(mat: np.ndarray, n: int, C: np.ndarray, swap: bool = False):
    """Closure over M, which must satisfy the first Bianchi identity: on frames
    F (..., n, k), with the forms w_a = F C_a F^T of a pair C
    (``core._frame_forms``) and A_a = R(., ., w_a), the values
    w_1 . M w_1 + w_2 . M w_2 and Euclidean gradients 2 sum_a A_a F C_a^T, or
    with ``swap`` the values w_1 . M w_2 and gradients A_2 F C_1^T + A_1 F C_2^T."""
    N = len(mat)
    c, s = (0.5, -1) if swap else (1.0, 1)     # w_1 . M w_2 = (w_1 . M w_2 + w_2 . M w_1) / 2
    K = np.hstack([c * mat, _unpack_two_form(mat, n).reshape(N, n * n)])  # (c M w, R(.,.,w))
    CT = 2.0 * c * np.swapaxes(C, 1, 2)[::s]

    def value_grad(F, rows=None):
        W = _frame_forms(F, C)
        out = W @ K
        A = out[..., N:].reshape(W.shape[:-1] + (n, n))
        G = (A @ (F[..., None, :, :] @ CT)).sum(axis=-3)
        return np.einsum("...ap,...ap->...", W, out[..., ::s, :N]), G

    return value_grad


def _iso_value_grad(mat: np.ndarray, n: int):
    """Closure: isotropic values and Euclidean gradients on frames (..., n, 4)."""
    return _form_value_grad(mat, n, _ISO_FORMS)


@lru_cache(maxsize=None)
def _coordinate_probe_frames(n: int) -> np.ndarray:
    """All axis-aligned 4-frames (e_i, e_j, e_k, e_l), i<j<k<l, plus their
    orientation-reversed copies: the cross term is odd under a single column
    sign flip, so the two classes see different values."""
    from itertools import combinations
    quads = np.array(list(combinations(range(n), 4)))
    F = np.zeros((len(quads), n, 4))
    F[np.arange(len(quads))[:, None], quads, np.arange(4)] = 1.0
    return _frozen(np.concatenate([F, F * [1.0, 1.0, 1.0, -1.0]]))


def _coordinate_probe_values(mat: np.ndarray, n: int) -> np.ndarray:
    """Isotropic values of the probe frames (e_i, e_j, e_k, +-e_l), in their order,
    read off M: M[ik,ik] + M[il,il] + M[jk,jk] + M[jl,jl] -+ 2 M[ij,kl]."""
    fwd = _bianchi_gather(n)[0]
    r, c = divmod(fwd, len(mat))
    d = np.diagonal(mat)
    diag = d[r[1]] + d[r[2]] + d[c[1]] + d[c[2]]
    cross = 2.0 * mat.flat[fwd[0]]
    return np.concatenate([diag - cross, diag + cross])


def sample_frames_min(R: CurvatureTensor, num_samples: int = 100_000, seed: int = 0):
    """Brute-force oracle: min isotropic curvature over random orthonormal frames.

    The frames, the sign-fixed QR of ``default_rng(seed)`` Gaussian draws, are
    uniform on the frame manifold (both orientations); they are drawn and scored
    128 at a time, and the first minimum wins.  Returns (value, frame matrix).
    Independent of the gradient path; cross-checks optimizer signs and values.
    """
    rng = np.random.default_rng(seed)
    best, best_frame = np.inf, None
    for start in range(0, num_samples, 128):
        q = _retract(rng.standard_normal((min(128, num_samples - start), R.n, 4)))
        vals = isotropic_from_columns(R.mat, q)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, best_frame = float(vals[i]), q[i]
    return best, best_frame


def min_isotropic(R: CurvatureTensor, cfg: OptimizerConfig | None = None,
                  init_frames=None, on_iterate=None) -> FrameSearchResult:
    """Multistart minimization of the isotropic curvature over orthonormal 4-frames.

    Restart r draws its starting frame from seed ``cfg.seed + r``; frames in
    ``init_frames`` are run first (warm starts), all in one stack.  A fixed
    probe set of axis-aligned frames guards the reported value: if a probe
    beats the best restart, descent is re-run from that probe.
    ``on_iterate(F, val, gnorm)`` sees every iteration of every restart.
    The search runs on M / s (``_unit_scale``) and scales back.
    """
    cfg = cfg or OptimizerConfig()
    n = R.n
    s = float(_unit_scale(R.mat))
    mat = R.mat / s
    value_grad = _iso_value_grad(mat, n)
    seen = None if on_iterate is None else lambda F, v, g: on_iterate(F, s * v, s * g)

    warm = [(F.matrix if isinstance(F, FourFrame) else np.asarray(F, dtype=float))[None]
            for F in (init_frames or [])]
    starts = np.concatenate(warm + [_random_starts(cfg, n, 4)])
    values, frames, iterations, reasons = _descend(value_grad, starts, cfg, seen)

    probe_vals = _coordinate_probe_values(mat, n)
    i = int(np.argmin(probe_vals))
    if probe_vals[i] < values.min() - 1e-12:
        v, f, it, rs = _descend(value_grad, _coordinate_probe_frames(n)[i:i + 1], cfg, seen)
        values, frames = np.concatenate([values, v]), np.concatenate([frames, f])
        iterations, reasons = np.concatenate([iterations, it]), np.concatenate([reasons, rs])

    k = int(np.argmin(values))
    return _search_result(s * values, frames, iterations, reasons, k, FourFrame(frames[k]))


def _pinching_from_iso(min_iso: float) -> float:
    """Pinching constant of a tensor whose min isotropic curvature is
    ``min_iso``: every frame sees the sphere shift as exactly 4 kappa."""
    return min_iso / 4.0


def pinching_constant(R: CurvatureTensor, cfg: OptimizerConfig | None = None) -> float:
    """Largest kappa with R - kappa * sphere still of nonnegative isotropic
    curvature."""
    return _pinching_from_iso(min_isotropic(R, cfg).value)


# ---------------------------------------------------------------------------
# Holomorphic sectional maximization over unit vectors
# ---------------------------------------------------------------------------

def _structure_forms(Jm: np.ndarray) -> np.ndarray:
    """(n, N n) matrix S of the symmetric forms Q_p with x^T Q_p x = (x ^ Jx)_p:
    for a stack of vectors x, T = (x @ S) reshaped to (..., N, n) has rows
    Q_p x, so that x ^ Jx = T x and its derivative in x is 2 T."""
    n = len(Jm)
    iu, ju = pair_indices(n)
    p = np.arange(len(iu))
    Q = np.zeros((len(iu), n, n))
    Q[p, iu], Q[p, ju] = Jm[ju], -Jm[iu]
    return (Q + np.swapaxes(Q, 1, 2)).transpose(1, 0, 2).reshape(n, -1) / 2.0


def _hol_value_grad(mats: np.ndarray, Jm: np.ndarray, r: int):
    """Closure: -R(x,Jx,x,Jx) and its Euclidean gradient on columns (b, n, 1)
    for a (T, N, N) stack of tensors, rows t r .. (t + 1) r - 1 of F0 taken
    on tensor t.

    Each pass puts the active rows' wedges x ^ Jx in their F0 rows of a zero
    (T r, N) block and multiplies it, as (T, r, N), by the stack once, so no
    (b, N, N) copy of the coefficient matrices is gathered and a row's
    arithmetic is that of a T = 1 run of its tensor alone.
    """
    T, N, _ = mats.shape
    n = len(Jm)
    S = _structure_forms(Jm)

    def value_grad(X, rows):
        Tx = (X[..., 0] @ S).reshape(len(X), N, n)
        w = (Tx @ X)[..., 0]                        # x ^ Jx
        block = np.zeros((T * r, N))
        block[rows] = w
        mw = (block.reshape(T, r, N) @ mats).reshape(T * r, N).take(rows, axis=0)
        return -np.einsum("bp,bp->b", w, mw), -4.0 * np.swapaxes(mw[:, None, :] @ Tx, 1, 2)

    return value_grad


def _max_holomorphic_stack(mats: np.ndarray, Jm: np.ndarray,
                           cfg: OptimizerConfig) -> list[FrameSearchResult]:
    """``max_holomorphic_sectional`` of every tensor of a (T, N, N) stack: the
    T * cfg.restarts ascents run as one ``_descend`` stack, each tensor from
    the same seeded starts, and each result is the best of its own rows.
    Each tensor is searched as M / s (``_unit_scale``) and scaled back."""
    r = cfg.restarts
    s = _unit_scale(mats)
    starts = np.tile(_random_starts(cfg, len(Jm), 1), (len(mats), 1, 1))
    negvals, X, iterations, reasons = _descend(_hol_value_grad(mats / s[:, None, None], Jm, r),
                                               starts, cfg)
    results = []
    for t in range(len(mats)):
        own = slice(t * r, (t + 1) * r)
        k = int(np.argmin(negvals[own]))
        x = X[own, :, 0]
        results.append(_search_result(-s[t] * negvals[own], x, iterations[own], reasons[own],
                                      k, x[k]))
    return results


def max_holomorphic_sectional(R: CurvatureTensor, J: ComplexStructure,
                              cfg: OptimizerConfig | None = None) -> FrameSearchResult:
    """Multistart maximization of R(X, JX, X, JX) over unit X."""
    cfg = cfg or OptimizerConfig()
    if J.n != R.n:
        raise CurvatureError("complex structure dimension does not match tensor")
    return _max_holomorphic_stack(R.mat[None], J.matrix, cfg)[0]


def _restricted_bisectional(Omega: np.ndarray, A: np.ndarray, W: np.ndarray):
    """Ascending eigenpairs of W^T B W for Omega = R(x, Ax, ., .) and
    orthonormal columns W, where B = (Omega A + A Omega) / 2 is the symmetric
    matrix with y^T B y = R(x, Ax, y, Ay)."""
    return np.linalg.eigh(W.T @ (0.5 * (Omega @ A + A @ Omega)) @ W)


@dataclass(frozen=True)
class FirstOrderReport:
    """Stationarity data of X for the holomorphic sectional functional."""

    value: float          # R(X,JX,X,JX)
    deriv_y: float        # max |R(X,JX,X,Y)| over unit Y orthogonal to X, JX
    deriv_jy: float       # max |R(X,JX,X,JY)| over the same Y
    min_slack: float      # min over Y of R(X,JX,X,JX) - 2 R(X,JX,Y,JY)
    passed: bool
    tol: float


def _first_order(Omega: np.ndarray, Jm: np.ndarray, x: np.ndarray, W: np.ndarray,
                 tol: float) -> FirstOrderReport:
    """``maximizer_first_order_check`` from Omega = R(x, Jx, ., .) and an
    orthonormal basis W (columns) of the complement of span{x, Jx}."""
    h = float(x @ Omega @ (Jm @ x))          # R(x,jx,x,jx)
    u = Omega.T @ x                          # u_i = R(x, jx, x, e_i)
    deriv_y = float(np.linalg.norm(W.T @ u))
    deriv_jy = float(np.linalg.norm(W.T @ (Jm @ u)))
    min_slack = h - 2.0 * float(_restricted_bisectional(Omega, Jm, W)[0].max(initial=-np.inf))
    passed = deriv_y <= tol and deriv_jy <= tol and min_slack >= -tol
    return FirstOrderReport(value=h, deriv_y=deriv_y, deriv_jy=deriv_jy,
                            min_slack=min_slack, passed=passed, tol=tol)


def maximizer_first_order_check(R: CurvatureTensor, J: ComplexStructure,
                                x: np.ndarray, tol: float = FIRST_ORDER_TOL) -> FirstOrderReport:
    """Check the first-order maximality conditions of R(X,JX,X,JX) at X.

    At a maximizer, R(X,JX,X,Y) = R(X,JX,X,JY) = 0 and
    2 R(X,JX,Y,JY) <= R(X,JX,X,JX) for every unit Y orthogonal to X and JX.
    The extrema over Y are computed exactly (norm of a projected functional,
    top eigenvalue of the restricted bisectional form).  For n = 2 no such Y
    exists and the conditions hold vacuously (min_slack = +inf).
    """
    x = np.asarray(x, dtype=float)
    jx = J.matrix @ x
    W = _nullspace(np.array([x, jx]))
    return _first_order(curvature_map(R, x, jx), J.matrix, x, W, tol)


# ---------------------------------------------------------------------------
# Orthogonal bisectional minimization over constrained pairs
# ---------------------------------------------------------------------------

# w_1 = f1 ^ f2 and w_2 = f3 ^ f4 of a J-frame F = (X, JX, Y, JY); J F = F E, E = -(C_1 + C_2)
_BIS_FORMS = np.zeros((2, 4, 4))
_BIS_FORMS[[0, 0, 1, 1], [0, 1, 2, 3], [1, 0, 3, 2]] = [1.0, -1.0, 1.0, -1.0]
_J_FRAME = _frozen(-_frozen(_BIS_FORMS).sum(axis=0))


def _bisectional_value_grad(mat: np.ndarray, Jm: np.ndarray):
    """Closure: R(X, JX, Y, JY) = w_1 . M w_2 on J-frames (..., n, 4) and the
    lift G - J G E of its Euclidean gradient G, whose column pairs are
    (g_X, J g_X) and (g_Y, J g_Y), with g_X, g_Y its gradient in X and Y.
    (The orthogonal projection (G - J G E) / 2 would halve every step.)"""
    pair = _form_value_grad(mat, len(Jm), _BIS_FORMS, swap=True)

    def value_grad(F, rows=None):
        v, G = pair(F)
        return v, G - Jm @ G @ _J_FRAME

    return value_grad


def min_orthogonal_bisectional(R: CurvatureTensor, J: ComplexStructure,
                               cfg: OptimizerConfig | None = None) -> FrameSearchResult:
    """Minimize R(X, JX, Y, JY) over unit X, Y with Y orthogonal to X and JX.

    These pairs, the complex Stiefel manifold V_2(C^m), are exactly the
    orthonormal J-frames F = (X, JX, Y, JY), the frames with J F = F E for
    E = e2 e1^T - e1 e2^T + e4 e3^T - e3 e4^T.  All restarts descend as one
    (B, n, 4) stack of J-frames on the lifted gradient of
    ``_bisectional_value_grad``; the engine's tangent projection keeps the
    J-structure, and its sign-fixed QR of (x, Jx, y, Jy) is (x', Jx', y', Jy')
    with y' the complex Gram-Schmidt of y.  Each restart ends with an exact
    minimization over Y at its final X.  ``restart_frames`` holds the (X, Y)
    columns; the frame is (X, JX, Y, JY).  No such Y exists for n < 4
    (CurvatureError).  The search runs on M / s (``_unit_scale``) and scales
    back.
    """
    cfg = cfg or OptimizerConfig()
    n, Jm = R.n, J.matrix
    if n < 4:
        raise CurvatureError("no unit Y is orthogonal to X and JX for n < 4")
    s = float(_unit_scale(R.mat))
    R = CurvatureTensor(n, R.mat / s)
    value_grad = _bisectional_value_grad(R.mat, Jm)

    def j_frames(x, y):                     # rows x, y (B, n) -> J-frames (B, n, 4)
        return np.stack([x, x @ Jm.T, y, y @ Jm.T], axis=-1)

    def polish_y(x):                        # the restricted eigenproblem in Y
        jx = Jm @ x
        W = _nullspace(np.array([x, jx]))
        return W @ _restricted_bisectional(curvature_map(R, x, jx), Jm, W)[1][:, 0]

    xy = _random_starts(cfg, 2, n)          # x, then y, per seed
    values, frames, iterations, reasons = _descend(value_grad, j_frames(xy[:, 0], xy[:, 1]), cfg)
    polished = j_frames(frames[..., 0], np.array([polish_y(x) for x in frames[..., 0]]))
    vpol = value_grad(polished)[0]
    frames = np.where((vpol < values)[:, None, None], polished, frames)[:, :, [0, 2]]
    values = np.minimum(vpol, values)

    k = int(np.argmin(values))
    x, y = frames[k].T
    return _search_result(s * values, frames, iterations, reasons, k,
                          FourFrame.from_vectors(x, Jm @ x, y, Jm @ y))


# ---------------------------------------------------------------------------
# Boundary and quaternionic reaction checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryQReport:
    """Reaction term evaluated on a frame where the isotropic curvature vanishes."""

    iso_value: float
    q_value: float
    applicable: bool
    passed: bool | None     # None when not applicable
    tol: float


def boundary_q_check(R: CurvatureTensor, frame: FourFrame, min_iso: float) -> BoundaryQReport:
    """On a zero frame of a tensor with nonnegative isotropic curvature, the
    reaction term's isotropic value must be nonnegative as well.

    ``min_iso`` is the caller's certificate for min isotropic curvature of R;
    a frame away from the boundary makes the check inapplicable, not failed.
    Every comparison is to tol = CHECK_TOL, which the report carries.
    """
    iso = float(isotropic_from_columns(R.mat, frame.matrix))
    applicable = abs(iso) <= CHECK_TOL and min_iso >= -CHECK_TOL
    q_val = float(isotropic_from_columns(qform(R).mat, frame.matrix))
    passed = (q_val >= -CHECK_TOL) if applicable else None
    return BoundaryQReport(iso_value=iso, q_value=q_val, applicable=applicable,
                           passed=passed, tol=CHECK_TOL)


@dataclass(frozen=True)
class QKBoundReport:
    """Sharp reaction bound at the joint maximizer over structures and vectors."""

    j_coeffs: tuple[float, float, float]   # always (1, 0, 0): J = I, see qk_q_bound_check
    max_value: float        # R1(X,JX,X,JX) at the maximizer
    q_value: float          # Q(R1)(X,JX,X,JX)
    bound: float            # (2m+4) * max_value^2
    slack: float            # bound - q_value
    y2_max_excess: float    # max over the paired basis of 4 R1(X,JX,w,Jw)^2 - max_value^2
    first_order: FirstOrderReport
    hk_residual: float
    passed: bool
    tol: float
    stop_reason: str        # of the maximizer search's best row, one of STOP_REASONS
    iterations: int         # of that row
    restart_stop_reasons: tuple   # of every row of the search


def qk_q_bound_check(R1s, T: QuaternionTriple, cfg: OptimizerConfig | None = None):
    """Verify Q(R1)(X,JX,X,JX) <= (2m+4) R1(X,JX,X,JX)^2 + CHECK_TOL at the
    maximizer; its first-order conditions are checked to FIRST_ORDER_TOL.

    ``R1s`` is one CurvatureTensor, which gives one QKBoundReport, or a
    sequence of them, which gives a list of reports in input order (``[]``
    for an empty one).  Every tensor passes the dimension check and the
    hyper-Kahler residual gate before any search runs, so a bad tensor
    anywhere in the sequence raises CurvatureError and nothing is searched.
    The maximizer searches of all tensors, ``cfg.restarts`` ascents from
    the same seeded starts for each, then run as one ``_descend`` stack whose
    rows belong to different tensors; each tensor's X is the best of its own
    rows, exactly as in ``max_holomorphic_sectional(R1, T.I, cfg)``.

    The bound holds at the joint maximum of R1(X,JX,X,JX) over unit X and
    unit combinations J = aI + bJ + cK, and that maximum is reached at J = I.
    A hyper-Kahler R1 lies in Sym^2(sp(m)), and sp(m) commutes with the unit
    quaternions q = a + bI + cJ + dK acting on R^n, so R1 is q-invariant.  As
    q I q^-1 covers the structure sphere,
    R1(X, qIq^-1 X, X, qIq^-1 X) = R1(q^-1 X, I q^-1 X, q^-1 X, I q^-1 X).
    X is therefore the multistart maximizer for I, and ``j_coeffs`` is
    (1, 0, 0).  The hyper-Kahler residual gate is the precondition of this
    reduction: an input with R(., ., A., A.) != R for some A in T raises
    CurvatureError, since off Sym^2(sp(m)) the maximum over J need not be at I.

    ``y2_max_excess`` is max 4 R1(X,IX,w,Iw)^2 - max_value^2 over the paired
    basis {w, Iw} of the complement of span{X, IX, JX, KX} (-max_value^2 when
    it is empty).  The gate puts Omega = R1(X, IX, ., .) in sp(m), so it
    commutes with I, J and K.  So B = Omega I, with w^T B w = R1(X,IX,w,Iw),
    compressed to that H-invariant complement commutes with I and
    anticommutes with J: its spectrum is +-lambda, each with even
    multiplicity, and the pairs {w, Iw} are its eigenvectors, one value per
    pair.  The maximum is therefore 4 max lambda^2, read off one symmetric
    eigenvalue problem.  Omega and one basis of that complement serve this
    diagnostic and the first-order check alike: with JX and KX it spans the
    complement of span{X, IX}.
    """
    cfg = cfg or OptimizerConfig()
    single = isinstance(R1s, CurvatureTensor)
    tensors = [R1s] if single else list(R1s)
    hk_residuals = []
    for R1 in tensors:
        if R1.n != T.n:
            raise CurvatureError("tensor and triple dimensions differ")
        # the precondition of the reduction to J = I (see the docstring)
        hk_residual = invariance_defect(R1, T.matrices)
        if not hk_residual <= 1e-8 * max(1.0, float(np.max(np.abs(R1.mat)))):
            raise CurvatureError(f"input fails the hyperkahler residual check: {hk_residual:.3e}")
        hk_residuals.append(hk_residual)
    if not tensors:
        return []
    searches = _max_holomorphic_stack(np.stack([R1.mat for R1 in tensors]), T.I.matrix, cfg)
    reports = [_qk_report(R1, T, res, hk_residual)
               for R1, res, hk_residual in zip(tensors, searches, hk_residuals)]
    return reports[0] if single else reports


def _qk_report(R1: CurvatureTensor, T: QuaternionTriple, res: FrameSearchResult,
               hk_residual: float) -> QKBoundReport:
    """The bound and both diagnostics of ``qk_q_bound_check`` at the maximizer
    search ``res`` of R1 for I."""
    val, x = res.value, res.frame_or_vector
    A = T.I.matrix
    ix, jx, kx = (M @ x for M in T.matrices)
    q_val = evaluate(qform(R1), x, ix, x, ix)
    bound = (2 * (T.n // 4) + 4) * val * val
    Omega = curvature_map(R1, x, ix)
    # x, Ix, Jx, Kx are orthonormal, so JX, KX and the complement of all four
    # span the complement of span{x, Ix}
    W = _nullspace(np.array([x, ix, jx, kx]))
    first = _first_order(Omega, A, x, np.column_stack([jx, kx, W]), FIRST_ORDER_TOL)

    # the paired diagnostic: B is +-lambda on the quaternionic complement of X
    vals = _restricted_bisectional(Omega, A, W)[0]
    y2_max_excess = 4.0 * float(np.max(vals * vals, initial=0.0)) - val * val

    passed = q_val <= bound + CHECK_TOL
    return QKBoundReport(j_coeffs=(1.0, 0.0, 0.0),
                         max_value=val, q_value=q_val, bound=bound,
                         slack=bound - q_val, y2_max_excess=y2_max_excess,
                         first_order=first, hk_residual=hk_residual,
                         passed=passed, tol=CHECK_TOL,
                         stop_reason=res.stop_reason, iterations=res.iterations,
                         restart_stop_reasons=tuple(res.restart_stop_reasons))
