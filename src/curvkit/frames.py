"""Searches over orthonormal frames and unit vectors for curvature functionals.

The workhorse is projected gradient descent on the Stiefel manifold of
orthonormal k-column matrices (k = 4 for isotropic frames, k = 1 for unit
vectors; Edelman-Arias-Smith 1998, Absil-Mahony-Sepulchre 2008): Euclidean
gradient, tangent projection G - F sym(F^T G), QR retraction with
positive-diagonal sign fix (x / |x| for k = 1), a Barzilai-Borwein first
trial step and a monotone Armijo backtrack (Barzilai-Borwein 1988; Wen-Yin
2013 use BB steps on the Stiefel manifold), multistart.  One engine,
``_descend``, runs all starts of a search as one (B, n, k) stack, each row
with its own step size.  Results say why the best restart stopped
(``stop_reason``) and how long each restart ran; they report values, and
frames are certificates, never compared directly.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import (ComplexStructure, CurvatureError, CurvatureTensor, FourFrame,
                   QuaternionTriple, _bianchi_gather, _frozen, _unpack_two_form,
                   curvature_map, evaluate, invariance_defect, isotropic_from_columns,
                   pair_indices, qform, wedge)


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 64
    max_iters: int = 500
    grad_tol: float = 1e-8
    step: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be positive")
        if self.grad_tol <= 0 or self.step <= 0:
            raise ValueError("grad_tol and step must be positive")


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


# ---------------------------------------------------------------------------
# Stiefel descent engine
# ---------------------------------------------------------------------------

STOP_REASONS = ("grad_tol", "line_search_floor", "max_iters")
_ARMIJO = 1e-4          # sufficient-decrease constant
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


def _descend(value_grad, F0: np.ndarray, cfg: OptimizerConfig, on_iterate=None,
             retract=_retract, tangent=_stiefel_tangent):
    """Minimize value_grad over a (B, n, k) stack of starts, all rows at once.

    ``value_grad`` maps a (b, n, k) stack to values (b,) and Euclidean
    gradients; ``retract`` maps trial points onto the constraint set (a NaN
    row is an infeasible trial) and ``tangent`` projects gradients onto its
    tangent spaces.  Each row's first trial after an accepted step is the BB
    step |s|^2 / |<s, y>|, with s the accepted move and y the change of the
    projected gradient, clipped to [1e-6, 1e3] * cfg.step (the upper bound
    when <s, y> = 0); a rejected trial halves the step (monotone Armijo
    backtrack).  A row leaves the stack at ``grad_tol``, after 60 halvings
    without a decrease (``line_search_floor``) or after ``max_iters``.
    ``on_iterate(F, val, gnorm)`` is called with the (n, k) frame of each
    active row at the start of each of its iterations.

    Returns (values, frames, iterations, stop reasons), aligned with F0's rows.
    """
    F = retract(np.asarray(F0, dtype=float))
    val, G = value_grad(F)
    P = tangent(F, G)
    g2 = np.einsum("bij,bij->b", P, P)  # squared norms of the projected gradients
    B = len(F)
    a = np.full(B, cfg.step)            # next trial step of each row
    lo, hi = 1e-6 * cfg.step, 1e3 * cfg.step
    # failed trials in the current iteration, iterations begun, rows of F0
    tries, iters, rows = np.zeros(B, dtype=int), np.ones(B, dtype=int), np.arange(B)
    ok = np.ones(B, dtype=bool)         # last trial accepted: a new iteration begins
    out = (np.empty(B), np.empty_like(F), np.empty(B, dtype=int), np.empty(B, dtype=int))
    while True:
        if on_iterate is not None:
            for i in np.flatnonzero(ok & (iters <= cfg.max_iters)):
                on_iterate(F[i], val[i], np.sqrt(g2[i]))
        # g2 changes only on acceptance, so a small g2 is met at an iteration start
        over = iters > cfg.max_iters
        done = (g2 <= cfg.grad_tol ** 2) | over | (tries == _BACKTRACKS)
        if np.count_nonzero(done):
            code = np.where(tries == _BACKTRACKS, 1, np.where(over, 2, 0))
            for dst, src in zip(out, (val, F, np.minimum(iters, cfg.max_iters), code)):
                dst[rows[done]] = src[done]
            if done.all():
                break
            F, val, P, g2, a, tries, iters, rows = (
                x[~done] for x in (F, val, P, g2, a, tries, iters, rows))
        Ft = retract(F - a[:, None, None] * P)
        vt, Gt = value_grad(Ft)
        # a trial must decrease the value: at the floor, where the Armijo
        # margin is below roundoff, a step that moves nothing is no progress
        ok = (vt < val) & (vt <= val - _ARMIJO * a * g2)
        Pt = tangent(Ft, Gt)
        # BB step of the accepted rows; a rejected (or NaN) row has no step
        s, y = Ft - F, Pt - P
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
                             restart_iterations=iterations.tolist())


# ---------------------------------------------------------------------------
# Isotropic curvature over 4-frames
# ---------------------------------------------------------------------------

# The six wedges w_k = f_a ^ f_b of a frame, in the order 13, 14, 23, 24, 12,
# 34; the value is sum_k c_k w_k . M w_pi(k) / 2.  As w . m = f_a^T A f_b for
# A = R(., ., m), the gradient is sum_k A_k F _ISO_GRAD[k], A_k = R(., ., w_k).
_ISO_A, _ISO_B = np.array([0, 0, 1, 1, 0, 2]), np.array([2, 3, 2, 3, 1, 3])
_ISO_PI, _ISO_C = [0, 1, 2, 3, 5, 4], np.array([2.0, 2.0, 2.0, 2.0, -2.0, -2.0])
_ISO_GRAD = np.zeros((6, 4, 4))
_ISO_GRAD[_ISO_PI, _ISO_B, _ISO_A], _ISO_GRAD[_ISO_PI, _ISO_A, _ISO_B] = _ISO_C, -_ISO_C


@lru_cache(maxsize=None)
def _iso_gather(n: int) -> np.ndarray:
    """(4, 6, N) flat indices into an (n, 4) frame: with g = F.ravel()[idx],
    g[0] g[1] - g[2] g[3] are the six wedges f_a[i] f_b[j] - f_a[j] f_b[i]."""
    iu, ju = pair_indices(n)
    a, b = _ISO_A[:, None], _ISO_B[:, None]
    return _frozen(np.stack([4 * iu + a, 4 * ju + b, 4 * ju + a, 4 * iu + b]))


def _iso_wedges(F: np.ndarray) -> np.ndarray:
    """The six wedges of each frame in a stack (..., n, 4), as (..., 6, N)."""
    g = F.reshape(F.shape[:-2] + (-1,))[..., _iso_gather(F.shape[-2])]
    return g[..., 0, :, :] * g[..., 1, :, :] - g[..., 2, :, :] * g[..., 3, :, :]


def _iso_from_wedges(W: np.ndarray, MW: np.ndarray) -> np.ndarray:
    return np.einsum("...kp,...kp,k->...", W, MW[..., _ISO_PI, :], _ISO_C / 2.0)


def _iso_value_grad(mat: np.ndarray, n: int):
    """Closure: isotropic values and Euclidean gradients on frames (..., n, 4)."""
    N = len(mat)
    K = np.hstack([mat, _unpack_two_form(mat, n).reshape(N, n * n)])  # w K = (M w, R(.,.,w))

    def value_grad(F):
        W = _iso_wedges(F)
        out = W @ K
        A = out[..., N:].reshape(W.shape[:-1] + (n, n))
        G = (A @ (F[..., None, :, :] @ _ISO_GRAD)).sum(axis=-3)
        return _iso_from_wedges(W, out[..., :N]), G

    return value_grad


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


def batch_isotropic(R: CurvatureTensor, frames: np.ndarray) -> np.ndarray:
    """Vectorized isotropic curvature of a (B, n, 4) stack of frames, taken in
    chunks that bound the memory of the wedge gather."""
    vals = []
    for i in range(0, len(frames), 128):
        W = _iso_wedges(frames[i:i + 128])
        vals.append(_iso_from_wedges(W, W @ R.mat))
    return np.concatenate(vals)


def sample_frames_min(R: CurvatureTensor, num_samples: int = 100_000,
                      seed: int = 0, batch: int = 20_000):
    """Brute-force oracle: min isotropic curvature over random orthonormal frames.

    Returns (value, frame matrix).  Independent of the gradient path; used to
    cross-check optimizer output signs and values.
    """
    rng = np.random.default_rng(seed)
    best = np.inf
    best_frame = None
    remaining = num_samples
    while remaining > 0:
        b = min(batch, remaining)
        remaining -= b
        # the sign-fixed QR is uniform on the frame manifold (covers both
        # orientation classes)
        q = _retract(rng.standard_normal((b, R.n, 4)))
        vals = batch_isotropic(R, q)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            best_frame = q[i]
    return best, best_frame


def min_isotropic(R: CurvatureTensor, cfg: OptimizerConfig | None = None,
                  init_frames=None, on_iterate=None) -> FrameSearchResult:
    """Multistart minimization of the isotropic curvature over orthonormal 4-frames.

    Restart r draws its starting frame from seed ``cfg.seed + r``; frames in
    ``init_frames`` are run first (warm starts), all in one stack.  A fixed
    probe set of axis-aligned frames guards the reported value: if a probe
    beats the best restart, descent is re-run from that probe.
    ``on_iterate(F, val, gnorm)`` sees every iteration of every restart.
    """
    cfg = cfg or OptimizerConfig()
    n = R.n
    value_grad = _iso_value_grad(R.mat, n)

    warm = [(F.matrix if isinstance(F, FourFrame) else np.asarray(F, dtype=float))[None]
            for F in (init_frames or [])]
    starts = np.concatenate(warm + [_random_starts(cfg, n, 4)])
    values, frames, iterations, reasons = _descend(value_grad, starts, cfg, on_iterate)

    probe_vals = _coordinate_probe_values(R.mat, n)
    i = int(np.argmin(probe_vals))
    if probe_vals[i] < values.min() - 1e-12:
        v, f, it, rs = _descend(value_grad, _coordinate_probe_frames(n)[i:i + 1], cfg, on_iterate)
        values, frames = np.concatenate([values, v]), np.concatenate([frames, f])
        iterations, reasons = np.concatenate([iterations, it]), np.concatenate([reasons, rs])

    k = int(np.argmin(values))
    return _search_result(values, frames, iterations, reasons, k, FourFrame(frames[k]))


def pinching_constant(R: CurvatureTensor, cfg: OptimizerConfig | None = None) -> float:
    """Largest kappa with R - kappa * sphere still of nonnegative isotropic
    curvature; every frame sees the sphere shift as exactly 4 kappa."""
    return min_isotropic(R, cfg).value / 4.0


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


def _hol_value_grad(R: CurvatureTensor, Jm: np.ndarray):
    """Closure: -R(x,Jx,x,Jx) and its Euclidean gradient on columns (B, n, 1)."""
    mat, n = R.mat, R.n
    S = _structure_forms(Jm)

    def value_grad(X):
        T = (X[..., 0] @ S).reshape(len(X), len(mat), n)
        w = (T @ X)[..., 0]                         # x ^ Jx
        mw = w @ mat
        return -np.einsum("bp,bp->b", w, mw), -4.0 * np.swapaxes(mw[:, None, :] @ T, 1, 2)

    return value_grad


def max_holomorphic_sectional(R: CurvatureTensor, J: ComplexStructure,
                              cfg: OptimizerConfig | None = None) -> FrameSearchResult:
    """Multistart maximization of R(X, JX, X, JX) over unit X."""
    cfg = cfg or OptimizerConfig()
    if J.n != R.n:
        raise CurvatureError("complex structure dimension does not match tensor")
    negvals, X, iterations, reasons = _descend(_hol_value_grad(R, J.matrix),
                                               _random_starts(cfg, R.n, 1), cfg)
    k = int(np.argmin(negvals))
    return _search_result(-negvals, X[..., 0], iterations, reasons, k, X[k, :, 0])


def _bisectional_form(R: CurvatureTensor, A: np.ndarray, x: np.ndarray):
    """(Omega, B) with Omega = R(x, Ax, ., .) and B = (Omega A + A Omega) / 2,
    the symmetric matrix with y^T B y = R(x, Ax, y, Ay)."""
    Omega = curvature_map(R, x, A @ x)
    return Omega, 0.5 * (Omega @ A + A @ Omega)


def _complement_basis(vectors: list[np.ndarray], n: int) -> np.ndarray:
    """Orthonormal basis (columns) of the orthogonal complement of the span."""
    V = np.array(vectors)
    _, s, vh = np.linalg.svd(V, full_matrices=True)
    rank = int(np.sum(s > 1e-12))
    return vh[rank:].T


@dataclass(frozen=True)
class FirstOrderReport:
    """Stationarity data of X for the holomorphic sectional functional."""

    value: float          # R(X,JX,X,JX)
    deriv_y: float        # max |R(X,JX,X,Y)| over unit Y orthogonal to X, JX
    deriv_jy: float       # max |R(X,JX,X,JY)| over the same Y
    min_slack: float      # min over Y of R(X,JX,X,JX) - 2 R(X,JX,Y,JY)
    passed: bool
    tol: float


def maximizer_first_order_check(R: CurvatureTensor, J: ComplexStructure,
                                x: np.ndarray, tol: float = 1e-5) -> FirstOrderReport:
    """Check the first-order maximality conditions of R(X,JX,X,JX) at X.

    At a maximizer, R(X,JX,X,Y) = R(X,JX,X,JY) = 0 and
    2 R(X,JX,Y,JY) <= R(X,JX,X,JX) for every unit Y orthogonal to X and JX.
    The extrema over Y are computed exactly (norm of a projected functional,
    top eigenvalue of the restricted bisectional form).
    """
    x = np.asarray(x, dtype=float)
    Jm = J.matrix
    jx = Jm @ x
    W = _complement_basis([x, jx], R.n)
    Omega, B = _bisectional_form(R, Jm, x)   # Omega[k,l] = R(x, jx, e_k, e_l)
    h = float(x @ Omega @ jx)                # R(x,jx,x,jx)
    u = Omega.T @ x                          # u_i = R(x, jx, x, e_i)
    deriv_y = float(np.linalg.norm(W.T @ u))
    deriv_jy = float(np.linalg.norm(W.T @ (Jm @ u)))
    lam_max = float(np.max(np.linalg.eigvalsh(W.T @ B @ W)))
    min_slack = h - 2.0 * lam_max
    passed = deriv_y <= tol and deriv_jy <= tol and min_slack >= -tol
    return FirstOrderReport(value=h, deriv_y=deriv_y, deriv_jy=deriv_jy,
                            min_slack=min_slack, passed=passed, tol=tol)


# ---------------------------------------------------------------------------
# Orthogonal bisectional minimization over constrained pairs
# ---------------------------------------------------------------------------

def min_orthogonal_bisectional(R: CurvatureTensor, J: ComplexStructure,
                               cfg: OptimizerConfig | None = None) -> FrameSearchResult:
    """Minimize R(X, JX, Y, JY) over unit X, Y with Y orthogonal to X and JX.

    The pairs (X, Y) of all restarts descend as one (B, n, 2) stack in the
    shared engine, with their own retraction (normalize X, project Y off
    span{X, JX} and normalize) and tangent projection, so the reported pair
    is feasible to machine precision.  Each restart ends with an exact
    minimization over Y at its final X.  The returned frame is (X, JX, Y, JY).
    """
    cfg = cfg or OptimizerConfig()
    n, mat, Jm = R.n, R.mat, J.matrix
    S = _structure_forms(Jm)

    def value_grad(F):                       # columns x, y of each (n, 2) row
        V = np.swapaxes(F, 1, 2)
        T = (V @ S).reshape(len(F), 2, len(mat), n)
        W = (T @ V[..., None])[..., 0]       # x ^ Jx, y ^ Jy
        MW = W @ mat
        # d/dx of (x ^ Jx) . M (y ^ Jy) is 2 T_x^T M (y ^ Jy), and likewise in y
        G = 2.0 * (MW[:, ::-1, None, :] @ T)[:, :, 0]
        return np.einsum("bp,bp->b", W[:, 0], MW[:, 1]), np.swapaxes(G, 1, 2)

    def retract(F):
        x = F[..., 0] / np.linalg.norm(F[..., 0], axis=-1, keepdims=True)
        jx = x @ Jm.T
        y = F[..., 1]
        y = y - (y * x).sum(-1, keepdims=True) * x - (y * jx).sum(-1, keepdims=True) * jx
        nrm = np.linalg.norm(y, axis=-1, keepdims=True)
        return np.stack([x, y / np.where(nrm > 1e-12, nrm, np.nan)], axis=-1)

    def tangent(F, G):
        # project g = (gx, gy) off the normals of |x|^2, |y|^2, <x, y>, <Jx, y>
        x, y = F[..., 0], F[..., 1]
        z = np.zeros_like(x)
        C = np.stack([np.concatenate(c, axis=-1) for c in
                      ((2 * x, z), (z, 2 * y), (y, x), (-(y @ Jm.T), x @ Jm.T))], axis=-1)
        q = np.linalg.qr(C)[0]
        g = np.swapaxes(G, -1, -2).reshape(len(G), 2 * n, 1)
        P = g - q @ (np.swapaxes(q, -1, -2) @ g)
        return np.swapaxes(P.reshape(len(G), 2, n), -1, -2)

    def polish_y(x):
        """Exact minimization over Y for fixed X (restricted eigenproblem)."""
        B = _bisectional_form(R, Jm, x)[1]
        W = _complement_basis([x, Jm @ x], n)
        vals, vecs = np.linalg.eigh(W.T @ B @ W)
        return W @ vecs[:, 0]

    starts = np.swapaxes(_random_starts(cfg, 2, n), 1, 2)     # x, then y, per seed
    values, frames, iterations, reasons = _descend(value_grad, starts, cfg,
                                                   retract=retract, tangent=tangent)
    feasible = np.isfinite(values)          # a start with Y in span{X, JX} is dropped
    values, frames, iterations, reasons = (
        a[feasible] for a in (values, frames, iterations, reasons))
    polished = frames.copy()
    polished[:, :, 1] = [polish_y(x) for x in frames[:, :, 0]]
    vpol = value_grad(polished)[0]
    frames = np.where((vpol < values)[:, None, None], polished, frames)
    values = np.minimum(vpol, values)

    k = int(np.argmin(values))
    x, y = frames[k].T
    return _search_result(values, frames, iterations, reasons, k,
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


def boundary_q_check(R: CurvatureTensor, frame: FourFrame, min_iso: float,
                     tol: float = 1e-6) -> BoundaryQReport:
    """On a zero frame of a tensor with nonnegative isotropic curvature, the
    reaction term's isotropic value must be nonnegative as well.

    ``min_iso`` is the caller's certificate for min isotropic curvature of R;
    a frame away from the boundary makes the check inapplicable, not failed.
    """
    iso = isotropic_from_columns(R.mat, frame.matrix)
    applicable = abs(iso) <= tol and min_iso >= -tol
    q_val = isotropic_from_columns(qform(R).mat, frame.matrix)
    passed = (q_val >= -tol) if applicable else None
    return BoundaryQReport(iso_value=iso, q_value=q_val, applicable=applicable,
                           passed=passed, tol=tol)


def _design_26() -> np.ndarray:
    """Octahedron vertices, edge midpoints and cube vertices on the 2-sphere."""
    pts = []
    for s in (1.0, -1.0):
        for a in range(3):
            p = np.zeros(3)
            p[a] = s
            pts.append(p)
    for a in range(3):
        for sa in (1.0, -1.0):
            for sb in (1.0, -1.0):
                p = np.zeros(3)
                p[a] = sa
                p[(a + 1) % 3] = sb
                pts.append(p / np.sqrt(2.0))
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for sz in (1.0, -1.0):
                pts.append(np.array([sx, sy, sz]) / np.sqrt(3.0))
    return np.array(pts)


@dataclass(frozen=True)
class QKBoundReport:
    """Sharp reaction bound at the joint maximizer over structures and vectors."""

    j_coeffs: tuple[float, float, float]
    max_value: float        # R1(X,JX,X,JX) at the maximizer
    q_value: float          # Q(R1)(X,JX,X,JX)
    bound: float            # (2m+4) * max_value^2
    slack: float            # bound - q_value
    y2_max_excess: float    # max over the paired basis of 4 R1(X,JX,w,Jw)^2 - max_value^2
    first_order: FirstOrderReport
    hk_residual: float
    passed: bool
    tol: float


def qk_q_bound_check(R1: CurvatureTensor, T: QuaternionTriple,
                     cfg: OptimizerConfig | None = None,
                     tol: float = 1e-6) -> QKBoundReport:
    """Verify Q(R1)(X,JX,X,JX) <= (2m+4) R1(X,JX,X,JX)^2 at the maximizer.

    (J, X) maximizes R1(X,JX,X,JX) jointly over unit X and unit combinations
    J = aI + bJ + cK: a 26-point design on the coefficient sphere seeds an
    alternation of gradient ascent in X with an exact eigenvector solve in
    (a, b, c) (the value is a quadratic form in the coefficients for fixed X).
    """
    cfg = cfg or OptimizerConfig()
    n = T.n
    if R1.n != n:
        raise CurvatureError("tensor and triple dimensions differ")
    m = n // 4

    hk_residual = invariance_defect(R1, T.matrices)
    if not hk_residual <= 1e-8 * max(1.0, float(np.max(np.abs(R1.mat)))):
        raise CurvatureError(f"input fails the hyperkahler residual check: {hk_residual:.3e}")

    mats = np.array(T.matrices)
    rng = np.random.default_rng(cfg.seed)
    Xs = rng.standard_normal((256, n))
    Xs /= np.linalg.norm(Xs, axis=1, keepdims=True)

    # coarse scan over the design
    best = (-np.inf, None, None)
    for coeffs in _design_26():
        A = np.tensordot(coeffs, mats, 1)
        vals = batch_holomorphic(R1, A, Xs)
        i = int(np.argmax(vals))
        if vals[i] > best[0]:
            best = (float(vals[i]), coeffs.copy(), Xs[i].copy())

    val, coeffs, x = best

    # alternation: ascent in X, exact eigen-solve in the coefficients
    for _ in range(60):
        A = np.tensordot(coeffs, mats, 1)
        negvals, X, _, _ = _descend(_hol_value_grad(R1, A), x[None, :, None], cfg)
        negval, x = float(negvals[0]), X[0, :, 0]
        ws = np.array([wedge(x, M @ x) for M in mats])
        G = ws @ R1.mat @ ws.T
        evals, evecs = np.linalg.eigh(G)
        new_coeffs = evecs[:, -1]
        new_val = float(evals[-1])
        if new_val <= -negval + 1e-12 * (1.0 + abs(new_val)):
            val = max(-negval, new_val)
            coeffs = new_coeffs if new_val >= -negval else coeffs
            break
        coeffs, val = new_coeffs, new_val

    A = np.tensordot(coeffs, mats, 1)
    J = ComplexStructure(A)
    jx = A @ x
    q_val = evaluate(qform(R1), x, jx, x, jx)
    bound = (2 * m + 4) * val * val
    first = maximizer_first_order_check(R1, J, x, tol=max(tol, 1e-5))

    # paired diagnostic basis of the quaternionic complement of X
    u = _complement_basis([coeffs], 3)[:, 0]
    Iprime = np.tensordot(u, mats, 1)
    Kprime = np.tensordot(np.cross(u, coeffs), mats, 1)
    span = [x, jx, Iprime @ x, Kprime @ x]
    W = _complement_basis(span, n)
    B = _bisectional_form(R1, A, x)[1]
    y2_max_excess = -val * val
    while W.shape[1] > 0:
        sub = W.T @ B @ W
        vals_, vecs_ = np.linalg.eigh(0.5 * (sub + sub.T))
        w = W @ vecs_[:, 0]
        w /= np.linalg.norm(w)
        jw = A @ w
        c_alpha = evaluate(R1, x, jx, w, jw)
        y2_max_excess = max(y2_max_excess, 4.0 * c_alpha * c_alpha - val * val)
        U = np.column_stack([w, jw])
        proj = W - U @ (U.T @ W)
        uu, ss, _ = np.linalg.svd(proj, full_matrices=False)
        W = uu[:, ss > 1e-8]

    passed = q_val <= bound + tol
    return QKBoundReport(j_coeffs=tuple(float(c) for c in coeffs),
                         max_value=val, q_value=q_val, bound=bound,
                         slack=bound - q_val, y2_max_excess=y2_max_excess,
                         first_order=first, hk_residual=hk_residual,
                         passed=passed, tol=tol)


def batch_holomorphic(R: CurvatureTensor, A: np.ndarray, Xs: np.ndarray) -> np.ndarray:
    """Vectorized R(x, Ax, x, Ax) over the rows of Xs."""
    return -_hol_value_grad(R, A)(Xs[..., None])[0]
