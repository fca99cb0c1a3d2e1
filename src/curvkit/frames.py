"""Searches over orthonormal frames and unit vectors for curvature functionals.

The workhorse is projected gradient descent on the Stiefel manifold of
orthonormal k-column matrices (k = 4 for isotropic frames, k = 1 for unit
vectors): Euclidean gradient, tangent projection G - F sym(F^T G), QR
retraction with positive-diagonal sign fix, Armijo backtracking, multistart.
Results report values; frames are certificates, never compared directly.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import (ComplexStructure, CurvatureError, CurvatureTensor, FourFrame,
                   QuaternionTriple, curvature_map, evaluate, invariance_defect,
                   isotropic_from_columns, pair_indices, qform, wedge)


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
    converged: bool
    iterations: int
    restart_values: list = field(default_factory=list)
    restart_frames: list = field(default_factory=list, repr=False)


# ---------------------------------------------------------------------------
# Stiefel descent core
# ---------------------------------------------------------------------------

def _retract(F: np.ndarray) -> np.ndarray:
    """QR retraction onto orthonormal columns, sign-fixed for continuity."""
    q, r = np.linalg.qr(F)
    s = np.sign(np.diag(r))
    s[s == 0] = 1.0
    return q * s


def _descend(value_grad, F0: np.ndarray, cfg: OptimizerConfig, on_iterate=None):
    """Minimize value_grad(F)[0] over orthonormal columns starting at F0.

    Returns (value, F, converged, iterations); accepted steps are monotone.
    """
    F = _retract(np.asarray(F0, dtype=float))
    val, G = value_grad(F)
    alpha = cfg.step
    converged = False
    iters = 0
    for it in range(cfg.max_iters):
        iters = it + 1
        sym = 0.5 * (F.T @ G + G.T @ F)
        Griem = G - F @ sym
        gnorm = float(np.linalg.norm(Griem))
        if on_iterate is not None:
            on_iterate(F, val, gnorm)
        if gnorm <= cfg.grad_tol:
            converged = True
            break
        a = alpha
        accepted = False
        for _ in range(60):
            Fnew = _retract(F - a * Griem)
            vnew, Gnew = value_grad(Fnew)
            if vnew <= val - 1e-4 * a * gnorm * gnorm:
                accepted = True
                break
            a *= 0.5
        if not accepted:
            break                      # at the numerical floor of the line search
        F, val, G = Fnew, vnew, Gnew
        alpha = min(a * 2.0, 1e3 * cfg.step)
    return val, F, converged, iters


def _random_columns(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    return _retract(rng.standard_normal((n, k)))


# ---------------------------------------------------------------------------
# Isotropic curvature over 4-frames
# ---------------------------------------------------------------------------

def _iso_value_grad(mat: np.ndarray, n: int):
    """Closure returning (value, Euclidean gradient) of the isotropic functional."""
    iu, ju = pair_indices(n)

    def unpack(v):
        A = np.zeros((n, n))
        A[iu, ju] = v
        A -= A.T
        return A

    def wdg(x, y):
        return x[iu] * y[ju] - x[ju] * y[iu]

    def value_grad(F):
        f1, f2, f3, f4 = F.T
        w13, w14 = wdg(f1, f3), wdg(f1, f4)
        w23, w24 = wdg(f2, f3), wdg(f2, f4)
        w12, w34 = wdg(f1, f2), wdg(f3, f4)
        m13, m14, m23, m24 = mat @ w13, mat @ w14, mat @ w23, mat @ w24
        m12, m34 = mat @ w12, mat @ w34
        val = float(w13 @ m13 + w14 @ m14 + w23 @ m23 + w24 @ m24 - 2.0 * (w12 @ m34))
        A13, A14 = unpack(m13), unpack(m14)
        A23, A24 = unpack(m23), unpack(m24)
        A12, A34 = unpack(m12), unpack(m34)
        g1 = 2.0 * (A13 @ f3 + A14 @ f4 - A34 @ f2)
        g2 = 2.0 * (A23 @ f3 + A24 @ f4 + A34 @ f1)
        g3 = -2.0 * (A13 @ f1 + A23 @ f2 + A12 @ f4)
        g4 = -2.0 * (A14 @ f1 + A24 @ f2 - A12 @ f3)
        return val, np.column_stack([g1, g2, g3, g4])

    return value_grad


def _coordinate_probe_frames(n: int) -> np.ndarray:
    """All axis-aligned 4-frames (e_i, e_j, e_k, e_l), i<j<k<l, plus their
    orientation-reversed copies: the cross term is odd under a single column
    sign flip, so the two classes see different values."""
    from itertools import combinations
    quads = list(combinations(range(n), 4))
    F = np.zeros((2 * len(quads), n, 4))
    for b, q in enumerate(quads):
        for a, idx in enumerate(q):
            F[b, idx, a] = 1.0
        F[b + len(quads)] = F[b]
        F[b + len(quads), :, 3] *= -1.0
    return F


def batch_isotropic(R: CurvatureTensor, frames: np.ndarray) -> np.ndarray:
    """Vectorized isotropic curvature of a (B, n, 4) stack of frames."""
    iu, ju = pair_indices(R.n)
    mat = R.mat
    f = [frames[:, :, a] for a in range(4)]

    def wdg(x, y):
        return x[:, iu] * y[:, ju] - x[:, ju] * y[:, iu]

    def quad(w, v):
        return np.einsum("bp,bp->b", w @ mat, v)

    w13, w14 = wdg(f[0], f[2]), wdg(f[0], f[3])
    w23, w24 = wdg(f[1], f[2]), wdg(f[1], f[3])
    w12, w34 = wdg(f[0], f[1]), wdg(f[2], f[3])
    return (quad(w13, w13) + quad(w14, w14) + quad(w23, w23) + quad(w24, w24)
            - 2.0 * quad(w12, w34))


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
        raw = rng.standard_normal((b, R.n, 4))
        q, r = np.linalg.qr(raw)
        s = np.sign(np.einsum("bii->bi", r))   # uniform on the frame manifold
        s[s == 0] = 1.0                        # (covers both orientation classes)
        q = q * s[:, None, :]
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
    ``init_frames`` are run first (warm starts).  A fixed probe set of
    axis-aligned frames guards the reported value: if a probe beats the best
    restart, descent is re-run from that probe.
    """
    cfg = cfg or OptimizerConfig()
    n = R.n
    value_grad = _iso_value_grad(R.mat, n)

    starts = [F.matrix if isinstance(F, FourFrame) else np.asarray(F, dtype=float)
              for F in (init_frames or [])]
    starts += [_random_columns(np.random.default_rng(cfg.seed + r), n, 4)
               for r in range(cfg.restarts)]

    runs = []
    for F0 in starts:
        runs.append(_descend(value_grad, F0, cfg, on_iterate=on_iterate))

    probes = _coordinate_probe_frames(n)
    probe_vals = batch_isotropic(R, probes)
    best_run = min(r[0] for r in runs)
    i = int(np.argmin(probe_vals))
    if probe_vals[i] < best_run - 1e-12:
        runs.append(_descend(value_grad, probes[i], cfg, on_iterate=on_iterate))

    values = [r[0] for r in runs]
    k = int(np.argmin(values))
    val, F, converged, iters = runs[k]
    return FrameSearchResult(value=val, frame_or_vector=FourFrame(F),
                             converged=converged, iterations=iters,
                             restart_values=values,
                             restart_frames=[r[1] for r in runs])


def pinching_constant(R: CurvatureTensor, cfg: OptimizerConfig | None = None) -> float:
    """Largest kappa with R - kappa * sphere still of nonnegative isotropic
    curvature; every frame sees the sphere shift as exactly 4 kappa."""
    return min_isotropic(R, cfg).value / 4.0


# ---------------------------------------------------------------------------
# Holomorphic sectional maximization over unit vectors
# ---------------------------------------------------------------------------

def _hol_value_grad(R: CurvatureTensor, Jm: np.ndarray):
    mat = R.mat
    n = R.n
    iu, ju = pair_indices(n)

    def unpack(v):
        A = np.zeros((n, n))
        A[iu, ju] = v
        A -= A.T
        return A

    def value_grad(X):  # X has one column; minimize -R(x,Jx,x,Jx)
        x = X[:, 0]
        jx = Jm @ x
        w = x[iu] * jx[ju] - x[ju] * jx[iu]
        mw = mat @ w
        val = float(w @ mw)
        A = unpack(mw)
        grad = 2.0 * (A @ jx) + 2.0 * (Jm @ (A @ x))
        return -val, -grad[:, None]

    return value_grad


def max_holomorphic_sectional(R: CurvatureTensor, J: ComplexStructure,
                              cfg: OptimizerConfig | None = None) -> FrameSearchResult:
    """Multistart maximization of R(X, JX, X, JX) over unit X."""
    cfg = cfg or OptimizerConfig()
    if J.n != R.n:
        raise CurvatureError("complex structure dimension does not match tensor")
    value_grad = _hol_value_grad(R, J.matrix)
    runs = [_descend(value_grad,
                     _random_columns(np.random.default_rng(cfg.seed + r), R.n, 1),
                     cfg)
            for r in range(cfg.restarts)]
    values = [-r[0] for r in runs]
    k = int(np.argmax(values))
    negval, X, converged, iters = runs[k]
    return FrameSearchResult(value=values[k], frame_or_vector=X[:, 0],
                             converged=converged, iterations=iters,
                             restart_values=values,
                             restart_frames=[r[1][:, 0] for r in runs])


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
    Omega = curvature_map(R, x, jx)          # Omega[k,l] = R(x, jx, e_k, e_l)
    h = float(x @ Omega @ jx)                # R(x,jx,x,jx)
    u = Omega.T @ x                          # u_i = R(x, jx, x, e_i)
    deriv_y = float(np.linalg.norm(W.T @ u))
    deriv_jy = float(np.linalg.norm(W.T @ (Jm @ u)))
    B = 0.5 * (Omega @ Jm + Jm @ Omega)
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

    Y is kept inside the orthogonal complement of span{X, JX} by explicit
    projection after every step, so the reported pair is feasible to machine
    precision.  The returned frame is (X, JX, Y, JY).
    """
    cfg = cfg or OptimizerConfig()
    n = R.n
    Jm = J.matrix
    mat = R.mat

    def objective(x, y):
        return float(wedge(x, Jm @ x) @ mat @ wedge(y, Jm @ y))

    def grads(x, y):
        Ax = curvature_map(R, x, Jm @ x)
        Ay = curvature_map(R, y, Jm @ y)
        gx = Ay @ (Jm @ x) + Jm @ (Ay @ x)
        gy = Ax @ (Jm @ y) + Jm @ (Ax @ y)
        return gx, gy

    def feasible_y(y, x):
        jx = Jm @ x
        y = y - (y @ x) * x - (y @ jx) * jx
        nrm = np.linalg.norm(y)
        return y / nrm if nrm > 1e-12 else None

    def tangent_project(gx, gy, x, y):
        jx, jy = Jm @ x, Jm @ y
        rows = np.vstack([np.concatenate([2 * x, np.zeros(n)]),
                          np.concatenate([np.zeros(n), 2 * y]),
                          np.concatenate([y, x]),
                          np.concatenate([-jy, jx])])
        q, _ = np.linalg.qr(rows.T)
        g = np.concatenate([gx, gy])
        return g - q @ (q.T @ g)

    def polish_y(x):
        """Exact minimization over Y for fixed X (restricted eigenproblem)."""
        jx = Jm @ x
        Omega = curvature_map(R, x, jx)
        B = 0.5 * (Omega @ Jm + Jm @ Omega)
        W = _complement_basis([x, jx], n)
        vals, vecs = np.linalg.eigh(W.T @ B @ W)
        return W @ vecs[:, 0]

    runs = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + r)
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        y = feasible_y(rng.standard_normal(n), x)
        if y is None:
            continue
        val = objective(x, y)
        alpha = cfg.step
        converged = False
        iters = 0
        for it in range(cfg.max_iters):
            iters = it + 1
            g = tangent_project(*grads(x, y), x, y)
            gnorm = float(np.linalg.norm(g))
            if gnorm <= cfg.grad_tol:
                converged = True
                break
            a, accepted = alpha, False
            for _ in range(60):
                xn = x - a * g[:n]
                xn /= np.linalg.norm(xn)
                yn = feasible_y(y - a * g[n:], xn)
                if yn is not None:
                    vn = objective(xn, yn)
                    if vn <= val - 1e-4 * a * gnorm * gnorm:
                        accepted = True
                        break
                a *= 0.5
            if not accepted:
                break
            x, y, val = xn, yn, vn
            alpha = min(a * 2.0, 1e3 * cfg.step)
        ypol = polish_y(x)
        if objective(x, ypol) < val:
            y, val = ypol, objective(x, ypol)
        runs.append((val, x, y, converged, iters))

    values = [r[0] for r in runs]
    k = int(np.argmin(values))
    val, x, y, converged, iters = runs[k]
    frame = FourFrame.from_vectors(x, Jm @ x, y, Jm @ y)
    return FrameSearchResult(value=val, frame_or_vector=frame,
                             converged=converged, iterations=iters,
                             restart_values=values,
                             restart_frames=[np.column_stack([r[1], r[2]]) for r in runs])


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

    mats = T.matrices
    rng = np.random.default_rng(cfg.seed)
    Xs = rng.standard_normal((256, n))
    Xs /= np.linalg.norm(Xs, axis=1, keepdims=True)

    # coarse scan over the design
    best = (-np.inf, None, None)
    for coeffs in _design_26():
        A = sum(c * M for c, M in zip(coeffs, mats))
        vals = batch_holomorphic(R1, A, Xs)
        i = int(np.argmax(vals))
        if vals[i] > best[0]:
            best = (float(vals[i]), coeffs.copy(), Xs[i].copy())

    val, coeffs, x = best
    A = sum(c * M for c, M in zip(coeffs, mats))

    # alternation: ascent in X, exact eigen-solve in the coefficients
    for _ in range(60):
        vg = _hol_value_grad(R1, A)
        sub = OptimizerConfig(restarts=1, max_iters=cfg.max_iters,
                              grad_tol=cfg.grad_tol, step=cfg.step, seed=cfg.seed)
        negval, X, _, _ = _descend(vg, x[:, None], sub)
        x = X[:, 0]
        ws = [wedge(x, M @ x) for M in mats]
        G = np.array([[float(ws[s] @ R1.mat @ ws[t]) for t in range(3)]
                      for s in range(3)])
        evals, evecs = np.linalg.eigh(G)
        new_coeffs = evecs[:, -1]
        new_val = float(evals[-1])
        if new_val <= -negval + 1e-12 * (1.0 + abs(new_val)):
            val = max(-negval, new_val)
            coeffs = new_coeffs if new_val >= -negval else coeffs
            A = sum(c * M for c, M in zip(coeffs, mats))
            break
        coeffs, val = new_coeffs, new_val
        A = sum(c * M for c, M in zip(coeffs, mats))

    J = ComplexStructure(A)
    jx = A @ x
    q_val = evaluate(qform(R1), x, jx, x, jx)
    bound = (2 * m + 4) * val * val
    first = maximizer_first_order_check(R1, J, x, tol=max(tol, 1e-5))

    # paired diagnostic basis of the quaternionic complement of X
    u = _complement_basis([coeffs], 3)[:, 0]
    Iprime = sum(c * M for c, M in zip(u, mats))
    Kprime = sum(c * M for c, M in zip(np.cross(u, coeffs), mats))
    span = [x, jx, Iprime @ x, Kprime @ x]
    W = _complement_basis(span, n)
    Omega = curvature_map(R1, x, jx)
    B = 0.5 * (Omega @ A + A @ Omega)
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
    iu, ju = pair_indices(R.n)
    AX = Xs @ A.T
    w = Xs[:, iu] * AX[:, ju] - Xs[:, ju] * AX[:, iu]
    return np.einsum("bp,bp->b", w @ R.mat, w)
