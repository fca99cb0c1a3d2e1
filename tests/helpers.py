"""Independent oracles for the test suite.

Everything here recomputes quantities from first principles (component loops,
full n^4 tables and coordinate systems) without going through the package's
vectorized paths on the 2-form basis, so agreement is meaningful.
"""

import math
from itertools import combinations

import numpy as np

from curvkit import flow, frames
from curvkit.core import (CurvatureTensor, _bianchi_gather, num_pairs, project_bianchi,
                          project_to_curvature, qform, two_form_action)


def evaluate_table(R: CurvatureTensor, x, y, z, w) -> float:
    """Direct contraction of the rank-4 table against four vectors."""
    return float(np.einsum("ijkl,i,j,k,l->", R.rank4, x, y, z, w))


def iso_table(R: CurvatureTensor, F) -> float:
    """Isotropic curvature from individual table contractions."""
    e1, e2, e3, e4 = np.asarray(F).T
    return (evaluate_table(R, e1, e3, e1, e3) + evaluate_table(R, e1, e4, e1, e4)
            + evaluate_table(R, e2, e3, e2, e3) + evaluate_table(R, e2, e4, e2, e4)
            - 2.0 * evaluate_table(R, e1, e2, e3, e4))


def bform_loops(R4: np.ndarray, S4: np.ndarray) -> np.ndarray:
    """Loop implementation of the reaction bilinear form, straight from the
    component definition.  Intended for n <= 5."""
    n = R4.shape[0]
    B = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    acc = 0.0
                    for p in range(n):
                        for q in range(n):
                            acc += 0.5 * (R4[i, j, p, q] * S4[k, l, p, q]
                                          + S4[i, j, p, q] * R4[k, l, p, q])
                            acc += (R4[i, p, k, q] * S4[j, p, l, q]
                                    + S4[i, p, k, q] * R4[j, p, l, q])
                            acc -= (R4[i, p, l, q] * S4[j, p, k, q]
                                    + S4[i, p, l, q] * R4[j, p, k, q])
                    B[i, j, k, l] = acc
    return B


def bform_einsum(R4: np.ndarray, S4: np.ndarray) -> np.ndarray:
    """Rank-4 table of the reaction bilinear form B(R, S) from five n^4
    einsum contractions of the full tables."""
    a = np.einsum("ijpq,klpq->ijkl", R4, S4, optimize=True)
    first = 0.5 * (a + a.transpose(2, 3, 0, 1))
    plus = (np.einsum("ipkq,jplq->ijkl", R4, S4, optimize=True)
            + np.einsum("ipkq,jplq->ijkl", S4, R4, optimize=True))
    minus = (np.einsum("iplq,jpkq->ijkl", R4, S4, optimize=True)
             + np.einsum("iplq,jpkq->ijkl", S4, R4, optimize=True))
    return first + plus - minus


def cyclic_defect(T: np.ndarray) -> float:
    """Max |T_ijkl + T_jkil + T_kijl| over all index quadruples."""
    return float(np.max(np.abs(T + T.transpose(1, 2, 0, 3) + T.transpose(2, 0, 1, 3))))


def project_rank4(table: np.ndarray) -> np.ndarray:
    """Projection onto curvature tensors done on the full table: antisymmetrize
    both pairs, symmetrize pair exchange, subtract the cyclic average."""
    T = np.asarray(table, dtype=float)
    A = 0.25 * (T - T.transpose(1, 0, 2, 3) - T.transpose(0, 1, 3, 2)
                + T.transpose(1, 0, 3, 2))
    A = 0.5 * (A + A.transpose(2, 3, 0, 1))
    return A - (A + A.transpose(1, 2, 0, 3) + A.transpose(2, 0, 1, 3)) / 3.0


def invariance_einsum(T4: np.ndarray, structures) -> float:
    """max |R(., ., A., A.) - R| over the structures, on the full table."""
    return max(float(np.max(np.abs(np.einsum("ijab,ak,bl->ijkl", T4, A, A,
                                             optimize=True) - T4)))
               for A in structures)


def expand_rank4(mat: np.ndarray, n: int) -> np.ndarray:
    """Rank-4 table W M W^T of coefficients M, where the columns of the
    n^2 x N matrix W are the flattened e_i e_j^T - e_j e_i^T, i < j."""
    iu, ju = np.triu_indices(n, 1)
    W = np.zeros((n * n, len(iu)))
    W[iu * n + ju, np.arange(len(iu))] = 1.0
    W[ju * n + iu, np.arange(len(iu))] = -1.0
    return (W @ mat @ W.T).reshape(n, n, n, n)


def ricci_einsum(T4: np.ndarray) -> np.ndarray:
    """Ric_jl = sum_i T_ijil on the full table."""
    return np.einsum("ijil->jl", T4)


def kulkarni_nomizu_outer(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """h_ik k_jl + h_jl k_ik - h_il k_jk - h_jk k_il from outer products."""
    o = np.multiply.outer
    return (o(h, k).transpose(0, 2, 1, 3) + o(k, h).transpose(0, 2, 1, 3)
            - o(h, k).transpose(0, 2, 3, 1) - o(k, h).transpose(0, 2, 3, 1))


def weyl_rank4(T4: np.ndarray) -> np.ndarray:
    """T - (ric0 @ g)/(n-2) - scal/(2n(n-1)) (g @ g) on the full table."""
    n = T4.shape[0]
    g = np.eye(n)
    ric = ricci_einsum(T4)
    scal = float(np.trace(ric))
    ric0 = ric - (scal / n) * g
    return (T4 - kulkarni_nomizu_outer(ric0, g) / (n - 2)
            - (scal / (2.0 * n * (n - 1))) * kulkarni_nomizu_outer(g, g))


def einstein_normalize_rank4(T4: np.ndarray, target: float | None = None) -> np.ndarray:
    """T + h @ g with Ric = target * id, solved on the full table."""
    n = T4.shape[0]
    target = float(n - 1) if target is None else float(target)
    g = np.eye(n)
    delta = target * g - ricci_einsum(T4)
    h = (delta - np.trace(delta) / (2.0 * (n - 1)) * g) / (n - 2.0)
    return T4 + kulkarni_nomizu_outer(h, g)


def kahler_form_rank4(Jm: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """2 g(JX,Y) g(JZ,W) + g(JX,Z) g(JY,W) - g(JX,W) g(JY,Z) as a full table."""
    P = Jm.T
    o = np.multiply.outer
    return (2.0 * o(P, P) + o(P, P).transpose(0, 2, 1, 3)
            - o(P, P).transpose(0, 2, 3, 1)) * float(scale)


def raw_tensor(n: int, mat) -> CurvatureTensor:
    """A CurvatureTensor holding ``mat`` as given, past the constructor's
    checks: for reaching the fail-closed checks of the operations themselves
    with input the constructor rejects."""
    R = object.__new__(CurvatureTensor)
    R.n, R.mat, R.label = n, np.asarray(mat, dtype=float), None
    return R


def rk4_step_public(R: CurvatureTensor, h: float) -> CurvatureTensor:
    """One classical RK4 step of dR/dt = Q(R), every stage and the combined
    step built through the public (re-symmetrizing) constructor, then
    re-projected onto the Bianchi kernel."""
    n, M = R.n, R.mat
    k1 = qform(R).mat
    k2 = qform(CurvatureTensor(n, M + (0.5 * h) * k1)).mat
    k3 = qform(CurvatureTensor(n, M + (0.5 * h) * k2)).mat
    k4 = qform(CurvatureTensor(n, M + h * k3)).mat
    step = CurvatureTensor(n, M + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return CurvatureTensor(n, project_bianchi(step.mat, n))


def dop853_step_public(R: CurvatureTensor, h: float):
    """One Dormand-Prince 8(5,3) step of dR/dt = Q(R) from the tableau of
    ``curvkit.flow``, every stage and the combined step built through the
    public (re-symmetrizing) constructor, each weighted sum of stages one
    ``np.tensordot`` of the stages stacked so far, then re-projected onto the
    Bianchi kernel.  Returns (state, Hairer's error estimate
    h |e5|^2 / (|e5|^2 + 0.01 |e3|^2)^(1/2) in the tensor norm)."""
    n, M = R.n, R.mat
    K = [qform(R).mat]
    for a in flow._A[1:]:
        K.append(qform(CurvatureTensor(n, M + h * np.tensordot(a, np.array(K), 1))).mat)
    K = np.array(K)
    e5 = float(np.linalg.norm(np.tensordot(flow._E5, K, 1)))
    e3 = float(np.linalg.norm(np.tensordot(flow._E3, K, 1)))
    den = np.hypot(e5, 0.1 * e3)
    err = 2.0 * h * e5 * (e5 / den) if den > 0 else 0.0
    step = CurvatureTensor(n, M + h * np.tensordot(flow._B, K, 1))
    return CurvatureTensor(n, project_bianchi(step.mat, n)), err


def q_flow_serial(R0: CurvatureTensor, t_end: float, dt_init: float = 1e-3,
                  rel_tol: float = 1e-8):
    """DOP853 integration of dR/dt = Q(R) with the step control of
    ``integrate_q_flow`` (factor 0.9 r^(-1/8), after an accepted step at most
    Gustafsson's 0.9 (h / h_prev) (r_prev / r^2)^(1/8) with r_prev at least
    1e-2, clipped to [0.2, 2]), one independent :func:`dop853_step_public`
    call per attempt and no monitoring; returns (R, accepted, rejected)."""
    R = CurvatureTensor(R0.n, project_bianchi(R0.mat, R0.n))
    t, h = 0.0, min(dt_init, t_end)
    accepted = rejected = 0
    last = None
    while t < t_end:
        h = min(h, t_end - t)
        new, err = dop853_step_public(R, h)
        r = err / (rel_tol * max(1.0, new.norm()))
        if r <= 1.0:
            R, t = new, t + h
            accepted += 1
            grow = 2.0
            if r > 0:
                grow = 0.9 * r ** -0.125
                if last is not None:
                    grow = min(grow, 0.9 * (h / last[0]) * (last[1] / r ** 2) ** 0.125)
            last = h, max(r, 1e-2)
            h *= min(2.0, max(0.2, grow))
        else:
            rejected += 1
            h *= max(0.2, 0.9 * r ** -0.125)
    return R, accepted, rejected


def step_doubling_flow(R0: CurvatureTensor, t_end: float, dt_init: float = 1e-3,
                       rel_tol: float = 1e-8) -> CurvatureTensor:
    """Adaptive RK4 with step doubling: one full step against two half steps
    of :func:`rk4_step_public`, err = |difference| / 15 tested against
    rel_tol * max(1, |R|), step factor 0.9 (scale / err)^(1/5) clipped to
    [0.2, 2]; the reference for the accuracy of the DOP853 integrator."""
    R = CurvatureTensor(R0.n, project_bianchi(R0.mat, R0.n))
    t, h = 0.0, min(dt_init, t_end)
    while t < t_end:
        h = min(h, t_end - t)
        full = rk4_step_public(R, h)
        half = rk4_step_public(rk4_step_public(R, 0.5 * h), 0.5 * h)
        err = (full - half).norm() / 15.0
        scale = rel_tol * max(1.0, half.norm())
        if err <= scale:
            R, t = half, t + h
            grow = 0.9 * (scale / err) ** 0.2 if err > 0 else 2.0
            h *= min(2.0, max(0.2, grow))
        else:
            h *= max(0.2, 0.9 * (scale / err) ** 0.2)
    return R


def random_curvature(n: int, seed: int, scale: float = 1.0) -> CurvatureTensor:
    """Projection of a Gaussian rank-4 table (independent of the subspace
    sampler)."""
    rng = np.random.default_rng(seed)
    return project_to_curvature(scale * rng.standard_normal((n, n, n, n)))


def generic_dimension_bruteforce(n: int) -> int:
    """Dimension of the curvature-tensor space from the full n^4 coordinate
    system: impose all symmetries plus the cyclic identity as linear
    constraints and count the nullspace.  Keep n <= 5."""
    dim = n ** 4

    def row_of(entries):
        r = np.zeros(dim)
        for (i, j, k, l), c in entries:
            r[((i * n + j) * n + k) * n + l] += c
        return r

    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    rows.append(row_of([((i, j, k, l), 1.0), ((j, i, k, l), 1.0)]))
                    rows.append(row_of([((i, j, k, l), 1.0), ((i, j, l, k), 1.0)]))
                    rows.append(row_of([((i, j, k, l), 1.0), ((k, l, i, j), -1.0)]))
                    rows.append(row_of([((i, j, k, l), 1.0), ((j, k, i, l), 1.0),
                                        ((k, i, j, l), 1.0)]))
    A = np.array(rows)
    s = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(s > 1e-8 * s[0]))
    return dim - rank


def stacked_rows_basis(n: int, structures=()) -> np.ndarray:
    """(dimension, N, N) orthonormal basis of the curvature tensors invariant
    under every matrix in ``structures``, on all N(N+1)/2 weighted upper-triangle
    coordinates of M: the Bianchi rows stacked with one block of rows
    M C_A - M = 0 per structure, each column built from one unit coordinate,
    and the nullspace of the whole system from one SVD (cutoff 1e-8)."""
    N = num_pairs(n)
    P, Q = np.triu_indices(N)
    w = np.where(P == Q, 2.0, 2.0 * np.sqrt(2.0))
    col_of = np.empty((N, N), dtype=int)
    col_of[P, Q] = col_of[Q, P] = np.arange(len(P))
    cols = np.take(col_of, _bianchi_gather(n)[0])     # (3, quadruples)
    bianchi = np.zeros((cols.shape[1], len(P)))
    for c, sign in zip(cols, (1.0, -1.0, 1.0)):
        bianchi[np.arange(cols.shape[1]), c] = sign / w[c]
    blocks = [bianchi]

    def unit(t):
        M = np.zeros((N, N))
        M[P[t], Q[t]] = M[Q[t], P[t]] = 1.0 / w[t]
        return M

    for A in structures:
        C = two_form_action(np.asarray(A))
        blocks.append(np.stack([(unit(t) @ C - unit(t)).ravel()
                                for t in range(len(P))], axis=1))
    _, s, vh = np.linalg.svd(np.vstack(blocks))
    rank = int(np.sum(s > 1e-8 * s[0]))
    null = vh[rank:]
    mats = np.zeros((len(null), N, N))
    mats[:, P, Q] = mats[:, Q, P] = null / w
    return mats


def shift_into_cone(R: CurvatureTensor, min_iso_fn, lo=0.0, hi=64.0, iters=40):
    """Bisect the smallest sphere shift c with min_iso(R + c*sphere) >= 0."""
    from curvkit.core import model_sphere
    sph = model_sphere(R.n, 1.0)
    if min_iso_fn(R + lo * sph) >= 0.0:
        return lo
    assert min_iso_fn(R + hi * sph) >= 0.0, "shift window too small"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if min_iso_fn(R + mid * sph) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Serial frame-search oracles: one start at a time, per-frame QR, closures
# over single vectors, and the engine's step rule (Barzilai-Borwein first
# trial, halving backtrack, the acceptance test of accept_serial,
# frames._STEP and frames._GRAD_TOL), on the tensor scaled to |M|_max = 1.
# Restart r draws from seed cfg.seed + r as in curvkit.frames.
# ---------------------------------------------------------------------------

def unit_scaled(R: CurvatureTensor):
    """(R / s, s) with s = |M|_max, s = 1 for the zero tensor."""
    s = float(np.max(np.abs(R.mat))) or 1.0
    return CurvatureTensor(R.n, R.mat / s), s


def accept_serial(val, vnew, a, gnorm, P, Pnew, step) -> bool:
    """A strict Armijo decrease, or, when the two values tie to within
    16 eps max(1, |val|), the approximate Wolfe test on the slopes of the
    step along the old and the new projected gradients (Hager-Zhang 2005):
    <P, step> < 0 and 0.9 <P, step> <= <Pnew, step> <= (1 - 2e-4) |<P, step>|."""
    if vnew < val and vnew <= val - 1e-4 * a * gnorm * gnorm:
        return True
    if abs(vnew - val) > 16 * np.finfo(float).eps * max(1.0, abs(val)):
        return False
    sp, spt = float(np.sum(P * step)), float(np.sum(Pnew * step))
    return sp < 0 and 0.9 * sp <= spt <= (1 - 2e-4) * abs(sp)


def retract_serial(F: np.ndarray) -> np.ndarray:
    """QR retraction of one (n, k) matrix, sign-fixed for continuity."""
    q, r = np.linalg.qr(F)
    s = np.sign(np.diag(r))
    s[s == 0] = 1.0
    return q * s


def bb_step_serial(s, y) -> float:
    """Barzilai-Borwein step |s|^2 / |<s, y>| clipped to [1e-6, 1e3] * frames._STEP,
    the upper bound when <s, y> = 0."""
    lo, hi = 1e-6 * frames._STEP, 1e3 * frames._STEP
    sy = abs(float(np.sum(s * y)))
    return hi if sy == 0.0 else min(max(float(np.sum(s * s)) / sy, lo), hi)


def descend_serial(value_grad, F0, cfg, on_iterate=None):
    """Projected-gradient descent from one start: a Barzilai-Borwein first
    trial after each accepted step, then backtracking by halving until a
    trial passes ``accept_serial``.

    Returns (value, F, stop_reason, iterations).
    """
    def riemannian(F, G):
        return G - F @ (0.5 * (F.T @ G + G.T @ F))

    F = retract_serial(np.asarray(F0, dtype=float))
    val, G = value_grad(F)
    Griem = riemannian(F, G)
    alpha = frames._STEP
    reason = "max_iters"
    iters = 0
    for it in range(cfg.max_iters):
        iters = it + 1
        gnorm = float(np.linalg.norm(Griem))
        if on_iterate is not None:
            on_iterate(F, val, gnorm)
        if gnorm <= frames._GRAD_TOL:
            reason = "grad_tol"
            break
        a = alpha
        accepted = False
        for _ in range(60):
            Fnew = retract_serial(F - a * Griem)
            vnew, Gnew = value_grad(Fnew)
            Pnew = riemannian(Fnew, Gnew)
            if accept_serial(val, vnew, a, gnorm, Griem, Pnew, Fnew - F):
                accepted = True
                break
            a *= 0.5
        if not accepted:
            reason = "line_search_floor"
            break
        alpha = bb_step_serial(Fnew - F, Pnew - Griem)
        F, val, Griem = Fnew, vnew, Pnew
    return val, F, reason, iters


def rows_value_grad_serial(closures, owner):
    """value_grad(F, rows) of a descent stack whose row i of F0 belongs to
    ``closures[owner[i]]``, a serial one-frame closure: each active row is
    evaluated alone by the closure of its own tensor."""
    def value_grad(F, rows):
        out = [closures[owner[r]](f) for f, r in zip(F, rows)]
        return np.array([v for v, _ in out]), np.array([g for _, g in out])

    return value_grad


def iso_value_grad_serial(mat: np.ndarray, n: int):
    """(value, Euclidean gradient) of the isotropic functional on one frame."""
    iu, ju = np.triu_indices(n, 1)

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


def hol_value_grad_serial(mat: np.ndarray, Jm: np.ndarray):
    """(-R(x,Jx,x,Jx), its negated gradient) on one (n, 1) column."""
    n = Jm.shape[0]
    iu, ju = np.triu_indices(n, 1)

    def value_grad(X):
        x = X[:, 0]
        jx = Jm @ x
        w = x[iu] * jx[ju] - x[ju] * jx[iu]
        mw = mat @ w
        A = np.zeros((n, n))
        A[iu, ju] = mw
        A -= A.T
        grad = 2.0 * (A @ jx) + 2.0 * (Jm @ (A @ x))
        return -float(w @ mw), -grad[:, None]

    return value_grad


def min_isotropic_n4(R: CurvatureTensor) -> float:
    """Exact minimum isotropic curvature of an n = 4 tensor: 2 min(a1 + a2,
    c1 + c2) for the ascending eigenvalues a of M on Lambda^+ and c on
    Lambda^- (Micallef-Moore 1988; Hamilton 1997).  With the lex basis 12,
    13, 14, 23, 24, 34, Lambda^+- = span{e12 +- e34, e13 -+ e24, e14 +- e23}/sqrt 2."""
    assert R.n == 4
    plus = np.array([[1, 0, 0, 0, 0, 1], [0, 1, 0, 0, -1, 0], [0, 0, 1, 1, 0, 0]])
    minus = np.array([[1, 0, 0, 0, 0, -1], [0, 1, 0, 0, 1, 0], [0, 0, 1, -1, 0, 0]])
    a, c = (np.linalg.eigvalsh(B @ R.mat @ B.T / 2.0) for B in (plus, minus))
    return 2.0 * min(a[0] + a[1], c[0] + c[1])


def probe_frames(n: int) -> np.ndarray:
    """All 2 C(n, 4) axis-aligned frames: (e_i, e_j, e_k, e_l) for each
    i<j<k<l in lex order, then the same frames with e_l negated."""
    F = np.zeros((2, math.comb(n, 4), n, 4))
    for q, quad in enumerate(combinations(range(n), 4)):
        for a, i in enumerate(quad):
            F[:, q, i, a] = 1.0
    F[1, :, :, 3] *= -1.0
    return F.reshape(-1, n, 4)


def min_isotropic_serial(R: CurvatureTensor, cfg, init_frames=()):
    """Restart runs [(value, F, stop_reason, iterations)] of the serial
    min_isotropic: warm starts, seeded restarts, then the axis-aligned frame
    of least value, each descended alone."""
    R, scale = unit_scaled(R)
    vg = iso_value_grad_serial(R.mat, R.n)
    starts = list(init_frames)
    starts += [retract_serial(np.random.default_rng(cfg.seed + r).standard_normal((R.n, 4)))
               for r in range(cfg.restarts)]
    probes = probe_frames(R.n)
    starts.append(probes[int(np.argmin([vg(F)[0] for F in probes]))])
    runs = [descend_serial(vg, F0, cfg) for F0 in starts]
    return [(scale * v, F, reason, iters) for v, F, reason, iters in runs]


def max_holomorphic_serial(R: CurvatureTensor, Jm: np.ndarray, cfg):
    """Restart values and stop reasons of the serial max_holomorphic_sectional."""
    R, scale = unit_scaled(R)
    vg = hol_value_grad_serial(R.mat, Jm)
    runs = [descend_serial(vg, retract_serial(
        np.random.default_rng(cfg.seed + r).standard_normal((R.n, 1))), cfg)
        for r in range(cfg.restarts)]
    return [-scale * v for v, _, _, _ in runs], [reason for _, _, reason, _ in runs]


def min_orthogonal_bisectional_serial(R: CurvatureTensor, Jm: np.ndarray, cfg):
    """Restart values and stop reasons of the serial
    min_orthogonal_bisectional: its own Barzilai-Borwein loop over (x, y)
    with the test of ``accept_serial``, y projected off {x, Jx} after every
    step; a restart's value is that of its final (x, y)."""
    from curvkit.core import curvature_map, wedge
    n = R.n
    R, scale = unit_scaled(R)
    mat = R.mat

    def objective(x, y):
        return float(wedge(x, Jm @ x) @ mat @ wedge(y, Jm @ y))

    def grads(x, y):
        Ax = curvature_map(R, x, Jm @ x)
        Ay = curvature_map(R, y, Jm @ y)
        return Ay @ (Jm @ x) + Jm @ (Ay @ x), Ax @ (Jm @ y) + Jm @ (Ax @ y)

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

    values, reasons = [], []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + r)
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        y = feasible_y(rng.standard_normal(n), x)
        if y is None:
            continue
        val = objective(x, y)
        g = tangent_project(*grads(x, y), x, y)
        alpha = frames._STEP
        reason = "max_iters"
        for _ in range(cfg.max_iters):
            gnorm = float(np.linalg.norm(g))
            if gnorm <= frames._GRAD_TOL:
                reason = "grad_tol"
                break
            a, accepted = alpha, False
            for _ in range(60):
                xn = x - a * g[:n]
                xn /= np.linalg.norm(xn)
                yn = feasible_y(y - a * g[n:], xn)
                if yn is not None:
                    vn = objective(xn, yn)
                    gn = tangent_project(*grads(xn, yn), xn, yn)
                    step = np.concatenate([xn - x, yn - y])
                    if accept_serial(val, vn, a, gnorm, g, gn, step):
                        accepted = True
                        break
                a *= 0.5
            if not accepted:
                reason = "line_search_floor"
                break
            alpha = bb_step_serial(step, gn - g)
            x, y, val, g = xn, yn, vn, gn
        values.append(scale * val)
        reasons.append(reason)
    return values, reasons


def qk_joint_search_serial(R1: CurvatureTensor, T, cfg):
    """Reference joint maximization of R1(x, Jx, x, Jx) over unit x and unit
    J = aI + bJ + cK, with no use of the Sp(1) symmetry.  A 26-point design
    on the coefficient sphere (octahedron vertices, edge midpoints and cube
    vertices) times 256 random unit vectors seeds an alternation of serial
    ascent in x with an exact eigenvector solve in (a, b, c), for which the
    value is the quadratic form of the Gram matrix G_ab = R1(x, A_a x, x, A_b x).

    Returns (value, coeffs, x).
    """
    from itertools import product
    n = T.n
    iu, ju = np.triu_indices(n, 1)
    mats = np.array(T.matrices)

    def wedges(X, A):                        # rows x ^ Ax of the rows of X
        AX = X @ A.T
        return X[:, iu] * AX[:, ju] - X[:, ju] * AX[:, iu]

    octa = [s * e for s in (1.0, -1.0) for e in np.eye(3)]
    edges = [(sa * np.eye(3)[a] + sb * np.eye(3)[(a + 1) % 3]) / np.sqrt(2.0)
             for a in range(3) for sa in (1.0, -1.0) for sb in (1.0, -1.0)]
    cube = [np.array(s) / np.sqrt(3.0) for s in product((1.0, -1.0), repeat=3)]

    rng = np.random.default_rng(cfg.seed)
    Xs = rng.standard_normal((256, n))
    Xs /= np.linalg.norm(Xs, axis=1, keepdims=True)
    val, coeffs, x = -np.inf, None, None
    for c in octa + edges + cube:
        W = wedges(Xs, np.tensordot(c, mats, 1))
        vals = np.einsum("bp,bp->b", W @ R1.mat, W)
        i = int(np.argmax(vals))
        if vals[i] > val:
            val, coeffs, x = float(vals[i]), c, Xs[i]

    for _ in range(60):
        negval, X, _, _ = descend_serial(
            hol_value_grad_serial(R1.mat, np.tensordot(coeffs, mats, 1)), x[:, None], cfg)
        x = X[:, 0]
        ws = np.array([wedges(x[None], A)[0] for A in mats])
        evals, evecs = np.linalg.eigh(ws @ R1.mat @ ws.T)
        if evals[-1] <= -negval + 1e-12 * (1.0 + abs(evals[-1])):
            if evals[-1] >= -negval:
                coeffs = evecs[:, -1]
            return max(-negval, float(evals[-1])), coeffs, x
        coeffs, val = evecs[:, -1], float(evals[-1])
    return val, coeffs, x


def qk_paired_excess_serial(R1: CurvatureTensor, T, x: np.ndarray, val: float) -> float:
    """Reference paired diagnostic of the quaternionic bound, as a loop over
    I-pairs: on the orthogonal complement of span{x, Ix, Jx, Kx}, take the
    bottom eigenvector w of the restricted form y -> R1(x, Ix, y, Iy) (from
    the rank-4 table), record 4 R1(x, Ix, w, Iw)^2 - val^2, remove span{w, Iw}
    and repeat until the complement is exhausted.  Returns the maximum
    record, -val^2 for an empty complement."""
    A = T.I.matrix
    jx = A @ x
    Omega = np.einsum("ijkl,i,j->kl", R1.rank4, x, jx)
    B = 0.5 * (Omega @ A + A @ Omega)
    _, s, vh = np.linalg.svd(np.array([x] + [M @ x for M in T.matrices]), full_matrices=True)
    W = vh[int(np.sum(s > 1e-12)):].T
    excess = -val * val
    while W.shape[1] > 0:
        sub = W.T @ B @ W
        w = W @ np.linalg.eigh(0.5 * (sub + sub.T))[1][:, 0]
        w /= np.linalg.norm(w)
        jw = A @ w
        c = evaluate_table(R1, x, jx, w, jw)
        excess = max(excess, 4.0 * c * c - val * val)
        U = np.column_stack([w, jw])
        uu, ss, _ = np.linalg.svd(W - U @ (U.T @ W), full_matrices=False)
        W = uu[:, ss > 1e-8]
    return excess
