"""Searches over orthonormal frames and unit vectors for curvature functionals.

The workhorse is projected gradient descent on the Stiefel manifold of
orthonormal k-column matrices, real or complex (k = 4 for isotropic frames,
k = 1 for unit vectors, the complex pairs (z, w) in C^m for the bisectional
search; Edelman-Arias-Smith 1998, Absil-Mahony-Sepulchre 2008): Euclidean
gradient, tangent projection G - F herm(F^H G), Cholesky-QR retraction (the
QR with positive real diag R; x / |x| for k = 1), a Barzilai-Borwein first
trial step and a backtrack that accepts only on Armijo decrease below a
nonmonotone reference value, a weighted mean of the row's past values
(Barzilai-Borwein 1988; Zhang-Hager, SIAM J. Optim. 14, 2004; Wen-Yin 2013
pair BB steps with that reference value on the Stiefel manifold),
multistart, on tensors scaled to |M|_max = 1.  One engine,
``_descend``, runs all starts of a search, of one tensor or many, as one
(B, n, k) stack, each row with its own step size.  Results say why the best
restart stopped (``stop_reason``), how long each restart ran and how many
stack passes the search took; they report values, and frames are
certificates, never compared directly.

Each search's certificate is computed here, one way.  By Ky Fan's
inequality (Ky Fan 1949) every isotropic value is at least 2 (lambda_1 +
lambda_2) of M: every isotropic result carries that bound as
``lower_bound``, and a tensor whose best axis-aligned frame attains it, to
CERT_TOL |M|_max, has its minimum there (``stop_reason`` ``certified``, no
descent, no passes).  The holomorphic maximizer's certificate is its
first-order conditions, taken over the complement of span{X, JX}, which
the complete QR of those vectors spans (``_complement``).

The holomorphic search finishes with Newton's method, as BB converges only
linearly: rows below _NEWTON_TOL wait until no row is left, then take
batched Newton steps on the sphere from the closed-form Hessian
(``_hol_newton``, ``_newton_finish``; Absil-Mahony-Sepulchre 2008, ch. 6).
A refused row resumes BB where it stands; ``passes`` counts both phases.
"""

from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .core import (_ISO_FORMS, FEASIBILITY_TOL, ComplexStructure, CurvatureError,
                   CurvatureTensor, FourFrame, NonFiniteError, QuaternionTriple,
                   _bianchi_gather, _frame_forms, _holomorphic_frame, _invariance_defects,
                   _reaction, _require_same_n, _require_vector, _unpack_two_form,
                   curvature_map, isotropic_from_columns, pair_indices, qform, wedge)


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
    converged: bool                    # stop_reason is "grad_tol" or "certified"
    iterations: int
    restart_values: list = field(default_factory=list)
    restart_frames: list = field(default_factory=list, repr=False)
    stop_reason: str | None = None     # of the reported restart, one of STOP_REASONS
    restart_iterations: list = field(default_factory=list)   # aligned with restart_values
    restart_stop_reasons: list = field(default_factory=list)  # likewise
    passes: int = 0                    # value-and-gradient calls of the descent stack
    lower_bound: float | None = None   # Ky Fan's bound on the value; isotropic searches only
    newton_passes: int = 0             # of those passes, the holomorphic search's Newton ones
    newton_finished: int = 0           # rows of this tensor the Newton finish took to grad_tol
    newton_handed_back: int = 0        # rows of this tensor it handed back to BB


# ---------------------------------------------------------------------------
# Stiefel descent engine
# ---------------------------------------------------------------------------

STOP_REASONS = ("grad_tol", "line_search_floor", "max_iters", "certified")
CERT_TOL = 1e-12        # a probe value certifies within CERT_TOL |M|_max of Ky Fan's bound
CHECK_TOL = 1e-6        # of boundary_q_check and qk_q_bound_check
FIRST_ORDER_TOL = 1e-5  # of the first-order conditions at a holomorphic maximizer
_STEP = 0.1             # first trial step; BB steps are clipped to [1e-6, 1e3] * _STEP
_GRAD_TOL = 1e-8        # a row stops once its projected gradient norm is at most this
_ARMIJO = 1e-4          # sufficient-decrease constant
_ETA = 0.85             # weight of the past in the Zhang-Hager reference value
_BACKTRACKS = 60        # step halvings before a row sits at the line-search floor
_PIVOT_TOL = 1e-12      # least relative squared Cholesky pivot of a retraction
_NEWTON_TOL = 1e-2      # the holomorphic search's BB rows hand over to Newton below this
_NEWTON_STEPS = 6       # Newton steps a row may take before it resumes BB
_ROUNDOFF = 16 * np.finfo(float).eps   # a Newton step's value may rise this much, relative


def _orthonormalize(F: np.ndarray) -> np.ndarray:
    """Q of the QR factorization of a real or complex stack (..., n, k) of
    full-rank draws, sign-fixed to Gram-Schmidt's real positive diag R;
    k = 1: x / |x|.  The descent's starts and the frames of
    ``sample_frames_min`` come through it: a Gaussian draw may be too
    ill-conditioned for ``_retract``."""
    if F.shape[-1] == 1:
        return F / np.linalg.norm(F, axis=-2, keepdims=True)
    q, r = np.linalg.qr(F)
    s = np.where(np.diagonal(r, axis1=-2, axis2=-1).real < 0, -1.0, 1.0)
    return q * s[..., None, :]


def _retract(F: np.ndarray) -> np.ndarray:
    """The same map as ``_orthonormalize``, by Cholesky-QR: L = chol(F^H F)
    and Q = F L^(-H), since R = L^H has a real positive diagonal
    (Absil-Mahony-Sepulchre 2008, 4.1); k = 1: x / |x|.  Its loss of
    orthogonality grows with cond(F)^2, so it serves the descent's steps
    F - a P off orthonormal F, whose Gram matrix I + a^2 P^H P is at least I.
    CurvatureError, and no frame, when the Cholesky factorization fails: some
    pivot l_jj^2 is at most _PIVOT_TOL |f_j|^2 (a column in the span of those
    before it, to roundoff) or not finite."""
    if F.shape[-1] == 1:
        return F / np.linalg.norm(F, axis=-2, keepdims=True)
    G = F.swapaxes(-1, -2).conj() @ F
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        L = None
    # ndarray methods: np.diagonal would add a third to the cost of the check
    if L is None or not (L.diagonal(0, -2, -1).real ** 2 / G.diagonal(0, -2, -1).real
                         ).min(initial=np.inf) > _PIVOT_TOL:
        raise CurvatureError("frame retraction: the columns are not linearly independent "
                             "or not finite")
    return F @ np.linalg.inv(L).swapaxes(-1, -2).conj()


def _stiefel_tangent(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Projection G - F herm(F^H G) of a stack of gradients onto the tangent
    spaces, for the real inner product Re tr(A^H B) (sym for real stacks)."""
    FtG = np.swapaxes(F, -1, -2).conj() @ G
    return G - F @ (0.5 * (FtG + np.swapaxes(FtG, -1, -2).conj()))


def _descend(value_grad, F0: np.ndarray, cfg: OptimizerConfig, on_iterate=None, finish=None):
    """Minimize value_grad over a (B, n, k) stack of starts, all rows at once.

    ``value_grad(F, rows)`` maps a (b, n, k) stack to values (b,) and
    Euclidean gradients; ``rows`` (b,) are the indices into F0 of the active
    rows in F, so one stack can carry rows whose functional differs (rows of
    different tensors, see ``_block_product``).  A complex stack, the pairs
    of ``min_orthogonal_bisectional``, runs as a real one, with Re tr(A^H B)
    as inner product: every search orthonormalizes its starts
    (``_orthonormalize``), steps along ``_stiefel_tangent`` and retracts by
    ``_retract``.  Each row's first trial after an accepted
    step is the BB step |s|^2 / |<s, y>|, with s the accepted move and y the
    change of the projected gradient, clipped to [1e-6, 1e3] * _STEP (the
    upper bound when <s, y> = 0; the first trial is _STEP); a rejected trial
    halves the step.  A trial with value vt is accepted by one rule, a
    strict Armijo decrease below the row's reference value C:
    vt < C and vt <= C - _ARMIJO a |P|^2.  C is Zhang and Hager's
    nonmonotone reference (SIAM J. Optim. 14, 2004): it starts at the row's
    first value with weight Q = 1, and each accepted value f moves it to
    C' = (_ETA Q C + f) / Q', Q' = _ETA Q + 1.  A BB trial may so rise above
    the row's last value, yet f_k < C_(k-1) and f_k <= C_k <= C_(k-1) <= f_0,
    so no row ends above its start.  A row leaves the stack at projected
    gradient norm <= _GRAD_TOL (``grad_tol``), after 60 rejected halvings
    (``line_search_floor``) or after ``cfg.max_iters``.
    The step and the tolerances are absolute: the searches normalize their
    tensors first (``_unit_scale``).
    ``on_iterate(F, val, gnorm)`` is called with the (n, k) frame of each
    active row at the start of each of its iterations.

    With ``finish``, a second-order finish, a row also leaves once its norm
    is at most _NEWTON_TOL, and waits.  When no row is left, ``finish(F,
    val, P, rows, iters)`` takes the waiting rows' frames, values, projected
    gradients, F0 indices and iterations begun, and returns their new
    values, frames, projected gradients and iterations, and its own passes.
    Each row then stops as above, or goes on from where it stands, with its
    step and reference value.  So each row's path is its own, whatever else
    shares the stack.

    Returns (values, frames, iterations, stop reasons), aligned with F0's
    rows, and the stack's passes: its calls of ``value_grad``, the first
    one included, and those of ``finish``.
    """
    F = _orthonormalize(np.asarray(F0))
    B = len(F)
    rows = np.arange(B)                 # the rows of F0 still in the stack
    val, G = value_grad(F, rows)
    P = _stiefel_tangent(F, G)
    g2 = np.einsum("bij,bij->b", P.conj(), P).real   # squared projected gradient norms
    C, Qw = val.copy(), np.ones(B)      # Zhang-Hager reference values and their weights
    a = np.full(B, _STEP)               # next trial step of each row
    lo, hi = 1e-6 * _STEP, 1e3 * _STEP
    # failed trials in the current iteration, iterations begun
    tries, iters = np.zeros(B, dtype=int), np.ones(B, dtype=int)
    ok = np.ones(B, dtype=bool)         # last trial accepted: a new iteration begins
    out = (np.empty(B), np.empty_like(F), np.empty(B, dtype=int), np.empty(B, dtype=int))
    passes = 1
    held = []                           # the state of the rows that wait for finish
    while True:
        if on_iterate is not None:
            for i in np.flatnonzero(ok & (iters <= cfg.max_iters)):
                on_iterate(F[i], val[i], np.sqrt(g2[i]))
        # g2 changes only on acceptance, so a small g2 is met at an iteration start
        over = iters > cfg.max_iters
        done = leave = (g2 <= _GRAD_TOL ** 2) | over | (tries == _BACKTRACKS)
        if finish is not None:
            wait = (g2 <= _NEWTON_TOL ** 2) & ~done
            if np.count_nonzero(wait):
                held.append([x[wait] for x in (F, val, P, a, iters, rows, C, Qw)])
                leave = done | wait
        if np.count_nonzero(leave):
            code = np.where(tries == _BACKTRACKS, 1, np.where(over, 2, 0))
            for dst, src in zip(out, (val, F, np.minimum(iters, cfg.max_iters), code)):
                dst[rows[done]] = src[done]
            if leave.all() and held:
                # the waiting rows, in F0 order as everywhere in the stack
                state = [np.concatenate(x) for x in zip(*held)]
                order = np.argsort(state[5])
                F, val, P, a, iters, rows, C, Qw = (x[order] for x in state)
                val, F, P, iters, more = finish(F, val, P, rows, iters)
                passes, finish, held, ok = passes + more, None, [], np.ones(len(F), dtype=bool)
                g2, tries = np.einsum("bij,bij->b", P.conj(), P).real, np.zeros(len(F), dtype=int)
                continue                # each finished row stops at its next iteration start
            if leave.all():
                break
            F, val, P, g2, a, tries, iters, rows, C, Qw = (
                x[~leave] for x in (F, val, P, g2, a, tries, iters, rows, C, Qw))
        Ft = _retract(F - a[:, None, None] * P)
        vt, Gt = value_grad(Ft, rows)
        passes += 1
        Pt = _stiefel_tangent(Ft, Gt)
        s, y = Ft - F, Pt - P
        ok = (vt < C) & (vt <= C - _ARMIJO * a * g2)   # strict Armijo against C
        # BB step of the accepted rows; a rejected row has no step
        sy = np.abs(np.einsum("bij,bij->b", s.conj(), y).real)
        bb = np.divide(np.einsum("bij,bij->b", s.conj(), s).real, sy,
                       out=np.full(len(sy), hi), where=sy > 0)
        a = np.where(ok, np.clip(bb, lo, hi), 0.5 * a)
        m = ok[:, None, None]
        F, P = np.where(m, Ft, F), np.where(m, Pt, P)
        val = np.where(ok, vt, val)
        g2 = np.where(ok, np.einsum("bij,bij->b", Pt.conj(), Pt).real, g2)
        Qn = np.where(ok, _ETA * Qw + 1.0, Qw)
        C, Qw = np.where(ok, (_ETA * Qw * C + val) / Qn, C), Qn
        tries = np.where(ok, 0, tries + 1)
        iters += ok
    values, frames, iterations, codes = out
    return values, frames, iterations, np.array(STOP_REASONS)[codes], passes


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


def _block_product(X: np.ndarray, rows: np.ndarray, mats: np.ndarray, r: int) -> np.ndarray:
    """X[i] @ mats[rows[i] // r] for the active rows X (b, ..., N) of a stack whose
    F0 rows t r .. (t + 1) r - 1 belong to tensor t of ``mats`` (T, N, M): each row
    goes into its F0 slot of a zero C-ordered (T r, ..., N) block, multiplied by the
    stack once, so nothing is gathered and a row computes as in a T = 1 run."""
    T, N, M = mats.shape
    block = np.zeros((T * r,) + X.shape[1:])
    block[rows] = X
    return (block.reshape(T, -1, N) @ mats).reshape((T * r,) + X.shape[1:-1] + (M,)).take(rows, 0)


def _split_results(values, frames, iterations, reasons, passes: int, r: int, scale,
                   report) -> list[FrameSearchResult]:
    """One result per tensor of a search whose tensor t owns rows t r ..
    (t + 1) r - 1, in order: its values scale[t] * values, its best row k the
    first minimum of ``values`` and its frame ``report(frames[k])``."""
    results = []
    for t, own in enumerate(range(0, len(values), r)):
        v, f, it, rs = (x[own:own + r] for x in (values, frames, iterations, reasons))
        k = int(np.argmin(v))
        scaled = scale[t] * v
        results.append(FrameSearchResult(
            value=float(scaled[k]), frame_or_vector=report(f[k]),
            converged=bool(rs[k] in ("grad_tol", "certified")), iterations=int(it[k]),
            restart_values=scaled.tolist(), restart_frames=list(f),
            stop_reason=str(rs[k]), restart_iterations=it.tolist(),
            restart_stop_reasons=rs.tolist(), passes=passes))
    return results


# ---------------------------------------------------------------------------
# Isotropic curvature over 4-frames
# ---------------------------------------------------------------------------

def _iso_value_grad(mats: np.ndarray, n: int, r: int):
    """Closure over a (T, N, N) stack of M, each of which must satisfy the
    first Bianchi identity, r rows of F0 per tensor (``_block_product``): on
    frames F (b, n, 4), with the isotropic forms w_a = F C_a F^T
    (``core._frame_forms``) and A_a = R(., ., w_a), the isotropic values
    w_1 . M w_1 + w_2 . M w_2 and Euclidean gradients 2 sum_a A_a F C_a^T."""
    T, N, _ = mats.shape
    K = np.dstack([mats, _unpack_two_form(mats, n).reshape(T, N, -1)])    # (M w, R(.,.,w))
    CT = 2.0 * np.swapaxes(_ISO_FORMS, 1, 2)

    def value_grad(F, rows):
        W = _frame_forms(F)
        out = _block_product(W, rows, K, r)
        A = out[..., N:].reshape(W.shape[:-1] + (n, n))
        G = (A @ (F[..., None, :, :] @ CT)).sum(axis=-3)
        return np.einsum("...ap,...ap->...", W, out[..., :N]), G

    return value_grad


def _best_probe(mat: np.ndarray, n: int) -> np.ndarray:
    """The axis-aligned frame (e_i, e_j, e_k, +-e_l), i<j<k<l, of least isotropic
    value, read off M as M[ik,ik] + M[il,il] + M[jk,jk] + M[jl,jl] -+ 2 M[ij,kl]
    (the cross term is odd under a single column sign flip); the first
    minimum over the + frames of every quadruple, then the - frames."""
    fwd = _bianchi_gather(n)[0]
    r, c = divmod(fwd, len(mat))
    d = np.diagonal(mat)
    diag = d[r[1]] + d[r[2]] + d[c[1]] + d[c[2]]
    cross = 2.0 * mat.flat[fwd[0]]
    flip, q = divmod(int(np.argmin(np.concatenate([diag - cross, diag + cross]))), len(diag))
    iu, ju = pair_indices(n)
    ij, kl = r[0, q], c[0, q]
    F = np.zeros((n, 4))
    F[[iu[ij], ju[ij], iu[kl], ju[kl]], np.arange(4)] = [1.0, 1.0, 1.0, 1.0 - 2.0 * flip]
    return F


def sample_frames_min(R: CurvatureTensor, num_samples: int = 100_000, seed: int = 0):
    """Brute-force oracle: min isotropic curvature over random orthonormal frames.

    The frames, the sign-fixed QR of ``default_rng(seed)`` Gaussian draws, are
    uniform on the frame manifold (both orientations); they are drawn and scored
    128 at a time, and the first minimum wins.  Returns (value, frame matrix).
    Independent of the gradient path; cross-checks optimizer signs and values.
    CurvatureError for n < 4, which has no 4-frames.
    """
    _require_four_frames(R.n)
    rng = np.random.default_rng(seed)
    best, best_frame = np.inf, None
    for start in range(0, num_samples, 128):
        q = _orthonormalize(rng.standard_normal((min(128, num_samples - start), R.n, 4)))
        vals = isotropic_from_columns(R.mat, q)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, best_frame = float(vals[i]), q[i]
    return best, best_frame


def _require_four_frames(n: int) -> None:
    """CurvatureError for n < 4, which has no 4-frames."""
    if n < 4:
        raise CurvatureError("isotropic curvature needs n >= 4")


def _ky_fan_bound(mats: np.ndarray) -> np.ndarray:
    """2 (lambda_1 + lambda_2) of each matrix of a (..., N, N) stack, its two
    least eigenvalues: a lower bound of every isotropic value (Ky Fan 1949),
    as w_1 and w_2 (``_frame_forms``) are orthogonal with |w_a|^2 = 2."""
    lam = np.linalg.eigvalsh(mats)
    return 2.0 * (lam[..., 0] + lam[..., 1])


def _unit_probes(mats: np.ndarray, n: int):
    """(s, M / s, probes) of a (T, N, N) stack: its scales (``_unit_scale``),
    the scaled stack and each scaled tensor's best axis-aligned frame
    (``_best_probe``)."""
    s = _unit_scale(mats)
    unit = mats / s[:, None, None]
    return s, unit, np.stack([_best_probe(m, n) for m in unit])


def _search_isotropic(unit_probes: tuple, n: int, cfg: OptimizerConfig,
                      on_iterate=None) -> list[FrameSearchResult]:
    """The multistart descent of each tensor of a (T, N, N) stack, given as
    its ``_unit_probes``, in order: one ``_descend`` stack runs, per tensor,
    restart r from seed ``cfg.seed + r``, then its best axis-aligned frame
    (``_best_probe``).  No row ends above its start beyond roundoff (see
    ``_descend``), so each value is at most every axis-aligned frame's.  Each
    tensor is searched as M / s (``_unit_scale``) and scaled back, as are the
    values and gradient norms ``on_iterate`` sees (T = 1)."""
    s, mats, probes = unit_probes
    seeded = _random_starts(cfg, n, 4)
    starts = np.concatenate([np.concatenate([seeded, p[None]]) for p in probes])
    seen = None if on_iterate is None else lambda F, v, g: on_iterate(F, s[0] * v, s[0] * g)
    r = cfg.restarts + 1
    return _split_results(*_descend(_iso_value_grad(mats, n, r), starts, cfg, seen), r, s,
                          FourFrame)


def _min_isotropic_stack(mats: np.ndarray, n: int, cfg: OptimizerConfig,
                         on_iterate=None) -> list[FrameSearchResult]:
    """``min_isotropic`` of each tensor of a (T, N, N) stack, in order, bit for bit.

    Every tensor's Ky Fan bound b_t (``_ky_fan_bound``) of M / s
    (``_unit_scale``) comes from one batched ``eigvalsh``, and tensor t is
    certified when its best axis-aligned frame (``_best_probe``) attains it:
    p_t <= b_t + CERT_TOL |M_t / s_t|_max for its value p_t
    (``isotropic_from_columns``).  A certified tensor's result is that frame
    alone (``certified``, no iterations, no passes); the others run through
    ``_search_isotropic`` as one stack, on their scales, scaled tensors and
    probes, so each gets the result it would get alone.  Both kinds of result
    come from ``_split_results``, and every ``lower_bound`` is s_t b_t.
    Before any of it, NonFiniteError names the first tensor t with a
    non-finite entry."""
    _require_four_frames(n)
    for t in np.flatnonzero(~np.isfinite(mats).all(axis=(1, 2)))[:1]:
        raise NonFiniteError(f"isotropic search: tensor {t} is not finite")
    s, unit, probes = _unit_probes(mats, n)
    p = isotropic_from_columns(unit, probes)
    b = _ky_fan_bound(unit)
    certified = p <= b + CERT_TOL * np.abs(unit).max(axis=(1, 2))
    c, todo = np.flatnonzero(certified), np.flatnonzero(~certified)
    certs = iter(_split_results(p[c], probes[c], np.zeros(len(c), dtype=int),
                                np.full(len(c), "certified"), 0, 1, s[c], FourFrame))
    searched = iter(_search_isotropic((s[todo], unit[todo], probes[todo]), n, cfg, on_iterate)
                    if len(todo) else ())
    results = [next(certs if cert else searched) for cert in certified]
    for res, bound in zip(results, s * b):
        res.lower_bound = float(bound)
    return results


def min_isotropic(R: CurvatureTensor, cfg: OptimizerConfig | None = None,
                  on_iterate=None) -> FrameSearchResult:
    """Multistart minimization of the isotropic curvature over orthonormal
    4-frames, unless the best axis-aligned frame attains Ky Fan's bound: the
    T = 1 case of ``_min_isotropic_stack``.  ``on_iterate(F, val, gnorm)``
    sees every iteration of every row of a descent (none when the tensor is
    certified).  CurvatureError for n < 4."""
    return _min_isotropic_stack(R.mat[None], R.n, cfg or OptimizerConfig(), on_iterate)[0]


def _pinching_from_iso(min_iso: float) -> float:
    """Pinching constant of a tensor whose min isotropic curvature is
    ``min_iso``: every frame sees the sphere shift as exactly 4 kappa."""
    return min_iso / 4.0


def pinching_constant(R: CurvatureTensor, cfg: OptimizerConfig | None = None) -> float:
    """Largest kappa with R - kappa * sphere still of nonnegative isotropic
    curvature; CurvatureError for n < 4, as ``min_isotropic``."""
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
    on tensor t: each pass multiplies the wedges x ^ Jx by their tensors
    through ``_block_product``."""
    N, n, S = mats.shape[1], len(Jm), _structure_forms(Jm)

    def value_grad(X, rows):
        Tx = (X[..., 0] @ S).reshape(len(X), N, n)
        w = (Tx @ X)[..., 0]                        # x ^ Jx
        mw = _block_product(w, rows, mats, r)
        return -np.einsum("bp,bp->b", w, mw), -4.0 * np.swapaxes(mw[:, None, :] @ Tx, 1, 2)

    return value_grad


def _hol_newton(mats: np.ndarray, Jm: np.ndarray, r: int):
    """Closure of the Newton finish, on unit rows x (b, n) laid out as in
    ``_hol_value_grad``: the values f = -R(x,Jx,x,Jx), the projected
    gradients Pg, P = I - x x^T, and the matrices A of the Newton systems
    A xi = -Pg.  With T_x the rows Q_p x, g = -4 T_x^T M (x ^ Jx), the
    Hessian is H = -4 (2 T_x^T M T_x + sum_p (M (x ^ Jx))_p Q_p) and
    A = P (H - (x^T g) I) P + x x^T + Jx Jx^T: the Riemannian Newton
    equation on the sphere (Absil-Mahony-Sepulchre 2008, ch. 6) with x x^T
    keeping xi tangent and Jx Jx^T lifting the kernel of the U(1) orbit
    e^(tJ) x, along which f is constant."""
    N, n = mats.shape[1], len(Jm)
    forms = _structure_forms(Jm).reshape(n, N, n)    # forms[i, p, j] = (Q_p)_ij
    S = forms.swapaxes(1, 2).reshape(n, n * N)       # x @ S: T_x^T, the columns Q_p x
    forms = -4.0 * forms.swapaxes(0, 1).reshape(N, n * n)   # row p: -4 Q_p

    def newton(x, rows):
        b = len(x)
        TxT = (x @ S).reshape(b, n, N)
        TM = _block_product(TxT, rows, mats, r)            # T_x^T M
        K = TM @ np.swapaxes(TxT, 1, 2)                    # T_x^T M T_x
        mw = (x[:, None, :] @ TM)[:, 0]                    # M (x ^ Jx), as M is symmetric
        g = -4.0 * (K @ x[..., None])[..., 0]              # as x ^ Jx = T_x x
        xg = np.einsum("bi,bi->b", x, g)                   # 4 f: f is homogeneous of degree 4
        H = (mw @ forms).reshape(b, n, n)
        H -= 8.0 * K
        H.reshape(b, -1)[:, ::n + 1] -= xg[:, None]        # H - (x^T g) I
        Pg = g - xg[:, None] * x
        # P H P + x x^T = H - x v^T - v x^T for v = H x - ((x^T H x + 1) / 2) x,
        # where H x = 3 g - (x^T g) x by Euler's identity
        v = 3.0 * g - (2.0 * xg + 0.5)[:, None] * x
        jx = x @ Jm.T
        H += np.stack([-x, -v, jx], axis=2) @ np.stack([v, x, jx], axis=1)
        return 0.25 * xg, Pg, H

    return newton


def _positive_definite(A: np.ndarray) -> np.ndarray:
    """Whether each matrix of a symmetric stack is positive definite: one
    batched Cholesky factorization, bisecting the stack only if one fails."""
    try:
        np.linalg.cholesky(A)
        return np.ones(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_positive_definite(A[:len(A) // 2]),
                               _positive_definite(A[len(A) // 2:])])


def _newton_finish(newton, X: np.ndarray, val: np.ndarray, P: np.ndarray, rows: np.ndarray,
                   iters: np.ndarray, max_iters: int):
    """The second-order finish of ``_descend`` for unit columns X (b, n, 1),
    their values and projected gradients P:
    batched Newton steps x <- (x + xi) / |x + xi|, xi from the Newton system
    A xi = -Pg of ``newton`` (a ``_hol_newton`` closure).  A row steps only
    while A is positive definite, so that xi descends and no row converges
    to a saddle, and keeps a step only if its value does not get worse beyond
    roundoff, _ROUNDOFF max(1, |f|); each kept step is an iteration.  A row
    stops at projected gradient norm <= _GRAD_TOL (code 0) or after
    ``max_iters`` (code 2); otherwise, refused or still above after
    _NEWTON_STEPS steps, it is handed back where it stands (code -1), with
    its own value and P if no step moved it."""
    B = len(X)
    out = (np.empty(B), np.empty((B, X.shape[1])), np.empty((B, X.shape[1])),
           np.empty(B, dtype=int), np.empty(B, dtype=int))
    x, Pg, live = X[:, :, 0], P[:, :, 0], np.arange(B)   # live: the rows still stepping
    A = newton(x, rows)[2]
    refused, steps = np.zeros(B, dtype=bool), 0
    while True:
        g2 = np.einsum("bi,bi->b", Pg, Pg)
        code = np.where(iters > max_iters, 2, np.where(g2 <= _GRAD_TOL ** 2, 0, -1))
        stop = (code >= 0) | refused | (steps == _NEWTON_STEPS)
        stop[~stop] = ~_positive_definite(A[~stop])
        if np.count_nonzero(stop):
            for dst, src in zip(out, (val, x, Pg, iters, code)):
                dst[live[stop]] = src[stop]
            if stop.all():
                break
            x, val, Pg, A, iters, live = (v[~stop] for v in (x, val, Pg, A, iters, live))
        xt = x + np.linalg.solve(A, -Pg[..., None])[..., 0]
        xt /= np.linalg.norm(xt, axis=1, keepdims=True)
        vt, Pt, At = newton(xt, rows[live])
        steps += 1
        ok = vt <= val + _ROUNDOFF * np.maximum(1.0, np.abs(val))
        refused, iters, m = ~ok, iters + ok, ok[:, None]
        # a refused row stops before its next step, so only the kept ones need A
        x, val, Pg, A = np.where(m, xt, x), np.where(ok, vt, val), np.where(m, Pt, Pg), At
    values, x, Pg, iterations, codes = out
    return values, x[..., None], Pg[..., None], iterations, codes, steps + 1


def _max_holomorphic_stack(mats: np.ndarray, Jm: np.ndarray,
                           cfg: OptimizerConfig) -> list[FrameSearchResult]:
    """``max_holomorphic_sectional`` of every tensor of a (T, N, N) stack: the
    T * cfg.restarts ascents run as one ``_descend`` stack, each tensor from
    the same seeded starts, and each result is the best of its own rows.
    Each tensor is searched as M / s (``_unit_scale``) and scaled back.  The
    stack runs with ``_newton_finish`` (``_hol_newton``): its Newton passes
    are ``newton_passes``, and each result counts the rows of its tensor
    that Newton took to _GRAD_TOL and those it handed back."""
    r = cfg.restarts
    s = _unit_scale(mats)
    unit = mats / s[:, None, None]
    starts = np.tile(_random_starts(cfg, len(Jm), 1), (len(mats), 1, 1))
    newton = _hol_newton(unit, Jm, r)
    # _descend calls finish at most once: -2 marks a row with no Newton step
    codes, newton_passes = np.full(len(starts), -2), np.zeros(1, dtype=int)

    def finish(X, val, P, rows, iters):
        *res, codes[rows], newton_passes[0] = _newton_finish(
            newton, X, val, P, rows, iters, cfg.max_iters)
        return *res, int(newton_passes[0])

    negvals, X, iterations, reasons, passes = _descend(
        _hol_value_grad(unit, Jm, r), starts, cfg, finish=finish)
    results = _split_results(negvals, X[:, :, 0], iterations, reasons, passes, r, -s,
                             lambda x: x)
    for res, own in zip(results, codes.reshape(-1, r)):
        res.newton_passes = int(newton_passes[0])
        res.newton_finished = int(np.count_nonzero(own == 0))
        res.newton_handed_back = int(np.count_nonzero(own == -1))
    return results


def max_holomorphic_sectional(R: CurvatureTensor, J: ComplexStructure,
                              cfg: OptimizerConfig | None = None) -> FrameSearchResult:
    """Multistart maximization of R(X, JX, X, JX) over unit X."""
    cfg = cfg or OptimizerConfig()
    _require_same_n(R, J, "complex structure")
    return _max_holomorphic_stack(R.mat[None], J.matrix, cfg)[0]


def _complement(V: np.ndarray) -> np.ndarray:
    """Orthonormal columns (..., n, n - k) spanning the orthogonal complement
    of the span of a stack V (..., n, k) of full-rank columns: the last n - k
    columns of its complete QR (empty for k = n)."""
    return np.linalg.qr(V, mode="complete")[0][..., V.shape[-1]:]


def _restricted_bisectional(Omega: np.ndarray, A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of W^T B W for Omega = R(x, Ax, ., .) and
    orthonormal columns W, where B = (Omega A + A Omega) / 2 is the symmetric
    matrix with y^T B y = R(x, Ax, y, Ay); stacks (T, n, n) of Omega and
    (T, n, d) of W give (T, d)."""
    return np.linalg.eigvalsh(np.swapaxes(W, -1, -2) @ (0.5 * (Omega @ A + A @ Omega)) @ W)


@dataclass(frozen=True)
class FirstOrderReport:
    """Stationarity data of X for the holomorphic sectional functional."""

    value: float          # R(X,JX,X,JX)
    deriv_y: float        # max |R(X,JX,X,Y)| over unit Y orthogonal to X, JX
    deriv_jy: float       # max |R(X,JX,X,JY)| over the same Y
    min_slack: float      # min over Y of R(X,JX,X,JX) - 2 R(X,JX,Y,JY)
    passed: bool
    tol: float


def _first_order(Omega: np.ndarray, Jm: np.ndarray, x: np.ndarray,
                 tol: float) -> list[FirstOrderReport]:
    """``maximizer_first_order_check`` at each x of a stack (T, n), from Omega = R(x, Jx, ., .)
    (T, n, n), over the ``_complement`` W of each span{x, Jx}."""
    jx = x @ Jm.T
    W = _complement(np.stack([x, jx], axis=-1))
    u = (x[:, None, :] @ Omega)[:, 0]        # u_i = R(x, jx, x, e_i)
    h = np.einsum("ti,ti->t", u, jx)         # R(x,jx,x,jx)
    deriv = np.linalg.norm(np.stack([u, u @ Jm.T], axis=1) @ W, axis=-1)   # (T, 2): y, jy
    min_slack = h - 2.0 * _restricted_bisectional(Omega, Jm, W).max(axis=-1, initial=-np.inf)
    passed = (deriv <= tol).all(axis=-1) & (min_slack >= -tol)
    return [FirstOrderReport(value=float(v), deriv_y=float(dy), deriv_jy=float(djy),
                             min_slack=float(m), passed=bool(p), tol=tol)
            for v, (dy, djy), m, p in zip(h, deriv, min_slack, passed)]


def maximizer_first_order_check(R: CurvatureTensor, J: ComplexStructure,
                                x: np.ndarray, tol: float = FIRST_ORDER_TOL) -> FirstOrderReport:
    """Check the first-order maximality conditions of R(X,JX,X,JX) at X.

    At a maximizer, R(X,JX,X,Y) = R(X,JX,X,JY) = 0 and
    2 R(X,JX,Y,JY) <= R(X,JX,X,JX) for every unit Y orthogonal to X and JX.
    The extrema over Y are computed exactly (norm of a projected functional,
    top eigenvalue of the restricted bisectional form).  For n = 2 no such Y
    exists and the conditions hold vacuously (min_slack = +inf).  The T = 1
    case of ``_first_order``, ``_restricted_bisectional`` and ``_complement``.
    CurvatureError unless |x| = 1 to FEASIBILITY_TOL: the terms scale
    differently in |x|.
    """
    _require_same_n(R, J, "complex structure")
    x = _require_vector(x, R.n, "x")
    if not abs(float(x @ x) - 1.0) <= FEASIBILITY_TOL:
        raise CurvatureError(f"x must be a unit vector, got |x|^2 = {float(x @ x):.6g}")
    return _first_order(curvature_map(R, x, J.matrix @ x)[None], J.matrix, x[None], tol)[0]


# ---------------------------------------------------------------------------
# Orthogonal bisectional minimization over constrained pairs
# ---------------------------------------------------------------------------

def _bisectional_value_grad(mats: np.ndarray, Jm: np.ndarray, V: np.ndarray, r: int):
    """Closure: R(x, Jx, y, Jy) = (x ^ Jx) . M (y ^ Jy), x ^ Jx = T_x x
    (``_structure_forms``), at (x, y) = Re(V Z) of complex pairs Z (b, m, 2),
    for a (T, N, N) stack, r rows of F0 per tensor (``_block_product``), and
    its Euclidean gradient in Z, V^H (2 T_x^T M (y ^ Jy), 2 T_y^T M (x ^ Jx))."""
    N, n, S, Vh = mats.shape[1], len(Jm), _structure_forms(Jm), V.conj().T

    def value_grad(Z, rows):
        X = np.swapaxes((V @ Z).real, 1, 2)                # (b, 2, n): x, y
        T = (X @ S).reshape(len(Z), 2, N, n)
        w = (T @ X[..., None])[..., 0]                     # x ^ Jx, y ^ Jy
        mw = _block_product(w, rows, mats, r)[:, ::-1]     # M (y ^ Jy), M (x ^ Jx)
        g = 2.0 * (mw[:, :, None, :] @ T)[:, :, 0]
        return np.einsum("bp,bp->b", w[:, 0], mw[:, 0]), Vh @ np.swapaxes(g, 1, 2)

    return value_grad


def min_orthogonal_bisectional(R: CurvatureTensor, J: ComplexStructure,
                               cfg: OptimizerConfig | None = None) -> FrameSearchResult:
    """Minimize R(X, JX, Y, JY) over unit X, Y with Y orthogonal to X and JX.

    These pairs are the complex Stiefel manifold V_2(C^m), n = 2m: V, sqrt 2
    times an orthonormal basis of the +i eigenspace of J, makes x = Re(V z)
    an isometry C^m -> R^n with Jx = Re(V iz) and z = V^H x, so they are
    (X, Y) = Re(V (z, w)) for orthonormal (z, w).  All restarts descend as
    one complex (B, m, 2) stack on V_2(C^m) itself, so every iterate is such
    a pair.  Restart r starts at (V^H x, V^H y) from the draws x, then y, of
    seed cfg.seed + r; their complex QR is x / |x| and y projected off
    {x, Jx} and normalized.  Each restart's value is that of its final pair.
    ``restart_frames`` holds the (X, Y) columns; the frame is (X, JX, Y, JY).
    No such Y exists for n < 4 (CurvatureError).  The search runs on M / s
    (``_unit_scale``) and scales back.
    """
    cfg = cfg or OptimizerConfig()
    n, Jm = R.n, J.matrix
    _require_same_n(R, J, "complex structure")
    if n < 4:
        raise CurvatureError("no unit Y is orthogonal to X and JX for n < 4")
    s = _unit_scale(R.mat[None])
    V = _holomorphic_frame(Jm)                                  # iJ V = -V
    starts = V.conj().T @ np.moveaxis(_random_starts(cfg, 2, n), 1, 2)   # x, then y, per seed
    values, Z, iterations, reasons, passes = _descend(
        _bisectional_value_grad(R.mat[None] / s[0], Jm, V, cfg.restarts), starts, cfg)
    return _split_results(values, (V @ Z).real, iterations, reasons, passes,
                          cfg.restarts, s,   # (X, Y) to (X, JX, Y, JY)
                          lambda XY: FourFrame(np.stack([XY, Jm @ XY], -1).reshape(n, 4)))[0]


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
    a frame away from the boundary makes the check inapplicable, not failed,
    and a non-finite one raises NonFiniteError.  Every comparison is to
    tol = CHECK_TOL, which the report carries.
    """
    _require_same_n(R, frame, "frame")
    if not np.isfinite(min_iso):
        raise NonFiniteError(f"boundary check: min_iso is not finite, got {min_iso!r}")
    iso = float(isotropic_from_columns(R.mat, frame.matrix))
    applicable = abs(iso) <= CHECK_TOL and min_iso >= -CHECK_TOL
    q_val = float(isotropic_from_columns(qform(R).mat, frame.matrix))
    passed = (q_val >= -CHECK_TOL) if applicable else None
    return BoundaryQReport(iso_value=iso, q_value=q_val, applicable=applicable,
                           passed=passed, tol=CHECK_TOL)


@dataclass(frozen=True)
class QKBoundReport:
    """Sharp reaction bound at the joint maximizer over structures and vectors."""

    search: FrameSearchResult   # the maximizer search for J = I, see qk_q_bound_check
    max_value: float        # R1(X,JX,X,JX) at the maximizer
    q_value: float          # Q(R1)(X,JX,X,JX)
    bound: float            # (2m+4) * max_value^2
    slack: float            # bound - q_value
    y2_max_excess: float    # max over the paired basis of 4 R1(X,JX,w,Jw)^2 - max_value^2
    first_order: FirstOrderReport
    hk_residual: float
    passed: bool
    tol: float


def qk_q_bound_check(R1s, T: QuaternionTriple, cfg: OptimizerConfig | None = None):
    """Verify Q(R1)(X,JX,X,JX) <= (2m+4) R1(X,JX,X,JX)^2 + CHECK_TOL at the
    maximizer; its first-order conditions are checked to FIRST_ORDER_TOL.

    ``R1s`` is one CurvatureTensor, which gives one QKBoundReport, or a
    sequence of them, which gives a list of reports in input order (``[]``
    for an empty one, and one tensor is its T = 1 case).  The gate, the
    search and the reports each run as one stack.  Every tensor passes the
    dimension check and the hyper-Kahler residual gate (NaN fails it) before
    any search runs, so a bad tensor t raises CurvatureError naming t.  The
    searches, ``cfg.restarts`` ascents per tensor from the same seeded
    starts, run as one ``_descend`` stack; each tensor's X is the best of its
    own rows, exactly as in ``max_holomorphic_sectional(R1, T.I, cfg)``, and
    its report's ``search`` is that tensor's result of the stack (stop
    reasons, iterations, passes and Newton counts).

    The bound holds at the joint maximum of R1(X,JX,X,JX) over unit X and
    unit combinations J = aI + bJ + cK, and that maximum is reached at J = I.
    A hyper-Kahler R1 lies in Sym^2(sp(m)), and sp(m) commutes with the unit
    quaternions q = a + bI + cJ + dK acting on R^n, so R1 is q-invariant.  As
    q I q^-1 covers the structure sphere,
    R1(X, qIq^-1 X, X, qIq^-1 X) = R1(q^-1 X, I q^-1 X, q^-1 X, I q^-1 X).
    X is therefore the multistart maximizer for I, and I is the J of every
    report.  The hyper-Kahler residual gate is the precondition of this
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
    eigenvalue problem.  Omega also serves the first-order check.
    """
    cfg = cfg or OptimizerConfig()
    single = isinstance(R1s, CurvatureTensor)
    tensors = [R1s] if single else list(R1s)
    for R1 in tensors:
        _require_same_n(R1, T, "triple")
    if not tensors:
        return []
    mats = np.stack([R1.mat for R1 in tensors])
    # the precondition of the reduction to J = I (see the docstring); NaN fails it
    residuals = _invariance_defects(mats, T.matrices)
    refs = np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))
    for t in np.flatnonzero(~(residuals <= 1e-8 * refs))[:1]:
        raise CurvatureError(f"input {t} fails the hyperkahler residual check: {residuals[t]:.3e}")
    reports = _qk_reports(mats, T, _max_holomorphic_stack(mats, T.I.matrix, cfg), residuals)
    return reports[0] if single else reports


def _qk_reports(mats: np.ndarray, T: QuaternionTriple, searches: list,
                residuals: np.ndarray) -> list[QKBoundReport]:
    """The reports of ``qk_q_bound_check`` on a (T, N, N) stack at its maximizer
    ``searches`` for I, from (T, ...) arrays and one Q of the whole stack
    (``core._reaction``); each report carries its search unchanged."""
    n = T.n
    vals = np.array([res.value for res in searches])
    X = np.stack([res.frame_or_vector for res in searches])
    IX, JX, KX = (X @ A.T for A in T.matrices)
    w = wedge(X, IX)
    # the batched form of v @ Q_t @ v, bit for bit (an einsum differs in ulps)
    q_vals = (w[:, None, :] @ _reaction(mats, n) @ w[..., None])[:, 0, 0]
    bounds = (2 * (n // 4) + 4) * vals * vals
    Omega = _unpack_two_form((mats @ w[..., None])[..., 0], n)
    firsts = _first_order(Omega, T.I.matrix, X, FIRST_ORDER_TOL)
    # the paired diagnostic: B is +-lambda on the quaternionic complement of X
    lam = _restricted_bisectional(Omega, T.I.matrix, _complement(np.stack([X, IX, JX, KX], -1)))
    excess = 4.0 * np.max(lam * lam, axis=-1, initial=0.0) - vals * vals
    return [QKBoundReport(search=res, max_value=res.value, q_value=float(q), bound=float(b),
                          slack=float(b - q), y2_max_excess=float(e), first_order=first,
                          hk_residual=float(r), passed=bool(q <= b + CHECK_TOL), tol=CHECK_TOL)
            for res, q, b, e, first, r in zip(searches, q_vals, bounds, excess, firsts, residuals)]
