"""Pointwise algebra of curvature-type tensors on R^n with the metric frozen to the identity.

A curvature tensor here is a quadrilinear form R(X, Y, Z, W) with

    R(X,Y,Z,W) = -R(Y,X,Z,W) = -R(X,Y,W,Z) = R(Z,W,X,Y),
    R(X,Y,Z,W) + R(Y,Z,X,W) + R(Z,X,Y,W) = 0   (first Bianchi identity).

Canonical storage is the symmetric N x N coefficient matrix M on the
lexicographically ordered 2-form basis {e_i ^ e_j : i < j}, N = n(n-1)/2,
with M[ij, kl] = R_ijkl; the full rank-4 table is a view expanded on demand,
needed only at I/O boundaries.  Values are immutable after construction and
every operation is a pure function of its inputs.

The reaction term of dR/dt = Q(R) is Hamilton's Q(R) = R^2 + R#
(Hamilton 1986, "Four-manifolds with positive curvature operator"; R# is the
Lie-algebraic square of Boehm-Wilking 2008).  It is computed from the
n^2 x n^2 matrix X[(i,k),(p,q)] = R_ipkq without forming it.  X commutes
with the swap (i,k) <-> (k,i), so it splits into two blocks.  On
antisymmetric pairs it is M itself, by the first Bianchi identity
X[(i,k),(p,q)] - X[(k,i),(p,q)] = R_ikpq.  On Sym^2 (pairs i <= k, size
K = n(n+1)/2) it is the curvature operator Sigma[{ik},{pq}] = R_ipkq + R_kpiq.
The cross terms vanish, so with W = diag(1 if p = q, 2 if p < q) and s(i,k)
the sign of e_i ^ e_k against the basis (0 for i = k),

    (X_R X_S)[(i,k),(j,l)] = 1/4 (Sigma_R W Sigma_S)[{ik},{jl}]
                             + 1/2 s(i,k) s(j,l) (M_R M_S)[ik,jl],

and with H = (Sigma_R W Sigma_S + Sigma_S W Sigma_R)/4, P = M_R M_S + M_S M_R,

    B(R, S).mat = P + H[{ik},{jl}] - H[{il},{jk}]
                  + 1/2 s(i,k) s(j,l) P[ik,jl] - 1/2 s(i,l) s(j,k) P[il,jk]:

one K x K product besides M_R M_S; Q(R) = B(R, R) takes it as the symmetric
product H = V V^T with V = Sigma sqrt(W/2).  The Kulkarni-Nomizu product of
symmetric h, k is gathered from h and k on the pair-index grids, as
``two_form_action`` gathers A.  Ric_pq = sum_i X[(i,i),(p,q)]
reads n^3 entries.
The first Bianchi identity is likewise read on M: for i<j<k<l the cyclic sum
is b = M[ij,kl] - M[ik,jl] + M[il,jk], and distinct quadruples involve
disjoint entries.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from numbers import Integral

import numpy as np

# Relative tolerance applied when validating tensors and frames at construction.
CONSTRUCTION_TOL = 1e-9
# Looser tolerance for feasibility of optimizer-produced configurations.
FEASIBILITY_TOL = 1e-6
# Relative tolerance of the Bianchi check on every reaction-term output.
REACTION_TOL = 1e-10


class CurvatureError(ValueError):
    """Raised when an input violates a curvature symmetry or a frame constraint."""


class NonFiniteError(CurvatureError):
    """Raised when a given or computed coefficient matrix has a non-finite
    entry, for example when a reaction term overflows."""


# ---------------------------------------------------------------------------
# 2-form index bookkeeping
# ---------------------------------------------------------------------------

def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices (i, j), i < j, of the lex-ordered 2-form basis."""
    iu, ju = np.triu_indices(n, 1)
    return _frozen(iu), _frozen(ju)


def num_pairs(n: int) -> int:
    return n * (n - 1) // 2


def wedge(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of x ^ y on the 2-form basis: (x_i y_j - x_j y_i) for i < j, per stack row."""
    iu, ju = pair_indices(x.shape[-1])
    return x[..., iu] * y[..., ju] - x[..., ju] * y[..., iu]


def _unpack_two_form(v: np.ndarray, n: int) -> np.ndarray:
    """Antisymmetric n x n matrix with upper-triangular entries v; stacks
    (..., N) give (..., n, n)."""
    iu, ju = pair_indices(n)
    A = np.zeros(v.shape[:-1] + (n, n))
    A[..., iu, ju] = v
    A[..., ju, iu] = -v
    return A


@lru_cache(maxsize=None)
def _pair_positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n x n tables (pos, sign) with e_i ^ e_p = sign[i, p] * (basis 2-form pos[i, p]).

    The diagonal has sign 0 (and pos 0, so that gathers through it stay in range).
    """
    iu, ju = pair_indices(n)
    pos = np.zeros((n, n), dtype=np.intp)
    pos[iu, ju] = pos[ju, iu] = np.arange(len(iu))
    sign = np.zeros((n, n))
    sign[iu, ju] = 1.0
    sign[ju, iu] = -1.0
    return _frozen(pos), _frozen(sign)


@lru_cache(maxsize=None)
def _sym_block_gather(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into M, and coefficients, of the two terms (axis 0) of
    V[{ik},{pq}] = sqrt(w_pq/2) (R_ipkq + R_kpiq), i <= k, p <= q, with
    w_pq = 1 if p = q and 2 otherwise."""
    pos, sign = _pair_positions(n)
    N = num_pairs(n)
    si, sk = np.triu_indices(n)
    i, k = si[:, None], sk[:, None]
    p, q = si[None, :], sk[None, :]
    idx = np.stack([pos[i, p] * N + pos[k, q], pos[k, p] * N + pos[i, q]])
    coef = np.stack([sign[i, p] * sign[k, q], sign[k, p] * sign[i, q]])
    coef *= np.where(p == q, np.sqrt(0.5), 1.0)
    return _frozen(idx), _frozen(coef)


def _gather(mat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The entries of an N x N matrix at the flat indices idx, shaped as idx;
    of a (..., N, N) stack, shaped (..., *idx.shape)."""
    return mat.reshape(mat.shape[:-2] + (-1,)).take(idx, axis=-1)


def _sym_block(mat: np.ndarray, n: int) -> np.ndarray:
    """The K x K matrix V = Sigma sqrt(W/2) of the coefficients mat, where Sigma
    is the block of X on Sym^2 and W = diag(w): V V'^T = Sigma W Sigma'/2.
    A (..., N, N) stack gives a (..., K, K) stack."""
    idx, coef = _sym_block_gather(n)
    t = _gather(mat, idx)
    t *= coef
    return t[..., 0, :, :] + t[..., 1, :, :]


@lru_cache(maxsize=None)
def _reaction_gather(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the basis pairs (ij) on rows and (kl) on columns: flat indices into a
    K x K matrix on Sym^2 of its entries {ik},{jl} and {il},{jk} (axis 0); flat
    indices into an N x N matrix on 2-forms of its entries ik,jl and il,jk; and
    the coefficients s(i,k) s(j,l)/2 and -s(i,l) s(j,k)/2 of the latter, with
    s the sign of e_a ^ e_b against the basis (0 for a = b).  Sym^2 has the
    lex-ordered basis {i, k}, i <= k, of size K = n(n+1)/2."""
    pos, sign = _pair_positions(n)
    si, sk = np.triu_indices(n)
    K = len(si)
    spos = np.zeros((n, n), dtype=np.intp)
    spos[si, sk] = spos[sk, si] = np.arange(K)
    N = num_pairs(n)
    iu, ju = pair_indices(n)
    i, j = iu[:, None], ju[:, None]
    k, l = iu[None, :], ju[None, :]
    sym = np.stack([spos[i, k] * K + spos[j, l], spos[i, l] * K + spos[j, k]])
    anti = np.stack([pos[i, k] * N + pos[j, l], pos[i, l] * N + pos[j, k]])
    coef = 0.5 * np.stack([sign[i, k] * sign[j, l], -sign[i, l] * sign[j, k]])
    return _frozen(sym), _frozen(anti), _frozen(coef)


def _reaction_mat(P: np.ndarray, H: np.ndarray, n: int) -> np.ndarray:
    """N x N matrix P[ij,kl] + H[{ik},{jl}] - H[{il},{jk}]
    + 1/2 s(i,k) s(j,l) P[ik,jl] - 1/2 s(i,l) s(j,k) P[il,jk] of a symmetric
    N x N matrix P on 2-forms and a symmetric K x K matrix H on Sym^2, or of
    matching (..., N, N) and (..., K, K) stacks of them.  It is exactly
    symmetric: entry (kl, ij) sums the same five values as (ij, kl), in the
    same order."""
    sym, anti, coef = _reaction_gather(n)
    h = _gather(H, sym)
    a = _gather(P, anti)
    a *= coef
    mat = P + h[..., 0, :, :]
    mat -= h[..., 1, :, :]
    mat += a[..., 0, :, :]
    mat += a[..., 1, :, :]
    return mat


@lru_cache(maxsize=None)
def _pair_grid_gather(n: int) -> np.ndarray:
    """Flat indices into an n x n matrix of its entries ik, jl, il, jk (axis 0)
    for the basis pairs (ij) on rows and (kl) on columns."""
    iu, ju = pair_indices(n)
    i, j = n * iu[:, None], n * ju[:, None]
    return _frozen(np.stack([i + iu, j + ju, i + ju, j + iu]))


def _kulkarni_nomizu_mat(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Pair-basis matrix (h o k)[ij,kl] = h_ik k_jl + h_jl k_ik - (h_il k_jk + h_jk k_il) of
    symmetric h and k (exactly symmetric), or (..., N, N) of broadcast (..., n, n) stacks."""
    idx = _pair_grid_gather(h.shape[-1])
    h_ik, h_jl, h_il, h_jk = np.moveaxis(_gather(h, idx), -3, 0)
    k_ik, k_jl, k_il, k_jk = np.moveaxis(_gather(k, idx), -3, 0)
    return h_ik * k_jl + h_jl * k_ik - (h_il * k_jk + h_jk * k_il)


@lru_cache(maxsize=None)
def _bianchi_gather(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into the N x N matrix M of the entries (ij,kl), (ik,jl),
    (il,jk) (axis 0) of every quadruple i<j<k<l (axis 1), and of their
    transposes.  Distinct quadruples never share an entry."""
    pos, _ = _pair_positions(n)
    N = num_pairs(n)
    i, j, k, l = np.array(list(combinations(range(n), 4)), dtype=np.intp).reshape(-1, 4).T
    rows = np.stack([pos[i, j], pos[i, k], pos[i, l]])
    cols = np.stack([pos[k, l], pos[j, l], pos[j, k]])
    return _frozen(rows * N + cols), _frozen(cols * N + rows)


_BIANCHI_SIGNS = np.array([1.0, -1.0, 1.0])[:, None]


def bianchi_sums(mat: np.ndarray, n: int) -> np.ndarray:
    """Cyclic sums b = M[ij,kl] - M[ik,jl] + M[il,jk] = R_ijkl + R_jkil + R_kijl,
    one per quadruple i<j<k<l (last axis; a stack of matrices gives a stack
    of sums); the cyclic sum vanishes on repeated indices."""
    e = _gather(mat, _bianchi_gather(n)[0])
    b = e[..., 0, :] - e[..., 1, :]
    b += e[..., 2, :]
    return b


def bianchi_defect(mat: np.ndarray, n: int) -> float:
    """Max |cyclic sum| of a symmetric coefficient matrix: the first-Bianchi
    defect of its rank-4 table.  NaN if any involved entry is NaN."""
    return float(abs(bianchi_sums(mat, n)).max(initial=0.0))


def project_bianchi(mat: np.ndarray, n: int) -> np.ndarray:
    """Orthogonal projection of a symmetric coefficient matrix, or of each
    matrix of a (..., N, N) stack, onto the kernel of the cyclic sum: each
    quadruple's three entries and their transposes move by -b/3 (1, -1, 1)."""
    fwd, bwd = _bianchi_gather(n)
    corr = _BIANCHI_SIGNS * (bianchi_sums(mat, n) / 3.0)[..., None, :]
    out = np.array(mat, dtype=float)
    flat = out.reshape(out.shape[:-2] + (-1,))
    flat[..., fwd] -= corr
    flat[..., bwd] -= corr
    return out


def two_form_action(A: np.ndarray) -> np.ndarray:
    """Matrix C_A of A acting on 2-forms: column kl is (A e_k) ^ (A e_l) in the pair basis."""
    a_ik, a_jl, a_il, a_jk = _gather(np.asarray(A), _pair_grid_gather(len(A)))
    return a_ik * a_jl - a_jk * a_il


def _require_bianchi(mats: np.ndarray, n: int, what: str, tol: float,
                     scales=1.0) -> None:
    """CurvatureError unless the Bianchi defect of each coefficient matrix M_t
    of mats, one (N, N) matrix or a (T, N, N) stack, is at most
    tol * max(1, |M_t|_max, scales[t]) (``scales`` a scalar or one per
    matrix); NonFiniteError unless M_t is finite.  For a stack the error of
    the first that fails names its index t."""
    defects = abs(bianchi_sums(mats, n)).max(axis=-1, initial=0.0)
    refs = abs(mats).max(axis=(-2, -1), initial=1.0)
    # NaN fails every comparison.  The scales are or-ed in and all() reads
    # .flat because np.maximum and .all() on the numpy scalars of one matrix
    # would cost about half as much again as the check itself.
    ok = (refs < np.inf) & ((defects <= tol * refs) | (defects <= tol * scales))
    if all(ok.flat):
        return
    t = np.flatnonzero(~ok)[0]
    defect, ref = float(np.ravel(defects)[t]), float(np.ravel(np.maximum(refs, scales))[t])
    if mats.ndim > 2:
        what = f"{what} {t}"
    if not ref < np.inf:
        raise NonFiniteError(f"{what} is not finite: Bianchi defect {defect:.3e}, "
                             f"scale {ref:.3e}")
    raise CurvatureError(f"{what} Bianchi defect {defect:.3e} exceeds {tol:.1e} * {ref:.3e}")


def _stored(mat: np.ndarray, n: int) -> "CurvatureTensor":
    """The tensor of a computed, exactly symmetric coefficient matrix, stored
    as it is: the constructor's 0.5 (M + M^T) would only copy it.  Nothing is
    checked here; :func:`_reaction` checks each of its inputs, and the flow's
    stages, which skip that check, are tested for finiteness instead."""
    T = object.__new__(CurvatureTensor)
    T.n, T.mat, T.label = n, _frozen(mat), None
    return T


def _require_same_n(R: "CurvatureTensor", other, what: str) -> None:
    """CurvatureError unless ``other`` (a structure, frame or space) has R's dimension."""
    if other.n != R.n:
        raise CurvatureError(f"tensor and {what} dimensions differ: {R.n} and {other.n}")


def _require_vector(x, n: int, what: str) -> np.ndarray:
    """``x`` as a float array, CurvatureError unless its shape is (n,),
    NonFiniteError unless its entries are finite."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise CurvatureError(f"{what} must have shape ({n},), got {x.shape}")
    if not np.isfinite(x).all():
        raise NonFiniteError(f"{what} has non-finite entries")
    return x


def invariance_defect(R: "CurvatureTensor", structures) -> float:
    """max |R(., ., A., A.) - R| over the matrices A in ``structures``,
    computed on the pair basis as max |M C_A - M|: T = 1 of :func:`_invariance_defects`."""
    return float(_invariance_defects(R.mat[None], structures)[0])


def _invariance_defects(mats: np.ndarray, structures) -> np.ndarray:
    """:func:`invariance_defect` of each matrix of a (T, N, N) stack, (T,): one
    product of the stack with every C_A side by side; NaN for a NaN entry."""
    if not len(structures):
        return np.zeros(len(mats))
    C = np.concatenate([two_form_action(A) for A in structures], axis=1)
    D = (mats @ C).reshape(mats.shape[:2] + (len(structures), -1)) - mats[:, :, None]
    return np.abs(D).max(axis=(1, 2, 3))


# ---------------------------------------------------------------------------
# The tensor type
# ---------------------------------------------------------------------------

class CurvatureTensor:
    """Algebraic curvature tensor, stored on the 2-form basis.

    Use :func:`CurvatureTensor.from_rank4` or :func:`project_to_curvature` to
    build one from a raw rank-4 table; the models below construct standard
    examples directly.  The constructor symmetrizes ``mat`` and raises
    :class:`CurvatureError` for a bool or non-integer ``n``, a wrong shape or
    a non-finite entry.
    """

    __slots__ = ("n", "mat", "label")

    def __init__(self, n: int, mat: np.ndarray, label: str | None = None):
        if isinstance(n, bool) or not isinstance(n, Integral) or n < 2:
            raise CurvatureError(f"dimension must be an integer >= 2, got {n!r}")
        mat = np.asarray(mat, dtype=float)
        if mat.shape != (num_pairs(n), num_pairs(n)):
            raise CurvatureError(f"coefficient matrix has shape {mat.shape}, "
                                 f"expected ({num_pairs(n)}, {num_pairs(n)}) for n={n}")
        if not np.isfinite(mat).all():
            raise NonFiniteError("coefficient matrix has non-finite entries")
        self.n = int(n)
        self.mat = _frozen(0.5 * (mat + mat.T))
        self.label = label

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rank4(cls, table: np.ndarray, tol: float = CONSTRUCTION_TOL,
                   label: str | None = None) -> "CurvatureTensor":
        """Validate a rank-4 table against all curvature symmetries and store it.

        Raises :class:`CurvatureError` if any symmetry defect exceeds
        ``tol * max(1, |table|_max)``.
        """
        T = np.asarray(table, dtype=float)
        if T.ndim != 4 or len(set(T.shape)) != 1:
            raise CurvatureError(f"expected an (n,n,n,n) table, got shape {T.shape}")
        n = T.shape[0]
        if not np.all(np.isfinite(T)):
            raise CurvatureError("rank-4 table has non-finite entries")
        defect = symmetry_defect(T)
        ref = max(1.0, float(np.max(np.abs(T))))
        if defect > tol * ref:
            raise CurvatureError(
                f"symmetry defect {defect:.3e} exceeds {tol:.1e} * {ref:.3e}")
        iu, ju = pair_indices(n)
        # Average over the pair-exchange orbit to shed roundoff asymmetry.
        M = T[iu[:, None], ju[:, None], iu[None, :], ju[None, :]]
        return cls(n, M, label=label)

    # -- views -------------------------------------------------------------

    @property
    def rank4(self) -> np.ndarray:
        """Full (n,n,n,n) table R_{ijkl}, expanded from ``mat`` on every access."""
        pos, sign = _pair_positions(self.n)
        T = self.mat[pos[:, :, None, None], pos]
        T *= sign[:, :, None, None]
        T *= sign
        return T

    def norm(self) -> float:
        """Frobenius norm of the rank-4 table (= 2 |mat|_F)."""
        return 2.0 * float(np.linalg.norm(self.mat))

    def validation_defect(self) -> float:
        """Max first-Bianchi violation of the stored coefficients (absolute)."""
        return bianchi_defect(self.mat, self.n)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "CurvatureTensor") -> "CurvatureTensor":
        self._check_same(other)
        return CurvatureTensor(self.n, self.mat + other.mat)

    def __sub__(self, other: "CurvatureTensor") -> "CurvatureTensor":
        self._check_same(other)
        return CurvatureTensor(self.n, self.mat - other.mat)

    def __mul__(self, c: float) -> "CurvatureTensor":
        return CurvatureTensor(self.n, float(c) * self.mat)

    __rmul__ = __mul__

    def __neg__(self) -> "CurvatureTensor":
        return CurvatureTensor(self.n, -self.mat)

    def _check_same(self, other: "CurvatureTensor") -> None:
        if not isinstance(other, CurvatureTensor) or other.n != self.n:
            raise CurvatureError("dimension mismatch between curvature tensors")

    def __repr__(self) -> str:
        tag = f", label={self.label!r}" if self.label else ""
        return f"CurvatureTensor(n={self.n}, norm={self.norm():.6g}{tag})"


def inner(R: CurvatureTensor, S: CurvatureTensor) -> float:
    """Frobenius inner product of the rank-4 tables (= 4 <mat, mat>)."""
    R._check_same(S)
    return 4.0 * float(np.vdot(R.mat, S.mat))


def zero_tensor(n: int) -> CurvatureTensor:
    return CurvatureTensor(n, np.zeros((num_pairs(n), num_pairs(n))))


# ---------------------------------------------------------------------------
# Symmetrization / projection
# ---------------------------------------------------------------------------

def symmetry_defect(T: np.ndarray) -> float:
    """Largest absolute violation among the two antisymmetries, pair symmetry
    and the first Bianchi identity of a rank-4 table."""
    d = max(
        float(np.max(np.abs(T + T.transpose(1, 0, 2, 3)))),
        float(np.max(np.abs(T + T.transpose(0, 1, 3, 2)))),
        float(np.max(np.abs(T - T.transpose(2, 3, 0, 1)))),
        float(np.max(np.abs(T + T.transpose(1, 2, 0, 3) + T.transpose(2, 0, 1, 3)))),
    )
    return d


def project_to_curvature(table: np.ndarray, n: int | None = None) -> CurvatureTensor:
    """Orthogonal projection of an arbitrary rank-4 table onto curvature tensors.

    Antisymmetrizes both index pairs while gathering onto the pair basis,
    symmetrizes pair exchange, then removes the cyclic (Bianchi-violating)
    part with :func:`project_bianchi`.
    """
    T = np.asarray(table, dtype=float)
    if T.ndim != 4 or len(set(T.shape)) != 1:
        raise CurvatureError(f"expected an (n,n,n,n) table, got shape {T.shape}")
    if n is not None and n != T.shape[0]:
        raise CurvatureError(f"dimension argument {n} does not match table shape {T.shape}")
    n = T.shape[0]
    if n < 2:
        raise CurvatureError("need n >= 2")
    iu, ju = pair_indices(n)
    i, j, k, l = iu[:, None], ju[:, None], iu[None, :], ju[None, :]
    M = 0.25 * (T[i, j, k, l] - T[j, i, k, l] - T[i, j, l, k] + T[j, i, l, k])
    return CurvatureTensor(n, project_bianchi(0.5 * (M + M.T), n))


# ---------------------------------------------------------------------------
# Evaluation and contractions
# ---------------------------------------------------------------------------

def evaluate(R: CurvatureTensor, x, y, z, w) -> float:
    """R(x, y, z, w) for arbitrary (not necessarily unit) vectors."""
    x, y, z, w = (_require_vector(v, R.n, name) for v, name in zip((x, y, z, w), "xyzw"))
    return float(wedge(x, y) @ R.mat @ wedge(z, w))


def curvature_map(R: CurvatureTensor, z, w) -> np.ndarray:
    """Antisymmetric matrix A with A[i, j] = R(e_i, e_j, z, w)."""
    v = R.mat @ wedge(_require_vector(z, R.n, "z"), _require_vector(w, R.n, "w"))
    return _unpack_two_form(v, R.n)


def ricci(R: CurvatureTensor) -> np.ndarray:
    """Ricci contraction Ric_{jl} = sum_i R_{ijil}; identity * (n-1) on the sphere model."""
    return _ricci_mat(R.mat, R.n)


def _ricci_mat(mat: np.ndarray, n: int) -> np.ndarray:
    """:func:`ricci` of a coefficient matrix, or (..., n, n) of a (..., N, N) stack."""
    pos, sign = _pair_positions(n)
    # R_ijil = s(i,j) s(i,l) M[pos(i,j), pos(i,l)], summed over i
    G = mat[..., pos[:, :, None], pos[:, None, :]]
    G *= sign[:, :, None]
    G *= sign[:, None, :]
    return G.sum(axis=-3)


def scalar_curvature(R: CurvatureTensor) -> float:
    """sum_ij R_{ijij} = 2 tr M."""
    return 2.0 * float(np.trace(R.mat))


def kulkarni_nomizu(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Rank-4 product (h @ k)_{ijkl} = h_ik k_jl + h_jl k_ik - h_il k_jk - h_jk k_il
    of symmetric n x n matrices h and k."""
    return CurvatureTensor(len(h), _kulkarni_nomizu_mat(h, k)).rank4


def weyl(R: CurvatureTensor) -> CurvatureTensor:
    """Totally trace-free part M - (ric0 @ g)/(n-2) - scal/(n(n-1)) id of R (n >= 4),
    as g @ g is 2 id; fails closed on a Bianchi defect above 1e-8 * max(1, |W|_max)."""
    n = R.n
    if n < 4:
        raise CurvatureError("Weyl part requires n >= 4")
    g = np.eye(n)
    ric = ricci(R)
    scal = float(np.trace(ric))
    ric0 = ric - (scal / n) * g
    mat = (R.mat - _kulkarni_nomizu_mat(ric0, g) / (n - 2)
           - (scal / (n * (n - 1))) * np.eye(len(R.mat)))
    _require_bianchi(mat, n, "Weyl part", 1e-8)
    return _stored(mat, n)


def einstein_normalize(R: CurvatureTensor, target: float | None = None) -> CurvatureTensor:
    """Add a Kulkarni-Nomizu correction so the Ricci tensor becomes target * id.

    The default target is n - 1 (unit-sphere normalization).  Uses
    Ric(h ^ g) = (n-2) h + tr(h) g to solve for the symmetric correction h.
    Fails closed like :func:`weyl`.  The one-tensor case of
    :func:`_einstein_stack`, whose errors name R as index 0.
    """
    return _stored(_einstein_stack(R.mat[None], R.n, target)[0], R.n)


def _einstein_stack(mats: np.ndarray, n: int, target: float | None = None) -> np.ndarray:
    """:func:`einstein_normalize` of every coefficient matrix of a (T, N, N)
    stack, as a (T, N, N) stack: one Ricci gather and one Kulkarni-Nomizu
    product for the whole stack.  Each output passes the Bianchi check to
    1e-8 against its own scale; the error of the first that fails names its
    index t."""
    if n < 3:
        raise CurvatureError("normalization requires n >= 3")
    target = float(n - 1) if target is None else float(target)
    g = np.eye(n)
    delta = target * g - _ricci_mat(mats, n)
    trh = np.trace(delta, axis1=-2, axis2=-1) / (2.0 * (n - 1))
    h = (delta - trh[:, None, None] * g) / (n - 2.0)
    out = mats + _kulkarni_nomizu_mat(h, g)
    _require_bianchi(out, n, "Einstein normalization", 1e-8)
    return out


# ---------------------------------------------------------------------------
# The reaction bilinear form B and its quadratic form Q
# ---------------------------------------------------------------------------

def bform(R: CurvatureTensor, S: CurvatureTensor) -> CurvatureTensor:
    """Symmetric bilinear form B(R, S); B(R, R) is the reaction term of the flow.

    B(R,S)(X,Y,Z,W) =
        1/2 sum_pq [R(X,Y,e_p,e_q) S(Z,W,e_p,e_q) + R(Z,W,e_p,e_q) S(X,Y,e_p,e_q)]
        + sum_pq [R(X,e_p,Z,e_q) S(Y,e_p,W,e_q) + R(Y,e_p,W,e_q) S(X,e_p,Z,e_q)]
        - sum_pq [R(X,e_p,W,e_q) S(Y,e_p,Z,e_q) + R(Y,e_p,Z,e_q) S(X,e_p,W,e_q)]

    evaluated on the Sym^2 and 2-form blocks as in the module docstring.  That
    split holds only for tensors that satisfy the first Bianchi identity, so
    each input must pass the Bianchi check to CONSTRUCTION_TOL relative to
    max(1, |M|_max), and the result to REACTION_TOL relative to
    max(1, |B|_max, |R| |S|); a larger defect, or any non-finite entry,
    raises :class:`CurvatureError`.  The one-matrix case of
    :func:`_reaction`; ``S is R`` is Q(R), which takes one Sym^2 block.
    """
    R._check_same(S)
    return _stored(_reaction(R.mat, R.n, None if S is R else S.mat), R.n)


def qform(R: CurvatureTensor) -> CurvatureTensor:
    """Quadratic reaction term Q(R) = B(R, R), the one-matrix case of :func:`_reaction`."""
    return _stored(_reaction(R.mat, R.n), R.n)


def _reaction(mats: np.ndarray, n: int, S: np.ndarray | None = None) -> np.ndarray:
    """B(R_t, S) of each coefficient matrix R_t of mats, one (N, N) matrix or a
    (T, N, N) stack, shaped as mats; Q(R_t) = B(R_t, R_t) when S is None.
    The checked form of :func:`_reaction_terms`: each R_t and S must pass the
    Bianchi check to CONSTRUCTION_TOL and each output to REACTION_TOL, the
    output against its own scale |R_t| |S| too; the first failure raises
    :class:`CurvatureError` (NonFiniteError for a non-finite one), and for a
    stack names its index t."""
    N = num_pairs(n)
    if mats.ndim not in (2, 3) or mats.shape[-2:] != (N, N):
        raise CurvatureError(f"expected an ({N}, {N}) matrix or a (T, {N}, {N}) stack, "
                             f"got shape {mats.shape}")
    _require_bianchi(mats, n, "reaction input", CONSTRUCTION_TOL)
    if S is not None:
        _require_bianchi(S, n, "reaction input", CONSTRUCTION_TOL)
    out, scales = _reaction_terms(mats, n, S)
    _require_bianchi(out, n, "reaction term", REACTION_TOL, scales)
    return out


def _reaction_terms(mats: np.ndarray, n: int,
                    S: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The arithmetic of :func:`_reaction`, unchecked: (B(R_t, S), |R_t| |S|)
    of each coefficient matrix R_t of mats, each shaped as mats and its
    leading axes; Q(R_t) = B(R_t, R_t) when S is None, from the symmetric
    product H = V V^T of one Sym^2 block V.  The split into blocks holds only
    for inputs that satisfy the first Bianchi identity, which the caller
    vouches for."""
    V = _sym_block(mats, n)
    if S is None:
        H = V @ V.swapaxes(-1, -2)
        A = mats @ mats
        scales = 4.0 * A.trace(0, -2, -1)       # |R_t|^2 = 4 |M_t|_F^2 = 4 tr(M_t^2)
    else:
        H = V @ _sym_block(S, n).T
        H += H.swapaxes(-1, -2)
        H *= 0.5
        A = mats @ S
        # |R_t| |S|, each the norm of a rank-4 table, 2 |M|_F
        scales = 4.0 * np.linalg.norm(mats, axis=(-2, -1)) * np.linalg.norm(S)
    return _reaction_mat(A + A.swapaxes(-1, -2), H, n), scales


def einstein_residual(R: CurvatureTensor, rho: float) -> float:
    """|Q(R) - 2 rho R| in Frobenius norm; zero for the parallel model tensors."""
    return (qform(R) - (2.0 * rho) * R).norm()


# ---------------------------------------------------------------------------
# Frames and complex/quaternionic structures
# ---------------------------------------------------------------------------

def _require_frames(F: np.ndarray) -> np.ndarray:
    """F, an (n, 4) matrix or a (T, n, 4) stack of them with n >= 4, unless
    some frame has a Gram defect above CONSTRUCTION_TOL (or a non-finite
    one): then CurvatureError, which for a stack names the index t of the
    first failing frame.  The check of :class:`FourFrame`."""
    if F.ndim not in (2, 3) or F.shape[-1] != 4 or F.shape[-2] < 4:
        raise CurvatureError(f"a 4-frame needs an (n, 4) matrix with n >= 4, got {F.shape}")
    defects = np.abs(np.swapaxes(F, -1, -2) @ F - np.eye(4)).max(axis=(-2, -1))
    bad = np.flatnonzero(~(defects <= CONSTRUCTION_TOL))
    if bad.size:
        which = f"frame {bad[0]}" if F.ndim == 3 else "frame"
        raise CurvatureError(f"{which} Gram defect {defects.flat[bad[0]]:.3e} exceeds "
                             f"{CONSTRUCTION_TOL:.1e}")
    return F


@dataclass(frozen=True)
class FourFrame:
    """Orthonormal 4-frame (Gram defect <= CONSTRUCTION_TOL), stored as its n x 4 columns."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2:
            raise CurvatureError(f"a 4-frame needs an (n, 4) matrix with n >= 4, got {m.shape}")
        object.__setattr__(self, "matrix", _frozen(_require_frames(m)))

    @classmethod
    def from_vectors(cls, e1, e2, e3, e4) -> "FourFrame":
        return cls(np.column_stack([e1, e2, e3, e4]))

    @property
    def vectors(self) -> tuple[np.ndarray, ...]:
        return tuple(self.matrix[:, a] for a in range(4))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ComplexStructure:
    """Orthogonal matrix J with J^2 = -id on R^n, n even, both to CONSTRUCTION_TOL."""

    matrix: np.ndarray

    def __post_init__(self):
        J = np.array(self.matrix, dtype=float)
        if J.ndim != 2 or J.shape[0] != J.shape[1] or len(J) % 2 != 0 or not J.size:
            raise CurvatureError("a complex structure needs a square matrix of even size")
        if not np.isfinite(J).all():
            raise NonFiniteError("complex structure has non-finite entries")
        eye = np.eye(len(J))
        defect = max(float(np.max(np.abs(J.T @ J - eye))),
                     float(np.max(np.abs(J @ J + eye))))
        if not defect <= CONSTRUCTION_TOL:
            raise CurvatureError(f"complex-structure defect {defect:.3e} exceeds "
                                 f"{CONSTRUCTION_TOL:.1e}")
        object.__setattr__(self, "matrix", _frozen(J))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(x, float)


@dataclass(frozen=True)
class QuaternionTriple:
    """Complex structures (I, J, K) with IJ = K to CONSTRUCTION_TOL (so IJK = -id); n = 4m."""

    I: ComplexStructure
    J: ComplexStructure
    K: ComplexStructure

    def __post_init__(self):
        n = self.I.n
        if self.J.n != n or self.K.n != n or n % 4 != 0:
            raise CurvatureError("quaternion triple needs matching structures on R^(4m)")
        defect = float(np.max(np.abs(self.I.matrix @ self.J.matrix - self.K.matrix)))
        if not defect <= CONSTRUCTION_TOL:
            raise CurvatureError(f"triple violates IJ = K by {defect:.3e}")

    @property
    def n(self) -> int:
        return self.I.n

    @property
    def matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.I.matrix, self.J.matrix, self.K.matrix)


def standard_complex_structure(n: int) -> ComplexStructure:
    """J acting blockwise: e_{2a} -> e_{2a+1}, e_{2a+1} -> -e_{2a}."""
    if n % 2 != 0 or n < 2:
        raise CurvatureError("need even n >= 2")
    J = np.zeros((n, n))
    for a in range(n // 2):
        J[2 * a + 1, 2 * a] = 1.0
        J[2 * a, 2 * a + 1] = -1.0
    return ComplexStructure(J)


def _holomorphic_frame(Jm: np.ndarray) -> np.ndarray:
    """V (n x m, n = 2m), sqrt 2 times an orthonormal basis of the +i
    eigenspace of J as columns: iJ V = -V, so x = Re(V z) is an isometry
    C^m -> R^n with Jx = Re(V iz), and z = V^H x."""
    return np.sqrt(2.0) * np.linalg.eigh(1j * Jm)[1][:, :len(Jm) // 2]


def standard_quaternion_triple(n: int) -> QuaternionTriple:
    """Left multiplication by i, j, k on R^(4m) = H^m (basis 1, i, j, k per block)."""
    if n % 4 != 0 or n < 4:
        raise CurvatureError("need n divisible by 4")
    I = np.zeros((n, n))
    J = np.zeros((n, n))
    K = np.zeros((n, n))
    for b in range(0, n, 4):
        # i: 1 -> i, i -> -1, j -> k, k -> -j
        I[b + 1, b] = 1.0
        I[b, b + 1] = -1.0
        I[b + 3, b + 2] = 1.0
        I[b + 2, b + 3] = -1.0
        # j: 1 -> j, i -> -k, j -> -1, k -> i
        J[b + 2, b] = 1.0
        J[b + 3, b + 1] = -1.0
        J[b, b + 2] = -1.0
        J[b + 1, b + 3] = 1.0
        # k: 1 -> k, i -> j, j -> -i, k -> -1
        K[b + 3, b] = 1.0
        K[b + 2, b + 1] = 1.0
        K[b + 1, b + 2] = -1.0
        K[b, b + 3] = -1.0
    return QuaternionTriple(ComplexStructure(I), ComplexStructure(J), ComplexStructure(K))


def rotate_triple(T: QuaternionTriple, rot: np.ndarray) -> QuaternionTriple:
    """Replace (I, J, K) by an SO(3)-rotated triple spanning the same structure sphere."""
    rot = np.asarray(rot, dtype=float)
    if rot.shape != (3, 3) or not (np.max(np.abs(rot @ rot.T - np.eye(3))) <= 1e-9
                                   and np.linalg.det(rot) >= 0):
        raise CurvatureError("need a rotation matrix in SO(3)")
    mats = T.matrices
    new = [sum(rot[s, t] * mats[t] for t in range(3)) for s in range(3)]
    return QuaternionTriple(*(ComplexStructure(A) for A in new))


# ---------------------------------------------------------------------------
# Frame functionals
# ---------------------------------------------------------------------------

def isotropic_curvature(R: CurvatureTensor, frame: FourFrame) -> float:
    """R(e1,e3,e1,e3) + R(e1,e4,e1,e4) + R(e2,e3,e2,e3) + R(e2,e4,e2,e4)
    - 2 R(e1,e2,e3,e4) on an orthonormal 4-frame; R.mat must satisfy the
    first Bianchi identity (see ``isotropic_from_columns``)."""
    _require_same_n(R, frame, "frame")
    return float(isotropic_from_columns(R.mat, frame.matrix))


# The 2-forms w_a = F C_a F^T of a frame: w_1 = f1^f3 - f2^f4, w_2 = f1^f4 + f2^f3.
_ISO_FORMS = np.zeros((2, 4, 4))
_ISO_FORMS[[0, 0, 1, 1], [0, 1, 0, 1], [2, 3, 3, 2]] = [1.0, -1.0, 1.0, 1.0]
_ISO_FORMS = _frozen(_ISO_FORMS - _ISO_FORMS.transpose(0, 2, 1))


def _frame_forms(F: np.ndarray) -> np.ndarray:
    """The isotropic forms w_a = F C_a F^T (``_ISO_FORMS``) of a stack of frames
    (..., n, 4), on the 2-form basis: (..., 2, N)."""
    iu, ju = pair_indices(F.shape[-2])
    forms = (F[..., None, :, :] @ _ISO_FORMS) @ np.swapaxes(F, -1, -2)[..., None, :, :]
    return forms[..., iu, ju]


def isotropic_from_columns(mat: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Isotropic-curvature values of a raw column matrix (n, 4) or a stack
    (..., n, 4) of them, with shape (...), on one coefficient matrix or on a
    matching (..., N, N) stack of them, frame t on matrix t; no validation.
    The value is <M w_1, w_1> + <M w_2, w_2> (``_frame_forms``): by the first Bianchi
    identity, which M must satisfy and ``CurvatureTensor(n, mat)`` does not
    check, that is R1313 + R1414 + R2323 + R2424 - 2 R1234."""
    W = _frame_forms(np.asarray(F, dtype=float))
    return np.einsum("...ap,...ap->...", W, W @ mat)


def orthogonal_bisectional(R: CurvatureTensor, J: ComplexStructure, x, y) -> float:
    """R(X, JX, Y, JY) for unit X, Y with Y orthogonal to X and JX, to FEASIBILITY_TOL."""
    _require_same_n(R, J, "complex structure")
    x = _require_vector(x, R.n, "x")
    y = _require_vector(y, R.n, "y")
    jx = J(x)
    violation = max(abs(float(x @ x) - 1.0), abs(float(y @ y) - 1.0),
                    abs(float(x @ y)), abs(float(jx @ y)))
    if violation > FEASIBILITY_TOL:
        raise CurvatureError(f"bisectional constraint violation {violation:.3e} "
                             f"> {FEASIBILITY_TOL:.1e}")
    return evaluate(R, x, jx, y, J(y))


def holomorphic_sectional(R: CurvatureTensor, J: ComplexStructure, x) -> float:
    """R(X, JX, X, JX); scales as |X|^4."""
    _require_same_n(R, J, "complex structure")
    x = _require_vector(x, R.n, "x")
    jx = J(x)
    return evaluate(R, x, jx, x, jx)


# ---------------------------------------------------------------------------
# Model tensors
# ---------------------------------------------------------------------------

def model_sphere(n: int, lam: float = 1.0) -> CurvatureTensor:
    """Constant sectional curvature lam: R_{ijkl} = lam (g_ik g_jl - g_il g_jk)."""
    if n < 2:
        raise CurvatureError("need n >= 2")
    return CurvatureTensor(n, float(lam) * np.eye(num_pairs(n)), label=f"sphere(n={n})")


def model_kahler_form(J: ComplexStructure, scale: float = 1.0) -> CurvatureTensor:
    """Curvature tensor built from the 2-form of J:

    S(X,Y,Z,W) = 2 g(JX,Y) g(JZ,W) + g(JX,Z) g(JY,W) - g(JX,W) g(JY,Z).
    """
    P = J.matrix.T  # P_{ij} = g(J e_i, e_j)
    p = P[pair_indices(J.n)]
    mat = float(scale) * (2.0 * np.outer(p, p) + two_form_action(P))
    return CurvatureTensor(J.n, mat, label="kahler-form")


def model_fubini_study(m: int, c: float = 4.0) -> tuple[CurvatureTensor, ComplexStructure]:
    """Constant holomorphic sectional curvature c on R^(2m), m >= 2.

    Returns the tensor together with the complex structure it is built from.
    """
    if m < 2:
        raise CurvatureError("need complex dimension m >= 2")
    n = 2 * m
    J = standard_complex_structure(n)
    R = (c / 4.0) * (model_sphere(n, 1.0) + model_kahler_form(J))
    return CurvatureTensor(n, R.mat, label=f"fubini-study(m={m}, c={c})"), J


def model_quaternionic_projective(T: QuaternionTriple, scale: float = 1.0) -> CurvatureTensor:
    """Quaternionic projective model R0 on R^(4m):

    4 R0 = sphere(n, 1) + sum over A in {I, J, K} of the form of model_kahler_form(A).
    """
    n = T.n
    R = model_sphere(n, 1.0)
    for A in (T.I, T.J, T.K):
        R = R + model_kahler_form(A)
    return CurvatureTensor(n, (float(scale) / 4.0) * R.mat, label=f"quaternionic(n={n})")


# Short aliases matching the CLI model names.
model_r0 = model_quaternionic_projective
model_sj = model_kahler_form
