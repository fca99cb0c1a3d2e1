"""Linear subspaces of curvature tensors cut out by holonomy-type invariances.

R is invariant under an orthogonal structure A iff its operator M on 2-forms
satisfies M C_A = M, i.e. iff M is a symmetric operator on the 2-forms that
C_A fixes.  So every space is K(h) = Sym^2(h) ∩ ker b: h is the common fixed
2-forms of the structures (u(m) for a complex structure, sp(m) for a
quaternion triple; Besse, *Einstein Manifolds*, ch. 10), or all 2-forms for
the generic space.

The generic space is written down in closed form: the Bianchi rows act on
disjoint triples of entries of M (``core._bianchi_gather``), so ker b is
spanned by the unit coordinates off every triple and by two orthonormal
vectors orthogonal to the row (1, -1, 1) on each triple.  So is the Kahler
space: its tensors are the Hermitian forms on Sym^2(C^m) (Mok 1988), whose
basis for the standard J is a cached table of entries (``_kahler_table``),
conjugated by C_P for any other J = P J0 P^T.  Only the hyper-Kahler space
still takes an SVD: for h = sp(m) with orthonormal basis U, M = U S U^T,
and the symmetric d x d matrix S is parametrized by its weighted upper
triangle (so that the Euclidean inner product of coordinates equals the
Frobenius inner product of rank-4 tables); an orthonormal basis of the
nullspace of the Bianchi rows on these d(d+1)/2 unknowns is read off a
singular value decomposition with an explicit relative cutoff.  The
dimensions have closed forms, n^2(n^2-1)/12
(generic), (m(m+1)/2)^2 (Kahler, n = 2m) and C(2m+3, 4) (hyper-Kahler,
n = 4m), which the verification suite and the tests compare against; no
table of dimensions is stored.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import (ComplexStructure, CurvatureError, CurvatureTensor, QuaternionTriple,
                   _bianchi_gather, _frozen, _holomorphic_frame, _overflow_unwarned,
                   _pair_positions, _require_finite, _require_same_n, _stored,
                   invariance_defect, num_pairs, scalar_curvature, model_quaternionic_projective,
                   standard_complex_structure, two_form_action)

SV_CUTOFF = 1e-8        # relative singular-value cutoff of the hyper-Kahler SVD (_nullspace)
MAX_BASIS_N = 12        # dense basis construction is capped here


def _require_basis_n(n: int) -> int:
    """n, or CurvatureError unless 4 <= n <= MAX_BASIS_N, the sizes every basis is built for."""
    if not 4 <= n <= MAX_BASIS_N:
        raise CurvatureError(f"subspace bases are built for 4 <= n <= {MAX_BASIS_N}, got {n!r}")
    return n


@dataclass(frozen=True)
class CurvatureSubspace:
    """Orthonormal basis of a linear space of curvature tensors: ``stacked``
    holds its matrices as one read-only (dimension, N, N) array, the one
    copy of the basis; ``basis`` views those matrices as tensors."""

    n: int
    label: str                        # "generic" | "kahler" | "hyperkahler"
    stacked: np.ndarray = field(repr=False, compare=False)
    structures: tuple | None = None   # the matrices J or (I, J, K) that cut the space

    @property
    def basis(self) -> tuple[CurvatureTensor, ...]:
        """The basis as tensors, built from ``stacked`` on each access."""
        return tuple(_stored(m, self.n) for m in self.stacked)

    @property
    def dimension(self) -> int:
        return len(self.stacked)


# ---------------------------------------------------------------------------
# K(h) = Sym^2(h) ∩ ker b
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _coord_maps(d: int):
    """Upper-triangle index arrays (P, Q) of a d x d matrix S and the weights
    making its coordinates isometric to the rank-4 Frobenius norm of U S U^T
    (diagonal 2, off-diagonal 2*sqrt(2)); cached, read-only."""
    P, Q = np.triu_indices(d)
    w = np.where(P == Q, 2.0, 2.0 * np.sqrt(2.0))
    return _frozen(P), _frozen(Q), _frozen(w)


def _nullspace(A: np.ndarray) -> np.ndarray:
    """Orthonormal nullspace basis (columns) of a matrix, with cutoff
    SV_CUTOFF relative to sigma_max."""
    # a tall system's thin vh is already square; only a wide one needs the full vh
    _, s, vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    rank = int(np.sum(s > SV_CUTOFF * s[:1]))
    return vh[rank:].T


def _fixed_two_forms(structures) -> np.ndarray:
    """Orthonormal basis (columns) of the 2-forms that every structure fixes: h."""
    C = np.stack([two_form_action(A) for A in structures])
    return _nullspace((C - np.eye(C.shape[1])).reshape(-1, C.shape[1]))


# The two orthonormal vectors orthogonal to the Bianchi row (1, -1, 1) that
# span ker b on a quadruple's entries (ij,kl), (ik,jl), (il,jk), as entries
# of M: coordinates over the off-diagonal weight 2 sqrt 2 of ``_coord_maps``.
_TRIPLE_BASIS = _frozen(np.array([[1.0, 1.0, 0.0], [-1.0, 1.0, 2.0]])
                        / np.sqrt([[2.0], [6.0]]) / (2.0 * np.sqrt(2.0)))


def _generic_space(n: int) -> CurvatureSubspace:
    """Orthonormal basis of all curvature tensors, K(Lambda^2), in closed form:
    the unit weighted coordinate (``_coord_maps``: 1/2 on the diagonal,
    1/(2 sqrt 2) off it and on its transpose) of every upper-triangle entry of
    M in no quadruple's triple, then the first ``_TRIPLE_BASIS`` vector on
    every quadruple i<j<k<l, then the second; C(n, 4) fewer than the
    N(N+1)/2 symmetric coordinates, and at most 6 nonzero entries each."""
    N = num_pairs(n)
    fwd, bwd = _bianchi_gather(n)                     # (3, quadruples), upper and lower
    free = np.ones(N * N, dtype=bool)
    free[fwd] = False
    P, Q, w = _coord_maps(N)
    keep = free[P * N + Q]
    P, Q, w = P[keep], Q[keep], w[keep]
    f, quads = len(P), fwd.shape[1]
    M = np.zeros((f + 2 * quads, N * N))
    e = np.arange(f)
    M[e, P * N + Q] = M[e, Q * N + P] = 1.0 / w
    T = M[f:].reshape(2, quads, N * N)                # a view: the triple elements
    t = np.arange(quads)
    T[:, t, fwd] = T[:, t, bwd] = _TRIPLE_BASIS[:, :, None]
    return CurvatureSubspace(n=n, label="generic", stacked=_frozen(M.reshape(-1, N, N)))


@lru_cache(maxsize=None)
def _kahler_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of the closed-form basis of K(u(m)) for the
    standard J, n = 2m, as element indices, flat indices into M and values.

    Kahler tensors are the Hermitian forms H_(ac),(bd) = R(Z_a, Zbar_b, Z_c,
    Zbar_d) on Sym^2(C^m) (Mok, J. Differential Geom. 27, 1988).  With the
    (1,1)-forms alpha_ab = xi_a ^ conj(xi_b) on the pair basis, each pair
    p = {a <= c}, q = {b <= d} gives the complex matrix Phi_pq = alpha_ab
    (x) alpha_cd + alpha_cb (x) alpha_ad plus its transpose, symmetric in
    a <-> c and in b <-> d, with conj(Phi_pq) = Phi_qp.  The elements are
    Re Phi_pq for every p <= q, then -Im Phi_pq for every p < q, each
    scaled to 2 |M|_F = 1: (m(m+1)/2)^2 of them, orthonormal, with at most
    32 nonzero entries each, summed from 64 index-arithmetic terms per
    pair (p, q).  Each entry is a small integer times its element's scale,
    so the Bianchi sums and M C_J - M vanish exactly."""
    N = num_pairs(n)
    pos, sign = _pair_positions(n)
    A, C = np.triu_indices(n // 2)                    # the pairs {a <= c}
    P, Q = np.triu_indices(len(A))                    # the elements' pairs p <= q
    s, t = np.divmod(np.arange(4), 2)
    xi = np.array([1.0, 1.0j])      # xi_a = e_2a + i e_2a+1 on its coordinates 2a, 2a+1

    def alpha(x, y):
        """Pair positions and coefficients of alpha_xy, 4 terms per row."""
        i, j = 2 * x[:, None] + s, 2 * y[:, None] + t
        return pos[i, j], xi[s] * xi[t].conj() * sign[i, j]

    def product(u, v):
        """Flat indices and coefficients of u (x) v, 16 terms per row."""
        return ((u[0][:, :, None] * N + v[0][:, None, :]).reshape(len(P), -1),
                (u[1][:, :, None] * v[1][:, None, :]).reshape(len(P), -1))

    a, c, b, d = A[P], C[P], A[Q], C[Q]
    (f1, v1), (f2, v2) = product(alpha(a, b), alpha(c, d)), product(alpha(c, b), alpha(a, d))
    off = P < Q
    flat = np.hstack([f1, f2])
    flat = np.hstack([flat, flat % N * N + flat // N])   # and the transposes
    flat = np.vstack([flat, flat[off]])
    phi = np.hstack([v1, v2, v1, v2])
    vals = np.vstack([phi.real, -phi.imag[off]])
    # sum the terms that land on one entry; drop those that cancel
    key, inv = np.unique(np.arange(len(flat))[:, None] * (N * N) + flat, return_inverse=True)
    vals = np.bincount(inv.ravel(), weights=vals.ravel())
    keep = vals != 0.0
    elem, flat = np.divmod(key[keep], N * N)
    vals = vals[keep]
    vals /= 2.0 * np.sqrt(np.bincount(elem, weights=vals * vals))[elem]
    return _frozen(elem), _frozen(flat), _frozen(vals)


def _holonomy_space(n: int, U: np.ndarray, label: str,
                    structures: tuple | None) -> CurvatureSubspace:
    """Orthonormal basis of K(h) for h != Lambda^2 spanned by the orthonormal
    columns of U (N x d), from the SVD of the Bianchi rows on S.  Entry (r, c)
    of U S U^T is the sum over p <= q of S_pq (U[r,p] U[c,q] + U[r,q] U[c,p]),
    halved for p = q; a quadruple's Bianchi row adds its three entries with
    signs +, -, +.  It builds the hyper-Kahler space; the generic and Kahler
    spaces are closed form (``_generic_space``, ``_kahler_table``), with no
    SVD, and the tests keep this build as their oracle."""
    N = num_pairs(n)
    P, Q, w = _coord_maps(U.shape[1])
    r, c = np.divmod(_bianchi_gather(n)[0], N)        # (3, quadruples) each
    Ur, Uc = U[r], U[c]
    coef = Ur[..., P] * Uc[..., Q] + Ur[..., Q] * Uc[..., P]
    coef *= np.where(P == Q, 0.5, 1.0) / w
    null = _nullspace(coef[0] - coef[1] + coef[2])   # (d(d+1)/2, dimension)
    M = np.zeros((null.shape[1], U.shape[1], U.shape[1]))
    M[:, P, Q] = M[:, Q, P] = null.T / w
    M = U @ M @ U.T
    M = 0.5 * (M + M.transpose(0, 2, 1))              # symmetrized against roundoff
    return CurvatureSubspace(n=n, label=label, stacked=_frozen(M), structures=structures)


# ---------------------------------------------------------------------------
# Public constructors
# ---------------------------------------------------------------------------

def curvature_space_basis(n: int) -> CurvatureSubspace:
    """Orthonormal basis of all curvature tensors on R^n; dimension n^2(n^2-1)/12."""
    return _generic_space(_require_basis_n(n))


def kahler_subspace(J: ComplexStructure) -> CurvatureSubspace:
    """Curvature tensors invariant under J: R(X,Y,JZ,JW) = R(X,Y,Z,W);
    K(u(m)), of dimension (m(m+1)/2)^2 for n = 2m, in closed form: the
    ``_kahler_table`` entries scattered into a zero stack, as they are for
    the standard J and conjugated by C_P for any other J = P J0 P^T."""
    n = _require_basis_n(J.n)
    N, dim = num_pairs(n), (n // 2 * (n // 2 + 1) // 2) ** 2
    elem, flat, vals = _kahler_table(n)
    M = np.zeros((dim, N * N))
    M[elem, flat] = vals
    M = M.reshape(dim, N, N)
    Jm = J.matrix
    if not np.array_equal(Jm, standard_complex_structure(n).matrix):   # J0
        # J = P J0 P^T for P e_2a = Re V_a, P e_2a+1 = -Im V_a, V_a the
        # columns of V; R0 in K(J0) pulls back to C_P M0 C_P^T in K(J).
        V = _holomorphic_frame(Jm)
        CP = two_form_action(np.stack([V.real, -V.imag], axis=-1).reshape(n, n))
        M = CP @ M @ CP.T
        M = 0.5 * (M + M.transpose(0, 2, 1))          # symmetrized against roundoff
    return CurvatureSubspace(n=n, label="kahler", stacked=_frozen(M), structures=(Jm,))


def hyperkahler_subspace(T: QuaternionTriple) -> CurvatureSubspace:
    """Curvature tensors invariant under all of I, J, K, for n = 4m;
    K(sp(m)), of dimension C(2m+3, 4)."""
    n = _require_basis_n(T.n)
    return _holonomy_space(n, _fixed_two_forms(T.matrices), "hyperkahler", T.matrices)


def sample(space: CurvatureSubspace, seed: int) -> CurvatureTensor:
    """Deterministic Gaussian combination of the basis (numpy default_rng);
    the one-seed case of :func:`_sample_stack`."""
    return _stored(_sample_stack(space, [seed])[0], space.n)


@_overflow_unwarned
def _sample_stack(space: CurvatureSubspace, seeds) -> np.ndarray:
    """The coefficient matrices of ``sample(space, s)`` for each seed s of
    ``seeds``, as a (T, N, N) stack: each seed's coefficient row drawn from
    its own numpy default_rng, then one product of the (T, dimension) rows
    with the basis for the whole stack, which reads the basis once.  Each
    matrix is returned as 0.5 (M + M^T), and NonFiniteError, without numpy's
    warnings, when one is not finite: a scan of the basis would cost as much."""
    if space.dimension == 0:
        raise CurvatureError("cannot sample from an empty subspace")
    coeffs = np.stack([np.random.default_rng(s).standard_normal(space.dimension)
                       for s in seeds])
    mats = (coeffs @ space.stacked.reshape(space.dimension, -1)).reshape(
        (len(coeffs),) + space.stacked.shape[1:])
    mats += np.swapaxes(mats, 1, 2)
    mats *= 0.5
    return _require_finite(mats, "coefficient matrix")


def project_onto(space: CurvatureSubspace, R: CurvatureTensor):
    """Coefficients of the orthogonal projection and the relative residual norm."""
    _require_same_n(R, space, "space")
    coeffs = 4.0 * np.tensordot(space.stacked, R.mat, axes=2)
    proj = np.tensordot(coeffs, space.stacked, axes=1)
    resid = 2.0 * float(np.linalg.norm(R.mat - proj))
    return coeffs, resid / max(1.0, R.norm())


def constraint_violation(space: CurvatureSubspace, R: CurvatureTensor) -> float:
    """Max-entry violation of the invariances defining the space (0 for generic)."""
    _require_same_n(R, space, "space")
    return invariance_defect(R, space.structures or ())


# ---------------------------------------------------------------------------
# Quaternionic split
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QKDecomposition:
    r1: CurvatureTensor
    kappa: float
    residual: float     # max hyperkahler-invariance violation of r1

    def __iter__(self):
        return iter((self.r1, self.kappa, self.residual))


def qk_decompose(R: CurvatureTensor, T: QuaternionTriple) -> QKDecomposition:
    """Split R = R1 + kappa * R0 by matching scalar curvature.

    kappa = scal(R) / scal(R0); the residual reports how far R1 is from being
    invariant under the triple (zero iff R really is of quaternionic type).
    """
    _require_same_n(R, T, "triple")
    R0 = model_quaternionic_projective(T)
    kappa = scalar_curvature(R) / scalar_curvature(R0)
    r1 = R - kappa * R0
    return QKDecomposition(r1=r1, kappa=float(kappa),
                           residual=invariance_defect(r1, T.matrices))

