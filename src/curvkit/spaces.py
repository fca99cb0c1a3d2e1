"""Linear subspaces of curvature tensors cut out by holonomy-type invariances.

All spaces are built the same way: the symmetric coefficient matrix on the
2-form basis is parametrized by its weighted upper triangle (so that the
Euclidean inner product of coordinates equals the Frobenius inner product of
rank-4 tables), the defining linear constraints are stacked into one system,
and an orthonormal basis of the nullspace is read off a singular value
decomposition with an explicit relative cutoff.
"""

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .core import (ComplexStructure, CurvatureError, CurvatureTensor,
                   QuaternionTriple, _bianchi_gather, _frozen, invariance_defect, num_pairs,
                   scalar_curvature, model_quaternionic_projective, two_form_action)

SV_CUTOFF = 1e-8        # relative singular-value cutoff for rank decisions
MAX_BASIS_N = 10        # dense basis construction is capped here

_FIXTURES = Path(__file__).parent / "fixtures" / "subspace_dims.json"


@dataclass(frozen=True)
class CurvatureSubspace:
    """Orthonormal basis of a linear space of curvature tensors."""

    n: int
    label: str                        # "generic" | "kahler" | "hyperkahler"
    basis: tuple[CurvatureTensor, ...]
    structures: tuple | None = None   # the J or (I, J, K) used to cut the space

    @property
    def dimension(self) -> int:
        return len(self.basis)


# ---------------------------------------------------------------------------
# Coordinates: weighted upper triangle of the N x N coefficient matrix
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _coord_maps(n: int):
    """Index arrays (P, Q) with P <= Q and the weights making coordinates
    isometric to the rank-4 Frobenius norm (diagonal 2, off-diagonal 2*sqrt(2));
    cached, read-only."""
    N = num_pairs(n)
    P, Q = np.triu_indices(N)
    w = np.where(P == Q, 2.0, 2.0 * np.sqrt(2.0))
    return _frozen(P), _frozen(Q), _frozen(w)


def _mat_from_coords(x: np.ndarray, n: int) -> np.ndarray:
    P, Q, w = _coord_maps(n)
    N = num_pairs(n)
    M = np.zeros((N, N))
    M[P, Q] = x / w
    M = M + np.triu(M, 1).T
    return M


def _bianchi_rows(n: int) -> np.ndarray:
    """One row per quadruple i<j<k<l: M[ij,kl] - M[ik,jl] + M[il,jk] = 0."""
    N = num_pairs(n)
    P, Q, w = _coord_maps(n)
    col_of = np.empty((N, N), dtype=int)
    col_of[P, Q] = col_of[Q, P] = np.arange(len(P))
    cols = np.take(col_of, _bianchi_gather(n)[0])     # (3, quadruples)
    quads = np.arange(cols.shape[1])
    rows = np.zeros((len(quads), len(P)))
    for c, s in zip(cols, (1.0, -1.0, 1.0)):
        rows[quads, c] = s / w[c]
    return rows


def _invariance_rows(n: int, A: np.ndarray) -> np.ndarray:
    """Rows of the linearized constraint R(.,., A., A.) = R in coordinates."""
    C = two_form_action(A)
    P, Q, w = _coord_maps(n)
    dim = len(P)
    rows = np.empty((C.shape[0] ** 2, dim))
    for t in range(dim):
        x = np.zeros(dim)
        x[t] = 1.0
        M = _mat_from_coords(x, n)
        rows[:, t] = (M @ C - M).ravel()
    return rows


def _nullspace(A: np.ndarray, cutoff: float = SV_CUTOFF) -> np.ndarray:
    """Orthonormal nullspace basis (columns) with cutoff relative to sigma_max."""
    if A.shape[0] == 0:
        return np.eye(A.shape[1])
    # a tall system's thin vh is already square; only a wide one needs the full vh
    _, s, vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > cutoff * smax)) if smax > 0 else 0
    return vh[rank:].T


def _space_from_rows(n: int, rows: np.ndarray, label: str,
                     structures: tuple | None) -> CurvatureSubspace:
    null = _nullspace(rows)
    basis = tuple(CurvatureTensor(n, _mat_from_coords(null[:, t], n))
                  for t in range(null.shape[1]))
    return CurvatureSubspace(n=n, label=label, basis=basis, structures=structures)


# ---------------------------------------------------------------------------
# Public constructors
# ---------------------------------------------------------------------------

def curvature_space_basis(n: int, cap: int = MAX_BASIS_N) -> CurvatureSubspace:
    """Orthonormal basis of all curvature tensors on R^n; dimension n^2(n^2-1)/12."""
    if not 4 <= n <= cap:
        raise CurvatureError(f"generic basis supported for 4 <= n <= {cap}, got {n}")
    return _space_from_rows(n, _bianchi_rows(n), "generic", None)


def kahler_subspace(J: ComplexStructure) -> CurvatureSubspace:
    """Curvature tensors invariant under J: R(X,Y,JZ,JW) = R(X,Y,Z,W)."""
    n = J.n
    if not 4 <= n <= MAX_BASIS_N:
        raise CurvatureError(f"subspace construction supported for 4 <= n <= {MAX_BASIS_N}")
    rows = np.vstack([_bianchi_rows(n), _invariance_rows(n, J.matrix)])
    return _space_from_rows(n, rows, "kahler", (J,))


def hyperkahler_subspace(T: QuaternionTriple) -> CurvatureSubspace:
    """Curvature tensors invariant under all of I, J, K; requires n = 4m >= 8."""
    n = T.n
    if n < 8:
        raise CurvatureError("hyperkahler invariance forces R = 0 against the "
                             "generic split at n = 4; need n >= 8")
    if n > MAX_BASIS_N:
        raise CurvatureError(f"subspace construction supported up to n = {MAX_BASIS_N}")
    rows = np.vstack([_bianchi_rows(n)]
                     + [_invariance_rows(n, A) for A in T.matrices])
    return _space_from_rows(n, rows, "hyperkahler", T.matrices)


def sample(space: CurvatureSubspace, seed: int, scale: float = 1.0) -> CurvatureTensor:
    """Deterministic Gaussian combination of the basis (numpy default_rng)."""
    if space.dimension == 0:
        raise CurvatureError("cannot sample from an empty subspace")
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(space.dimension) * float(scale)
    mat = sum(c * b.mat for c, b in zip(coeffs, space.basis))
    return CurvatureTensor(space.n, mat)


def project_onto(space: CurvatureSubspace, R: CurvatureTensor):
    """Coefficients of the orthogonal projection and the relative residual norm."""
    coeffs = np.array([4.0 * np.vdot(b.mat, R.mat) for b in space.basis])
    proj = sum(c * b.mat for c, b in zip(coeffs, space.basis)) if space.dimension \
        else np.zeros_like(R.mat)
    resid = 2.0 * float(np.linalg.norm(R.mat - proj))
    return coeffs, resid / max(1.0, R.norm())


def constraint_violation(space: CurvatureSubspace, R: CurvatureTensor) -> float:
    """Max-entry violation of the invariances defining the space (0 for generic)."""
    if space.structures is None:
        return 0.0
    return invariance_defect(R, [s.matrix if isinstance(s, ComplexStructure) else s
                                 for s in space.structures])


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
    if R.n != T.n:
        raise CurvatureError("tensor and triple dimensions differ")
    R0 = model_quaternionic_projective(T)
    kappa = scalar_curvature(R) / scalar_curvature(R0)
    r1 = R - kappa * R0
    return QKDecomposition(r1=r1, kappa=float(kappa),
                           residual=invariance_defect(r1, T.matrices))


# ---------------------------------------------------------------------------
# Frozen dimension fixtures
# ---------------------------------------------------------------------------

def load_fixtures() -> list[dict]:
    with open(_FIXTURES) as fh:
        return json.load(fh)


def fixture_dimension(n: int, label: str) -> int:
    for row in load_fixtures():
        if row["n"] == n and row["label"] == label:
            return row["dimension"]
    raise KeyError(f"no frozen dimension for n={n}, label={label}")
