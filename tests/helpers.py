"""Independent oracles for the test suite.

Everything here recomputes quantities from first principles (component loops,
full n^4 tables and coordinate systems) without going through the package's
vectorized paths on the 2-form basis, so agreement is meaningful.
"""

import numpy as np

from curvkit.core import CurvatureTensor, project_to_curvature


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
