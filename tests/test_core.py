"""Core algebra: construction, symmetries, contractions, model tensors."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvkit.core import (ComplexStructure, CurvatureError, CurvatureTensor,
                          FourFrame, NonFiniteError, QuaternionTriple, bform, curvature_map,
                          einstein_normalize, einstein_residual, evaluate,
                          holomorphic_sectional, inner, isotropic_curvature,
                          isotropic_from_columns,
                          kulkarni_nomizu, model_fubini_study, model_kahler_form,
                          model_r0, model_sj, model_sphere, num_pairs,
                          orthogonal_bisectional, project_to_curvature, qform,
                          ricci, rotate_triple, scalar_curvature,
                          standard_complex_structure, standard_quaternion_triple,
                          symmetry_defect, weyl, zero_tensor)
from curvkit.core import _einstein_stack, _require_frames, _stored
from curvkit.spaces import curvature_space_basis, sample

from helpers import (bform_loops, einstein_normalize_rank4, evaluate_table, iso_table,
                     random_curvature)


def _unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _random_frame(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, 4)))
    return FourFrame(q)


# ---------------------------------------------------------------------------
# construction and invariants
# ---------------------------------------------------------------------------

def test_constructor_symmetrizes_and_freezes():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((num_pairs(5), num_pairs(5)))
    R = CurvatureTensor(5, raw)
    np.testing.assert_allclose(R.mat, R.mat.T)
    with pytest.raises(ValueError):
        R.mat[0, 0] = 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.data(), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_constructor_rejects_non_finite_anywhere(n, data, bad):
    N = num_pairs(n)
    i, j = data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, N - 1))
    mat = np.eye(N)
    mat[i, j] = bad
    with pytest.raises(CurvatureError, match="non-finite"):
        CurvatureTensor(n, mat)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(-3, 9))
def test_constructor_rejects_wrong_dimension(n, m):
    mat = np.zeros((num_pairs(n), num_pairs(n)))
    if m == n:
        assert CurvatureTensor(m, mat).n == n
    else:
        with pytest.raises(CurvatureError):
            CurvatureTensor(m, mat)


@settings(max_examples=20, deadline=None)
@given(st.one_of(st.booleans(), st.floats(allow_nan=True), st.just("4"), st.none()),
       st.integers(0, 6))
def test_constructor_rejects_bool_and_non_integer_dimension(n, size):
    with pytest.raises(CurvatureError, match="dimension must be an integer"):
        CurvatureTensor(n, np.zeros((size, size)))


def test_constructor_accepts_numpy_integer_dimension():
    R = CurvatureTensor(np.int64(4), np.eye(6))
    assert R.n == 4 and type(R.n) is int


def test_from_rank4_rejects_garbage():
    rng = np.random.default_rng(1)
    with pytest.raises(CurvatureError):
        CurvatureTensor.from_rank4(rng.standard_normal((4, 4, 4, 4)))


def test_projection_output_is_valid():
    rng = np.random.default_rng(2)
    for n in (4, 5, 6):
        R = project_to_curvature(rng.standard_normal((n, n, n, n)))
        assert symmetry_defect(R.rank4) < 1e-12
        assert R.validation_defect() < 1e-12


def test_projection_idempotent():
    R = random_curvature(5, seed=3)
    again = project_to_curvature(R.rank4)
    assert (R - again).norm() < 1e-12 * max(1.0, R.norm())


def test_projection_is_orthogonal():
    """The removed part is orthogonal to every curvature tensor."""
    rng = np.random.default_rng(4)
    T = rng.standard_normal((4, 4, 4, 4))
    P = project_to_curvature(T)
    S = random_curvature(4, seed=5)
    residual = T - P.rank4
    assert abs(np.vdot(residual, S.rank4)) < 1e-10


def test_arithmetic():
    R = random_curvature(4, seed=6)
    S = random_curvature(4, seed=7)
    np.testing.assert_allclose((2.5 * R + S).mat, 2.5 * R.mat + S.mat)
    np.testing.assert_allclose((R - S).mat, R.mat - S.mat)
    with pytest.raises(CurvatureError):
        R + random_curvature(5, seed=8)


def test_norm_matches_inner():
    R = random_curvature(5, seed=9)
    assert np.isclose(R.norm() ** 2, inner(R, R))
    # and both equal the raw table Frobenius norm
    assert np.isclose(R.norm(), np.linalg.norm(R.rank4.ravel()))


def test_zero_tensor():
    Z = zero_tensor(6)
    assert Z.norm() == 0.0
    assert scalar_curvature(Z) == 0.0


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([4, 5, 6]))
def test_evaluate_symmetries(seed, n):
    rng = np.random.default_rng(seed)
    R = random_curvature(n, seed=seed)
    x, y, z, w = (rng.standard_normal(n) for _ in range(4))
    v = evaluate(R, x, y, z, w)
    assert np.isclose(v, -evaluate(R, y, x, z, w))
    assert np.isclose(v, -evaluate(R, x, y, w, z))
    assert np.isclose(v, evaluate(R, z, w, x, y))
    cyc = v + evaluate(R, y, z, x, w) + evaluate(R, z, x, y, w)
    assert abs(cyc) < 1e-9 * max(1.0, abs(v))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_evaluate_matches_table_oracle(seed):
    rng = np.random.default_rng(seed)
    R = random_curvature(5, seed=seed)
    args = [rng.standard_normal(5) for _ in range(4)]
    assert np.isclose(evaluate(R, *args), evaluate_table(R, *args))


def test_evaluate_on_basis_vectors_reads_table():
    R = random_curvature(4, seed=10)
    e = np.eye(4)
    for idx in ((0, 1, 2, 3), (0, 2, 1, 3), (1, 3, 0, 2)):
        i, j, k, l = idx
        assert np.isclose(evaluate(R, e[i], e[j], e[k], e[l]), R.rank4[i, j, k, l])


def test_curvature_map_antisymmetric():
    R = random_curvature(5, seed=11)
    rng = np.random.default_rng(11)
    z, w = rng.standard_normal(5), rng.standard_normal(5)
    A = curvature_map(R, z, w)
    np.testing.assert_allclose(A, -A.T, atol=1e-12)
    x, y = rng.standard_normal(5), rng.standard_normal(5)
    assert np.isclose(x @ A @ y, evaluate(R, x, y, z, w))


# ---------------------------------------------------------------------------
# traces, Weyl, Kulkarni-Nomizu
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,lam", [(4, 1.0), (6, 0.5), (8, 2.0)])
def test_sphere_traces(n, lam):
    R = model_sphere(n, lam)
    np.testing.assert_allclose(ricci(R), (n - 1) * lam * np.eye(n), atol=1e-12)
    assert np.isclose(scalar_curvature(R), n * (n - 1) * lam)


def test_kulkarni_nomizu_metric_identity():
    n = 5
    g = np.eye(n)
    np.testing.assert_allclose(kulkarni_nomizu(g, g),
                               2.0 * model_sphere(n, 1.0).rank4, atol=1e-12)


def test_kulkarni_nomizu_ricci_rule():
    """Ric(h ^ g) = (n-2) h + tr(h) g, the rule einstein_normalize relies on."""
    rng = np.random.default_rng(12)
    n = 6
    h = rng.standard_normal((n, n))
    h = 0.5 * (h + h.T)
    KN = CurvatureTensor.from_rank4(kulkarni_nomizu(h, np.eye(n)), tol=1e-8)
    np.testing.assert_allclose(ricci(KN), (n - 2) * h + np.trace(h) * np.eye(n),
                               atol=1e-10)


def test_weyl_sphere_vanishes():
    assert weyl(model_sphere(6, 3.0)).norm() < 1e-10


def test_weyl_is_trace_free_and_idempotent():
    R = random_curvature(5, seed=13)
    W = weyl(R)
    assert np.max(np.abs(ricci(W))) < 1e-9
    assert (weyl(W) - W).norm() < 1e-9


def test_einstein_normalize_hits_target():
    R = random_curvature(6, seed=14)
    S = einstein_normalize(R)
    np.testing.assert_allclose(ricci(S), 5.0 * np.eye(6), atol=1e-10)
    S2 = einstein_normalize(R, target=2.0)
    np.testing.assert_allclose(ricci(S2), 2.0 * np.eye(6), atol=1e-10)


@pytest.mark.parametrize("target", [None, 2.0])
def test_einstein_stack_matches_rank4_oracle(target):
    """Each tensor of one stacked normalization against the full-table
    oracle, and einstein_normalize as its one-tensor case."""
    n = 6
    mats = np.stack([random_curvature(n, seed=s).mat for s in (30, 31, 32, 33)])
    out = _einstein_stack(mats, n, target)
    assert out.shape == mats.shape
    for m, got in zip(mats, out):
        want = einstein_normalize_rank4(_stored(m, n).rank4, target)
        np.testing.assert_allclose(_stored(got, n).rank4, want, rtol=0, atol=1e-12)
        one = einstein_normalize(_stored(m, n), target).mat
        np.testing.assert_allclose(one, got, rtol=0, atol=1e-14)


def test_einstein_stack_names_the_bianchi_defective_tensor():
    """A symmetric matrix with a Bianchi defect, put at t = 2, fails the
    stack's output check, which names index 2; einstein_normalize of it
    names index 0."""
    n = 5
    good = [random_curvature(n, seed=s).mat for s in (40, 41, 42)]
    bad = np.random.default_rng(43).standard_normal((num_pairs(n),) * 2)
    bad = bad + bad.T
    with pytest.raises(CurvatureError, match=r"^Einstein normalization 2 Bianchi defect"):
        _einstein_stack(np.stack(good[:2] + [bad] + good[2:]), n)
    with pytest.raises(CurvatureError, match=r"^Einstein normalization 0 Bianchi defect"):
        einstein_normalize(CurvatureTensor(n, bad))
    _einstein_stack(np.stack(good), n)


# ---------------------------------------------------------------------------
# reaction form
# ---------------------------------------------------------------------------

def test_bform_matches_loop_oracle():
    for seed in (15, 16):
        R = random_curvature(4, seed=seed)
        S = random_curvature(4, seed=seed + 100)
        expected = bform_loops(R.rank4, S.rank4)
        np.testing.assert_allclose(bform(R, S).rank4, expected, atol=1e-10)


def test_bform_symmetric_bilinear():
    R = random_curvature(5, seed=17)
    S = random_curvature(5, seed=18)
    T = random_curvature(5, seed=19)
    assert (bform(R, S) - bform(S, R)).norm() < 1e-12
    lhs = bform(R + 2.0 * T, S)
    rhs = bform(R, S) + 2.0 * bform(T, S)
    assert (lhs - rhs).norm() < 1e-10 * max(1.0, lhs.norm())


def test_qform_polarization():
    R = random_curvature(5, seed=20)
    S = random_curvature(5, seed=21)
    lhs = qform(R + S)
    rhs = qform(R) + 2.0 * bform(R, S) + qform(S)
    assert (lhs - rhs).norm() < 1e-10 * max(1.0, lhs.norm())


@pytest.mark.parametrize("n", [4, 6, 8])
def test_qform_sphere_eigen(n):
    lam = 0.7
    R = model_sphere(n, lam)
    dev = (qform(R) + (-2.0 * (n - 1) * lam) * R).norm()
    assert dev < 1e-12 * max(1.0, R.norm())


def test_qform_r0_eigen(r0_8):
    assert (qform(r0_8) + (-8.0) * r0_8).norm() < 1e-12


def test_einstein_residual_models(fs4, r0_8):
    assert einstein_residual(model_sphere(5, 1.0), 4.0) < 1e-12
    assert einstein_residual(fs4[0], 6.0) < 1e-12        # 2(m+1), m = 2
    assert einstein_residual(r0_8, 4.0) < 1e-12          # m + 2, m = 2
    # and a generic tensor is not an eigenvector
    R = random_curvature(5, seed=22)
    assert einstein_residual(R, 4.0) > 1e-3


# ---------------------------------------------------------------------------
# frames, structures, sectional quantities
# ---------------------------------------------------------------------------

def test_four_frame_validation():
    rng = np.random.default_rng(23)
    with pytest.raises(CurvatureError):
        FourFrame(rng.standard_normal((6, 4)))
    F = _random_frame(rng, 6)
    np.testing.assert_allclose(F.matrix.T @ F.matrix, np.eye(4), atol=1e-12)


def test_frame_stack_gram_check_names_the_failing_frame():
    """The Gram check of FourFrame on a (T, n, 4) stack: each frame to
    CONSTRUCTION_TOL, the first failing one named, a NaN frame rejected."""
    rng = np.random.default_rng(24)
    F = np.stack([_random_frame(rng, 6).matrix for _ in range(4)])
    assert _require_frames(F) is F
    bent = F.copy()
    bent[1, 0, 0] += 1e-6
    with pytest.raises(CurvatureError, match=r"^frame 1 Gram defect"):
        _require_frames(bent)
    bent[1] = F[1]
    bent[3, 2, 3] = np.nan
    with pytest.raises(CurvatureError, match=r"^frame 3 Gram defect"):
        _require_frames(bent)
    with pytest.raises(CurvatureError, match=r"^frame Gram defect"):
        FourFrame(bent[3])
    with pytest.raises(CurvatureError, match=r"an \(n, 4\) matrix"):
        FourFrame(F)
    with pytest.raises(CurvatureError, match=r"an \(n, 4\) matrix"):
        _require_frames(F[:, :3])


def test_complex_structure_validation():
    J = standard_complex_structure(6)
    np.testing.assert_allclose(J.matrix @ J.matrix, -np.eye(6), atol=1e-14)
    with pytest.raises(CurvatureError):
        ComplexStructure(np.eye(6))
    with pytest.raises(CurvatureError):
        standard_complex_structure(5)
    # a non-finite entry is refused before any product is formed
    with pytest.raises(NonFiniteError, match="complex structure has non-finite entries"):
        ComplexStructure(np.full((4, 4), np.nan))


@pytest.mark.parametrize("m", [np.array(1.0), np.zeros((0, 0)), np.zeros((2, 2, 2))],
                         ids=["0-d", "empty", "3-d"])
def test_complex_structure_rejects_a_non_matrix(m):
    """The shape is checked before anything reads it."""
    with pytest.raises(CurvatureError, match="square matrix of even size"):
        ComplexStructure(m)


def test_complex_structure_rejects_an_infinite_entry_without_a_warning():
    """An infinite entry raises NonFiniteError, not numpy's RuntimeWarning of
    an inf * 0 product, even when warnings are errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="non-finite entries"):
            ComplexStructure(np.full((4, 4), np.inf))


def test_quaternion_triple_rejects_non_finite_structure(t8):
    """A NaN structure that skipped its own check still fails IJ = K."""
    K = object.__new__(ComplexStructure)
    object.__setattr__(K, "matrix", np.full((8, 8), np.nan))
    with pytest.raises(CurvatureError, match="violates IJ = K"):
        QuaternionTriple(t8.I, t8.J, K)


def test_four_frame_leaves_caller_array_writable():
    m = np.eye(6)[:, :4].copy()
    F = FourFrame(m)
    m[0, 0] = 2.0
    assert F.matrix[0, 0] == 1.0
    with pytest.raises(ValueError):
        F.matrix[0, 0] = 2.0


def test_complex_structure_leaves_caller_array_writable():
    m = standard_complex_structure(4).matrix.copy()
    J = ComplexStructure(m)
    m[0, 0] = 2.0
    assert J.matrix[0, 0] == 0.0
    with pytest.raises(ValueError):
        J.matrix[0, 0] = 2.0


def test_quaternion_triple_relations(t8):
    I, J, K = t8.matrices
    np.testing.assert_allclose(I @ J, K, atol=1e-14)
    np.testing.assert_allclose(J @ K, I, atol=1e-14)
    np.testing.assert_allclose(K @ I, J, atol=1e-14)
    for A in (I, J, K):
        np.testing.assert_allclose(A @ A, -np.eye(8), atol=1e-14)


def test_rotate_triple_preserves_relations(t8):
    rng = np.random.default_rng(24)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    t2 = rotate_triple(t8, q)
    np.testing.assert_allclose(t2.I.matrix @ t2.J.matrix, t2.K.matrix,
                               atol=1e-12)
    with pytest.raises(CurvatureError):
        rotate_triple(t8, np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(CurvatureError, match="rotation matrix"):
        rotate_triple(t8, np.full((3, 3), np.nan))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_sphere_iso_constant(seed):
    rng = np.random.default_rng(seed)
    R = model_sphere(6, 1.25)
    F = _random_frame(rng, 6)
    assert np.isclose(isotropic_curvature(R, F), 5.0)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_iso_matches_table_oracle(seed):
    R = random_curvature(5, seed=seed % 1000)
    rng = np.random.default_rng(seed)
    F = _random_frame(rng, 5)
    assert np.isclose(isotropic_curvature(R, F), iso_table(R, F.matrix))


def test_iso_on_a_stack_of_tensors_takes_frame_t_on_tensor_t():
    rng = np.random.default_rng(26)
    tensors = [random_curvature(6, seed=s) for s in (26, 27, 28)]
    F = np.stack([_random_frame(rng, 6).matrix for _ in tensors])
    got = isotropic_from_columns(np.stack([R.mat for R in tensors]), F)
    np.testing.assert_allclose(got, [iso_table(R, f) for R, f in zip(tensors, F)],
                               rtol=1e-12, atol=1e-12)


def test_iso_plane_rotation_invariance():
    """Rotating within span{e1,e2} (or span{e3,e4}) leaves the value fixed."""
    R = random_curvature(6, seed=25)
    rng = np.random.default_rng(25)
    F = _random_frame(rng, 6).matrix
    base = iso_table(R, F)
    for theta in (0.3, 1.2, 2.9):
        c, s = np.cos(theta), np.sin(theta)
        G = F.copy()
        G[:, 0] = c * F[:, 0] + s * F[:, 1]
        G[:, 1] = -s * F[:, 0] + c * F[:, 1]
        assert np.isclose(iso_table(R, G), base)


def test_iso_sphere_shift():
    R = random_curvature(6, seed=26)
    rng = np.random.default_rng(26)
    F = _random_frame(rng, 6)
    shifted = R + 1.7 * model_sphere(6, 1.0)
    assert np.isclose(isotropic_curvature(shifted, F),
                      isotropic_curvature(R, F) + 4.0 * 1.7)


# ---------------------------------------------------------------------------
# model tensors
# ---------------------------------------------------------------------------

def test_fubini_study_sectional_values(fs4):
    R, J = fs4
    rng = np.random.default_rng(27)
    for _ in range(10):
        x = _unit(rng, 4)
        assert np.isclose(holomorphic_sectional(R, J, x), 4.0)
    np.testing.assert_allclose(ricci(R), 6.0 * np.eye(4), atol=1e-12)


def test_fubini_study_orthogonal_bisectional(fs8):
    R, J = fs8
    rng = np.random.default_rng(28)
    Jm = J.matrix
    for _ in range(10):
        x = _unit(rng, 8)
        y = rng.standard_normal(8)
        jx = Jm @ x
        y -= (y @ x) * x + (y @ jx) * jx
        y /= np.linalg.norm(y)
        assert np.isclose(orthogonal_bisectional(R, J, x, y), 2.0)
    with pytest.raises(CurvatureError):
        orthogonal_bisectional(R, J, x, x)   # not orthogonal to X


def test_fubini_study_iso_zero_on_structure_frames(fs8):
    R, J = fs8
    rng = np.random.default_rng(29)
    Jm = J.matrix
    for _ in range(10):
        x = _unit(rng, 8)
        y = rng.standard_normal(8)
        jx = Jm @ x
        y -= (y @ x) * x + (y @ jx) * jx
        y /= np.linalg.norm(y)
        F = FourFrame.from_vectors(x, jx, y, Jm @ y)
        assert abs(isotropic_curvature(R, F)) < 1e-12


def test_kahler_form_model_invariance():
    """Conjugating every slot by J fixes the form-squared model exactly
    (conjugating only the last pair does not: the cross terms swap type)."""
    J = standard_complex_structure(6)
    S = model_sj(J)
    C = J.matrix
    T = S.rank4
    full = np.einsum("abcd,ai,bj,ck,dl->ijkl", T, C, C, C, C)
    np.testing.assert_allclose(full, T, atol=1e-12)
    last = np.einsum("ijab,ak,bl->ijkl", T, C, C)
    assert np.max(np.abs(last - T)) > 0.5
    assert model_sj is model_kahler_form


def test_r0_quaternionic_values(t8, r0_8):
    rng = np.random.default_rng(30)
    I, J, K = t8.matrices
    for _ in range(5):
        x = _unit(rng, 8)
        assert np.isclose(evaluate(r0_8, x, I @ x, x, I @ x), 1.0)
        F = FourFrame.from_vectors(x, J @ x, I @ x, K @ x)
        assert np.isclose(isotropic_curvature(r0_8, F), 4.0)
        # zero orthogonal bisectional at Y = IX
        assert abs(evaluate(r0_8, x, J @ x, I @ x, J @ I @ x)) < 1e-12


def test_r0_independent_of_triple_rotation(t8):
    rng = np.random.default_rng(31)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    R_rot = model_r0(rotate_triple(t8, q))
    assert (R_rot - model_r0(t8)).norm() < 1e-10
