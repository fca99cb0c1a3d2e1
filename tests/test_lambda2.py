"""The pair-basis (Lambda^2) fast paths against their rank-4 oracles.

B/Q, the Bianchi projection, the cyclic defect, the invariance defect, the
Ricci and Kulkarni-Nomizu contractions, the Weyl part, Einstein
normalization and the Kaehler-form model are computed on the N x N
coefficient matrix; each is compared here with the n^4-table computation it
replaces.
"""

import numpy as np
import pytest

from curvkit.core import (ComplexStructure, CurvatureError, CurvatureTensor, NonFiniteError,
                          _bform_stack, _require_bianchi_stack, bform, einstein_normalize,
                          invariance_defect, kulkarni_nomizu,
                          model_fubini_study, model_kahler_form, num_pairs,
                          project_bianchi, qform, ricci, scalar_curvature,
                          standard_complex_structure, standard_quaternion_triple, weyl)
from curvkit.flow import FlowConfig, _project, integrate_q_flow
from curvkit.verify import run_verification_suite

from helpers import (bform_einsum, cyclic_defect, einstein_normalize_rank4, expand_rank4,
                     invariance_einsum, kahler_form_rank4, kulkarni_nomizu_outer,
                     project_rank4, random_curvature, raw_tensor, ricci_einsum,
                     weyl_rank4)

SIZES = [4, 6, 8, 12]


def _rel(a, b):
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


def _pair_symmetric(n, seed):
    """Random symmetric coefficients: all curvature symmetries but Bianchi."""
    a = np.random.default_rng(seed).standard_normal((num_pairs(n), num_pairs(n)))
    return CurvatureTensor(n, a + a.T)


@pytest.mark.parametrize("n", [2, 3, 5] + SIZES)
def test_bform_and_qform_match_einsum(n):
    R = random_curvature(n, seed=300 + n)
    S = random_curvature(n, seed=400 + n)
    assert _rel(bform(R, S).rank4, bform_einsum(R.rank4, S.rank4)) <= 1e-12
    # a distinct object with R's entries takes the general (S is not R) branch
    assert _rel(bform(R, CurvatureTensor(n, R.mat.copy())).rank4,
                bform_einsum(R.rank4, R.rank4)) <= 1e-12
    assert _rel(qform(R).rank4, bform_einsum(R.rank4, R.rank4)) <= 1e-12


@pytest.mark.parametrize("n", SIZES)
def test_computed_tensors_are_stored_exactly_symmetric(n):
    # these results are stored without re-symmetrization
    R = random_curvature(n, seed=450 + n)
    S = random_curvature(n, seed=460 + n)
    for T in (bform(R, S), bform(S, R), qform(R), weyl(R), einstein_normalize(R)):
        assert np.array_equal(T.mat, T.mat.T)


@pytest.mark.parametrize("n", SIZES)
def test_flow_projection_matches_rank4(n):
    R = _pair_symmetric(n, seed=500 + n)
    P = _project(R)
    assert _rel(P.rank4, project_rank4(R.rank4)) <= 1e-12
    assert P.validation_defect() <= 1e-12 * max(1.0, P.norm())


@pytest.mark.parametrize("n", SIZES)
def test_validation_defect_matches_rank4(n):
    R = _pair_symmetric(n, seed=600 + n)
    expected = cyclic_defect(R.rank4)
    assert expected > 0.1
    assert abs(R.validation_defect() - expected) <= 1e-14 * expected


@pytest.mark.parametrize("n", SIZES)
def test_invariance_defect_matches_einsum(n):
    rng = np.random.default_rng(700 + n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mats = [standard_complex_structure(n).matrix, q]
    if n % 4 == 0:
        mats += list(standard_quaternion_triple(n).matrices)
    R = random_curvature(n, seed=800 + n)
    for A in mats:
        expected = invariance_einsum(R.rank4, [A])
        assert abs(invariance_defect(R, [A]) - expected) <= 1e-12 * max(1.0, expected)
    # Fubini-Study is invariant under its own complex structure
    FS, J = model_fubini_study(n // 2)
    assert invariance_defect(FS, [J.matrix]) <= 1e-12


def test_project_bianchi_is_idempotent_and_keeps_curvature_tensors():
    R = random_curvature(6, seed=900)
    np.testing.assert_allclose(project_bianchi(R.mat, 6), R.mat, atol=1e-13)
    S = _pair_symmetric(6, seed=901)
    once = project_bianchi(S.mat, 6)
    np.testing.assert_allclose(project_bianchi(once, 6), once, atol=1e-13)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bform_fails_closed():
    R = random_curvature(5, seed=910)
    with pytest.raises(CurvatureError):
        qform(_pair_symmetric(5, seed=911))       # input violates Bianchi
    bad = np.array(R.mat)
    bad[0, 0] = np.nan                            # not on any Bianchi entry
    with pytest.raises(CurvatureError, match="reaction input"):
        qform(raw_tensor(5, bad))
    bad[0, 0] = np.inf
    with pytest.raises(CurvatureError, match="reaction input"):
        bform(R, raw_tensor(5, bad))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bform_rejects_each_bad_input():
    R = random_curvature(6, seed=920)
    violating = CurvatureTensor(6, R.mat + 1e-6 * _pair_symmetric(6, seed=921).mat)
    bad = np.array(R.mat)
    bad[0, 0] = np.nan
    for S in (violating, raw_tensor(6, bad)):
        for args in ((R, S), (S, R)):
            with pytest.raises(CurvatureError, match="reaction input"):
                bform(*args)


@pytest.mark.parametrize("n", SIZES)
def test_bform_stack_matches_per_tensor_bform(n):
    mats = np.stack([random_curvature(n, seed=930 + 10 * n + t).mat for t in range(5)])
    S = random_curvature(n, seed=939 + 10 * n)
    stack = _bform_stack(mats, S)
    assert stack.shape == mats.shape
    for mat, B in zip(mats, stack):
        assert _rel(B, bform(CurvatureTensor(n, mat), S).mat) <= 1e-14


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bform_stack_fails_closed_per_tensor():
    n = 6
    S = random_curvature(n, seed=940)
    mats = np.stack([random_curvature(n, seed=941 + t).mat for t in range(4)])
    violating = mats.copy()
    violating[2] += 1e-6 * _pair_symmetric(n, seed=945).mat
    with pytest.raises(CurvatureError, match="reaction input 2 Bianchi defect"):
        _bform_stack(violating, S)
    non_finite = mats.copy()
    non_finite[3, 0, 0] = np.inf
    with pytest.raises(NonFiniteError, match="reaction input 3 is not finite"):
        _bform_stack(non_finite, S)
    with pytest.raises(CurvatureError, match="reaction input"):
        _bform_stack(mats, _pair_symmetric(n, seed=946))
    with pytest.raises(CurvatureError, match="stack"):
        _bform_stack(mats[0], S)
    # each tensor is held to its own scale, as B(R_t, S) is to |R_t| |S|
    _require_bianchi_stack(violating, n, "scaled", 1e-9, np.array([1.0, 1.0, 1e6, 1.0]))
    with pytest.raises(CurvatureError, match="scaled 2 Bianchi defect"):
        _require_bianchi_stack(violating, n, "scaled", 1e-9, np.array([1e6, 1e6, 1.0, 1e6]))


@pytest.mark.parametrize("n", SIZES)
def test_rank4_view_matches_expansion(n):
    R = random_curvature(n, seed=1100 + n)
    assert _rel(R.rank4, expand_rank4(R.mat, n)) <= 1e-12


@pytest.mark.parametrize("n", SIZES)
def test_ricci_weyl_and_normalization_match_rank4(n):
    R = random_curvature(n, seed=1200 + n)
    T = expand_rank4(R.mat, n)
    assert _rel(ricci(R), ricci_einsum(T)) <= 1e-12
    assert abs(scalar_curvature(R) - np.trace(ricci_einsum(T))) <= 1e-12 * max(1.0, R.norm())
    assert _rel(weyl(R).rank4, weyl_rank4(T)) <= 1e-12
    assert _rel(einstein_normalize(R).rank4, einstein_normalize_rank4(T)) <= 1e-12
    assert _rel(einstein_normalize(R, target=-2.5).rank4,
                einstein_normalize_rank4(T, target=-2.5)) <= 1e-12


@pytest.mark.parametrize("n", SIZES)
def test_kulkarni_nomizu_matches_outer_products(n):
    rng = np.random.default_rng(1300 + n)
    h, k = rng.standard_normal((2, n, n))
    h, k = h + h.T, k + k.T
    g = np.eye(n)
    for a, b in ((h, k), (h, g), (g, g)):
        assert _rel(kulkarni_nomizu(a, b), kulkarni_nomizu_outer(a, b)) <= 1e-12


@pytest.mark.parametrize("n", SIZES)
def test_kahler_form_matches_rank4(n):
    J = standard_complex_structure(n)
    q, _ = np.linalg.qr(np.random.default_rng(1400 + n).standard_normal((n, n)))
    for A in (J, ComplexStructure(q @ J.matrix @ q.T)):
        assert _rel(model_kahler_form(A, scale=1.7).rank4,
                    kahler_form_rank4(A.matrix, 1.7)) <= 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("op", [weyl, einstein_normalize])
def test_weyl_and_normalization_fail_closed(op):
    R = random_curvature(6, seed=1500)
    with pytest.raises(CurvatureError):
        op(_pair_symmetric(6, seed=1501))         # input violates Bianchi
    bad = np.array(R.mat)
    bad[0, 0] = np.nan
    with pytest.raises(CurvatureError, match="Bianchi defect"):
        op(raw_tensor(6, bad))


def test_library_paths_never_expand_rank4(monkeypatch):
    R = random_curvature(6, seed=1600)

    def refuse(self):
        raise AssertionError("rank-4 table expanded")

    monkeypatch.setattr(CurvatureTensor, "rank4", property(refuse))
    _, trace = integrate_q_flow(R, FlowConfig(t_end=0.01))
    assert trace.terminated_by == "t_end"
    report = run_verification_suite(n=8, samples=2)
    assert report.passed
