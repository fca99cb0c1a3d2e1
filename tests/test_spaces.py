"""Subspaces of curvature tensors: dimensions, sampling, projections."""

import math

import numpy as np
import pytest

from curvkit.core import (ComplexStructure, NonFiniteError, QuaternionTriple,
                          _invariance_defects, bianchi_sums, model_sphere, pair_indices, ricci,
                          standard_complex_structure, standard_quaternion_triple)
from curvkit.spaces import (CurvatureSubspace, _fixed_two_forms, _holonomy_space, _kahler_table,
                            _sample_stack, constraint_violation,
                            curvature_space_basis, hyperkahler_subspace, kahler_subspace,
                            project_onto, qk_decompose, sample)

from helpers import generic_dimension_bruteforce, random_curvature, stacked_rows_basis


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10, 11, 12])
def test_generic_dimension_closed_form(n):
    space = curvature_space_basis(n)
    assert space.dimension == n * n * (n * n - 1) // 12


@pytest.mark.parametrize("n", [4, 5])
def test_generic_dimension_bruteforce_oracle(n):
    """Full n^4 coordinate system agrees with the pair-basis machinery."""
    assert generic_dimension_bruteforce(n) == curvature_space_basis(n).dimension


def test_basis_orthonormal(hk8):
    G = np.array([[4.0 * np.vdot(a.mat, b.mat) for b in hk8.basis]
                  for a in hk8.basis])
    np.testing.assert_allclose(G, np.eye(hk8.dimension), atol=1e-10)


def test_samples_are_valid_and_deterministic(hk8, kahler4):
    for space in (hk8, kahler4):
        R = sample(space, seed=5)
        assert R.validation_defect() < 1e-10
        R2 = sample(space, seed=5)
        np.testing.assert_array_equal(R.mat, R2.mat)
        assert (sample(space, seed=6) - R).norm() > 1e-3


def test_hyperkahler_samples_ricci_flat(hk8):
    for seed in range(3):
        R = sample(hk8, seed=seed)
        assert np.max(np.abs(ricci(R))) < 1e-12
        assert constraint_violation(hk8, R) < 1e-12


def test_kahler_invariance_of_samples(kahler4):
    R = sample(kahler4, seed=9)
    assert constraint_violation(kahler4, R) < 1e-12
    # a generic tensor violates the structure constraint
    assert constraint_violation(kahler4, random_curvature(4, seed=10)) > 1e-3


def test_hyperkahler_nested_in_kahler(t8, hk8):
    kI = kahler_subspace(t8.I)
    R = sample(hk8, seed=11)
    _, residual = project_onto(kI, R)
    assert residual < 1e-10


def test_project_onto_roundtrip(kahler4):
    R = sample(kahler4, seed=12)
    coeffs, residual = project_onto(kahler4, R)
    assert residual < 1e-12
    rebuilt = sum((float(c) * b for c, b in zip(coeffs, kahler4.basis)),
                  start=0.0 * R)
    assert (rebuilt - R).norm() < 1e-10


def test_project_onto_detects_outsiders(kahler4):
    R = random_curvature(4, seed=13)
    _, residual = project_onto(kahler4, R)
    assert residual > 1e-2


def test_qk_decompose_roundtrip(t8, hk8, r0_8):
    R1 = sample(hk8, seed=14)
    R = R1 + 1.75 * r0_8
    dec = qk_decompose(R, t8)
    assert np.isclose(dec.kappa, 1.75)
    assert dec.residual < 1e-10
    assert (dec.r1 - R1).norm() < 1e-10
    r1, kappa, residual = dec           # tuple-style unpacking
    assert kappa == dec.kappa


def test_qk_decompose_flags_non_quaternionic(t8):
    R = random_curvature(8, seed=15)
    dec = qk_decompose(R, t8)
    assert dec.residual > 1e-3


def test_dimension_guards():
    with pytest.raises(ValueError):
        curvature_space_basis(13)


def test_sphere_lives_in_generic_space():
    space = curvature_space_basis(5)
    _, residual = project_onto(space, model_sphere(5, 2.0))
    assert residual < 1e-12


# ---------------------------------------------------------------------------
# K(h) against the stacked-rows oracle and the closed forms
# ---------------------------------------------------------------------------

def _conjugated(mats, seed):
    """The matrices Q A Q^T for one seeded random orthogonal Q."""
    Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((mats[0].shape[0],) * 2))[0]
    return [Q @ A @ Q.T for A in mats]


def _space_and_structures(label, n, conjugate):
    if label == "generic":
        return curvature_space_basis(n), ()
    if label == "kahler":
        (Jm,) = _conjugated([standard_complex_structure(n).matrix], 2000 + n) \
            if conjugate else [standard_complex_structure(n).matrix]
        return kahler_subspace(ComplexStructure(Jm)), (Jm,)
    mats = standard_quaternion_triple(n).matrices
    if conjugate:
        mats = _conjugated(mats, 3000 + n)
    T = QuaternionTriple(*(ComplexStructure(A) for A in mats))
    return hyperkahler_subspace(T), tuple(mats)


@pytest.mark.parametrize("label,n,conjugate",
                         [("generic", n, False) for n in range(4, 9)]
                         + [("kahler", n, c) for n in (4, 6, 8) for c in (False, True)]
                         + [("hyperkahler", n, c) for n in (4, 8) for c in (False, True)])
def test_projector_matches_stacked_rows_oracle(label, n, conjugate):
    space, structures = _space_and_structures(label, n, conjugate)
    B = space.stacked.reshape(space.dimension, -1)
    O = stacked_rows_basis(n, structures).reshape(-1, B.shape[1])
    assert B.shape == O.shape
    np.testing.assert_allclose(4.0 * B.T @ B, 4.0 * O.T @ O, rtol=0, atol=1e-10)


@pytest.mark.parametrize("n", range(4, 13))
def test_generic_basis_is_closed_form(n):
    """Orthonormal (4 B B^T = I), each element exactly Bianchi, and each on at
    most one quadruple's three entries and their transposes."""
    stacked = curvature_space_basis(n).stacked
    B = stacked.reshape(len(stacked), -1)
    np.testing.assert_allclose(4.0 * B @ B.T, np.eye(len(B)), rtol=0, atol=1e-14)
    assert not bianchi_sums(stacked, n).any()
    assert np.count_nonzero(B, axis=1).max() <= 6


def test_generic_basis_needs_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for n in (4, 8):
        assert curvature_space_basis(n).dimension == n * n * (n * n - 1) // 12


def _outside(space, other):
    """Max entry of the part of ``space``'s basis outside the span of
    ``other``'s orthonormal basis (4 B B^T = I)."""
    B = space.stacked.reshape(space.dimension, -1)
    O = other.stacked.reshape(other.dimension, -1)
    return float(np.abs(B - (4.0 * B @ O.T) @ O).max())


@pytest.mark.parametrize("n,conjugate", [(n, c) for n in range(4, 13, 2) for c in (False, True)])
def test_kahler_basis_is_closed_form(n, conjugate):
    """K(u(m)) for the standard J and a conjugated one: the closed-form
    dimension, orthonormal, Bianchi and J-invariant (exactly for the standard
    J), and the span of the SVD build of ``_holonomy_space`` on the fixed
    2-forms of J; ``test_projector_matches_stacked_rows_oracle`` holds it to
    the stacked-rows oracle at n <= 8."""
    space, (Jm,) = _space_and_structures("kahler", n, conjugate)
    m = n // 2
    assert space.dimension == (m * (m + 1) // 2) ** 2
    B = space.stacked.reshape(space.dimension, -1)
    np.testing.assert_allclose(4.0 * B @ B.T, np.eye(len(B)), rtol=0, atol=1e-13)
    sums, defects = bianchi_sums(space.stacked, n), _invariance_defects(space.stacked, (Jm,))
    if conjugate:
        assert np.abs(sums).max() <= 1e-14 and defects.max() <= 1e-14
    else:
        assert not sums.any() and not defects.any()
        assert np.count_nonzero(B, axis=1).max() <= 32
    svd = _holonomy_space(n, _fixed_two_forms([Jm]), "kahler", (Jm,))
    assert svd.dimension == space.dimension
    assert _outside(space, svd) <= 1e-13


def test_kahler_basis_needs_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    _kahler_table.cache_clear()
    for n in (4, 8, 12):
        for conjugate in (False, True):
            m = n // 2
            assert _space_and_structures("kahler", n, conjugate)[0].dimension == \
                (m * (m + 1) // 2) ** 2


@pytest.mark.parametrize("n", [4, 8])
def test_hyperkahler_basis_nested_in_each_kahler_space(n):
    T = standard_quaternion_triple(n)
    hk = hyperkahler_subspace(T)
    for A in (T.I, T.J, T.K):
        assert _outside(hk, kahler_subspace(A)) <= 1e-13


@pytest.mark.parametrize("n", range(4, 13, 2))
def test_kahler_basis_nested_in_generic_space(n):
    kahler = kahler_subspace(standard_complex_structure(n))
    assert _outside(kahler, curvature_space_basis(n)) <= 1e-14


@pytest.mark.parametrize("label,n,expected",
                         [("kahler", 2 * m, (m * (m + 1) // 2) ** 2) for m in (2, 3, 4, 5)]
                         + [("hyperkahler", 4 * m, math.comb(2 * m + 3, 4)) for m in (1, 2)])
def test_structured_dimension_closed_form(label, n, expected):
    """(m(m+1)/2)^2 for Kahler n = 2m, C(2m+3, 4) for hyper-Kahler n = 4m."""
    assert _space_and_structures(label, n, False)[0].dimension == expected


def test_stacked_basis_is_read_only_and_matches_basis(hk8):
    assert hk8.stacked.shape == (35, 28, 28)
    assert not hk8.stacked.flags.writeable
    for b, m in zip(hk8.basis, hk8.stacked):
        np.testing.assert_array_equal(b.mat, m)


def test_sample_and_projection_match_sequential_sums(hk8, generic_spaces):
    for space in (hk8, generic_spaces[6]):
        R = sample(space, seed=21)
        coeffs = np.random.default_rng(21).standard_normal(space.dimension)
        seq = sum(c * b.mat for c, b in zip(coeffs, space.basis))
        np.testing.assert_allclose(R.mat, seq, rtol=0, atol=1e-14)
        got, _ = project_onto(space, R)
        want = [4.0 * np.vdot(b.mat, R.mat) for b in space.basis]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("label, n", [("generic", 6), ("kahler", 4), ("hyperkahler", 8)])
def test_sample_stack_matches_sample(label, n):
    """Row t of one stacked draw is ``sample`` at seeds[t], up to the
    roundoff of one basis product for the stack against one per seed; it
    is exactly symmetric."""
    space = {"generic": lambda: curvature_space_basis(n),
             "kahler": lambda: kahler_subspace(standard_complex_structure(n)),
             "hyperkahler": lambda: hyperkahler_subspace(standard_quaternion_triple(n))}[label]()
    seeds = [3, 0, 2**31 - 1, 3, 17]
    stack = _sample_stack(space, seeds)
    assert stack.shape == (len(seeds),) + space.stacked.shape[1:]
    for t, s in enumerate(seeds):
        want = sample(space, seed=s).mat
        np.testing.assert_allclose(stack[t], want, rtol=0, atol=1e-14 * np.abs(want).max())
    np.testing.assert_array_equal(stack, np.swapaxes(stack, 1, 2))


def test_sample_stack_fails_closed_on_non_finite(kahler4):
    """A caller's space whose basis holds a NaN gives NonFiniteError, from
    the stack and from ``sample``."""
    stacked = kahler4.stacked.copy()
    stacked[2, 0, 1] = np.nan
    space = CurvatureSubspace(n=4, label="kahler", stacked=stacked)
    with pytest.raises(NonFiniteError, match="non-finite"):
        _sample_stack(space, [1, 2])
    with pytest.raises(NonFiniteError, match="non-finite"):
        sample(space, seed=1)


def test_quaternionic_kahler_space_checks_qk_decompose(t8, r0_8):
    """K(sp(2) + sp(1)) = hyper-Kahler + R R0 (Alekseevsky; Besse 14.45)."""
    iu, ju = pair_indices(8)
    forms = np.stack([A[iu, ju] for A in t8.matrices], axis=1)   # Kahler forms
    U = np.linalg.qr(np.hstack([_fixed_two_forms(t8.matrices), forms]))[0]
    assert U.shape == (28, 13)
    qk = _holonomy_space(8, U, "quaternionic-kahler", None)
    assert qk.dimension == 36
    _, residual = project_onto(qk, r0_8)
    assert residual <= 1e-12
    for seed in range(3):
        assert qk_decompose(sample(qk, seed=seed), t8).residual <= 1e-10
