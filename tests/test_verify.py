"""The verification suite builds each input once and times each check."""

import math
from collections import Counter

import numpy as np
import pytest

from curvkit import verify
from curvkit.core import model_sphere
from curvkit.spaces import MAX_BASIS_N, CurvatureSubspace

from helpers import random_curvature

SUPPORTED_N = range(4, MAX_BASIS_N + 1)


@pytest.fixture(scope="module")
def one_sample_reports():
    """The suite with one sample at every supported n, run once for the module."""
    return {n: verify.run_verification_suite(n=n, samples=1) for n in SUPPORTED_N}


def test_suite_builds_each_space_once_and_q_of_shift_once(monkeypatch):
    counts = Counter()

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("curvature_space_basis", "kahler_subspace", "_reaction", "_sample_stack",
                 "sample"):
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    report = verify.run_verification_suite(n=6, samples=3)
    assert report.passed
    # at n = 6 only the sphere-shift check takes Q here, of two stacks: Q(R) and
    # Q(R - k G); it and the Kahler iso check draw their samples as one stack each
    assert counts == {"curvature_space_basis": 1, "kahler_subspace": 1, "_reaction": 2,
                      "_sample_stack": 2}


def test_each_sampled_group_draws_one_stack(monkeypatch):
    """At n = 8 every sampled group draws all its samples in one stacked
    draw, from its own space, and no group draws one sample at a time."""
    draws = []
    stack = verify._sample_stack

    def counted(space, seeds, scale=1.0):
        draws.append((space.label, len(seeds)))
        return stack(space, seeds, scale)

    monkeypatch.setattr(verify, "_sample_stack", counted)
    monkeypatch.setattr(verify, "sample", None)
    assert verify.run_verification_suite(n=8, samples=3).passed
    assert draws == [("generic", 3), ("hyperkahler", 3), ("hyperkahler", 3), ("kahler", 3)]


@pytest.mark.parametrize("n", [4, 8])
def test_perturbed_reaction_term_fails_the_sampled_q_identities(monkeypatch, n):
    """Negative control: Q(R) + 1e-6 |R|^4 G, G the round model, is a valid
    tensor that breaks the sphere shift and the additivity (a |R|^2 term
    would cancel in the additivity, where <R1, R0> = 0).  Exactly the two
    sampled identities that take Q through verify._reaction fail, so neither
    compares a stack with itself; B(b, S) of the hyper-Kahler checks is left as it is."""
    reaction, G = verify._reaction, verify.model_sphere(n, 1.0).mat

    def perturbed(mats, n, S=None):
        out = reaction(mats, n, S)
        if S is not None:
            return out
        norms = 2.0 * np.linalg.norm(mats, axis=(-2, -1))[..., None, None]
        return out + (1e-6 * norms ** 4) * G

    monkeypatch.setattr(verify, "_reaction", perturbed)
    report = verify.run_verification_suite(n=n, samples=3)
    assert sorted(c.check_id for c in report.checks if c.status == "fail") == [
        "q-additivity", "sphere-shift-q-identity"]


def test_generic_samples_fail_the_kahler_iso_check(monkeypatch):
    """Negative control: with the generic space in place of the Kahler one,
    iso(X, JX, Y, JY) no longer vanishes and the Kahler check fails."""
    monkeypatch.setattr(verify, "kahler_subspace", lambda J: verify.curvature_space_basis(J.n))
    report = verify.run_verification_suite(n=6, samples=3)
    iso = next(c for c in report.checks if c.check_id == "kahler-iso-frame-identity")
    assert iso.status == "fail" and iso.measured > 1e-3


def test_every_applicable_check_reports_its_wall_time():
    report = verify.run_verification_suite(n=8, samples=1)
    applicable = [c for c in report.checks if c.status != "inapplicable"]
    assert applicable and all(c.wall_s >= 0.0 for c in applicable)
    assert all(c.to_dict()["wall_s"] == c.wall_s for c in report.checks)
    # the laps partition the suite's run, so they cannot exceed its wall time
    assert sum(c.wall_s for c in report.checks) <= report.wall_time_s + 1e-3


def test_every_dimension_reports_the_same_checks_and_anchors(one_sample_reports):
    """Every supported n reports the same 14 ids and anchors and passes; a
    group is inapplicable only where its structure does not exist, so at
    every n divisible by 4 all 14 checks run."""
    def checks(n):
        return {c.check_id: c.anchor for c in one_sample_reports[n].checks}

    full = checks(8)
    assert len(full) == 14
    for n, report in one_sample_reports.items():
        assert checks(n) == full and report.passed
        if n % 4 == 0:
            assert all(c.status == "pass" for c in report.checks), n


@pytest.mark.parametrize("n", [4, 8, 12])
def test_injected_defect_fails_exactly_the_eigen_check(n):
    """The negative control breaks Q(R0) = (2m+4) R0 and nothing else, at
    every quaternionic n."""
    report = verify.run_verification_suite(n=n, samples=0, inject_defect=True)
    assert [c.check_id for c in report.checks if c.status == "fail"] == ["q-r0-eigen"]


@pytest.mark.parametrize("n", [n for n in SUPPORTED_N if n % 4])
def test_injected_defect_fails_closed_without_r0(n):
    """R0 exists only at n divisible by 4; elsewhere the negative control
    raises instead of passing with nothing perturbed."""
    with pytest.raises(ValueError, match="divisible by 4"):
        verify.run_verification_suite(n=n, samples=0, inject_defect=True)


def test_quaternionic_bound_is_one_call_and_counts_its_rows(monkeypatch):
    calls, reports = [], []
    check = verify.frames.qk_q_bound_check

    def counted(R1s, T, cfg):
        calls.append(len(R1s))
        reports.extend(check(R1s, T, cfg))
        return reports

    monkeypatch.setattr(verify.frames, "qk_q_bound_check", counted)
    report = verify.run_verification_suite(n=8, samples=3)
    assert report.passed and calls == [3]
    detail = next(c.detail for c in report.checks if c.check_id == "q-hol-bound-maximizer")
    head, stops = detail.split(": ")
    searches = [rep.search for rep in reports]
    finished, back = (sum(getattr(res, f) for res in searches)
                      for f in ("newton_finished", "newton_handed_back"))
    assert head == (f"3 samples, 12 rows, {searches[0].passes} stack passes "
                    f"({searches[0].newton_passes} Newton; {finished} rows finished, "
                    f"{back} handed back)")
    assert 0 < searches[0].newton_passes < searches[0].passes and finished + back <= 12
    counts = dict(part.rsplit(" ", 1) for part in stops.split(", "))
    assert set(counts) <= set(verify.frames.STOP_REASONS)
    assert sum(int(c) for c in counts.values()) == 12


def test_boundary_check_counts_its_rows():
    """The Fubini-Study and quaternionic models are each certified at their
    probe frame: one row each, and no descent."""
    report = verify.run_verification_suite(n=8, samples=1)
    detail = next(c.detail for c in report.checks if c.check_id == "boundary-q-nonneg")
    assert detail == ("applicable on: fubini-study, quaternionic; "
                      "2 rows, 0 stack passes: certified 2")


def test_stop_counts_of_a_mixed_stack():
    """A call whose stack mixes certified and searched tensors reports the
    rows of both and the passes of its descent, not those of its first result."""
    n, cfg = 6, verify.frames.OptimizerConfig(restarts=2, seed=0)
    mats = np.stack([model_sphere(n, 1.0).mat, random_curvature(n, seed=3).mat])
    searches = verify.frames._min_isotropic_stack(mats, n, cfg)
    assert [res.passes for res in searches][0] == 0 < searches[1].passes
    assert verify._stop_counts(searches) == (
        f"4 rows, {searches[1].passes} stack passes: "
        f"grad_tol {searches[1].restart_stop_reasons.count('grad_tol')}, certified 1")


def test_bform_checks_make_one_stacked_call_per_model(monkeypatch):
    """B(b, S) is one call on the hyper-Kahler basis per model S; each sampled
    Q identity is one call per stack, and Q(R0) one call on R0 alone."""
    calls = []
    reaction = verify._reaction

    def counted(mats, n, S=None):
        calls.append((mats.shape[:-2], S is not None))
        return reaction(mats, n, S)

    monkeypatch.setattr(verify, "_reaction", counted)
    assert verify.run_verification_suite(n=8, samples=3).passed
    # the sphere and S_I, S_J, S_K; then the sphere shift, then the additivity
    assert calls == [((35,), True)] * 4 + [((3,), False)] * 4 + [((), False)]


def test_suite_rejects_negative_seed_at_entry():
    """A seed or sample count that is negative, a bool or not an integer, or an
    n that is not an integer in 4..MAX_BASIS_N, fails at entry, naming the
    field, not deep in numpy or as a suite of skips."""
    for field, value in (("seed", -1), ("seed", 1.5), ("seed", True), ("samples", 2.5),
                         ("samples", -3), ("samples", False), ("n", 5.0), ("n", True),
                         ("n", 3), ("n", MAX_BASIS_N + 1)):
        with pytest.raises(ValueError, match=field):
            verify.run_verification_suite(**{"n": 4, "seed": 0, "samples": 0, field: value})


def test_dimension_check_compares_with_the_closed_forms(monkeypatch, one_sample_reports):
    """A space that loses a basis element fails the dimension check, which
    names the closed form it missed; untouched, it passes at every supported
    n and names the hyper-Kahler space wherever n is divisible by 4."""
    for n, report in one_sample_reports.items():
        dims = next(c for c in report.checks if c.check_id == "subspace-dimensions")
        assert dims.status == "pass"
        hk = math.comb(n // 2 + 3, 4)
        assert (f"hyperkahler:{hk}(closed form {hk})" in dims.detail) == (n % 4 == 0)

    def short(J):
        space = kahler_subspace(J)
        return CurvatureSubspace(space.n, space.label, space.stacked[1:], space.structures)

    kahler_subspace = verify.kahler_subspace
    monkeypatch.setattr(verify, "kahler_subspace", short)
    for n, closed in ((4, 9), (6, 36), (8, 100), (12, 441)):
        checks = {c.check_id: c for c in verify.run_verification_suite(n=n, samples=1).checks}
        dims = checks["subspace-dimensions"]
        assert dims.status == "fail" and dims.measured == 1.0
        assert f"kahler:{closed - 1}(closed form {closed})" in dims.detail
        assert [c for c in checks.values() if c.status == "fail"] == [dims]
