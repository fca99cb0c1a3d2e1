"""The verification suite builds each input once and times each check."""

import math
from collections import Counter

import pytest

from curvkit import verify
from curvkit.spaces import MAX_BASIS_N, CurvatureSubspace

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

    for name in ("curvature_space_basis", "kahler_subspace", "qform"):
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    report = verify.run_verification_suite(n=6, samples=3)
    assert report.passed
    # at n = 6 only the sphere-shift check calls qform here: Q(R) and Q(R - k G)
    assert counts == {"curvature_space_basis": 1, "kahler_subspace": 1, "qform": 6}


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
    calls = []
    check = verify.frames.qk_q_bound_check

    def counted(R1s, T, cfg):
        calls.append(len(R1s))
        return check(R1s, T, cfg)

    monkeypatch.setattr(verify.frames, "qk_q_bound_check", counted)
    report = verify.run_verification_suite(n=8, samples=3)
    assert report.passed and calls == [3]
    detail = next(c.detail for c in report.checks if c.check_id == "q-hol-bound-maximizer")
    head, stops = detail.split(": ")
    assert head == "3 samples, 12 rows"
    counts = dict(part.rsplit(" ", 1) for part in stops.split(", "))
    assert set(counts) <= set(verify.frames.STOP_REASONS)
    assert sum(int(c) for c in counts.values()) == 12


def test_boundary_check_counts_its_rows():
    """16 restarts and the probe row on each of the Fubini-Study and
    quaternionic models."""
    report = verify.run_verification_suite(n=8, samples=1)
    detail = next(c.detail for c in report.checks if c.check_id == "boundary-q-nonneg")
    assert detail.startswith("applicable on: fubini-study, quaternionic; 34 rows: ")
    counts = dict(part.rsplit(" ", 1) for part in detail.split(" rows: ")[1].split(", "))
    assert set(counts) <= set(verify.frames.STOP_REASONS)
    assert sum(int(c) for c in counts.values()) == 34


def test_bform_checks_make_one_stacked_call_per_model(monkeypatch):
    calls = []
    stack = verify._bform_stack

    def counted(mats, S):
        calls.append(len(mats))
        return stack(mats, S)

    monkeypatch.setattr(verify, "_bform_stack", counted)
    assert verify.run_verification_suite(n=8, samples=1).passed
    assert calls == [35] * 4                  # the sphere and S_I, S_J, S_K


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
