"""The verification suite builds each input once and times each check."""

from collections import Counter

import pytest

from curvkit import verify
from curvkit.spaces import CurvatureSubspace


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


def test_every_dimension_reports_the_same_checks_and_anchors():
    """A check inapplicable at n reads as at n = 8, with its one anchor."""
    def checks(n):
        return {c.check_id: c.anchor for c in verify.run_verification_suite(n=n, samples=1).checks}

    full = checks(8)
    assert len(full) == 14
    for n in (4, 5, 6, 7):
        assert checks(n) == full


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
    n that is not an integer in 4..8, fails at entry, naming the field, not
    deep in numpy or as a suite of skips."""
    for field, value in (("seed", -1), ("seed", 1.5), ("seed", True), ("samples", 2.5),
                         ("samples", -3), ("samples", False), ("n", 5.0), ("n", True),
                         ("n", 3), ("n", 9)):
        with pytest.raises(ValueError, match=field):
            verify.run_verification_suite(**{"n": 4, "seed": 0, "samples": 0, field: value})


def test_dimension_check_compares_with_the_closed_forms(monkeypatch):
    """A space that loses a basis element fails the dimension check, which
    names the closed form it missed; untouched, the suite passes at n = 4..8."""
    for n in range(4, 9):
        assert verify.run_verification_suite(n=n, samples=1).passed

    def short(J):
        space = kahler_subspace(J)
        return CurvatureSubspace(space.n, space.label, space.stacked[1:], space.structures)

    kahler_subspace = verify.kahler_subspace
    monkeypatch.setattr(verify, "kahler_subspace", short)
    for n, closed in ((4, 9), (6, 36), (8, 100)):
        checks = {c.check_id: c for c in verify.run_verification_suite(n=n, samples=1).checks}
        dims = checks["subspace-dimensions"]
        assert dims.status == "fail" and dims.measured == 1.0
        assert f"kahler:{closed - 1}(closed form {closed})" in dims.detail
        assert [c for c in checks.values() if c.status == "fail"] == [dims]
