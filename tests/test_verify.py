"""The verification suite builds each input once and times each check."""

from collections import Counter

from curvkit import verify


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
