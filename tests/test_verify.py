"""The verification suite builds each input once."""

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
