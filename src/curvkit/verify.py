"""Batch verification suite over the algebraic identities of the toolkit.

Each check measures one scalar defect and passes iff the measurement stays
within its stated tolerance; structural checks run always, sampled checks are
marked inapplicable when the sample budget is zero or the ambient dimension
does not support them.  The suite is deterministic given (n, seed, samples).
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import frames
from .core import (ComplexStructure, CurvatureTensor, FourFrame, bform,
                   einstein_normalize, einstein_residual, isotropic_from_columns,
                   model_fubini_study, model_r0, model_sj, model_sphere, qform,
                   ricci, standard_complex_structure, standard_quaternion_triple)
from .spaces import (curvature_space_basis, fixture_dimension, hyperkahler_subspace,
                     kahler_subspace, sample)


@dataclass
class CheckResult:
    check_id: str
    anchor: str                 # the identity in formula form, or "plumbing"
    status: str                 # "pass" | "fail" | "inapplicable"
    measured: float | None
    tolerance: float
    detail: str = ""
    wall_s: float = 0.0         # suite time since the previous check was recorded

    def to_dict(self) -> dict:
        return {"id": self.check_id, "anchor": self.anchor, "status": self.status,
                "measured": self.measured, "tolerance": self.tolerance,
                "detail": self.detail, "wall_s": self.wall_s}


@dataclass
class VerificationReport:
    suite: str
    n: int
    seed: int
    samples: int
    checks: list = field(default_factory=list)
    wall_time_s: float = 0.0
    timestamp: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {"suite": self.suite, "n": self.n, "seed": self.seed,
                "samples": self.samples, "passed": self.passed,
                "checks": [c.to_dict() for c in sorted(self.checks,
                                                       key=lambda c: c.check_id)],
                "wall_time_s": self.wall_time_s, "timestamp": self.timestamp}


def _result(check_id, anchor, measured, tolerance, detail=""):
    status = "pass" if measured <= tolerance else "fail"
    return CheckResult(check_id, anchor, status, float(measured), tolerance, detail)


def _skip(check_id, anchor, tolerance, why):
    return CheckResult(check_id, anchor, "inapplicable", None, tolerance, why)


def run_verification_suite(n: int = 8, seed: int = 7, samples: int = 20,
                           inject_defect: bool = False) -> VerificationReport:
    """Run every identity check supported at dimension n.

    ``inject_defect`` perturbs one model tensor before the reaction eigenvalue
    check, as a negative control: exactly that check must then fail.  Each
    check's ``wall_s`` is the time the suite spent since the previous check
    was recorded, building the inputs it first uses included; checks computed
    together (the two at the quaternionic maximizer) carry it on the first.
    """
    if not 4 <= n <= 8:
        raise ValueError("suite supports 4 <= n <= 8")
    t0 = time.perf_counter()
    checks: list[CheckResult] = []
    lap = t0

    def record(result: CheckResult) -> None:
        nonlocal lap
        now = time.perf_counter()
        result.wall_s, lap = now - lap, now
        checks.append(result)

    quaternionic = n % 4 == 0
    even = n % 2 == 0

    sphere = model_sphere(n, 1.0)
    J = standard_complex_structure(n) if even else None
    T = standard_quaternion_triple(n) if quaternionic else None
    hk = hyperkahler_subspace(T) if n == 8 else None

    # ---- structural checks (no sampling) ------------------------------------
    anchor_b0 = "B(b, S) = 0 for every hyper-Kahler basis element b and round S"
    if hk is not None:
        worst = max((bform(b, sphere).norm() / (b.norm() * sphere.norm())
                     for b in hk.basis))
        record(_result("bform-hyperkahler-sphere", anchor_b0, worst, 1e-9,
                       f"max over {len(hk.basis)} basis elements"))
        for name, A in zip("IJK", T.matrices):
            SA = model_sj(ComplexStructure(A))
            worst = max((bform(b, SA).norm() / (b.norm() * SA.norm())
                         for b in hk.basis))
            record(_result(f"bform-hyperkahler-sj-{name}",
                           f"B(b, S_{name}) = 0 for every hyper-Kahler basis element b",
                           worst, 1e-9))
    else:
        record(_skip("bform-hyperkahler-sphere", anchor_b0, 1e-9,
                     "requires n = 8"))

    anchor_r0 = "Q(R0) = (2m+4) R0"
    if quaternionic:
        m = n // 4
        R0 = model_r0(T)
        if inject_defect:
            if hk is not None:
                # Ricci-flat perturbation: only the eigenvalue identity breaks.
                R0 = R0 + 1e-3 * sample(hk, seed=seed)
            else:
                mat = R0.mat.copy()
                mat[0, 0] += 1e-3
                R0 = CurvatureTensor(n, mat, label="defect-injected")
        dev = (qform(R0) + (-(2 * m + 4)) * R0).norm() / R0.norm()
        record(_result("q-r0-eigen", anchor_r0, dev, 1e-9))
        ric_dev = float(np.max(np.abs(ricci(R0) - (m + 2) * np.eye(n))))
        record(_result("r0-ricci", "Ric(R0) = (m+2) id", ric_dev, 1e-10))
    else:
        record(_skip("q-r0-eigen", anchor_r0, 1e-9, "requires n divisible by 4"))
        record(_skip("r0-ricci", "Ric(R0) = (m+2) id", 1e-10,
                     "requires n divisible by 4"))

    # Built once, here, and reused by the sampled checks; built before the
    # hyper-Kahler checks, they raise the suite's peak memory.
    generic = curvature_space_basis(n)
    kahler = kahler_subspace(J) if even else None
    dims_dev = 0.0
    details = []
    for label, space in [("generic", generic)] \
            + ([("kahler", kahler)] if kahler is not None else []) \
            + ([("hyperkahler", hk)] if hk is not None else []):
        expected = fixture_dimension(n, label)
        details.append(f"{label}:{space.dimension}(frozen {expected})")
        dims_dev = max(dims_dev, abs(space.dimension - expected))
    record(_result("subspace-dimensions", "plumbing", dims_dev, 0.0,
                   ", ".join(details)))

    fixed = [("round", sphere, float(n - 1))]
    if even:
        m2 = n // 2
        fixed.append(("fubini-study", model_fubini_study(m2, 4.0)[0], 2.0 * (m2 + 1)))
    if quaternionic:
        fixed.append(("quaternionic", model_r0(T), n // 4 + 2.0))
    worst = max(einstein_residual(R, rho) / max(1.0, R.norm())
                for _, R, rho in fixed)
    record(_result("einstein-fixed-point", "Q(R) = 2 rho R for the model tensors",
                   worst, 1e-9, ", ".join(name for name, _, _ in fixed)))

    # ---- sampled checks ------------------------------------------------------
    def sampled(check_id, anchor, tol, requires, fn, why):
        if samples < 1 or not requires:
            record(_skip(check_id, anchor, tol, why))
            return
        measured, detail = fn()
        record(_result(check_id, anchor, measured, tol, detail))

    def sphere_shift():
        rng = np.random.default_rng([seed, 4])
        G = model_sphere(n, 1.0)
        worst = 0.0
        for _ in range(samples):
            R = einstein_normalize(sample(generic, seed=int(rng.integers(2**31))))
            kappa = float(rng.uniform(0.25, 3.0))
            QS = qform(R + (-kappa) * G)
            rhs = qform(R) + (2.0 * (n - 1) * kappa * (kappa - 2.0)) * G
            worst = max(worst, (QS - rhs).norm() / max(1.0, QS.norm()))
        return worst, f"{samples} normalized samples"

    sampled("sphere-shift-q-identity",
            "Q(R - k G) = Q(R) + 2(n-1) k (k-2) G when Ric(R) = (n-1) id",
            1e-8, True, sphere_shift, "requires samples >= 1")
    del generic  # its last use: freed before the frame searches below

    def q_additivity():
        rng = np.random.default_rng([seed, 1])
        R0 = model_r0(T)
        QR0 = qform(R0)
        worst = 0.0
        for _ in range(samples):
            R1 = sample(hk, seed=int(rng.integers(2**31)))
            kappa = float(rng.uniform(0.25, 4.0))
            lhs = qform(R1 + kappa * R0)
            rhs = qform(R1) + (kappa * kappa) * QR0
            worst = max(worst, (lhs - rhs).norm() / max(1.0, lhs.norm()))
        return worst, f"{samples} samples"

    sampled("q-additivity", "Q(R1 + k R0) = Q(R1) + k^2 Q(R0) for hyper-Kahler R1",
            1e-8, hk is not None, q_additivity, "requires n = 8 and samples >= 1")

    def qk_bound():
        rng = np.random.default_rng([seed, 2])
        cfg = frames.OptimizerConfig(restarts=4, seed=int(rng.integers(2**31)))
        gaps, worst_first = [], 0.0
        for _ in range(samples):
            R1 = sample(hk, seed=int(rng.integers(2**31)))
            rep = frames.qk_q_bound_check(R1, T, cfg)
            gaps.append(rep.q_value - rep.bound)
            fo = rep.first_order
            worst_first = max(worst_first, fo.deriv_y, fo.deriv_jy, -min(0.0, fo.min_slack))
        return max(gaps), worst_first

    if hk is not None and samples >= 1:
        gap, first = qk_bound()
        record(_result("q-hol-bound-maximizer",
                       "Q(R1)(X,JX,X,JX) <= (2m+4) R1(X,JX,X,JX)^2 at the maximizer",
                       gap, 1e-6, f"{samples} samples"))
        record(_result("max-hol-first-order",
                       "R1(X,JX,X,Y) = R1(X,JX,X,JY) = 0 and "
                       "2 R1(X,JX,Y,JY) <= R1(X,JX,X,JX) at the maximizer",
                       first, 1e-5, f"{samples} samples"))
    else:
        record(_skip("q-hol-bound-maximizer",
                     "Q(R1)(X,JX,X,JX) <= (2m+4) R1(X,JX,X,JX)^2 at the maximizer",
                     1e-6, "requires n = 8 and samples >= 1"))
        record(_skip("max-hol-first-order",
                     "first-order maximality of R1(X,JX,X,JX)",
                     1e-5, "requires n = 8 and samples >= 1"))

    def kahler_iso():
        rng = np.random.default_rng([seed, 3])
        Jm = J.matrix
        worst = 0.0
        for _ in range(samples):
            R = sample(kahler, seed=int(rng.integers(2**31)))
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            y = rng.standard_normal(n)
            jx = Jm @ x
            y -= (y @ x) * x + (y @ jx) * jx
            y /= np.linalg.norm(y)
            F = FourFrame.from_vectors(x, jx, y, Jm @ y)
            worst = max(worst, abs(isotropic_from_columns(R.mat, F.matrix))
                        / max(1.0, R.norm()))
        return worst, f"{samples} frames"

    sampled("kahler-iso-frame-identity",
            "iso(X, JX, Y, JY) = 0 for Kahler tensors", 1e-9,
            even, kahler_iso, "requires even n and samples >= 1")

    def boundary_q():
        cfg = frames.OptimizerConfig(restarts=16, seed=seed)
        worst = -1e9
        names = []
        targets = []
        if even:
            targets.append(("fubini-study", model_fubini_study(n // 2, 4.0)[0]))
        if quaternionic:
            targets.append(("quaternionic", model_r0(T)))
        for name, R in targets:
            res = frames.min_isotropic(R, cfg)
            rep = frames.boundary_q_check(R, res.frame_or_vector, min_iso=res.value)
            if rep.applicable:
                worst = max(worst, -rep.q_value)
                names.append(name)
        if not names:
            return 1e9, "no boundary frame found"
        return worst, "applicable on: " + ", ".join(names)

    sampled("boundary-q-nonneg",
            "iso_Q(F) >= 0 on zero-isotropic frames of nonnegative tensors",
            1e-6, even or quaternionic, boundary_q,
            "requires even n and samples >= 1")

    report = VerificationReport(suite="curvature-identities", n=n, seed=seed,
                                samples=samples, checks=checks,
                                wall_time_s=time.perf_counter() - t0,
                                timestamp=time.time())
    return report
