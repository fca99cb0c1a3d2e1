"""Batch verification suite over the algebraic identities of the toolkit.

Each check measures one scalar defect and passes iff the measurement stays
within its stated tolerance.  Checks run in groups computed together, at
every n the subspaces are built for (4 <= n <= ``spaces.MAX_BASIS_N``); a
group is marked inapplicable, with its reason, when its structure (J, or the
quaternion triple) does not exist at n or, for a sampled group, when the
sample budget is zero, so every dimension reports the same check ids with
the same anchors.  The subspace dimensions are compared with their closed
forms (Besse, *Einstein Manifolds*, ch. 10), not with numbers from the code
under test.  The suite is deterministic given (n, seed, samples).

Each sampled group draws its samples as one (T, N, N) stack with
``spaces._sample_stack``, after taking every sample's seed and its other
draws (kappa, or x and y) from the group's generator in a fixed order, and
runs the Einstein normalization, the shifts, the reaction terms
(``core._reaction``, one call per stack), the right-hand sides and the norms
on that stack.
The quaternionic bound checks all its hyper-Kahler samples in one
``frames.qk_q_bound_check`` call, whose gate, maximizer searches and
reports each run as one stack.  Its detail, and that of the boundary check, counts how the
rows of their searches stopped.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import frames
from .core import (_einstein_stack, _reaction, _require_frames, _require_numbers, _stored,
                   einstein_residual, isotropic_from_columns, model_fubini_study, model_r0,
                   model_sj, model_sphere, ricci, standard_complex_structure,
                   standard_quaternion_triple)
from .spaces import (_require_basis_n, _sample_stack, curvature_space_basis,
                     hyperkahler_subspace, kahler_subspace, sample)


@dataclass
class CheckResult:
    check_id: str
    anchor: str                 # the identity in formula form, or "plumbing"
    status: str                 # "pass" | "fail" | "inapplicable"
    measured: float | None
    tolerance: float
    detail: str = ""
    wall_s: float = 0.0         # suite time since the previous group, on a group's first check

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


def _stop_counts(searches: list) -> str:
    """How many rows of the searches of one call stopped for each reason,
    and the passes of its descent stack, the most any search reports (a
    certified search has none), as one phrase.  A stack with a Newton finish
    adds its Newton passes and the rows the finish took to grad_tol or
    handed back to BB."""
    reasons = [r for res in searches for r in res.restart_stop_reasons]
    passes = max(res.passes for res in searches)
    newton = max(res.newton_passes for res in searches)
    finish = "" if not newton else (
        f" ({newton} Newton; {sum(res.newton_finished for res in searches)} rows finished, "
        f"{sum(res.newton_handed_back for res in searches)} handed back)")
    return f"{len(reasons)} rows, {passes} stack passes{finish}: " + ", ".join(
        f"{r} {reasons.count(r)}" for r in frames.STOP_REASONS if r in reasons)


def _norms(mats: np.ndarray) -> np.ndarray:
    """The norm 2 |M|_F of ``CurvatureTensor.norm`` of each matrix of a stack."""
    return 2.0 * np.linalg.norm(mats, axis=(1, 2))


def run_verification_suite(n: int = 8, seed: int = 7, samples: int = 20,
                           inject_defect: bool = False) -> VerificationReport:
    """Run every identity check supported at dimension n.

    ``inject_defect`` adds a Ricci-flat hyper-Kahler sample to R0 before the
    reaction eigenvalue check, as a negative control: exactly that check must
    then fail.  R0 exists only at n divisible by 4, so elsewhere the control
    raises ValueError instead of passing unperturbed.  The first check of
    each group carries as ``wall_s`` the time the suite spent since the
    previous group was recorded, building the inputs it first uses included;
    the group's later checks carry 0.
    """
    _require_numbers({"n": n, "seed": seed, "samples": samples},
                     (("n", 4), ("seed", 0), ("samples", 0)), ())
    _require_basis_n(n)
    if inject_defect and n % 4:
        raise ValueError(f"inject_defect perturbs R0, which requires n divisible by 4, got {n}")
    t0 = lap = time.perf_counter()
    checks: list[CheckResult] = []

    def run(group, why, measure):
        """Record ``group``, a list of (id, anchor, tolerance): all inapplicable
        when there is a reason ``why``, else each against its (measured,
        detail) from ``measure()``.  The group's time goes on its first check."""
        nonlocal lap
        if why:
            found = [CheckResult(i, a, "inapplicable", None, tol, why) for i, a, tol in group]
        else:
            found = [CheckResult(i, a, "pass" if m <= tol else "fail", float(m), tol, detail)
                     for (i, a, tol), (m, detail) in zip(group, measure(), strict=True)]
        now = time.perf_counter()
        found[0].wall_s, lap = now - lap, now
        checks.extend(found)

    quaternionic = n % 4 == 0
    even = n % 2 == 0
    hk_samples = "" if quaternionic and samples else "requires n divisible by 4 and samples >= 1"
    even_samples = "" if even and samples else "requires even n and samples >= 1"

    # Each model and space is built once and reused by every check that reads it.
    sphere = model_sphere(n, 1.0)
    J = standard_complex_structure(n) if even else None
    T = standard_quaternion_triple(n) if quaternionic else None
    R0 = model_r0(T) if quaternionic else None
    hk = hyperkahler_subspace(T) if quaternionic else None
    # (name, tensor, rho) with Q(R) = 2 rho R
    models = [("round", sphere, n - 1.0)]
    if even:
        models.append(("fubini-study", model_fubini_study(n // 2, 4.0)[0], n + 2.0))
    if quaternionic:
        models.append(("quaternionic", R0, n // 4 + 2.0))

    # ---- structural checks (no sampling) ------------------------------------
    def bform_defects():
        basis_norms = _norms(hk.stacked)
        for S in [sphere] + [model_sj(A) for A in (T.I, T.J, T.K)]:
            B = _reaction(hk.stacked, n, S.mat)
            yield (float(np.max(_norms(B) / (basis_norms * S.norm()))),
                   f"max over {hk.dimension} basis elements")

    run([("bform-hyperkahler-sphere",
          "B(b, S) = 0 for every hyper-Kahler basis element b and round S", 1e-9)]
        + [(f"bform-hyperkahler-sj-{name}",
            f"B(b, S_{name}) = 0 for every hyper-Kahler basis element b", 1e-9)
           for name in "IJK"],
        "" if quaternionic else "requires n divisible by 4", bform_defects)

    def r0_identities():
        R, rho = R0, n // 4 + 2
        if inject_defect:
            # Ricci-flat perturbation: only the eigenvalue identity breaks.
            R = R0 + 1e-3 * sample(hk, seed=seed)
        return [(einstein_residual(R, rho) / R.norm(), ""),
                (np.max(np.abs(ricci(R) - rho * np.eye(n))), "")]

    run([("q-r0-eigen", "Q(R0) = (2m+4) R0", 1e-9), ("r0-ricci", "Ric(R0) = (m+2) id", 1e-10)],
        "" if quaternionic else "requires n divisible by 4", r0_identities)

    generic = curvature_space_basis(n)
    kahler = kahler_subspace(J) if even else None

    def dimensions():
        """Each space against its closed form (Besse, ch. 10)."""
        closed = {"generic": n * n * (n * n - 1) // 12,
                  "kahler": (n // 2 * (n // 2 + 1) // 2) ** 2,
                  "hyperkahler": math.comb(n // 2 + 3, 4)}
        spaces = [s for s in (generic, kahler, hk) if s is not None]
        return [(max(abs(s.dimension - closed[s.label]) for s in spaces),
                 ", ".join(f"{s.label}:{s.dimension}(closed form {closed[s.label]})"
                           for s in spaces))]

    run([("subspace-dimensions", "plumbing", 0.0)], "", dimensions)

    run([("einstein-fixed-point", "Q(R) = 2 rho R for the model tensors", 1e-9)], "",
        lambda: [(max(einstein_residual(R, rho) / max(1.0, R.norm()) for _, R, rho in models),
                  ", ".join(name for name, _, _ in models))])

    # ---- sampled checks ------------------------------------------------------
    def draws(rng, extra):
        """``samples`` draws from rng, each a sample seed and then ``extra(rng)``:
        the seeds and the list of extras."""
        seeds, extras = [], []
        for _ in range(samples):
            seeds.append(int(rng.integers(2**31)))
            extras.append(extra(rng))
        return seeds, extras

    def worst_relative(defects, refs):
        """max over t of defects[t] / max(1, refs[t])."""
        return float(np.max(defects / np.maximum(1.0, refs)))

    def sphere_shift():
        seeds, kappas = draws(np.random.default_rng([seed, 4]),
                              lambda rng: float(rng.uniform(0.25, 3.0)))
        k = np.array(kappas)[:, None, None]
        G = sphere.mat
        Rs = _einstein_stack(_sample_stack(generic, seeds), n)
        QS = _reaction(Rs - k * G, n)
        rhs = _reaction(Rs, n) + (2.0 * (n - 1) * k * (k - 2.0)) * G
        return [(worst_relative(_norms(QS - rhs), _norms(QS)), f"{samples} normalized samples")]

    run([("sphere-shift-q-identity",
          "Q(R - k G) = Q(R) + 2(n-1) k (k-2) G when Ric(R) = (n-1) id", 1e-8)],
        "" if samples else "requires samples >= 1", sphere_shift)

    def q_additivity():
        seeds, kappas = draws(np.random.default_rng([seed, 1]),
                              lambda rng: float(rng.uniform(0.25, 4.0)))
        k = np.array(kappas)[:, None, None]
        R1s = _sample_stack(hk, seeds)
        lhs = _reaction(R1s + k * R0.mat, n)
        rhs = _reaction(R1s, n) + (k * k) * _reaction(R0.mat, n)
        return [(worst_relative(_norms(lhs - rhs), _norms(lhs)), f"{samples} samples")]

    run([("q-additivity", "Q(R1 + k R0) = Q(R1) + k^2 Q(R0) for hyper-Kahler R1", 1e-8)],
        hk_samples, q_additivity)

    def qk_bound():
        rng = np.random.default_rng([seed, 2])
        cfg = frames.OptimizerConfig(restarts=4, seed=int(rng.integers(2**31)))
        seeds = [int(rng.integers(2**31)) for _ in range(samples)]
        tensors = [_stored(m, n) for m in _sample_stack(hk, seeds)]
        reports = frames.qk_q_bound_check(tensors, T, cfg)
        gap = max(rep.q_value - rep.bound for rep in reports)
        first = max(max(fo.deriv_y, fo.deriv_jy, -min(0.0, fo.min_slack))
                    for fo in (rep.first_order for rep in reports))
        return [(gap, f"{samples} samples, {_stop_counts([rep.search for rep in reports])}"),
                (first, f"{samples} samples")]

    run([("q-hol-bound-maximizer",
          "Q(R1)(X,JX,X,JX) <= (2m+4) R1(X,JX,X,JX)^2 at the maximizer", 1e-6),
         ("max-hol-first-order", "R1(X,JX,X,Y) = R1(X,JX,X,JY) = 0 and "
          "2 R1(X,JX,Y,JY) <= R1(X,JX,X,JX) at the maximizer", 1e-5)],
        hk_samples, qk_bound)

    def kahler_iso():
        seeds, xy = draws(np.random.default_rng([seed, 3]),
                          lambda rng: (rng.standard_normal(n), rng.standard_normal(n)))
        x, y = (np.array(v) for v in zip(*xy))            # (samples, n) each
        Jt = J.matrix.T                                    # rows v -> rows J v
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        jx = x @ Jt
        y -= np.sum(y * x, axis=1, keepdims=True) * x + np.sum(y * jx, axis=1, keepdims=True) * jx
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        F = _require_frames(np.stack([x, jx, y, y @ Jt], axis=2))
        Rs = _sample_stack(kahler, seeds)
        iso = isotropic_from_columns(Rs, F)
        return [(worst_relative(np.abs(iso), _norms(Rs)), f"{samples} frames")]

    run([("kahler-iso-frame-identity", "iso(X, JX, Y, JY) = 0 for Kahler tensors", 1e-9)],
        even_samples, kahler_iso)

    def boundary_q():
        cfg = frames.OptimizerConfig(restarts=16, seed=seed)
        worst = -1e9
        names = []
        searches = frames._min_isotropic_stack(np.stack([R.mat for _, R, _ in models[1:]]), n, cfg)
        for (name, R, _), res in zip(models[1:], searches):
            rep = frames.boundary_q_check(R, res.frame_or_vector, min_iso=res.value)
            if rep.applicable:
                worst = max(worst, -rep.q_value)
                names.append(name)
        if not names:
            return [(1e9, f"no boundary frame found; {_stop_counts(searches)}")]
        return [(worst, f"applicable on: {', '.join(names)}; {_stop_counts(searches)}")]

    run([("boundary-q-nonneg",
          "iso_Q(F) >= 0 on zero-isotropic frames of nonnegative tensors", 1e-6)],
        even_samples, boundary_q)

    return VerificationReport(suite="curvature-identities", n=n, seed=seed,
                              samples=samples, checks=checks,
                              wall_time_s=time.perf_counter() - t0,
                              timestamp=time.time())
