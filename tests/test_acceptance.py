"""Acceptance gate: the eleven primary checks, one printed line per criterion.

Run with plain ``pytest -v``; each test emits
``[criterion NN] PASS/FAIL - detail`` on its own line regardless of capture.
"""

import time

import numpy as np
import pytest

from curvkit.core import (CurvatureTensor, FourFrame, bform,
                          einstein_normalize, inner, model_fubini_study,
                          model_sphere, qform, ricci,
                          standard_complex_structure,
                          standard_quaternion_triple)
from curvkit.flow import FlowConfig, integrate_q_flow, rk4_step, \
    scalar_blowup_oracle
from curvkit.frames import (OptimizerConfig, _iso_value_grad, _search_isotropic, _unit_probes,
                            boundary_q_check, min_isotropic, qk_q_bound_check,
                            sample_frames_min)
from curvkit.spaces import (curvature_space_basis, hyperkahler_subspace, kahler_subspace,
                            sample)
from curvkit import model_r0, model_sj

from helpers import random_curvature


def _report(capsys, k: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {k:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k:02d}: {detail}"


def test_criterion_01_pairing_annihilates_sphere(capsys, hk8):
    t0 = time.perf_counter()
    S = model_sphere(8, 1.0)
    worst = max(bform(b, S).norm() / (b.norm() * S.norm()) for b in hk8.basis)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 30.0
    _report(capsys, 1, ok,
            f"max relative pairing norm {worst:.2e} over "
            f"{len(hk8.basis)} basis elements ({dt:.1f}s)")


def test_criterion_02_pairing_annihilates_form_models(capsys, t8, hk8):
    worst = 0.0
    for A in (t8.I, t8.J, t8.K):
        S = model_sj(A)
        worst = max(worst, max(bform(b, S).norm() / (b.norm() * S.norm())
                               for b in hk8.basis))
    ok = worst <= 1e-9
    _report(capsys, 2, ok,
            f"max relative pairing norm {worst:.2e} across the three "
            f"form-squared models")


def test_criterion_03_reaction_additivity(capsys, hk8, r0_8):
    rng = np.random.default_rng(103)
    q_r0 = qform(r0_8)
    worst = 0.0
    for k in range(50):
        R1 = sample(hk8, seed=1000 + k)
        kappa = float(rng.uniform(-2.0, 2.0))
        lhs = qform(R1 + kappa * r0_8)
        rhs = qform(R1) + (kappa * kappa) * q_r0
        worst = max(worst, (lhs - rhs).norm() / max(1.0, lhs.norm()))
    ok = worst <= 1e-8
    _report(capsys, 3, ok,
            f"max relative cross-term over 50 samples {worst:.2e}")


def test_criterion_04_quaternionic_eigen_tensor(capsys):
    worst_eig, worst_ric = 0.0, 0.0
    for n in (8, 12):
        m = n // 4
        R0 = model_r0(standard_quaternion_triple(n))
        gap = (qform(R0) + (-(2.0 * m + 4.0)) * R0).norm() / R0.norm()
        ric_gap = float(np.max(np.abs(ricci(R0) - (m + 2.0) * np.eye(n))))
        worst_eig = max(worst_eig, gap)
        worst_ric = max(worst_ric, ric_gap)
    ok = worst_eig <= 1e-9 and worst_ric <= 1e-10
    _report(capsys, 4, ok,
            f"eigen relation residual {worst_eig:.2e}, "
            f"ricci residual {worst_ric:.2e} (n=8,12)")


def test_criterion_05_sphere_shift_identity(capsys):
    rng = np.random.default_rng(105)
    worst = 0.0
    for k in range(20):
        n = (4, 5, 6)[k % 3]
        R = einstein_normalize(random_curvature(n, seed=500 + k))
        kappa = float(rng.uniform(0.2, 3.0))
        G = model_sphere(n, 1.0)
        S = R + (-kappa) * G
        rhs = qform(R) + (2.0 * (n - 1) * kappa * (kappa - 2.0)) * G
        lhs = qform(S)
        worst = max(worst, (lhs - rhs).norm() / max(1.0, lhs.norm()))
    ok = worst <= 1e-8
    _report(capsys, 5, ok,
            f"max relative shift residual over 20 normalized tensors "
            f"{worst:.2e} (n in 4,5,6)")


@pytest.fixture(scope="module")
def boundary_runs(fs4, r0_8):
    """Per model: the search, which certifies its probe frame, and the
    multistart descent from the same starts, whose rows and zero frames the
    criteria check as well."""
    out = {}
    cfg = OptimizerConfig(restarts=64, seed=0)
    for name, R in (("fubini-study", fs4[0]), ("quaternionic", r0_8)):
        t0 = time.perf_counter()
        res = min_isotropic(R, cfg)
        descent = _search_isotropic(_unit_probes(R.mat[None], R.n), R.n, cfg)[0]
        oracle, _ = sample_frames_min(R, num_samples=100_000, seed=1)
        out[name] = (R, res, descent, oracle, time.perf_counter() - t0)
    return out


def test_criterion_06_boundary_minima(capsys, boundary_runs):
    ok, parts = True, []
    for name, (R, res, descent, oracle, dt) in boundary_runs.items():
        good = (res.stop_reason == "certified"
                and abs(res.value) <= 1e-6
                and abs(descent.value) <= 1e-6
                and all(v >= -1e-8 for v in descent.restart_values)
                and oracle >= -1e-8
                and dt < 120.0)
        ok = ok and good
        parts.append(f"{name}: min {res.value:.1e} ({res.stop_reason}), "
                     f"descent {descent.value:.1e}, oracle {oracle:.1e}, {dt:.0f}s")
    _report(capsys, 6, ok, "; ".join(parts))


def test_criterion_07_reaction_on_boundary_frames(capsys, boundary_runs):
    ok, count, worst = True, 0, np.inf
    for name, (R, res, descent, oracle, dt) in boundary_runs.items():
        frames = [res.frame_or_vector, descent.frame_or_vector]
        frames += [FourFrame(F) for F, v in
                   zip(descent.restart_frames, descent.restart_values)
                   if abs(v) <= 1e-6]
        for F in frames:
            rep = boundary_q_check(R, F, min_iso=res.value)
            ok = ok and rep.applicable and bool(rep.passed)
            count += 1
            worst = min(worst, rep.q_value)
    _report(capsys, 7, ok,
            f"reaction term >= -1e-6 on {count} boundary frames "
            f"(worst {worst:.2e})")


def test_criterion_08_quaternionic_reaction_bound(capsys, t8, hk8):
    cfg = OptimizerConfig(restarts=8, seed=0)
    worst_gap, worst_first = -np.inf, 0.0
    ok = True
    for k in range(20):
        rep = qk_q_bound_check(sample(hk8, seed=800 + k), t8, cfg)
        first = rep.first_order
        residual = max(first.deriv_y, first.deriv_jy,
                       -min(0.0, first.min_slack))
        worst_first = max(worst_first, residual)
        worst_gap = max(worst_gap, rep.q_value - rep.bound)
        ok = ok and rep.passed and first.passed
    ok = ok and worst_first <= 1e-5 and worst_gap <= 1e-6
    _report(capsys, 8, ok,
            f"20 samples: max first-order residual {worst_first:.2e}, "
            f"max bound excess {worst_gap:.2e}")


def test_criterion_09_flow_rays_and_order(capsys, r0_8):
    opt = OptimizerConfig(restarts=2, max_iters=200, seed=0)
    G = model_sphere(4, 1.0)
    R, _ = integrate_q_flow(G, FlowConfig(t_end=0.1, rel_tol=1e-10,
                                          optimizer=opt))
    exact = scalar_blowup_oracle(6.0, 1.0, 0.1)
    err_sphere = abs(inner(R, G) / inner(G, G) - exact) / exact

    R, _ = integrate_q_flow(r0_8, FlowConfig(t_end=0.05, rel_tol=1e-10,
                                             optimizer=opt))
    exact = scalar_blowup_oracle(8.0, 1.0, 0.05)
    err_r0 = abs(inner(R, r0_8) / inner(r0_8, r0_8) - exact) / exact

    errs = []
    for h in (2e-3, 1e-3, 5e-4):
        S = G
        for _ in range(int(round(0.04 / h))):
            S = rk4_step(S, h)
        lam = inner(S, G) / inner(G, G)
        errs.append(abs(lam - scalar_blowup_oracle(6.0, 1.0, 0.04)))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    ok = (err_sphere <= 1e-6 and err_r0 <= 1e-6
          and all(abs(p - 4.0) <= 0.3 for p in orders))
    _report(capsys, 9, ok,
            f"ray errors {err_sphere:.1e} / {err_r0:.1e}, "
            f"orders {orders[0]:.2f}, {orders[1]:.2f}")


def test_criterion_10_gradient_against_differences(capsys):
    h = 1e-5
    worst, case = 0.0, 0
    for n in (4, 5, 6, 7, 8):
        for _ in range(20):
            R = random_curvature(n, seed=1000 + case)
            rng = np.random.default_rng(2000 + case)
            vg = _iso_value_grad(R.mat[None], n, 1)
            rows = np.arange(1)
            F = np.linalg.qr(rng.standard_normal((1, n, 4)))[0]
            V = rng.standard_normal((1, n, 4))
            _, Gr = vg(F, rows)
            num = (vg(F + h * V, rows)[0][0] - vg(F - h * V, rows)[0][0]) / (2.0 * h)
            an = float(np.vdot(Gr, V))
            worst = max(worst, abs(num - an) / max(1.0, abs(an)))
            case += 1
    ok = worst <= 1e-5
    _report(capsys, 10, ok,
            f"max relative gradient error over {case} cases {worst:.2e}")


def test_criterion_11_subspace_dimensions(capsys, t8):
    ok = True
    dims = []
    for n in range(4, 9):
        d = curvature_space_basis(n).dimension
        ok = ok and d == n * n * (n * n - 1) // 12
        dims.append(d)
    k4 = kahler_subspace(standard_complex_structure(4)).dimension
    hk = hyperkahler_subspace(t8).dimension
    # (m(m+1)/2)^2 for Kahler n = 2m = 4, C(2m+3, 4) for hyper-Kahler n = 4m = 8
    ok = ok and k4 == 9 and hk == 35
    _report(capsys, 11, ok,
            f"generic dims {dims} match n^2(n^2-1)/12; "
            f"kahler(4)={k4}, hyperkahler(8)={hk} match the closed forms 9, 35")
