"""The four benchmark workloads: inputs made from a seed, one rep of fixed
work, and the checks on that rep's outputs.

Each workload is a closed loop with one caller: the benchmark calls curvkit,
waits for the result, checks it, and only then starts the next call.  Why each
workload exists, and which layer it loads, is in README.md next to this file.

``build(curvkit, seed, workdir)`` returns the inputs; ``rep(curvkit, inputs)``
runs the fixed work once and returns ``(attempted, failed)`` output checks.
Both receive the imported curvkit package, so that a fresh import (set-up is
timed from the import on) and the tracer's wrapped functions are both seen.
"""

import contextlib
import io
import json

import numpy as np

# Flow inputs: a fixed Gaussian base table per size plus a seeded perturbation
# of this relative size.  Independent Gaussian tensors per seed change the
# monitoring descents' work by up to +-25% between seeds, which would swamp
# the benchmark's bounds; a 0.1% perturbation gives every seed its own tensor
# with comparable work (see README.md).
FLOW_BASE_SEED = 20260
FLOW_PERTURBATION = 1e-3
PINCH_STEPS = 11
PINCH_RESTARTS = 16
PINCH_TOL = 1e-8
VERIFY_ARGV = ["verify", "--n", "8", "--samples", "20", "--seed", "7"]
ORACLE_TOL = 1e-8


def _cli(curvkit, argv):
    """Run ``curvkit <argv>`` in-process; returns (exit code, parsed JSON stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = curvkit.cli.main(argv)
    return code, json.loads(out.getvalue())


# --------------------------------------------------------------------------
# pinch: sphere-to-Fubini-Study pinching scan, n = 4
# --------------------------------------------------------------------------

def build_pinch(curvkit, seed, workdir):
    # The scan is fixed whatever the seed: descents from 16 fixed starts are
    # chaotic in the input (a 1% rotation of the Fubini-Study endpoint moves
    # the scan's total iterations by +5% to +26%), so any seeded input would
    # make the work differ between seeds.
    core = curvkit.core
    sphere = core.model_sphere(4, 1.0)
    fs = core.model_fubini_study(2, 4.0)[0]
    ts = [k / (PINCH_STEPS - 1) for k in range(PINCH_STEPS)]
    cfg = curvkit.frames.OptimizerConfig(restarts=PINCH_RESTARTS, seed=0)
    return {"cfg": cfg, "scan": [(t, (1.0 - t) * sphere + t * fs) for t in ts]}


def rep_pinch(curvkit, inputs):
    failed = 0
    for t, R in inputs["scan"]:
        res = curvkit.frames.min_isotropic(R, inputs["cfg"])
        # the sphere adds exactly 4 (1 - t) on every frame; Fubini-Study's min is 0
        failed += not abs(res.value - 4.0 * (1.0 - t)) <= PINCH_TOL
    return len(inputs["scan"]), failed


# --------------------------------------------------------------------------
# flow (n = 6, monitored) and reaction (n = 12, endpoints only)
# --------------------------------------------------------------------------

def _flow_inputs(curvkit, seed, workdir, n, monitor_every):
    shape = (n,) * 4
    table = (np.random.default_rng([FLOW_BASE_SEED, n]).standard_normal(shape)
             + FLOW_PERTURBATION * np.random.default_rng([seed, n]).standard_normal(shape))
    R = curvkit.core.project_to_curvature(table)
    R = R * (1.0 / R.norm())
    path = workdir / f"flow-n{n}.json"
    curvkit.tensor_io.save_tensor(R, path)
    t_end = 200.0 * curvkit.flow.default_horizon(R)
    return {"argv": ["flow", "--in", str(path), "--t-end", repr(t_end),
                     "--monitor-every", str(monitor_every)]}


def build_flow(curvkit, seed, workdir):
    return _flow_inputs(curvkit, seed, workdir, 6, 10)


def build_reaction(curvkit, seed, workdir):
    # monitor_every beyond the step count: only the two endpoint records run
    return _flow_inputs(curvkit, seed, workdir, 12, 1_000_000)


@contextlib.contextmanager
def _capture_flow(cli):
    """Keep what the CLI's integrate_q_flow returns, to check the final tensor."""
    got = []
    original = cli.integrate_q_flow

    def capture(*args, **kwargs):
        out = original(*args, **kwargs)
        got.append(out)
        return out

    cli.integrate_q_flow = capture
    try:
        yield got
    finally:
        cli.integrate_q_flow = original


def rep_flow(curvkit, inputs):
    with _capture_flow(curvkit.cli) as got:
        code, summary = _cli(curvkit, inputs["argv"])
    R = got[-1][0]
    checks = [code == 0,
              summary["terminated_by"] == "blowup_guard",
              R.validation_defect() <= 1e-9 * max(1.0, R.norm())]
    return len(checks), checks.count(False)


# --------------------------------------------------------------------------
# verify: curvkit verify --n 8 --samples 20
# --------------------------------------------------------------------------

def build_verify(curvkit, seed, workdir):
    # The suite draws its samples from its own seed, and suite seeds 0-9 spread
    # its descent work from 3.5k to 5.8k iterations; the default seed 7 keeps
    # the work fixed.
    return {"argv": VERIFY_ARGV}


def rep_verify(curvkit, inputs):
    code, report = _cli(curvkit, inputs["argv"])
    statuses = [c["status"] for c in report["checks"]]
    applicable = [s for s in statuses if s != "inapplicable"]
    failed = sum(s != "pass" for s in applicable)
    failed += code != 0 or not report["passed"] or not applicable
    return len(applicable) + 1, failed


WORKLOADS = {
    "pinch": (build_pinch, rep_pinch),
    "flow": (build_flow, rep_flow),
    "reaction": (build_reaction, rep_flow),
    "verify": (build_verify, rep_verify),
}


# --------------------------------------------------------------------------
# closed-form check, run once per benchmark run outside the timed region
# --------------------------------------------------------------------------

def sphere_ray_error(curvkit, seed) -> float:
    """Relative error of a sphere-ray flow against scalar_blowup_oracle.

    Q(lam S) = 2 (n-1) lam^2 S on the round model S, so the flow from lam0 S
    stays on the ray with scale lam0 / (1 - c lam0 t), c = 2 (n-1).  The flow
    runs to 80% of the blow-up time at a tight tolerance (error ~2e-10).
    """
    flow = curvkit.flow
    n = 4
    c = 2.0 * (n - 1)
    lam0 = float(np.random.default_rng([seed, 1]).uniform(0.5, 2.0))
    sphere = curvkit.core.model_sphere(n, 1.0)
    cfg = flow.FlowConfig(t_end=0.8 / (c * lam0), rel_tol=1e-12, monitor_every=1_000_000)
    R, trace = flow.integrate_q_flow(lam0 * sphere, cfg)
    expected = flow.scalar_blowup_oracle(c, lam0, float(trace.times[-1])) * sphere
    return (R - expected).norm() / expected.norm()
