"""Command-line surface: build model tensors, check curvature conditions,
run the verification suite, and integrate the reaction flow.

Exit codes: 0 success, 1 a requested assertion failed (a non-finite
measured value fails every assertion), 2 invalid input or flags, 3 the flow
integrator could not reach the end time (step size underflow).  All seeded
commands honor the CURVKIT_SEED environment variable when --seed is not
given; both take a nonnegative integer.  JSON output is strict (non-finite
numbers are written as null), key-sorted and deterministic up to the
timestamp / wall-time fields.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .core import (CurvatureError, model_fubini_study, model_r0, model_sj,
                   model_sphere, ricci, scalar_curvature,
                   standard_complex_structure, standard_quaternion_triple, weyl)
from .flow import FlowConfig, FlowError, cone_preservation_probe, integrate_q_flow
from .frames import OptimizerConfig, _pinching_from_iso, min_isotropic
from .spaces import MAX_BASIS_N
from .tensor_io import load_tensor, save_tensor, write_trace_csv
from .verify import run_verification_suite


def _env_seed(args, fallback: int) -> int:
    """--seed if given, else CURVKIT_SEED, else ``fallback``; a CURVKIT_SEED
    that is not a nonnegative integer exits 2, as a bad --seed does."""
    if args.seed is not None:
        return args.seed
    text = os.environ.get("CURVKIT_SEED")
    if text is None:
        return fallback
    try:
        return nonnegative_int(text)
    except (ValueError, argparse.ArgumentTypeError):
        print(f"error: CURVKIT_SEED must be a nonnegative integer, got {text!r}",
              file=sys.stderr)
        raise SystemExit(2)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _finite_json(obj):
    """``obj`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return obj


def _dumps(obj) -> str:
    return json.dumps(_finite_json(obj), sort_keys=True, indent=2, allow_nan=False)


def _emit(obj) -> None:
    print(_dumps(obj))


def cmd_model(args) -> int:
    n = args.n
    if args.kind == "sphere":
        R = model_sphere(n, args.param)
    elif args.kind == "fubini-study":
        if n % 2:
            raise CurvatureError("fubini-study requires even n")
        R = model_fubini_study(n // 2, args.param)[0]
    elif args.kind == "r0":
        if n % 4:
            raise CurvatureError("r0 requires n divisible by 4")
        R = model_r0(standard_quaternion_triple(n), scale=args.param)
    else:  # sj
        if n % 2:
            raise CurvatureError("sj requires even n")
        R = model_sj(standard_complex_structure(n), scale=args.param)
    save_tensor(R, args.out)
    return 0


def cmd_check(args) -> int:
    R = load_tensor(args.infile)
    report = {"what": args.what, "n": R.n, "input": args.infile}
    tol = args.tol
    asserted_value = None
    if args.what in ("iso-min", "pinch"):
        seed = _env_seed(args, 0)
        cfg = OptimizerConfig(restarts=args.restarts, seed=seed)
        res = min_isotropic(R, cfg)
        value, bound = res.value, res.lower_bound
        if args.what == "pinch":
            value, bound = _pinching_from_iso(value), _pinching_from_iso(bound)
        # the bound is proven, the value is attained at a frame
        verdict = "certified" if bound >= -tol else "refuted" if value < -tol else "searched"
        report.update(value=value, lower_bound=bound, verdict=verdict, converged=res.converged,
                      iterations=res.iterations, passes=res.passes,
                      restarts=args.restarts, seed=seed, stop_reason=res.stop_reason)
        asserted_value = value
    elif args.what == "ricci":
        ric = ricci(R)
        eigs = np.linalg.eigvalsh(ric)
        report.update(ricci=[[float(v) for v in row] for row in ric],
                      eigenvalues=[float(v) for v in eigs],
                      scal=scalar_curvature(R))
        asserted_value = float(eigs[0])
    else:  # weyl
        report.update(weyl_norm=weyl(R).norm(), norm=R.norm())
    _emit(report)
    if args.assert_nonneg:
        if asserted_value is None:
            print("--assert-nonneg has no meaning for --what weyl", file=sys.stderr)
            return 2
        if not asserted_value >= -tol:
            return 1
    return 0


def _verify_table(report) -> str:
    """One line per check, sorted by id: status, measured value, tolerance and
    wall time, with the detail of each failing check beneath it."""
    width = max(len(c.check_id) for c in report.checks)
    rule = "-" * (width + 54)
    lines = [f"suite={report.suite} n={report.n} seed={report.seed} "
             f"samples={report.samples}  ({report.wall_time_s:.1f}s)", rule]
    for c in sorted(report.checks, key=lambda c: c.check_id):
        measured = "" if c.measured is None else f"{c.measured:.3e}"
        lines.append(f"{c.check_id:<{width}}  {c.status:<12} {measured:>12} "
                     f"{c.tolerance:>9.0e} {c.wall_s:>8.3f}s")
        if c.status == "fail":
            lines.append(f"{'':<{width}}  -> {c.detail}")
    n_fail = sum(c.status == "fail" for c in report.checks)
    n_skip = sum(c.status == "inapplicable" for c in report.checks)
    lines += [rule, f"{len(report.checks)} checks, {n_fail} failed, "
                    f"{n_skip} inapplicable"]
    return "\n".join(lines)


def cmd_verify(args) -> int:
    seed = _env_seed(args, 7)
    try:
        report = run_verification_suite(n=args.n, seed=seed, samples=args.samples,
                                        inject_defect=args.inject_defect)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = report.to_dict()
    if args.format == "table":
        print(_verify_table(report))
    else:
        _emit(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_dumps(payload))
    return 0 if report.passed else 1


def cmd_flow(args) -> int:
    R0 = load_tensor(args.infile)
    cfg = FlowConfig(t_end=args.t_end, dt_init=args.dt,
                     monitor_every=args.monitor_every)
    code = 0
    if args.assert_cone:
        try:
            probe = cone_preservation_probe(R0, cfg)
        except CurvatureError:
            raise
        except ValueError as exc:
            print(f"cone assertion failed: {exc}", file=sys.stderr)
            return 1
        trace = probe.trace
        summary = {"preserved": probe.preserved,
                   "worst_margin": probe.worst_margin}
        if not probe.preserved:
            code = 1
    else:
        _, trace = integrate_q_flow(R0, cfg)
        summary = {}
    summary.update(t_final=float(trace.times[-1]),
                   norm_final=float(trace.norm[-1]),
                   scal_final=float(trace.scalars[-1]),
                   terminated_by=trace.terminated_by,
                   steps_accepted=trace.steps_accepted,
                   steps_rejected=trace.steps_rejected,
                   reaction_evals=trace.reaction_evals, first_step=trace.first_step,
                   monitor_s=trace.monitor_s, min_iso_initial=float(trace.min_iso[0]),
                   min_iso_final=float(trace.min_iso[-1]))
    _emit(summary)
    if args.out_csv:
        write_trace_csv(trace, args.out_csv)
    return code


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="curvkit",
                                description="pointwise curvature-tensor toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    m = sub.add_parser("model", help="write a model curvature tensor as JSON")
    m.add_argument("--kind", required=True,
                   choices=["sphere", "fubini-study", "r0", "sj"])
    m.add_argument("--n", type=int, required=True, help="ambient dimension")
    m.add_argument("--param", type=finite_float, default=1.0,
                   help="scale: sphere lambda / fubini-study c / r0 scale / sj scale")
    m.add_argument("--out", required=True)
    m.set_defaults(func=cmd_model)

    c = sub.add_parser("check", help="evaluate a curvature condition on a tensor file")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--what", required=True,
                   choices=["iso-min", "pinch", "ricci", "weyl"])
    c.add_argument("--restarts", type=positive_int, default=64)
    c.add_argument("--seed", type=nonnegative_int, default=None)
    c.add_argument("--tol", type=finite_float, default=1e-8)
    c.add_argument("--assert-nonneg", action="store_true",
                   help="exit 1 when the checked value is below -tol or not finite")
    c.set_defaults(func=cmd_check)

    v = sub.add_parser("verify", help="run the identity verification suite")
    v.add_argument("--n", type=int, choices=range(4, MAX_BASIS_N + 1), default=8)
    v.add_argument("--seed", type=nonnegative_int, default=None)
    v.add_argument("--samples", type=nonnegative_int, default=20)
    v.add_argument("--out", default=None, help="also write the JSON report here")
    v.add_argument("--format", choices=["json", "table"], default="json",
                   help="stdout layout: the JSON report, or one line per check")
    v.add_argument("--inject-defect", action="store_true", help=argparse.SUPPRESS)
    v.set_defaults(func=cmd_verify)

    f = sub.add_parser("flow", help="integrate dR/dt = Q(R) from a tensor file")
    f.add_argument("--in", dest="infile", required=True)
    f.add_argument("--t-end", type=positive_float, default=None)
    f.add_argument("--dt", type=positive_float, default=None,
                   help="first step in t (default: estimated from the tensor)")
    f.add_argument("--monitor-every", type=positive_int, default=10)
    f.add_argument("--out-csv", default=None)
    f.add_argument("--assert-cone", action="store_true",
                   help="exit 1 unless nonnegative isotropic curvature persists")
    f.set_defaults(func=cmd_flow)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CurvatureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
