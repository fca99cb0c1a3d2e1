"""Scan the isotropic pinching constant along a model interpolation family.

For R(t) = (1 - t) * sphere + t * M the minimum isotropic curvature over
orthonormal four-frames decays toward the boundary of the nonnegativity cone;
the scan tabulates min iso, the pinching constant (min iso / 4) and the
search's stop reason (``certified`` where the probe frame attains Ky Fan's
bound) against t.
"""

import argparse
import csv
import sys

import numpy as np

from curvkit import model_r0
from curvkit.core import (model_fubini_study, model_sphere,
                          standard_quaternion_triple)
from curvkit.frames import OptimizerConfig, _min_isotropic_stack, _pinching_from_iso


def endpoint(kind: str, n: int):
    if kind == "fubini-study":
        if n % 2:
            raise SystemExit("fubini-study needs even n")
        return model_fubini_study(n // 2, 4.0)[0]
    if n % 4:
        raise SystemExit("r0 needs n divisible by 4")
    return model_r0(standard_quaternion_triple(n))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--target", choices=["fubini-study", "r0"],
                    default="fubini-study", help="far end of the family")
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--steps", type=int, default=11)
    ap.add_argument("--restarts", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-csv", default=None)
    args = ap.parse_args(argv)

    sphere = model_sphere(args.n, 1.0)
    M = endpoint(args.target, args.n)
    cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)

    ts = [k / (args.steps - 1) if args.steps > 1 else 0.0 for k in range(args.steps)]
    family = [(1.0 - t) * sphere + t * M for t in ts]
    # the whole family is searched as one descent stack
    searches = _min_isotropic_stack(np.stack([R.mat for R in family]), args.n, cfg) if ts else []
    rows = []
    print(f"{'t':>6} {'min_iso':>12} {'pinching':>12}  stop_reason")
    for t, res in zip(ts, searches):
        pinching = _pinching_from_iso(res.value)
        rows.append((t, res.value, pinching, res.stop_reason))
        print(f"{t:6.3f} {res.value:12.8f} {pinching:12.8f}  {res.stop_reason}")

    if args.out_csv:
        with open(args.out_csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "min_iso", "pinching", "stop_reason"])
            w.writerows(rows)
        print(f"wrote {args.out_csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
