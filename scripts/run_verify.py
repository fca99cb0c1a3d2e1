"""Run the identity verification suite and print a per-check table.

Same engine as `curvkit verify`, but with a column layout that is easier to
scan when bisecting a numerical regression.  Exit code 0 iff everything that
applies passed.
"""

import argparse
import sys

from curvkit.verify import run_verification_suite


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=8, help="ambient dimension (4..8)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--samples", type=int, default=20,
                    help="sample count for the randomized checks")
    args = ap.parse_args(argv)

    report = run_verification_suite(n=args.n, seed=args.seed,
                                    samples=args.samples)

    width = max(len(c.check_id) for c in report.checks)
    print(f"suite={report.suite} n={report.n} seed={report.seed} "
          f"samples={report.samples}  ({report.wall_time_s:.1f}s)")
    print("-" * (width + 54))
    for c in sorted(report.checks, key=lambda c: c.check_id):
        measured = "" if c.measured is None else f"{c.measured:.3e}"
        print(f"{c.check_id:<{width}}  {c.status:<12} {measured:>12} {c.tolerance:>9.0e}"
              f" {c.wall_s:>8.3f}s")
        if c.status == "fail":
            print(f"{'':<{width}}  -> {c.detail}")
    print("-" * (width + 54))
    n_fail = sum(1 for c in report.checks if c.status == "fail")
    n_skip = sum(1 for c in report.checks if c.status not in ("pass", "fail"))
    print(f"{len(report.checks)} checks, {n_fail} failed, {n_skip} inapplicable")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
