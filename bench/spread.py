"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads pinch flow --seeds 1-10 [--trace] \\
        [--out bench/trajectory/<commit>.json]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, with the
``run_seconds`` of BENCHMARK.json.  For each metric it prints the median over
seeds, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, with the metric's bound and whether the spread is within
a third of it.  ``--trace`` runs the per-layer metrics instead.  ``--out``
writes every run's result and details, as one point of the bench trajectory.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {"seed": seed, "result": result, "detail": detail["detail"]}


def summarize(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    point = {"seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            run = run_once(workload, seed, spec["run_seconds"], args.trace)
            env = run["detail"].pop("env")
            runs.append(run)
            got = set(run["result"]["metrics"])
            if got != set(bounds):
                raise RuntimeError(f"metrics {sorted(got ^ set(bounds))} differ "
                                   "from BENCHMARK.json")
            ok &= run["result"]["correct"]
            print(f"{workload} seed {seed}: correct={run['result']['correct']} "
                  f"reps={env['reps']}", flush=True)
        table = {}
        for name, bound in bounds.items():
            s = summarize([r["result"]["metrics"][name]["value"] for r in runs])
            table[name] = s
            if bound is None:
                continue
            steady = s["spread"] < bound / 3
            print(f"  {name:12s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {bound}  "
                  f"{'steady' if steady else 'NOT STEADY'}")
        point["workloads"][workload] = {"metrics": table, "runs": runs}
    if args.out:
        point["env"] = {k: v for k, v in env.items() if k not in ("workload", "seed", "reps")}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
