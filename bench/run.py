"""curvkit benchmark: one run of one workload.

    python3 bench/run.py --workload {pinch,flow,reaction,verify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; curvkit is imported from ``src/``.
A run sets up (fresh import of curvkit plus building the inputs), checks
the sphere-ray flow against its closed form, runs one warm-up rep, then
repeats the workload's fixed work for ``--seconds`` seconds in a closed
loop.  With ``--trace 0`` batches of set-ups and samples of a fixed reference
computation are timed between the reps, and the end-to-end times are scaled
by the reference to a host of fixed speed; with ``--trace 1`` every rep is
traced and gives the per-layer metrics.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (output checks) and ``metrics`` (the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``).
The line before it holds the details: every rep, set-up and reference time in
measured seconds, quartiles, the error rate and the environment.  Records and spans go to ``bench/out/``.
"""

import os

# One BLAS thread: the matrices are at most 66 x 66, so threading gains
# nothing and adds noise on a small shared host.  Must precede numpy's import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path[:0] = [str(BENCH), str(SRC)]

from tracer import TRACED, Tracer  # noqa: E402
from workloads import ORACLE_TOL, WORKLOADS, sphere_ray_error  # noqa: E402

# After each untraced rep, SETUP_BATCHES batches of SETUP_BATCH consecutive
# set-ups are timed, one sample being a batch's time over its size, and each
# batch is followed by one sample of the reference computation, the time of
# REFERENCE_UNITS calls of reference().
SETUP_BATCH = 4
SETUP_BATCHES = 3
REFERENCE_UNITS = 64
# The nominal time of one reference sample (0.17-0.24 s on the 2-vCPU host
# described in README.md).  End-to-end times are scaled by REFERENCE_S over
# the run's mean reference sample: seconds on a host of that fixed speed.
REFERENCE_S = 0.2
WARMUP_REPS = 1

LAYER_FUNCTIONS = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
COUNTS = ("flow.steps_accepted", "frames.restarts", "verify.checks")


# --------------------------------------------------------------------------
# environment
# --------------------------------------------------------------------------

def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None      # a plain source checkout carries no commit


def _blas():
    """(library name and version, threads the loaded OpenBLAS will use)."""
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{dep['name']} {dep['version']}"
    except (TypeError, KeyError):
        name = None
    threads = None
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                threads = int(getattr(handle, sym)())
                break
    return name, threads


def environment(args, reps: int) -> dict:
    blas, threads = _blas()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": threads, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "commit": _git_commit(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "reps": reps}


# --------------------------------------------------------------------------
# set-up, reps, metrics
# --------------------------------------------------------------------------

def _curvkit_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "curvkit" or name.startswith("curvkit.")}


def set_up(build, seed, workdir):
    """Import curvkit afresh and build the inputs; returns (curvkit, inputs, seconds).

    numpy is already imported, so the time is curvkit's import plus the inputs.
    """
    for name in _curvkit_modules():
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    curvkit = importlib.import_module("curvkit")
    importlib.import_module("curvkit.cli")
    inputs = build(curvkit, seed, workdir)
    return curvkit, inputs, time.perf_counter() - t0


def set_up_batch(build, seed, workdir) -> float:
    """Mean time of SETUP_BATCH consecutive set-ups; puts back the curvkit
    the reps use."""
    keep = _curvkit_modules()
    seconds = statistics.fmean(set_up(build, seed, workdir)[2] for _ in range(SETUP_BATCH))
    for name in _curvkit_modules():
        del sys.modules[name]
    sys.modules.update(keep)
    return seconds


_REF = np.random.default_rng(0).standard_normal((66, 66))
_REF_SYM = _REF + _REF.T


def reference() -> None:
    """A fixed mix of what the workloads spend their time on: interpreted
    Python, numpy calls on small arrays, 66 x 66 products and a symmetric
    eigensolve (66 = N at n = 12).  It runs no curvkit code, so only the
    host's speed moves its time."""
    s = 0
    for i in range(5000):
        s += i * i % 7
    x = np.ones(16)
    for _ in range(500):
        x = x * 0.5 + 1.0
    B = _REF
    for _ in range(50):
        B = (_REF @ B) * 0.01
    np.linalg.eigh(_REF_SYM)


def time_reference() -> float:
    t0 = time.perf_counter()
    for _ in range(REFERENCE_UNITS):
        reference()
    return time.perf_counter() - t0


class Checks:
    attempted = 0
    failed = 0

    def run(self, rep, curvkit, inputs) -> float:
        """One rep; returns its wall time.  A rep that raises counts as failed."""
        t0 = time.perf_counter()
        try:
            attempted, failed = rep(curvkit, inputs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            attempted, failed = 1, 1
        wall = time.perf_counter() - t0
        self.attempted += attempted
        self.failed += failed
        return wall


def quartiles(values) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "mean": statistics.fmean(values), "min": min(values),
            "q1": q[0], "median": q[1], "q3": q[2], "max": max(values)}


def layer_metrics(summaries, counts, traced, per_call_s, checks) -> dict:
    """Per-layer metrics from the traced reps; times are means over the reps,
    like the untraced reps, so the self times add up to ``trace.wall_s``."""
    first = summaries[0]
    # counts must repeat exactly: every rep runs the same inputs
    for s, c in zip(summaries[1:], counts[1:]):
        if s["calls"] != first["calls"] or c != counts[0]:
            checks.failed += 1
    checks.attempted += len(summaries) - 1

    mean = statistics.fmean
    m = {}
    for fn in LAYER_FUNCTIONS:
        m[f"{fn}.calls"] = (first["calls"].get(fn, 0), "count")
        m[f"{fn}.self_s"] = (mean([s["self_s"].get(fn, 0.0) for s in summaries]), "s")
    c = counts[0]
    for name in COUNTS:
        m[name] = (c.get(name, 0), "count")
    steps = c.get("flow.steps_accepted", 0) + c.get("flow.steps_rejected", 0)
    m["flow.accept_ratio"] = (c.get("flow.steps_accepted", 0) / steps if steps else 0.0,
                              "ratio")
    flow_s = sum(s["flow_s"] for s in summaries)
    m["flow.monitor_share"] = (
        sum(s["monitor_s"] for s in summaries) / flow_s if flow_s else 0.0, "ratio")
    restarts = c.get("frames.restarts", 0)
    m["frames.restart_hit_ratio"] = (
        c.get("frames.restart_hits", 0) / restarts if restarts else 0.0, "ratio")
    searches = first["calls"].get("frames.min_isotropic", 0)
    m["frames.converged_ratio"] = (
        c.get("frames.converged", 0) / searches if searches else 0.0, "ratio")
    m["trace.wall_s"] = (mean(traced), "s")
    # the wrappers' own cost, calibrated per call, times the calls of a rep
    m["trace.overhead_s"] = (per_call_s * sum(first["calls"].values()), "s")
    m["trace.self_s_share"] = (sum(sum(s["self_s"].values()) for s in summaries)
                               / sum(traced), "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "curvkit" / "__init__.py").is_file():
        print(f"error: no curvkit source under {SRC}", file=sys.stderr)
        return 2

    build, rep = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        curvkit, inputs, first_setup = set_up(build, args.seed, workdir)
        if Path(curvkit.__file__).resolve().parent != SRC / "curvkit":
            raise ImportError(f"curvkit imported from {curvkit.__file__}, not {SRC}")
        setup_times = []
        setup_dir = workdir / "set-up"
        setup_dir.mkdir()
        checks = Checks()
        oracle_error = sphere_ray_error(curvkit, args.seed)
        checks.attempted += 1
        checks.failed += not oracle_error <= ORACLE_TOL
        for _ in range(WARMUP_REPS):
            checks.run(rep, curvkit, inputs)
            time_reference()

        tracer = Tracer(_curvkit_modules()) if args.trace else None
        per_call_s = tracer.calibrate() if tracer else None
        reps, ref_times, summaries, counts = [], [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            if tracer is None:
                reps.append(checks.run(rep, curvkit, inputs))
                # set-ups and the reference are sampled between reps across
                # the whole run: the host's speed changes within seconds and
                # for minutes, and the reference must see the reps' share of it
                for _ in range(SETUP_BATCHES):
                    setup_times.append(set_up_batch(build, args.seed, setup_dir))
                    ref_times.append(time_reference())
            else:
                tracer.begin(len(reps))
                tracer.install()
                try:
                    reps.append(checks.run(rep, curvkit, inputs))
                finally:
                    tracer.restore()
                summaries.append(tracer.run_summary(len(reps) - 1))
                counts.append(dict(tracer.counts))
            if time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        # Means over the run: the host's speed switches within seconds, and
        # the mean averages the switches where the median of a few reps flips
        # with them.  The host also stays slow for minutes at a time, which
        # moves every statistic of a run's seconds alike; the reference slows
        # with it, so scaling by it keeps only the cost of curvkit's work.
        speed = REFERENCE_S / statistics.fmean(ref_times)
        metrics = {"wall_s": (statistics.fmean(reps) * speed, "s"),
                   "setup_s": (statistics.fmean(setup_times) * speed, "s"),
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                   / 1024.0, "MB")}
    else:
        metrics = layer_metrics(summaries, counts, reps, per_call_s, checks)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    detail = {"env": environment(args, len(reps)), "rep_s": quartiles(reps),
              "rep_samples_s": reps, "first_setup_s": first_setup,
              "oracle_rel_error": oracle_error,
              "error_rate": checks.failed / checks.attempted}
    if tracer is None:
        detail |= {"setup_s": quartiles(setup_times), "setup_samples_s": setup_times,
                   "reference_s": quartiles(ref_times), "speed": speed}
    else:
        detail |= {"tracer_per_call_s": per_call_s, "counts": counts[0]}
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
