"""Benchmark of the modgalrep realization pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of the workload runs in a fresh
single-threaded Python process (job.py), so the package's process-wide
registries start empty every time.  A run makes at least two passes, and
starts another while it should end within `--seconds` of the first.
Every job's output is checked against the record pinned in expected.json.
grid_warm first fills its cache with one untimed grid_cold pass.

With `--trace 0` the last line of stdout is a JSON object whose metrics are
the end-to-end ones (medians over passes), in seconds at the reference
speed of speed.py.  With `--trace 1` the passes
alternate between untraced and traced, and the metrics are the per-layer
ones of the traced passes plus `trace.overhead_s`, the median traced wall
time minus the median untraced one.  See NOTES.md for what each workload
and metric is for.

Everything the benchmark writes goes under perfbench/.work in the
checkout: one scratch directory per run, which is removed at the end.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
# an untraced run adds setup-only processes until it has this many samples
MIN_SETUP_SAMPLES = 5
JOB_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mib": "MiB"}


def child_env(work):
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # the package is compiled afresh in every process and nothing is written
    # next to its sources; installed libraries use their own bytecode
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPYCACHEPREFIX", None)
    env["PYTHONHASHSEED"] = "0"
    # the package's default cache location, in case anything falls back to it
    env["MGR_CACHE"] = os.path.join(work, "mgr-default")
    return env


def spawn(workload, seed, work, cache_dir, trace=False, setup_only=False):
    """Run one job.py process and return its parsed result line."""
    cmd = [sys.executable, os.path.join(HERE, "job.py"), workload,
           "--seed", str(seed), "--cache-dir", cache_dir]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(work),
                          stdout=subprocess.PIPE, timeout=JOB_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("job.py %s exited %d" % (workload, proc.returncode))
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def run_passes(workload, seed, seconds, trace, work):
    """Run at least two passes, and more while the next one should end
    within `seconds` of the start; returns the parsed results."""
    shared_cache = None
    if workload == "grid_warm":
        # filled once by the code under test, before the clock starts
        shared_cache = os.path.join(work, "warm-cache")
        fill = spawn("grid_cold", seed, work, shared_cache)
        if fill["failed"]:
            raise RuntimeError("filling grid_warm's cache: %d of %d jobs "
                               "failed" % (fill["failed"], fill["attempted"]))

    def cache_dir(n):
        return shared_cache or os.path.join(work, "cache%d" % n)

    passes, setups = [], []
    start = time.monotonic()
    n = 0
    while True:
        traced = trace and n % 2 == 1
        began = time.monotonic()
        passes.append((traced, spawn(workload, seed, work, cache_dir(n),
                                     trace=traced)))
        n += 1
        now = time.monotonic()
        if n >= 2 and now + (now - began) - start > seconds:
            break
    while not trace and len(passes) + len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn(workload, seed, work, cache_dir(n),
                            setup_only=True))
        n += 1
    return passes, setups


def summarize(passes, setups, trace):
    """The result object: pass counts, correctness and metric medians."""
    attempted = sum(r["attempted"] for _, r in passes)
    failed = sum(r["failed"] for _, r in passes)
    plain = [r for traced, r in passes if not traced]
    metrics = {}
    if not trace:
        samples = {
            "wall_s": [r["wall_s"] for r in plain],
            "setup_s": [r["setup_s"] for r in plain + setups],
            "cpu_s": [r["cpu_s"] for r in plain],
            "peak_rss_mib": [r["peak_rss_mib"] for r in plain],
        }
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(samples[name]),
                             "unit": unit}
    else:
        traced = [r for is_traced, r in passes if is_traced]
        for name in tracer.METRICS:
            metrics[name] = {
                "value": statistics.median(r["layers"][name] for r in traced),
                "unit": metric_unit(name)}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain),
            "unit": "s"}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def metric_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.startswith("cache.bytes"):
        return "bytes"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "modgalrep",
                                       "pipeline.py")):
        print("run.py: no src/modgalrep next to perfbench/; run it from the "
              "root of a modgalrep checkout", file=sys.stderr)
        return 2
    # on SIGTERM, unwind: subprocess.run kills and reaps the running job,
    # and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    try:
        passes, setups = run_passes(args.workload, args.seed, args.seconds,
                                    bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = summarize(passes, setups, bool(args.trace))
    print("workload %s, seed %d, trace %d: %d passes, %d setup-only, "
          "%d/%d jobs failed" % (args.workload, args.seed, args.trace,
                                 len(passes), len(setups), result["failed"],
                                 result["attempted"]))
    print("unscaled medians: wall %.4f s, setup %.4f s" % (
        statistics.median(r["wall_raw_s"] for _, r in passes),
        statistics.median(r["setup_raw_s"] for r in
                          [r for _, r in passes] + setups)))
    for name, m in result["metrics"].items():
        print("%-28s %14.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
