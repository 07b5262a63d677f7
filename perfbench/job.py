"""One pass of a workload in a fresh process; prints one JSON line.

Run by run.py, never by hand:

    python3 perfbench/job.py WORKLOAD --seed N --spawned-ns T --cache-dir D
        [--trace] [--setup-only]

`--spawned-ns` is the parent's CLOCK_MONOTONIC reading just before it
started this process, so `setup_s` covers interpreter start, imports,
input generation and cache-directory preparation.  `--cache-dir` is
created empty unless it exists (grid_warm's is filled beforehand).  Job
records are checked against `expected.json` next to this file.

Times are rescaled to reference speed by speed.py; the raw seconds are
reported too, as `setup_raw_s` and `wall_raw_s`.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

import speed
import tracer
import workloads

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(jobs, expected):
    """Run and check each job; returns (attempted, failed, wall_s)."""
    failed = 0
    start = time.perf_counter()
    for name, job in jobs:
        try:
            record = job()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        if record != expected.get(name):
            print("job %s: got %s, pinned %s"
                  % (name, record, expected.get(name)), file=sys.stderr)
            failed += 1
    return len(jobs), failed, time.perf_counter() - start


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--cache-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    spans = tracer.Tracer() if args.trace else None
    probe = speed.SpeedProbe(spans.exclude if spans is not None else None)
    probe.start()

    # the package and its dependencies, as a user's process imports them
    import modgalrep.cli  # noqa: F401
    import modgalrep.pipeline  # noqa: F401

    with open(EXPECTED) as fh:
        expected = json.load(fh)
    os.makedirs(args.cache_dir, exist_ok=True)
    jobs = workloads.make_jobs(args.workload, args.seed, args.cache_dir)
    if spans is not None:
        tracer.install(spans)
    # the last set-up probe is also the first one the pass's median uses
    probe.sample()
    n_setup = len(probe.samples)
    setup_raw_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    out = {"setup_raw_s": setup_raw_s,
           "setup_s": speed.rescale(setup_raw_s, probe.samples[:n_setup])}
    if not args.setup_only:
        cpu0 = cpu_seconds()
        attempted, failed, wall_raw_s = run_pass(jobs, expected)
        cpu_raw_s = cpu_seconds() - cpu0
        inside = probe.samples[n_setup:]
        boundary = probe.samples[n_setup - 1:n_setup]
        out.update(attempted=attempted, failed=failed, wall_raw_s=wall_raw_s,
                   wall_s=speed.rescale(wall_raw_s, inside, boundary),
                   cpu_s=speed.rescale(cpu_raw_s, inside, boundary))
        if spans is not None:
            scale = speed.factor(inside + boundary)
            out["layers"] = {name: value * scale if name.endswith("_s")
                             else value
                             for name, value in spans.metrics().items()}
    probe.stop()
    out["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
