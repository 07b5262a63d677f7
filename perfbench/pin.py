"""Pin every job's output record into expected.json.

    PYTHONPATH=src python3 perfbench/pin.py

Run only on a revision whose results are trusted: the benchmark counts any
later difference from these records as a failed job.
"""

import json
import tempfile

import job
import workloads


def main():
    records = {}
    with tempfile.TemporaryDirectory() as cache_dir:
        for workload in workloads.WORKLOADS:
            for name, fn in workloads.make_jobs(workload, 0, cache_dir):
                records[name] = fn()
                print(name, records[name], flush=True)
    with open(job.EXPECTED, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
