"""Tests of the benchmark itself: tracer arithmetic, checks and isolation.

They need no network and run in seconds:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import job  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def bookkeeping(span, args, result):
        clock.advance(1000)  # counter work is nobody's self time

    hecke = t.wrap("hecke", lambda: clock.advance(10), bookkeeping)

    def restrict_body():
        clock.advance(10)
        hecke()
        clock.advance(10)

    restrict = t.wrap("restrict", restrict_body, bookkeeping)
    decompose = t.wrap("decompose", lambda: clock.advance(20))

    def match_body():
        clock.advance(10)
        restrict()
        clock.advance(10)
        decompose()
        clock.advance(30)

    t.wrap("match", match_body)()
    selfs = t.self_seconds()
    assert [round(selfs[k] * 1e9) for k in
            ("match", "restrict", "hecke", "decompose")] == [50, 20, 10, 20]
    # spans add up to the traced wall time minus the bookkeeping
    assert sum(selfs.values()) * 1e9 == clock.now - 2000


def test_same_layer_nesting_is_not_counted_twice():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)
    inner = t.wrap("match", lambda: clock.advance(5))

    def outer_body():
        clock.advance(3)
        inner()

    t.wrap("match", outer_body)()
    assert round(t.self_seconds()["match"] * 1e9) == 8


def test_speed_probe_time_is_left_out(monkeypatch):
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)
    probe = speed.SpeedProbe(on_sample=t.exclude)
    probe_ns = speed.REF_NS * 2  # a machine at half the reference speed

    def fake_loop():
        clock.advance(probe_ns)

    monkeypatch.setattr(speed, "_loop", fake_loop)
    monkeypatch.setattr(speed.time, "perf_counter_ns", clock)

    def body():
        clock.advance(100)
        probe.sample()  # as if SIGALRM arrived here
        clock.advance(100)

    t.wrap("hecke", body)()
    assert round(t.self_seconds()["hecke"] * 1e9) == 200
    assert probe.samples == [probe_ns]
    # at half the reference speed, 4 s are 2 reference seconds, less
    # the probes' own time
    assert speed.rescale(4.0, [], [probe_ns]) == 2.0
    assert speed.rescale(4.0, [probe_ns], [probe_ns]) == pytest.approx(
        (4.0 - probe_ns / 1e9) / 2)


def test_wrong_pinned_record_is_a_failed_job(tmp_path):
    (name, fn), = [j for j in workloads.make_jobs("grid_cold", 0,
                                                  str(tmp_path))
                   if j[0] == "grid_N1_l11"]
    with open(job.EXPECTED) as fh:
        expected = json.load(fh)
    assert job.run_pass([(name, fn)], expected)[:2] == (1, 0)
    wrong = dict(expected)
    wrong[name] = dict(expected[name], i=expected[name]["i"] + 1)
    attempted, failed, wall_s = job.run_pass([(name, fn)], wrong)
    assert (attempted, failed) == (1, 1)
    result = {"attempted": attempted, "failed": failed, "wall_s": wall_s,
              "cpu_s": wall_s, "setup_s": 0.5, "peak_rss_mib": 70.0}
    summary = run.summarize([(False, result)], [], trace=False)
    assert summary["correct"] is False
    assert summary["failed"] / summary["attempted"] > 0


def snapshot(top, skip):
    out = {}
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames
                       if os.path.join(dirpath, d) not in skip]
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            out[path] = (st.st_size, st.st_mtime_ns)
    return out


def test_run_leaves_user_cache_and_tree_untouched(tmp_path):
    home = tmp_path / "home"
    poisoned = []
    for base in (home / ".cache" / "mgr", tmp_path / "mgr-env"):
        entry = base / "msym_v1" / "L40_W2" / "T2.mat"
        entry.parent.mkdir(parents=True)
        entry.write_text("not a matrix\n")  # a read would delete it
        poisoned.append(entry)
    env = dict(os.environ, HOME=str(home), MGR_CACHE=str(tmp_path / "mgr-env"))
    skip = {os.path.join(ROOT, ".git"), run.WORK}
    before = snapshot(ROOT, skip)
    work_before = set(os.listdir(run.WORK)) if os.path.isdir(run.WORK) else set()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "eigensys_wt2", "--seed", "3", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=170)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(p.read_text() == "not a matrix\n" for p in poisoned)
    assert snapshot(ROOT, skip) == before
    assert set(os.listdir(run.WORK)) == work_before


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=60)
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
