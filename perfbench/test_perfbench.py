"""Self-tests of the benchmark harness (not of repro).

Run from the repository root::

    python -m pytest perfbench -q

The slow test runs one real SEU repetition pair against a wrong pin.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ledger  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
from workloads import REPEATS, service_stream, spec_key  # noqa: E402


def test_wrong_seu_pin_is_a_counted_failure():
    tally = run.Tally()
    rep = {"sha": "a" * 64}
    assert not run.verify_rep(rep, {"sha256": "b" * 64}, tally, "rep 0")
    assert run.verify_rep(rep, {"sha256": "a" * 64}, tally, "rep 1")
    assert len(tally.failures) == 1 and "rep 0" in tally.failures[0]


def test_child_crash_is_a_counted_failure(monkeypatch):
    def crashed(*args, **kwargs):
        return run.subprocess.CompletedProcess(args, 1, stdout="", stderr="Traceback ...")

    monkeypatch.setattr(run.subprocess, "run", crashed)
    tally = run.Tally()
    assert run.run_child("seu-kernel-heavy", tally) is None
    assert tally.attempted == 1 and len(tally.failures) == 1


def _fake_service(monkeypatch, verdicts_by_index, refuse):
    """Patch run.http with an in-memory server that serves each job's bytes."""
    jobs: dict[str, dict] = {}
    results: dict[str, bytes] = {}
    posts = []

    def http(base, method, path, body=None):
        if method == "POST":
            n = len(posts)
            posts.append(body)
            if n in refuse:
                return 429, b'{"error": "queue full"}'
            job = {"id": f"j-{n:06d}", "state": "done"}
            jobs[job["id"]] = job
            results[job["id"]] = verdicts_by_index[n]
            return 202, json.dumps({"job": job, "cached": False}).encode()
        job_id = path.split("/")[3]
        if path.endswith("/result"):
            return 200, results[job_id]
        return 200, json.dumps(jobs[job_id]).encode()

    monkeypatch.setattr(run, "http", http)


def test_wrong_service_result_and_refusal_are_counted_failures(monkeypatch):
    stream = service_stream(seed=7, seconds=1)[:4]
    pins = {"service": {spec_key(b["design"], b["flags"]["detect_cycles"]): hashlib.sha256(b"ok").hexdigest() for b in stream}}
    # Jobs 0 and 3 return the pinned bytes, job 1 wrong bytes, job 2 is refused.
    _fake_service(monkeypatch, {0: b"ok", 1: b"bad", 3: b"ok"}, refuse={2})
    monkeypatch.setattr(run, "JOB_POLL_S", 0.0)
    tally = run.Tally()
    recs = run.drive("http://fake", stream, pins, tally)
    assert tally.attempted == 4
    assert len(tally.failures) == 2
    assert any("verdict sha" in f for f in tally.failures)
    assert any("HTTP 429" in f for f in tally.failures)
    assert sum("error" not in r for r in recs) == 2


def test_service_stream_is_seeded_and_shaped():
    a, b = service_stream(3, 20), service_stream(3, 20)
    assert a == b
    assert a != service_stream(4, 20)
    keys = [spec_key(j["design"], j["flags"]["detect_cycles"]) for j in a]
    firsts = len(set(keys))
    first_at = {k: keys.index(k) for k in set(keys)}
    twins = sum(1 for k, i in first_at.items() if i + 1 < len(keys) and keys[i + 1] == k)
    # Every run: 24 distinct specs, 6 in-flight twins, 110 jobs.
    assert (firsts, twins, len(keys)) == (24, 6, 110)
    assert len(keys) - firsts - twins == (firsts - 4) * REPEATS
    assert {j["tenant"] for j in a} == {"ops", "research", "batch-farm"}
    assert {j["priority"] for j in a} == {"high", "normal", "batch"}


def test_ledger_self_time_excludes_wrapped_children():
    led = ledger._current()
    before = dict(led.self_s)
    inner = ledger.timed("test.inner", lambda: time.sleep(0.05))

    def outer_fn():
        time.sleep(0.02)
        inner()

    ledger.timed("test.outer", outer_fn)()
    outer = led.self_s["test.outer"] - before.get("test.outer", 0.0)
    inner_s = led.self_s["test.inner"] - before.get("test.inner", 0.0)
    assert 0.015 < outer < 0.045
    assert inner_s >= 0.05
    assert led.stack == []


def test_ledger_overshoot_is_a_benchmark_fault():
    bad = {"pid": 1, "wall_s": 1.0, "self_s": {"a": 2.0}, "calls": {}, "counts": {},
           "sweep_wall_s": 0.0, "task_wall_s": 0.0}
    with pytest.raises(run.BenchmarkFault):
        run.reduce_ledgers([bad])


def test_probe_samples_while_busy_and_gives_back_sigalrm():
    before = run.signal.getsignal(run.signal.SIGALRM)
    p = probe.Probe(period=0.01)
    try:
        t = time.monotonic()
        while time.monotonic() - t < 0.3:
            sum(range(1000))
        samples = p.take()
    finally:
        p.close()
    assert len(samples) >= 10 and all(s > 0 for s in samples)
    assert probe.speed(samples) > 0
    assert run.signal.getsignal(run.signal.SIGALRM) == before
    assert run.signal.getitimer(run.signal.ITIMER_REAL) == (0.0, 0.0)
    # Twice the probe's time is half the reference speed.
    assert probe.speed([2 * probe.REFERENCE_S]) == pytest.approx(0.5)


@pytest.mark.skipif(not os.path.isdir("src/repro"), reason="run from the repository root")
def test_real_repetition_against_a_wrong_pin_counts_failures(tmp_path):
    pins = {"seu": {"seu-kernel-heavy": {"sha256": "0" * 64}}}
    rss = run.TreeRss()
    try:
        res = run.run_seu("seu-kernel-heavy", pins, 0.0, False, str(tmp_path), rss)
    finally:
        rss.close()
    tally = res["tally"]
    assert tally.attempted == run.MIN_REPS
    assert len(tally.failures) == run.MIN_REPS
    assert all("verdict sha" in f for f in tally.failures)
