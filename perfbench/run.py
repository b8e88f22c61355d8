"""The repository benchmark: named campaign/service workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload seu-kernel-heavy --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the workload once untraced and once with the layer
ledger (``ledger.py``) installed, and reports the per-layer metrics.
Every run checks each result against the verdict SHA-256 pinned in
``pins.json``; a mismatch, exception, nonzero exit, failed or refused
job counts in ``failed``.  The last line of stdout is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``); a detailed record
with provenance goes to ``.perfbench-out/`` under the working directory.
Workloads are described in ``workloads.py`` and ``README.md``.

Exit codes: 0 with a result line; 2 when the working directory holds no
``src/repro`` to measure; 3 when a benchmark self-check fails (a layer
wrapper missed a call path, a deterministic count drifted, or the
ledger did not close), which makes the run's numbers meaningless.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import defaultdict
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ledger  # noqa: E402
from probe import Probe, speed  # noqa: E402
from workloads import (  # noqa: E402
    SERVICE_WORKLOAD,
    SEU_WORKLOADS,
    WORKLOADS,
    service_stream,
    spec_key,
)

MIB = 1024 * 1024
#: set-up samples per service run: server start-ups before the one that
#: serves the stream
SETUP_STARTS = 10
MIN_REPS = 2
CHILD_TIMEOUT_S = 150.0
JOB_POLL_S = 0.02
TERMINAL = ("done", "failed", "cancelled")


class BenchmarkFault(Exception):
    """A self-check of the benchmark itself failed; its numbers are void."""


# -- provenance ---------------------------------------------------------------


def src_digest(root: str = "src") -> str:
    """SHA-256 over every ``src/**/*.py`` path and content (sorted)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def provenance() -> dict[str, Any]:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {
        "git_rev": rev,
        "src_digest": src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


# -- process tree -------------------------------------------------------------


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as fh:
                data = fh.read()
        except OSError:
            continue
        ppid = int(data[data.rindex(b")") + 2 :].split()[1])
        kids[ppid].append(int(name))
    return kids


def descendants(pid: int) -> list[int]:
    kids = _children_map()
    out, todo = [], [pid]
    while todo:
        for child in kids.get(todo.pop(), ()):
            out.append(child)
            todo.append(child)
    return out


def _rss_bytes(pids: list[int]) -> int:
    total = 0
    page = os.sysconf("SC_PAGE_SIZE")
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm", "rb") as fh:
                total += int(fh.read().split()[1]) * page
        except (OSError, IndexError, ValueError):
            pass
    return total


def kill_descendants() -> None:
    """SIGKILL every process this one started, and wait until each is gone."""
    pids = descendants(os.getpid())
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    for pid in pids:
        while time.monotonic() < deadline:
            try:
                if os.waitpid(pid, os.WNOHANG) != (0, 0):
                    break
            except ChildProcessError:  # not ours to reap: wait for it to vanish
                try:
                    with open(f"/proc/{pid}/stat", "rb") as fh:
                        if fh.read().rsplit(b")", 1)[1].split()[0] == b"Z":
                            break
                except OSError:
                    break
            time.sleep(0.01)


class TreeRss:
    """Peak summed RSS of this process's descendants, sampled at 10 Hz."""

    def __init__(self, period: float = 0.1):
        self.period = period
        self._peak = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        me = os.getpid()
        while not self._stop.wait(self.period):
            rss = _rss_bytes(descendants(me))
            with self._lock:
                self._peak = max(self._peak, rss)

    def take(self) -> int:
        """The peak since the previous call (bytes)."""
        with self._lock:
            peak, self._peak = self._peak, 0
        return peak

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def child_env(extra_path: str | None = None) -> dict[str, str]:
    """The environment a user starts the program with: repro's defaults.

    Drops every ``REPRO_*`` override (backend, cache, fast-forward) so
    the benchmark measures the program's own defaults, and imports the
    checkout's ``src``.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    path = [os.path.abspath("src")]
    if extra_path:
        path.insert(0, extra_path)
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


# -- small statistics ---------------------------------------------------------


def median(xs: list[float]) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def p90(xs: list[float]) -> float:
    # Inclusive interpolation stays inside the observed range, which
    # matters for the handful of repetitions an SEU run has.
    if len(xs) < 2:
        return float(xs[0]) if xs else 0.0
    return float(statistics.quantiles(xs, n=10, method="inclusive")[8])


# -- ledger reduction ---------------------------------------------------------


def reduce_ledgers(ledgers: list[dict]) -> dict[str, Any]:
    """Sum per-process ledgers; check each closes to its own wall."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    wall = unattributed = sweep = tasks = 0.0
    for led in ledgers:
        rows = sum(led["self_s"].values())
        rest = led["wall_s"] - rows
        if rest < -1e-3:
            raise BenchmarkFault(
                f"ledger of pid {led['pid']} overshoots its wall by {-rest:.4f}s"
            )
        wall += led["wall_s"]
        unattributed += rest
        sweep += led["sweep_wall_s"]
        tasks += led["task_wall_s"]
        for k, v in led["self_s"].items():
            self_s[k] += v
        for k, v in led["calls"].items():
            calls[k] += v
        for k, v in led["counts"].items():
            counts[k] += v
    return {
        "wall_s": wall,
        "unattributed_s": unattributed,
        "sweep_wall_s": sweep,
        # Pool workers' task time; a serial sweep is its own single worker.
        "busy_s": tasks or sweep,
        "self_s": dict(self_s),
        "calls": dict(calls),
        "counts": dict(counts),
    }


def layer_metrics(led: dict[str, Any]) -> dict[str, tuple[float, str]]:
    """The ledger part of the per-layer metrics (see BENCHMARK.json)."""
    s, c, n = led["self_s"], led["calls"], led["counts"]
    kernel = s.get("netlist.kernel", 0.0)
    cycles = n.get("machine_cycles", 0)
    return {
        "ledger.traced_wall_s": (led["wall_s"], "s"),
        "ledger.unattributed_s": (led["unattributed_s"], "s"),
        "bench.import_s": (s.get("bench.import", 0.0), "s"),
        "place.implement_s": (s.get("place.implement", 0.0), "s"),
        "seu.build_context_s": (s.get("seu.build_context", 0.0), "s"),
        "seu.prefilter_self_s": (s.get("seu.prefilter", 0.0), "s"),
        "seu.prefilter_calls": (c.get("seu.prefilter", 0), "count"),
        "decoder.patch_for_bit_s": (s.get("place.decoder", 0.0), "s"),
        "decoder.patch_for_bit_calls": (c.get("place.decoder", 0), "count"),
        "bitstream.locate_s": (s.get("bitstream", 0.0), "s"),
        "fpga.classify_bit_s": (s.get("fpga", 0.0), "s"),
        "seu.observe_self_s": (s.get("seu.observe", 0.0), "s"),
        "netlist.setup_s": (s.get("netlist.setup", 0.0), "s"),
        "netlist.kernel_s": (kernel, "s"),
        "netlist.batches": (c.get("netlist.kernel", 0), "count"),
        "netlist.machines": (n.get("machines", 0), "count"),
        "netlist.machine_cycles": (cycles, "count"),
        "netlist.kernel_ns_per_machine_cycle": (1e9 * kernel / cycles if cycles else 0.0, "ns"),
        "engine.sweep_self_s": (s.get("engine.sweep", 0.0) + s.get("executor.task", 0.0), "s"),
        "engine.checkpoint_share": (s.get("engine.checkpoint", 0.0) / led["wall_s"], "ratio"),
        "executor.worker_busy_s": (led["busy_s"], "s"),
    }


def check_ledger_counts(led: dict[str, Any], counts: dict[str, int]) -> None:
    """Wrapper coverage: the ledger must see what the engine reports."""
    seen = led["counts"]
    pairs = [
        ("seu.prefilter_calls", led["calls"].get("seu.prefilter", 0), counts["candidates"]),
        ("sweep candidates", seen.get("sweep_candidates", 0), counts["candidates"]),
        ("netlist.batches", led["calls"].get("netlist.kernel", 0), counts["batches"]),
    ] + [(k, seen.get(k, 0), counts[k]) for k in ("skip_structural", "skip_cone", "skip_unaddressed")]
    for name, got, want in pairs:
        if got != want:
            raise BenchmarkFault(
                f"ledger {name} {got} != {want} from the engine's telemetry: "
                "a call path is unwrapped"
            )


def check_sweep_coverage(ledgers: list[dict]) -> None:
    """Per process: a sweep pre-filters all of its candidates, or none (cache hit)."""
    for led in ledgers:
        got = led["calls"].get("seu.prefilter", 0)
        want = led["counts"].get("sweep_candidates", 0)
        if got not in (0, want):
            raise BenchmarkFault(
                f"pid {led['pid']}: {got} pre-filter calls for {want} sweep candidates"
            )


def outcome_metrics(led: dict[str, Any], tel: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Pre-filter outcomes from the ledger; shrinker and recovery counts from telemetry."""
    seen, sim = led["counts"], tel["simulated"]
    cand = seen.get("sweep_candidates", 0)
    return {
        "seu.survivor_share": (seen.get("survivors", 0) / cand if cand else 0.0, "ratio"),
        "seu.skip_structural": (seen.get("skip_structural", 0), "count"),
        "seu.skip_cone": (seen.get("skip_cone", 0), "count"),
        "seu.skip_unaddressed": (seen.get("skip_unaddressed", 0), "count"),
        "engine.collapse_share": (tel["collapsed"] / sim if sim else 0.0, "ratio"),
        "engine.retire_share": (tel["retired"] / sim if sim else 0.0, "ratio"),
        "executor.shard_retries": (tel["shard_retries"], "count"),
        "executor.pool_rebuilds": (tel["pool_rebuilds"], "count"),
    }


# -- SEU workloads ------------------------------------------------------------


class Tally:
    """Attempted / failed operations and why each failure happened."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"perfbench: FAILED {what}", file=sys.stderr)


def run_child(workload: str, tally: Tally, ledger_dir=None) -> dict | None:
    """One fresh ``child.py`` process; None (and a counted failure) on error."""
    env = child_env()
    if ledger_dir:
        env["PERFBENCH_LEDGER_DIR"] = ledger_dir
    tally.attempted += 1
    t = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload, "--t-spawn", repr(t)]
    if ledger_dir:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_descendants()
        tally.fail(f"{workload} child timed out")
        return None
    latency = time.monotonic() - t
    if proc.returncode != 0:
        tally.fail(f"{workload} child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return None
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        tally.fail(f"{workload} child printed no result: {proc.stdout[-200:]!r}")
        return None
    if not out["repro"].startswith(os.path.abspath("src") + os.sep):
        raise BenchmarkFault(f"child imported repro from {out['repro']}, not ./src")
    out["latency_s"] = latency
    return out


def verify_rep(rep: dict, pin: dict, tally: Tally, label: str) -> bool:
    """Count a verdict mismatch as a failed operation (never raise)."""
    if rep.get("sha") != pin["sha256"]:
        tally.fail(f"{label}: verdict sha {rep.get('sha')} != pinned {pin['sha256']}")
        return False
    return True


def run_seu(name: str, pins: dict, seconds: float, trace: bool, work: str, rss: TreeRss) -> dict:
    w = SEU_WORKLOADS[name]
    pin = pins["seu"][w.pin]
    tally = Tally()
    reps: list[dict] = []
    detail: dict[str, Any] = {"pin": pin["sha256"]}

    def rep(ledger_dir=None) -> dict | None:
        rss.take()
        out = run_child(name, tally, ledger_dir=ledger_dir)
        peak = rss.take()
        if out is not None:
            out["peak_rss_bytes"] = peak
            if verify_rep(out, pin, tally, f"{name} rep {len(reps)}"):
                reps.append(out)
                return out
        return None

    if not trace:
        # Every repetition is also a set-up sample; stop before the next
        # one would run past --seconds.
        t0 = time.monotonic()
        while True:
            rep()
            elapsed = time.monotonic() - t0
            if tally.attempted >= MIN_REPS and elapsed * (1 + 1 / tally.attempted) > seconds:
                break
        counts = {json.dumps(r["counts"], sort_keys=True) for r in reps}
        if len(counts) > 1:
            raise BenchmarkFault(f"{name}: deterministic counts drifted across repetitions: {counts}")
        # Times at the reference host speed, as the probe measured it
        # during each repetition's campaign (see probe.py); the raw ones
        # stay in the record.
        setups = [r["setup_s"] * r["speed"] for r in reps]
        lat = [r["latency_s"] * r["speed"] for r in reps]
        metrics = {
            "bits_per_s": (
                median([r["counts"]["candidates"] / (r["campaign_s"] * r["speed"]) for r in reps]),
                "1/s",
            ),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (median([r["peak_rss_bytes"] / MIB for r in reps]), "MB"),
            "jobs_per_s": (len(reps) / sum(lat) if lat else 0.0, "1/s"),
            "job_latency_p50_s": (median(lat), "s"),
            "job_latency_p90_s": (p90(lat), "s"),
        }
        detail.update(setup_samples=setups, reps=reps)
    else:
        plain = rep()
        ledger_dir = os.path.join(work, "ledgers")
        os.makedirs(ledger_dir)
        traced = rep(ledger_dir)
        detail["reps"] = reps
        if plain is None or traced is None:
            return {"tally": tally, "metrics": {}, "detail": detail}
        if plain["counts"] != traced["counts"]:
            raise BenchmarkFault(f"{name}: traced counts {traced['counts']} != untraced {plain['counts']}")
        led = reduce_ledgers(traced.pop("ledgers"))
        check_ledger_counts(led, traced["counts"])
        detail["ledger"] = led
        metrics = layer_metrics(led)
        metrics.update(outcome_metrics(led, {**traced["counts"], **traced["recovery"]}))
        metrics.update(
            {
                "executor.parallel_efficiency": (
                    led["busy_s"] / (w.jobs * led["sweep_wall_s"]), "ratio"
                ),
                "job.cold_run_p50_s": (plain["latency_s"], "s"),
                "job.spawn_overhead_share": (
                    (plain["latency_s"] - plain["engine_wall_s"]) / plain["latency_s"], "ratio"
                ),
                "service.queue_wait_share": (0.0, "ratio"),
                "service.cache_served_share": (0.0, "ratio"),
                "service.inflight_duplicate_share": (0.0, "ratio"),
                "testbed.modeled_s": (traced["modeled_s"], "model_s"),
                "testbed.host_per_modeled": (plain["campaign_s"] / plain["modeled_s"], "ratio"),
                "bench.tracing_overhead": (traced["latency_s"] / plain["latency_s"], "ratio"),
            }
        )
    detail["stats"] = {
        "sensitivity": reps[0]["sensitivity"] if reps else None,
        "persistence_ratio": reps[0]["persistence_ratio"] if reps else None,
        "backend": reps[0]["backend"] if reps else None,
    }
    return {"tally": tally, "metrics": metrics, "detail": detail}


# -- service-mix --------------------------------------------------------------


class Server:
    """One ``repro serve`` process over a fresh state and cache directory."""

    def __init__(self, work: str, tag: str, env: dict[str, str]):
        state = os.path.join(work, f"{tag}-state")
        announce = os.path.join(work, f"{tag}-addr")
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--listen", "127.0.0.1:0",
            "--state", state,
            "--announce", announce,
            "--job-workers", "2",
            "--result-cache", os.path.join(work, f"{tag}-cache"),
        ]
        self.log = open(os.path.join(work, f"{tag}.log"), "wb")
        t = time.monotonic()
        self.proc = subprocess.Popen(cmd, env=env, stdout=self.log, stderr=subprocess.STDOUT)
        while not os.path.exists(announce):
            if self.proc.poll() is not None or time.monotonic() - t > 60.0:
                self.stop()
                raise RuntimeError(f"repro serve did not announce its port (exit {self.proc.returncode})")
            time.sleep(0.005)
        self.setup_s = time.monotonic() - t
        with open(announce, encoding="utf-8") as fh:
            self.base = "http://" + fh.read().strip()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def http(base: str, method: str, path: str, body: Any = None) -> tuple[int, bytes]:
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=60.0) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def drive(base: str, stream: list[dict], pins: dict, tally: Tally) -> list[dict]:
    """Two closed-loop clients: each submits the next job and waits for it."""
    lock = threading.Lock()
    todo = iter(enumerate(stream))
    done: list[dict] = []

    def one(index: int, body: dict) -> dict:
        key = spec_key(body["design"], body["flags"]["detect_cycles"])
        t0 = time.monotonic()
        status, raw = http(base, "POST", "/v1/jobs", body)
        if status != 202:
            return {"index": index, "key": key, "error": f"submit HTTP {status}: {raw[:200]!r}"}
        reply = json.loads(raw)
        job = reply["job"]
        while job["state"] not in TERMINAL:
            time.sleep(JOB_POLL_S)
            status, raw = http(base, "GET", f"/v1/jobs/{job['id']}")
            if status != 200:
                return {"index": index, "key": key, "error": f"poll HTTP {status}"}
            job = json.loads(raw)
        latency = time.monotonic() - t0
        rec = {"index": index, "key": key, "id": job["id"], "latency_s": latency,
               "cached_at_submit": reply["cached"], "t_submit": t0, "t_done": t0 + latency}
        if job["state"] != "done":
            rec["error"] = f"job {job['id']} {job['state']}: {(job.get('error') or '')[:200]}"
            return rec
        status, verdicts = http(base, "GET", f"/v1/jobs/{job['id']}/result")
        sha = hashlib.sha256(verdicts).hexdigest() if status == 200 else None
        if sha != pins["service"][key]:
            rec["error"] = f"job {job['id']} ({key}) verdict sha {sha} != pinned {pins['service'][key]}"
        return rec

    def client() -> None:
        while True:
            with lock:
                item = next(todo, None)
            if item is None:
                return
            try:
                rec = one(*item)
            except Exception as err:  # noqa: BLE001 - a broken request is a failed job
                rec = {"index": item[0], "error": f"{type(err).__name__}: {err}"}
            with lock:
                done.append(rec)

    threads = [threading.Thread(target=client) for _ in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    tally.attempted += len(done)
    for rec in sorted(done, key=lambda r: r["index"]):
        if "error" in rec:
            tally.fail(rec["error"])
    return sorted(done, key=lambda r: r["index"])


def service_pass(stream: list[dict], pins: dict, work: str, tag: str, rss: TreeRss,
                 tally: Tally, ledger_dir: str | None = None) -> dict[str, Any]:
    """Start a server, drive the stream through it, read its records, stop it."""
    env = child_env(os.path.join(HERE, "hook") if ledger_dir else None)
    if ledger_dir:
        env["PERFBENCH_LEDGER_DIR"] = ledger_dir
    tally.attempted += 1
    try:
        server = Server(work, tag, env)
    except RuntimeError as err:
        tally.fail(str(err))
        return {}
    try:
        rss.take()
        recs = drive(server.base, stream, pins, tally)
        peak = rss.take()
        ok = [r for r in recs if "error" not in r]
        records = {j["id"]: j for j in json.loads(http(server.base, "GET", "/v1/jobs")[1])["jobs"]}
        metas = {}
        for r in ok:
            status, raw = http(server.base, "GET", f"/v1/jobs/{r['id']}/meta")
            if status == 200:
                metas[r["id"]] = json.loads(raw)
        stats = json.loads(http(server.base, "GET", "/v1/stats")[1])
    finally:
        server.stop()
    wall = max(r["t_done"] for r in ok) - min(r["t_submit"] for r in ok) if ok else 0.0
    return {"setup_s": server.setup_s, "ok": ok, "records": records,
            "metas": metas, "stats": stats, "wall_s": wall, "peak_rss_bytes": peak}


def service_layers(p: dict[str, Any]) -> dict[str, tuple[float, str]]:
    """Service-level per-layer metrics from job records and meta telemetry."""
    ok, records, metas = p["ok"], p["records"], p["metas"]
    cold = [records[r["id"]] for r in ok if not records[r["id"]]["cached"]]
    cold_runs = [j["finished_at"] - j["started_at"] for j in cold]
    engine = [metas[j["id"]]["telemetry"]["wall_seconds"] for j in cold]
    waits = [
        (j["started_at"] or j["finished_at"]) - j["submitted_at"]
        for j in (records[r["id"]] for r in ok if not r["cached_at_submit"])
    ]
    seen: set[str] = set()
    inflight = 0
    for j in sorted((records[r["id"]] for r in ok), key=lambda j: j["submitted_at"]):
        if not j["cached"] and j["result_key"] in seen:
            inflight += 1
        seen.add(j["result_key"])
    n = len(ok)
    return {
        "job.cold_run_p50_s": (median(cold_runs), "s"),
        "job.spawn_overhead_share": (1.0 - sum(engine) / sum(cold_runs) if cold_runs else 0.0, "ratio"),
        "service.queue_wait_share": (sum(waits) / sum(r["latency_s"] for r in ok) if ok else 0.0, "ratio"),
        "service.cache_served_share": (sum(1 for r in ok if records[r["id"]]["cached"]) / n if n else 0.0, "ratio"),
        "service.inflight_duplicate_share": (inflight / n if n else 0.0, "ratio"),
    }


def run_service(seed: int, pins: dict, seconds: float, trace: bool, work: str, rss: TreeRss) -> dict:
    tally = Tally()
    stream = service_stream(seed, seconds)
    detail: dict[str, Any] = {"jobs_in_stream": len(stream)}
    setups = []
    probe = None if trace else Probe()
    try:
        if not trace:
            for i in range(SETUP_STARTS):
                tally.attempted += 1
                try:
                    server = Server(work, f"setup{i}", child_env())
                except RuntimeError as err:
                    tally.fail(str(err))
                    continue
                setups.append(server.setup_s)
                server.stop()
            setup_speed = speed(probe.take())
        main = service_pass(stream, pins, work, "main", rss, tally)
    finally:
        if probe:
            stream_speed = speed(probe.take())
            probe.close()
    if not main:
        return {"tally": tally, "metrics": {}, "detail": detail}
    ok = main["ok"]
    lat = [r["latency_s"] for r in ok]
    tels = [m["telemetry"] for m in main["metas"].values() if m.get("telemetry")]
    detail.update(
        stats=main["stats"], latencies=lat, backend=tels[0]["backend"] if tels else None
    )
    if not trace:
        # Times at the reference host speed, as the probe measured it
        # in this process through the start-ups and through the stream
        # (see probe.py); the raw ones stay in the record.
        detail.update(setup_samples=setups, speed={"setup": setup_speed, "stream": stream_speed})
        bits = sum(main["metas"][r["id"]]["n_candidates"] for r in ok if r["id"] in main["metas"])
        wall = main["wall_s"] * stream_speed
        lat = [x * stream_speed for x in lat]
        metrics = {
            "bits_per_s": (bits / wall if wall else 0.0, "1/s"),
            "setup_s": (median(setups) * setup_speed, "s"),
            "peak_rss_mb": (main["peak_rss_bytes"] / MIB, "MB"),
            "jobs_per_s": (len(ok) / wall if wall else 0.0, "1/s"),
            "job_latency_p50_s": (median(lat), "s"),
            "job_latency_p90_s": (p90(lat), "s"),
        }
        return {"tally": tally, "metrics": metrics, "detail": detail}

    ledger_dir = os.path.join(work, "ledgers")
    os.makedirs(ledger_dir)
    traced = service_pass(stream, pins, work, "traced", rss, tally, ledger_dir)
    if not traced:
        return {"tally": tally, "metrics": {}, "detail": detail}
    dumps = ledger.read_dumps(ledger_dir)
    check_sweep_coverage(dumps)
    led = reduce_ledgers(dumps)
    detail["ledger"] = led
    metrics = layer_metrics(led)
    # A twin's child may find its original's sweep in the result cache
    # and pre-filter nothing while its telemetry repeats the original's,
    # so outcome counts come from the ledger (as they do for SEU runs).
    tels = [
        traced["metas"][r["id"]]["telemetry"]
        for r in traced["ok"]
        if not traced["records"][r["id"]]["cached"]
    ]
    fields = {"simulated": "n_simulated", "collapsed": "n_collapsed", "retired": "machines_retired",
              "shard_retries": "shard_retries", "pool_rebuilds": "pool_rebuilds"}
    metrics.update(outcome_metrics(led, {k: sum(t[f] for t in tels) for k, f in fields.items()}))
    metrics.update(service_layers(main))
    from repro.testbed.host import HostTiming

    # The paper's hardware has no result cache: every served job is a sweep.
    modeled = sum(
        HostTiming().sweep_time(m["n_candidates"], round(m["sensitivity"] * m["n_candidates"]))
        for m in (main["metas"][r["id"]] for r in ok if r["id"] in main["metas"])
    )
    metrics.update(
        {
            "executor.parallel_efficiency": (led["busy_s"] / (2 * traced["wall_s"]), "ratio"),
            "testbed.modeled_s": (modeled, "model_s"),
            "testbed.host_per_modeled": (main["wall_s"] / modeled if modeled else 0.0, "ratio"),
            "bench.tracing_overhead": (traced["wall_s"] / main["wall_s"], "ratio"),
        }
    )
    return {"tally": tally, "metrics": metrics, "detail": detail}


# -- entry point --------------------------------------------------------------


def expected_metrics(trace: bool) -> dict[str, str] | None:
    """Metric name -> unit from ``BENCHMARK.json``, when it is present."""
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        return None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    out_dir = os.path.abspath(".perfbench-out")
    work = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(work)
    rss = TreeRss()
    trace = bool(args.trace)
    try:
        if args.workload == SERVICE_WORKLOAD:
            res = run_service(args.seed, pins, args.seconds, trace, work, rss)
        else:
            res = run_seu(args.workload, pins, args.seconds, trace, work, rss)
        tally, metrics = res["tally"], res["metrics"]
        want = expected_metrics(trace)
        if metrics and want is not None and {k: u for k, (_, u) in metrics.items()} != want:
            raise BenchmarkFault(
                f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(want)}"
            )
    except BenchmarkFault as err:
        print(f"perfbench: benchmark fault: {err}", file=sys.stderr)
        return 3
    finally:
        rss.close()
        kill_descendants()
        shutil.rmtree(work, ignore_errors=True)

    failed = len(tally.failures)
    if not metrics:  # nothing completed: report the failures, no numbers
        want = expected_metrics(trace) or {}
        metrics = {k: (0.0, u) for k, u in want.items()}
    result = {
        "correct": failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "result": result,
        "failures": tally.failures,
        "detail": res["detail"],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    for k, (v, u) in metrics.items():
        print(f"{args.workload:>20}  {k:<38} {v:>14.6g} {u}")
    led = res["detail"].get("ledger")
    if led:
        print(f"ledger ({led['wall_s']:.3f} process-seconds traced, summed over processes):")
        rows = sorted(led["self_s"].items(), key=lambda kv: -kv[1])
        for row, secs in rows + [("unattributed", led["unattributed_s"])]:
            print(f"  {row:<20} {secs:10.3f} s  {100 * secs / led['wall_s']:5.1f}%")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
