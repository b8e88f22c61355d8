"""The generic campaign drivers: serial and sharded, one contract.

Lifted from the single-bit SEU engine (``repro.seu.campaign`` /
``repro.seu.parallel``) and generalised over
:class:`~repro.engine.model.FaultModel`, so every fault class gets the
same machinery:

**Determinism contract.** ``jobs=N`` produces verdicts *byte-identical*
to ``jobs=1``.  Batch composition may decide marginal observations (the
active-node closure and settle-pass count are per-batch), so sharding
must not change which candidates share a batch.  The sharded driver
therefore runs in two phases:

1. **Pre-filter** — candidates are split into contiguous chunks and
   classified in parallel (:meth:`FaultModel.prefilter` is a pure
   per-candidate function, so any split is safe).  Survivors are
   collected in candidate order.
2. **Observe** — the survivor sequence is cut into contiguous shards
   whose sizes are multiples of ``batch_size`` (only the global tail
   shard may be ragged).  Grouping each shard into consecutive
   ``batch_size`` blocks then reproduces exactly the serial loop's
   batches, so every batch simulates with the same companions it would
   have had under ``jobs=1``.

**Checkpoint/resume.** Checkpoints are cut only at whole-batch
boundaries — the serial loop defers a due snapshot until its pending
batch flushes, and the sharded parent folds each completed shard (a
whole number of batches) into the checkpoint — so the un-swept
remainder always re-groups into the *same* batches on resume, and a
killed sweep resumes to the byte-identical result.  Serial and sharded
runs resume each other's checkpoints.

**Fault collapsing.** Candidates whose patches configure identical
hardware produce identical observations — *if* they simulate under the
batch-level parameters their naive batch would have derived (settle
passes auto-detect per batch, so a candidate's observation is a pure
function of ``(patch, salt)`` where the *salt* is
:meth:`FaultModel.collapse_salt` over its naive batch).  With
``collapse=True`` (the default, honoured only when the model is
:attr:`~repro.engine.model.FaultModel.collapsible`) the drivers still
walk survivors in naive ``batch_size`` groups to derive each
candidate's salt, but only simulate one *representative* per
``(salt, signature)`` class — grouped with same-salt representatives
and simulated via :meth:`FaultModel.observe_collapsed` with the salt
forced — and fan the observation out to the class.  Verdicts are
byte-identical to ``collapse=False`` for any ``jobs``; checkpoints are
still cut only at naive-batch boundaries (with every pending
representative flushed first), so resume re-derives the same salts and
a follower whose representative was checkpointed simply becomes the
representative of its class in the remainder.

Workers re-derive the model context **once per process** and cache it;
under a ``fork`` start method the parent pre-populates the cache so
children inherit it copy-on-write and re-derive nothing.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.errors import CampaignError
from repro.engine.cache import (
    CACHE_STATS,
    blob_digest,
    content_key,
    resolve_blob,
    result_cache,
)
from repro.engine.model import (
    CODE_NOT_TESTED,
    CODE_SKIP_CONE,
    CODE_SKIP_STRUCTURAL,
    CODE_SKIP_UNADDRESSED,
    FaultModel,
)
from repro.engine.executor import (
    ExecutorPolicy,
    ShardExecutor,
    TaskSpec,
    get_executor_policy,
)
from repro.engine.telemetry import CampaignTelemetry
from repro.netlist.backends import resolve_backend
from repro.netlist.simulator import KERNEL_COUNTERS
from repro.obs import get_observer

# Emit a kernel-counter sample into the trace every this many simulator
# batches (traced runs only).
_COUNTER_SAMPLE_BATCHES = 16

__all__ = [
    "SweepResult",
    "run_serial",
    "run_sharded",
    "run_sweep",
    "resume_sweep",
    "merge_sweeps",
    "save_sweep",
    "load_sweep",
    "shard_survivors",
    "default_jobs",
]


def default_jobs() -> int:
    """CPU-count-aware default worker count.

    Respects the process's CPU affinity mask where the platform exposes
    it (``os.sched_getaffinity``), so a cgroup/container-limited run —
    CI pinned to 2 cores on a 64-core host — shards for the CPUs it may
    actually use instead of oversubscribing.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # platforms without affinity masks
        return max(1, os.cpu_count() or 1)


@dataclass
class SweepResult:
    """Aggregate of one engine sweep (fault-model-agnostic).

    ``verdicts`` is the dense per-candidate-id code array
    (:mod:`repro.engine.model` conventions); ``payloads`` holds the
    optional rich observations some models retain (e.g. the
    correlation table's per-bit output masks).
    """

    model_name: str
    model_key: str
    n_space: int
    verdicts: np.ndarray  # (n_space,) uint8 verdict codes
    candidate_ids: np.ndarray  # int64 ids swept (sorted after merge)
    n_simulated: int = 0
    host_seconds: float = 0.0
    telemetry: CampaignTelemetry | None = None
    payloads: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n_candidates(self) -> int:
        return int(self.candidate_ids.size)

    def count(self, code: int) -> int:
        """Number of candidates that received verdict ``code``."""
        return int(np.count_nonzero(self.verdicts == code))

    def ids_with(self, code: int) -> np.ndarray:
        """Candidate ids that received verdict ``code``."""
        return np.flatnonzero(self.verdicts == code)


# -- merge / persistence -------------------------------------------------------


def merge_sweeps(parts: list[SweepResult]) -> SweepResult:
    """Combine sweeps over disjoint candidate sets into one result.

    Supports chunked or parallel execution: split the candidate space,
    run each chunk (possibly in separate processes), merge.  Model keys
    must match; candidate sets must not overlap.
    """
    if not parts:
        raise CampaignError("nothing to merge")
    first = parts[0]
    verdicts = first.verdicts.copy()
    candidates = [first.candidate_ids]
    seen = set(int(c) for c in first.candidate_ids)
    n_sim = first.n_simulated
    host = first.host_seconds
    payloads = dict(first.payloads)
    for part in parts[1:]:
        if part.model_key != first.model_key:
            raise CampaignError(
                f"cannot merge sweeps of different models "
                f"({part.model_key!r} vs {first.model_key!r})"
            )
        overlap = seen.intersection(int(c) for c in part.candidate_ids)
        if overlap:
            raise CampaignError(
                f"candidate sets overlap ({len(overlap)} ids, e.g. {min(overlap)})"
            )
        seen.update(int(c) for c in part.candidate_ids)
        mask = part.verdicts != CODE_NOT_TESTED
        verdicts[mask] = part.verdicts[mask]
        candidates.append(part.candidate_ids)
        n_sim += part.n_simulated
        host += part.host_seconds
        payloads.update(part.payloads)
    merged_ids = np.sort(np.concatenate(candidates))
    return SweepResult(
        model_name=first.model_name,
        model_key=first.model_key,
        n_space=first.n_space,
        verdicts=verdicts,
        candidate_ids=merged_ids,
        n_simulated=n_sim,
        host_seconds=host,
        payloads=payloads,
    )


def save_sweep(sweep: SweepResult, path: str) -> None:
    """Persist a (possibly partial) sweep to ``path`` (.npz), atomically.

    Payloads must be equal-shape arrays (they are stacked into one
    block).  The write is tmp-file + rename, so a sweep killed while
    checkpointing never leaves a truncated snapshot behind.
    """
    payload = dict(
        model_name=np.str_(sweep.model_name),
        model_key=np.str_(sweep.model_key),
        n_space=np.int64(sweep.n_space),
        verdicts=sweep.verdicts,
        candidate_ids=sweep.candidate_ids,
        n_simulated=np.int64(sweep.n_simulated),
        host_seconds=np.float64(sweep.host_seconds),
    )
    if sweep.telemetry is not None:
        payload["telemetry_json"] = np.str_(json.dumps(sweep.telemetry.to_dict()))
    if sweep.payloads:
        ids = np.array(sorted(sweep.payloads), dtype=np.int64)
        payload["payload_ids"] = ids
        payload["payload_values"] = np.stack([sweep.payloads[int(i)] for i in ids])
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        np.savez_compressed(f, **payload)
    os.replace(tmp, path)


def load_sweep(path: str) -> SweepResult:
    """Load a sweep / checkpoint written by :func:`save_sweep`."""
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as err:
        raise CampaignError(f"cannot load sweep checkpoint {path!r}: {err}") from None
    telemetry = None
    if "telemetry_json" in data:
        fields = {f.name for f in dataclasses.fields(CampaignTelemetry)}
        raw = json.loads(str(data["telemetry_json"]))
        telemetry = CampaignTelemetry(**{k: v for k, v in raw.items() if k in fields})
    payloads: dict[int, np.ndarray] = {}
    if "payload_ids" in data:
        values = data["payload_values"]
        payloads = {int(i): values[k] for k, i in enumerate(data["payload_ids"])}
    return SweepResult(
        model_name=str(data["model_name"]),
        model_key=str(data["model_key"]),
        n_space=int(data["n_space"]),
        verdicts=data["verdicts"],
        candidate_ids=data["candidate_ids"],
        n_simulated=int(data["n_simulated"]),
        host_seconds=float(data["host_seconds"]),
        telemetry=telemetry,
        payloads=payloads,
    )


# -- serial driver -------------------------------------------------------------


def _sweep_cache_key(
    model: FaultModel, candidates: np.ndarray, batch_size: int, collapse: bool
) -> str:
    """Content address of one whole sweep's verdicts.

    Keyed on everything that can change a byte of the result: the fault
    model's own key *and* its pickled blob (the key is human-oriented
    and may under-describe), the exact candidate range, the batch size
    (batch composition decides settle salts), the collapse toggle and
    the resolved kernel backend.  The schema tag versions the
    :class:`SweepResult` layout itself.
    """
    return content_key(
        "sweep-v1",
        model.key(),
        pickle.dumps(model),
        candidates,
        batch_size,
        bool(collapse) and model.collapsible,
        resolve_backend(),
    )


def _serve_cached_sweep(
    cached: SweepResult,
    cache0: tuple[int, int, int],
    jobs: int,
    checkpoint_save: Callable[[SweepResult], None] | None,
) -> SweepResult:
    """Stamp a cache-served sweep so telemetry reflects *this* run.

    The stored result carries the producing run's timings and kernel
    counters (verdict-invariant); only the cache counters are rewritten
    to describe the serving run, so ``cache_hits > 0`` is the observable
    signature of a warm sweep.
    """
    telem = cached.telemetry
    if telem is not None:
        hits, misses, nbytes = CACHE_STATS.delta(cache0)
        telem.cache_hits = hits
        telem.cache_misses = misses
        telem.cache_bytes = nbytes
        telem.jobs = jobs
    observer = get_observer()
    if observer.enabled:
        observer.tracer.point(
            "cache_hit",
            scope="sweep",
            model=cached.model_name,
            candidates=int(cached.candidate_ids.size),
        )
        if telem is not None:
            observer.tracer.point("telemetry", **telem.to_dict())
    if checkpoint_save is not None:
        checkpoint_save(cached)
    return cached


def _count_skip(telem: CampaignTelemetry, code: int) -> None:
    if code == CODE_SKIP_STRUCTURAL:
        telem.skip_structural += 1
    elif code == CODE_SKIP_CONE:
        telem.skip_cone += 1
    elif code == CODE_SKIP_UNADDRESSED:
        telem.skip_unaddressed += 1
    else:
        raise CampaignError(f"prefilter returned non-skip code {code}")


def run_serial(
    model: FaultModel,
    batch_size: int = 128,
    candidates: np.ndarray | None = None,
    checkpoint_save: Callable[[SweepResult], None] | None = None,
    checkpoint_every: int = 50_000,
    merge_with: SweepResult | None = None,
    context: Any | None = None,
    collapse: bool = True,
) -> SweepResult:
    """Exhaustive serial sweep of one fault model.

    With ``checkpoint_save`` the driver periodically hands a merged
    partial :class:`SweepResult` to the callback (every
    ``checkpoint_every`` candidates, at natural batch boundaries only,
    and once more at the end); ``merge_with`` folds an earlier partial
    result into every snapshot (used by resume so re-interrupted runs
    stay whole).

    ``collapse=True`` (honoured only for collapsible models) turns on
    fault collapsing: one representative per ``(salt, signature)``
    equivalence class is simulated and the observation fanned out to the
    class — verdicts, checkpoints and ``n_simulated`` are byte-identical
    to ``collapse=False`` (see the module docstring for the contract).
    """
    if candidates is None:
        candidates = model.enumerate_candidates()
    candidates = np.asarray(candidates, dtype=np.int64)
    do_collapse = bool(collapse) and model.collapsible

    # Whole-sweep result cache: consulted *before* the context build so
    # a warm repeat skips even the golden simulation.  Resume merges
    # (``merge_with``) sweep a remainder range whose key differs, so
    # only clean full runs are served or stored.
    t0 = time.perf_counter()
    kern0 = KERNEL_COUNTERS.snapshot()
    cache0 = CACHE_STATS.snapshot()
    store = result_cache()
    sweep_key: str | None = None
    if store is not None and merge_with is None:
        sweep_key = _sweep_cache_key(model, candidates, batch_size, collapse)
        cached = store.get(sweep_key)
        if cached is not None:
            return _serve_cached_sweep(cached, cache0, 1, checkpoint_save)

    t_ctx = time.perf_counter()
    ctx = model.build_context() if context is None else context

    verdicts = np.zeros(model.space_size(), dtype=np.uint8)
    payloads: dict[int, np.ndarray] = {}
    telem = CampaignTelemetry(
        n_candidates=int(candidates.size), jobs=1, backend=resolve_backend()
    )
    telem.context_seconds = time.perf_counter() - t_ctx
    n_simulated = 0

    # Observability hooks.  Every emission below only *reads* campaign
    # state — the verdict-invariance contract (see repro.obs) — and the
    # untraced path pays one `observing` check per site.
    observer = get_observer()
    tracer, progress = observer.tracer, observer.progress
    observing = observer.enabled
    root_span = tracer.open_span(
        "campaign",
        model=model.name,
        key=model.key(),
        jobs=1,
        candidates=int(candidates.size),
        collapse=do_collapse,
        backend=telem.backend,
    )
    progress.start(model.name, total=int(candidates.size))
    batch_tick = 0

    def after_batch(span: int, bits: int, seconds: float) -> None:
        nonlocal batch_tick
        telem.record_batch_seconds(seconds)
        if not observing:
            return
        tracer.close_span(span, bits=bits, seconds=round(seconds, 6))
        batch_tick += 1
        if batch_tick % _COUNTER_SAMPLE_BATCHES == 0:
            tracer.counters(KERNEL_COUNTERS.to_dict())

    pending: list[tuple[int, Any]] = []

    def flush() -> None:
        nonlocal n_simulated
        if not pending:
            return
        span = tracer.open_span("batch", bits=len(pending)) if observing else -1
        t_sim = time.perf_counter()
        observations = model.observe_batch(ctx, pending)
        for (cand, _), obs in zip(pending, observations):
            verdicts[cand] = model.classify(obs)
            rich = model.payload(obs)
            if rich is not None:
                payloads[cand] = rich
        n_simulated += len(pending)
        telem.n_batches += 1
        seconds = time.perf_counter() - t_sim
        telem.simulate_seconds += seconds
        after_batch(span, len(pending), seconds)
        pending.clear()

    # Collapse-path state.  ``naive_buf`` holds survivors of the naive
    # batch currently forming; once full, its salt is derived and each
    # member becomes a class representative, a follower of a pending
    # representative, or an immediate fan-out of a resolved class.
    naive_buf: list[tuple[int, Any, Any, Any]] = []  # (cand, patch, sig, datum)
    rep_pending: dict[Any, list[tuple[int, Any, Any]]] = {}  # salt -> (cand, patch, key)
    followers: dict[Any, list[int]] = {}  # key -> cands awaiting their rep
    resolved: dict[Any, int] = {}  # key -> verdict code
    resolved_payload: dict[Any, np.ndarray | None] = {}

    def fan_out(cand: int, code: int, rich: np.ndarray | None) -> None:
        nonlocal n_simulated
        verdicts[cand] = code
        if rich is not None:
            payloads[cand] = rich.copy()
        n_simulated += 1
        telem.n_collapsed += 1

    def flush_salt(salt: Any, limit: int) -> None:
        nonlocal n_simulated
        group = rep_pending.get(salt)
        if not group:
            return
        reps = group[:limit]
        del group[:limit]
        if not group:
            del rep_pending[salt]
        span = (
            tracer.open_span("batch.collapsed", bits=len(reps), salt=salt)
            if observing
            else -1
        )
        t_sim = time.perf_counter()
        observations = model.observe_collapsed(ctx, [(c, p) for c, p, _ in reps], salt)
        telem.n_batches += 1
        for (cand, _, key), obs in zip(reps, observations):
            code = model.classify(obs)
            rich = model.payload(obs)
            verdicts[cand] = code
            if rich is not None:
                payloads[cand] = rich
            n_simulated += 1
            if key is not None:
                resolved[key] = code
                resolved_payload[key] = rich
                for f in followers.pop(key, ()):
                    fan_out(f, code, rich)
        seconds = time.perf_counter() - t_sim
        telem.simulate_seconds += seconds
        after_batch(span, len(reps), seconds)

    def process_naive_batch() -> None:
        if not naive_buf:
            return
        salt = model.collapse_salt(ctx, [d for _, _, _, d in naive_buf])
        for cand, patch, sig, _ in naive_buf:
            key = None if sig is None else (salt, sig)
            if key is not None:
                code = resolved.get(key)
                if code is not None:
                    fan_out(cand, code, resolved_payload[key])
                    continue
                flw = followers.get(key)
                if flw is not None:  # representative already queued
                    flw.append(cand)
                    continue
                followers[key] = []
            rep_pending.setdefault(salt, []).append((cand, patch, key))
        naive_buf.clear()
        while len(rep_pending.get(salt, ())) >= batch_size:
            flush_salt(salt, batch_size)

    def flush_all() -> None:
        for salt in list(rep_pending):
            while salt in rep_pending:
                flush_salt(salt, batch_size)

    def make_result(n_done: int) -> SweepResult:
        done = candidates[:n_done]
        partial = n_done < candidates.size
        return SweepResult(
            model_name=model.name,
            model_key=model.key(),
            n_space=int(verdicts.size),
            verdicts=verdicts.copy() if partial else verdicts,
            candidate_ids=done,
            n_simulated=n_simulated,
            host_seconds=time.perf_counter() - t0,
            payloads=dict(payloads) if partial else payloads,
        )

    def checkpoint(n_done: int) -> None:
        t_ck = time.perf_counter()
        part = make_result(n_done)
        if merge_with is not None:
            part = merge_sweeps([merge_with, part])
        checkpoint_save(part)
        seconds = time.perf_counter() - t_ck
        telem.checkpoint_seconds += seconds
        if observing:
            tracer.point("checkpoint", n_done=n_done, seconds=round(seconds, 6))

    since_checkpoint = 0
    for i, cand in enumerate(candidates):
        cand = int(cand)
        since_checkpoint += 1
        if observing:
            progress.update(i + 1)
        code, payload = model.prefilter(cand, ctx)
        if code != CODE_NOT_TESTED:
            verdicts[cand] = code
            _count_skip(telem, code)
        elif do_collapse:
            patch = payload if payload is not None else model.patch_for(cand, ctx)
            naive_buf.append(
                (
                    cand,
                    patch,
                    model.collapse_signature(cand, ctx, patch),
                    model.collapse_salt_datum(cand, ctx, patch),
                )
            )
            if len(naive_buf) >= batch_size:
                process_naive_batch()
        else:
            pending.append(
                (cand, payload if payload is not None else model.patch_for(cand, ctx))
            )
            if len(pending) >= batch_size:
                flush()
        # Checkpoint only at naive batch boundaries (buffer empty): a
        # forced flush would change naive batch composition, and the
        # per-batch active-node closure / settle salt can flip marginal
        # observations — resume must reproduce the uninterrupted run bit
        # for bit.  Under collapse every pending representative is
        # simulated first so the snapshot covers the whole prefix
        # (regrouping representatives is verdict-safe: their salts are
        # already fixed).
        if (
            checkpoint_save is not None
            and since_checkpoint >= checkpoint_every
            and not (naive_buf if do_collapse else pending)
        ):
            if do_collapse:
                flush_all()
            checkpoint(i + 1)
            since_checkpoint = 0
    if do_collapse:
        process_naive_batch()
        flush_all()
    else:
        flush()

    result = make_result(int(candidates.size))
    if merge_with is not None:
        result = merge_sweeps([merge_with, result])
    telem.n_simulated = n_simulated
    kd = KERNEL_COUNTERS.delta(kern0)
    telem.machines_retired += kd[0]
    telem.batch_compactions += kd[1]
    telem.machine_cycles_saved += kd[2]
    telem.ff_cycles_skipped += kd[3]
    telem.cache_hits, telem.cache_misses, telem.cache_bytes = CACHE_STATS.delta(cache0)
    telem.wall_seconds = time.perf_counter() - t0
    timed = telem.context_seconds + telem.simulate_seconds + telem.checkpoint_seconds
    telem.prefilter_seconds = max(0.0, telem.wall_seconds - timed)
    result.telemetry = telem
    if store is not None and sweep_key is not None:
        store.put(sweep_key, result)
    if observing:
        tracer.point("telemetry", **telem.to_dict())
        tracer.counters(KERNEL_COUNTERS.to_dict())
        tracer.close_span(
            root_span, n_simulated=n_simulated, n_batches=telem.n_batches
        )
        progress.finish(telem.summary())
    if checkpoint_save is not None:
        checkpoint_save(result)
    return result


# -- worker-side state ---------------------------------------------------------
#
# Keyed by the model *ref* — the content address of the pickled model
# when an executor backend primed a blob store (local pool initializer,
# TCP one-time upload), or the raw pickled bytes for external pools
# that ship the blob per task (which identifies design, device and
# every knob either way).  Bounded so a long-lived pool sweeping many
# models cannot hoard contexts.

_MAX_CACHED = 4
_MODEL_STATE: dict[bytes | str, tuple[FaultModel, Any]] = {}


def _model_state(model_ref: bytes | str) -> tuple[FaultModel, Any]:
    """The worker-side cache: unpickle once, derive the context once."""
    state = _MODEL_STATE.get(model_ref)
    if state is None:
        if len(_MODEL_STATE) >= _MAX_CACHED:
            _MODEL_STATE.clear()
        model = pickle.loads(resolve_blob(model_ref))
        state = (model, model.build_context())
        _MODEL_STATE[model_ref] = state
    return state


def _shard_cache(cache_key: str | None):
    """The worker's local result store for one task, or ``None``.

    Consulted before simulating — a TCP worker with a warm local cache
    serves even *stolen* shards without touching the simulator.  The
    cached value is the full worker return tuple; its timing and kernel
    fields describe the producing run (verdict-invariant, they only
    perturb telemetry).
    """
    return result_cache() if cache_key else None


def _worker_prefilter(
    model_ref, cands: np.ndarray, cache_key: str | None = None
) -> tuple[np.ndarray, float]:
    """Classify one contiguous candidate chunk.

    Returns per-candidate verdict codes aligned with ``cands``
    (``CODE_NOT_TESTED`` marks a pre-filter survivor that must be
    simulated) and the worker seconds spent.
    """
    store = _shard_cache(cache_key)
    if store is not None:
        hit = store.get(cache_key)
        if hit is not None:
            return hit
    t0 = time.perf_counter()
    model, ctx = _model_state(model_ref)
    codes = np.empty(cands.size, dtype=np.uint8)
    for i, cand in enumerate(cands):
        codes[i], _ = model.prefilter(int(cand), ctx)
    result = codes, time.perf_counter() - t0
    if store is not None:
        store.put(cache_key, result)
    return result


def _worker_observe(
    model_ref, batch_size: int, cands: np.ndarray, cache_key: str | None = None
) -> tuple[
    np.ndarray, dict[int, np.ndarray], list[float], float, tuple[int, int, int, int]
]:
    """Simulate one survivor shard in consecutive ``batch_size`` batches.

    ``cands`` must be pre-filter survivors in candidate order; patches
    are re-derived in process (:meth:`FaultModel.patch_for` is
    deterministic).  Returns verdict codes aligned with ``cands``, the
    retained payloads, the per-batch durations (their length is the
    batch count), the worker seconds spent, and the kernel
    fault-dropping counter delta.
    """
    store = _shard_cache(cache_key)
    if store is not None:
        hit = store.get(cache_key)
        if hit is not None:
            return hit
    t0 = time.perf_counter()
    kern0 = KERNEL_COUNTERS.snapshot()
    model, ctx = _model_state(model_ref)
    codes = np.empty(cands.size, dtype=np.uint8)
    payloads: dict[int, np.ndarray] = {}
    batch_seconds: list[float] = []
    for start in range(0, int(cands.size), batch_size):
        t_batch = time.perf_counter()
        chunk = cands[start : start + batch_size]
        pending = [(int(c), model.patch_for(int(c), ctx)) for c in chunk]
        observations = model.observe_batch(ctx, pending)
        for j, ((cand, _), obs) in enumerate(zip(pending, observations)):
            codes[start + j] = model.classify(obs)
            rich = model.payload(obs)
            if rich is not None:
                payloads[cand] = rich
        batch_seconds.append(time.perf_counter() - t_batch)
    result = (
        codes, payloads, batch_seconds, time.perf_counter() - t0,
        KERNEL_COUNTERS.delta(kern0),
    )
    if store is not None:
        store.put(cache_key, result)
    return result


def _worker_prefilter_collapse(
    model_ref, cands: np.ndarray, cache_key: str | None = None
) -> tuple[np.ndarray, list[tuple[Any, Any] | None], float]:
    """Pre-filter one chunk, also deriving collapse inputs for survivors.

    Like :func:`_worker_prefilter`, plus a per-candidate entry that is
    ``None`` for skips and ``(signature, salt_datum)`` for survivors —
    everything the parent needs to group collapse classes without ever
    shipping patches across processes.
    """
    store = _shard_cache(cache_key)
    if store is not None:
        hit = store.get(cache_key)
        if hit is not None:
            return hit
    t0 = time.perf_counter()
    model, ctx = _model_state(model_ref)
    codes = np.empty(cands.size, dtype=np.uint8)
    info: list[tuple[Any, Any] | None] = []
    for i, cand in enumerate(cands):
        cand = int(cand)
        code, payload = model.prefilter(cand, ctx)
        codes[i] = code
        if code == CODE_NOT_TESTED:
            patch = payload if payload is not None else model.patch_for(cand, ctx)
            info.append(
                (
                    model.collapse_signature(cand, ctx, patch),
                    model.collapse_salt_datum(cand, ctx, patch),
                )
            )
        else:
            info.append(None)
    result = codes, info, time.perf_counter() - t0
    if store is not None:
        store.put(cache_key, result)
    return result


def _worker_observe_collapsed(
    model_ref, batch_size: int, cands: np.ndarray, salt: Any,
    cache_key: str | None = None,
) -> tuple[
    np.ndarray, dict[int, np.ndarray], list[float], float, tuple[int, int, int, int]
]:
    """Simulate one shard of same-salt collapse-class representatives.

    Identical to :func:`_worker_observe` except every batch is simulated
    through :meth:`FaultModel.observe_collapsed` with ``salt`` forced,
    so regrouped representatives keep the observations their original
    naive batches would have produced.
    """
    store = _shard_cache(cache_key)
    if store is not None:
        hit = store.get(cache_key)
        if hit is not None:
            return hit
    t0 = time.perf_counter()
    kern0 = KERNEL_COUNTERS.snapshot()
    model, ctx = _model_state(model_ref)
    codes = np.empty(cands.size, dtype=np.uint8)
    payloads: dict[int, np.ndarray] = {}
    batch_seconds: list[float] = []
    for start in range(0, int(cands.size), batch_size):
        t_batch = time.perf_counter()
        chunk = cands[start : start + batch_size]
        pending = [(int(c), model.patch_for(int(c), ctx)) for c in chunk]
        observations = model.observe_collapsed(ctx, pending, salt)
        for j, ((cand, _), obs) in enumerate(zip(pending, observations)):
            codes[start + j] = model.classify(obs)
            rich = model.payload(obs)
            if rich is not None:
                payloads[cand] = rich
        batch_seconds.append(time.perf_counter() - t_batch)
    result = (
        codes, payloads, batch_seconds, time.perf_counter() - t0,
        KERNEL_COUNTERS.delta(kern0),
    )
    if store is not None:
        store.put(cache_key, result)
    return result


# -- sharded driver ------------------------------------------------------------


def _part_sweep(
    model: FaultModel,
    cands: np.ndarray,
    codes: np.ndarray,
    host_seconds: float,
    n_simulated: int,
    payloads: dict[int, np.ndarray] | None = None,
) -> SweepResult:
    """Wrap one shard's verdicts as a mergeable partial result."""
    verdicts = np.zeros(model.space_size(), dtype=np.uint8)
    verdicts[cands] = codes
    return SweepResult(
        model_name=model.name,
        model_key=model.key(),
        n_space=int(verdicts.size),
        verdicts=verdicts,
        candidate_ids=np.asarray(cands, dtype=np.int64),
        n_simulated=n_simulated,
        host_seconds=host_seconds,
        payloads=payloads or {},
    )


def shard_survivors(survivors: np.ndarray, batch_size: int, n_shards: int) -> list[np.ndarray]:
    """Cut the survivor sequence into contiguous shards of whole batches.

    Every shard except (possibly) the last holds a multiple of
    ``batch_size`` survivors — the invariant that makes shard-local
    batching identical to the serial loop's, both on a fresh run and
    when re-sharding the remainder after a partial (killed) sweep.
    """
    n_batches = -(-int(survivors.size) // batch_size)
    n_shards = max(1, min(n_shards, n_batches))
    bounds = [round(i * n_batches / n_shards) for i in range(n_shards + 1)]
    shards = []
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        shard = survivors[b0 * batch_size : b1 * batch_size]
        if shard.size:
            shards.append(shard)
    return shards


def run_sharded(
    model: FaultModel,
    jobs: int | None = None,
    batch_size: int = 128,
    candidates: np.ndarray | None = None,
    checkpoint_save: Callable[[SweepResult], None] | None = None,
    checkpoint_every: int = 50_000,
    merge_with: SweepResult | None = None,
    executor=None,
    shards_per_job: int = 4,
    collapse: bool = True,
    policy: ExecutorPolicy | None = None,
    backend=None,
) -> SweepResult:
    """Sharded multi-process sweep, byte-identical to ``jobs=1``.

    ``jobs=None`` uses every CPU (:func:`default_jobs`); ``jobs=1``
    (without an external executor or a non-local transport) delegates
    to :func:`run_serial`.  With ``checkpoint_save`` the parent
    snapshots after the pre-filter and after every completed shard
    (shards are the checkpoint granularity; raise ``shards_per_job``
    for finer snapshots).  An external ``executor`` (e.g. a shared
    pool) is used as-is and not shut down.  ``backend`` overrides the
    transport: an :class:`~repro.engine.backends.ExecutorBackend`
    instance is used directly, a name (``"local"``/``"tcp"``) is
    resolved against the policy's transport block (which is also the
    default, so ``--executor tcp`` reaches here ambiently).

    With ``collapse`` the parent derives each survivor's collapse class
    from worker-computed ``(signature, salt_datum)`` pairs, dispatches
    only same-salt representative shards, and fans verdicts out to
    followers.  Checkpoints then fold only the longest fully-resolved
    survivor *prefix* (cut at a naive-batch boundary) — unlike the
    naive path, out-of-order shard completions cannot be folded
    individually, because removing a scattered subset of survivors
    would regroup the remainder's naive batches on resume.

    **Fault tolerance.** Both phases drain through a
    :class:`~repro.engine.executor.ShardExecutor` governed by ``policy``
    (default: the ambient :func:`get_executor_policy`): worker
    exceptions retry with backoff, a broken pool is rebuilt and its
    in-flight shards relaunched, stalled shards are speculatively
    re-executed (first result wins; shards are deterministic so the
    bytes cannot differ), and shards that keep failing are quarantined.
    A quarantined shard's candidates stay untested and are *excluded*
    from ``candidate_ids`` — the sweep still completes and checkpoints
    everything resolved, then raises :class:`CampaignError` unless
    ``policy.allow_partial``.  Quarantine drops are resume-safe: every
    dropped piece is a whole number of ``batch_size`` batches (or a
    prefix-aligned tail under collapse), so a later resume re-groups
    the remainder into the byte-identical batches.
    """
    jobs = default_jobs() if jobs is None else int(jobs)
    if jobs < 1:
        raise CampaignError(f"jobs must be >= 1, got {jobs}")
    if policy is None:
        policy = get_executor_policy()
    if candidates is None:
        candidates = model.enumerate_candidates()
    candidates = np.asarray(candidates, dtype=np.int64)
    if jobs == 1 and executor is None and backend is None and policy.transport == "local":
        return run_serial(
            model,
            batch_size=batch_size,
            candidates=candidates,
            checkpoint_save=checkpoint_save,
            checkpoint_every=checkpoint_every,
            merge_with=merge_with,
            collapse=collapse,
        )
    do_collapse = bool(collapse) and model.collapsible

    t0 = time.perf_counter()
    cache0 = CACHE_STATS.snapshot()
    store = result_cache()
    sweep_key: str | None = None
    if store is not None and merge_with is None:
        sweep_key = _sweep_cache_key(model, candidates, batch_size, collapse)
        cached = store.get(sweep_key)
        if cached is not None:
            return _serve_cached_sweep(cached, cache0, jobs, checkpoint_save)
    telem = CampaignTelemetry(
        n_candidates=int(candidates.size), jobs=jobs, backend=resolve_backend()
    )
    observer = get_observer()
    tracer, progress = observer.tracer, observer.progress
    observing = observer.enabled
    root_span = tracer.open_span(
        "campaign",
        model=model.name,
        key=model.key(),
        jobs=jobs,
        candidates=int(candidates.size),
        collapse=do_collapse,
        backend=telem.backend,
    )
    def add_kernel_delta(kd: tuple[int, int, int, int]) -> None:
        telem.machines_retired += kd[0]
        telem.batch_compactions += kd[1]
        telem.machine_cycles_saved += kd[2]
        telem.ff_cycles_skipped += kd[3]

    shard_exec = ShardExecutor(jobs, policy, pool=executor, backend=backend)
    # Register the pickled model with the transport once; every task
    # carries only the returned ref (a content address for backends
    # with a primed blob store, the raw bytes for external pools).
    model_blob = pickle.dumps(model)
    model_ref = shard_exec.prime_blob(model_blob)
    # Per-shard content addresses: computed unconditionally (one SHA-256
    # per shard) so remote workers with their own local cache can serve
    # shards — stolen ones included — even when the parent has no store.
    model_digest = blob_digest(model_blob)

    def shard_key(kind: str, *parts: Any) -> str:
        return content_key(
            "shard-v1", model_digest, telem.backend, batch_size, kind, *parts
        )
    # Pre-populate the worker cache under the same ref the tasks carry:
    # under fork the children inherit the model context copy-on-write;
    # under spawn the pool initializer re-installs the blob and workers
    # re-derive the context once each (and the parent still needs the
    # context for collapse grouping).
    if model_ref not in _MODEL_STATE:
        if len(_MODEL_STATE) >= _MAX_CACHED:
            _MODEL_STATE.clear()
        _MODEL_STATE[model_ref] = (model, model.build_context())
    try:
        # Phase 1: parallel pre-filter over contiguous candidate chunks.
        n_chunks = max(1, min(jobs * shards_per_job, int(candidates.size)))
        chunks = [c for c in np.array_split(candidates, n_chunks) if c.size]
        prefilter_fn = _worker_prefilter_collapse if do_collapse else _worker_prefilter
        prefilter_kind = "prefilter-collapse" if do_collapse else "prefilter"
        prefilter_span = tracer.open_span("phase.prefilter", chunks=len(chunks))
        progress.start(f"{model.name} prefilter", total=len(chunks))
        chunk_results: dict[int, tuple] = {}
        prefilter_tasks = []
        for i, c in enumerate(chunks):
            ck = shard_key(prefilter_kind, c)
            prefilter_tasks.append(
                TaskSpec(f"prefilter:{i}", prefilter_fn, (model_ref, c, ck), cache_key=ck)
            )
        for key, res in shard_exec.run(
            prefilter_tasks, phase="prefilter", telemetry=telem
        ):
            chunk_results[int(key.split(":", 1)[1])] = res
            telem.prefilter_seconds += res[-1]
            if observing:
                progress.update(len(chunk_results))
        # Reassemble in chunk order, dropping quarantined chunks — their
        # candidates stay untested, excluded from the result entirely, so
        # a later resume re-tests them (pre-filtering is per-candidate
        # pure; dropping any subset is resume-safe).
        kept_codes: list[np.ndarray] = []
        kept_chunks: list[np.ndarray] = []
        infos: list[tuple[Any, Any] | None] = []
        for i, chunk in enumerate(chunks):
            res = chunk_results.get(i)
            if res is None:  # quarantined chunk
                telem.candidates_quarantined += int(chunk.size)
                continue
            kept_codes.append(res[0])
            kept_chunks.append(chunk)
            if do_collapse:
                infos.extend(res[1])
        codes = (
            np.concatenate(kept_codes) if kept_codes else np.empty(0, dtype=np.uint8)
        )
        kept = (
            np.concatenate(kept_chunks) if kept_chunks else np.empty(0, dtype=np.int64)
        )
        survivor_mask = codes == CODE_NOT_TESTED
        survivors = kept[survivor_mask]
        skipped = kept[~survivor_mask]
        telem.skip_structural = int(np.count_nonzero(codes == CODE_SKIP_STRUCTURAL))
        telem.skip_cone = int(np.count_nonzero(codes == CODE_SKIP_CONE))
        telem.skip_unaddressed = int(np.count_nonzero(codes == CODE_SKIP_UNADDRESSED))
        telem.n_simulated = int(survivors.size)
        if observing:
            tracer.close_span(
                prefilter_span,
                survivors=int(survivors.size),
                skipped=int(skipped.size),
                worker_seconds=round(telem.prefilter_seconds, 6),
            )
            progress.finish(f"{int(survivors.size)} survivor(s)")

        parts: list[SweepResult] = []
        if merge_with is not None:
            parts.append(merge_with)
        if skipped.size:
            parts.append(
                _part_sweep(
                    model, skipped, codes[~survivor_mask], telem.prefilter_seconds, 0
                )
            )
        acc = merge_sweeps(parts) if len(parts) > 1 else (parts[0] if parts else None)

        def checkpoint(result: SweepResult) -> None:
            if checkpoint_save is not None:
                t_ck = time.perf_counter()
                checkpoint_save(result)
                seconds = time.perf_counter() - t_ck
                telem.checkpoint_seconds += seconds
                if observing:
                    tracer.point(
                        "checkpoint",
                        n_done=int(result.candidate_ids.size),
                        seconds=round(seconds, 6),
                    )

        if acc is not None:
            checkpoint(acc)

        observe_span = tracer.open_span("phase.observe", survivors=int(survivors.size))
        progress.start(f"{model.name} observe", total=int(survivors.size))
        done_bits = 0

        def shard_done(
            shard: np.ndarray, batch_seconds: list[float], seconds: float
        ) -> None:
            nonlocal done_bits
            telem.n_batches += len(batch_seconds)
            telem.simulate_seconds += seconds
            for b in batch_seconds:
                telem.record_batch_seconds(b)
            telem.record_shard_seconds(seconds)
            if observing:
                done_bits += int(shard.size)
                progress.update(done_bits)
                if telem.n_batches // _COUNTER_SAMPLE_BATCHES != (
                    telem.n_batches - len(batch_seconds)
                ) // _COUNTER_SAMPLE_BATCHES:
                    tracer.counters(KERNEL_COUNTERS.to_dict())

        if not do_collapse:
            # Phase 2: survivor shards, whole batches each, fanned out.
            shards = shard_survivors(survivors, batch_size, jobs * shards_per_job)
            observe_tasks = []
            for i, shard in enumerate(shards):
                ck = shard_key("observe", shard)
                observe_tasks.append(
                    TaskSpec(
                        f"observe:{i}",
                        _worker_observe,
                        (model_ref, batch_size, shard, ck),
                        {"index": i, "bits": int(shard.size)},
                        cache_key=ck,
                    )
                )
            for key, res in shard_exec.run(
                observe_tasks,
                phase="observe",
                telemetry=telem,
                span_name="shard",
                span_parent=observe_span,
            ):
                shard = shards[int(key.split(":", 1)[1])]
                shard_codes, shard_payloads, batch_seconds, seconds, kd = res
                shard_done(shard, batch_seconds, seconds)
                add_kernel_delta(kd)
                part = _part_sweep(
                    model, shard, shard_codes, seconds, int(shard.size), shard_payloads
                )
                acc = part if acc is None else merge_sweeps([acc, part])
                checkpoint(acc)
            # A quarantined shard's candidates are simply absent from the
            # result — each shard is a whole run of naive batches, so the
            # untested remainder re-groups identically on resume.
            for key in shard_exec.quarantined:
                if key.startswith("observe:"):
                    telem.candidates_quarantined += int(
                        shards[int(key.split(":", 1)[1])].size
                    )
        else:
            # Phase 2 (collapsed): group survivors into their naive
            # batches to derive salts, assign one representative per
            # (salt, signature) class, and fan shards of same-salt
            # representatives out to the pool.
            ctx = _MODEL_STATE[model_ref][1]
            surv_info = [infos[i] for i in np.flatnonzero(survivor_mask)]
            n_surv = int(survivors.size)
            rep_followers: dict[int, list[int]] = {}  # rep cand -> follower cands
            reps_by_salt: dict[Any, list[int]] = {}
            seen_key: dict[Any, int] = {}  # (salt, signature) -> rep cand
            for b0 in range(0, n_surv, batch_size):
                idx = range(b0, min(b0 + batch_size, n_surv))
                salt = model.collapse_salt(ctx, [surv_info[i][1] for i in idx])
                for i in idx:
                    cand = int(survivors[i])
                    sig = surv_info[i][0]
                    key = None if sig is None else (salt, sig)
                    rep = seen_key.get(key) if key is not None else None
                    if rep is not None:
                        rep_followers[rep].append(cand)
                    else:
                        if key is not None:
                            seen_key[key] = cand
                        rep_followers[cand] = []
                        reps_by_salt.setdefault(salt, []).append(cand)

            shard_specs: list[tuple[np.ndarray, Any]] = []
            for salt, reps in reps_by_salt.items():
                reps_arr = np.asarray(reps, dtype=np.int64)
                for shard in shard_survivors(reps_arr, batch_size, jobs * shards_per_job):
                    shard_specs.append((shard, salt))
            observe_tasks = []
            for i, (shard, salt) in enumerate(shard_specs):
                ck = shard_key("observe-collapsed", shard, salt)
                observe_tasks.append(
                    TaskSpec(
                        f"observe:{i}",
                        _worker_observe_collapsed,
                        (model_ref, batch_size, shard, salt, ck),
                        {"index": i, "bits": int(shard.size)},
                        cache_key=ck,
                    )
                )

            resolved_code: dict[int, int] = {}
            resolved_payloads: dict[int, np.ndarray] = {}
            ck_done = 0  # survivor-prefix length already folded into acc

            def fold_prefix(hi: int) -> None:
                nonlocal acc, ck_done
                part_cands = survivors[ck_done:hi]
                part_codes = np.array(
                    [resolved_code[int(c)] for c in part_cands], dtype=np.uint8
                )
                part_payloads = {
                    int(c): resolved_payloads[int(c)]
                    for c in part_cands
                    if int(c) in resolved_payloads
                }
                part = _part_sweep(
                    model, part_cands, part_codes, 0.0, int(part_cands.size), part_payloads
                )
                acc = part if acc is None else merge_sweeps([acc, part])
                ck_done = hi

            for key, res in shard_exec.run(
                observe_tasks,
                phase="observe",
                telemetry=telem,
                span_name="shard",
                span_parent=observe_span,
            ):
                shard, _salt = shard_specs[int(key.split(":", 1)[1])]
                shard_codes, shard_payloads, batch_seconds, seconds, kd = res
                shard_done(shard, batch_seconds, seconds)
                add_kernel_delta(kd)
                for j, rep in enumerate(shard):
                    rep = int(rep)
                    code = int(shard_codes[j])
                    rich = shard_payloads.get(rep)
                    resolved_code[rep] = code
                    if rich is not None:
                        resolved_payloads[rep] = rich
                    for flw in rep_followers[rep]:
                        resolved_code[flw] = code
                        if rich is not None:
                            resolved_payloads[flw] = rich.copy()
                        telem.n_collapsed += 1
                if checkpoint_save is not None:
                    p = ck_done
                    while p < n_surv and int(survivors[p]) in resolved_code:
                        p += 1
                    p -= p % batch_size
                    if p > ck_done:
                        fold_prefix(p)
                        checkpoint(acc)
            if any(k.startswith("observe:") for k in shard_exec.quarantined):
                # Quarantined representatives leave holes in the survivor
                # sequence: fold only the resolved prefix, cut at a naive-
                # batch boundary, and drop everything past it (resolved
                # stragglers included) — folding a scattered subset would
                # regroup the remainder's naive batches on resume.
                p = ck_done
                while p < n_surv and int(survivors[p]) in resolved_code:
                    p += 1
                p -= p % batch_size
                if p > ck_done:
                    fold_prefix(p)
                telem.candidates_quarantined += n_surv - p
            elif ck_done < n_surv:
                fold_prefix(n_surv)
        if observing:
            tracer.close_span(observe_span, batches=telem.n_batches)
            progress.finish(f"{telem.n_batches} batch(es)")
    finally:
        shard_exec.close()

    if acc is None:  # no candidates at all, or everything quarantined
        acc = _part_sweep(
            model, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8), 0.0, 0
        )
    telem.wall_seconds = time.perf_counter() - t0
    prior = merge_with.host_seconds if merge_with is not None else 0.0
    acc.host_seconds = prior + telem.wall_seconds
    telem.cache_hits, telem.cache_misses, telem.cache_bytes = CACHE_STATS.delta(cache0)
    acc.telemetry = telem
    # Store the whole sweep only when it is clean and complete — never a
    # quarantined partial (its verdicts exclude untested candidates).
    if store is not None and sweep_key is not None and not shard_exec.quarantined:
        store.put(sweep_key, acc)
    if checkpoint_save is not None:
        t_ck = time.perf_counter()
        checkpoint_save(acc)
        telem.checkpoint_seconds += time.perf_counter() - t_ck
    if observing:
        tracer.point("telemetry", **telem.to_dict())
        tracer.counters(KERNEL_COUNTERS.to_dict())
        tracer.close_span(
            root_span, n_simulated=telem.n_simulated, n_batches=telem.n_batches
        )
    if shard_exec.quarantined and not policy.allow_partial:
        keys = ", ".join(sorted(shard_exec.quarantined))
        late = ""
        if shard_exec.late_results:
            late = (
                f" ({len(shard_exec.late_results)} quarantined shard(s) "
                f"completed during teardown — logged, not merged)"
            )
        raise CampaignError(
            f"{len(shard_exec.quarantined)} shard(s) quarantined ({keys}){late}; "
            f"everything resolved was checkpointed — re-run to retry the "
            f"missing work, or pass --allow-partial to accept a partial sweep"
        )
    return acc


# -- convenience front door (engine-native checkpoint format) ------------------


def run_sweep(
    model: FaultModel,
    jobs: int = 1,
    batch_size: int = 128,
    candidates: np.ndarray | None = None,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 50_000,
    merge_with: SweepResult | None = None,
    executor=None,
    shards_per_job: int = 4,
    collapse: bool = True,
    policy: ExecutorPolicy | None = None,
    backend=None,
) -> SweepResult:
    """Run a sweep with the engine's native checkpoint format.

    The one-stop entry point for adapters without a historical
    checkpoint format of their own: ``jobs`` picks serial vs sharded,
    ``checkpoint_path`` snapshots :func:`save_sweep` archives that
    :func:`resume_sweep` restarts from.  ``policy`` overrides the
    ambient :class:`ExecutorPolicy` for sharded runs (serial runs have
    no pool to recover); ``backend`` forces an executor transport the
    same way it does for :func:`run_sharded`.
    """
    checkpoint_cb = None
    if checkpoint_path is not None:

        def checkpoint_cb(sweep: SweepResult) -> None:
            save_sweep(sweep, checkpoint_path)

    transport = (policy or get_executor_policy()).transport
    if jobs == 1 and executor is None and backend is None and transport == "local":
        return run_serial(
            model,
            batch_size=batch_size,
            candidates=candidates,
            checkpoint_save=checkpoint_cb,
            checkpoint_every=checkpoint_every,
            merge_with=merge_with,
            collapse=collapse,
        )
    return run_sharded(
        model,
        jobs=jobs,
        batch_size=batch_size,
        candidates=candidates,
        checkpoint_save=checkpoint_cb,
        checkpoint_every=checkpoint_every,
        merge_with=merge_with,
        executor=executor,
        shards_per_job=shards_per_job,
        collapse=collapse,
        policy=policy,
        backend=backend,
    )


def resume_sweep(
    model: FaultModel,
    checkpoint_path: str,
    jobs: int = 1,
    batch_size: int = 128,
    checkpoint_every: int = 50_000,
    executor=None,
    shards_per_job: int = 4,
    collapse: bool = True,
    policy: ExecutorPolicy | None = None,
    backend=None,
) -> SweepResult:
    """Resume an interrupted sweep from an engine-native checkpoint.

    Every checkpoint ever written holds only whole simulator batches,
    so the remainder re-groups into the same batches the uninterrupted
    run would have used — the merged result is byte-identical to a
    never-killed sweep, for any worker count on either side.
    """
    part = load_sweep(checkpoint_path)
    if part.model_key != model.key():
        raise CampaignError(
            f"checkpoint {checkpoint_path!r} is for {part.model_key!r}, "
            f"not {model.key()!r}"
        )
    candidates = np.asarray(model.enumerate_candidates(), dtype=np.int64)
    remaining = np.setdiff1d(candidates, part.candidate_ids)
    if remaining.size == 0:
        return part
    return run_sweep(
        model,
        jobs=jobs,
        batch_size=batch_size,
        candidates=remaining,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        merge_with=part,
        executor=executor,
        shards_per_job=shards_per_job,
        collapse=collapse,
        policy=policy,
        backend=backend,
    )
