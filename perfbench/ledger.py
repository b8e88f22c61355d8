"""Exclusive-time ledger over the repro layers, installed from outside ``src/``.

:func:`install` rebinds the public functions of each layer where their
callers look them up (module globals and class attributes) to timing
wrappers.  Every wrapper pushes a frame on one stack, so a layer's
*self* time is its duration minus the time of the wrapped calls it
made; the rows therefore never overlap, and the traced wall minus their
sum is reported as an explicit ``unattributed`` row instead of being
hidden in a residual.

Rows (``run.py`` maps them onto the per-layer metric names):

* ``bench.import``: importing the repro package
* ``place.implement``: place, route, bitgen, decode (``implement``)
* ``seu.build_context``: golden run and warm snapshot (``build_context``)
* ``seu.prefilter``: ``classify_candidate`` minus the decoder below it
* ``place.decoder``: ``DecodedDesign.patch_for_bit`` minus locate/classify
* ``bitstream``: ``ConfigBitstream.locate``
* ``fpga``: ``VirtexDevice.classify_bit``
* ``seu.observe``: ``simulate_batch`` bookkeeping around the kernel
* ``netlist.setup``: ``make_simulator`` and ``batch_active_mask``
* ``netlist.kernel``: ``run_verdicts``, the lock-step simulation
* ``engine.sweep``: ``run_serial`` / ``run_sharded`` sweep-loop self time
* ``engine.checkpoint``: ``save_result``, checkpoint writes
* ``executor.wait``: ``ShardExecutor.run``, dispatching shards and awaiting results
* ``executor.task``: a sharded worker's task function, self time

Forked pool workers inherit the wrappers; each worker rewrites its own
ledger to ``$PERFBENCH_LEDGER_DIR/ledger-<pid>.json`` after every task,
and a traced service child (see ``hook/sitecustomize.py``) writes its
ledger there at exit.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable

LEDGER_DIR_ENV = "PERFBENCH_LEDGER_DIR"


class Ledger:
    """Per-process accumulator of self seconds, call counts and counters."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.t0 = time.perf_counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # One entry per open wrapped call: the time its wrapped children took.
        self.stack: list[float] = []
        self.in_kernel = False
        # Outermost wall of the sweep loops (run_serial / run_sharded /
        # worker tasks), the executor's "busy" time.
        self.sweep_wall_s = 0.0
        self.task_wall_s = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "wall_s": time.perf_counter() - self.t0,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "sweep_wall_s": self.sweep_wall_s,
            "task_wall_s": self.task_wall_s,
        }


LEDGER = Ledger()


def _current() -> Ledger:
    """The ledger of this process (a forked worker starts a fresh one)."""
    global LEDGER
    if LEDGER.pid != os.getpid():
        LEDGER = Ledger()
    return LEDGER


def timed(row: str, fn: Callable, outer: str | None = None) -> Callable:
    """Wrap ``fn`` so its self time accrues to ``row``.

    ``outer`` names a ledger attribute that also accumulates the call's
    inclusive duration (the executor's busy time).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        led = _current()
        stack = led.stack
        stack.append(0.0)
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t
            child = stack.pop()
            led.self_s[row] += dt - child
            led.calls[row] += 1
            if stack:
                stack[-1] += dt
            if outer is not None:
                setattr(led, outer, getattr(led, outer) + dt)

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def _kernel(fn: Callable) -> Callable:
    """``run_verdicts``: time it and count machines per batch."""
    inner = timed("netlist.kernel", fn)

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        led = _current()
        led.counts["machines"] += self.B - (1 if self.companion else 0)
        led.in_kernel = True
        try:
            return inner(self, *args, **kwargs)
        finally:
            led.in_kernel = False

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


#: pre-filter outcome codes (``repro.seu.campaign.BitVerdict``) -> count names
_OUTCOMES = {0: "survivors", 1: "skip_structural", 2: "skip_cone", 3: "skip_unaddressed"}


def _prefilter(fn: Callable) -> Callable:
    """``classify_candidate``: time it and count its outcomes."""
    inner = timed("seu.prefilter", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = inner(*args, **kwargs)
        _current().counts[_OUTCOMES.get(result[0], "other")] += 1
        return result

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def _sweep(fn: Callable) -> Callable:
    """A sweep loop: time it and count the candidates it was handed."""
    inner = timed("engine.sweep", fn, "sweep_wall_s")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        candidates = kwargs.get("candidates")
        if candidates is not None:
            _current().counts["sweep_candidates"] += len(candidates)
        return inner(*args, **kwargs)

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def _step(fn: Callable) -> Callable:
    """``step``: count machine-cycles (batch width per cycle) inside the kernel."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        led = _current()
        if led.in_kernel:
            led.counts["machine_cycles"] += self.B
        return fn(self, *args, **kwargs)

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def _worker_task(fn: Callable) -> Callable:
    """A sharded worker's task: time it, then publish this worker's ledger."""
    inner = timed("executor.task", fn, outer="task_wall_s")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return inner(*args, **kwargs)
        finally:
            dump()

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def _timed_generator(row: str, fn: Callable) -> Callable:
    """Like :func:`timed`, for a generator: time spent inside each ``next``."""
    step = timed(row, next)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        try:
            while True:
                try:
                    item = step(gen)
                except StopIteration as stop:
                    return stop.value
                yield item
        finally:
            gen.close()

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def _owner(cls: type, name: str) -> type:
    """The class in ``cls``'s MRO that defines ``name``."""
    for klass in cls.__mro__:
        if name in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {name!r}")


def _rebind(obj: Any, name: str, make: Callable[[Callable], Callable]) -> None:
    current = getattr(obj, name)
    if not hasattr(current, "__perfbench_wrapped__"):
        setattr(obj, name, make(current))


def install() -> None:
    """Wrap every layer boundary listed in the module docstring.

    Idempotent.  Imports the repro modules it wraps, so call it before
    the timed work starts; the import time is booked to ``bench.import``.
    """
    t = time.perf_counter()
    import repro
    import repro.engine.cache as engine_cache
    import repro.engine.sweep as sweep
    import repro.place as place
    import repro.place.flow as flow
    import repro.seu.campaign as campaign
    import repro.seu.parallel as parallel
    from repro.bitstream.bitstream import ConfigBitstream
    from repro.engine.executor import ShardExecutor
    from repro.fpga.device import VirtexDevice
    from repro.netlist.backends import simulator_class
    from repro.place.decoder import DecodedDesign

    _current().self_s["bench.import"] += time.perf_counter() - t
    for mod in (repro, place, flow, engine_cache):
        _rebind(mod, "implement", lambda f: timed("place.implement", f))
    _rebind(campaign, "build_context", lambda f: timed("seu.build_context", f))
    _rebind(campaign, "classify_candidate", _prefilter)
    _rebind(campaign, "simulate_batch", lambda f: timed("seu.observe", f))
    _rebind(campaign, "make_simulator", lambda f: timed("netlist.setup", f))
    _rebind(campaign, "batch_active_mask", lambda f: timed("netlist.setup", f))
    _rebind(campaign, "save_result", lambda f: timed("engine.checkpoint", f))
    _rebind(campaign, "run_serial", _sweep)
    _rebind(parallel, "run_sharded", _sweep)
    for name in (
        "_worker_prefilter",
        "_worker_observe",
        "_worker_prefilter_collapse",
        "_worker_observe_collapsed",
    ):
        _rebind(sweep, name, _worker_task)
    _rebind(ShardExecutor, "run", lambda f: _timed_generator("executor.wait", f))
    _rebind(DecodedDesign, "patch_for_bit", lambda f: timed("place.decoder", f))
    _rebind(ConfigBitstream, "locate", lambda f: timed("bitstream", f))
    _rebind(VirtexDevice, "classify_bit", lambda f: timed("fpga", f))
    sim = simulator_class()
    _rebind(_owner(sim, "run_verdicts"), "run_verdicts", _kernel)
    _rebind(_owner(sim, "step"), "step", _step)


def snapshot() -> dict[str, Any]:
    """This process's ledger as JSON-ready data."""
    return _current().to_dict()


def dump() -> None:
    """Rewrite this process's ledger file (no-op when untraced).

    Called by forked pool workers after every task and by traced service
    children at exit; the process that installed the ledger reports it
    through :func:`snapshot` instead.
    """
    root = os.environ.get(LEDGER_DIR_ENV)
    led = _current()
    if not root or not led.calls:
        return
    path = os.path.join(root, f"ledger-{led.pid}.json")
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(led.to_dict(), fh)
    os.replace(tmp, path)


def read_dumps(root: str) -> list[dict[str, Any]]:
    """Every ledger file written under ``root``."""
    out = []
    for name in sorted(os.listdir(root)):
        if name.startswith("ledger-") and name.endswith(".json"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                out.append(json.load(fh))
    return out

