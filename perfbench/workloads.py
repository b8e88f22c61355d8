"""The benchmark's named workloads and their seeded inputs.

Three single-campaign workloads split the SEU sweep's layers, and one
traffic mix drives the HTTP job service:

``seu-prefilter-heavy``
    MULT4 on S16, every sixth bit (80,256 candidates), detect 96 /
    persist 64 (the ``repro campaign`` defaults), batch 128, jobs=1.  One
    small design on the largest scaled device: 99% of the candidates die
    in the structural pre-filter, so ``patch_for_bit`` and its
    locate/classify callees carry the run.
``seu-kernel-heavy``
    LFSR6 on S12, every 24th bit (12,558 candidates), the
    paper-protocol ``CampaignConfig`` (warmup 32 / detect 160 / persist
    96), batch 128, jobs=1.  Persistence classification and fault
    dropping run for real; the batch kernel carries the run.
``seu-sharded``
    The inputs of ``seu-prefilter-heavy`` with jobs=2 through the local
    process pool, what ``repro campaign`` does by default on a 2-CPU
    host.  The only workload that runs the executor; its verdicts must
    equal ``seu-prefilter-heavy``'s byte for byte.
``service-mix``
    ``repro serve --job-workers 2`` driven by 2 closed-loop clients over
    a seeded stream of small S8 campaign specs.  First submissions run
    cold (CLI child, checkpoint, harvest, cache write); repeats are served
    from the cache at submit time; one spec per round is submitted twice
    back to back, so its twin arrives while it is still running and is
    simulated again.

The SEU workloads have fixed inputs (their verdict SHA-256 is pinned), so
the seed changes nothing there; for ``service-mix`` it picks the specs,
their order, tenants, priorities and which spec gets an in-flight twin.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SERVICE_DEVICE = "S8"
SERVICE_DESIGNS = ("MULT2", "MULT3", "LFSR1", "COUNTER2")
SERVICE_DETECT = tuple(range(40, 64, 2))
SERVICE_FLAGS = {"stride": 9, "persist_cycles": 32, "jobs": 1}
TENANTS = ("ops", "research", "batch-farm")
PRIORITIES = ("high", "normal", "batch")
#: each first submission is followed by this many repeats one round later
REPEATS = 4
#: rounds of one spec per design; 6 rounds give 110 jobs, so at least ten
#: latencies lie beyond the p90
MIN_ROUNDS = 6


@dataclass(frozen=True)
class SeuWorkload:
    name: str
    design: str
    device: str
    stride: int
    detect_cycles: int
    persist_cycles: int
    jobs: int
    #: the workload whose pinned verdicts this one must reproduce
    pin: str

    def config_kwargs(self) -> dict:
        return dict(
            detect_cycles=self.detect_cycles,
            persist_cycles=self.persist_cycles,
            stride=self.stride,
            batch_size=128,
        )


SEU_WORKLOADS = {
    w.name: w
    for w in (
        SeuWorkload("seu-prefilter-heavy", "MULT4", "S16", 6, 96, 64, 1, "seu-prefilter-heavy"),
        SeuWorkload("seu-kernel-heavy", "LFSR6", "S12", 24, 160, 96, 1, "seu-kernel-heavy"),
        SeuWorkload("seu-sharded", "MULT4", "S16", 6, 96, 64, 2, "seu-prefilter-heavy"),
    )
}

SERVICE_WORKLOAD = "service-mix"
WORKLOADS = (*SEU_WORKLOADS, SERVICE_WORKLOAD)


def spec_key(design: str, detect_cycles: int) -> str:
    """The name a service spec is pinned under."""
    return f"{design}/{SERVICE_DEVICE}/detect{detect_cycles}"


def service_catalog() -> list[tuple[str, int]]:
    """Every (design, detect_cycles) the service stream may draw."""
    return [(d, c) for d in SERVICE_DESIGNS for c in SERVICE_DETECT]


def service_stream(seed: int, seconds: float) -> list[dict]:
    """The seeded submission order for one ``service-mix`` run.

    Round ``r`` submits one fresh spec per design, the first of them
    twice back to back (the in-flight twin), then the repeats of round
    ``r - 1``.  Repeats trail their first run by a whole round of cold
    jobs, so apart from the designed twins no duplicate can find its
    original still running; the cold/cached/twin mix is therefore the
    same for every seed.  The last round gets no repeats.
    """
    rng = random.Random(seed)
    rounds = max(MIN_ROUNDS, round(seconds / 3.3))
    if rounds > len(SERVICE_DETECT):
        raise ValueError(f"--seconds {seconds} needs more than {len(SERVICE_DETECT)} rounds")
    pools = {d: rng.sample(SERVICE_DETECT, len(SERVICE_DETECT)) for d in SERVICE_DESIGNS}

    def job(spec: tuple[str, int]) -> dict:
        design, detect_cycles = spec
        return {
            "kind": "campaign",
            "design": design,
            "device": SERVICE_DEVICE,
            "tenant": rng.choice(TENANTS),
            "priority": rng.choice(PRIORITIES),
            "flags": dict(SERVICE_FLAGS, detect_cycles=detect_cycles),
        }

    stream: list[dict] = []
    previous: list[tuple[str, int]] = []
    for r in range(rounds):
        fresh = [(d, pools[d][r]) for d in rng.sample(SERVICE_DESIGNS, len(SERVICE_DESIGNS))]
        stream += [job(fresh[0]), job(fresh[0])] + [job(s) for s in fresh[1:]]
        repeats = [s for s in previous for _ in range(REPEATS)]
        rng.shuffle(repeats)
        stream += [job(s) for s in repeats]
        previous = fresh
    return stream
