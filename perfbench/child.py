"""One repetition of an SEU workload, in a fresh process as a CLI user pays it.

Run by ``run.py`` from the repository root::

    python perfbench/child.py --workload seu-kernel-heavy --t-spawn T [--trace]

``T`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so ``setup_s`` covers interpreter
start, imports and :func:`repro.implement`.  The campaign itself runs
exactly as ``repro campaign`` runs it: :func:`run_campaign` for jobs=1,
:func:`run_campaign_parallel` otherwise.  Untraced, a ``probe.Probe``
samples the host's speed through the campaign.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time


def main() -> int:
    t_main = time.monotonic()
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import SEU_WORKLOADS

    w = SEU_WORKLOADS[args.workload]
    if args.trace:
        import ledger

        ledger.install()
    import repro
    from repro import CampaignConfig, get_design, get_device, run_campaign
    from repro.seu.parallel import run_campaign_parallel

    hw = repro.implement(get_design(w.design), get_device(w.device))
    out: dict = {"setup_s": time.monotonic() - args.t_spawn, "repro": repro.__file__}

    config = CampaignConfig(**w.config_kwargs())
    probe = None
    if not args.trace:
        from probe import Probe, speed

        probe = Probe()
    t0 = time.monotonic()
    if w.jobs == 1:
        result = run_campaign(hw, config)
    else:
        result = run_campaign_parallel(hw, config, jobs=w.jobs)
    t_end = time.monotonic()
    if probe:
        out["speed"] = speed(probe.take())
        probe.close()

    from repro.testbed.host import HostTiming

    tel = result.telemetry
    out.update(
        campaign_s=t_end - t0,
        sha=hashlib.sha256(result.verdicts.tobytes()).hexdigest(),
        sensitivity=result.sensitivity,
        persistence_ratio=result.persistence_ratio,
        modeled_s=HostTiming().sweep_time(result.n_candidates, result.n_failures),
        backend=tel.backend,
        checkpoint_s=tel.checkpoint_seconds,
        engine_wall_s=tel.wall_seconds,
        counts={
            "candidates": tel.n_candidates,
            "skip_structural": tel.skip_structural,
            "skip_cone": tel.skip_cone,
            "skip_unaddressed": tel.skip_unaddressed,
            "simulated": tel.n_simulated,
            "collapsed": tel.n_collapsed,
            "retired": tel.machines_retired,
            "batches": tel.n_batches,
            "failures": result.n_failures,
        },
        recovery={"shard_retries": tel.shard_retries, "pool_rebuilds": tel.pool_rebuilds},
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if args.trace:
        own = ledger.snapshot()
        # Interpreter start-up before main() joins the import row, and
        # the process wall runs from the parent's spawn stamp.
        own["self_s"]["bench.import"] = own["self_s"].get("bench.import", 0.0) + (
            t_main - args.t_spawn
        )
        own["wall_s"] = t_end - args.t_spawn
        root = os.environ.get(ledger.LEDGER_DIR_ENV)
        out["ledgers"] = [own] + (ledger.read_dumps(root) if root else [])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
