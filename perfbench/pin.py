"""Recompute the pinned verdict SHA-256s in ``perfbench/pins.json``.

Run from the repository root::

    python perfbench/pin.py

Each pin is ``sha256(CampaignResult.verdicts.tobytes())`` of a serial
:func:`repro.run_campaign` on exactly the workload's configuration, so a
pin moves only when verdict bytes move.  Re-pin in a change of its own
that says why the bytes changed; a perf-only change must leave every pin
(and every sensitivity and persistence ratio recorded here) as it is.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import (  # noqa: E402
    SERVICE_DEVICE,
    SERVICE_FLAGS,
    SEU_WORKLOADS,
    service_catalog,
    spec_key,
)


def main() -> int:
    # Pin the program's defaults, as run.py measures them.
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from repro import CampaignConfig, get_design, get_device, implement, run_campaign
    from repro.netlist.backends import resolve_backend

    seu = {}
    for w in SEU_WORKLOADS.values():
        if w.pin != w.name:
            continue
        hw = implement(get_design(w.design), get_device(w.device))
        result = run_campaign(hw, CampaignConfig(**w.config_kwargs()))
        tel = result.telemetry
        seu[w.name] = {
            "sha256": hashlib.sha256(result.verdicts.tobytes()).hexdigest(),
            "config": dict(design=w.design, device=w.device, **w.config_kwargs()),
            "sensitivity": result.sensitivity,
            "persistence_ratio": result.persistence_ratio,
            "counts": {
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
        }
        print(f"{w.name}: {seu[w.name]['sha256']}", file=sys.stderr)

    service = {}
    flags = {k: v for k, v in SERVICE_FLAGS.items() if k != "jobs"}
    for design, detect in service_catalog():
        hw = implement(get_design(design), get_device(SERVICE_DEVICE))
        config = CampaignConfig(detect_cycles=detect, **flags)
        result = run_campaign(hw, config)
        service[spec_key(design, detect)] = hashlib.sha256(result.verdicts.tobytes()).hexdigest()

    pins = {
        "provenance": dict(
            run.provenance(),
            backend=resolve_backend(),
            computed_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            method="sha256(run_campaign(implement(design, device), CampaignConfig(...))"
            ".verdicts.tobytes()), serial, default collapse/retire, no cache",
        ),
        "seu": seu,
        "service": service,
    }
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
