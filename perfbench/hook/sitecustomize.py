"""Ledger hook for the engine children of a traced ``repro serve``.

The benchmark puts this directory on the server's ``PYTHONPATH`` only
for its traced pass; the server hands its environment to every job
child, so each child installs the layer wrappers at start-up and writes
its ledger to ``$PERFBENCH_LEDGER_DIR`` when it exits.
"""

import atexit
import os
import sys

if os.environ.get("PERFBENCH_LEDGER_DIR"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import ledger

    ledger.install()
    atexit.register(ledger.dump)
