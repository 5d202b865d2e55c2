"""Time one cold set-up in a fresh interpreter.

Run from the repository root as
``python3 perfbench/setup_probe.py <workload> <seed> <storage_dir>``:
builds the workload's spec (benchmark code, untimed), then times the
first ``import repro`` through the plugin import to a built deployment
that is ready to tick.  Prints ``{"import_s": .., "build_s": ..}``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, "src")

from workloads import WORKLOADS  # noqa: E402  (benchmark code, untimed)


def main(argv) -> int:
    name, seed, storage_dir = argv[1], int(argv[2]), argv[3]
    spec = WORKLOADS[name].make_spec(seed, storage_dir)
    t0 = time.perf_counter()
    import repro.deploy
    import repro.plugins  # noqa: F401  (operator plugins, and scipy)

    t1 = time.perf_counter()
    repro.deploy.build_deployment(spec)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
