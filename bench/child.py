"""One workload process of the fptkit benchmark; started by bench/run.py.

    python3 bench/child.py --workload solve --mode timed --seed 0 --seconds 30

Imports fptkit from the checkout's `src/` (timing the import), builds the
workload's inputs and prints `READY {json}` with a CLOCK_MONOTONIC stamp,
so the parent can measure set-up from its own spawn time.  Then, by mode:

* `setup`: exit at once (a set-up sample only);
* `timed`: closed loop of untraced passes for --seconds, then checks;
* `trace`: one untraced and one traced pass plus per-layer probes.

The last line of stdout is one JSON object with the outcome.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("solve", "pipeline", "mc"))
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "trace"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import fptkit
    import_s = time.perf_counter() - t0
    if Path(fptkit.__file__).resolve().parent != src / "fptkit":
        print(f"fptkit imported from {fptkit.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    ready = {"t": time.clock_gettime(time.CLOCK_MONOTONIC), "import_s": import_s,
             **workloads.environment()}
    print("READY " + json.dumps(ready), flush=True)
    if args.mode == "setup":
        return 0
    try:
        if args.mode == "timed":
            metrics = wl.timed(args.seconds)
        else:
            metrics = wl.trace()
    finally:
        wl.close()
    out = {
        "attempted": wl.ledger.attempted,
        "failed": len(wl.ledger.failed),
        "failures": sorted(wl.ledger.failed.values()),
        "metrics": metrics,
        "computed": wl.computed(),
        "passes": wl.passes,
        "self_s": wl.self_times,
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
