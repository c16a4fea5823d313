"""fptkit benchmark: three closed-loop workloads, each in fresh processes.

    python3 bench/run.py --workload {solve,pipeline,mc} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; fptkit is imported from its `src/`.

--trace 0 measures the workload's end-to-end metrics with tracing off:
set-up (interpreter start, `import fptkit`, building the inputs) is
sampled in SETUP_SAMPLES fresh processes and reported as the median; one
of them runs passes over the workload's fixed operation list for S
seconds and checks every output against its correctness gate.

--trace 1 runs every workload once more with spans around each call into
a layer and reports every per-layer metric of BENCHMARK.json, including
the tracing overhead per workload.

Monte Carlo workers and OpenBLAS threads are both capped at nproc.  The
output starts with a header (machine, versions, BLAS threads, commit,
seed), lists each metric by name with its unit and the computed work
sizes, and ends with one JSON line: correct, attempted, failed, metrics.
The exit code is 0 only when every operation passed its gate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("solve", "pipeline", "mc")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    def __init__(self, seed, seconds):
        self.seed = seed
        self.seconds = seconds
        self.start = time.monotonic()
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=str(self.nproc),
                        FPT_THREADS=str(self.nproc))

    def child(self, workload, mode):
        """Run bench/child.py; returns (set-up seconds, READY record, result or None)."""
        cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
               "--mode", mode, "--seed", str(self.seed), "--seconds", str(self.seconds)]
        timeout = DEADLINE_S - (time.monotonic() - self.start)
        if timeout <= 0:
            raise BenchError("out of time before starting " + " ".join(cmd[2:]))
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{workload}/{mode} did not finish in {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"{workload}/{mode} exited with code {proc.returncode}")
        lines = out.splitlines()
        ready = [json.loads(l[6:]) for l in lines if l.startswith("READY ")]
        if not ready:
            raise BenchError(f"{workload}/{mode} never became ready")
        result = json.loads(lines[-1]) if mode != "setup" else None
        return ready[0]["t"] - spawned, ready[0], result


def _header(runner, workload, trace, env_info):
    rows = [
        ("workload", workload),
        ("seed", runner.seed),
        ("seconds", runner.seconds),
        ("trace", trace),
        ("git_commit", _git_commit()),
        ("nproc", runner.nproc),
        ("cpu", _cpu_model()),
        ("python", env_info["python"]),
        ("numpy", env_info["numpy"]),
        ("scipy", env_info["scipy"]),
        ("blas_threads", json.dumps(env_info["blas_threads"], sort_keys=True)),
        ("mc_workers", runner.nproc),
    ]
    for key, val in rows:
        print(f"# {key}: {val}")


def _timed(runner, workload):
    """Set-up samples before and after the measuring process, so that a
    burst of host contention does not cover all of them."""
    samples = []
    env_info = None
    for _ in range(SETUP_SAMPLES // 2):
        setup, ready, _ = runner.child(workload, "setup")
        samples.append(setup)
        env_info = env_info or ready
    _header(runner, workload, 0, env_info)
    setup, _, res = runner.child(workload, "timed")
    samples.append(setup)
    while len(samples) < SETUP_SAMPLES:
        samples.append(runner.child(workload, "setup")[0])
    metrics = dict(res["metrics"], setup_s=statistics.median(samples))
    notes = {"passes": res["passes"], "setup_samples": len(samples)}
    return res, metrics, notes


def _traced(runner, workload):
    merged = {"attempted": 0, "failed": 0, "failures": [], "computed": {}}
    metrics, import_s, self_s = {}, [], {}
    order = [workload] + [w for w in WORKLOADS if w != workload]
    for i, w in enumerate(order):
        _, ready, res = runner.child(w, "trace")
        if i == 0:
            _header(runner, workload, 1, ready)
        import_s.append(ready["import_s"])
        for key in ("attempted", "failed"):
            merged[key] += res[key]
        merged["failures"] += res["failures"]
        merged["computed"].update({f"{w}.{k}": v for k, v in res["computed"].items()})
        metrics.update(res["metrics"])
        self_s.update({f"{w}.{layer}": s for layer, s in res["self_s"].items()})
    metrics["setup.import_s"] = statistics.median(import_s)
    return merged, metrics, {f"self_s.{k}": round(v, 4) for k, v in sorted(self_s.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "fptkit" / "__init__.py").is_file():
        print(f"bench: no fptkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    runner = Runner(args.seed, args.seconds)
    try:
        if args.trace:
            res, metrics, notes = _traced(runner, args.workload)
        else:
            res, metrics, notes = _timed(runner, args.workload)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"bench: workload did not report {', '.join(missing)}", file=sys.stderr)
        return 1
    for key, val in notes.items():
        print(f"# {key}: {val}")
    for key, val in sorted(res["computed"].items()):
        print(f"{key} = {val} (computed)")
    out = {}
    for m in wanted:
        val = metrics[m["name"]]
        val = math.nan if val is None else val
        print(f"{m['name']} = {val:.6g} {m['unit']}")
        out[m["name"]] = {"value": val if math.isfinite(val) else None, "unit": m["unit"]}
    for reason in res["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": out}))
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
