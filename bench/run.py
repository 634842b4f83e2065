"""twinpol benchmark: one workload (or all) per invocation.

    python3 bench/run.py --workload kick_td --seed 1 --seconds 20 --trace 0

Each workload runs in its own worker process (worker.py) with the BLAS
thread count pinned.  Set-up time is measured here, from starting a worker
until it reports that its first operation can begin.  It is sampled
SETUP_SAMPLES times per run: the measuring worker, and extra workers that
stop after set-up, half started before it and half after.  The median is
reported.  The last line printed is one JSON object with
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Every result is also
written with its environment to bench/out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("kick_td", "hcl_static", "manymol_bruteforce", "hcl_vacuum_td")
SETUP_SAMPLES = 5
BLAS_THREADS = "1"
WORKER_TIMEOUT_S = 150
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


class WorkerFailed(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def start_worker(argv: list[str]):
    """Start worker.py; return it and the seconds until it printed READY."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env())
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc)
        raise WorkerFailed(f"worker stopped during set-up (exit code {proc.returncode})")
    return proc, ready


def finish(proc) -> str:
    """Wait for a worker (killing it past the timeout); its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    return out


def sample_setup(argv: list[str]) -> float:
    """Set-up time of one extra worker that stops after set-up."""
    proc, ready = start_worker(argv + ["--setup-only"])
    finish(proc)
    if proc.returncode != 0:
        raise WorkerFailed(f"set-up worker exited {proc.returncode}")
    return ready


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    # the extra samples straddle the measuring worker, so the median spans the run
    setups = [sample_setup(argv) for _ in range(SETUP_SAMPLES // 2)]
    proc, ready = start_worker(argv)
    setups.append(ready)
    out = finish(proc)
    setups += [sample_setup(argv) for _ in range(SETUP_SAMPLES // 2)]
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode} without a result")
    result = json.loads(lines[-1][len("RESULT "):])
    result["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    result["trace"] = trace
    return result


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
        units["trace.overhead_s"] = "s"
        return {k: {"value": v, "unit": units[k]} for k, v in result["layers"].items()}
    return {k: {"value": result[k], "unit": u} for k, u in E2E_UNITS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results_dir = BENCH / "out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except WorkerFailed as err:
            print(f"{name}: {err}", file=sys.stderr)
            return 1
        metrics = metrics_of(result, args.trace)
        path = results_dir / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps({**result, "metrics": metrics}, indent=1))
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"incorrect {result['incorrect']}, rounds {len(result['rounds'])}")
        for key, m in metrics.items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
        summary["correct"] &= result["incorrect"] == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else name + "."
        summary["metrics"].update({prefix + k: m for k, m in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
