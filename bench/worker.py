"""One workload in one process.

run.py starts this file with the BLAS thread count pinned in its
environment.  It imports twinpol from the checkout's src/, writes the
workload's config files, prints READY (the end of set-up), then runs rounds
of the workload's operations until --seconds have passed.  Each operation is
`twinpol run <config>` through twinpol.cli.main into a fresh directory,
timed from the call to its return.  After each round the artifacts are
checked, outside the timing.  Peak memory is read after the first round's
operations, before any check, so it does not grow with the number of rounds.
With --trace 1 the rounds alternate untraced and traced.  The last line
printed is RESULT followed by a JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import workloads
from spans import Tracer, layer_metrics, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def import_program():
    """twinpol.cli.main from the checkout's src/, and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import twinpol.cli

    if not Path(twinpol.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"twinpol was imported from {twinpol.cli.__file__}, not {src}")
    return twinpol.cli.main


def call_quietly(main, argv):
    """main(argv) with its progress lines kept off this process's stdout."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue().strip()


class ModelExporter:
    """`twinpol export-model` once per config; the parsed model.json."""

    def __init__(self, main, workdir: Path):
        self.main, self.workdir, self.models = main, workdir, {}

    def __call__(self, cfg: str) -> dict:
        if cfg not in self.models:
            d = self.workdir / f"export{len(self.models)}"
            d.mkdir(parents=True)
            (d / "model.cfg").write_text(cfg)
            rc, err = call_quietly(self.main, ["export-model", str(d / "model.cfg"),
                                               "--out-dir", str(d)])
            checks.require(rc == 0, f"export-model exited {rc}: {err}")
            with open(d / "model.json", encoding="utf-8") as fh:
                self.models[cfg] = json.load(fh)
        return self.models[cfg]


def blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "seed": seed,
    }


def run_operation(main, cfg_path: Path, out: Path):
    """(seconds, failure or None) of one `twinpol run`."""
    t0 = time.perf_counter()
    try:
        rc, err = call_quietly(main, ["run", str(cfg_path), "--out-dir", str(out)])
    except Exception:                     # an escaped exception is a failed run
        return time.perf_counter() - t0, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - t0
    if rc != 0:
        return elapsed, f"exit code {rc}: {err}"
    if (out / "error.txt").exists():
        return elapsed, "error.txt: " + (out / "error.txt").read_text().strip()
    return elapsed, None


def check_operation(op, out: Path):
    """(failure or None, check values) of one operation's artifacts."""
    try:
        return None, op.check(out)
    except (checks.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
        return f"check failed: {type(exc).__name__}: {exc}", {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    twinpol_main = import_program()
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, ModelExporter(twinpol_main, workdir))
    cfgs = []
    for op in wl.operations:
        cfgs.append(workdir / f"{op.name}.cfg")
        cfgs[-1].write_text(op.config)
    print("READY", flush=True)
    if args.setup_only:
        shutil.rmtree(workdir)
        return 0

    tracer = Tracer() if args.trace else None
    rounds, failures, checked = [], [], {}
    attempted = failed = incorrect = 0
    start = time.perf_counter()
    while (not rounds or time.perf_counter() - start < args.seconds
           or (tracer and len(rounds) < 2)):
        r = len(rounds)
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.round = r
            tracer.install()
        runs = []
        try:
            for op, cfg in zip(wl.operations, cfgs):
                out = workdir / f"round{r}" / op.name
                runs.append((op, out, *run_operation(twinpol_main, cfg, out)))
        finally:
            if traced:
                tracer.uninstall()
        if r == 0:      # one round of operations, before any check or export runs
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds.append({"wall_s": sum(elapsed for *_, elapsed, _ in runs), "traced": traced})
        for op, out, _, failure in runs:
            attempted += 1
            if failure is None:
                failure, values = check_operation(op, out)
                incorrect += failure is not None
            if failure is None:
                checked[op.name] = values
                shutil.rmtree(out)
            else:
                failed += 1
                failures.append(f"round {r} {op.name}: {failure}")
                print(f"FAILED {failures[-1]} (artifacts kept in {out})", file=sys.stderr)

    plain = [x["wall_s"] for x in rounds if not x["traced"]]
    result = {
        "workload": args.workload, "params": wl.params, "env": environment(args.seed),
        "attempted": attempted, "failed": failed, "incorrect": incorrect,
        "failures": failures[:20], "rounds": rounds, "checks": checked,
        "wall_s": statistics.median(plain),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        traced_walls = [x["wall_s"] for x in rounds if x["traced"]]
        result["layers"] = layer_metrics(tracer.spans, self_times(tracer.spans))
        result["layers"]["trace.overhead_s"] = (statistics.median(traced_walls)
                                                - statistics.median(plain))
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        with open(traces / f"trace_{args.workload}_seed{args.seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"env": result["env"], "spans": tracer.spans}, fh)
    if not failures:
        shutil.rmtree(workdir)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
