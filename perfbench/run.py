"""Benchmark entry point for ncfuncalc.

    python3 perfbench/run.py --workload taylor-poly|scan|cli --seed N --seconds T --trace 0|1

Run from the repository root.  Each workload runs in a fresh worker process
(``worker.py``) with BLAS pinned to one thread.  With ``--trace 0`` the last
stdout line holds the end-to-end metrics; ``setup_s`` is the median over
``SETUP_PROBES`` set-up-only workers plus the measured one.  With
``--trace 1`` it holds the per-layer metrics from a traced run.  Exits 2,
printing no result, when the package source is missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("taylor-poly", "scan", "cli")
SETUP_PROBES = 4
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def run_worker(argv: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py in its own process group; return its last stdout line as JSON."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise WorkerError("worker ran past the deadline")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description="ncfuncalc benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "ncfuncalc" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile once so every set-up loads the same cached modules.
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: the package source does not compile", file=sys.stderr)
        return 2

    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work"]
    try:
        setups = []
        if args.trace == 0:
            for i in range(SETUP_PROBES):
                probe = work / f"probe{i}"
                probe.mkdir()
                setups.append(run_worker([*common, str(probe), "--setup-only"], env, deadline)["setup_s"])
        run = work / "run"
        run.mkdir()
        res = run_worker(
            [*common, str(run), "--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
        )
    except (WorkerError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (HERE / "_work").rmdir()
        except OSError:
            pass

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in res["metrics"].items()}
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setups + [res["setup_s"]]), "unit": "s"}
    print(
        json.dumps(
            {
                "correct": res["errors"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
