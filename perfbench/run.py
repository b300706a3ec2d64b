"""Benchmark entry point.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  cwkms is imported from the checkout's
src/.  With --trace 0 the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics round_ref_s, op_geomean_ref_ms, setup_s and
peak_rss_mb; with --trace 1 the metrics are the per-layer ones.  Every time
is scaled to a reference machine speed (see speed.py).  Set-up is timed in
three processes (two that stop after set-up, then the measured one) and
reported as their median.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify", "sweep", "splice", "cli")
SETUP_PROBES = 2
DEADLINE_S = 170


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker process; return its result and its set-up time, from
    just before the process is started to the moment it is ready, without
    the worker's speed probes and scaled to the reference speed."""
    start = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, (result["ready"] - start - result["setup_busy_s"]) * result["setup_scale"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "cwkms" / "__init__.py").is_file():
        print(f"no cwkms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        if args.trace:
            result, _ = _worker([*common, "--trace", "1"], deadline)
            metrics = result["layers"]
        else:
            setups = [_worker([*common, "--setup-only"], deadline)[1] for _ in range(SETUP_PROBES)]
            result, setup = _worker(common, deadline)
            setups.append(setup)
            summary = result["summary"]
            metrics = {
                "round_ref_s": {"value": summary["round_ref_s"], "unit": "s"},
                "op_geomean_ref_ms": {"value": summary["op_geomean_ref_ms"], "unit": "ms"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            }
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
