"""One benchmark process: set-up, timed phase, checks.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Prints
one JSON object as its last line of standard output.  With --setup-only it
stops right after set-up and reports the moment it was ready, the time its
speed probes took and the set-up's scale to the reference speed, so that
run.py can time set-up several times.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed

# Set-up is scaled to the reference speed like the operations: sample from
# here on, so that the imports are sampled too.
SETUP_SAMPLER = speed.SpeedSampler()
SETUP_SAMPLER.start()

import cwkms  # noqa: E402

import spans  # noqa: E402
import wl_classify  # noqa: E402
import wl_cli  # noqa: E402
import wl_splice  # noqa: E402
import wl_sweep  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


# Diagnostics of the traced run: the probe's mean time, and the untraced
# round and operation times as the clock read them, before scaling.
MACHINE_METRICS = {
    "trace.overhead_s": "s",
    "machine.ref_loop_s": "s",
    "machine.round_s": "s",
    "machine.op_geomean_ms": "ms",
}


class Phase:
    """Whole rounds of the workload's operations, one at a time.  Each
    round's outputs are checked after the round and then dropped, so every
    round starts from the same heap.

    With a sampler, every operation's time is also kept scaled to the
    reference speed (speed.py).  An operation that runs in a child process
    (the cli workload) is scaled by the report of the child's own sampler,
    which the workload's `speed` method reads from the operation's output."""

    def __init__(self, wl, tracer=None, sampler=None):
        self.wl, self.tracer, self.sampler = wl, tracer, sampler
        self.round_s: list[float] = []
        self.round_ref_s: list[float] = []
        self.op_s: list[tuple] = []
        self.op_ref_s: list[tuple] = []
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb: float | None = None
        self.kept: list[tuple] = []

    def run(self, seconds: float, rss_who=None, keep=False) -> None:
        """Rounds until `seconds` of operation time have passed (at least
        one).  The peak resident size is read after the first round, before
        any check runs."""
        speeds = []  # per operation: its (start, end) span, or its scale
        if self.sampler is not None:
            self.sampler.start()
        try:
            while not self.round_s or sum(self.round_s) < seconds:
                self._round(rss_who, keep, speeds)
        finally:
            if self.sampler is not None:
                self.sampler.stop()
        scales = [self.sampler.scale(*sp) if isinstance(sp, tuple) else sp for sp in speeds]
        known = [sc for sc in scales if sc is not None]
        if known:
            # an operation that failed in a child left no report
            fill = statistics.median(known)
            self.op_ref_s = [
                (label, sec * (fill if sc is None else sc)) for (label, sec), sc in zip(self.op_s, scales)
            ]
            n = len(self.wl.ops)
            self.round_ref_s = [
                sum(sec for _, sec in self.op_ref_s[k : k + n]) for k in range(0, len(speeds), n)
            ]

    def _round(self, rss_who, keep, speeds) -> None:
        gc.collect()
        records = []
        child_speed = getattr(self.wl, "speed", None)
        for i, (label, fn) in enumerate(self.wl.ops):
            if self.tracer is not None:
                self.tracer.op = i
            busy = self.sampler.busy_s if self.sampler is not None else 0.0
            t0 = time.perf_counter()
            try:
                out, err = fn(), None
            except Exception:  # an operation that raises counts as failed
                out, err = None, traceback.format_exc()
            t1 = time.perf_counter()
            if self.sampler is not None:
                busy = self.sampler.busy_s - busy
                speeds.append((t0, t1))
            elif child_speed is not None:
                report = child_speed(out) if out is not None else None
                busy = report[0] if report else 0.0
                speeds.append(speed.PROBE_REF_S / report[1] if report else None)
            records.append((label, t1 - t0 - busy, out, err))
        self.round_s.append(sum(sec for _, sec, _, _ in records))
        if rss_who is not None and self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(rss_who).ru_maxrss / 1024
        if self.tracer is not None:
            self.tracer.uninstall()  # checks are not part of the trace
        for label, sec, out, err in records:
            self.op_s.append((label, sec))
            if err is not None:
                self.failed += 1
                print(f"{label} failed:\n{err}", file=sys.stderr)
                continue
            self.problems += [f"{label}: {p}" for p in self.wl.checks[label](out)]
            if keep:
                self.kept.append((label, sec, out))
        if self.tracer is not None:
            self.tracer.install()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["classify", "sweep", "splice", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if Path(cwkms.__file__).resolve().parent != ROOT / "src" / "cwkms":
        print(f"cwkms imported from {cwkms.__file__}, not from this checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        SETUP_SAMPLER.stop()  # a traced set-up reports spans, not its time
        tracer.install()
    if args.workload == "cli":
        wl = wl_cli.Workload(args.seed, OUT)
    else:
        module = {"classify": wl_classify, "sweep": wl_sweep, "splice": wl_splice}[args.workload]
        wl = module.Workload(args.seed)
    if tracer:
        tracer.uninstall()
    ready = time.monotonic()
    SETUP_SAMPLER.stop()
    setup = {
        "ready": ready,
        "setup_busy_s": SETUP_SAMPLER.busy_s + SETUP_SAMPLER.merged_s,
        "setup_scale": SETUP_SAMPLER.overall_scale() if not tracer else 1.0,
    }
    try:
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        result = _measure(args, wl, tracer)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    result.update(setup)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = dict(result, spans=tracer.spans if tracer else [])
    (OUT / name).write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


def op_geomean_ms(op_s: list[tuple]) -> float:
    """Geometric mean over the ladder of each operation's median time."""
    by_label: dict[str, list[float]] = {}
    for label, sec in op_s:
        by_label.setdefault(label, []).append(sec)
    return math.exp(statistics.fmean(math.log(statistics.median(v)) for v in by_label.values())) * 1e3


def _measure(args, wl, tracer) -> dict:
    seconds = args.seconds / 2 if tracer else args.seconds
    # the cli workload's children sample their own speed (cli_child.py)
    sampler = None if args.workload == "cli" else speed.SpeedSampler()
    plain = Phase(wl, sampler=sampler)
    plain.run(seconds, rss_who=resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF)
    phases = [plain]
    result = {
        "summary": {
            "round_ref_s": statistics.median(plain.round_ref_s),
            "op_geomean_ref_ms": op_geomean_ms(plain.op_ref_s),
            "round_s": statistics.median(plain.round_s),
            "op_geomean_ms": op_geomean_ms(plain.op_s),
        },
        "peak_rss_mb": plain.peak_rss_mb,
        "rounds_s": plain.round_s,
        "rounds_ref_s": plain.round_ref_s,
        "op_s": plain.op_s,
        "op_ref_s": plain.op_ref_s,
        "probe_s": sampler.probe_s if sampler else [],
    }
    if tracer:
        traced = Phase(wl, tracer)
        tracer.phase = "round"
        tracer.install()
        wl.traced = True
        traced.run(seconds, keep=args.workload == "cli")
        tracer.uninstall()
        phases.append(traced)
        units = {**spans.LAYER_METRICS, **wl_cli.LAYER_METRICS, **MACHINE_METRICS}
        layers = dict.fromkeys(units, 0.0)
        layers.update(tracer.layer_metrics(len(traced.round_s)))
        if args.workload == "cli":
            layers.update(wl.layer_metrics(traced.kept))
        layers["trace.overhead_s"] = statistics.median(traced.round_s) - statistics.median(plain.round_s)
        layers["machine.ref_loop_s"] = speed.PROBE_REF_S * statistics.fmean(
            sec / ref for (_, sec), (_, ref) in zip(plain.op_s, plain.op_ref_s)
        )
        layers["machine.round_s"] = result["summary"]["round_s"]
        layers["machine.op_geomean_ms"] = result["summary"]["op_geomean_ms"]
        result["layers"] = {m: {"value": v, "unit": units[m]} for m, v in layers.items()}
        result["traced_rounds_s"] = traced.round_s
    problems = [p for ph in phases for p in ph.problems]
    for p in problems[:20]:
        print(f"check: {p}", file=sys.stderr)
    result.update(
        correct=not problems,
        attempted=sum(len(ph.op_s) for ph in phases),
        failed=sum(ph.failed for ph in phases),
    )
    return result


if __name__ == "__main__":
    sys.exit(main())
