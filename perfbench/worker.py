"""One workload process: set up a workload, then run it timed or traced.

run.py starts this file with a fixed PYTHONHASHSEED, so that call counts
repeat exactly, and reads the JSON object on the last line of its output.

Modes:
- setup: import cbp, generate the inputs, report the set-up time and exit;
- run: set up, then call items closed-loop (one caller, the next call only
  after the last returned) until --seconds have passed: in whole passes
  over the inputs on sweep and analyze, so every run measures the same mix,
  and on dp item by item, with at least 100 items so that p90 has ten
  samples beyond it.  Every output is checked afterwards.  Times are
  calibrated to the reference speed (see calibrate.py); the raw wall times
  are reported next to them;
- trace: set-up plus one fixed pass untraced, then the same under
  tracing.Tracer, both calibrated; report the per-layer metrics, with the
  calibrated difference of the two wall times as trace.overhead_s, and
  write the spans out.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")


def closed_loop(workload, inputs, seconds: float | None, trace: bool = False, calibrator=None):
    """Records (item, start, end, busy seconds, output, error) per call, the
    wall time of the loop and the seconds spent in calibration samples.

    Busy seconds exclude calibration samples.  seconds=None runs one pass."""
    spent = (lambda: calibrator.spent) if calibrator else (lambda: 0.0)
    records = []
    start, spent0 = time.perf_counter(), spent()
    while True:
        for item, call in workload.units(inputs, trace):
            t0, s0 = time.perf_counter(), spent()
            try:
                out, err = call(), None
            except Exception as exc:  # a failed item is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            records.append((item, t0, t1, t1 - t0 - (spent() - s0), out, err))
            if (
                seconds is not None
                and not workload.whole_passes
                and t1 - start >= seconds
                and len(records) >= workload.min_items
            ):
                return records, t1 - start, spent() - spent0
        if seconds is None or time.perf_counter() - start >= seconds:
            return records, time.perf_counter() - start, spent() - spent0


def failures(workload, records) -> list[str]:
    out = []
    for item, _, _, _, result, err in records:
        problem = err
        if problem is None:
            try:
                problem = workload.check(item, result)
            except Exception as exc:  # an output the check cannot read is wrong
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem is not None:
            out.append(problem)
    return out


def setup_time(spawned: float) -> tuple[float, float]:
    """(raw, calibrated) seconds since the process was started."""
    raw = time.monotonic() - spawned
    return raw, raw / calibrate.slowdown(statistics.fmean(calibrate.timed_loop() for _ in range(6)))


def percentiles(values) -> tuple[float, float]:
    q = statistics.quantiles(values, n=100, method="inclusive") if len(values) > 1 else values * 99
    return q[49], q[89]


def run(workload, args, workdir: str) -> dict:
    inputs = workload.generate(args.seed, workdir)
    setup_raw, setup_s = setup_time(args.spawned)
    with calibrate.Calibrator() as cal:
        records, wall, spent = closed_loop(workload, inputs, args.seconds, calibrator=cal)
    slowdown = cal.slowdown()
    latencies = [busy / cal.slowdown(t0, t1) for _, t0, t1, busy, _, _ in records]
    p50, p90 = percentiles(latencies)
    raw_p50, raw_p90 = percentiles([busy for _, _, _, busy, _, _ in records])
    bad = failures(workload, records)
    return {
        "digest": inputs.digest,
        "setup_s": setup_s,
        "items": len(records),
        "failed": len(bad),
        "failures": bad[:5],
        "wall_s": wall,
        "slowdown": slowdown,
        "calibration_samples": len(cal.durations),
        "items_per_s": len(records) * slowdown / (wall - spent),
        "item_p50_ms": p50 * 1000,
        "item_p90_ms": p90 * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "raw": {
            "setup_s": setup_raw,
            "items_per_s": len(records) / wall,
            "item_p50_ms": raw_p50 * 1000,
            "item_p90_ms": raw_p90 * 1000,
        },
    }


def calibrated_pass(workload, args, workdir: str, tracer=None):
    """Set up and run the fixed trace pass under calibration: the inputs,
    the records, the wall seconds without calibration samples, the slowdown."""
    with calibrate.Calibrator(on_sample=tracer.exclude if tracer else None) as cal:
        start, spent = time.perf_counter(), cal.spent
        inputs = workload.generate(args.seed, workdir)
        records, _, _ = closed_loop(workload, inputs, None, trace=True)
        wall = time.perf_counter() - start - (cal.spent - spent)
    return inputs, records, wall, cal.slowdown()


def traced(workload, args, workdir: str) -> dict:
    import tracing

    _, untraced_records, wall0, slowdown0 = calibrated_pass(workload, args, workdir)
    originals = tracing.public_functions()
    with tracing.Tracer() as tracer:
        inputs, records, wall, slowdown = calibrated_pass(workload, args, workdir, tracer)
    if tracing.public_functions() != originals:
        raise RuntimeError("a wrapped cbp function was not restored")

    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    spans = os.path.join(OUT, "spans", f"{workload.name}-seed{args.seed}.jsonl")
    tracer.dump(spans)
    bad = failures(workload, untraced_records) + failures(workload, records)
    return {
        "digest": inputs.digest,
        "items": len(untraced_records) + len(records),
        "failed": len(bad),
        "failures": bad[:5],
        "spans_file": os.path.relpath(spans, ROOT),
        "slowdown": slowdown,
        "metrics": tracer.metrics(wall, slowdown, wall / slowdown - wall0 / slowdown0),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--spawned", type=float, required=True, help="time.monotonic() when run.py started this process")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cbp  # noqa: F401  (set-up time includes the import)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.tiny)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.mode == "setup":
            inputs = workload.generate(args.seed, workdir)
            raw, calibrated = setup_time(args.spawned)
            result = {"digest": inputs.digest, "setup_s": calibrated, "raw": {"setup_s": raw}}
        elif args.mode == "run":
            result = run(workload, args, workdir)
        else:
            result = traced(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
