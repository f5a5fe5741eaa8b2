"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: sweep, analyze, dp (see workloads.py), run closed-loop by one
caller in a worker process (worker.py).  With --trace 0 the last line of
stdout holds the end-to-end metrics, measured with tracing off and
calibrated for the machine's speed (calibrate.py); set-up time is the
median over SETUPS worker processes.  With --trace 1 it holds the
per-layer metrics of a traced run (tracing.py).  The line before it
records the seed, the digest of the generated inputs, the machine, a
drift probe timed before and after the run, the failure ratio, the
sample counts and the raw wall-time metrics.  The same record is kept under .perfbench/results/; compare.py
compares two sets of such records.  Exit status: 0 when every output was
correct, 1 when some output was wrong, 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".perfbench", "results")
SETUPS = 5  # set-up time is the median over this many processes
DEADLINE_S = 170  # every run ends within this many seconds
HASH_SEED = "0"

END_TO_END = (
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def drift_probe() -> dict:
    """The calibration loop run 20 times over; informational only."""
    wall, cpu = time.perf_counter(), time.process_time()
    calibrate.loop(20 * calibrate.LOOP_ITERATIONS)
    return {"wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu}


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}


def spawn(args, mode: str, deadline: float) -> dict:
    """Start worker.py in the given mode, wait for it and return its report."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--spawned", repr(time.monotonic()),
    ] + (["--tiny"] if args.tiny else [])
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, deadline: float) -> tuple[dict, dict]:
    """(report, metrics) of a timed or a traced run."""
    if args.trace:
        import tracing

        report = spawn(args, "trace", deadline)
        units = dict(tracing.PER_LAYER)
        return report, {n: {"value": report["metrics"][n], "unit": units[n]} for n in units}
    setups = [spawn(args, "setup", deadline) for _ in range(SETUPS - 1)]
    report = spawn(args, "run", deadline)
    if {s["digest"] for s in setups} != {report["digest"]}:
        raise RuntimeError("set-up runs generated different inputs from one seed")
    report["setup_samples_s"] = [s["setup_s"] for s in setups] + [report["setup_s"]]
    report["raw"]["setup_s"] = statistics.median([s["raw"]["setup_s"] for s in setups] + [report["raw"]["setup_s"]])
    report["setup_s"] = statistics.median(report["setup_samples_s"])
    return report, {n: {"value": report[n], "unit": u} for n, u in END_TO_END}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one cbp benchmark workload.")
    p.add_argument("--workload", required=True, choices=("sweep", "analyze", "dp"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = p.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "cbp", "__init__.py")):
        print(f"error: no cbp sources under {ROOT}/src", file=sys.stderr)
        return 2
    before = drift_probe()
    try:
        report, metrics = measure(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    after = drift_probe()

    attempted, failed = report["items"], report["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "digest": report["digest"],
        "hash_seed": HASH_SEED,
        "machine": machine(),
        "drift_probe": {"before": before, "after": after, "after_over_before": after["wall_s"] / before["wall_s"]},
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": report["failures"],
        "samples": {
            k: report[k]
            for k in ("items", "setup_samples_s", "wall_s", "slowdown", "calibration_samples", "raw", "spans_file")
            if k in report
        },
        "metrics": metrics,
    }
    os.makedirs(RESULTS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
