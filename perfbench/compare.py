"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py BASE_DIR_OR_FILES... -- NEW_DIR_OR_FILES...

Records are the JSON files run.py keeps under .perfbench/results/.  Runs
of one workload and seed must have generated the same inputs: when their
digests differ the comparison is refused (exit 2).  For each workload and
metric it prints both medians, their quartile spreads and the change of
the median relative to the base, with the number of runs on each side.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict


def load(paths) -> list[dict]:
    files = []
    for p in paths:
        files += sorted(glob.glob(os.path.join(p, "*.json"))) if os.path.isdir(p) else [p]
    out = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, new = load(argv[:cut]), load(argv[cut + 1 :])
    digests = {}
    for rec in base + new:
        key = (rec["workload"], rec["seed"], rec["tiny"])
        if digests.setdefault(key, rec["digest"]) != rec["digest"]:
            print(f"refusing: {key[0]} seed {key[1]} has inputs {digests[key]} and {rec['digest']}", file=sys.stderr)
            return 2
    values = defaultdict(lambda: ([], []))
    for side, records in enumerate((base, new)):
        for rec in records:
            for name, m in rec["metrics"].items():
                values[(rec["workload"], rec["trace"], name, m["unit"])][side].append(m["value"])
    print(f"{'workload':9} {'metric':28} {'base median':>14} {'spread':>7} {'new median':>14} {'spread':>7} {'change':>8}  runs")
    for (workload, _, name, unit), (a, b) in sorted(values.items()):
        if not a or not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        change = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
        print(
            f"{workload:9} {name + ' (' + unit + ')':28} {ma:14.6g} {spread(a):7.1%} "
            f"{mb:14.6g} {spread(b):7.1%} {change:>8}  {len(a)}/{len(b)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
