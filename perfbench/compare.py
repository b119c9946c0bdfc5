"""Compare two sets of saved benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE.txt [BASE2.txt ...] -- NEW.txt [NEW2.txt ...]

Each file holds the stdout of one or more runs of run.py. Prints, per
workload and metric, each side's median and quartiles over its runs and
the change of the median. Refuses (exit 1) when the runs do not all share
one kernel backend.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(paths):
    """(env, result) for every run in the files."""
    runs = []
    for path in paths:
        env = None
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("env "):
                    env = json.loads(line[4:])
                elif line.startswith("{"):
                    if env is None:
                        sys.exit(f"error: {path}: result without an env line")
                    runs.append((env, json.loads(line)))
                    env = None
    return runs


def summary(runs):
    values = defaultdict(list)
    for env, result in runs:
        for name, metric in result["metrics"].items():
            values[(env["workload"], name, metric["unit"])].append(metric["value"])
    return values


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def main(argv) -> int:
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    base, new = load(argv[:cut]), load(argv[cut + 1:])
    if not base or not new:
        sys.exit("error: each side needs at least one run")
    backends = {env["backend"] for env, _ in base + new}
    if len(backends) != 1:
        sys.exit(f"error: runs use different kernel backends {sorted(backends)}; not comparable")
    a, b = summary(base), summary(new)
    for key in sorted(set(a) & set(b)):
        workload, name, unit = key
        qa, qb = quartiles(a[key]), quartiles(b[key])
        change = (qb[1] / qa[1] - 1.0) if qa[1] else float("nan")
        print(f"{workload:10s} {name:32s} {unit:6s} base {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] "
              f"n={len(a[key])}  new {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] n={len(b[key])}  "
              f"change {change:+.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
