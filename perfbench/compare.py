#!/usr/bin/env python3
"""Compares sets of benchmark runs against the bounds in BENCHMARK.json.

  python3 perfbench/compare.py RUNS.jsonl             # one set: spreads
  python3 perfbench/compare.py BASE.jsonl NEW.jsonl   # two sets: verdicts

Each file holds one JSON object per line, as run.py --repeat writes them:
{"workload", "seed", "trace", "result"}. For every workload and metric the
runs report, prints each set's median and quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median.

One set: an end-to-end metric is "steady" when its spread is at most a
third of its bound, "ok" when at most the bound, else "NOISY" (exit 1).
setup_s is exempt from the spread rule.

Two sets: for each end-to-end metric, "WORSE" when NEW's median is worse
than BASE's by more than the bound (exit 1); "unresolved" when BASE's own
spread is wider than the bound; "better" when NEW's median is better by
more than BASE's spread; otherwise "no change". Per-layer metrics are
listed without a verdict.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec.get("trace", 0))
            runs.setdefault(key, []).append(rec["result"]["metrics"])
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def worse_by(base, new, better):
    """Relative change of NEW against BASE, positive when NEW is worse."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    rel = (new - base) / abs(base)
    return -rel if better == "higher" else rel


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    sets = [load_runs(p) for p in argv[1:]]
    bad = False
    for key in sorted(sets[0]):
        workload, trace = key
        print("== %s (trace %d): %s" % (workload, trace,
                                        " vs ".join(str(len(s.get(key, []))) + " runs"
                                                    for s in sets)))
        metrics = e2e if trace == 0 else layer
        for name, m in metrics.items():
            cols = []
            stats = []
            for s in sets:
                vals = [r[name]["value"] for r in s.get(key, []) if name in r]
                if not vals:
                    stats.append(None)
                    cols.append("%40s" % "-")
                    continue
                med, q1, q3, spread = summary(vals)
                stats.append((med, spread))
                cols.append("med %12.6g q1 %12.6g q3 %12.6g spread %6.1f%%" %
                            (med, q1, q3, 100 * spread))
            verdict = ""
            bound = m.get("bound")
            if bound is not None and stats[0] is not None:
                if len(sets) == 1:
                    spread = stats[0][1]
                    if name == "setup_s":
                        verdict = "(set-up: spread exempt)"
                    elif spread <= bound / 3:
                        verdict = "steady (bound %.0f%%)" % (100 * bound)
                    elif spread <= bound:
                        verdict = "ok (bound %.0f%%, above a third)" % (100 * bound)
                    else:
                        verdict = "NOISY (bound %.0f%%)" % (100 * bound)
                        bad = True
                elif stats[1] is not None:
                    (base, base_spread), (new, _) = stats
                    w = worse_by(base, new, m["better"])
                    if w > bound:
                        verdict = "WORSE by %.1f%% (bound %.0f%%)" % (100 * w, 100 * bound)
                        bad = True
                    elif base_spread > bound:
                        verdict = "unresolved (spread above bound)"
                    elif -w > base_spread:
                        verdict = "better by %.1f%%" % (-100 * w)
                    else:
                        verdict = "no change (%+.1f%%)" % (-100 * w)
            print("  %-32s %s  %s" % (name, "  |  ".join(cols), verdict))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
