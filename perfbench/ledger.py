#!/usr/bin/env python3
"""Prints the per-layer ledger of traced runs.

  python3 perfbench/ledger.py [SPANS.json ... | DIR]    (default .bench_build/traces)
  python3 perfbench/ledger.py --diff BEFORE.json AFTER.json

Reads the span files sn_bench --trace 1 writes (one per workload) and prints,
for each: the layers' calls, inclusive and self nanoseconds per delivered
packet and self share of the traced wall time, the unattributed share and
the tracing overhead (the closure check: self shares plus the unattributed
share make 100%), then every per-layer metric with the end-to-end metrics
it should move (perfbench/layers.json). --diff prints the per-layer change
in self ns/pkt between two ledgers of one workload, to show where a saving
landed.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_DIR = os.path.join(os.path.dirname(HERE), ".bench_build", "traces")


def load(path):
    with open(path) as f:
        return json.load(f)


def mapping():
    with open(os.path.join(HERE, "layers.json")) as f:
        return {m["name"]: m for m in json.load(f)["metrics"]}


def per_pkt(led, ns):
    return ns / led["packets"] if led["packets"] else 0.0


def print_ledger(led, roles):
    wall = led["wall_ns"]
    print("== %s (seed %s): %.3f s traced, %d packets, %.0f pkt/s traced vs %.0f untraced" %
          (led["workload"], led["seed"], wall / 1e9, led["packets"], led["traced_pps"],
           led["untraced_pps"]))
    print("  %-20s %10s %14s %14s %8s" % ("layer", "calls", "ns/pkt", "self ns/pkt", "self %"))
    self_share = 0.0
    for name, ly in led["layers"].items():
        if ly["calls"] == 0:
            continue
        if name.startswith("ilp."):
            # Timed on a separate probe after the phase: ns per probe packet.
            ns = led["metrics"][name + ".ns_per_pkt"]["value"]
            print("  %-20s %10d %14.1f %14.1f %8s" % (name, ly["calls"], ns, ns, "probe"))
            continue
        share = 100.0 * ly["self_ns"] / wall
        self_share += share
        print("  %-20s %10d %14.1f %14.1f %8.1f" % (
            name, ly["calls"], per_pkt(led, ly["total_ns"]), per_pkt(led, ly["self_ns"]), share))
    unattributed = 100.0 * (1.0 - led["covered_ns"] / wall)
    print("  %-20s %10s %14s %14.1f %8.1f" % ("unattributed", "", "",
                                              per_pkt(led, wall - led["covered_ns"]), unattributed))
    print("  closure: self shares %.1f%% + unattributed %.1f%% = %.1f%%; tracing overhead %.1f%%" %
          (self_share, unattributed, self_share + unattributed,
           100.0 * led["metrics"]["bench.tracing_overhead"]["value"]))
    print("  %-32s %14s %-6s  %s" % ("metric", "value", "unit", "should move (mostly on)"))
    for name, m in led["metrics"].items():
        role = roles.get(name, {})
        tag = "idle here" if led["workload"] in role.get("idle", []) else \
            ", ".join(role.get("moves", [])) or "closure check"
        print("  %-32s %14.6g %-6s  %s (%s)" % (name, m["value"], m["unit"], tag,
                                                 ", ".join(role.get("on", []))))
    print()


def diff(a, b):
    if a["workload"] != b["workload"]:
        print("ledgers are of different workloads", file=sys.stderr)
        return 2
    print("== %s: self ns/pkt, before -> after" % a["workload"])
    for name in a["layers"]:
        x, y = a["layers"][name], b["layers"].get(name, {"self_ns": 0, "calls": 0})
        if x["calls"] == 0 and y["calls"] == 0:
            continue
        if name.startswith("ilp."):  # probe layers: ns per probe packet
            key = name + ".ns_per_pkt"
            before, after = a["metrics"][key]["value"], b["metrics"][key]["value"]
        else:
            before, after = per_pkt(a, x["self_ns"]), per_pkt(b, y["self_ns"])
        print("  %-20s %12.1f -> %12.1f  %+10.1f" % (name, before, after, after - before))
    ua = per_pkt(a, a["wall_ns"] - a["covered_ns"])
    ub = per_pkt(b, b["wall_ns"] - b["covered_ns"])
    print("  %-20s %12.1f -> %12.1f  %+10.1f" % ("unattributed", ua, ub, ub - ua))
    ta, tb = per_pkt(a, a["wall_ns"]), per_pkt(b, b["wall_ns"])
    print("  %-20s %12.1f -> %12.1f  %+10.1f" % ("wall", ta, tb, tb - ta))
    return 0


def main(argv):
    if len(argv) == 4 and argv[1] == "--diff":
        return diff(load(argv[2]), load(argv[3]))
    paths = argv[1:] or [DEFAULT_DIR]
    files = []
    for p in paths:
        if os.path.isdir(p):
            files += sorted(os.path.join(p, f) for f in os.listdir(p) if f.endswith(".json"))
        else:
            files.append(p)
    if not files:
        print("no span files found in %s" % ", ".join(paths), file=sys.stderr)
        return 1
    roles = mapping()
    for f in files:
        print_ledger(load(f), roles)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
