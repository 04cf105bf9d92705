#!/usr/bin/env python3
"""Entry point of the SN benchmark.

Builds the benchmark driver (perfbench/CMakeLists.txt, which compiles the
repository's src/ libraries from source) into .bench_build/ and runs one
workload in a fresh process:

  python3 perfbench/run.py --workload relay_udp --seed 1 --seconds 10 --trace 0

The last line of standard output is the result object
({"correct", "attempted", "failed", "metrics"}). --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ledger (spans are written to
.bench_build/traces/<workload>.json; see perfbench/ledger.py).

Other modes:
  --self-test          every workload briefly, both trace modes: every metric
                       of BENCHMARK.json prints with its unit, and the
                       correctness gate fails when a delivered byte is flipped
  --repeat N --out F   N runs of --workload with seeds --seed .. --seed+N-1,
                       one JSON line per run appended to F (see compare.py)
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "sn_bench")
TRACES = os.path.join(BUILD, "traces")
WORKLOADS = ["relay_udp", "flow_churn", "pubsub_fanout", "relay_sharded"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; False when it fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: program sources (src/) not found next to perfbench/")
        return False
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "sn_bench", "-j", jobs])
    with open(build_log, "a") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(build_log) as f:
                    log("".join(f.readlines()[-30:]))
                log("run.py: build failed: " + " ".join(cmd))
                return False
    return True


def run_binary(workload, seed, seconds, trace, extra=(), echo=True):
    """Runs sn_bench once; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--spans", os.path.join(TRACES, workload + ".json")]
    cmd += list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run.py: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return 1, []
    lines = out.splitlines()
    if echo:
        for line in lines:
            print(line, flush=True)
    return proc.returncode, lines


def result_of(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_test():
    spec = load_spec()
    failures = []
    for w in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            rc, lines = run_binary(w, 1, 1, trace, echo=False)
            res = result_of(lines)
            if rc != 0 or res is None or res.get("correct") is not True:
                failures.append("%s trace=%d: exit %d, no correct result" % (w, trace, rc))
                continue
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] or \
                        not isinstance(got.get("value"), (int, float)):
                    failures.append("%s trace=%d: metric %s missing or wrong unit" %
                                    (w, trace, m["name"]))
            log("self-test: %s trace=%d ok (%d metrics)" % (w, trace, len(res["metrics"])))
        rc, lines = run_binary(w, 1, 1, False, extra=["--flip-byte"], echo=False)
        if rc == 0 or result_of(lines) is not None or \
                not any("correctness gate: FAIL" in l for l in lines):
            failures.append("%s: flipped payload byte was not caught" % w)
        else:
            log("self-test: %s flipped byte caught" % w)
    for f in failures:
        log("self-test FAIL: " + f)
    return 1 if failures else 0


def repeat(args):
    for k in range(args.repeat):
        seed = args.seed + k
        rc, lines = run_binary(args.workload, seed, args.seconds, args.trace, echo=False)
        res = result_of(lines)
        if rc != 0 or res is None:
            log("run.py: %s seed %d failed (exit %d)" % (args.workload, seed, rc))
            return 1
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed,
                                "trace": int(args.trace), "result": res}) + "\n")
        log("%s seed %d: %s" % (args.workload, seed, " ".join(
            "%s=%.5g" % (k2, v["value"]) for k2, v in res["metrics"].items())))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    if not build():
        return 1
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if args.repeat > 0:
        if not args.out:
            ap.error("--repeat needs --out")
        return repeat(args)
    rc, lines = run_binary(args.workload, args.seed, args.seconds, args.trace)
    if rc != 0:
        log("run.py: %s exited with %d" % (args.workload, rc))
        return rc or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
