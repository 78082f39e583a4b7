#!/usr/bin/env python3
"""sharc-bench runner: builds the harness from source, runs one workload.

Usage (from the root of a checkout):

    python3 sharcbench/run.py --workload table1|serve|minic|rt_scaling \
        --seed N --seconds S --trace 0|1
    python3 sharcbench/run.py --self-test

The harness (sharcbench/harness) is a CMake project of its own that
compiles the repository's libraries from src/. It is built into
$CARGO_TARGET_DIR if set, else .bench_build/. Build output goes to
stderr; the last line of stdout is the run's JSON result, whose metric
set is checked against BENCHMARK.json (--trace 0: every end_to_end
metric; --trace 1: every per_layer metric). A traced run must emit each
per-layer metric its workload drives (OWNED below) and no other; the
result fills the rest with 0, since every run reports every metric.

--self-test runs every workload at a small size, traced and untraced,
and asserts that every named metric is present and finite and every
correctness check holds.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1", "serve", "minic", "rt_scaling")
# Per-layer metrics each workload's own inputs drive, as names or name
# prefixes (a trailing "." marks a group).
RT_COUNTERS = ("rt.shadow.checks", "rt.lock.", "rt.rc.", "rt.cast.casts",
               "rt.cast.collections", "rt.meta_mb", "rt.cost_share.")
EVERY_RUN = ("host.", "obs.trace_overhead_x")
OWNED = {
    "table1": EVERY_RUN + RT_COUNTERS + ("workloads.",),
    "serve": EVERY_RUN + RT_COUNTERS + ("serve.",),
    "minic": EVERY_RUN + ("minic.", "analysis.", "checker.", "interp."),
    "rt_scaling": EVERY_RUN + ("rt.",),
}
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no SharC sources under %s/src" % ROOT)
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.abspath(out)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "sharc-bench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "sharc-bench")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(binary, workload, seed, seconds, trace, small=False):
    """Runs the harness; returns (result dict, stamp line)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if small:
        cmd.append("--small")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("harness exited %d" % proc.returncode)
    stamp = lines[-2] if len(lines) > 1 else ""
    return json.loads(lines[-1]), stamp


def owned(workload, name):
    """True if name is a per-layer metric that workload drives."""
    return any(name == p or name.startswith(p + "_")
               or (p.endswith(".") and name.startswith(p))
               for p in OWNED[workload])


def complete(result, workload, trace):
    """Checks the metric set against BENCHMARK.json: a workload emits
    every metric it drives and no other. Fills the per-layer metrics of
    other workloads with 0. Returns problems."""
    s = spec()
    wanted = s["per_layer"] if trace else s["end_to_end"]
    names = {m["name"] for m in wanted}
    metrics = result["metrics"]
    problems = ["unexpected metric %s" % n for n in metrics if n not in names]
    for m in wanted:
        mine = not trace or owned(workload, m["name"])
        got = metrics.get(m["name"])
        if got is not None and not mine:
            problems.append("metric %s belongs to another workload"
                            % m["name"])
        if got is None:
            if mine:
                problems.append("missing metric %s" % m["name"])
                continue
            got = metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            problems.append("metric %s has unit %s, BENCHMARK.json says %s"
                            % (m["name"], got["unit"], m["unit"]))
        if not math.isfinite(got["value"]):
            problems.append("metric %s is not finite" % m["name"])
        if not trace and got["value"] == 0:
            problems.append("end-to-end metric %s is 0" % m["name"])
    return problems


def self_test(binary):
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, _ = run_once(binary, workload, 1, 1, trace, small=True)
            # The check must catch a workload that stops emitting one of
            # its own metrics: drop one from a copy and expect a problem.
            dropped = json.loads(json.dumps(result))
            victim = sorted(dropped["metrics"])[0]
            del dropped["metrics"][victim]
            problems = complete(result, workload, trace)
            if not any(victim in p for p in complete(dropped, workload,
                                                     trace)):
                problems.append("dropping %s went unnoticed" % victim)
            if not result["correct"] or result["failed"]:
                problems.append("correct=%s failed=%d"
                                % (result["correct"], result["failed"]))
            status = "FAIL" if problems else "ok"
            log("self-test %s trace=%d: %s (%d attempted) %s"
                % (workload, trace, status, result["attempted"],
                   "; ".join(problems)))
            failures += bool(problems)
    return 1 if failures else 0


def main():
    # SIGTERM becomes SystemExit, so subprocess.run kills the harness
    # before this process goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        binary = build()
        if args.self_test:
            return self_test(binary)
        result, stamp = run_once(binary, args.workload, args.seed,
                                 args.seconds, args.trace)
        problems = complete(result, args.workload, args.trace)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as err:
        log("error: %s" % err)
        return 2
    if problems:
        for p in problems:
            log("error: " + p)
        return 2
    if stamp:
        print(stamp)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
