#!/usr/bin/env python3
"""End-to-end replication benchmark of the manet reproduction.

    python3 perfbench/run.py --workload spoof16 --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. Builds perfbench/ (the manet library from
src/ plus e2e_bench) into $CARGO_TARGET_DIR or .bench_build, runs
e2e_bench, checks the program's outputs and prints one JSON object as the last
line of stdout: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. Build output and a human summary go to stderr. Exits non-zero,
without a result, when the build or e2e_bench fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

BENCH_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build():
    """Configures and builds the package; returns the e2e_bench path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(out), "-j", jobs]):
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return out / "e2e_bench"


def run_bench(exe, args):
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         timeout=BENCH_TIMEOUT_S, text=True)
    if res.returncode != 0:
        raise RuntimeError("e2e_bench exited with %d" % res.returncode)
    return json.loads(res.stdout.strip().splitlines()[-1])


def value(v, unit):
    return int(v) if unit == "count" else v


def summarize(args, raw):
    verdict = metrics.check_run(raw["run"])
    if args.trace:
        named = metrics.traced_metrics(raw, verdict)
        log("work counters (%s, seed base %d): %s" % (
            args.workload, args.seed,
            " ".join("%s=%d" % (k, named[k][0]) for k in metrics.COUNTERS)))
    else:
        named, tails = metrics.timed_metrics(args.workload, raw)
        for name, (v, unit, n) in tails.items():
            log("%s: %s (%d samples)" % (
                name, "%.6g %s" % (v, unit) if v is not None
                else "not reported, fewer than ten samples beyond it", n))
    for name, (v, unit) in named.items():
        log("%-32s %14.6g %s" % (name, v, unit))
    for reason in verdict.reasons[:20]:
        log("check failed: " + reason)
    log("checked %d operations, %d failed (%d with wrong output)" % (
        verdict.attempted, verdict.failed, verdict.hard))
    return {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value(v, unit), "unit": unit}
                    for name, (v, unit) in named.items()},
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    p.add_argument("--seed", type=int, default=1,
                   help="seed base; replication seeds derive from it")
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not 0 <= args.seed < 2**64 or args.seconds < 1:
        p.error("--seed must be in [0, 2^64) and --seconds at least 1")
    try:
        exe = build()
        raw = run_bench(exe, args)
        result = summarize(args, raw)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
