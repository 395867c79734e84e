#!/usr/bin/env python3
"""End-to-end threshold-query benchmark: build, run, report.

Run from the repository root:

  python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One measured run. Builds e2e_bench from ../src (Release, into
      $CARGO_TARGET_DIR or .bench_build), runs it, and relays its output;
      the last line of stdout is the JSON result. Exits non-zero when the
      correctness gate fails.

  python3 e2e_bench/run.py --report K [--workload NAME] [--seconds S]
      Cross-process steadiness: launches each workload K times in fresh
      processes (seeds 1..K) and prints, per end-to-end metric, the median,
      quartiles, (q3-q1)/median against the metric's bound, and
      (max-min)/median. In-process spread is not evidence of steadiness.

  python3 e2e_bench/run.py --selftest
      Builds and runs the tests of the benchmark's own arithmetic.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
SPEC_PATH = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"e2e_bench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "e2e_bench"))


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build(target):
    """Configures once and builds `target`; build chatter goes to stderr."""
    if not os.path.isfile(os.path.join(SRC_DIR, "CMakeLists.txt")):
        fail(f"library sources not found at {SRC_DIR}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs()],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, target)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def run_once(binary, workload, seed, seconds, trace, quiet=False):
    """Runs one measurement; returns (exit code, parsed result or None)."""
    work = os.path.join(build_dir(), "run")
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", traces]
    try:
        proc = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2e_bench: {workload} timed out", file=sys.stderr)
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    if not quiet:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        return proc.returncode or 1, None
    return proc.returncode, (result, lines[-1])


def check_names(result, spec, trace):
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    got = list(result["metrics"].keys())
    if sorted(want) != sorted(got):
        fail(f"metric set mismatch: missing {set(want) - set(got)}, "
             f"extra {set(got) - set(want)}", 1)


def cmd_run(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    binary = build("e2e_bench")
    code, parsed = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    if parsed is None:
        fail("no result line", code or 1)
    result, line = parsed
    check_names(result, spec, args.trace)
    print(line)
    sys.exit(code)


def spread_row(name, values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    iqr = (q3 - q1) / med if med else float("inf")
    rng = (max(values) - min(values)) / med if med else float("inf")
    flag = "" if bound is None else ("ok" if iqr < bound / 3 else
                                     "WIDE" if iqr > bound else "near")
    bound_s = "-" if bound is None else f"{bound:.2f}"
    return (f"  {name:<14} median {med:14.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
            f"  iqr/med {iqr:7.4f} (bound {bound_s}) {flag:<4}"
            f"  range/med {rng:7.4f}")


def cmd_report(args):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    binary = build("e2e_bench")
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    bad = False
    for w in names:
        values = {}
        for k in range(args.report):
            code, parsed = run_once(binary, w, k + 1, args.seconds, 0, quiet=True)
            if code != 0 or parsed is None:
                print(f"{w}: run {k + 1} failed (exit {code})")
                bad = True
                continue
            for name, m in parsed[0]["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w}: {args.report} fresh processes, seeds 1..{args.report}")
        for name, vals in values.items():
            if len(vals) >= 2:
                print(spread_row(name, vals, bounds.get(name)))
    sys.exit(1 if bad else 0)


def cmd_selftest():
    binary = build("e2e_bench_selftest")
    sys.exit(subprocess.run([binary]).returncode)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", type=int, metavar="K")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC_DIR, "CMakeLists.txt")):
        fail(f"library sources not found at {SRC_DIR}")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.selftest:
        cmd_selftest()
    elif args.report:
        if args.report < 2:
            fail("--report needs K >= 2")
        cmd_report(args)
    elif args.workload:
        cmd_run(args)
    else:
        fail("--workload, --report or --selftest is required")


if __name__ == "__main__":
    main()
