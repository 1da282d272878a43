#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <apsp-dense|wire-null|fleet-mixed> \\
        --seed <n> --seconds <s> --trace <0|1> [--size tiny|full]
    python3 perfbench/run.py --selfcheck

Run from the repository root. The package is built with Cargo into
$CARGO_TARGET_DIR (default .bench_build). `--trace 0` runs the untraced
binary (end-to-end metrics), `--trace 1` the traced one (per-layer metrics,
trace written as JSON lines under <target>/perfbench-trace/). The last line
of standard output is the result object. `--selfcheck` runs every workload
at tiny sizes in both modes and checks that every metric named in
BENCHMARK.json is emitted with its unit and that every gate ran and passed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Gates each workload must report (substrings of the gate names).
GATES = {
    "apsp-dense": ["apsp_exact == floyd_warshall"],
    "wire-null": [
        "unicast-bare: threads 1 ==",
        "unicast-adversarial: threads 1 ==",
        "broadcast-bare: threads 1 ==",
        "dense == sparse",
    ],
    "fleet-mixed": ["serial outputs == host oracle", "== run_serial"],
}
TRACED_GATES = {
    "apsp-dense": ["mm_three_d == host product"],
    "wire-null": ["trace sends == RunStats.messages"],
    "fleet-mixed": ["trace gossip sends == RunStats.messages"],
}


def build():
    """Build both binaries; return the directory holding them."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Build output goes to stderr so standard output carries only results.
    subprocess.run(cmd, env=env, stdout=sys.stderr, check=True)
    return target


def binary(target, traced):
    name = "perfbench-traced" if traced else "perfbench"
    return os.path.join(target, "release", name)


def flag(args, name, default=None):
    return args[args.index(name) + 1] if name in args[:-1] else default


def run(args):
    target = build()
    traced = flag(args, "--trace", "0") == "1"
    if traced and "--trace-out" not in args:
        out = "%s-seed%s.jsonl" % (flag(args, "--workload", "x"), flag(args, "--seed", "x"))
        args = args + ["--trace-out", os.path.join(target, "perfbench-trace", out)]
    exe = binary(target, traced)
    # Replace this process: the benchmark is the only process left running.
    os.execv(exe, [exe] + args)


def selfcheck():
    target = build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for traced, table in ((False, "end_to_end"), (True, "per_layer")):
            exe = binary(target, traced)
            cmd = [exe, "--workload", w, "--seed", "1", "--seconds", "0.2",
                   "--trace", "1" if traced else "0", "--size", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            tag = "%s trace=%d" % (w, traced)
            if proc.returncode != 0:
                problems.append("%s: exit %d: %s" % (tag, proc.returncode, proc.stderr[-500:]))
                continue
            lines = proc.stdout.strip().splitlines()
            result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (tag, sorted(result)))
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: not correct: %s" % (tag, lines[-1][:200]))
            want = {m["name"]: m["unit"] for m in spec[table]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if want != got:
                problems.append("%s: metrics/units differ: want %s got %s" % (tag, want, got))
            names = [g["gate"] for g in report["gates"]]
            for g in GATES[w] + (TRACED_GATES[w] if traced else []):
                if not any(g in n for n in names):
                    problems.append("%s: gate '%s' did not run (ran %s)" % (tag, g, names))
            if not all(g["ok"] for g in report["gates"]):
                problems.append("%s: a gate failed: %s" % (tag, report["gates"]))
            print("%-26s %2d metrics, gates: %s" % (tag, len(got), "; ".join(names)))
    for p in problems:
        print("SELFCHECK FAILED: " + p)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    args = sys.argv[1:]
    try:
        if args == ["--selfcheck"]:
            sys.exit(selfcheck())
        run(args)
    except (subprocess.CalledProcessError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
