#!/usr/bin/env python3
"""Build sebmc and run its end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steady --workload W [--seeds 1,2,3] [--seconds S]

The first form builds the `sebmc-cli` binary from the repository's own
manifest and the benchmark package next to this file (both in release
mode, into $CARGO_TARGET_DIR or perfbench/target), then runs one
workload. Its standard output ends with one JSON result line; the exit
code is the benchmark's (non-zero on a wrong verdict or a failed build).

The second form is the steadiness mode: it runs one workload once per
seed, prints each end-to-end metric's median and quartiles and its
spread (interquartile range over median, against the metric's bound
in BENCHMARK.json), then reruns the first seed once untraced and twice
with --trace 1 and checks that the byte metrics and the deterministic
counts (conflicts, QBF decisions, proof bytes, latches removed)
repeat exactly.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Counts that must repeat exactly between two runs on the same seed.
EXACT = [
    "sat.conflicts",
    "qbf.decisions",
    "proof.bytes_checked",
    "analysis.latches_removed",
    "core.unroll.peak_db_bytes",
    "core.jsat.peak_db_bytes",
]
EXACT_E2E = ["peak_db_bytes", "db_bytes_gmean"]


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR")
    if t:
        return t if os.path.isabs(t) else os.path.join(os.getcwd(), t)
    return os.path.join(HERE, "target")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--quiet", "--manifest-path",
         os.path.join(ROOT, "Cargo.toml"), "--bin", "sebmc-cli"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    rel = os.path.join(target_dir(), "release")
    return os.path.join(rel, "perfbench"), os.path.join(rel, "sebmc-cli")


def run_once(bench, cli, workload, seed, seconds, trace, capture):
    args = [bench, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--cli", cli]
    if int(trace):
        args += ["--trace-out", os.path.join(
            target_dir(), "perfbench-traces", f"{workload}-{seed}.jsonl")]
    p = subprocess.run(args, stdout=subprocess.PIPE if capture else None, text=True)
    if not capture:
        return p.returncode, None
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines else None)


def flag(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def steady(bench, cli, argv):
    workload = flag(argv, "--workload", "engine-deep")
    seconds = flag(argv, "--seconds", "24")
    seeds = [int(s) for s in flag(argv, "--seeds", "1,2,3,4,5").split(",")]
    bounds = {}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        for m in json.load(f)["end_to_end"]:
            bounds[m["name"]] = m["bound"]
    values, results, ok = {}, {}, True
    for seed in seeds:
        code, res = run_once(bench, cli, workload, seed, seconds, 0, True)
        if code != 0 or res is None or not res["correct"]:
            print(f"seed {seed}: run failed (exit {code})")
            ok = False
            continue
        results[seed] = res
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"\n{workload}: {len(results)} seeds")
    for k, vs in values.items():
        if len(vs) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / q2 if q2 else 0.0
        b = bounds.get(k)
        mark = "" if b is None or spread < b / 3 else "  <-- at least a third of the bound"
        print(f"  {k:<24} median {q2:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g}"
              f" spread {spread:.4f} (bound {b}){mark}")
    # Exact repeat: the first seed once more untraced, and twice traced,
    # must reproduce every deterministic count and byte figure.
    first = seeds[0]
    again = run_once(bench, cli, workload, first, seconds, 0, True)[1]
    traced = [run_once(bench, cli, workload, first, seconds, 1, True)[1] for _ in range(2)]
    pairs = [(n, results.get(first), again) for n in EXACT_E2E]
    pairs += [(n, traced[0], traced[1]) for n in EXACT]
    for name, ra, rb in pairs:
        if not (ra and rb and ra["correct"] and rb["correct"]):
            print(f"  exact-repeat {name:<26} run failed")
            ok = False
            continue
        a, b = ra["metrics"][name]["value"], rb["metrics"][name]["value"]
        ok &= a == b
        print(f"  exact-repeat {name:<26} {a} / {b} {'ok' if a == b else 'DIFFERS'}")
    return 0 if ok else 1


def main(argv):
    bench, cli = build()
    if "--steady" in argv:
        return steady(bench, cli, [a for a in argv if a != "--steady"])
    code, _ = run_once(bench, cli, flag(argv, "--workload", ""),
                       flag(argv, "--seed", "1"), flag(argv, "--seconds", "24"),
                       flag(argv, "--trace", "0"), False)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
