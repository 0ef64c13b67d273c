#!/usr/bin/env python3
"""Build and run the PhiOpenSSL benchmark.

One workload (the form the benchmark contract uses):

    python3 perfbench/run.py --workload offload-light --seed 1 --seconds 20 --trace 0

prints the run's lines, the last of them one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload, untraced and traced:

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

prints each end-to-end metric of each workload from the untraced run
beside the traced run's value (their difference is the tracing
overhead), then the traced run's per-layer metrics.

Run from the repository root. The program is built from source with
``cargo build --release --offline`` into ``$CARGO_TARGET_DIR`` (default
``perfbench/target``); build output goes to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["offload-saturated", "offload-light", "tls-handshake"]


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(BENCH_DIR, "target")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def pin_to_one_cpu():
    """Pin this process, and so every child, to one CPU.

    The benchmark scales its wall-clock figures by a reference kernel
    timed on the thread that collects completions. On a shared host the
    CPUs slow down independently, so the reference only tracks the
    service's worker thread when both run on the same CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env():
    # The benchmark selects backends only through PhiConfig; a
    # PHI_BACKEND override would change the process default under it.
    env = dict(os.environ)
    env.pop("PHI_BACKEND", None)
    return env


def run_one(binary, workload, seed, seconds, trace, capture):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if not capture:
        return subprocess.run(cmd, env=child_env()).returncode, None
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def parse(stdout):
    """(end-to-end metrics from the '# e2e' line, final result object)."""
    lines = stdout.strip().splitlines()
    e2e = next(json.loads(l[len("# e2e "):]) for l in lines if l.startswith("# e2e "))
    return e2e, json.loads(lines[-1])


def run_all(binary, seed, seconds):
    failed = False
    layers = {}
    print(f"{'workload':<18} {'metric':<30} {'unit':<7} {'untraced':>14} "
          f"{'traced':>14} {'overhead':>9}")
    for workload in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            code, out = run_one(binary, workload, seed, seconds, trace, capture=True)
            notes = [l for l in out.splitlines() if l.startswith("# ")]
            sys.stderr.write("\n".join(notes) + "\n")
            if code != 0:
                print(f"{workload}: run with --trace {trace} exited {code}")
                failed = True
                break
            runs[trace] = parse(out)
        if len(runs) < 2:
            continue
        (plain, result0), (traced, result1) = runs[0], runs[1]
        for name, m in plain.items():
            a, b = m["value"], traced[name]["value"]
            over = f"{100 * (b - a) / a:+.1f}%" if a else "n/a"
            print(f"{workload:<18} {name:<30} {m['unit']:<7} {a:>14.6g} {b:>14.6g} {over:>9}")
        for result, trace in ((result0, 0), (result1, 1)):
            print(f"{workload:<18} {'failed/attempted':<30} {'trace ' + str(trace):<7} "
                  f"{result['failed']:>14} {result['attempted']:>14}")
        layers[workload] = result1["metrics"]
    print()
    for workload, metrics in layers.items():
        for name, m in metrics.items():
            print(f"{workload:<18} {name:<36} {m['unit']:<7} {m['value']:>16.6g}")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    print(f"# pinned to cpu {pin_to_one_cpu()}", flush=True)
    if args.workload == "all":
        return run_all(binary, args.seed, args.seconds)
    code, _ = run_one(binary, args.workload, args.seed, args.seconds, args.trace, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
