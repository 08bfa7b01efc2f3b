#!/usr/bin/env python3
"""Builds and runs the axdse DSE benchmark (workloads: see dse_bench.cpp).

Run from the repository root:

  python3 dsebench/run.py --workload explore-miss --seed 1 --seconds 20
  python3 dsebench/run.py --workload all                   # every workload once
  python3 dsebench/run.py --workload all --repeat 5        # medians + quartiles
  python3 dsebench/run.py --workload all --trace 1         # per-layer run

The program is built from source with CMake into $CARGO_TARGET_DIR (default
.bench_build). A single run passes the benchmark's own result through: its
last stdout line is one JSON object with correct, attempted, failed and
metrics. Several runs (all workloads and/or --repeat) end with one JSON line
whose metrics are the medians, keyed "<workload>/<metric>". The exit code is
non-zero when the build fails, a run fails, or a correctness check fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["explore-miss", "explore-revisit", "campaign-grid",
             "serve-closed-loop"]


def build(build_dir):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    steps = []
    if not any(os.path.isfile(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for command in steps:
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            return False
    return True


def run_once(binary, build_dir, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines, result or None)."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--state-dir", os.path.join(build_dir, "state"),
               "--digests", os.path.join(HERE, "expected_digests.txt")]
    if trace:
        command += ["--trace-out",
                    os.path.join(build_dir, f"spans-{workload}.tsv")]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, lines, result


def role_checks(medians):
    """Each workload's stated role, confirmed from the traced medians."""
    def get(workload, metric):
        return medians.get(f"{workload}/{metric}", 0.0)

    checks = []
    miss = get("explore-miss", "workloads.share")
    revisit = get("explore-revisit", "workloads.share")
    checks.append(("workloads.share: explore-miss >= 2x explore-revisit",
                   miss >= 2 * revisit, f"{miss:.3f} vs {revisit:.3f}"))
    hit = get("explore-revisit", "dse.evaluator.memo_hit_ratio")
    checks.append(("memo_hit_ratio >= 0.9 on explore-revisit", hit >= 0.9,
                   f"{hit:.3f}"))
    shares = {w: get(w, "dse.checkpoint.share") for w in WORKLOADS}
    checks.append(("dse.checkpoint.share non-trivial only on campaign-grid",
                   shares["campaign-grid"] >= 0.05 and all(
                       v < 0.01 for w, v in shares.items()
                       if w != "campaign-grid"),
                   " ".join(f"{w}={v:.3f}" for w, v in shares.items())))
    serve_elsewhere = [k for k, v in medians.items()
                       if "/serve." in k and v != 0.0
                       and not k.startswith("serve-closed-loop/")]
    serve_here = all(v != 0.0 for k, v in medians.items()
                     if k.startswith("serve-closed-loop/serve."))
    checks.append(("serve.* non-zero only on serve-closed-loop",
                   serve_here and not serve_elsewhere,
                   ", ".join(serve_elsewhere) or "ok"))
    return checks


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on seeds seed..seed+N-1")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if not build(build_dir):
        print("dsebench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "dse_bench")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    if len(workloads) == 1 and args.repeat == 1:
        code, lines, _ = run_once(binary, build_dir, workloads[0], args.seed,
                                  args.seconds, args.trace)
        print("\n".join(lines))
        return code

    values, units = {}, {}
    correct, attempted, failed = True, 0, 0
    for workload in workloads:
        for r in range(args.repeat):
            code, lines, result = run_once(binary, build_dir, workload,
                                           args.seed + r, args.seconds,
                                           args.trace)
            print("\n".join(lines[:-1] if result else lines))
            if code != 0 or result is None or not result["correct"]:
                correct = False
            if result is None:
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                key = f"{workload}/{name}"
                values.setdefault(key, []).append(metric["value"])
                units[key] = metric["unit"]

    print(f"summary over {args.repeat} run(s) per workload "
          "(median [q1, q3], spread = (q3 - q1) / median):")
    medians = {}
    for key, vals in values.items():
        medians[key] = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / medians[key] if medians[key] else 0.0
        print(f"  {key:56s} {medians[key]:14.6g} [{q1:.6g}, {q3:.6g}] "
              f"spread {spread:.3f} {units[key]}")

    if args.trace and args.workload == "all":
        for name, ok, detail in role_checks(medians):
            print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
            correct = correct and ok

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": medians[k], "unit": units[k]}
                    for k in values}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
