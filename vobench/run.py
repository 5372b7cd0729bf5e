#!/usr/bin/env python3
"""End-to-end VO iteration benchmark: build, run one workload, report.

Run from the repository root:

    python3 vobench/run.py --workload amp-steady --seed 2011 --seconds 40 --trace 0

The first run configures and builds vobench/ (the library from src/ plus
the vo_bench driver) under $CARGO_TARGET_DIR/vobench, or
.bench_build/vobench when that variable is unset. The driver's correctness
checks run on every iteration; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics. The exit code is 0
only when the run is correct.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "vobench"


def build(out_dir):
    """Configures (once) and builds the driver; returns its path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(out_dir), "--target", "vo_bench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                sys.exit(f"vobench: build step failed: {err}")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\n")
                sys.exit(f"vobench: build failed, see {log_path}")
    return out_dir / "vo_bench"


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for the mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return [(m["name"], m["unit"]) for m in section]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="one short episode per pass (tests)")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        spans = out_dir / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        cmd.append(f"--spans={spans}")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.exit(f"vobench: driver did not finish: {err}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"vobench: driver exited with {done.returncode}")
    report = json.loads(lines[-1])
    metrics = report.pop("metrics")

    problems = []
    if not report["correct"]:
        problems.append("driver checks failed")
    declared = declared_metrics(args.trace)
    printed = [(name, m["unit"]) for name, m in metrics.items()]
    if sorted(printed) != sorted(declared):
        problems.append("metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(declared) - set(printed))}, "
                        f"extra {sorted(set(printed) - set(declared))}")

    print("report " + json.dumps(report, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    for problem in problems:
        print(f"vobench: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
