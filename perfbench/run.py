#!/usr/bin/env python3
"""Builds and runs the cogradio benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every run configures and builds the
package in perfbench/ (the cogradio library from ../src plus the driver,
Release) under $CARGO_TARGET_DIR or .bench_build; after the first run
that rebuilds only what changed. Every run then passes the driver's
arithmetic self-test and runs the workload; the driver's last stdout line
is the result. Build output goes to stderr. Exits nonzero, printing no
result, when the build or the self-test fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench", "perfbench_selftest"],
                   check=True, **quiet)
    subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                   check=True, **quiet)


def promised_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is there."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    # Relative, so the daemon's unix socket path stays within its length cap.
    out_dir = os.path.relpath(os.path.join(build_dir, "run"))
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.run([os.path.join(build_dir, "perfbench"), *sys.argv[1:],
                           "--out-dir", out_dir],
                          stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    names = promised_metrics("--trace" in sys.argv and
                             sys.argv[sys.argv.index("--trace") + 1] == "1")
    got = list(json.loads(lines[-1])["metrics"]) if lines else []
    if names is not None and got != names:
        print(f"perfbench: printed metrics {got} differ from BENCHMARK.json {names}",
              file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
