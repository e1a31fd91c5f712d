#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the library from src/ plus the benchmark binary)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later calls rebuild only what changed. Whenever the binary is
rebuilt, its self-tests run before the workload. The workload's stdout is
passed through unchanged, so its last line is the result object; build
output and diagnostics go to stderr.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("udp-fanout32", "loopback-hybrid-switch", "sim-hybrid-lossy")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds; returns the binary and whether it changed."""
    binary = os.path.join(build_dir, "perfbench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], stdout=sys.stderr, check=True)
    after = os.path.getmtime(binary)
    return binary, after != before


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload is required")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    try:
        binary, rebuilt = build(os.path.join(build_root, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    if rebuilt or args.selftest:
        if subprocess.run([binary, "--selftest"], stdout=sys.stderr).returncode != 0:
            fail("self-test failed")
        if args.selftest:
            return 0

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}.json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(r.stdout.decode())
    sys.stdout.flush()
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
