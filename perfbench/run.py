#!/usr/bin/env python3
"""Build and run the LYCOS repository benchmark.

    python3 perfbench/run.py --workload design_sweep --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The program is built from source into
$CARGO_TARGET_DIR (default .bench_build) on first use; later runs only
re-check the build.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  Exits non-zero, printing no
result, when the build or the run fails.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """sha256 over the library sources: identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # Only this checkout's own history counts, not an enclosing repo's.
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1][:12]
    except (OSError, subprocess.SubprocessError):
        pass
    return "src-" + source_digest()


def build(build_dir):
    if not os.path.exists(os.path.join(ROOT, "src", "solver", "solver.hpp")):
        sys.stderr.write("perfbench: no LYCOS sources in this checkout\n")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        return 2
    args = sys.argv[1:]
    if args == ["--selftest"]:
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode
    cmd = [os.path.join(build_dir, "perfbench")] + args + [
        "--commit", commit(), "--out-dir", os.path.join(build_dir, "traces")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
