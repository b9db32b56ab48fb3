#!/usr/bin/env python3
"""Pipeline benchmark entry point.

    python3 pipebench/run.py --workload suite_cold|suite_warm|daemon_mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the benchmark (and the repository's
src/ libraries it links) with CMake into $CARGO_TARGET_DIR, default
.bench_build, then runs one workload.  The benchmark binary prints report
lines and, last, one JSON result line; this wrapper passes its output and
exit status through unchanged.  Without the repository's sources next to
this directory the build fails and the wrapper exits 2 without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then rebuilds incrementally; True on success."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        log("no Islaris sources next to " + HERE)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return False
    r = subprocess.run(["cmake", "--build", build_dir, "--target",
                        "pipebench", "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode == 0


def main():
    out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Relative paths keep the daemon's Unix socket path short.
    if os.path.isabs(out_dir):
        out_dir = os.path.relpath(out_dir)
    build_dir = os.path.join(out_dir, "pipebench")
    if not build(build_dir):
        log("build failed")
        return 2
    binary = os.path.join(build_dir, "pipebench")
    proc = subprocess.run([binary] + sys.argv[1:] + ["--outdir", out_dir])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
