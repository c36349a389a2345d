#!/usr/bin/env python3
"""Builds and runs the objalloc benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles ../src) into the build
directory named by $CARGO_TARGET_DIR, or .bench_build, then runs the
perfbench binary with the same arguments. The binary's last stdout line is
the JSON result. Any build failure or correctness-gate failure exits
non-zero without a result line. Extra flags (--inject) pass through to the
binary; see METRICS.md.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out):
    """Configures once, then builds; build output goes to stderr."""
    binary_dir = os.path.join(out, "cmake")
    if not os.path.exists(os.path.join(binary_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _which("ninja") else []
        subprocess.run(
            ["cmake", "-S", SOURCE, "-B", binary_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", binary_dir, "--target", "perfbench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr)
    return os.path.join(binary_dir, "perfbench")


def _which(program):
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        if os.access(os.path.join(directory, program), os.X_OK):
            return True
    return False


def main(argv):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("run.py: no src/ here; run from the root of an objalloc checkout",
              file=sys.stderr)
        return 1
    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    result = subprocess.run([binary, "--out_dir", out] + argv, cwd=ROOT)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
