#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run configures and builds
the mnsim library and the perfbench binary in Release under
$CARGO_TARGET_DIR (default .bench_build); later runs only rebuild what
changed. Build output goes to standard error, so the last line of
standard output is the binary's result object. Extra arguments after the
four above are passed to the binary unchanged.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        fail(f"build step failed: {' '.join(cmd)}: {e}")


def build(build_dir):
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("the mnsim sources (src/) are not in the current directory; "
             "run from the root of a checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S)
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no {binary}")
    return binary


def source_fingerprint():
    """`git describe` when the checkout is a repository, else a hash of
    the library and benchmark sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(
                ["git", "describe", "--always", "--dirty", "--tags"],
                capture_output=True, text=True, timeout=30, check=True)
            return out.stdout.strip()
        except (subprocess.SubprocessError, OSError):
            pass
    digest = hashlib.sha256()
    for top in ("src", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = parser.parse_known_args()

    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", BENCH_DIR)
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", ".", "--git", source_fingerprint()] + extra
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
