#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/CMakeLists.txt, which compiles
the library from src/, into .bench_build/perfbench; later runs rebuild only
what changed. The host (nproc, CPU model, compiler, build type, git commit)
is printed first; the last line of standard output is the benchmark's JSON
result. The exit code is non-zero when the build fails, the arguments are
wrong or an output did not check out.
"""

import argparse
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "Release"
WORKLOADS = ("paper_sparse", "paper_dense", "serve_live", "serve_sharded")


def build():
    """Configure (once) and build; all tool output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compiler():
    cxx = "c++"
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt"), encoding="utf-8") as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
    except OSError:
        pass
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, check=False).stdout
        return out.splitlines()[0] if out else cxx
    except OSError:
        return cxx


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_line():
    return ("# host nproc=%d cpu=%r compiler=%r build_type=%s commit=%s"
            % (os.cpu_count() or 1, cpu_model(), compiler(), BUILD_TYPE,
               commit()))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seconds < 1 or a.seed < 0:
        p.error("--seconds must be >= 1 and --seed >= 0")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("build failed: %s" % e, file=sys.stderr)
        return 1
    print(host_line(), flush=True)
    proc = subprocess.run(
        [binary, "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace)],
        check=False)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
