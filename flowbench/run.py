#!/usr/bin/env python3
"""Build and run the MEGsim flow benchmark.

Run from the repository root:

    python3 flowbench/run.py --workload estimate-long --seed 1 \\
        --seconds 30 --trace 0
    python3 flowbench/run.py --selftest

The first call configures and builds flowbench/ (which compiles the
MEGsim libraries from src/) into .bench_build/flowbench; later calls
only check that the build is current. All other arguments go to the
flowbench binary unchanged. Build output goes to stderr, so the last
line of stdout is the binary's JSON result. Exit status: the binary's,
or 2 when the environment is unusable or the build fails.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "flowbench")


def fail(message):
    print("flowbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quietly(cmd):
    return subprocess.call(cmd, cwd=ROOT, stdout=sys.stderr,
                           stderr=sys.stderr) == 0


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("MEGsim sources (src/) not found next to flowbench/")
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_quietly(configure):
            # A cache left by another source tree: start over once.
            shutil.rmtree(BUILD, ignore_errors=True)
            if not run_quietly(configure):
                fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quietly(["cmake", "--build", BUILD, "-j", jobs,
                        "--target", target]):
        fail("build of %s failed" % target)
    return os.path.join(BUILD, target)


def run(cmd):
    child = subprocess.Popen(cmd, cwd=ROOT)

    def forward(signum, _frame):
        child.send_signal(signum)

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, forward)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def main(argv):
    if argv == ["--selftest"]:
        return run([build("flowbench_selftest")])
    return run([build("flowbench")] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
