#!/usr/bin/env python3
"""Builds perfbench against the repo's mcc library and runs one workload.

    python3 perfbench/run.py --workload farm32 --seed 1 --seconds 25 --trace 0

Run from the repo root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); its log goes to stderr. Arguments are
passed to the binary unchanged, and its exit code is returned. The last
line of stdout is the binary's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    root = os.path.dirname(HERE)
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                       "perfbench")
    out = os.path.join(root, out) if not os.path.isabs(out) else out
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    generated = any(os.path.exists(os.path.join(out, f))
                    for f in ("Makefile", "build.ninja"))
    if not generated:
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def main():
    binary = build()
    if binary is None:
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
