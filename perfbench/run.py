#!/usr/bin/env python3
"""Run one workload of the GLAF++ benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the GLAF++
libraries from ../src) into .bench_build; later runs rebuild only what
changed. The last line of standard output is the JSON result; see
perfbench/README.md for the workloads and metrics. Exits non-zero, with
no result line, when the sources are missing, the build fails, or a
result is wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sarb_deep_column", "fun3d_jacobian", "serve_mixed")
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build(root, build_dir, target):
    """Configure (once) and build `target`; returns the exit code."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  target])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed:", " ".join(cmd))
            return done.returncode or 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("no GLAF++ sources (src/CMakeLists.txt) under", root)
        return 2
    build_dir = os.path.join(root, ".bench_build")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)

    if args.self_test:
        code = build(root, build_dir, "perfbench_test")
        if code != 0:
            return code
        return subprocess.run([os.path.join(build_dir, "perfbench_test")],
                              cwd=root).returncode

    code = build(root, build_dir, "glafbench")
    if code != 0:
        return code

    # One private directory per workload and mode, emptied first: kernel
    # caches start cold, and the compiler's temporaries stay inside it.
    rel_work = os.path.join(".bench_build", "run",
                            "%s-trace%d" % (args.workload, args.trace))
    work_dir = os.path.join(root, rel_work)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    env = dict(os.environ)
    env["TMPDIR"] = tmp_dir
    env.pop("GLAF_KERNEL_CACHE", None)
    env.pop("GLAF_FAULT", None)
    cmd = [os.path.join(build_dir, "glafbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           # Relative, so the serve socket path stays short.
           "--work-dir", rel_work]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload timed out after", RUN_TIMEOUT_S, "s")
        return 3
    finally:
        # Keep the reports; drop kernel caches and sockets.
        for name in os.listdir(work_dir):
            if name not in ("report.json", "trace.json"):
                path = os.path.join(work_dir, name)
                if os.path.isdir(path):
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    os.remove(path)
    if done.returncode != 0:
        log("workload failed with exit code", done.returncode)
        return done.returncode

    # The binary's last line carries every metric of the run; the result
    # keeps exactly the set BENCHMARK.json tracks for this mode.
    lines = done.stdout.decode().rstrip("\n").split("\n")
    full = json.loads(lines[-1])
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = full["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("metric", m["name"], "missing or in another unit:", got)
            return 4
        metrics[m["name"]] = got
    result = {"correct": full["correct"], "attempted": full["attempted"],
              "failed": full["failed"], "metrics": metrics}
    sys.stdout.write("\n".join(lines[:-1]) + "\n" + json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
