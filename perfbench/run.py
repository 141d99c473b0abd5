#!/usr/bin/env python3
"""Build the xsq benchmark harness and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke    # every workload briefly, both modes
    python3 perfbench/run.py --test     # the harness's own unit tests

Run from the root of a checkout. The first call configures and builds
perfbench/ (a CMake package that compiles the xsq sources of the parent
directory) in Release mode under $CARGO_TARGET_DIR, default .bench_build;
later calls only rebuild what changed. Build output goes to stderr.

A run prints a run-record line and then, as the last line of standard
output, the result object {"correct", "attempted", "failed", "metrics"}.
Exit status is non-zero on any wrong output, on a failed build (for
example when the xsq sources are missing), or when a metric could not be
measured.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                     "perfbench")
RUNS = os.path.join(BUILD, "runs")
TARGETS = ["xsq_perfbench", "xsqd", "xsq_router"]
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no xsq sources next to perfbench/ (expected src/)")
        return False
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target"] + targets)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return True


def source_id():
    """The git commit when the checkout is a repository, else a digest
    of the sources."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return tree_digest()
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return tree_digest()


def tree_digest():
    digest = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run_harness(workload, seed, seconds, trace, smoke=False):
    """Runs one harness invocation; returns (exit code, result or None)."""
    os.makedirs(RUNS, exist_ok=True)
    cmd = [os.path.join(BUILD, "xsq_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", RUNS,
           "--source-id", source_id()]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 4, None
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is not None:
        name = f"{workload}-seed{seed}-trace{trace}.json"
        with open(os.path.join(RUNS, name), "w") as f:
            f.write("\n".join(lines) + "\n")
    return proc.returncode, (result, lines)


def smoke():
    """Each workload briefly, traced and not; every declared metric must
    be present with its declared unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_harness(workload, 1, 1, trace, smoke=True)
            result = out[0] if out else None
            problems = []
            if code != 0:
                problems.append(f"exit {code}")
            if result is None:
                problems.append("no result line")
            else:
                metrics = result.get("metrics", {})
                for m in spec[kind]:
                    got = metrics.get(m["name"])
                    if got is None:
                        problems.append(f"{m['name']} missing")
                    elif got.get("unit") != m["unit"]:
                        problems.append(f"{m['name']} unit {got.get('unit')}")
                if set(metrics) != {m["name"] for m in spec[kind]}:
                    problems.append("unexpected metric set")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            log(f"smoke {workload} trace={trace}: {status}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()

    if args.test:
        if not build(["perfbench_test"]):
            return 2
        return subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode
    if not build(TARGETS):
        return 2
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    code, out = run_harness(args.workload, args.seed, args.seconds, args.trace)
    if out is None or out[0] is None:
        log("perfbench: the harness printed no result")
        return code or 2
    for line in out[1]:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
