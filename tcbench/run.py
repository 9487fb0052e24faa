#!/usr/bin/env python3
"""Build tecore and the tcbench harness from source, run one workload, and
print its result.

    python3 tcbench/run.py --workload kg_browse --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to .bench_build/ (or
$CARGO_TARGET_DIR, relative to the root; outside the checkout, to a
subdirectory keyed by the checkout's path) and is reused by later runs. The
harness prints a detail line (every metric with unit and sample count, the
output checks, the environment) and then the result line, which this
script prints last: {"correct", "attempted", "failed", "metrics"}. The exit
status is nonzero when an output check fails or the run cannot complete.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("kg_browse", "kg_curate", "resolve_batch")
# A run must end within 180 s; stop the harness before that.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"tcbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then (re)build the two targets the runs need."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no tecore sources under {ROOT} (CMakeLists.txt, src/)")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if cmake_cache(build_dir).get("CMAKE_HOME_DIRECTORY") != str(BENCH_DIR):
        # Missing, or configured for another checkout's sources.
        (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
        shutil.rmtree(build_dir / "CMakeFiles", ignore_errors=True)
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "tcbench", "tecore-server"])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(step)}")


def source_digest():
    """SHA-256 over the sources the benchmark builds: the checkout it runs
    in need not be a git repository."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", BENCH_DIR.name):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout, when the checkout itself is a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        top, sha = out.stdout.split()
        if out.returncode == 0 and Path(top).resolve() == ROOT:
            return sha
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return "not a git checkout"


def cmake_cache(build_dir):
    """The entries of build_dir's CMakeCache.txt ({} when there is none)."""
    cache = {}
    path = build_dir / "CMakeCache.txt"
    if not path.is_file():
        return cache
    for line in path.read_text().splitlines():
        if ":" in line and "=" in line and not line.startswith(("//", "#")):
            key, _, value = line.partition("=")
            cache[key.split(":")[0]] = value
    return cache


def build_directory():
    """$CARGO_TARGET_DIR (default .bench_build), relative to the root. A
    directory outside this checkout may be shared by several checkouts, so
    each gets its own subdirectory there."""
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build_dir.resolve().is_relative_to(ROOT):
        key = hashlib.sha256(str(ROOT).encode()).hexdigest()[:16]
        build_dir = build_dir / key
    return build_dir


def environment(build_dir):
    cache = cmake_cache(build_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    return {
        "nproc": str(os.cpu_count()),
        "compiler": f"{compiler} ({version})",
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "kernel": platform.release(),
        "fsync": "always (tecore-server and storage default)",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build_dir = build_directory()
    build(build_dir)
    work_dir = build_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    command = [str(build_dir / "tcbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--server", str(build_dir / "tecore" / "tecore-server"),
               "--work-dir", str(work_dir)]
    # The harness and the servers it forks share a new process group, so
    # none outlives the run: not on a timeout, not on a crash.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if stdout is None:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        fail(f"harness exited {proc.returncode} without a result")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    detail["env"].update(environment(build_dir))
    detail["workload"] = args.workload
    detail["seed"] = args.seed
    detail["trace"] = args.trace
    if args.trace:
        detail["spans"] = str(work_dir / f"spans-{args.workload}.json")
    print(json.dumps(detail))
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
