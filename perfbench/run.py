#!/usr/bin/env python3
"""Build and run the host-time benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sim_paper --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call builds the benchmark from
source into .bench_build/perfbench (RelWithDebInfo, the project's
default build type); later calls rebuild incrementally. The program's
report lines start with '#'; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "anaheim_perfbench"
WORKLOADS = ("sim_paper", "serve_chaos", "ckks_boot", "ckks_ops")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "--target", "anaheim_perfbench",
              "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(f"build step {cmd[:2]} failed: {err}")
            if proc.returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log_path})")


def source_digest():
    """sha256 over the library and benchmark sources, so a result is tied
    to its code even where no git metadata exists."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def main():
    seeds = json.loads((BENCH / "data" / "seeds.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's default "
                             "seed in data/seeds.json)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seed = seeds[args.workload]["default"] if args.seed is None else args.seed

    build()
    spans_dir = ROOT / ".bench_build" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    print("# build " + json.dumps({
        "git_sha": git_sha(), "source_digest": source_digest(),
        "build_dir": str(BUILD.relative_to(ROOT)),
        "seeds": seeds[args.workload]}), flush=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data", str(BENCH / "data"),
           "--spans-out",
           str(spans_dir / f"{args.workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(proc.stdout)
        fail(f"{args.workload} exited with {proc.returncode} and no result",
             proc.returncode or 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
