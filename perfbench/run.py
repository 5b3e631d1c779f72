#!/usr/bin/env python3
"""Build and run the collectives benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package in release mode (into $CARGO_TARGET_DIR,
default `.bench_build`), stamps the run with the git commit and a digest
of the sources it was built from, and runs it. The benchmark's stdout is
passed through unchanged: its last line is the JSON result.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ar-large-thr", "step-small-thr", "ar-auto-sim")
# One run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def git_commit():
    """HEAD of the repository at ROOT, or "none" outside a git checkout."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "none"
    if len(top) != 2 or Path(top[0]).resolve() != ROOT:
        return "none"
    return top[1]


def source_digest():
    """sha256 over the sources the benchmark builds from."""
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for base in ("crates", "perfbench/src"):
        files += [p for p in (ROOT / base).rglob("*") if p.is_file() and "target" not in p.parts]
    files += [ROOT / "perfbench/Cargo.toml", ROOT / "perfbench/Cargo.lock"]
    h = hashlib.sha256()
    for p in sorted(f for f in files if f.is_file()):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be within 1..60")
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not (ROOT / "crates").is_dir():
        fail(f"{ROOT} holds no crates/ to build against")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "perfbench/Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--commit", git_commit(),
        "--source", source_digest(),
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
