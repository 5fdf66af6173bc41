#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <batch-cold|edit-loop|service-mix> \
        --seed N --seconds S --trace <0|1>

Builds `commcsl-perfbench` and the `commcsl` daemon in release mode (into
$CARGO_TARGET_DIR, `.bench_build` by default), then runs the benchmark.
The last stdout line is the result object; the line before it is the
run's provenance. Exits non-zero without a result when the repository's
sources are missing or the build fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

OUT_DIR = Path(".bench_build") / "perfbench"
# `batch-cold` runs on one CPU. Its client thread joins the verifier's
# per-op worker thread at once; on a shared VM, waking that worker on the
# other, idle CPU costs a host-scheduling delay that varies with the
# host's load and made wall-clock results drift by 20 %. On one CPU the
# hand-off is a plain context switch. The verifier itself is unchanged:
# a one-program batch uses one worker either way.
PINNED = {"batch-cold"}
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "examples", "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/src"]


def source_digest(root):
    """SHA-256 over every source file the benchmark builds or reads."""
    digest = hashlib.sha256()
    for entry in SOURCES:
        path = root / entry
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            if f.is_file():
                digest.update(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    root = Path.cwd()
    missing = [p for p in ("Cargo.toml", "crates", "examples/programs", "examples/rejected") if not (root / p).exists()]
    if missing:
        print(f"perfbench: run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    target = Path(os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", "perfbench/Cargo.toml",
        "-p", "commcsl-perfbench", "-p", "commcsl-front",
        "--bin", "commcsl-perfbench", "--bin", "commcsl",
    ]
    if subprocess.run(build, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(
        os.environ,
        PERFBENCH_COMMIT=commit(root),
        PERFBENCH_SOURCE_DIGEST=source_digest(root),
        PERFBENCH_NPROC=str(os.cpu_count()),
    )
    command = [
        str(target / "release" / "commcsl-perfbench"), *sys.argv[1:],
        "--commcsl", str(target / "release" / "commcsl"), "--out", str(OUT_DIR),
    ]
    args = sys.argv[1:]
    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else None
    pin = None
    if workload in PINNED:
        cpu = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})
    return subprocess.run(command, env=env, preexec_fn=pin).returncode


if __name__ == "__main__":
    sys.exit(main())
