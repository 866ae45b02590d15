#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the REAP workspace. The harness is
built with cargo into $CARGO_TARGET_DIR (default: .bench_build). The last
line of stdout is the result object; the line before it is the detail
block (workload-and-host block, timing summaries, every value), also kept
as <target>/perfbench-results/<workload>-seed<n>-trace<t>.json for
perfbench/compare.py. A traced run keeps its spans next to it. The exit
status is non-zero when the build fails or a correctness check fails.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def tree_revision():
    """A content hash of every source the harness builds from.

    Checkouts need not be git repositories, so the revision recorded in
    each result is derived from the files themselves.
    """
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / ".cargo" / "config.toml"]
    for tree in (ROOT / "crates", ROOT / "vendor", HERE):
        if tree.is_dir():
            files += sorted(
                p for p in tree.rglob("*")
                if p.is_file() and "target" not in p.relative_to(tree).parts
                and "__pycache__" not in p.parts
            )
    digest = hashlib.sha256()
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        print(f"perfbench: no REAP workspace at {ROOT}; nothing to build", file=sys.stderr)
        return 2

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    results = target / "perfbench-results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    command = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--rev", tree_revision(),
        "--out", str(results / f"{stem}-trace{args.trace}.json"),
    ]
    if args.trace == "1":
        command += ["--spans", str(results / f"{stem}.spans.jsonl")]
    sys.stdout.flush()
    try:
        ran = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
