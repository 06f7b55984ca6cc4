#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <signoff_dsp|daemon_eco|sharded_signoff> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. Builds the `pcv_serve` daemon (the root
workspace) and the benchmark package (`perfbench/`, a workspace of its
own) into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs one
workload. Build output goes to standard error; the benchmark's own
output, ending in one JSON result line, goes to standard output. A build
failure or a run past its time limit exits non-zero without a result.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "pcv-serve", "--bin", "pcv_serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def code_id():
    """A digest of every source and build file, so exact counts are only
    compared between runs of the same code."""
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "perfbench" / "Cargo.toml"]
    for top in (ROOT / "crates", ROOT / "perfbench" / "src"):
        files += sorted(p for p in top.rglob("*") if p.suffix in (".rs", ".toml"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    target = target_dir()
    build(target)
    cmd = [
        str(target / "release" / "perfbench"), "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--serve-exe", str(target / "release" / "pcv_serve"),
        "--code-id", code_id(),
    ]
    # A session of its own, so the daemon and shard workers the benchmark
    # starts can be stopped as one group whatever happens.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        sys.stderr.write(out)
        sys.exit(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.stdout.write(out)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
