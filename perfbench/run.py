#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (its own cargo
workspace, depending on the repository's crates by path) in release mode
into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload.
The last line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`; the exit code is non-zero
when the build fails or an output check fails.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("eval_sweep", "serve_open", "serve_mixed", "dist_sweep")
BENCH = pathlib.Path(__file__).resolve().parent
REPO = BENCH.parent
RUN_TIMEOUT_S = 170


def source_digest():
    """A revision id for checkouts without git: SHA-256 over the sources."""
    digest = hashlib.sha256()
    roots = [REPO / "crates", BENCH / "src"]
    files = [REPO / "Cargo.lock", REPO / "Cargo.toml", BENCH / "Cargo.toml"]
    for root in roots:
        files.extend(p for p in root.rglob("*") if p.is_file())
    for path in sorted(set(files)):
        if path.is_file():
            digest.update(str(path.relative_to(REPO)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def revision():
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip() + "+" + source_digest()
    except (OSError, subprocess.CalledProcessError):
        return source_digest()


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (REPO / "crates" / "dist" / "Cargo.toml").is_file():
        print("perfbench: the repository's crates are missing; run from a full checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml"), "--bins"],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    command = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", str(BENCH / "results"),
        "--rustc", rustc_version(),
        "--revision", revision(),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
