#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2ebench/run.py --workload serve_resnet18 --seed 1 --seconds 20 --trace 0

Run from the repository root.  The first call configures and builds the
library sources (src/) plus the benchmark binary under .bench_build/ (or
$CARGO_TARGET_DIR when set); later calls rebuild incrementally.  The frozen
knobs — pool width, server options, overload rate, latency limit — are
constants in e2ebench/src/main.cpp.  LP_KERNEL, LP_APPROX, LP_FAULT and
LP_THREADS are removed from the environment so kernel dispatch stays
automatic, multiplies exact and the pool width the frozen one.  The
binary's output is passed through; its last line is the result object.
Traced runs (--trace 1) also write a Chrome trace and a per-layer table to
.bench_build/e2ebench/traces/.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg: str, code: int = 2) -> None:
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "e2ebench"


def build() -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "e2ebench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return bdir / "e2ebench"


def source_digest() -> str:
    """Content hash of the library and benchmark sources (the checkout is
    not always a git repository)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".h", ".cpp", ".txt", ".json", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny search preset and one repetition per timing")
    args = ap.parse_args()

    binary = build()
    bdir = build_dir()

    cmd = [str(binary),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--out-dir", str(bdir / "traces"),
           "--git-commit", git_commit(),
           "--source-digest", source_digest()]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    for knob in ("LP_KERNEL", "LP_APPROX", "LP_FAULT", "LP_THREADS"):
        env.pop(knob, None)

    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
