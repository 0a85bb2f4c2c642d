#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The first run configures and
builds the repository's libraries and the two benchmark binaries under
.bench_build/ (or $CARGO_TARGET_DIR); later runs rebuild only what
changed.  --trace 0 runs the plain binary and prints the end-to-end
metrics; --trace 1 runs the traced binary, prints the per-layer metrics
and writes the retained spans to .bench_build/perfbench/spans/.  The
last line of standard output is the result JSON.  The exit code is the
binary's (1 when an output check failed), or 3 if the build fails, 4 on
timeout, 5 if the binary printed no result.
"""

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("fleet", "unique", "traceback", "live-case")
# A run must end within 180 s of starting, build included once built.
RUN_BUDGET_S = 170.0

_child = None
_libc = ctypes.CDLL(None)
_libc.personality.argtypes = [ctypes.c_ulong]
ADDR_NO_RANDOMIZE = 0x0040000


def _fixed_layout():
    """Runs in the benchmark child before exec: turns off address-space
    randomization, so every run of one build gets the same memory layout.
    With it on, the layout alone moved live-case's p50 by up to half
    between otherwise identical runs.  Where personality() is refused the
    run goes on with randomization."""
    current = _libc.personality(0xFFFFFFFF)  # query
    if current != -1:
        _libc.personality(current | ADDR_NO_RANDOMIZE)


def _stop_child(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.kill()
        _child.wait()
    sys.exit(128 + signum)


def _run(cmd, timeout, **kwargs):
    """subprocess.run that also stops the child if this process is killed."""
    global _child
    _child = subprocess.Popen(cmd, **kwargs)
    try:
        out, err = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _child.kill()
        _child.communicate()
        raise
    finally:
        code = _child.wait()
        _child = None
    return code, out, err


def build(build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench", "perfbench_traced"])
    with open(log_path, "w") as log:
        for cmd in steps:
            code, _, _ = _run(cmd, timeout=880, stdout=log,
                              stderr=subprocess.STDOUT)
            if code != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, _stop_child)

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"no LexForensica source tree at {ROOT}", file=sys.stderr)
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (ROOT / target / "perfbench").resolve()
    if not build(build_dir):
        print("benchmark build failed", file=sys.stderr)
        return 3

    binary = build_dir / ("perfbench_traced" if args.trace else "perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        spans = build_dir / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-{args.seed}.json")]

    started = time.monotonic()
    try:
        code, out, _ = _run(cmd, timeout=RUN_BUDGET_S, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True,
                            preexec_fn=_fixed_layout)
    except subprocess.TimeoutExpired:
        print(f"timed out after {RUN_BUDGET_S:.0f} s", file=sys.stderr)
        return 4
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print(out, end="")
        print(f"no result line (exit code {code})", file=sys.stderr)
        return code or 5
    print(out, end="")
    print(f"{args.workload}: {time.monotonic() - started:.1f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
