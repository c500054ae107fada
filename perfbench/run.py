#!/usr/bin/env python3
"""Build and run the slipflow repository benchmark.

    python3 perfbench/run.py --workload kernel_large --seed 1 --seconds 15 --trace 0

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, Release) into .bench_build/; later
calls only re-check the build. The benchmark binary then runs from the
repository root with TMPDIR pointed at .bench_build/tmp, so every file
it, the campaign daemon and the worker processes create stays inside the
checkout. The last line of standard output is the result JSON; it is
checked against the metric names declared in BENCHMARK.json before it is
printed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
RUN_TIMEOUT_S = 170.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def log_call(cmd, log):
    """Run a build step, appending its output to the build log."""
    with open(log, "ab") as out:
        out.write(("$ " + " ".join(cmd) + "\n").encode())
        out.flush()
        rc = subprocess.call(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
    if rc != 0:
        sys.stderr.write(Path(log).read_text(errors="replace")[-4000:])
        fail(f"build step failed ({rc}): {' '.join(cmd)}")


def build():
    BUILD_ROOT.mkdir(exist_ok=True)
    log = BUILD_ROOT / "build.log"
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        log_call(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                  "-DCMAKE_BUILD_TYPE=Release"], log)
    jobs = str(min(4, os.cpu_count() or 1))
    log_call(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
              "-j", jobs], log)
    exe = BUILD_DIR / "perfbench"
    if not exe.exists():
        fail(f"build produced no {exe}")
    return exe


def stop_group(pgid):
    """SIGKILL whatever is left in the benchmark's process group (a daemon
    or worker orphaned by a crash) and wait until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no slipflow sources next to {HERE.name}/ (expected "
             f"{ROOT}/CMakeLists.txt and {ROOT}/src)")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    declared = [m["name"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]]

    exe = build()

    # Relative TMPDIR keeps Unix-socket paths (108-byte limit) short no
    # matter how deep the checkout lives; every process runs from ROOT.
    tmp = BUILD_ROOT / "tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    env = dict(os.environ, TMPDIR=os.path.relpath(tmp, ROOT))
    cmd = [str(exe), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--trace={args.trace}"]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S:.0f} s")
    stop_group(proc.pid)
    shutil.rmtree(tmp, ignore_errors=True)

    lines = out.decode(errors="replace").rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    got = set(result["metrics"])
    if got != set(declared):
        fail(f"metric names differ from BENCHMARK.json: missing "
             f"{sorted(set(declared) - got)}, extra {sorted(got - set(declared))}")
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
