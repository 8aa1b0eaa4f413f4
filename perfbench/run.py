#!/usr/bin/env python3
"""Builds pnpbench from this checkout and runs one benchmark workload.

    python3 perfbench/run.py --workload relay_par --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout. The program is built (Release) under
$CARGO_TARGET_DIR, default .bench_build, on first use. The last line of
standard output is the JSON result; everything before it is commentary.
Extra arguments (--expect-states N, --smoke) are passed to the program.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("relay_par", "design_par")
# Beyond --seconds: in a traced run, the design sequence's known answers and
# the probe suite (together about 45 s on a 4-core machine), with room for a
# host more than twice as slow; at --seconds 40 a run ends within 170 s.
RUN_ALLOWANCE_S = 130


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def source_id(root):
    """The git commit when there is one, else a digest of src/."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(root, build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args, extra = ap.parse_known_args()

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "examples/models/relay_mesh.pml"):
        if not os.path.exists(os.path.join(root, needed)):
            log(f"{needed} not found: run from the root of a checkout")
            return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    build_dir = os.path.join(target, "perfbench")
    if not build(root, build_dir):
        log("build failed")
        return 2
    binary = os.path.join(build_dir, "pnpbench")
    # Relative, so the daemon's Unix socket path stays short.
    work_dir = os.path.relpath(os.path.join(target, "perfbench-work"), root)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--root", ".", "--work-dir", work_dir,
           "--source-id", source_id(root)] + extra
    timeout = args.seconds + RUN_ALLOWANCE_S
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"timed out after {timeout:g} s")
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
