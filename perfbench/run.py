#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) and observed outputs to
.bench_build/perfbench-out. The last line of standard output is the result
object; build logs go to standard error.
"""
import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("paper_ur", "paper_faulted_observed", "small_urby_sweep")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, else a digest of the source tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return "git:" + lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configures once, then lets the build tool decide what is stale."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "hxbench",
                  "trace_check", "timeline_check"])
    # The compiler's temporary files stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check sharded == serial and traced == untraced, then exit")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/; run from a checkout")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    out_dir = os.path.abspath(os.path.join(".bench_build", "perfbench-out"))
    os.makedirs(out_dir, exist_ok=True)
    build(build_dir)

    cmd = [os.path.join(build_dir, "hxbench"), "--out-dir=" + out_dir]
    if args.self_test:
        cmd.append("--self-test=true")
    else:
        cmd += ["--workload=" + args.workload, "--seed=%d" % args.seed,
                "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
                "--tools-dir=" + build_dir, "--source=" + source_id()]
    sys.stdout.flush()
    rc = subprocess.run(cmd).returncode
    if rc != 0:
        # A crash is reported, not retried.
        print("perfbench: hxbench exited with status %d" % rc, file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
