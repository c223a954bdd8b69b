#!/usr/bin/env python3
"""Build the program and the benchmark harness, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cli-text --seed 1 --seconds 15 --trace 0

Everything is built and written under .bench_build/perfbench/ in the
repository root: the Go build cache, the mule and muled binaries, the harness,
generated inputs and trace files. The harness prints the environment, then
as its last line one JSON object with the workload's metrics.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("cli-text", "mine-skewed", "serve-mixed")
# A run measures for --seconds; set-up, checking and the traced pass add to
# that, and the first run in a checkout also compiles everything.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_bounded(cmd, cwd, env, timeout, stdout=None):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %ds" % (cmd[0], timeout))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("go.mod", "cmd/mule/main.go", "cmd/muled/main.go", "perfbench/go.mod", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, need)):
            fail("run from the repository root: %s is missing" % need)

    out = os.path.join(root, ".bench_build", "perfbench")
    bin_dir = os.path.join(out, "bin")
    for d in ("gocache", "gopath", "tmp", "config", "bin"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    env = dict(os.environ)
    env.update({
        # Keep every build artefact inside the checkout and never reach for
        # the network or another toolchain.
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "TMPDIR": os.path.join(out, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
        # At most two CPUs for every process of the benchmark.
        "GOMAXPROCS": "2",
    })

    build = [
        (["go", "build", "-o", bin_dir + os.sep, "./cmd/mule", "./cmd/muled"], root),
        (["go", "build", "-o", os.path.join(bin_dir, "perfbench"), "."], os.path.join(root, "perfbench")),
    ]
    for cmd, cwd in build:
        # Build output goes to stderr so stdout carries only results.
        if run_bounded(cmd, cwd, env, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            fail("build failed: " + " ".join(cmd))

    cmd = [os.path.join(bin_dir, "perfbench"),
           "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-bin", bin_dir, "-work", os.path.join(out, "work")]
    sys.stdout.flush()
    sys.exit(run_bounded(cmd, root, env, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
