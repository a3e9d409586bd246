#!/usr/bin/env python3
"""Build and run the LessLog system benchmark.

Run from the repository root:

    python3 sysbench/run.py --workload kv-8020 --seed 1 --seconds 30 --trace 0

The script builds the benchmark (a Go module in this directory that uses
the repository's packages through a `replace` to the parent directory)
into .bench_build/, with the Go build cache kept there too, then runs it
with the given arguments plus an env stamp: the git commit when the tree
is a git checkout, and a digest of the Go sources either way. The
benchmark's output, ending in the one-line JSON result, passes through.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "sysbench")
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
    )
    return env


def source_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    os.makedirs(BUILD, exist_ok=True)
    tmp = BINARY + ".tmp-%d" % os.getpid()
    build = subprocess.run(["go", "build", "-o", tmp, "."], cwd=HERE, env=go_env())
    if build.returncode != 0:
        print("sysbench: build failed", file=sys.stderr)
        return 1
    os.replace(tmp, BINARY)
    args = [BINARY] + sys.argv[1:] + [
        "--commit", commit(),
        "--source", source_digest(),
        "--out", os.path.join(BUILD, "results"),
        "--data", os.path.join(BUILD, "data"),
    ]
    proc = subprocess.Popen(args, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("sysbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
