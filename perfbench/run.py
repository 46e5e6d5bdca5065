#!/usr/bin/env python3
"""Build perfbench from source and run it with the given arguments.

Usage (from the repository root):

    python3 perfbench/run.py --workload figs-private --seed 1 --seconds 20 --trace 0

Everything the build and the run write goes under .bench_build/ at the
repository root: the Go build cache, the binary, per-run scratch
directories and the per-run detail files in .bench_build/results/.
The exit status is the benchmark's, or 1 when the build fails.
"""
import os
import subprocess
import sys

here = os.path.dirname(os.path.abspath(__file__))
root = os.path.dirname(here)
build = os.path.join(root, ".bench_build")
tmp = os.path.join(build, "tmp")
os.makedirs(tmp, exist_ok=True)

env = dict(os.environ)
env.update(
    GOCACHE=os.path.join(build, "gocache"),
    GOPATH=os.path.join(build, "gopath"),
    GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
    XDG_CONFIG_HOME=os.path.join(build, "config"),
    XDG_CACHE_HOME=os.path.join(build, "cache"),
    GOTMPDIR=tmp,
    TMPDIR=tmp,
    GOENV="off",
    GOFLAGS="-mod=mod",
    GOTOOLCHAIN="local",
    GOPROXY="off",
    GOWORK="off",
)
binary = os.path.join(build, "perfbench")
built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
if built.returncode != 0:
    print("perfbench: build failed", file=sys.stderr)
    sys.exit(1)
sys.exit(subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode)
