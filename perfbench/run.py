#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload u64-zipf --seed 1 --seconds 20 --trace 0

The Go build and module caches, the Go tool's own state and temporary
files, and the built binary all live under .bench_build/ in the checkout,
so a run writes nothing outside it. Build output goes to standard error; the
program's standard output, whose last line is the JSON result, passes
through unchanged, and its exit code is this script's exit code.
"""
import os
import shutil
import signal
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    os.makedirs(home, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        TMPDIR=tmp,
        GOTMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        GOTELEMETRY="off",
    )
    binary = os.path.join(build, "perfbench")
    # Go's standard install location, for a PATH that does not name it.
    go = shutil.which("go") or "/usr/local/go/bin/go"
    built = run([go, "build", "-buildvcs=false", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr)
    if built != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built or 1
    return run([binary] + sys.argv[1:], cwd=root, env=os.environ.copy())


def run(cmd, **kw):
    """Run cmd to completion; on SIGTERM or ^C stop it and wait for it."""
    try:
        proc = subprocess.Popen(cmd, **kw)
    except OSError as e:
        print("perfbench: %s: %s" % (cmd[0], e), file=sys.stderr)
        return 127

    def stop(signum, _frame):
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        sys.exit(128 + signum)

    old = signal.signal(signal.SIGTERM, stop)
    try:
        return proc.wait()
    except KeyboardInterrupt:
        stop(signal.SIGINT, None)
    finally:
        signal.signal(signal.SIGTERM, old)


if __name__ == "__main__":
    sys.exit(main())
