#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze_batch --seed 1 --seconds 15 --trace 0

The Go build cache, the binary and every file a run writes live under
.bench_build/ in the checkout. The last line of standard output is the
result object; a failed build or run exits nonzero without printing one.
"""

import os
import signal
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        # The go command keeps telemetry counters under the user config
        # directory; point it into the checkout too.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    for key in ("GOCACHE", "GOMODCACHE", "GOPATH", "GOTMPDIR", "TMPDIR", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)

    binary = os.path.join(build, "perfbench")
    status = run([go(), "build", "-o", binary, "."], cwd=src, env=env)
    if status != 0:
        print("perfbench: build failed", file=sys.stderr)
        return status or 1
    workdir = os.path.join(build, "perfbench-work")
    return run([binary, *sys.argv[1:], "--workdir", workdir], cwd=root, env=env)


def go() -> str:
    for d in os.environ.get("PATH", "").split(os.pathsep) + ["/usr/local/go/bin"]:
        path = os.path.join(d, "go")
        if os.access(path, os.X_OK):
            return path
    return "go"


def run(cmd, cwd, env) -> int:
    """Run cmd to completion; a SIGTERM or SIGINT stops it and waits."""
    try:
        child = subprocess.Popen(cmd, cwd=cwd, env=env)
    except OSError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    def stop(signum, _frame):
        child.terminate()
        try:
            child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
