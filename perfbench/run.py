#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload contention --seed 1 --seconds 10 --trace 0

Every argument is passed through to the binary. The Go build cache and the
binary live under .bench_build/ in the current directory, so the benchmark
reads and writes nothing outside the checkout. The exit code is the binary's,
or non-zero when the build fails (for example, when the repository's Go
sources are not present).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = os.path.abspath(".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        # The go command keeps telemetry counters under the user config
        # directory; keep them inside the build directory too.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        # Build from the checkout alone: never fetch a toolchain or module.
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
    })
    os.makedirs(build, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
