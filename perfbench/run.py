#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Run from the root of the source tree:

    python3 perfbench/run.py --workload hot-mixed --seed 1 --seconds 20 --trace 0

The Go build cache, the binary, the cached oracle tables, data
directories and span dumps all live under .bench_build/ in the tree.
The last line of standard output is the JSON result; the exit code is
non-zero when the build fails or any reply or check is wrong.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench", "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOENV="off",
        GOWORK="off",
        GOFLAGS="-buildvcs=false",
    )
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
