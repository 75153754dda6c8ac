#!/usr/bin/env python3
"""Build the elink benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload dv500-fig9 --seed 1 --seconds 40 --trace 0

The Go program in this directory does the measuring (see main.go). This
wrapper only builds it with every Go cache, temp and config directory
under .bench_build/ in the current directory, forwards the arguments,
and exits with the program's status. Build output goes to stderr, so
the last line on stdout is the program's JSON result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    home = os.path.join(build, "home")
    env = dict(os.environ)
    env.update({
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "GOPROXY": "off",
    })
    for d in (home, env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run([binary, "-scratch", os.path.join(build, "run")] + sys.argv[1:],
                         cwd=root, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
