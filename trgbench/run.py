#!/usr/bin/env python3
"""Build trgbench from the checkout's sources, then run it.

Run from the root of a trgplace checkout, for example:

    python3 trgbench/run.py --workload place-cold --seed 1 --seconds 35 --trace 0

Every argument goes to trgbench.exe (see trgbench/README.md).  The build
log goes to stderr, so stdout carries only the benchmark's own lines.
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "trgbench", "trgbench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("trgbench: run from the root of a trgplace checkout "
                         "(dune-project and lib/ not found)\n")
        return 2
    # The shared dune cache lives outside the checkout; build inside it only.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./trgbench/trgbench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
