#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <fleet-steady|fleet-contended|deploy-4k> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (``perfbench/Cargo.toml``) that
links the product crates by path. It is built in release mode into
``$CARGO_TARGET_DIR`` (default ``.bench_build`` at the repository root);
build output goes to standard error, so the last line of standard output
is the benchmark's JSON result. The run is stamped with a revision: the
git commit when there is one, and a digest of the source files always.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", "__pycache__"}


def source_digest():
    """SHA-256 over the paths and contents of every source file."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x not in SKIP_DIRS)
                files.extend(os.path.join(d, n) for n in sorted(names) if n != "Cargo.lock")
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def revision():
    rev = "src-" + source_digest()
    try:
        git = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if git.returncode == 0 and git.stdout.strip():
            rev = git.stdout.strip() + "+" + rev
    except (OSError, subprocess.SubprocessError):
        pass
    return rev


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target if os.path.isabs(target) else os.path.join(os.getcwd(), target),
                          "release", "perfbench")
    args = [binary, *sys.argv[1:], "--rev", revision()]
    sys.stdout.flush()
    sys.stderr.flush()
    # Replace this process with the benchmark: nothing is left running
    # behind it, and its exit code is the run's exit code.
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main())
