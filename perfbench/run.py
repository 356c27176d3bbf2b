#!/usr/bin/env python3
"""Build and run the host wall-clock benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release,
offline) into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs one
workload. Build output goes to stderr; standard output carries the run's
report and, as its last line, the JSON result. A traced run also writes
its host-clock spans as Chrome JSON to `perfbench/out/`.

Exits non-zero without a result line when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def flag(args, name):
    """The value after `name` in `args`, or None."""
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    # The engine and co-execution knobs are pinned inside the benchmark;
    # dropping their variables also keeps serving-layer VMs, which read
    # them at construction, on the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("OCLSIM_")}
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(target, "release", "perfbench")] + args
    if flag(args, "--trace") == "1":
        name = "%s-seed%s.json" % (flag(args, "--workload"), flag(args, "--seed"))
        cmd += ["--trace-out", os.path.join(HERE, "out", name)]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
