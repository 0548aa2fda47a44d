#!/usr/bin/env python3
"""Builds the `tdals` CLI and the flow benchmark from source, then runs it.

Run from the repository root:

    python3 flowbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs every workload, each in its own process, and ends
with one JSON object whose metrics are keyed `<workload>/<metric>`.
Builds go to `$CARGO_TARGET_DIR` (default `.bench_build`). Build output
goes to stderr, so the last line of stdout is always the result object.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["sqrt-dcgwo", "method-table", "serve-mix"]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    for args in (["--bin", "tdals"], ["--manifest-path", os.path.join("flowbench", "Cargo.toml")]):
        subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *args],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            check=True,
        )


def run_one(workload, rest):
    """Runs one workload, forwarding its output but the result line;
    returns its exit code and that line."""
    command = [
        os.path.join(TARGET, "release", "flowbench"),
        "--workload", workload,
        "--tdals", os.path.join(TARGET, "release", "tdals"),
        *rest,
    ]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    return proc.returncode, (lines[-1] if lines else None)


def main():
    args = sys.argv[1:]
    if "--workload" not in args or args.index("--workload") + 1 >= len(args):
        sys.exit("usage: run.py --workload <%s|all> --seed <n> --seconds <s> --trace <0|1>"
                 % "|".join(WORKLOADS))
    i = args.index("--workload")
    workload, rest = args[i + 1], args[:i] + args[i + 2:]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("flowbench: build failed: %s" % e)
    if workload != "all":
        code, result = run_one(workload, rest)
        if result is not None:
            print(result)
        sys.exit(code)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        code, result = run_one(name, rest)
        worst = worst or code
        if result is None:
            sys.exit("flowbench: %s printed no result" % name)
        result = json.loads(result)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s/%s" % (name, metric)] = value
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
