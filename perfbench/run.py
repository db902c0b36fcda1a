#!/usr/bin/env python3
"""Build and run the simulator's host-performance benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <interp|coherence|kernel|serve> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR,
by default `.bench_build` under the repository root, runs one workload and
relays its output. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`. With `--trace 1`
the recorded spans are also written, as Chrome trace-event JSON, to
`<target dir>/perfbench-traces/<workload>-<seed>.json`.

Exits non-zero without printing a result when the build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A cold build may take up to 900 s; later builds are no-ops and every
# run must end within 180 s.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    args = sys.argv[1:]
    flags = dict(zip(args[::2], args[1::2]))
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")

    cmd = [os.path.join(target, "release", "perfbench"), *args]
    if flags.get("--trace") == "1":
        traces = os.path.join(target, "perfbench-traces")
        os.makedirs(traces, exist_ok=True)
        name = f"{flags.get('--workload')}-{flags.get('--seed')}.json"
        cmd += ["--trace-out", os.path.join(traces, os.path.basename(name))]
    try:
        ran = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    if ran.returncode != 0:
        fail(f"run failed with exit code {ran.returncode}")
    lines = ran.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the run printed no result")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail(f"malformed result: {lines[-1]}")
    sys.stdout.write(ran.stdout)


if __name__ == "__main__":
    main()
