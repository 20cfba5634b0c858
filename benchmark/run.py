#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 benchmark/run.py --workload wan_synth --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --smoke      # every workload, 2 s, both modes

Run from the repository root. Builds (offline, release) the benchmark
crate beside this script and the `ccs` binary whose `serve` daemon the
`serve_mix` workload drives, into $CARGO_TARGET_DIR (default
`.bench_build`; the daemon build goes to its `serve/` subdirectory so
the two workspaces never invalidate each other). Build output goes to
stderr; the benchmark's last stdout line is its result object.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["wan_synth", "soc_synth", "serve_mix"]


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    serve_target = os.path.join(target, "serve")
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--target-dir", target],
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "ccs",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--target-dir", serve_target],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("benchmark build failed: " + " ".join(cmd))
    return (os.path.join(target, "release", "ccs-benchmark"),
            os.path.join(serve_target, "release", "ccs"))


def smoke(bench, ccs):
    """Runs every workload for 2 s, untraced and traced, and checks the
    result objects. Exit status 0 when every run was correct."""
    bad = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            out = subprocess.run(
                [bench, "--workload", workload, "--seed", "1", "--seconds", "2",
                 "--trace", trace, "--ccs", ccs],
                stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if out.returncode == 0 and lines else {}
            ok = result.get("correct") is True and result.get("failed") == 0
            bad += not ok
            print(f"{workload} trace={trace}: {'ok' if ok else 'FAILED'} "
                  f"{json.dumps(result.get('metrics', {}), sort_keys=True)[:160]}")
    return 1 if bad else 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("run.py must run inside a full checkout of the repository")
    bench, ccs = build()
    if sys.argv[1:] == ["--smoke"]:
        sys.exit(smoke(bench, ccs))
    proc = subprocess.run([bench, *sys.argv[1:], "--ccs", ccs])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
