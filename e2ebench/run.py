#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs one workload.

    python3 e2ebench/run.py --workload join_med --seed 1 --seconds 10 --trace 0

Run from the root of an aujoin checkout. The first call configures and
builds a Release bench_e2e under $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench); later calls rebuild only what changed. The
binary's "name value unit" lines are passed through, and the last line
of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). A traced run also leaves its Chrome trace
next to the build. --ledger FILE keeps bench_e2e's full ledger (every
metric, including workload-specific extras, plus host, compiler and
kernel). With --record-expected, the run's result count and digest
become the expectation for its seed in expected/e2e_counts.json.

Exit status: 0 when every correctness check passed, 1 when one failed
(the JSON line says "correct": false), 2 when the benchmark could not
build or run (no JSON line).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected", "e2e_counts.json")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(bdir):
    """Configures (once) and builds bench_e2e; returns its path."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "--target", "bench_e2e",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(bdir, "bench_e2e")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ledger", help="copy the full ledger JSON here")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()

    contract = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    work = os.path.join(bdir, f"work-{tag}")
    ledger_path = os.path.join(bdir, f"ledger-{tag}.json")
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--work_dir={work}",
           f"--json={ledger_path}"]
    if args.trace:
        cmd.append(f"--trace={bdir}/trace-{args.workload}-{args.seed}.json")
    expected = load_json(EXPECTED) if os.path.exists(EXPECTED) else {}
    want = expected.get("workloads", {}).get(args.workload)
    if (want and not args.record_expected
            and args.seed == expected.get("seed")
            and args.seconds == expected.get("seconds")):
        cmd += [f"--expect_results={want['results']}",
                f"--expect_digest={want['digest']}"]
    try:
        proc = subprocess.run(cmd, stdout=sys.stdout, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"bench_e2e failed: {err}", file=sys.stderr)
        code = 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code not in (0, 3) or not os.path.exists(ledger_path):
        print(f"bench_e2e exited with {code}", file=sys.stderr)
        return 2
    ledger = load_json(ledger_path)
    if args.ledger:
        shutil.copyfile(ledger_path, args.ledger)
    os.remove(ledger_path)

    values = ledger[args.workload]
    metrics = {}
    for m in wanted:
        name = m["name"]
        unit = ledger["units"].get(name)
        if name not in values or unit != m["unit"]:
            print(f"bench_e2e did not report {name} in {m['unit']}",
                  file=sys.stderr)
            return 2
        metrics[name] = {"value": values[name], "unit": unit}

    if args.record_expected and ledger["correct"]:
        expected.setdefault("seed", args.seed)
        expected.setdefault("seconds", args.seconds)
        expected.setdefault("workloads", {})[args.workload] = {
            "results": ledger["results"], "digest": ledger["digest"]}
        with open(EXPECTED, "w") as f:
            json.dump(expected, f, indent=2, sort_keys=True)
            f.write("\n")

    sys.stdout.flush()
    print(json.dumps({"correct": ledger["correct"],
                      "attempted": ledger["attempted"],
                      "failed": ledger["failed"],
                      "metrics": metrics}))
    return 0 if ledger["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
