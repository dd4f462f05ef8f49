#!/usr/bin/env python3
"""Compares two aujoin checkouts on the end-to-end benchmark, or records
a baseline ledger for one.

    python3 e2ebench/bench_diff.py compare PARENT CHANGE [--pairs 10]
    python3 e2ebench/bench_diff.py ledger ROOT --out FILE [--runs 5]

PARENT, CHANGE and ROOT are checkout roots; each builds and runs its own
e2ebench/run.py, for --seconds per run (default: run_seconds of
BENCHMARK.json). `compare` runs --pairs pairs per workload, alternating
which side runs first, each pair on its own seed (default 1001, 1002,
...: seeds no change was tuned on). Per workload and end-to-end metric it
prints both sides' median and quartiles, the change's win fraction
(ties count for neither side) and a verdict:

    gain        the change wins >= 9/10 of the pairs and its median is
                better by more than the parent's interquartile range
    regression  the change's median is worse than the parent's by more
                than the metric's bound from BENCHMARK.json
    unresolved  otherwise, when either side's interquartile range over
                its median exceeds the bound, unless every change run
                beats every parent run
    unchanged   none of the above

`ledger` runs each workload --runs times at one seed plus one traced run
and writes medians, quartiles, the per-layer table and the host,
compiler and kernel to FILE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def run(root, workload, seed, seconds, trace=0):
    """One run.py invocation; returns (contract line, full ledger)."""
    with tempfile.TemporaryDirectory() as tmp:
        ledger_path = os.path.join(tmp, "ledger.json")
        proc = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--ledger", ledger_path],
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"{root}: {workload} seed {seed} failed "
                     f"(exit {proc.returncode})")
        with open(ledger_path) as f:
            return json.loads(lines[-1]), json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    worse = sign * (pm - cm) / pm if pm else 0.0
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    all_better = (min(change) > max(parent) if better == "higher"
                  else max(change) < min(parent))
    if (wins >= 0.9 * len(parent) and sign * (cm - pm) > 0
            and abs(cm - pm) > p3 - p1):
        return wins, "gain"
    if worse > bound:
        return wins, "regression"
    if spread > bound and not all_better:
        return wins, "unresolved"
    return wins, "unchanged"


def compare(args):
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        contract = json.load(f)
    metrics = contract["end_to_end"]
    workloads = args.workloads or [w["name"] for w in contract["workloads"]]
    for workload in workloads:
        sides = {"parent": {}, "change": {}}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ["parent", "change"] if i % 2 == 0 else ["change",
                                                              "parent"]
            for side in order:
                line, _ = run(getattr(args, side), workload, seed,
                              args.seconds)
                for name, m in line["metrics"].items():
                    sides[side].setdefault(name, []).append(m["value"])
        print(f"\n{workload} ({args.pairs} pairs, seeds {args.seed}.."
              f"{args.seed + args.pairs - 1})")
        print("  metric: parent median [q1, q3] | change median [q1, q3] | "
              "delta | change wins | verdict")
        for m in metrics:
            p, c = sides["parent"][m["name"]], sides["change"][m["name"]]
            wins, v = verdict(p, c, m["better"], m["bound"])
            (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
            delta = (cm - pm) / pm * 100 if pm else 0.0
            print(f"  {m['name']}: {pm:.4g} [{p1:.4g}, {p3:.4g}] | "
                  f"{cm:.4g} [{c1:.4g}, {c3:.4g}] | {delta:+.1f}% | "
                  f"{wins}/{len(p)} | {v} (bound {m['bound']:.0%})")


def ledger(args):
    with open(os.path.join(args.root, "BENCHMARK.json")) as f:
        contract = json.load(f)
    out = {"seed": args.seed, "runs": args.runs, "seconds": args.seconds,
           "workloads": {}}
    for w in contract["workloads"]:
        name = w["name"]
        values = {}
        # A tail is named after the highest percentile its run's sample
        # count supports, so runs may name different extras.
        units = {}
        for _ in range(args.runs):
            _, full = run(args.root, name, args.seed, args.seconds)
            units.update(full["units"])
            for metric, value in full[name].items():
                values.setdefault(metric, []).append(value)
        _, traced = run(args.root, name, args.seed, args.seconds, trace=1)
        for key in ("host", "cpu", "compiler", "kernel", "threads"):
            out[key] = traced[key]
        entry = {"why": w["why"], "end_to_end": {}, "extras": {},
                 "per_layer": {}}
        e2e = {m["name"] for m in contract["end_to_end"]}
        for metric, vals in values.items():
            q1, med, q3 = quartiles(vals)
            entry["end_to_end" if metric in e2e else "extras"][metric] = {
                "median": med, "q1": q1, "q3": q3,
                "iqr_over_median": (q3 - q1) / med if med else 0.0,
                "unit": units[metric], "values": vals}
        e2e_or_extra = set(values) | {"setup_s"}
        for metric, value in traced[name].items():
            if metric not in e2e_or_extra:
                entry["per_layer"][metric] = {
                    "value": value, "unit": traced["units"][metric]}
        out["workloads"][name] = entry
        print(f"{name}: recorded", file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--seed", type=int, default=1001)
    c.add_argument("--seconds", type=int)
    c.add_argument("--workloads", type=lambda s: s.split(","))
    l = sub.add_parser("ledger")
    l.add_argument("root")
    l.add_argument("--out", required=True)
    l.add_argument("--runs", type=int, default=5)
    l.add_argument("--seed", type=int, default=1)
    l.add_argument("--seconds", type=int)
    args = parser.parse_args()
    if args.seconds is None:
        # The contract's run length, so runs match the gated ones.
        root = args.change if args.mode == "compare" else args.root
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    if args.mode == "compare":
        if args.pairs < 10:
            sys.exit("compare needs at least 10 pairs")
        compare(args)
    else:
        ledger(args)


if __name__ == "__main__":
    main()
