#!/usr/bin/env python3
"""Guards BENCH_<name>.json result AND candidate counts against
checked-in expectations.

The smoke grid runs on a seeded generated corpus, so every
(algorithm, theta, tau) cell's match count is deterministic — any drift
is a real behaviour change (better recall, a broken filter, a changed
default) and must be acknowledged by regenerating the expectations
file, not silently absorbed. Result counts must also agree across the
threads dimension (the parity contract), so result cells are keyed
without it: every run of a key must report the same count.

Candidate counts (`candidates` — V_tau, what survives the signature
filter and gets verified) are guarded too, so accidental filter
weakening — e.g. the duplicate-posting bug class, where repeated
signature keys double-count overlaps past the tau threshold — fails
the smoke job even when verification still discards the extra pairs
and `results` stays unchanged. Candidate cells use the result keys,
whose shard suffix (below) keeps sharded cells apart: shard-pair blocks
select signatures against slice-local global orders, so sharded
candidate counts legitimately differ from monolithic ones (results may
not). Across thread counts, candidates must agree exactly.

Index provenance (`index_source`) is guarded the same way when the
expectations file carries an "index_source" section: a run expected to
serve from a mounted snapshot ("snapshot") must not silently fall back
to rebuilding ("rebuilt") — the smoke job uses this to pin the CLI's
--snapshot path actually serving from the .aujsnap file.

Sharded runs (stats.shards > 0) key with a " shards=<n>" suffix, so an
expectations file written from a --shards run pins both the shard
count (a run that silently fell back to monolithic loses the suffix
and shows up as MISSING + NEW) and the scatter-gather counts.
Monolithic runs keep suffix-free keys.

Expectations file schema (sections optional):

  {"results": {"<alg> theta=<t> tau=<u>[ shards=<n>]": N, ...},
   "candidates": {"<alg> theta=<t> tau=<u>[ shards=<n>]": N, ...},
   "index_source": {"<alg> theta=<t> tau=<u>": "snapshot"|"rebuilt", ...}}

On any mismatch the script ends with a key-level diff: every guarded
key in a  expected | actual  table, tagged ok/DRIFT/MISSING/NEW, so a
CI failure shows the whole picture rather than the first bad cell.

Usage:
  python3 tools/check_bench_counts.py BENCH_smoke.json \
      bench/expected/smoke_counts.json [--update]

--update rewrites the expectations file from the report (use after an
intentional change, and say why in the commit).
"""

import json
import sys


def result_key(run):
    key = "{} theta={:g} tau={:g}".format(
        run["algorithm"], run["theta"], run["tau"])
    # Sharded cells get their own keys: the scatter-gather parity
    # contract says their counts EQUAL the monolithic ones, but keying
    # them separately means a --shards run that silently fell back to
    # monolithic (shards == 0) fails loudly instead of matching.
    shards = run.get("shards", 0)
    if shards > 0:
        key += " shards={}".format(shards)
    return key


def collect_counts(report):
    """(results, candidates, index_sources) cell maps; fails on failed
    or inconsistent runs."""
    results = {}
    candidates = {}
    sources = {}
    errors = []
    for run in report.get("runs", []):
        key = result_key(run)
        if not run.get("ok", False):
            errors.append(f"FAILED RUN {key}: {run.get('error', '?')}")
            continue
        count = run["results"]
        if key in results and results[key] != count:
            errors.append(
                f"INCONSISTENT {key}: {results[key]} vs {count} across "
                f"threads (parity violation)")
        results[key] = count
        ccount = run["candidates"]
        if key in candidates and candidates[key] != ccount:
            errors.append(
                f"INCONSISTENT candidates {key}: {candidates[key]} vs "
                f"{ccount} across threads (parity violation)")
        candidates[key] = ccount
        source = run.get("index_source", "")
        if source:
            if key in sources and sources[key] != source:
                errors.append(
                    f"INCONSISTENT index_source {key}: {sources[key]} vs "
                    f"{source}")
            sources[key] = source
    return results, candidates, sources, errors


def compare(section, counts, expected, report_path, expected_path, errors,
            diff_rows):
    for key, want in sorted(expected.items()):
        if key not in counts:
            print(f"MISSING {section} {key}: expected {want}, cell not in "
                  f"{report_path} (grid shrank?)")
            errors.append(key)
            diff_rows.append((section, key, want, None, "MISSING"))
        elif counts[key] != want:
            print(f"DRIFT {section} {key}: expected {want}, got "
                  f"{counts[key]}")
            errors.append(key)
            diff_rows.append((section, key, want, counts[key], "DRIFT"))
        else:
            diff_rows.append((section, key, want, counts[key], "ok"))
    for key in sorted(set(counts) - set(expected)):
        print(f"NEW {section} {key}: {counts[key]} not in {expected_path} "
              f"(run with --update to record)")
        errors.append(key)
        diff_rows.append((section, key, None, counts[key], "NEW"))


def print_diff(diff_rows):
    """Key-level expected-vs-actual table; the one artifact to read
    when CI fails."""
    width = max(len(f"{section} {key}") for section, key, _, _, _ in
                diff_rows)
    print("--- key-level diff (expected | actual) ---")
    for section, key, want, got, status in diff_rows:
        cell = f"{section} {key}".ljust(width)
        want_s = "-" if want is None else str(want)
        got_s = "-" if got is None else str(got)
        print(f"  {cell}  {want_s:>10} | {got_s:<10} {status}")


def main():
    args = [a for a in sys.argv[1:] if a != "--update"]
    update = "--update" in sys.argv[1:]
    if len(args) != 2:
        print(__doc__)
        return 2
    report_path, expected_path = args
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)

    results, candidates, sources, errors = collect_counts(report)
    for message in errors:
        print(message)

    if update:
        expected = {"results": results, "candidates": candidates}
        if sources:
            expected["index_source"] = sources
        with open(expected_path, "w", encoding="utf-8") as handle:
            json.dump(expected, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {expected_path} ({len(results)} result cells, "
              f"{len(candidates)} candidate cells, "
              f"{len(sources)} index-source cells)")
        return 1 if errors else 0

    with open(expected_path, encoding="utf-8") as handle:
        expected = json.load(handle)

    diff_rows = []
    compare("results", results, expected.get("results", {}), report_path,
            expected_path, errors, diff_rows)
    compare("candidates", candidates, expected.get("candidates", {}),
            report_path, expected_path, errors, diff_rows)
    # index_source cells are opt-in: only guard keys the expectations
    # name (a rebuilt-serving report legitimately has none).
    for key, want in sorted(expected.get("index_source", {}).items()):
        got = sources.get(key, "")
        if got != want:
            print(f"DRIFT index_source {key}: expected {want!r}, got "
                  f"{got!r} (snapshot serving silently fell back?)")
            errors.append(key)
        diff_rows.append(("index_source", key, want, got or None,
                          "ok" if got == want else "DRIFT"))

    if errors and diff_rows:
        print_diff(diff_rows)
    print(f"checked {len(expected.get('results', {}))} result + "
          f"{len(expected.get('candidates', {}))} candidate + "
          f"{len(expected.get('index_source', {}))} index-source cells "
          f"against {len(results)} + {len(candidates)} + {len(sources)} "
          f"report cells: {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
