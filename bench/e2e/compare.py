#!/usr/bin/env python3
"""Compare two results files written by bench/e2e/run.py.

    python3 bench/e2e/compare.py A.json B.json

A is the baseline, B the candidate; both must come from the same seed.
Each row is one workload and end-to-end metric, with both medians and
interquartile ranges and a verdict against the bound in BENCHMARK.json:

  ok          B is not worse than A by more than the bound
  worse       B is worse than A by more than the bound
  unresolved  an IQR is wider than the bound (relative to its median), and
              not every B sample beats every A sample
  mismatch    a modelled metric (virtual clock) or a layer count differs;
              these repeat exactly for a seed, so any change is a result
              change, not noise

Exit status: 0 when every row is ok or unresolved, 1 on worse or mismatch,
2 when the files cannot be compared.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def relative_iqr(entry):
    median = entry["median"]
    return (entry["q3"] - entry["q1"]) / abs(median) if median else 0.0


def verdict(a, b, bound, better):
    if a["exact"]:
        # run.py already requires every rep of a run to agree exactly.
        return ("ok" if a["median"] == b["median"] else "mismatch"), 0.0
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["median"] - a["median"]) / abs(a["median"]) \
        if a["median"] else 0.0
    if max(relative_iqr(a), relative_iqr(b)) > bound:
        b_always_better = all(sign * (y - x) < 0 for y in b["samples"]
                              for x in a["samples"])
        return ("ok" if b_always_better else "unresolved"), change
    return ("worse" if change > bound else "ok"), change


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in argv[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if a_doc["seed"] != b_doc["seed"] or a_doc["smoke"] != b_doc["smoke"]:
        print("compare.py: runs differ in seed or scale (seed %s vs %s)"
              % (a_doc["seed"], b_doc["seed"]), file=sys.stderr)
        return 2

    print("%-16s %-15s %-6s %13s %10s %13s %10s %8s %6s  %s" % (
        "workload", "metric", "unit", "A median", "A IQR", "B median",
        "B IQR", "change", "bound", "verdict"))
    failed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        a = a_doc["workloads"].get(workload)
        b = b_doc["workloads"].get(workload)
        if a is None or b is None or "e2e" not in a or "e2e" not in b:
            print("%-16s missing from one of the runs" % workload)
            failed = True
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ea, eb = a["e2e"][name], b["e2e"][name]
            result, change = verdict(ea, eb, metric["bound"], metric["better"])
            failed |= result in ("worse", "mismatch")
            print("%-16s %-15s %-6s %13.6g %10.3g %13.6g %10.3g %+7.1f%% "
                  "%5.0f%%  %s" % (
                      workload, name, metric["unit"], ea["median"],
                      ea["q3"] - ea["q1"], eb["median"], eb["q3"] - eb["q1"],
                      100 * change, 100 * metric["bound"], result))
        for key in sorted(set(a["counts"]) | set(b["counts"])):
            if a["counts"].get(key) != b["counts"].get(key):
                print("%-16s %-26s count %s vs %s  mismatch" % (
                    workload, key, a["counts"].get(key), b["counts"].get(key)))
                failed = True
        if not (a["correct"] and b["correct"]):
            print("%-16s a run is not correct" % workload)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
