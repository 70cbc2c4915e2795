#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark records.

    python3 bench/e2e/compare.py A/*.json B/*.json

A and B are the full records run.sh writes to bench/e2e/build/results/
(copy each side's records into its own directory): A is the baseline, B
the candidate. Files are grouped by directory, first directory first.

For every (workload, end-to-end metric) it prints each side's median and
quartiles and a verdict, using the metric's direction and bound from
BENCHMARK.json:

  better              B wins at least 9/10 of the paired runs (paired by
                      seed, ties count for neither) and the medians differ
                      by more than A's interquartile range
  unresolved          a side's spread (IQR / median) is wider than the
                      bound, and not every B run beats every A run
  worse beyond bound  B's median is worse than A's by more than the bound
  same                otherwise

setup_s is judged on its median alone (never unresolved): it guards
against work moved into set-up, and a few short set-ups per run follow
the host's speed more than the code. error_ratio (failed / attempted) is
compared with an absolute bound of 0.001. Runs with different
hardware_threads are refused. Exits 1 when any pair is worse beyond bound
or unresolved, or any run failed its checks.
"""
import json
import statistics
import sys
from pathlib import Path

ERROR_RATIO_BOUND = 0.001


def load_records(paths):
    groups = {}
    for path in paths:
        p = Path(path)
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        for f in files:
            with open(f) as fh:
                record = json.load(fh)
            if "workload" not in record or "end_to_end" not in record:
                raise SystemExit(f"{f}: not a full benchmark record")
            key = str(p if p.is_dir() else p.parent)
            groups.setdefault(key, []).append(record)
    if len(groups) != 2:
        raise SystemExit(
            f"need records from exactly two directories, got {len(groups)}")
    return list(groups.values())


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(a, b, pairs, lower_better, bound, median_only=False):
    """a, b: value lists; pairs: [(a_value, b_value)] matched by seed."""
    med_a, q1_a, q3_a = summary(a)
    med_b, q1_b, q3_b = summary(b)
    sign = 1.0 if lower_better else -1.0
    def beats(x, y):  # x better than y
        return sign * (x - y) < 0
    wins = sum(1 for va, vb in pairs if beats(vb, va))
    scale = abs(med_a) if med_a else 1.0
    spread = max((q3_a - q1_a) / scale,
                 (q3_b - q1_b) / (abs(med_b) if med_b else 1.0))
    worse_by = sign * (med_b - med_a) / scale
    all_better = all(beats(vb, va) for va in a for vb in b)
    if (pairs and wins >= 0.9 * len(pairs) and beats(med_b, med_a)
            and abs(med_b - med_a) > (q3_a - q1_a)):
        return "better"
    if spread > bound and not all_better and not median_only:
        return "unresolved"
    if worse_by > bound:
        return "worse beyond bound"
    return "same"


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 2
    root = Path(__file__).resolve().parents[2]
    with open(root / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    side_a, side_b = load_records(argv[1:])

    threads = {r["hardware_threads"] for r in side_a + side_b}
    if len(threads) != 1:
        print(f"refusing to compare runs from different hosts: "
              f"hardware_threads {sorted(threads)}")
        return 2

    status = 0
    for r in side_a + side_b:
        if not r.get("correct") or not r.get("valid", True):
            print(f"run failed its checks: {r['workload']} seed {r['seed']}")
            status = 1

    workloads = sorted({r["workload"] for r in side_a} &
                       {r["workload"] for r in side_b})
    print(f"{'workload':16} {'metric':16} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34}  verdict")
    for w in workloads:
        ra = {r["seed"]: r for r in side_a if r["workload"] == w}
        rb = {r["seed"]: r for r in side_b if r["workload"] == w}
        common = sorted(set(ra) & set(rb))
        rows = [(name, spec["better"] == "lower", spec["bound"],
                 lambda r, n=name: r["end_to_end"][n]["value"])
                for name, spec in metrics.items()]
        rows.append(("error_ratio", True, None,
                     lambda r: r["failed"] / max(r["attempted"], 1)))
        for name, lower_better, bound, get in rows:
            try:
                a = [get(r) for r in ra.values()]
                b = [get(r) for r in rb.values()]
            except KeyError:
                print(f"{w:16} {name:16} missing from some records")
                status = 1
                continue
            pairs = [(get(ra[s]), get(rb[s])) for s in common]
            if bound is None:  # absolute bound on the failure share
                worse = statistics.median(b) - statistics.median(a)
                v = ("worse beyond bound" if worse > ERROR_RATIO_BOUND
                     else "same")
            else:
                v = verdict(a, b, pairs, lower_better, bound,
                            median_only=name == "setup_s")
            med_a, q1_a, q3_a = summary(a)
            med_b, q1_b, q3_b = summary(b)
            print(f"{w:16} {name:16} {med_a:12.6g} [{q1_a:9.4g}, {q3_a:9.4g}] "
                  f"{med_b:12.6g} [{q1_b:9.4g}, {q3_b:9.4g}]  {v}")
            if v in ("worse beyond bound", "unresolved"):
                status = 1
        # At one seed the release and its accuracy are deterministic: a
        # difference means the change altered what is computed.
        for s in common:
            for section, key in (("detail", "release_digest"),
                                 ("end_to_end", "answer_l2_error")):
                va = ra[s][section].get(key, {}).get("value")
                vb = rb[s][section].get(key, {}).get("value")
                if va != vb:
                    print(f"{w:16} {key} differs at seed {s}: "
                          f"outputs changed")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
