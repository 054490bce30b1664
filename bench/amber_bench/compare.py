#!/usr/bin/env python3
"""Compares two sets of amber_bench result files.

    python3 bench/amber_bench/compare.py BASE NEW [--benchmark PATH]
                                         [--claim WORKLOAD:METRIC ...]

BASE and NEW are result files or directories searched recursively for
the <workload>.json files `amber_bench --out DIR` writes (traced results
are skipped). For every (workload, end-to-end metric) pair the report
gives each side's median and quartiles and BASE's spread (quartile
distance / median), and checks the NEW median against the bound
BENCHMARK.json fixes:

  ok          NEW is not worse than BASE by more than the bound
  better      NEW is better by more than the bound
  REGRESSION  NEW is worse by more than the bound
  unresolved  BASE's own spread (quartile distance / median) is wider than
              the bound, so a difference cannot be told from noise; unless
              every NEW run beats every BASE run ("better")

--claim WORKLOAD:METRIC applies the gain rule to one pair: at least 10
pairs of runs (BASE and NEW on the same seed, run alternately), NEW wins
at least 9 in 10 of them (ties count for neither side), and the medians
differ by more than BASE's quartile distance.

Exit status: 1 if any pair regressed or a claim is not met, else 0.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median (0 for a zero median)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def load_results(path):
    """{workload: [result dict, ...]} from a file or a directory tree."""
    files = []
    if os.path.isdir(path):
        for root, _, names in os.walk(path):
            files += [os.path.join(root, n) for n in names]
    else:
        files = [path]
    out = {}
    for f in sorted(files):
        if not f.endswith(".json"):
            continue
        try:
            with open(f) as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            continue
        if not isinstance(doc, dict) or "workload" not in doc:
            continue
        if doc.get("trace") or "metrics" not in doc:
            continue
        out.setdefault(doc["workload"], []).append(doc)
    return out


def is_better(a, b, better):
    """True when value a is strictly better than value b."""
    return a < b if better == "lower" else a > b


def verdict(base, new, metric):
    """Classifies NEW against BASE for one metric definition."""
    bound, better = metric["bound"], metric["better"]
    _, base_med, _ = quartiles(base)
    _, new_med, _ = quartiles(new)
    change = (new_med - base_med) / abs(base_med) if base_med else 0.0
    worse_by = change if better == "lower" else -change
    all_better = all(is_better(n, b, better) for n in new for b in base)
    if spread(base) > bound:
        return ("better" if all_better else "unresolved"), change
    if worse_by > bound:
        return "REGRESSION", change
    if -worse_by > bound:
        return "better", change
    return "ok", change


def pairs_by_seed(base_runs, new_runs, name):
    """(base value, new value) for each seed both sides ran."""
    base = {r["seed"]: r["metrics"][name]["value"] for r in base_runs}
    new = {r["seed"]: r["metrics"][name]["value"] for r in new_runs}
    return [(base[s], new[s]) for s in sorted(base) if s in new]


def claim(base_runs, new_runs, metric):
    """(met, explanation) for the gain rule on one (workload, metric)."""
    name, better = metric["name"], metric["better"]
    pairs = pairs_by_seed(base_runs, new_runs, name)
    if len(pairs) < 10:
        return False, f"{len(pairs)} pairs; at least 10 are needed"
    wins = sum(1 for b, n in pairs if is_better(n, b, better))
    if wins * 10 < 9 * len(pairs):
        return False, f"NEW won {wins} of {len(pairs)} pairs; 9 in 10 needed"
    base = [b for b, _ in pairs]
    new = [n for _, n in pairs]
    q1, base_med, q3 = quartiles(base)
    _, new_med, _ = quartiles(new)
    if not is_better(new_med, base_med, better):
        return False, "NEW's median is not better"
    if abs(new_med - base_med) <= q3 - q1:
        return False, (f"median gap {abs(new_med - base_med):.6g} is within "
                       f"BASE's quartile distance {q3 - q1:.6g}")
    return True, (f"NEW won {wins} of {len(pairs)} pairs; median gap "
                  f"{abs(new_med - base_med):.6g} > quartile distance "
                  f"{q3 - q1:.6g}")


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    ap.add_argument("--claim", action="append", default=[],
                    metavar="WORKLOAD:METRIC")
    args = ap.parse_args(argv)

    with open(args.benchmark) as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    base = load_results(args.base)
    new = load_results(args.new)

    failed = False
    # The bound is one per metric, wide enough for the noisiest workload;
    # the base spread column shows how much tighter a quieter pair is.
    print(f"{'workload':14s} {'metric':26s} {'base median [q1, q3]':36s} "
          f"{'new median [q1, q3]':36s} {'change':>8s} {'spread':>6s} "
          f"{'bound':>6s}  verdict")
    for w in bench["workloads"]:
        wl = w["name"]
        for name, m in metrics.items():
            b = [r["metrics"][name]["value"] for r in base.get(wl, [])
                 if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new.get(wl, [])
                 if name in r["metrics"]]
            if not b or not n:
                print(f"{wl:14s} {name:26s} missing results")
                failed = True
                continue
            v, change = verdict(b, n, m)
            failed = failed or v == "REGRESSION"
            print(f"{wl:14s} {name:26s} {fmt(b):36s} {fmt(n):36s} "
                  f"{change * 100:+7.1f}% {spread(b) * 100:5.1f}% "
                  f"{m['bound'] * 100:5.0f}%  {v}")
    for c in args.claim:
        wl, _, name = c.partition(":")
        if name not in metrics:
            print(f"claim {c}: unknown metric")
            failed = True
            continue
        met, why = claim(base.get(wl, []), new.get(wl, []), metrics[name])
        print(f"claim {c}: {'met' if met else 'NOT met'} ({why})")
        failed = failed or not met
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
