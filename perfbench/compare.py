#!/usr/bin/env python3
"""Summarize and compare result files written by perfbench/run.py.

    python3 perfbench/compare.py summary DIR
    python3 perfbench/compare.py diff BASE_DIR HEAD_DIR

`summary` prints, per workload and metric, the median over the result files
in DIR and the spread: the distance between the first and third quartiles
as a share of the median. End-to-end metrics are shown with their bound from
BENCHMARK.json and flagged WIDE when the spread exceeds it.

`diff` compares the medians of two directories, metric by metric and
workload by workload. An end-to-end metric whose head median is worse than
the base median by more than its bound is a REGRESSION; one whose base
spread exceeds its bound is UNRESOLVED unless every head run beats every
base run. Per-layer metrics are shown without a verdict. Wall-time metrics
(units s, ms, us, 1/s) are refused when the two sides ran on different core
counts.

Exit code: 0 when nothing regressed, 1 on a regression, 2 when a comparison
was refused or the input is unusable.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WALL_UNITS = {"s", "ms", "us", "1/s"}


def dictionary():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load(path):
    """Result documents of `path`, grouped by (workload, trace)."""
    groups = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".json"):
            with open(os.path.join(path, name)) as f:
                doc = json.load(f)
            key = (doc["provenance"]["workload"], doc["provenance"]["trace"])
            groups.setdefault(key, []).append(doc)
    if not groups:
        sys.exit(f"compare.py: no result files in {path}")
    return groups


def values(docs, name):
    return [d["result"]["metrics"][name]["value"] for d in docs]


def spread(vals):
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return (q3 - q1) / abs(med) if med else float("inf")


def cores(docs):
    return sorted({d["provenance"]["cores"] for d in docs})


def summary(path):
    spec = dictionary()
    for (workload, trace), docs in sorted(load(path).items()):
        print(f"{workload} (trace {trace}): {len(docs)} runs, cores {cores(docs)}")
        for name, m in docs[0]["result"]["metrics"].items():
            vals = values(docs, name)
            s = spread(vals)
            bound = spec.get(name, {}).get("bound")
            flag = "" if bound is None else ("WIDE" if s > bound else "ok")
            bound_txt = "" if bound is None else f"bound {bound:<5}"
            print(f"  {name:26} {statistics.median(vals):>14.6g} {m['unit']:6} "
                  f"spread {s:7.4f} {bound_txt} {flag}")
    return 0


def worse_by(base, head, better):
    """How much worse `head` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0 if head == base else float("inf")
    change = (head - base) / abs(base)
    return change if better == "lower" else -change


def diff(base_path, head_path):
    spec = dictionary()
    base, head = load(base_path), load(head_path)
    status = 0
    for key in sorted(base.keys() & head.keys()):
        b, h = base[key], head[key]
        same_cores = cores(b) == cores(h) and len(cores(b)) == 1
        print(f"{key[0]} (trace {key[1]}): base {len(b)} runs on {cores(b)} cores, "
              f"head {len(h)} runs on {cores(h)} cores")
        for name, m in b[0]["result"]["metrics"].items():
            unit = m["unit"]
            if unit in WALL_UNITS and not same_cores:
                print(f"  {name:26} refused: wall-time metric across different core counts")
                status = max(status, 2)
                continue
            bv, hv = values(b, name), values(h, name)
            bm, hm = statistics.median(bv), statistics.median(hv)
            info = spec.get(name, {})
            better, bound = info.get("better"), info.get("bound")
            verdict = ""
            if bound is not None:
                worse = worse_by(bm, hm, better)
                all_better = all(worse_by(x, y, better) < 0 for x in bv for y in hv)
                if spread(bv) > bound and not all_better:
                    verdict = "UNRESOLVED"
                elif worse > bound:
                    verdict = "REGRESSION"
                    status = max(status, 1)
                else:
                    verdict = "ok"
            change = (hm - bm) / abs(bm) if bm else 0.0
            print(f"  {name:26} {bm:>14.6g} -> {hm:<14.6g} {unit:6} {change:+8.2%} {verdict}")
    missing = sorted(base.keys() ^ head.keys())
    if missing:
        print(f"only on one side: {missing}")
    return status


def main(argv):
    if len(argv) == 2 and argv[0] == "summary":
        return summary(argv[1])
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
