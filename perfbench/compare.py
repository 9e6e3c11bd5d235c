"""Compare two result sets of the benchmark, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``*.json`` result files that ``run.py`` wrote
(untraced, full-size runs are used).  For every workload and end-to-end
metric in ``BENCHMARK.json`` it prints each side's median and quartiles,
the share of seed-matched pairs the change won (ties count for neither)
and a verdict against the metric's bound:

- ``regression``: the change's median is worse by more than the bound;
- ``gain``: the change won at least 9 in 10 pairs and the medians differ
  by more than the parent's own quartile spread;
- ``unresolved``: the parent's quartile spread is wider than the bound,
  unless every change run beats every parent run (then ``gain``);
- ``unchanged``: none of these.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(directory) -> dict:
    """workload -> list of result records, sorted by seed."""
    out = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0 and not rec.get("tiny"):
            out[rec["workload"]].append(rec)
    for recs in out.values():
        recs.sort(key=lambda r: r["seed"])
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent: list[dict], change: list[dict], name: str):
    """Seed-matched value pairs; runs of a seed seen on both sides pair up
    in order."""
    by_seed = defaultdict(lambda: ([], []))
    for side, recs in ((0, parent), (1, change)):
        for r in recs:
            by_seed[r["seed"]][side].append(r["result"]["metrics"][name]["value"])
    out = []
    for p, c in by_seed.values():
        out += list(zip(p, c))
    return out


def verdict(p_vals, c_vals, pair_list, bound: float, lower_better: bool) -> dict:
    sign = 1.0 if lower_better else -1.0
    pq1, pmed, pq3 = quartiles(p_vals)
    cq1, cmed, cq3 = quartiles(c_vals)
    spread = (pq3 - pq1) / abs(pmed) if pmed else float("inf")
    worse = sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
    wins = sum(sign * (p - c) > 0 for p, c in pair_list)
    won = wins / len(pair_list) if pair_list else 0.0
    all_better = all(sign * (p - c) > 0 for p in p_vals for c in c_vals)
    if spread > bound:
        v = "gain" if all_better else "unresolved"
    elif worse > bound:
        v = "regression"
    elif won >= 0.9 and worse < 0 and abs(cmed - pmed) > (pq3 - pq1):
        v = "gain"
    else:
        v = "unchanged"
    return {"parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3),
            "spread": spread, "worse": worse, "won": won,
            "pairs": len(pair_list), "verdict": v}


def failed_share(recs: list[dict]) -> str:
    att = sum(r["result"]["attempted"] for r in recs)
    fail = sum(r["result"]["failed"] for r in recs)
    return f"{fail}/{att}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        bench = json.load(fh)
    parent, change = load(args.parent), load(args.change)
    regressions = 0
    for wl in [w["name"] for w in bench["workloads"]]:
        p, c = parent.get(wl, []), change.get(wl, [])
        print(f"== {wl}: {len(p)} parent runs (failed {failed_share(p)}), "
              f"{len(c)} change runs (failed {failed_share(c)})")
        if not p or not c:
            print("   no runs to compare")
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            p_vals = [r["result"]["metrics"][name]["value"] for r in p]
            c_vals = [r["result"]["metrics"][name]["value"] for r in c]
            v = verdict(p_vals, c_vals, pairs(p, c, name), m["bound"],
                        m["better"] == "lower")
            regressions += v["verdict"] == "regression"
            print(f"   {name:24s} parent {v['parent'][1]:.6g} "
                  f"[{v['parent'][0]:.6g}, {v['parent'][2]:.6g}]  "
                  f"change {v['change'][1]:.6g} "
                  f"[{v['change'][0]:.6g}, {v['change'][2]:.6g}] {m['unit']}  "
                  f"worse {100 * v['worse']:+.1f}% (bound {100 * m['bound']:.0f}%, "
                  f"spread {100 * v['spread']:.1f}%)  won {v['won']:.0%} of "
                  f"{v['pairs']}  -> {v['verdict']}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
