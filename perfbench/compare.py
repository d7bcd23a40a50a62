#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py <parent-dir> <change-dir>

Each directory holds the saved standard output of runs of
`perfbench/run.py`, one run per file. Runs are grouped by workload and
paired by seed (by file order when the seeds differ). For each workload
and end-to-end metric the table gives each side's median and quartiles,
the pairs the change won, the bound from BENCHMARK.json and a verdict:

- improved: the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the parent's
  interquartile distance;
- regressed: the change's median is worse than the parent's by more than
  the bound;
- unresolved: the parent's own spread (interquartile distance over median)
  is wider than the bound and not every change run beats every parent run;
- no worse: otherwise.

Traced runs (per-layer metrics) are summarised by median with no verdict.
Exits with code 1 if any metric regressed.
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_runs(directory):
    """[(workload, seed, trace, metrics)] from every run output in a dir."""
    runs = []
    for path in sorted(pathlib.Path(directory).iterdir()):
        if not path.is_file():
            continue
        lines = path.read_text().splitlines()
        prov = next((json.loads(l.split(" ", 1)[1]) for l in lines
                     if l.startswith("provenance {")), None)
        result = next((json.loads(l) for l in reversed(lines) if l.startswith("{")), None)
        if prov is None or result is None:
            print(f"skipping {path}: no provenance or result line", file=sys.stderr)
            continue
        if not result["correct"]:
            print(f"warning: {path} failed its output checks", file=sys.stderr)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append((prov["workload"], prov["seed"], prov["trace"], metrics))
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pair_up(parent, change):
    """Pairs of (parent value, change value) per metric source run."""
    pseeds = [s for s, _ in parent]
    cseeds = [s for s, _ in change]
    if sorted(pseeds) == sorted(cseeds) and len(set(pseeds)) == len(pseeds):
        by_seed = dict(change)
        return [(m, by_seed[s]) for s, m in parent]
    return [(p[1], c[1]) for p, c in zip(parent, change)]


def verdict(pvals, cvals, pairs, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    pq1, pmed, pq3 = quartiles(pvals)
    _, cmed, _ = quartiles(cvals)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (pairs and wins >= 0.9 * len(pairs) and sign * (cmed - pmed) > 0
            and abs(cmed - pmed) > pq3 - pq1):
        return "improved", wins
    spread = (pq3 - pq1) / abs(pmed) if pmed else float("inf")
    all_better = all(sign * (c - p) > 0 for c in cvals for p in pvals)
    if spread > bound and not all_better:
        return "unresolved", wins
    worse = -sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
    if worse > bound:
        return "regressed", wins
    return "no worse", wins


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        p = [(s, m) for w, s, t, m in parent if w == workload and t == 0]
        c = [(s, m) for w, s, t, m in change if w == workload and t == 0]
        if p and c:
            print(f"\n{workload}: {len(p)} parent runs, {len(c)} change runs")
            print(f"  {'metric':<18} {'unit':<6} {'parent median [q1, q3]':<34} "
                  f"{'change median [q1, q3]':<34} {'delta':>8} {'wins':>6} {'bound':>6}  verdict")
            pairs_runs = pair_up(p, c)
            for name, m in e2e.items():
                pv = [r[name] for _, r in p if name in r]
                cv = [r[name] for _, r in c if name in r]
                if not pv or not cv:
                    continue
                pairs = [(a[name], b[name]) for a, b in pairs_runs if name in a and name in b]
                v, wins = verdict(pv, cv, pairs, m["better"], m["bound"])
                regressed |= v == "regressed"
                pq = quartiles(pv)
                cq = quartiles(cv)
                delta = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
                print(f"  {name:<18} {m['unit']:<6} "
                      f"{pq[1]:>11.4g} [{pq[0]:.4g}, {pq[2]:.4g}]".ljust(62)
                      + f"{cq[1]:>11.4g} [{cq[0]:.4g}, {cq[2]:.4g}]".ljust(35)
                      + f"{delta:>+8.1%} {wins:>3}/{len(pairs):<2} {m['bound']:>6}  {v}")
        pt = [m for w, _, t, m in parent if w == workload and t == 1]
        ct = [m for w, _, t, m in change if w == workload and t == 1]
        if pt or ct:
            print(f"  per-layer medians (traced runs: {len(pt)} parent, {len(ct)} change)")
            names = sorted(set().union(*pt, *ct))
            for name in names:
                pm = statistics.median([r[name] for r in pt if name in r]) if pt else float("nan")
                cm = statistics.median([r[name] for r in ct if name in r]) if ct else float("nan")
                print(f"    {name:<40} {pm:>14.6g} {cm:>14.6g}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
