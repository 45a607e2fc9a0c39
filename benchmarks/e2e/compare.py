"""Compare two sets of benchmark results: parent commit against a change.

Each input file is a results JSON written by ``run.py --out PREFIX``.
Give the runs of each side in the order they ran; the i-th parent run
and the i-th change run form a pair (alternate which side runs first)::

    python3 benchmarks/e2e/compare.py --parent p1.json p2.json ... \\
        --change c1.json c2.json ...

Per metric and workload the rule is, in this order:

* **regressed** — the change's median is worse than the parent's by
  more than the bound from ``BENCHMARK.json``;
* **unresolved** — either side's spread (quartile distance over the
  parent's median) is wider than the bound, unless every change run
  reads better than every parent run;
* **improved** — the change wins at least nine tenths of the pairs
  (ties count for neither) and the medians differ by more than the
  parent's quartile distance;
* **unchanged** — otherwise.

``fail_frac`` (failed / attempted outputs) is compared as a share: any
rise is a regression.  Exit code 1 when anything regressed.
"""

from __future__ import annotations

import argparse
import collections
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
WIN_SHARE = 0.9
VERDICTS = ("improved", "unchanged", "regressed", "unresolved")


def load_run(path) -> dict[str, dict]:
    """Workload -> {"values": {metric: value}, "attempted", "failed"}."""
    with open(path) as handle:
        payload = json.load(handle)
    return {
        name: {
            "values": {metric: entry["value"] for metric, entry in record["metrics"].items()},
            "attempted": record["attempted"],
            "failed": record["failed"],
        }
        for name, record in payload["workloads"].items()
    }


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Judge one metric on one workload; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    spread = quartile_spread(parent)
    scale = abs(parent_median) or 1.0
    pairs = list(zip(parent, change, strict=False))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (parent_median - change_median) / scale
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    noisy = max(spread, quartile_spread(change)) / scale > bound
    if worse_by > bound:
        outcome = "regressed"
    elif noisy and not all_better:
        outcome = "unresolved"
    elif win_share >= WIN_SHARE and sign * (change_median - parent_median) > spread:
        outcome = "improved"
    else:
        outcome = "unchanged"
    return {
        "verdict": outcome,
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_spread": spread,
        "change_spread": quartile_spread(change),
        "win_share": win_share,
    }


def fail_verdict(parent_runs: list[dict], change_runs: list[dict]) -> dict:
    def share(runs):
        attempted = sum(run["attempted"] for run in runs)
        return sum(run["failed"] for run in runs) / attempted if attempted else 0.0

    before, after = share(parent_runs), share(change_runs)
    outcome = "regressed" if after > before else "improved" if after < before else "unchanged"
    return {"verdict": outcome, "parent_median": before, "change_median": after}


def compare(parent_runs: list[dict], change_runs: list[dict], spec: dict) -> dict:
    """Workload -> metric -> verdict record, for every end-to-end metric."""
    out: dict[str, dict] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        parents = [run[workload] for run in parent_runs if workload in run]
        changes = [run[workload] for run in change_runs if workload in run]
        if not parents or not changes:
            continue
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            rows[name] = verdict(
                [run["values"][name] for run in parents],
                [run["values"][name] for run in changes],
                metric["better"],
                metric["bound"],
            )
        rows["fail_frac"] = fail_verdict(parents, changes)
        out[workload] = rows
    return out


def format_table(results: dict) -> str:
    """One summary row per workload, then one line per metric."""
    lines = [f"{'workload':<12}" + "".join(f"{v:>12}" for v in VERDICTS)]
    for workload, rows in results.items():
        counts = collections.Counter(row["verdict"] for row in rows.values())
        lines.append(f"{workload:<12}" + "".join(f"{counts[v]:>12}" for v in VERDICTS))
    for workload, rows in results.items():
        lines.append(f"\n{workload}")
        for name, row in rows.items():
            extra = (
                f"  spread {row['parent_spread']:.4g}/{row['change_spread']:.4g}"
                f"  wins {row['win_share']:.0%}"
                if "win_share" in row
                else ""
            )
            lines.append(
                f"  {name:<14} {row['verdict']:<10} parent {row['parent_median']:.6g}"
                f"  change {row['change_median']:.6g}{extra}"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True, help="parent results, in run order")
    parser.add_argument("--change", nargs="+", required=True, help="change results, in run order")
    parser.add_argument("--spec", default=ROOT / "BENCHMARK.json", help="benchmark definition")
    args = parser.parse_args(argv)
    with open(args.spec) as handle:
        spec = json.load(handle)
    results = compare(
        [load_run(path) for path in args.parent], [load_run(path) for path in args.change], spec
    )
    print(format_table(results))
    regressed = any(
        row["verdict"] == "regressed" for rows in results.values() for row in rows.values()
    )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
