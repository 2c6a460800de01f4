"""Compare two source trees on the perfbench workloads and write the result.

    python3 bench/record.py --parent DIR --change DIR --seeds 1 2 3 ... \
        [--trace-seed N] --out BENCH_<n>.json

Each tree must hold a checkout of this repository.  For every workload in
``BENCHMARK.json`` and every seed, ``perfbench/run.py --trace 0`` runs once in each tree, in a fresh
interpreter with the tree as its working directory; the order alternates
from seed to seed (parent first on the first seed, change first on the
next), so a drift of the machine over the run does not favour either side.
Each seed gives one pair.  Every run lasts ``run_seconds`` from
``BENCHMARK.json``.

Per workload and end-to-end metric the output holds, for each side, the
values in seed order, the median, the quartiles and the IQR (quartiles by
``statistics.quantiles(n=4)``), and the number of pairs the change wins
(strictly better in the metric's direction from ``BENCHMARK.json``), the
gap between the medians and whether that gap exceeds the parent's IQR.  It
also holds each side's ``correct`` flag and ``failed``/``attempted`` op
counts, summed over the runs.  With ``--trace-seed`` one ``--trace 1`` run
per side and workload adds the per-layer metrics at that seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``tree``; the JSON object on its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {tree} ({workload}, seed {seed}):\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    sign = 1 if better == "lower" else -1
    p, c = summary(parent), summary(change)
    gap = sign * (p["median"] - c["median"])  # positive when the change is better
    return {
        "better": better,
        "parent": p,
        "change": c,
        "wins": sum(sign * (a - b) > 0 for a, b in zip(parent, change)),
        "pairs": len(parent),
        "median_gap": gap,
        "gap_exceeds_parent_iqr": gap > p["iqr"],
    }


def record_workload(trees: dict[str, Path], workload: str, seeds: list[int],
                    seconds: float, better: dict[str, str]) -> dict:
    runs = {side: [] for side in trees}
    for n, seed in enumerate(seeds):
        order = ["parent", "change"] if n % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run_bench(trees[side], workload, seed, seconds, 0))
            print(f"{workload} seed {seed} {side}: "
                  f"wall_s {runs[side][-1]['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
    out = {
        "seeds": seeds,
        "order": ["parent-first" if n % 2 == 0 else "change-first" for n in range(len(seeds))],
        "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
        "metrics": {},
    }
    for name, direction in better.items():
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        entry = compare(values["parent"], values["change"], direction)
        entry["unit"] = runs["parent"][0]["metrics"][name]["unit"]
        out["metrics"][name] = entry
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path)
    p.add_argument("--change", required=True, type=Path)
    p.add_argument("--seeds", required=True, type=int, nargs="+")
    p.add_argument("--trace-seed", type=int)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("quartiles need at least two seeds")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {
        "command": ["python3", "perfbench/run.py", "--trace", "0"],
        "seconds": seconds,
        "trees": {side: tree.name for side, tree in trees.items()},
        "workloads": {
            w: record_workload(trees, w, args.seeds, seconds, better)
            for w in workloads
        },
    }
    if args.trace_seed is not None:
        doc["traced"] = {"seed": args.trace_seed, "workloads": {
            w: {side: {name: m["value"] for name, m in
                       run_bench(tree, w, args.trace_seed, seconds, 1)["metrics"].items()}
                for side, tree in trees.items()}
            for w in workloads
        }}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for w, res in doc["workloads"].items():
        wall = res["metrics"]["wall_s"]
        print(f"{w}: wall_s {wall['parent']['median']:.4f} -> {wall['change']['median']:.4f} s, "
              f"{wall['wins']}/{wall['pairs']} wins, parent IQR {wall['parent']['iqr']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
