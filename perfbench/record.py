"""Rewrite reference.json: the exit code and stdout/stderr digests of every op
any workload can run, each run cold.  Ops with a tests/golden file must match
it before anything is written.

    python3 perfbench/record.py

Run it only when an op's output is meant to change, or when ops are added.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    reference = {}
    bench = run.Bench(run.load_package(), reference)
    for op in workloads.all_ops():
        _, code, out, err = bench.execute(op)
        if not isinstance(code, int):
            print(f"{op}: {code}", file=sys.stderr)
            return 1
        reference[op] = {"exit": code, "stdout": run.digest(out), "stderr": run.digest(err)}
        problem = bench.check(op, code, out, err)
        if problem:
            print(f"{op}: {problem}", file=sys.stderr)
            return 1
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(reference)} ops in {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
