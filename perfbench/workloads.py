"""Workload definitions: a fixed core list of CLI ops per workload, plus a
seeded draw from a size-capped pool of cheap ops of the same kind.

An op is one CLI verb, given as the argument string passed to
``lieinduct.cli.run``.  Every core and pool op has an expected exit code and
output digest in ``reference.json``; ops listed in ``GOLDEN`` are also
compared against the repository's ``tests/golden`` files.
"""

from __future__ import annotations

import random

# Ops drawn from the pool per run.  The totals (27, 45 and 44 ops) put the
# median and p90 of each pass's latencies inside one op's samples, not in
# the gap between two ops of different cost.
DRAW = {"decompose": 7, "characters": 5, "search": 7}

_DEFINING_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

CORE = {
    # Convolution, peeling and orbit expansion; little sharing between ops.
    "decompose": [
        "tensor E8 w1 w8",
        "wedge2 E7 w6",
        "tensor E8 w8 w8",
        "tensor B8 w8 w8",
        "tensor E7 w6 w7",
        "sym2 E8 w8",
        "wedge2 E8 w8",
        "wedge2 E6 w3",
        "tensor D8 w8 w8",
        "tensor A8 w4 w5",
        "sym2 D8 w8",
        "tensor A8 w3 w6",
        "wedge2 D8 w7 --format json",
        "wedge2 D7 w7",
        "tensor D7 w1 w7",
        "tensor F4 w1 w4",
        "sym2 F4 w4",
        "wedge2 F4 w4",
        "tensor E6 w1 w6",
        "sym2 E6 w1",
    ],
    # Full weight systems and the Freudenthal recursion; no tensor products.
    "characters": [
        "character E8 [0,1,0,0,0,0,0,1]",
        "character E8 2w1",
        "character E8 w2",
        "character D8 [1,0,0,0,0,0,1,1]",
        "character A8 [1,1,0,0,0,0,1,1]",
        "character B8 [0,1,0,0,0,0,0,1]",
        "character E7 2w1",
        "character F4 [1,1,0,0]",
    ]
    + [f"defining {t}" for t in _DEFINING_TYPES]
    + ["defining C3 --format json"],
    # Induction and deletion: many small memoized decompositions and
    # repeated defining checks, plus two ops that must fail with exit 1.
    "search": [
        "report E9",
        "report F5 --format json",
        "report G3 --depth 48",
        "induct G2 w1 --depth 64",
        "induct A8 w3",
        "induct E7 w7 --depth 48",
        "induct D7 w7 --depth 48",
        "table2",
    ]
    + [f"delete E8 --node {n}" for n in range(1, 9)]
    + [f"delete E7 --node {n}" for n in range(1, 8)]
    + [f"delete E6 --node {n}" for n in range(1, 7)]
    + [f"delete F4 --node {n}" for n in range(1, 5)]
    + [
        "delete G2 --node 1 --format json",
        "equivalences D4 --node 1 --format json",
        "dim E8 [-1,0,0,0,0,0,0,0]",
        "delete E8 --node 9",
    ],
}

# Each pool lies wholly on one side of the core ops that set op_p50_s and
# op_p90_s (measured cold), so the draw changes which ops run but not which
# op sits at either percentile; it moves wall_s by about one per cent.
POOL = {
    # All cheaper than the 14th-largest core op, the decompose median.
    "decompose": [f"tensor {a}" for a in (
        "A5 w1 w2", "A5 w2 w3", "A6 w2 w4", "A7 w1 w4", "A6 w1 w6",
        "B4 w1 w4", "B5 w1 w5", "C4 w2 w3", "C5 w1 w2", "D5 w4 w5",
        "D6 w1 w6", "E6 w1 w1", "G2 w1 w2", "G2 w2 w2", "B6 w1 w6",
        "A8 w1 w8",
    )]
    + [f"wedge2 {a}" for a in ("A6 w3", "A7 w2", "B5 w5", "C4 w3", "C5 w2", "D6 w6", "F4 w1")]
    + [f"sym2 {a}" for a in ("A6 w3", "A7 w2", "B5 w5", "C4 w3", "D6 w6")],
    # Dearer than the characters median op, cheaper than its p90 op.
    "characters": [f"character {a}" for a in (
        "D7 [1,1,0,0,0,0,1]", "E7 w5", "A7 [1,1,0,0,0,1,1]",
        "C6 [0,1,0,0,0,1]", "E6 [1,1,0,0,0,1]", "A8 [1,0,0,1,0,0,0,1]",
        "E7 w3", "C5 [1,1,0,0,1]", "D6 [1,1,0,0,0,1]", "E7 [1,0,0,0,0,0,1]",
        "E8 w8", "E7 2w7", "F4 [0,1,0,1]", "B5 [1,1,0,0,1]",
        "D6 [0,0,1,0,0,1]", "E6 w4",
    )],
    # All cheaper than the search median op.
    "search": [f"delete {a}" for a in (
        "A5 --node 2", "A7 --node 3", "C6 --node 1", "C4 --node 4",
        "C5 --node 1", "A6 --node 3", "D5 --node 5", "D5 --node 1",
        "B4 --node 4", "B4 --node 1", "B3 --node 1", "A4 --node 2",
        "C3 --node 3", "A3 --node 1", "D4 --node 2", "G2 --node 2",
    )]
    + [f"equivalences {a}" for a in (
        "A6 --node 1", "D5 --node 4", "B5 --node 1", "F4 --node 4",
        "A4 --node 1", "B3 --node 3", "G2 --node 1", "C4 --node 1",
        "D4 --node 3",
    )]
    + [f"induct {a}" for a in (
        "A3 w1 --depth 12", "A2 w1 --depth 8", "A4 w2 --depth 12",
        "B3 w1 --depth 12", "F4 w4 --depth 12",
    )],
}

# Ops whose JSON output is pinned by a file in tests/golden.
GOLDEN = {
    "wedge2 D8 w7 --format json": "wedge2_d8_w7.json",
    "defining C3 --format json": "defining_c3.json",
    "report F5 --format json": "report_f5.json",
    "delete G2 --node 1 --format json": "delete_g2_node1.json",
    "equivalences D4 --node 1 --format json": "equivalences_d4.json",
}

# One cheap op per workload for the smoke test.
SMOKE = {
    "decompose": "tensor A5 w1 w2",
    "characters": "defining C3 --format json",
    "search": "induct A4 w2 --depth 12",
}


def ops_for(workload: str, seed: int) -> list[str]:
    """The core list followed by pool ops chosen by the seed."""
    return CORE[workload] + random.Random(seed).sample(POOL[workload], DRAW[workload])


def all_ops() -> list[str]:
    """Every op any seed can run, each once."""
    return list(dict.fromkeys(op for w in CORE for op in CORE[w] + POOL[w]))
