"""Acceptance gate: nine exact-integer criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is exact (no tolerances anywhere).
"""

import os
import random
import sys

sys.path.insert(0, os.path.dirname(__file__))

from oracles import brute_tensor_decompose, root_to_weight, simple_reflection

from lieinduct.cli import run
from lieinduct.deletion import delete_node, deletion_equivalences, summary_rows, verify_table2
from lieinduct.induction import exceptional_report, induction_search
from lieinduct.rep_theory import defining_modules, freudenthal_character, weyl_dim
from lieinduct.root_system import (
    DynkinType,
    build_root_system,
    coxeter_number,
    parse_dynkin,
)
from lieinduct.tensor_ops import sym2_decompose, tensor_decompose, wedge2_decompose


def rsys(label):
    return build_root_system(parse_dynkin(label))


def w(rank, idx, scale=1):
    out = [0] * rank
    if idx:
        out[idx - 1] = scale
    return tuple(out)


def _report(n, ok, text):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


ALL_TYPES = (
    [("A", l) for l in range(1, 9)]
    + [("B", l) for l in range(2, 9)]
    + [("C", l) for l in range(3, 9)]
    + [("D", l) for l in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def test_criterion_1_highest_root_table():
    def expected(family, l):
        if family == "A":
            coords = (1,) * l
            height = l
            adj = tuple((1 if i in (0, l - 1) else 0) for i in range(l))
            if l == 1:
                adj = (2,)  # w1 + wl degenerates to 2w at rank one
        elif family == "B":
            coords = (1,) + (2,) * (l - 1)
            height = 2 * l - 1
            # the w2 pattern needs three nodes; at rank two the adjoint
            # weight is twice the short fundamental weight
            adj = w(l, 2) if l >= 3 else (0, 2)
        elif family == "C":
            coords = (2,) * (l - 1) + (1,)
            height = 2 * l - 1
            adj = w(l, 1, 2)
        elif family == "D":
            coords = (1,) + (2,) * (l - 3) + (1, 1)
            height = 2 * l - 3
            adj = w(l, 2)
        else:
            table = {
                ("E", 6): ((1, 2, 2, 3, 2, 1), 11, w(6, 2)),
                ("E", 7): ((2, 2, 3, 4, 3, 2, 1), 17, w(7, 1)),
                ("E", 8): ((2, 3, 4, 6, 5, 4, 3, 2), 29, w(8, 8)),
                ("F", 4): ((2, 3, 4, 2), 11, w(4, 1)),
                ("G", 2): ((3, 2), 5, w(2, 2)),
            }
            coords, height, adj = table[(family, l)]
        return coords, height, adj

    for family, l in ALL_TYPES:
        rs = build_root_system(DynkinType(family, l))
        coords, height, adj = expected(family, l)
        assert rs.highest_root == coords, (family, l)
        assert sum(rs.highest_root) == height, (family, l)
        assert rs.positive_weights[-1] == root_to_weight(rs, rs.highest_root) == adj, (family, l)
        assert sum(rs.highest_root) == coxeter_number(rs) - 1, (family, l)
    _report(1, True, "highest roots, heights, adjoint weights and ht = h - 1 "
                     f"for all {len(ALL_TYPES)} types")


def test_criterion_2_defining_module_lists():
    expected = {}
    expected[("A", 1)] = {(0,), (1,), (2,), (3,)}
    for l in range(2, 9):
        expected[("A", l)] = (
            {w(l, 0)} | {w(l, i) for i in range(1, l + 1)} | {w(l, 1, 2), w(l, l, 2)}
        )
    for l in range(2, 9):
        expected[("B", l)] = {w(l, 0), w(l, 1), w(l, l)}
    expected[("C", 3)] = {w(3, 0), w(3, 1), w(3, 3)}
    for l in range(4, 9):
        expected[("C", l)] = {w(l, 0), w(l, 1)}
    for l in range(4, 9):
        expected[("D", l)] = {w(l, 0), w(l, 1), w(l, l - 1), w(l, l)}
    expected[("E", 6)] = {w(6, 0), w(6, 1), w(6, 6)}
    expected[("E", 7)] = {w(7, 0), w(7, 7)}
    expected[("E", 8)] = {w(8, 0)}
    expected[("F", 4)] = {w(4, 0)}
    expected[("G", 2)] = {w(2, 0), w(2, 1)}

    for (family, l), want in expected.items():
        rs = build_root_system(DynkinType(family, l))
        got = {md.highest_weight for md in defining_modules(rs)}
        assert got == want, (family, l, got)
    _report(2, True, f"defining-module lists match for {len(expected)} algebras, "
                     "set equality with no extras")


def test_criterion_3_deletion_summary_table():
    rows = verify_table2()
    assert all(r.ok for r in rows)
    assert rows[-1].name == "A1/1/-"  # the rank-one special case ran
    _report(3, True, f"all {len(rows)} instantiated deletion rows verified "
                     "(19 summary rows over ranks 2..8 plus the rank-one case)")


def test_criterion_4_named_decompositions():
    checks = [
        (wedge2_decompose(rsys("D8"), w(8, 7)), {w(8, 2): 1, w(8, 6): 1}),
        (wedge2_decompose(rsys("A7"), w(7, 3)), {(0, 1, 0, 1, 0, 0, 0): 1, w(7, 6): 1}),
        (wedge2_decompose(rsys("D7"), w(7, 6)), {w(7, 5): 1, w(7, 1): 1}),
        (wedge2_decompose(rsys("B3"), w(3, 3)), {w(3, 1): 1, w(3, 2): 1}),
        (wedge2_decompose(rsys("G2"), (1, 0)), {(1, 0): 1, (0, 1): 1}),
        (
            tensor_decompose(rsys("A8"), w(8, 3), w(8, 6)),
            {
                (0, 0, 1, 0, 0, 1, 0, 0): 1,
                (0, 1, 0, 0, 0, 0, 1, 0): 1,
                (1, 0, 0, 0, 0, 0, 0, 1): 1,
                w(8, 0): 1,
            },
        ),
    ]
    for dec, want in checks:
        assert dec.as_multiset() == want
    # the A6 wedge contains the named kernel summand
    a6 = wedge2_decompose(rsys("A6"), w(6, 3))
    assert a6.as_multiset()[(0, 1, 0, 1, 0, 0)] == 1
    for l in range(3, 7):
        dec = wedge2_decompose(rsys(f"C{l}"), w(l, 1))
        assert dec.as_multiset() == {w(l, 2): 1, w(l, 0): 1}
    _report(4, True, "all named wedge/tensor decompositions reproduce exactly "
                     "(D8, A7, A6, D7, B3, C3..C6, G2, A8)")


def _state_dimension(label, chain):
    """The DBOS dimension of the search state that holds chain."""
    states = induction_search(rsys(label), chain[0], max_depth=len(chain))
    [dim] = [s.dbos_dimension for s in states if s.weights == chain]
    return dim


def test_criterion_5_dimension_arithmetic_and_reports():
    assert _state_dimension("D8", (w(8, 7),)) == 377
    assert _state_dimension("A8", (w(8, 3),)) == 249
    assert _state_dimension("A8", (w(8, 3), w(8, 6))) == 417
    assert _state_dimension("B4", (w(4, 4),)) == 69

    g2_states = induction_search(rsys("G2"), (1, 0), max_depth=8)
    assert any(s.terminated and len(s.chain) == 2 and s.dbos_dimension == 43
               for s in g2_states)
    a2_states = induction_search(rsys("A2"), (1, 0), max_depth=8)
    assert any(s.terminated and len(s.chain) == 7 and s.dbos_dimension == 43
               for s in a2_states)

    e9 = exceptional_report("E9")
    assert not e9.consistent
    assert dict(e9.base_dims)["D8"] == (377,)
    assert {249, 417} <= set(dict(e9.base_dims)["A8"])

    f5 = exceptional_report("F5")
    assert not f5.consistent
    assert f5.analysis["required_f4_module_dimension"] == 8
    assert f5.analysis["required_module_exists"] is False

    g3 = exceptional_report("G3", max_depth=14)
    assert g3.consistent
    matches = g3.analysis["per_length_matches"]
    assert len(matches) >= 4 and all(ok for _, _, ok in matches)
    _report(5, True, "377 / 249 / 417 / 69 / 43 (both routes); E9 inconsistent, "
                     "F5 misses the 8-dimensional module, G3 matches at every length")


def test_criterion_6_multiplicity_facts():
    for l in range(2, 9):
        rs = rsys(f"A{l}")
        adj = tuple(1 if i in (0, l - 1) else 0 for i in range(l))
        assert freudenthal_character(rs, adj).entries[(0,) * l] == l
    assert freudenthal_character(rsys("F4"), w(4, 4)).entries[(0,) * 4] == 2

    c3 = freudenthal_character(rsys("C3"), w(3, 3)).entries
    assert (0, 0, 0) not in c3
    assert len(c3) == 2 and set(c3.values()) == {1}

    rs1 = rsys("A1")
    table = freudenthal_character(rs1, (3,)).entries
    full = freudenthal_character(rs1, (3,)).expand(rs1)
    assert len(full) == 4 and set(full.values()) == {1}
    assert len(table) == 2  # two orbits
    _report(6, True, "zero-weight multiplicities (A2..A8 adjoints, F4), the C3 "
                     "long-root module and the rank-one cubic module check out")


def test_criterion_7_property_suites():
    rng = random.Random(411)
    labels = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"]
    corpus = set()
    done = 0
    while done < 200:
        label = rng.choice(labels)
        rs = rsys(label)
        lam = tuple(rng.randint(0, 2) for _ in range(rs.rank))
        if weyl_dim(rs, lam) > 110:
            continue
        op = rng.choice(["tensor", "wedge2", "sym2"])
        d = weyl_dim(rs, lam)
        if op == "tensor":
            mu = tuple(rng.randint(0, 2) for _ in range(rs.rank))
            if weyl_dim(rs, mu) > 110:
                continue
            dec = tensor_decompose(rs, lam, mu)
            assert dec.source_dimension == d * weyl_dim(rs, mu)
        elif op == "wedge2":
            assert wedge2_decompose(rs, lam).source_dimension == d * (d - 1) // 2
        else:
            assert sym2_decompose(rs, lam).source_dimension == d * (d + 1) // 2
        corpus.add((label, lam))
        done += 1

    for label, lam in corpus:
        rs = rsys(label)
        combined = dict(wedge2_decompose(rs, lam).as_multiset())
        for k, v in sym2_decompose(rs, lam).as_multiset().items():
            combined[k] = combined.get(k, 0) + v
        assert combined == tensor_decompose(rs, lam, lam).as_multiset(), (label, lam)

    # Weyl invariance of multiplicity tables
    for label, lam in [("B3", (1, 0, 1)), ("G2", (1, 1)), ("A3", (2, 0, 1))]:
        rs = rsys(label)
        full = freudenthal_character(rs, lam).expand(rs)
        for v, m in full.items():
            for i in range(1, rs.rank + 1):
                assert full[simple_reflection(rs, v, i)] == m

    # independent convolution oracle over the small-rank algebras
    checked = 0
    for label in ["A2", "B2"]:
        rs = rsys(label)
        weights = [(a, b) for a in range(4) for b in range(4)]
        for i, lam in enumerate(weights):
            for mu in weights[i:]:
                assert (
                    tensor_decompose(rs, lam, mu).as_multiset()
                    == brute_tensor_decompose(rs, lam, mu)
                ), (label, lam, mu)
                checked += 1
    _report(7, True, f"200 randomized decompositions conserve dimension, "
                     f"wedge + sym = square on the corpus ({len(corpus)} modules), "
                     f"tables are Weyl-invariant, and {checked} tensor products "
                     "match the independent oracle")


def test_criterion_8_deletion_induction_round_trip():
    seen_e8 = seen_g2 = 0
    for row in summary_rows():
        if not row["residual"]:
            continue  # A1's empty residual has no module to induce from
        rs = build_root_system(row["ambient"])
        d = delete_node(rs, row["node"], row["iota"])
        res = build_root_system(d.residual[0])
        chain = tuple(c.highest_weight for c in d.chain())
        states = induction_search(res, chain[0], max_depth=d.m_d + 1)
        state = next(s for s in states if s.weights == chain)
        assert state.dbos_dimension == rs.dimension, row["name"]
        if row["ambient"] == DynkinType("E", 8):
            assert state.dbos_dimension == 248
            seen_e8 += 1
        if row["ambient"] == DynkinType("G", 2):
            assert state.dbos_dimension == 14
            seen_g2 += 1
    assert seen_e8 == 3 and seen_g2 == 2
    _report(8, True, "every deletion chain reappears in the forward search with "
                     "the ambient dimension (248 for the E8 rows, 14 for both G2 rows)")


def test_criterion_9_equivalence_classes():
    cases = [
        (DynkinType("A", 5), 5, 4),   # chain ends
        (DynkinType("D", 4), 1, 6),   # triality
        (DynkinType("D", 6), 6, 4),   # fork tips
        (DynkinType("E", 6), 1, 4),   # degree-one node onto D5
    ]
    for t, node, size in cases:
        ec = deletion_equivalences(t, node)
        assert ec.size == size, (t, node)
        product = ec.aut_ambient_order * ec.aut_residual_order
        assert ec.size * ec.stabilizer_order == product
        if (t, node) != (DynkinType("D", 4), 1):
            assert ec.size == product
        else:
            assert ec.stabilizer_order == 2  # triality meets the chain reversal
    _report(9, True, "the four listed families have classes of 4, 6, 4, 4 and "
                     "class size times stabilizer equals |Aut g| x |Aut g0|")


def test_cli_surface_smoke(capsys):
    # the acceptance path used in the docs: verbs the criteria rely on
    assert run(["table2"]) == 0
    capsys.readouterr()
    assert run(["report", "E9"]) == 0
    capsys.readouterr()
    assert run(["dim", "A5", "w3"]) == 0
    assert capsys.readouterr().out.strip() == "20"
