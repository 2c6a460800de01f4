"""Forward induction: new-row checks, candidate sets, searches, obstruction
reports and the deletion round trip."""

import inspect
import os
import random
import sys
from collections import Counter

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from oracles import brute_induction_search, pairwise_admissible, pairwise_induction_search

from lieinduct import induction, rep_theory
from lieinduct.cli import run
from lieinduct.deletion import delete_node, summary_rows
from lieinduct.errors import BadEmbedding, BudgetExceeded, TrivialFirstLevel
from lieinduct.induction import (
    E9_DIAGRAM,
    EXCEPTIONAL_TARGETS,
    F5_LONG_TAIL,
    F5_SHORT_TAIL,
    G3_LONG_SIDE,
    G3_SHORT_SIDE,
    TargetDiagram,
    _BracketMasks,
    check_new_row,
    exceptional_report,
    exceptional_routes,
    induction_search,
)
from lieinduct.rep_theory import defining_modules, is_defining
from lieinduct.root_system import DynkinType, build_root_system, cartan_matrix, parse_dynkin


def rsys(label):
    return build_root_system(parse_dynkin(label))


def w(rank, idx, scale=1):
    out = [0] * rank
    if idx:
        out[idx - 1] = scale
    return tuple(out)


# first levels of the G3 routes: G2 short and long side, A2 short and long side
G3_STARTS = [("G2", (1, 0)), ("G2", (0, 1)), ("A2", (3, 0)), ("A2", (1, 0))]


def test_check_new_row_rank9():
    assert check_new_row(DynkinType("D", 8), (9, 8, 7, 6, 5, 4, 3, 2),
                         w(8, 7), E9_DIAGRAM, 1)
    assert check_new_row(DynkinType("A", 8), (1, 3, 4, 5, 6, 7, 8, 9),
                         w(8, 3), E9_DIAGRAM, 2)
    assert not check_new_row(DynkinType("A", 8), (1, 3, 4, 5, 6, 7, 8, 9),
                             w(8, 4), E9_DIAGRAM, 2)


def test_check_new_row_g3_long_side():
    # the row matches, but the required module fails the defining filter
    assert check_new_row(DynkinType("G", 2), (1, 2), (0, 1), G3_LONG_SIDE, 3)
    assert not is_defining(rsys("G2"), (0, 1))
    assert check_new_row(DynkinType("G", 2), (1, 2), (1, 0), G3_SHORT_SIDE, 3)
    assert is_defining(rsys("G2"), (1, 0))


def test_check_new_row_rejects_bad_embeddings():
    with pytest.raises(BadEmbedding):
        check_new_row(DynkinType("D", 8), (2, 3, 4, 5, 6, 7, 8, 9),
                      w(8, 7), E9_DIAGRAM, 1)  # not a diagram embedding
    with pytest.raises(BadEmbedding):
        check_new_row(DynkinType("A", 7), (1, 3, 4, 5, 6, 7, 8),
                      w(7, 3), E9_DIAGRAM, 2)  # wrong corank
    with pytest.raises(BadEmbedding):
        check_new_row(DynkinType("B", 4), (1, 2, 3, 4), w(4, 4), F5_LONG_TAIL, 4)


def test_check_new_row_on_all_deletion_rows():
    # inverse consistency: every summary deletion passes its own row check
    for row in summary_rows():
        rs = build_root_system(row["ambient"])
        d = delete_node(rs, row["node"], row["iota"])
        target = TargetDiagram(str(row["ambient"]), cartan_matrix(row["ambient"]))
        assert check_new_row(
            d.residual[0], d.iota, d.level(-1).highest_weight, target, row["node"],
        ), row["name"]


def _children(label, chain):
    """The nonzero levels that the search puts below chain: the last
    weights of its states that extend chain by one level."""
    n = len(chain)
    states = induction_search(rsys(label), chain[0], max_depth=n + 1)
    return [s.weights[n] for s in states if len(s.chain) == n + 1 and s.weights[:n] == chain]


def test_search_children_examples():
    assert _children("G2", ((1, 0),)) == [(1, 0)]  # level -2 below V(w1)
    assert _children("D8", (w(8, 7),)) == []  # only zero below the half-spin
    assert _children("A8", (w(8, 3), w(8, 6))) == [w(8, 0)]


def test_zero_propagation():
    # a zero level forces every deeper one to zero, so the search stores a
    # chain up to its first zero: (w1, 0) and (w1, 0, 0) over G2 are the
    # terminated state (w1,), of dimension 14 + 1 + 2 * 7
    first = induction_search(rsys("G2"), (1, 0), max_depth=3)[0]
    assert (first.weights, first.terminated, first.dbos_dimension) == (((1, 0),), True, 29)


def test_chains_replay_as_fixed_points():
    # each level of every chain is admissible below its prefix by the walk
    # over level pairs
    rs = rsys("A2")
    masks = _BracketMasks(rs)
    for state in induction_search(rs, (1, 0), max_depth=7):
        ids = tuple(masks.intern(m) for m in state.chain)
        for k in range(1, len(ids)):
            assert pairwise_admissible(masks, ids[:k]) >> ids[k] & 1, state.weights


def test_search_d8_single_terminated_chain():
    states = induction_search(rsys("D8"), w(8, 7), max_depth=4)
    assert len(states) == 1
    assert states[0].terminated
    assert states[0].dbos_dimension == 377


def test_search_a8_periodic_pattern():
    states = induction_search(rsys("A8"), w(8, 3), max_depth=9)
    assert len(states) == 9
    open_states = [s for s in states if not s.terminated]
    assert len(open_states) == 1
    pattern = open_states[0].weights
    for j, weight in enumerate(pattern, start=1):
        if j % 3 == 1:
            assert weight == w(8, 3)
        elif j % 3 == 2:
            assert weight == w(8, 6)
        else:
            assert weight == w(8, 0)
    dims = sorted(s.dbos_dimension for s in states if s.terminated)
    assert dims[:2] == [249, 417]


def test_search_e8_has_no_chains():
    assert induction_search(rsys("E8"), w(8, 8), max_depth=3) == []


def test_search_rejects_trivial_first_level():
    with pytest.raises(TrivialFirstLevel):
        induction_search(rsys("A2"), (0, 0))


@pytest.mark.parametrize("search, refusal", [
    # the depth is refused first, before the first level is looked at
    (lambda: induction_search(rsys("A2"), (0, 0), 0), ValueError),
    (lambda: induction_search(rsys("A2"), (1, 1), 0), ValueError),  # non-defining
    (lambda: induction_search(rsys("A2"), (0, 0)), TrivialFirstLevel),
    (lambda: exceptional_report("G3", 0), ValueError),
], ids=["trivial-depth-0", "non-defining-depth-0", "trivial", "report-depth-0"])
def test_search_refusal_order(search, refusal):
    with pytest.raises(refusal):
        search()


def test_nonzero_levels_form_a_prefix():
    from lieinduct.rep_theory import ModuleDescriptor

    for label, b1 in [("A2", (1, 0)), ("G2", (1, 0))]:
        states = induction_search(rsys(label), b1, max_depth=8)
        for s in states:
            # stored chains are the nonzero prefix; zero levels are implied
            assert all(isinstance(m, ModuleDescriptor) for m in s.chain)
            assert s.terminated == (len(s.chain) < 8)


def _state_dimension(label, chain):
    """The DBOS dimension of the search state that holds chain."""
    states = induction_search(rsys(label), chain[0], max_depth=len(chain))
    [dim] = [s.dbos_dimension for s in states if s.weights == chain]
    return dim


def test_dbos_dimensions_named():
    assert _state_dimension("D8", (w(8, 7),)) == 377
    assert _state_dimension("A8", (w(8, 3),)) == 249
    assert _state_dimension("A8", (w(8, 3), w(8, 6))) == 417
    assert _state_dimension("B4", (w(4, 4),)) == 69
    assert _state_dimension("G2", ((1, 0), (1, 0))) == 43
    # a trivial level adds its line and the dual line
    assert _state_dimension("A8", (w(8, 3), w(8, 6), w(8, 0))) == 417 + 2


def test_round_trip_all_deletion_rows():
    for row in summary_rows():
        rs = build_root_system(row["ambient"])
        d = delete_node(rs, row["node"], row["iota"])
        res = build_root_system(d.residual[0])
        chain_weights = tuple(c.highest_weight for c in d.chain())
        states = induction_search(res, chain_weights[0], max_depth=d.m_d + 1)
        found = [s for s in states if s.weights == chain_weights]
        assert found, row["name"]
        assert found[0].dbos_dimension == rs.dimension, row["name"]


def test_exceptional_report_e9():
    rep = exceptional_report("E9")
    assert not rep.consistent
    by_base = dict(rep.base_dims)
    assert by_base["E8"] == ()
    assert by_base["D8"] == (377,)
    assert 249 in by_base["A8"] and 417 in by_base["A8"]
    assert 377 not in by_base["A8"]
    e8_route = next(r for r in rep.routes if str(r.base) == "E8")
    assert e8_route.required_weight == w(8, 8)
    assert not e8_route.b1_defining


def test_exceptional_report_f5():
    rep = exceptional_report("F5")
    assert not rep.consistent
    by_base = dict(rep.base_dims)
    assert by_base["B4"] == (69,)
    assert by_base["C4"] == () and by_base["F4"] == ()
    assert rep.analysis["required_f4_module_dimension"] == 8
    assert rep.analysis["required_module_exists"] is False
    assert rep.analysis["f4_modules_up_to_bound"] == (((0, 0, 0, 0), 1),)


def test_exceptional_report_g3():
    rep = exceptional_report("G3", max_depth=14)
    assert rep.consistent
    assert [(str(r.base), r.required_weight) for r in rep.routes] == G3_STARTS
    by_base = dict(rep.base_dims)
    assert 43 in by_base["G2"] and 43 in by_base["A2"]
    matches = rep.analysis["per_length_matches"]
    assert matches and all(ok for _, _, ok in matches)
    # the two-level route and the seven-level route agree at 43
    g2_states = induction_search(rsys("G2"), (1, 0), max_depth=8)
    assert any(s.terminated and len(s.chain) == 2 and s.dbos_dimension == 43
               for s in g2_states)
    a2_states = induction_search(rsys("A2"), (1, 0), max_depth=8)
    assert any(s.terminated and len(s.chain) == 7 and s.dbos_dimension == 43
               for s in a2_states)


def test_report_checks_each_defining_weight_once(monkeypatch, capsys):
    # the bracket masks ask again for weights already checked, the first
    # levels among them; the memo on each root system computes every
    # (root system, weight) check once
    computed = Counter()
    asked = Counter()
    check = rep_theory._is_defining
    ask = induction.is_defining

    def counting_check(rs, lam):
        computed[rs, lam] += 1
        return check(rs, lam)

    def counting_ask(rs, weight):
        asked[rs, tuple(weight)] += 1
        return ask(rs, weight)

    monkeypatch.setattr(rep_theory, "_is_defining", counting_check)
    monkeypatch.setattr(induction, "is_defining", counting_ask)
    build_root_system.cache_clear()
    assert run(["report", "G3", "--depth", "48"]) == 0
    capsys.readouterr()
    assert set(computed) == set(asked)
    assert set(computed.values()) == {1}
    assert sum(asked.values()) > len(asked)  # some weights were asked again


def test_search_depth_is_not_bounded_by_recursion_limit():
    # a recursive search needs a stack frame per level; leave room for
    # ordinary calls only, well short of the 64 levels searched
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        states = induction_search(rsys("G2"), (1, 0), max_depth=64)
    finally:
        sys.setrecursionlimit(limit)
    assert max(len(s.chain) for s in states) == 64
    assert any(not s.terminated for s in states)


@pytest.mark.parametrize("label,b1,depth", [
    ("A2", (1, 0), 10),
    ("B3", (1, 0, 0), 12),
    ("C3", (0, 0, 1), 12),
    *[(label, b1, 16) for label, b1 in G3_STARTS],
])
def test_search_matches_per_state_oracle(label, b1, depth):
    states = induction_search(rsys(label), b1, max_depth=depth)
    got = [(s.weights, s.terminated, s.dbos_dimension) for s in states]
    assert got == brute_induction_search(rsys(label), b1, depth)


def test_search_matches_per_state_oracle_on_seeded_draws():
    # first levels drawn from the fundamental weights and the defining
    # modules; F4 has no non-trivial defining module, so its draws check
    # that both sides admit no chain
    rng = random.Random(8801)
    pools = {}
    for label in ["A2", "B3", "C3", "G2", "F4"]:
        rs = rsys(label)
        pools[label] = sorted(
            {w(rs.rank, i) for i in range(1, rs.rank + 1)}
            | {m.highest_weight for m in defining_modules(rs) if not m.is_trivial}
        )
    for _ in range(16):
        label = rng.choice(sorted(pools))
        b1 = rng.choice(pools[label])
        depth = rng.randint(1, 14)
        states = induction_search(rsys(label), b1, max_depth=depth)
        got = [(s.weights, s.terminated, s.dbos_dimension) for s in states]
        assert got == brute_induction_search(rsys(label), b1, depth), (label, b1, depth)


def _route_starts():
    """(base label, first level) of every E9/F5/G3 route."""
    starts = []
    for name in EXCEPTIONAL_TARGETS:
        for base, target, node, iota in exceptional_routes(name):
            c = target.cartan.entries
            starts.append((str(base), tuple(-c[node - 1][j - 1] for j in iota)))
    return starts


RANK_8_LABELS = (
    [f"A{l}" for l in range(1, 9)] + [f"B{l}" for l in range(2, 9)]
    + [f"C{l}" for l in range(3, 9)] + [f"D{l}" for l in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def _seeded_triples(count=32, seed=2110):
    """(type, non-trivial defining first level, depth <= 24) drawn to rank 8."""
    rng = random.Random(seed)
    pools = {}
    for label in RANK_8_LABELS:
        weights = sorted(m.highest_weight for m in defining_modules(rsys(label))
                         if not m.is_trivial)
        if weights:
            pools[label] = weights
    triples = []
    for _ in range(count):
        label = rng.choice(sorted(pools))
        triples.append((label, rng.choice(pools[label]), rng.randint(1, 24)))
    return triples


def _kernel_cases():
    return ([("G2", (1, 0), 192)] + [(label, b1, 96) for label, b1 in _route_starts()]
            + _seeded_triples())


def test_search_kernel_matches_pairwise_walk(monkeypatch):
    # state for state, and the same brackets decomposed in the same order:
    # the kernel meets the pairs in the order the walk over levels does
    calls = _count_brackets(monkeypatch)
    cases = _kernel_cases()
    assert len(cases) == 44 and sum(depth for _, _, depth in cases) > 1500
    for label, b1, depth in cases:
        rs = rsys(label)
        calls.clear()
        got = [(s.chain, s.terminated, s.dbos_dimension)
               for s in induction_search(rs, b1, max_depth=depth)]
        kernel_calls = list(calls)
        calls.clear()
        assert got == pairwise_induction_search(rs, b1, depth), (label, b1, depth)
        assert kernel_calls == calls, (label, b1, depth)


def test_every_chain_follows_its_prefix():
    # the pre-order the induct text formatter relies on: the chain of a
    # state of length n > 1, without its last level, is the chain of the
    # latest earlier state of length n - 1
    for label, b1, depth in [("G2", (1, 0), 96), ("A2", (1, 0), 48), ("A8", w(8, 3), 30),
                             *_seeded_triples()]:
        latest = {}
        for s in induction_search(rsys(label), b1, max_depth=depth):
            n = len(s.chain)
            if n > 1:
                assert s.chain[:-1] == latest[n - 1], (label, b1, s.weights)
            latest[n] = s.chain


@pytest.mark.parametrize("depth", [12, 48, 96])
def test_report_summaries_match_the_search_states(depth):
    for name in EXCEPTIONAL_TARGETS:
        for r in exceptional_report(name, max_depth=depth).routes:
            states = (induction_search(rsys(str(r.base)), r.required_weight, max_depth=depth)
                      if r.b1_defining else [])
            dims = tuple(sorted({s.dbos_dimension for s in states if s.terminated}))
            assert r.terminated_dims == dims, (name, str(r.base), depth)
            assert r.non_terminated == sum(not s.terminated for s in states), (name, depth)


def _count_brackets(monkeypatch):
    """Record the tensor and square decompositions the induction module asks
    for, as ("tensor", {a, b}) and ("square", a), with their defining
    summands."""
    calls = []

    def record(kind, fn, key):
        def counted(rs, *weights):
            dec = fn(rs, *weights)
            summands = sorted(m.highest_weight for m, _ in dec.summands
                              if is_defining(rs, m.highest_weight))
            calls.append((kind, key(weights), summands))
            return dec
        return counted

    monkeypatch.setattr(induction, "tensor_decompose", record(
        "tensor", induction.tensor_decompose, frozenset))
    monkeypatch.setattr(induction, "wedge2_decompose", record(
        "square", induction.wedge2_decompose, lambda ws: ws[0]))
    return calls


def test_equal_modules_at_different_levels_bracket_by_tensor_product(monkeypatch):
    # levels -1 and -2 both V(w1) of G2: level -3 is fed by the tensor
    # product 7 (x) 7 = 1 + 7 + 14 + 27, not by Lambda^2 7 = 7 + 14, so the
    # trivial module is admissible there
    calls = _count_brackets(monkeypatch)
    chains = [s.weights for s in induction_search(rsys("G2"), (1, 0), max_depth=3)]
    assert chains == [((1, 0),), ((1, 0), (1, 0)),
                      ((1, 0), (1, 0), (0, 0)), ((1, 0), (1, 0), (1, 0))]
    # level -2 below (w1) comes from the square; level -3 below (w1, w1)
    # from the pair (-1, -2), a tensor product, with no square
    assert calls == [("square", (1, 0), [(1, 0)]),
                     ("tensor", frozenset({(1, 0)}), [(0, 0), (1, 0)])]


def test_search_budget_counts_the_levels_of_every_chain(monkeypatch):
    rs = rsys("G2")
    states = induction_search(rs, (1, 0), max_depth=16)
    held = sum(len(s.chain) for s in states)
    monkeypatch.setattr(induction, "MAX_SEARCH_LEVELS", held)
    assert induction_search(rs, (1, 0), max_depth=16) == states
    monkeypatch.setattr(induction, "MAX_SEARCH_LEVELS", held - 1)
    with pytest.raises(BudgetExceeded):
        induction_search(rs, (1, 0), max_depth=16)


def test_search_decomposes_each_bracket_pair_once(monkeypatch):
    calls = _count_brackets(monkeypatch)
    states = induction_search(rsys("G2"), (1, 0), max_depth=64)
    assert len(states) == 1521
    # only the distinct pairs are decomposed, not one per state, and (b, a)
    # reuses (a, b): three tensor products and the square of w1
    kinds = [kind for kind, _, _ in calls]
    assert kinds.count("tensor") == 3 and kinds.count("square") == 1
    keys = [(kind, key) for kind, key, _ in calls]
    assert len(set(keys)) == len(keys)


# The (base, target diagram, deleted node, embedding) rows the reports were
# first written with, by hand.
WRITTEN_ROUTES = {
    "E9": [
        ("E8", E9_DIAGRAM, 9, (1, 2, 3, 4, 5, 6, 7, 8)),
        ("D8", E9_DIAGRAM, 1, (9, 8, 7, 6, 5, 4, 3, 2)),
        ("A8", E9_DIAGRAM, 2, (1, 3, 4, 5, 6, 7, 8, 9)),
    ],
    "F5": [
        ("F4", F5_LONG_TAIL, 1, (2, 3, 4, 5)),
        ("F4", F5_SHORT_TAIL, 5, (1, 2, 3, 4)),
        ("B4", F5_LONG_TAIL, 5, (1, 2, 3, 4)),
        ("C4", F5_SHORT_TAIL, 1, (5, 4, 3, 2)),
    ],
    "G3": [
        ("G2", G3_SHORT_SIDE, 3, (1, 2)),
        ("G2", G3_LONG_SIDE, 3, (1, 2)),
        ("A2", G3_SHORT_SIDE, 2, (1, 3)),
        ("A2", G3_LONG_SIDE, 1, (2, 3)),
    ],
}


def test_derived_routes_match_the_written_table():
    assert list(EXCEPTIONAL_TARGETS) == list(WRITTEN_ROUTES)
    for name, rows in WRITTEN_ROUTES.items():
        derived = [(str(b), t, node, iota) for b, t, node, iota in exceptional_routes(name)]
        assert derived == rows, name


def test_exceptional_routes_build_only_their_bases():
    # a rest with more than one component is skipped before any is identified
    for name in EXCEPTIONAL_TARGETS:
        build_root_system.cache_clear()
        bases = {base for base, _, _, _ in exceptional_routes(name)}
        info = build_root_system.cache_info()
        assert info.currsize == len(bases), name
        for base in bases:
            build_root_system(base)
        assert build_root_system.cache_info().hits == info.hits + len(bases), name


def test_targets_have_their_written_symmetrizers_and_entries():
    # the nonzero off-diagonal entries the targets were first written with
    e9 = {(a, b) for a, b in [(1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)]}
    written = {
        "E9": ((1,) * 9, {**{e: -1 for e in e9}, **{e[::-1]: -1 for e in e9}}),
        "F5a": ((2, 2, 2, 1, 1), {(1, 2): -1, (2, 1): -1, (2, 3): -1, (3, 2): -1,
                                  (3, 4): -2, (4, 3): -1, (4, 5): -1, (5, 4): -1}),
        "F5b": ((2, 2, 1, 1, 1), {(1, 2): -1, (2, 1): -1, (2, 3): -2, (3, 2): -1,
                                  (3, 4): -1, (4, 3): -1, (4, 5): -1, (5, 4): -1}),
        "G3a": ((1, 3, 1), {(1, 2): -1, (2, 1): -3, (1, 3): -1, (3, 1): -1}),
        "G3b": ((1, 3, 3), {(1, 2): -1, (2, 1): -3, (2, 3): -1, (3, 2): -1}),
    }
    targets = [t for ts in EXCEPTIONAL_TARGETS.values() for t in ts]
    assert [t.name for t in targets] == list(written)
    for t in targets:
        d, edges = written[t.name]
        assert t.cartan.symmetrizer == d, t.name
        off = {(i + 1, j + 1): x for i, row in enumerate(t.cartan.entries)
               for j, x in enumerate(row) if i != j and x}
        assert off == edges, t.name
        assert all(t.cartan.entries[i][i] == 2 for i in range(t.cartan.rank)), t.name


def test_target_diagram_from_dynkin():
    td = TargetDiagram("F4", cartan_matrix(DynkinType("F", 4)))
    assert td.cartan.rank == 4
    assert td.cartan.entries[1][2] == -2
    assert set(EXCEPTIONAL_TARGETS) == {"E9", "F5", "G3"}


def test_target_names_follow_the_table(monkeypatch):
    assert induction.target_names() == "E9, F5 or G3"
    # a new key needs no prose written for it, and gets no analysis block
    a3 = TargetDiagram("A3", cartan_matrix(DynkinType("A", 3)))
    monkeypatch.setitem(EXCEPTIONAL_TARGETS, "A3", (a3,))
    assert induction.target_names() == "E9, F5, G3 or A3"
    with pytest.raises(ValueError, match="expected E9, F5, G3 or A3"):
        exceptional_report("X9")
    report = exceptional_report("A3", max_depth=4)
    assert [(str(r.base), r.target_node) for r in report.routes] == [("A2", 1), ("A2", 3)]
    assert 15 in report.common_dims  # dim sl(4), from the chain V(w1) alone
    assert report.verdict == "consistent"
    assert report.analysis == {}
