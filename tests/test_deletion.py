"""Node-deletion gradings, component identification, the summary table and
equivalence classes."""

import time

import pytest

from lieinduct.deletion import (
    Deletion,
    _check_level,
    delete_node,
    deletion_equivalences,
    summary_rows,
    verify_table2,
)
from lieinduct.errors import (
    BadEmbedding,
    BijectionFailure,
    BudgetExceeded,
    EmptyLevel,
    InvalidType,
    InvariantViolation,
)
from lieinduct.rep_theory import defining_modules, freudenthal_character, module_descriptor
from lieinduct.root_system import DynkinType, build_root_system, parse_dynkin

from oracles import (
    dual_module,
    full_multiset_delete_node,
    level_correspondence,
    module_weight_multiset,
    product_deletion_equivalences,
    root_set,
    root_to_weight,
    tuple_primitive_root,
)

RANK_8_LABELS = (
    [f"A{l}" for l in range(1, 9)] + [f"B{l}" for l in range(2, 9)]
    + [f"C{l}" for l in range(3, 9)] + [f"D{l}" for l in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def rsys(label):
    return build_root_system(parse_dynkin(label))


def w(rank, idx, scale=1):
    out = [0] * rank
    if idx:
        out[idx - 1] = scale
    return tuple(out)


def pairs_of(rs, d, i):
    """The (residual weight, root) pairs of level i of the deletion d, from
    the oracle, by descending weight sum and then weight."""
    level = d.level(i)
    return level_correspondence(rs, [a - 1 for a in d.iota], level.roots, level.factors)


def check_level(rs, index, roots, factors):
    """delete_node's level check for these roots, run as delete_node runs
    it: on their negatives and the residual weights of those."""
    mirror = [tuple(-x for x in r) for r in roots]
    _check_level(mirror, [tuple(root_to_weight(rs, r)[i] for i in index) for r in mirror],
                 factors)


def test_e8_node1_levels():
    rs = rsys("E8")
    d = delete_node(rs, 1, (8, 7, 6, 5, 4, 3, 2))
    assert d.residual == (DynkinType("D", 7),)
    assert d.m_d == 2
    assert d.level(-1).highest_weight == w(7, 6)
    assert d.level(-1).dimension == 64
    assert d.level(-2).highest_weight == w(7, 1)
    assert d.level(-2).dimension == 14


def test_c_family_node1_levels():
    for l in range(3, 8):
        rs = rsys(f"C{l + 1}")
        d = delete_node(rs, 1)
        assert d.residual == (DynkinType("C", l),)
        assert [c.highest_weight for c in d.chain()] == [w(l, 1), w(l, 0)]


def test_g2_node1_levels():
    rs = rsys("G2")
    d = delete_node(rs, 1, (2,))
    assert [c.highest_weight for c in d.chain()] == [(1,), (0,), (1,)]
    assert [c.dimension for c in d.chain()] == [2, 1, 2]


def test_a_family_last_node_single_level():
    for r in range(2, 8):
        rs = rsys(f"A{r}")
        d = delete_node(rs, r)
        assert d.m_d == 1
        assert d.level(-1).highest_weight == w(r - 1, r - 1)
        assert d.level(-1).dimension == r


def test_level_count_and_mirror():
    for label, node in [("E8", 2), ("F4", 1), ("G2", 1), ("B5", 5)]:
        rs = rsys(label)
        d = delete_node(rs, node)
        assert len(d.levels) == 2 * d.m_d
        for i in range(1, d.m_d + 1):
            neg = set(d.level(-i).roots)
            pos = {tuple(-x for x in r) for r in d.level(i).roots}
            assert neg == pos


def test_dimension_bookkeeping():
    for label, node in [("E8", 1), ("E7", 2), ("F4", 4), ("C5", 1), ("D6", 6)]:
        rs = rsys(label)
        d = delete_node(rs, node)
        level_total = sum(c.dimension for c in d.levels)
        residual_roots = d.zero_level.root_count
        assert level_total == rs.num_roots - residual_roots
        assert level_total + residual_roots + rs.rank == rs.dimension


def test_component_highest_weight_is_negated_row():
    for row in summary_rows():
        rs = build_root_system(row["ambient"])
        d_node = row["node"]
        iota = row["iota"]
        got = delete_node(rs, d_node, iota).level(-1).highest_weight
        expected = tuple(-rs.cartan.entries[d_node - 1][amb - 1] for amb in iota)
        assert got == expected, row["name"]


def test_lowest_weight_of_deepest_level_is_minus_highest_root():
    for label, node, iota in [("G2", 1, (2,)), ("E8", 2, (1, 3, 4, 5, 6, 7, 8)),
                              ("F4", 4, (1, 2, 3))]:
        rs = rsys(label)
        d = delete_node(rs, node, iota)
        pairs = pairs_of(rs, d, -d.m_d)
        lowest_weight = min(pairs, key=lambda p: sum(p[0]))
        minus_top = tuple(-x for x in rs.highest_root)
        assert lowest_weight[1] == minus_top


def test_b_family_bijection_chain():
    # natural-module basis maps to the roots alpha_1 + ... + alpha_i
    for l in [3, 5]:
        rs = rsys(f"B{l + 1}")
        d = delete_node(rs, 1, tuple(range(2, l + 2)))
        pairs = dict(pairs_of(rs, d, -1))
        weight = w(l, 1)
        accum = [0] * (l + 1)
        accum[0] = -1
        for i in range(1, l + 1):
            assert pairs[tuple(weight)] == tuple(accum), (l, i)
            # step down through the chain e_i -> e_{i+1}
            row = [rs.cartan.entries[i][amb - 1] for amb in d.iota]
            weight = [a - b for a, b in zip(weight, row)]
            accum[i] = -1


def test_g2_level_minus_one_bijection():
    rs = rsys("G2")
    d = delete_node(rs, 1, (2,))
    pairs = dict(pairs_of(rs, d, -1))
    assert pairs[(1,)] == (-1, 0)
    assert pairs[(-1,)] == (-1, -1)


def test_interior_deletion_product_residual():
    rs = rsys("A3")
    d = delete_node(rs, 2)
    assert d.residual == (DynkinType("A", 1), DynkinType("A", 1))
    assert d.m_d == 1
    level = d.level(-1)
    assert level.dimension == 4
    assert [f.highest_weight for f in level.factors] == [(1,), (1,)]


def test_interior_deletion_e6_node4():
    rs = rsys("E6")
    d = delete_node(rs, 4)
    assert sorted(str(t) for t in d.residual) == ["A1", "A2", "A2"]
    assert d.m_d == 3
    total = sum(c.dimension for c in d.levels)
    assert total + d.zero_level.root_count + 6 == rs.dimension


def test_rank_one_special_case():
    rs = rsys("A1")
    d = delete_node(rs, 1)
    assert d.components == ()
    assert d.m_d == 1
    assert d.level(-1).dimension == 1
    assert d.level(-1).roots == ((-1,),)


def test_empty_level_raises():
    rs = rsys("G2")
    d = delete_node(rs, 2)
    with pytest.raises(EmptyLevel):
        d.level(-3)


def test_primitive_root_refuses_empty_and_ambiguous_levels():
    # the oracle's probe, which the level highest weights are checked
    # against: G2 at node 2, level 0 holds a1 and -a1, and neither takes
    # another a1
    rs = rsys("G2")
    level_0 = [r for r in root_set(rs) if r[1] == 0]
    with pytest.raises(InvariantViolation, match="2 primitive vectors"):
        tuple_primitive_root(rs, 2, level_0)
    with pytest.raises(EmptyLevel):
        tuple_primitive_root(rs, 2, [])


def test_bad_embeddings_rejected():
    rs = rsys("F4")
    with pytest.raises(BadEmbedding):
        delete_node(rs, 1, (2, 3, 4))  # C3 must map reversed onto nodes 4,3,2
    with pytest.raises(BadEmbedding):
        delete_node(rs, 1, (4, 3, 1))  # node 1 was deleted
    with pytest.raises(BadEmbedding):
        delete_node(rs, 1, (4, 3))  # wrong size


def test_oversized_outer_product_fails_fast():
    # the full-multiset oracle: 2,932 weights per factor (dimension 32,768),
    # about 2.5e10 in the product, refused before any weight is built
    rho = module_descriptor(rsys("A5"), (1, 1, 1, 1, 1))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        module_weight_multiset((rho, rho, rho))
    assert time.perf_counter() - start < 0.5


def test_verify_table2_all_rows():
    report = verify_table2()
    assert report.ok
    names = [r.name for r in report.rows]
    assert "E8/1/D7" in names and "G2/2/A1" in names and "A1/1/-" in names
    # family rows instantiated at ambient ranks up to 8
    assert sum(1 for n in names if n.startswith("B") and "/1/" in n) == 6


def test_equivalence_class_sizes():
    # chain end: four equivalent deletions
    ec = deletion_equivalences(DynkinType("A", 4), 4)
    assert ec.size == 4
    assert ec.size == ec.aut_ambient_order * ec.aut_residual_order

    # triality: six, with a stabilizer of order two
    ec = deletion_equivalences(DynkinType("D", 4), 1)
    assert ec.size == 6
    assert ec.aut_ambient_order * ec.aut_residual_order == 12
    assert ec.stabilizer_order == 2

    # fork tips of D5 and the degree-one node of E6
    ec = deletion_equivalences(DynkinType("D", 5), 5)
    assert ec.size == 4 == ec.aut_ambient_order * ec.aut_residual_order
    ec = deletion_equivalences(DynkinType("E", 6), 1)
    assert ec.size == 4 == ec.aut_ambient_order * ec.aut_residual_order


def test_equivalence_members_match_listed_deletions():
    ec = deletion_equivalences(DynkinType("D", 4), 1)
    members = set(ec.members)
    assert (1, (3, 2, 4)) in members
    assert (1, (4, 2, 3)) in members
    assert (3, (1, 2, 4)) in members
    assert (3, (4, 2, 1)) in members
    assert (4, (1, 2, 3)) in members
    assert (4, (3, 2, 1)) in members

    ec = deletion_equivalences(DynkinType("A", 5), 5)
    assert (5, (1, 2, 3, 4)) in ec.members        # id at the last node
    assert (1, (2, 3, 4, 5)) in ec.members        # shift at the first node
    assert (1, (5, 4, 3, 2)) in ec.members
    assert (5, (4, 3, 2, 1)) in ec.members

    ec = deletion_equivalences(DynkinType("E", 6), 1, (6, 5, 4, 3, 2))
    assert (1, (6, 5, 4, 3, 2)) in ec.members
    assert (1, (6, 5, 4, 2, 3)) in ec.members
    assert (6, (1, 3, 4, 2, 5)) in ec.members
    assert (6, (1, 3, 4, 5, 2)) in ec.members


def test_e8_equivalence_classes_small():
    assert deletion_equivalences(DynkinType("E", 8), 8).size == 1
    assert deletion_equivalences(DynkinType("E", 8), 1).size == 2
    assert deletion_equivalences(DynkinType("E", 8), 2).size == 2


def test_equivalences_require_simple_residual():
    with pytest.raises(InvalidType):
        deletion_equivalences(DynkinType("A", 3), 2)


def test_deletion_equivalences_match_product_oracle():
    pairs = 0
    for label in RANK_8_LABELS:
        t = parse_dynkin(label)
        for d in range(1, t.rank + 1):
            if len(delete_node(build_root_system(t), d).components) != 1:
                continue
            pairs += 1
            expected = product_deletion_equivalences(t, d)
            assert deletion_equivalences(t, d) == expected, (label, d)
            # any valid embedding names the same orbit: take the last one at d
            iota = [emb for node, emb in expected.members if node == d][-1]
            assert deletion_equivalences(t, d, iota) == expected, (label, d, iota)
    assert pairs == 68
    e6 = DynkinType("E", 6)
    expected = product_deletion_equivalences(e6, 1, (6, 5, 4, 3, 2))
    assert deletion_equivalences(e6, 1, (6, 5, 4, 3, 2)) == expected
    assert expected == product_deletion_equivalences(e6, 1)


def test_every_corank_one_deletion_identifies():
    # full sweep: every node of every type through rank 8, interior nodes and
    # product residuals included; each level's root count must equal the
    # dimension of the identified module, and the residual weights must be
    # distinct with the module's dominant weights (all enforced inside
    # delete_node)
    count = 0
    for label in RANK_8_LABELS:
        rs = rsys(label)
        for node in range(1, rs.rank + 1):
            d = delete_node(rs, node)
            level_total = sum(c.dimension for c in d.levels)
            assert level_total + d.zero_level.root_count + rs.rank == rs.dimension
            assert len(d.levels) == 2 * d.m_d
            count += 1
    assert count == 161


def test_triality_gives_the_same_module():
    # all three outer nodes of D4 produce the wedge-square module at level -1
    rs = rsys("D4")
    for node in (1, 3, 4):
        d = delete_node(rs, node)
        assert d.residual == (DynkinType("A", 3),)
        assert d.level(-1).highest_weight == (0, 1, 0)


def test_a_family_bijection_chain():
    # natural-module basis of the chain-end deletion maps onto the roots
    # supported on the tail segments
    rs = rsys("A4")
    d = delete_node(rs, 4)
    pairs = dict(pairs_of(rs, d, -1))
    expected = {
        (0, 0, 1): (0, 0, 0, -1),
        (0, 1, -1): (0, 0, -1, -1),
        (1, -1, 0): (0, -1, -1, -1),
        (-1, 0, 0): (-1, -1, -1, -1),
    }
    assert pairs == expected


def test_c_family_symmetric_square_bijection_top():
    # the highest vector of the symmetric square maps to the last simple root
    rs = rsys("C4")
    d = delete_node(rs, 4, (3, 2, 1))
    pairs = dict(pairs_of(rs, d, -1))
    assert pairs[(2, 0, 0)] == (0, 0, 0, -1)


def test_wedge_consistency_of_second_levels():
    # for every two-step deletion the second level appears inside the wedge
    # square of the first
    from lieinduct.tensor_ops import tensor_decompose, wedge2_decompose

    for row in summary_rows():
        rs = build_root_system(row["ambient"])
        d = delete_node(rs, row["node"], row["iota"])
        if d.m_d < 2 or len(d.components) != 1:
            continue
        res = build_root_system(d.residual[0])
        first = d.level(-1).highest_weight
        second = d.level(-2).highest_weight
        wedge = wedge2_decompose(res, first)
        assert wedge.as_multiset().get(second, 0) >= 1, row["name"]
        if d.m_d >= 3:
            third = d.level(-3).highest_weight
            prod = tensor_decompose(res, first, second)
            assert prod.as_multiset().get(third, 0) >= 1, row["name"]


def assert_matches_full_multiset_oracle(rs, node, iota=None):
    got = delete_node(rs, node, iota)
    want = full_multiset_delete_node(rs, node, iota)
    for field in Deletion._fields:
        assert getattr(got, field) == getattr(want, field), (str(rs.type), node, field)
    # each factor of level +i is the dual of its factor at level -i
    for i in range(1, got.m_d + 1):
        assert got.level(i).factors == tuple(map(dual_module, got.level(-i).factors)), (
            str(rs.type), node, i)


def test_delete_node_matches_full_multiset_oracle_to_rank_8():
    # every node of every type through rank 8: the oracle identifies both
    # signs of every level and checks each on its full weight multiset
    count = 0
    for label in RANK_8_LABELS:
        rs = rsys(label)
        for node in range(1, rs.rank + 1):
            assert_matches_full_multiset_oracle(rs, node)
            count += 1
    assert count == 161


def test_delete_node_matches_full_multiset_oracle_on_table_rows():
    for row in summary_rows():
        assert_matches_full_multiset_oracle(
            build_root_system(row["ambient"]), row["node"], row["iota"]
        )


@pytest.mark.parametrize("label", ["A32", "D32", "B32", "C32"])
def test_delete_node_matches_full_multiset_oracle_at_rank_32(label):
    rs = rsys(label)
    for node in (1, 16, 32):
        assert_matches_full_multiset_oracle(rs, node)


def test_component_highest_weight_matches_tuple_primitive_root():
    # every nonzero level of every deletion through rank 8: the highest
    # weight read off the level's lowest root (minus the lowest root of the
    # mirror level) is the weight of the root the tuple probe finds
    for label in RANK_8_LABELS:
        rs = rsys(label)
        for node in range(1, rs.rank + 1):
            d = delete_node(rs, node)
            m_d = rs.highest_root[node - 1]
            for level in [i for i in range(-m_d, m_d + 1) if i]:
                roots = [r for r in root_set(rs) if r[node - 1] == level]
                weight = root_to_weight(rs, tuple_primitive_root(rs, node, roots))
                got = d.level(level).highest_weight
                assert got == tuple(weight[a - 1] for a in d.iota), (label, node, level)


def test_deletions_and_defining_checks_leave_the_reflection_table_unbuilt():
    # only Freudenthal's stabilizer classes read RootSystem._raising, so a
    # cold deletion or defining list builds no root system's table
    for label in ["E8", "F4", "G2"]:
        for node in range(1, rsys(label).rank + 1):
            build_root_system.cache_clear()
            d = delete_node(rsys(label), node)
            built = {d.ambient, *d.residual}
            assert build_root_system.cache_info().currsize == len(built), (label, node)
            for t in built:
                assert "_raising" not in vars(build_root_system(t)), (label, node, t)
        build_root_system.cache_clear()
        rs = rsys(label)
        defining_modules(rs)
        assert build_root_system.cache_info().currsize == 1
        assert "_raising" not in vars(rs), label
        freudenthal_character(rs, (1,) + (0,) * (rs.rank - 1))
        assert "_raising" in vars(rs), label


def test_level_check_rejects_a_wrong_module_of_the_same_dimension():
    # A4 at node 1: level -1 is V(w1) of A3; V(w3) has the same dimension
    rs = rsys("A4")
    d = delete_node(rs, 1)
    level = d.level(-1)
    index = [a - 1 for a in d.iota]
    a3 = build_root_system(d.residual[0])
    assert level.factors == (module_descriptor(a3, (1, 0, 0)),)
    wrong = (module_descriptor(a3, (0, 0, 1)),)
    assert wrong[0].dimension == level.dimension
    for check in (check_level, level_correspondence):
        with pytest.raises(BijectionFailure):
            check(rs, index, level.roots, wrong)


def test_level_check_rejects_repeated_weights():
    # G2 at node 1: the roots (-1,0) of level -1 and (-3,-1) of level -3
    # both have the residual weight w1 of A1
    rs = rsys("G2")
    d = delete_node(rs, 1)
    index = [a - 1 for a in d.iota]
    roots = ((-3, -1), (-1, 0))
    for check in (check_level, level_correspondence):
        with pytest.raises(BijectionFailure, match="share the residual weight"):
            check(rs, index, roots, d.level(-1).factors)


def test_level_check_rejects_a_weight_of_multiplicity_two():
    # weights at nodes 1 and 3 of E6 (an A2): a1, a3, a1 + a3 and their
    # negatives give the six roots of A2, and a2 gives zero; the adjoint
    # module of A2 has these dominant weights, but the zero weight twice
    rs = rsys("E6")
    positive = ((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (1, 0, 1, 0, 0, 0))
    roots = positive + tuple(tuple(-x for x in r) for r in positive) + ((0, 1, 0, 0, 0, 0),)
    adjoint = (module_descriptor(rsys("A2"), (1, 1)),)
    for check in (check_level, level_correspondence):
        with pytest.raises(BijectionFailure, match="weight system"):
            check(rs, [0, 2], roots, adjoint)
