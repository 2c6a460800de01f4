"""Root system construction, conversions, reflections and automorphisms."""

import itertools
import os
import random
import sys
from operator import mul

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from oracles import (
    patched_cartan_matrix,
    root_coords,
    root_height,
    root_set,
    root_to_weight,
    simple_reflection,
    tuple_reflection_edges,
    tuple_root_closure,
    tuple_to_dominant,
    union_find_root_classes,
    weyl_oracle,
)

from lieinduct.errors import BadEmbedding, InvalidType, InvariantViolation
from lieinduct.rep_theory import orbit_size
from lieinduct.root_system import (
    RANK_RANGES,
    CartanMatrix,
    DynkinType,
    RootSystem,
    _root_closure,
    build_root_system,
    cartan_from_edges,
    cartan_matrix,
    check_embedding,
    classify_subdiagram,
    component_type,
    connected_components,
    coxeter_number,
    diagram_automorphisms,
    diagram_embeddings,
    parse_dynkin,
    to_dominant,
)

ALL_TYPES = (
    [f"A{l}" for l in range(1, 9)]
    + [f"B{l}" for l in range(2, 9)]
    + [f"C{l}" for l in range(3, 9)]
    + [f"D{l}" for l in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def rsys(label):
    return build_root_system(parse_dynkin(label))


def test_parse_examples():
    assert parse_dynkin("E8") == DynkinType("E", 8)
    assert parse_dynkin("A12") == DynkinType("A", 12)
    assert parse_dynkin("g2") == DynkinType("G", 2)
    assert parse_dynkin(" b3 ") == DynkinType("B", 3)


def test_parse_rejects_out_of_range():
    for bad in ["C2", "D3", "E9", "E5", "F5", "G3", "B1", "A0", "H4", "A33", "D40"]:
        with pytest.raises(InvalidType):
            parse_dynkin(bad)
    with pytest.raises(InvalidType):
        parse_dynkin("8E")


def test_rank_one_system():
    rs = rsys("A1")
    assert rs.num_roots == 2
    assert root_set(rs) == {(1,), (-1,)}


def test_e8_has_240_roots():
    # frozen via the closure count, cross-checked against rank * (height + 1)
    rs = rsys("E8")
    assert rs.num_roots == 240
    assert rs.num_roots == rs.rank * (sum(rs.highest_root) + 1)


def test_highest_roots_table():
    expected = {
        "A5": (1, 1, 1, 1, 1),
        "B5": (1, 2, 2, 2, 2),
        "C5": (2, 2, 2, 2, 1),
        "D5": (1, 2, 2, 1, 1),
        "E6": (1, 2, 2, 3, 2, 1),
        "E7": (2, 2, 3, 4, 3, 2, 1),
        "E8": (2, 3, 4, 6, 5, 4, 3, 2),
        "F4": (2, 3, 4, 2),
        "G2": (3, 2),
    }
    for label, coords in expected.items():
        assert rsys(label).highest_root == coords


def test_d_family_highest_root_multiplicities():
    for l in range(4, 9):
        top = rsys(f"D{l}").highest_root
        assert top[0] == 1
        assert all(top[i] == 2 for i in range(1, l - 2))
        assert top[l - 2] == top[l - 1] == 1


def test_mult_bounded_by_highest_root():
    for label in ["A4", "B4", "C4", "D5", "F4", "G2", "E6"]:
        rs = rsys(label)
        top = rs.highest_root
        for r in root_set(rs):
            assert all(abs(r[i]) <= top[i] for i in range(rs.rank))


def test_weight_conversion_table_anchors():
    for l in range(3, 9):
        rs = rsys(f"B{l}")
        w = root_to_weight(rs, (1,) + (2,) * (l - 1))
        assert w == tuple(int(i == 1) for i in range(l))
    for l in range(3, 9):
        rs = rsys(f"C{l}")
        w = root_to_weight(rs, (2,) * (l - 1) + (1,))
        assert w == (2,) + (0,) * (l - 1)


def test_weight_conversion_zero_and_roundtrip():
    for label in ["A3", "B3", "C3", "D4", "F4", "G2"]:
        rs = rsys(label)
        zero = (0,) * rs.rank
        assert root_to_weight(rs, zero) == zero
        for r in root_set(rs):
            assert tuple(root_coords(rs, root_to_weight(rs, r))) == r


def test_weight_conversion_rejects_non_root_lattice():
    rs = rsys("B3")
    spin = (0, 0, 1)
    frac = root_coords(rs, spin)
    assert any(x.denominator != 1 for x in frac)
    assert root_to_weight(rs, [int(2 * x) for x in frac]) == (0, 0, 2)


def test_to_dominant_examples():
    rs = rsys("A1")
    assert to_dominant(rs, (-1,)) == ((1,), 1)
    assert to_dominant(rs, (5,)) == ((5,), 0)
    rs = rsys("A2")
    # s1([1,0]) = [-1,1], so [-1,1] pulls back in one reflection
    assert to_dominant(rs, (-1, 1)) == ((1, 0), 1)


# Weights at the edges of the digit widths: a bound of 127 fits 8-bit
# digits and 128 does not (G2's highest coroot is (2, 3), so (2, 41) and
# (1, 42) sit on either side), 2^63 needs wider digits than struct packs,
# and 10^30 is packed with int.to_bytes.
_NEAR_BOUND = {
    "A1": [
        (s * x,)
        for x in (127, 128, 32767, 32768, 100000, 2**63 - 1, 2**63, 10**30)
        for s in (1, -1)
    ],
    "G2": [
        (a * x, b * y)
        for x, y in ((50, 70), (70, 50), (2, 41), (1, 42), (30, 9))
        for a in (1, -1)
        for b in (1, -1)
    ],
}


@pytest.mark.parametrize("label", ["A1", "G2", "F4", "B8", "C8", "D8", "E8", "A32"])
def test_to_dominant_matches_tuple_oracle(label):
    # the reduction loop on codes against the tuple loop it replaced: the
    # same dominant weight and the same number of reflections
    rs = rsys(label)
    rng = random.Random(20261019)
    vectors = [tuple(rng.randint(-6, 6) for _ in range(rs.rank)) for _ in range(20_000)]
    for v in vectors + _NEAR_BOUND.get(label, []):
        assert to_dominant(rs, v) == tuple_to_dominant(rs, v), v


def test_weight_codes_widths_and_overflow_guard():
    rs = rsys("G2")
    assert rs.highest_coroot == (2, 3)
    assert rs.coordinate_bound((2, -41)) == 127
    assert [rs.weight_codes(b).width for b in (0, 127, 128, 2**31 - 1, 2**31)] == [
        8, 8, 16, 32, 64
    ]
    assert rs.weight_codes(2**63).width == 72
    codes = rs.weight_codes(127)
    for v in [(0, 0), (127, -127), (-128, 5)]:
        assert codes.decode(codes.encode(v)) == v
    for v in [(128, 0), (0, -129), (1, 2, 3)]:
        with pytest.raises(InvariantViolation):
            codes.encode(v)
    # a carry out of the top digit, or a borrow below the lowest code
    for c in (codes.tops << 8, -1):
        with pytest.raises(InvariantViolation):
            codes.decode(c)
    # a coordinate that overflows its digit stops the table's reduction loop
    a1 = rsys("A1").weight_codes(127)
    with pytest.raises(InvariantViolation, match="no dominant code after 1 reflections"):
        a1.dominant(a1.encode((-128,)))
    wide = rs.weight_codes(10**30)
    assert wide.decode(wide.encode((10**30, -(10**30)))) == (10**30, -(10**30))
    with pytest.raises(InvariantViolation):
        wide.encode((2**wide.width, 0))


def test_highest_coroot_bounds_every_coroot():
    # the coroot of the highest short root has the largest coefficient of
    # every coroot at every node
    for label in ALL_TYPES:
        rs = rsys(label)
        cols = zip(*rs.positive_pairings)
        assert rs.highest_coroot == tuple(
            max(2 * x // norm for x, norm in zip(col, rs.positive_norms)) for col in cols
        ), label


def test_to_dominant_stays_in_orbit():
    from lieinduct.rep_theory import weyl_orbit

    rs = rsys("B3")
    for w in [(-1, 2, -3), (0, -1, 1), (-2, -2, -2), (1, 1, 1)]:
        dom, count = to_dominant(rs, w)
        assert all(x >= 0 for x in dom)
        assert tuple(w) in weyl_orbit(rs, dom)
        if w == (1, 1, 1):
            assert count == 0


def test_to_dominant_reflection_count_parity():
    # for regular weights the parity equals the sign of the group element,
    # replayed here through an independent sign computation
    import sys, os
    sys.path.insert(0, os.path.dirname(__file__))
    from oracles import weyl_oracle

    rs = rsys("B2")
    gp = weyl_oracle(rs)
    for mat, sign in gp.elements.items():
        w = gp.act(mat, (1, 2))
        _, count = to_dominant(rs, w)
        assert (-1) ** count == sign


def test_diagram_automorphism_orders():
    assert len(diagram_automorphisms(DynkinType("A", 1))) == 1
    for l in range(2, 9):
        assert len(diagram_automorphisms(DynkinType("A", l))) == 2
    assert len(diagram_automorphisms(DynkinType("D", 4))) == 6
    for l in range(5, 9):
        assert len(diagram_automorphisms(DynkinType("D", l))) == 2
    assert len(diagram_automorphisms(DynkinType("E", 6))) == 2
    for label in ["B5", "C4", "E7", "E8", "F4", "G2"]:
        assert len(diagram_automorphisms(parse_dynkin(label))) == 1


def test_automorphisms_preserve_cartan():
    from lieinduct.root_system import cartan_matrix

    t = DynkinType("D", 4)
    c = cartan_matrix(t).entries
    for p in diagram_automorphisms(t):
        for i in range(4):
            for j in range(4):
                assert c[p[i] - 1][p[j] - 1] == c[i][j]


def _brute_isomorphisms(canon, entries, labels):
    """Every map canonical node -> ambient label preserving the Cartan
    entries, in lexicographic order (permutations of a sorted list are)."""
    n = len(canon)
    return [
        p for p in itertools.permutations(sorted(labels))
        if all(entries[p[i] - 1][p[j] - 1] == canon[i][j] for i in range(n) for j in range(n))
    ]


def test_diagram_automorphisms_match_brute_force():
    for label in ALL_TYPES:
        t = parse_dynkin(label)
        if t.rank > 6:
            continue
        c = cartan_matrix(t).entries
        brute = _brute_isomorphisms(c, c, range(1, t.rank + 1))
        assert diagram_automorphisms(t) == tuple(brute), label


def test_classify_subdiagram_takes_smallest_isomorphism():
    rng = random.Random(20261018)
    for label in ["E8", "F4", "B6", "D6"]:
        rs = rsys(label)
        entries = rs.cartan.entries
        for _ in range(12):
            nodes = rng.sample(range(1, rs.rank + 1), rng.randint(1, rs.rank))
            for comp in classify_subdiagram(entries, rs.cartan.symmetrizer, nodes):
                canon = cartan_matrix(comp.type).entries
                smallest = _brute_isomorphisms(canon, entries, comp.embedding)[0]
                assert comp.embedding == smallest, (label, sorted(nodes))


def _accepted_types(rank):
    return [DynkinType(f, rank) for f, (lo, hi) in RANK_RANGES.items() if lo <= rank <= hi]


def test_component_type_names_the_one_type_that_embeds():
    """Every connected component of every node subset through rank 9, and of
    seeded subsets at rank 32: the named type's diagram embeds in it, and no
    other accepted type of its rank does."""
    rng = random.Random(20261019)
    cases = set()
    for t in (t for r in range(1, 10) for t in _accepted_types(r)):
        cm = cartan_matrix(t)
        for k in range(1, t.rank + 1):
            for nodes in itertools.combinations(range(1, t.rank + 1), k):
                cases.update((cm, tuple(c)) for c in connected_components(cm.entries, nodes))
    for family in "ABCD":
        cm = cartan_matrix(DynkinType(family, 32))
        for _ in range(40):
            nodes = rng.sample(range(1, 33), rng.randint(1, 32))
            cases.update((cm, tuple(c)) for c in connected_components(cm.entries, nodes))
    for cm, comp in cases:
        named = component_type(cm.entries, cm.symmetrizer, comp)
        for t in _accepted_types(len(comp)):
            found = next(diagram_embeddings(cartan_matrix(t).entries, cm.entries, comp), None)
            assert (found is not None) == (t == named), (cm.symmetrizer, comp, named, t)


def test_classify_subdiagram_rejects_shapes_not_of_finite_type():
    from lieinduct.induction import EXCEPTIONAL_TARGETS

    shapes = [
        cartan_from_edges([1, 1, 1], [(1, 2), (2, 3), (1, 3)]),  # affine A2
        cartan_from_edges([1] * 5, [(1, 2), (1, 3), (1, 4), (1, 5)]),  # affine D4
        cartan_from_edges([1, 2, 4], [(1, 2), (2, 3)]),  # root lengths 1 : 2 : 4
    ] + [target.cartan for targets in EXCEPTIONAL_TARGETS.values() for target in targets]
    for cm in shapes:
        with pytest.raises(InvalidType):
            classify_subdiagram(cm.entries, cm.symmetrizer, range(1, cm.rank + 1))


def test_coxeter_number_invariant_is_a_typed_error():
    # a fresh E8 whose highest root is overwritten in its __dict__, past the
    # read-only guard: |R| / rank is 30, the height 7
    broken = RootSystem(DynkinType("E", 8), cartan_matrix(DynkinType("E", 8)))
    vars(broken)["highest_root"] = (1,) * 8
    with pytest.raises(InvariantViolation):
        coxeter_number(broken)


def test_coxeter_numbers():
    assert coxeter_number(rsys("E8")) == 30
    assert sum(rsys("E8").highest_root) == 29
    for l in range(1, 9):
        assert coxeter_number(rsys(f"A{l}")) == l + 1
    assert coxeter_number(rsys("G2")) == 6
    for label in ALL_TYPES:
        rs = rsys(label)
        assert rs.num_roots == rs.rank * coxeter_number(rs)


def test_root_set_closure():
    for label in ["A3", "B3", "C3", "D4", "G2", "F4"]:
        rs = rsys(label)
        roots = root_set(rs)
        for r in roots:
            assert all(x >= 0 for x in r) or all(x <= 0 for x in r)
            assert tuple(-x for x in r) in roots
            w = root_to_weight(rs, r)
            for i in range(1, rs.rank + 1):
                back = tuple(root_coords(rs, simple_reflection(rs, w, i)))
                assert back in roots
        heights = sorted(sum(r) for r in rs.positive_roots)
        assert heights.count(heights[-1]) == 1


def test_symmetrizer_conventions():
    from lieinduct.root_system import cartan_matrix

    for label in ALL_TYPES:
        cm = cartan_matrix(parse_dynkin(label))
        c, d = cm.entries, cm.symmetrizer
        n = len(d)
        assert min(d) == 1
        # C * diag(d) is the symmetric bilinear form on the simple roots
        for i in range(n):
            for j in range(n):
                assert c[i][j] * d[j] == c[j][i] * d[i]
        # short simple roots carry d_i = 1
        if label.startswith("B"):
            assert d == (2,) * (n - 1) + (1,)
        if label.startswith("C"):
            assert d == (1,) * (n - 1) + (2,)
    assert cartan_matrix(DynkinType("F", 4)).symmetrizer == (2, 2, 1, 1)
    assert cartan_matrix(DynkinType("G", 2)).symmetrizer == (1, 3)


def test_cartan_matrix_matches_patched_chain_oracle():
    # every accepted type, up to the rank cap of the classical families
    count = 0
    for family, (lo, hi) in RANK_RANGES.items():
        for rank in range(lo, hi + 1):
            t = DynkinType(family, rank)
            assert cartan_matrix(t) == patched_cartan_matrix(t), t
            count += 1
    assert count == 32 + 31 + 30 + 29 + 3 + 1 + 1


def test_root_closure_matches_tuple_oracle():
    # every accepted type, roots in order and their weights
    count = 0
    for family, (lo, hi) in RANK_RANGES.items():
        for rank in range(lo, hi + 1):
            t = DynkinType(family, rank)
            rs = build_root_system(t)
            roots, weights = tuple_root_closure(rs.cartan)
            assert rs.positive_roots == roots, t
            assert rs.positive_weights == weights, t
            count += 1
    assert count == 32 + 31 + 30 + 29 + 3 + 1 + 1


def negative_nodes(rs):
    """Per positive root, bit j set when the reflection table's row j holds
    it: the nodes where its weight is negative."""
    return tuple(
        sum(1 << j for j, row in enumerate(rs._raising) if i in row)
        for i in range(len(rs.positive_roots))
    )


def test_raising_table_matches_tuple_oracle():
    # every accepted type: per node j, each reflection edge of the tuple
    # oracle read from its lower end, found on root codes; and the lower
    # ends are the roots whose negative-node mask holds j
    count = 0
    for family, (lo, hi) in RANK_RANGES.items():
        for rank in range(lo, hi + 1):
            t = DynkinType(family, rank)
            rs = build_root_system(t)
            negative = negative_nodes(rs)
            for j, edges in enumerate(tuple_reflection_edges(rs)):
                assert rs._raising[j] == {k: i for i, k in edges}, (t, j)
                lower = {i for i, nodes in enumerate(negative) if nodes >> j & 1}
                assert lower == {k for _, k in edges}, (t, j)
            count += 1
    assert count == 32 + 31 + 30 + 29 + 3 + 1 + 1


def test_root_classes_match_union_find_oracle():
    # every zero set through rank 6, seeded ones (with the empty and the
    # full set) up to rank 32
    rng = random.Random(20261019)
    count = 0
    for family, (lo, hi) in RANK_RANGES.items():
        for rank in range(lo, hi + 1):
            rs = build_root_system(DynkinType(family, rank))
            if rank <= 6:
                zero_sets = [tuple(j for j in range(rank) if bits >> j & 1)
                             for bits in range(1 << rank)]
            else:
                zero_sets = [(), tuple(range(rank))] + [
                    tuple(sorted(rng.sample(range(rank), rng.randint(1, rank - 1))))
                    for _ in range(4)
                ]
            for zero in zero_sets:
                assert rs.positive_root_classes(zero) == union_find_root_classes(rs, zero), (
                    rs.type, zero)
                count += 1
    assert count == 566 + 6 * 106


def test_root_closure_refuses_a_matrix_not_of_finite_type():
    # affine A1, A2 and C2 have roots of every height; the closure stops
    # before a coefficient would carry into the next digit of a root code.
    # Affine C2 has double edges, so its closure takes the w_i >= 0 probe.
    for entries, d in [
        (((2, -2), (-2, 2)), (1, 1)),
        (((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), (1, 1, 1)),
        (((2, -1, 0), (-2, 2, -2), (0, -1, 2)), (1, 2, 1)),
    ]:
        with pytest.raises(InvariantViolation, match="not of finite type"):
            _root_closure(CartanMatrix(entries, d))
    # A1 + A1 closes, but with two highest roots: not irreducible
    with pytest.raises(InvalidType, match="2 highest roots"):
        _root_closure(CartanMatrix(((2, 0), (0, 2)), (1, 1)))
    # A2 + A1 ends on one root, (1, 1, 0), the highest root of A2 alone
    with pytest.raises(InvalidType, match="misses a node"):
        _root_closure(CartanMatrix(((2, -1, 0), (-1, 2, 0), (0, 0, 2)), (1, 1, 1)))


def test_root_closure_tables_match_per_call_formulas():
    # every accepted type: each table the closure fills on its one pass,
    # and the negative-node masks read off the reflection table built on
    # first read, against the formula each replaces, the codes against
    # radix-8 codes of the tuple oracle's roots
    count = 0
    for family, (lo, hi) in RANK_RANGES.items():
        for rank in range(lo, hi + 1):
            t = DynkinType(family, rank)
            rs = build_root_system(t)
            roots, weights = tuple_root_closure(rs.cartan)
            steps = [8 ** (rank - 1 - j) for j in range(rank)]
            assert rs.root_codes == {
                sum(map(mul, a, steps)): i for i, a in enumerate(roots)
            }, t
            assert rs.positive_norms == tuple(
                rs.form_weight_root(aw, a) for a, aw in zip(roots, weights)
            ), t
            for bits, sign in [(rs.positive_nodes, 1), (negative_nodes(rs), -1)]:
                assert bits == tuple(
                    sum(1 << j for j, x in enumerate(aw) if x * sign > 0) for aw in weights
                ), t
            count += 1
    assert count == 32 + 31 + 30 + 29 + 3 + 1 + 1


def test_cartan_from_edges_validates():
    cm = cartan_from_edges((1, 3), [(1, 2)])
    assert cm.entries == ((2, -1), (-3, 2)) and cm.symmetrizer == (1, 3)
    with pytest.raises(InvalidType):
        cartan_from_edges((1, 4), [(1, 2)])  # entry -4 is out of range
    with pytest.raises(InvalidType):
        cartan_from_edges((2, 3), [(1, 2)])  # d does not symmetrize C
    with pytest.raises(InvalidType):
        cartan_from_edges((2, 2), [(1, 2)])  # not normalized
    with pytest.raises(InvalidType):
        cartan_from_edges((), [])  # no node
    for edge in [(0, 1), (1, 0), (1, 3), (-1, 2), (1, 1)]:
        # label 0 would wrap round to the last node, 3 is past it, and a
        # self-loop would overwrite the diagonal
        with pytest.raises(InvalidType):
            cartan_from_edges((1, 1), [edge])
    with pytest.raises(InvalidType):
        cartan_from_edges((1, 2, 3), [(1, 2), (2, 3)])  # 3 is not a multiple of 2


def test_positive_pairings_scale_roots_by_the_symmetrizer():
    # every accepted type; the roots themselves, with no copy, exactly when
    # every d_j is 1
    count = 0
    for family, (lo, hi) in RANK_RANGES.items():
        for rank in range(lo, hi + 1):
            rs = build_root_system(DynkinType(family, rank))
            d = rs.cartan.symmetrizer
            assert rs.positive_pairings == tuple(tuple(map(mul, a, d)) for a in rs.positive_roots)
            assert (rs.positive_pairings is rs.positive_roots) == (set(d) == {1}), family
            count += 1
    assert count == 127


def test_weyl_orders():
    # rho has a trivial stabilizer, so its orbit is the whole Weyl group
    for label, order in [("A2", 6), ("B2", 8), ("D4", 192), ("F4", 1152), ("E8", 696729600)]:
        rs = rsys(label)
        assert orbit_size(rs, rs.rho) == order, label


def test_weyl_orders_match_enumerated_groups():
    for label in ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "B4", "F4", "G2"]:
        rs = rsys(label)
        assert orbit_size(rs, rs.rho) == len(weyl_oracle(rs).elements), label


def test_subdiagram_classification():
    rs = rsys("E7")
    comps = classify_subdiagram(rs.cartan.entries, rs.cartan.symmetrizer, [2, 3, 4, 5, 6, 7])
    assert [str(c.type) for c in comps] == ["D6"]
    comps = classify_subdiagram(rs.cartan.entries, rs.cartan.symmetrizer, [1, 3, 5, 6, 7])
    assert sorted(str(c.type) for c in comps) == ["A2", "A3"]
    rs = rsys("F4")
    comps = classify_subdiagram(rs.cartan.entries, rs.cartan.symmetrizer, [2, 3, 4])
    assert [str(c.type) for c in comps] == ["C3"]
    assert comps[0].embedding == (4, 3, 2)


def test_root_datum_matches_per_call_formulas():
    rng = random.Random(20261018)
    for label in ALL_TYPES:
        rs = rsys(label)
        n = rs.rank
        assert rs.positive_weights == tuple(root_to_weight(rs, a) for a in rs.positive_roots)
        assert rs.positive_norms == tuple(
            rs.form_weight_root(root_to_weight(rs, a), a) for a in rs.positive_roots
        )
        for a, ap in zip(rs.positive_roots, rs.positive_pairings):
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            assert sum(x * y for x, y in zip(v, ap)) == rs.form_weight_root(v, a)
        h, den = rs.height_form
        assert den > 0
        for _ in range(12):
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            assert den * root_height(rs, v) == sum(x * y for x, y in zip(h, v))


def test_root_datum_is_per_instance():
    # a doubled symmetrizer doubles the form; the datum must follow the
    # instance, not be looked up by its Dynkin type
    rs = rsys("G2")
    scaled = CartanMatrix(rs.cartan.entries, tuple(2 * d for d in rs.cartan.symmetrizer))
    rs2 = RootSystem(rs.type, scaled)
    assert rs2.positive_norms == tuple(2 * x for x in rs.positive_norms)
    assert rs2.weyl_denominator == rs.weyl_denominator * 2 ** len(rs.positive_roots)
    assert rs2.positive_weights == rs.positive_weights
    assert rs2.height_form == rs.height_form


def test_check_embedding_accepts_and_rejects():
    f4 = cartan_matrix(DynkinType("F", 4)).entries
    c3 = [DynkinType("C", 3)]
    assert check_embedding(f4, 1, c3, (4, 3, 2), "F4") == (4, 3, 2)
    assert check_embedding(f4, 1, c3, {1: 4, 2: 3, 3: 2}, "F4") == (4, 3, 2)
    bad = [
        (5, c3, (4, 3, 2)),  # node out of range
        (1, [DynkinType("A", 2)], (4, 3)),  # not corank one
        (1, c3, {1: 4, 2: 3}),  # missing label
        (1, c3, (4, 3)),  # too short
        (1, c3, (4, 3, 1)),  # image contains the deleted node
        (1, c3, (2, 3, 4)),  # wrong orientation of the double edge
    ]
    for node, residual, iota in bad:
        with pytest.raises(BadEmbedding):
            check_embedding(f4, node, residual, iota, "F4")
    # two components: fine when apart, refused when joined by an edge
    a4 = cartan_matrix(DynkinType("A", 4)).entries
    a2_a1 = [DynkinType("A", 2), DynkinType("A", 1)]
    assert check_embedding(a4, 3, a2_a1, (2, 1, 4), "A4") == (2, 1, 4)
    with pytest.raises(BadEmbedding):
        check_embedding(a4, 4, a2_a1, (1, 2, 3), "A4")
