"""Decomposition engine: straightening, tensor products, exterior/symmetric squares."""

import os
import random
import sys
from collections import Counter

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from oracles import (
    brute_sym2_decompose,
    brute_tensor_decompose,
    brute_wedge2_decompose,
    root_height,
    root_set,
    root_to_weight,
    tuple_square,
    tuple_straighten,
    tuple_weyl_orbit,
)

from lieinduct.errors import InvariantViolation, NotACharacter
from lieinduct.rep_theory import CharacterTable, freudenthal_character, weyl_dim, weyl_orbit
from lieinduct.root_system import RootSystem, build_root_system, parse_dynkin
from lieinduct.tensor_ops import (
    decompose_character,
    sym2_decompose,
    tensor_decompose,
    wedge2_decompose,
)


def rsys(label):
    return build_root_system(parse_dynkin(label))


def w(rank, idx, scale=1):
    out = [0] * rank
    if idx:
        out[idx - 1] = scale
    return tuple(out)


def test_decompose_irreducible_character_is_identity():
    rs = rsys("B3")
    ch = freudenthal_character(rs, (1, 0, 1))
    dec = decompose_character(rs, ch)
    assert dec.as_multiset() == {(1, 0, 1): 1}


def test_decompose_sum_of_two_characters():
    rs = rsys("A3")
    a = freudenthal_character(rs, (1, 0, 1)).entries
    b = freudenthal_character(rs, (0, 1, 0)).entries
    total = dict(a)
    for k, v in b.items():
        total[k] = total.get(k, 0) + v
    dec = decompose_character(rs, CharacterTable(rs.type, total))
    assert dec.as_multiset() == {(1, 0, 1): 1, (0, 1, 0): 1}


def test_adjoint_character_assembled_from_roots():
    # six root weights plus a two-dimensional zero space give the adjoint
    rs = rsys("A2")
    weights = Counter(root_to_weight(rs, r) for r in root_set(rs))
    weights[0, 0] += 2
    table = CharacterTable(rs.type, {v: m for v, m in weights.items() if min(v) >= 0})
    assert table.expand(rs) == weights
    dec = decompose_character(rs, table)
    assert dec.as_multiset() == {(1, 1): 1}
    assert dec.source_dimension == 8


def test_decompose_rejects_non_characters():
    rs = rsys("A2")
    with pytest.raises(NotACharacter):
        decompose_character(rs, CharacterTable(rs.type, {(1, 1): 1, (0, 0): 1}))
    with pytest.raises(NotACharacter):
        CharacterTable(rs.type, {(1, 0): -1})


def test_tensor_named_a8_case():
    rs = rsys("A8")
    dec = tensor_decompose(rs, w(8, 3), w(8, 6))
    assert dec.as_multiset() == {
        (0, 0, 1, 0, 0, 1, 0, 0): 1,
        (0, 1, 0, 0, 0, 0, 1, 0): 1,
        (1, 0, 0, 0, 0, 0, 0, 1): 1,
        (0, 0, 0, 0, 0, 0, 0, 0): 1,
    }
    assert dec.source_dimension == 84 * 84


def test_tensor_named_a7_case():
    # the third level of the rank-8 chain comes from this product
    rs = rsys("A7")
    dec = tensor_decompose(rs, w(7, 3), w(7, 6))
    assert dec.as_multiset() == {
        (0, 0, 1, 0, 0, 1, 0): 1,
        (0, 1, 0, 0, 0, 0, 1): 1,
        (1, 0, 0, 0, 0, 0, 0): 1,
    }


def test_wedge2_of_a8_sixth_power():
    dec = wedge2_decompose(rsys("A8"), w(8, 6))
    assert dec.as_multiset() == {(0, 0, 0, 0, 1, 0, 1, 0): 1, w(8, 3): 1}


def test_tensor_with_trivial_is_identity():
    rs = rsys("A8")
    dec = tensor_decompose(rs, w(8, 3), w(8, 0))
    assert dec.as_multiset() == {w(8, 3): 1}
    rs = rsys("G2")
    dec = tensor_decompose(rs, (1, 1), (0, 0))
    assert dec.as_multiset() == {(1, 1): 1}


def test_tensor_is_commutative():
    rs = rsys("B3")
    a, b = (1, 0, 1), (0, 1, 0)
    assert tensor_decompose(rs, a, b).as_multiset() == tensor_decompose(rs, b, a).as_multiset()


def test_wedge2_named_cases():
    assert wedge2_decompose(rsys("D8"), w(8, 7)).as_multiset() == {
        w(8, 2): 1, w(8, 6): 1
    }
    assert wedge2_decompose(rsys("A7"), w(7, 3)).as_multiset() == {
        (0, 1, 0, 1, 0, 0, 0): 1, w(7, 6): 1
    }
    assert wedge2_decompose(rsys("A6"), w(6, 3)).as_multiset() == {
        (0, 1, 0, 1, 0, 0): 1, w(6, 6): 1
    }
    assert wedge2_decompose(rsys("D7"), w(7, 6)).as_multiset() == {
        w(7, 5): 1, w(7, 1): 1
    }
    assert wedge2_decompose(rsys("B3"), w(3, 3)).as_multiset() == {
        w(3, 1): 1, w(3, 2): 1
    }
    for l in range(3, 7):
        assert wedge2_decompose(rsys(f"C{l}"), w(l, 1)).as_multiset() == {
            w(l, 2): 1, w(l, 0): 1
        }
    assert wedge2_decompose(rsys("G2"), (1, 0)).as_multiset() == {
        (1, 0): 1, (0, 1): 1
    }


def test_wedge2_of_a1_natural_is_trivial():
    dec = wedge2_decompose(rsys("A1"), (1,))
    assert dec.as_multiset() == {(0,): 1}


def test_sym2_cases():
    assert sym2_decompose(rsys("A1"), (1,)).as_multiset() == {(2,): 1}
    for l in range(2, 6):
        assert sym2_decompose(rsys(f"A{l}"), w(l, 1)).as_multiset() == {w(l, 1, 2): 1}
    assert sym2_decompose(rsys("A1"), (3,)).as_multiset() == {(6,): 1, (2,): 1}
    assert wedge2_decompose(rsys("A1"), (3,)).as_multiset() == {(4,): 1, (0,): 1}


def test_wedge_plus_sym_equals_square():
    cases = [
        ("A2", (1, 1)), ("B2", (0, 1)), ("C3", (1, 0, 0)), ("G2", (0, 1)),
        ("A3", (0, 1, 0)), ("D4", (0, 0, 0, 1)), ("B3", (0, 0, 1)),
    ]
    for label, lam in cases:
        rs = rsys(label)
        wedge = wedge2_decompose(rs, lam).as_multiset()
        sym = sym2_decompose(rs, lam).as_multiset()
        combined = dict(wedge)
        for k, v in sym.items():
            combined[k] = combined.get(k, 0) + v
        assert combined == tensor_decompose(rs, lam, lam).as_multiset(), label


def test_largest_pinned_desk_case():
    # wedge of the 64-dimensional half-spin module: 64 weights convolved
    rs = rsys("D7")
    dec = wedge2_decompose(rs, w(7, 6))
    assert dec.source_dimension == 64 * 63 // 2
    assert sorted(md.dimension for md, _ in dec.summands) == [14, 2002]


def test_dimension_conservation_randomized():
    rng = random.Random(20260810)
    labels = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"]
    done = 0
    while done < 60:
        label = rng.choice(labels)
        rs = rsys(label)
        lam = tuple(rng.randint(0, 2) for _ in range(rs.rank))
        if weyl_dim(rs, lam) > 130:
            continue
        op = rng.choice(["tensor", "wedge2", "sym2"])
        if op == "tensor":
            mu = tuple(rng.randint(0, 2) for _ in range(rs.rank))
            if weyl_dim(rs, mu) > 130:
                continue
            dec = tensor_decompose(rs, lam, mu)
            assert dec.source_dimension == weyl_dim(rs, lam) * weyl_dim(rs, mu)
        elif op == "wedge2":
            d = weyl_dim(rs, lam)
            assert wedge2_decompose(rs, lam).source_dimension == d * (d - 1) // 2
        else:
            d = weyl_dim(rs, lam)
            assert sym2_decompose(rs, lam).source_dimension == d * (d + 1) // 2
        done += 1


def test_tensor_against_brute_oracle_spot():
    for label, a, b in [
        ("A2", (1, 0), (0, 1)), ("A2", (2, 1), (1, 1)),
        ("B2", (1, 0), (0, 1)), ("B2", (2, 2), (1, 0)),
    ]:
        rs = rsys(label)
        assert tensor_decompose(rs, a, b).as_multiset() == brute_tensor_decompose(rs, a, b)


def test_decompose_rebuild_identity():
    # summing the characters of a decomposition's own output and decomposing again
    # returns the same multiset
    rs = rsys("B3")
    dec = tensor_decompose(rs, (1, 0, 0), (0, 0, 1))
    total = {}
    for md, m in dec.summands:
        for k, v in freudenthal_character(rs, md.highest_weight).entries.items():
            total[k] = total.get(k, 0) + m * v
    again = decompose_character(rs, CharacterTable(rs.type, total))
    assert again.as_multiset() == dec.as_multiset()


def test_peeling_is_deterministic():
    rs = rsys("A3")
    d1 = tensor_decompose(rs, (1, 1, 0), (0, 1, 1))
    d2 = tensor_decompose(rs, (0, 1, 1), (1, 1, 0))
    assert d1.summands == d2.summands


def _engine_full_character(rs, lam):
    return freudenthal_character(rs, lam).expand(rs)


def _check_against_oracle(rs, op, lam, mu=None, character=None):
    if op == "tensor":
        got = tensor_decompose(rs, lam, mu)
        want = brute_tensor_decompose(rs, lam, mu, character)
    elif op == "wedge2":
        got = wedge2_decompose(rs, lam)
        want = brute_wedge2_decompose(rs, lam, character)
    else:
        got = sym2_decompose(rs, lam)
        want = brute_sym2_decompose(rs, lam, character)
    assert got.as_multiset() == want, (str(rs.type), op, lam, mu)


def test_straightening_against_oracles_randomized():
    # every family with a member of rank <= 4; E is covered by the pinned
    # E6 case below.  Oracle characters come from the Kostant formula.
    rng = random.Random(20261017)
    labels = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"]

    def draw(rs):
        while True:
            lam = tuple(rng.randint(0, 2) for _ in range(rs.rank))
            if weyl_dim(rs, lam) <= 200:
                return lam

    for label in labels:
        rs = rsys(label)
        for op in ("tensor", "wedge2", "sym2") * 2:
            _check_against_oracle(rs, op, draw(rs), draw(rs))


@pytest.mark.parametrize(
    "label, op, lam, mu",
    [
        ("D8", "wedge2", w(8, 7), None),
        ("A8", "tensor", w(8, 3), w(8, 6)),
        ("F4", "sym2", w(4, 4), None),
        ("E6", "tensor", w(6, 1), w(6, 6)),
    ],
)
def test_straightening_against_oracles_pinned(label, op, lam, mu):
    # the Weyl-group sum is out of reach at these ranks, so the oracle
    # convolves and peels Freudenthal characters instead
    _check_against_oracle(rsys(label), op, lam, mu, _engine_full_character)


def _tuple_full_table(rs, lam):
    # the engine's dominant multiplicities, expanded by the tuple orbit walk
    return {
        v: m
        for mu, m in freudenthal_character(rs, lam).entries.items()
        for v in tuple_weyl_orbit(rs, mu)
    }


@pytest.mark.parametrize(
    "label, op, lam, mu",
    [
        ("A32", "tensor", w(32, 3), w(32, 5)),
        ("D32", "wedge2", w(32, 1), None),
        ("G2", "tensor", (50, 70), (30, 9)),
        ("A1", "tensor", (100000,), (3,)),
        ("A1", "tensor", (10**30,), (2,)),
        ("E8", "sym2", w(8, 1), None),
        ("B8", "sym2", w(8, 8), None),
        ("G2", "wedge2", (6, 5), None),
        ("A1", "tensor", (100,), (50,)),
        ("A1", "sym2", (100,), None),
        ("G2", "wedge2", (30, 2), None),
    ],
)
def test_code_straightening_matches_tuple_oracle(label, op, lam, mu):
    # straightening on codes against the tuple straightening it replaced;
    # G2 [50,70] needs 16-bit digits, A1 [100000] 32-bit and A1 [10^30]
    # digits wider than struct packs.  In A1 [100] (x) [50], A1 S^2 [100]
    # and G2 Lambda^2 [30,2] the factor's own weights fit 8-bit digits but
    # the straightened ones (up to lam_small + shift + rho, or 2 lam + rho)
    # do not
    rs = rsys(label)
    if op == "tensor":
        got = tensor_decompose(rs, lam, mu)
        small, big = sorted([lam, mu], key=lambda v: weyl_dim(rs, v))
        want = tuple_straighten(rs, _tuple_full_table(rs, small), big)
    else:
        sign = -1 if op == "wedge2" else 1
        got = (wedge2_decompose if op == "wedge2" else sym2_decompose)(rs, lam)
        want = tuple_square(rs, _tuple_full_table(rs, lam), lam, sign)
    assert got.as_multiset() == want


def test_walks_on_digits_too_narrow_raise(monkeypatch):
    # with every bound forced to 0 the codes have 8-bit digits, too narrow
    # for these orbits.  G2 (0, 45) has conjugates with coordinates up to
    # 135: its walk ends with 2 weights, not 6, all of which decode, so
    # only the count against the stabilizer formula shows it.  The others
    # overflow into a carry that decode refuses or a walk that runs past
    # the longest element.
    def fresh(label):
        rs = rsys(label)
        return RootSystem(rs.type, rs.cartan)

    g2, b2 = fresh("G2"), fresh("B2")
    freudenthal_character(b2, (36, 57))  # memoized with the true bounds
    monkeypatch.setattr(RootSystem, "coordinate_bound", lambda self, v: 0)
    with pytest.raises(InvariantViolation, match="orbit walk found 2 weights, not 6"):
        weyl_orbit(g2, (0, 45))
    # likewise the weights of B2 (36, 57): 14,120 of 14,236
    with pytest.raises(InvariantViolation, match="orbit walk found 14120 weights, not 14236"):
        tensor_decompose(b2, (36, 57), (36, 57))
    for label, weight in [("A2", (127, 127)), ("G2", (1, 42))]:
        with pytest.raises(InvariantViolation):
            weyl_orbit(fresh(label), weight)
    for label, weight in [("A2", (100, 28)), ("G2", (1, 42))]:
        with pytest.raises(InvariantViolation):
            tensor_decompose(fresh(label), weight, weight)


def test_summand_order_contract():
    cases = [
        ("A2", tensor_decompose, ((1, 1), (1, 1))),  # V(1,1) twice
        ("A8", tensor_decompose, (w(8, 3), w(8, 6))),  # trivial summand
        ("B3", tensor_decompose, ((1, 0, 1), (0, 1, 0))),
        ("E7", wedge2_decompose, (w(7, 6),)),
        ("F4", sym2_decompose, (w(4, 4),)),
        ("G2", sym2_decompose, ((1, 1),)),
    ]
    for label, fn, args in cases:
        rs = rsys(label)
        weights = list(fn(rs, *args).as_multiset())
        assert weights == sorted(
            weights, key=lambda v: (root_height(rs, v), v), reverse=True
        ), label
    dec = tensor_decompose(rsys("A2"), (1, 1), (1, 1))
    assert [(md.highest_weight, m) for md, m in dec.summands] == [
        ((2, 2), 1), ((3, 0), 1), ((0, 3), 1), ((1, 1), 2), ((0, 0), 1)
    ]
    assert list(tensor_decompose(rsys("A8"), w(8, 3), w(8, 6)).as_multiset())[-1] == w(8, 0)


def test_decompose_character_rejects_virtual_and_partial_tables():
    rs = rsys("A2")
    # a virtual character is refused when its table is built
    with pytest.raises(NotACharacter):
        CharacterTable(rs.type, {(1, 1): 1, (0, 0): 2, (3, 0): -1})
    # the adjoint with one copy of the zero weight missing: V(1,1) - V(0,0)
    with pytest.raises(NotACharacter):
        decompose_character(rs, CharacterTable(rs.type, {(1, 1): 1, (0, 0): 1}))
