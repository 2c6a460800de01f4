"""Dimensions, multiplicities, orbits and the defining-module classifier."""

import importlib
import inspect
import itertools
import os
import pkgutil
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from oracles import (
    character_defining_check,
    coroot_weight_class,
    full_weight_system,
    kostant_dominant_character,
    norm_scan_short_dominant_root,
    product_weyl_dim,
    root_to_weight,
    simple_reflection,
    stabilizer_orbit_size,
    tuple_weyl_orbit,
    unfolded_freudenthal,
    unindexed_dominant_weights,
    walked_freudenthal,
    weight_system_freudenthal,
    weyl_oracle,
)

import lieinduct
from lieinduct import rep_theory, root_system
from lieinduct.errors import BudgetExceeded, NotDominant
from lieinduct.rep_theory import (
    MAX_DOMINANT_WEIGHTS,
    MAX_WEIGHTS,
    CharacterTable,
    _howe_candidates,
    defining_modules,
    dominant_weights,
    freudenthal_character,
    is_defining,
    module_descriptor,
    num_short_simple_roots,
    orbit_codes,
    orbit_size,
    short_dominant_root,
    weyl_dim,
    weyl_orbit,
)
from lieinduct.root_system import (
    RANK_RANGES,
    CartanMatrix,
    DynkinType,
    RootSystem,
    build_root_system,
    cartan_matrix,
    parse_dynkin,
)
from lieinduct.tensor_ops import tensor_decompose, wedge2_decompose


ALL_LABELS = (
    [f"A{l}" for l in range(1, 9)]
    + [f"B{l}" for l in range(2, 9)]
    + [f"C{l}" for l in range(3, 9)]
    + [f"D{l}" for l in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def rsys(label):
    return build_root_system(parse_dynkin(label))


def w(rank, idx, scale=1):
    out = [0] * rank
    if idx:
        out[idx - 1] = scale
    return tuple(out)


def test_weyl_dim_named_values():
    assert weyl_dim(rsys("E7"), w(7, 7)) == 56
    assert weyl_dim(rsys("E6"), w(6, 6)) == 27
    assert weyl_dim(rsys("A5"), w(5, 3)) == 20
    assert weyl_dim(rsys("D7"), w(7, 6)) == 64
    assert weyl_dim(rsys("D6"), w(6, 5)) == 32
    assert weyl_dim(rsys("D5"), w(5, 4)) == 16
    assert weyl_dim(rsys("C3"), w(3, 3)) == 14
    assert weyl_dim(rsys("B3"), w(3, 3)) == 8
    assert weyl_dim(rsys("D8"), w(8, 7)) == 128
    assert weyl_dim(rsys("B4"), w(4, 4)) == 16
    assert weyl_dim(rsys("E8"), w(8, 8)) == 248
    for label in ["A4", "B3", "G2", "E6"]:
        rs = rsys(label)
        assert weyl_dim(rs, (0,) * rs.rank) == 1


def test_adjoint_dimension_identity():
    # the module with the highest root as highest weight is the algebra
    # itself: its Weyl dimension equals the root count plus the rank
    labels = (
        [f"A{l}" for l in range(1, 9)] + [f"B{l}" for l in range(2, 9)]
        + [f"C{l}" for l in range(3, 9)] + [f"D{l}" for l in range(4, 9)]
        + ["E6", "E7", "E8", "F4", "G2"]
    )
    for label in labels:
        rs = rsys(label)
        adj = root_to_weight(rs, rs.highest_root)
        assert weyl_dim(rs, adj) == rs.dimension, label


def test_classic_exceptional_dimensions():
    g2 = rsys("G2")
    assert [weyl_dim(g2, w) for w in [(1, 0), (0, 1), (2, 0), (1, 1)]] == [7, 14, 27, 64]

    def fundamentals(label):
        rs = rsys(label)
        return [weyl_dim(rs, tuple(int(j == i) for j in range(rs.rank)))
                for i in range(rs.rank)]

    assert fundamentals("F4") == [52, 1274, 273, 26]
    assert fundamentals("E6") == [27, 78, 351, 2925, 351, 27]
    assert fundamentals("E7") == [133, 912, 8645, 365750, 27664, 1539, 56]
    assert weyl_dim(rsys("E8"), (1, 0, 0, 0, 0, 0, 0, 0)) == 3875


def test_weyl_dim_requires_dominant():
    with pytest.raises(NotDominant):
        weyl_dim(rsys("A2"), (-1, 0))
    with pytest.raises(NotDominant):
        weyl_dim(rsys("A2"), (1,))


def test_orbit_size_requires_dominant():
    # the orbit of (-1, 0) has three weights, but orbit_size is asked only
    # about dominant weights and reduces none
    with pytest.raises(NotDominant):
        orbit_size(rsys("A2"), (-1, 0))
    with pytest.raises(NotDominant):
        orbit_size(rsys("A2"), (1,))
    assert orbit_size(rsys("A2"), (1, 0)) == 3


def test_dominant_weights_requires_dominant():
    with pytest.raises(NotDominant):
        dominant_weights(rsys("A2"), (-1, 1))
    assert list(dominant_weights(rsys("A2"), (1, 1))) == [(1, 1), (0, 0)]


def test_highest_weight_multiplicity_is_one():
    for label, lam in [("A3", (1, 0, 1)), ("G2", (1, 1)), ("B3", (0, 1, 1))]:
        rs = rsys(label)
        assert freudenthal_character(rs, lam).entries[lam] == 1


def test_adjoint_zero_multiplicity_is_rank():
    for l in range(2, 9):
        rs = rsys(f"A{l}")
        adj = tuple(1 if i in (0, l - 1) else 0 for i in range(l))
        assert freudenthal_character(rs, adj).entries[(0,) * l] == l


def test_f4_quasiminuscule_zero_multiplicity():
    assert freudenthal_character(rsys("F4"), w(4, 4)).entries[(0, 0, 0, 0)] == 2


def test_character_totals_match_dimension():
    cases = [
        ("A3", (1, 1, 0)), ("B3", (1, 0, 1)), ("C3", (0, 1, 0)),
        ("G2", (0, 1)), ("F4", (0, 0, 0, 1)), ("D4", (0, 1, 0, 0)),
        ("A5", (0, 0, 1, 0, 0)), ("E6", (1, 0, 0, 0, 0, 0)),
    ]
    for label, lam in cases:
        rs = rsys(label)
        ch = freudenthal_character(rs, lam)
        assert ch.total_dimension(rs) == weyl_dim(rs, lam)


def test_freudenthal_matches_kostant_oracle():
    cases = [
        ("A2", (1, 1)), ("A2", (3, 0)), ("A2", (2, 2)),
        ("B2", (1, 1)), ("B2", (2, 2)), ("G2", (1, 0)), ("G2", (1, 1)),
        ("A3", (1, 0, 1)), ("B3", (1, 0, 0)), ("C3", (0, 0, 1)),
        ("B4", (0, 0, 0, 1)), ("F4", (0, 0, 0, 1)),
        # one rank-5 module per family keeps the cross-check honest higher up
        ("A5", (0, 0, 1, 0, 0)), ("D5", (0, 1, 0, 0, 0)), ("C5", (0, 1, 0, 0, 0)),
    ]
    for label, lam in cases:
        rs = rsys(label)
        assert freudenthal_character(rs, lam).entries == kostant_dominant_character(rs, lam)


def test_freudenthal_weyl_invariance():
    rs = rsys("B3")
    full = freudenthal_character(rs, (1, 0, 1)).expand(rs)
    for v, m in list(full.items())[::7]:
        for i in range(1, 4):
            assert full[simple_reflection(rs, v, i)] == m


def _doubled(rs):
    scaled_cm = CartanMatrix(rs.cartan.entries, tuple(2 * d for d in rs.cartan.symmetrizer))
    return RootSystem(rs.type, scaled_cm)


def test_freudenthal_scale_invariance():
    # doubling the symmetrizer rescales the bilinear form globally; every
    # multiplicity must be unchanged
    for label, lam in [("B3", (1, 0, 1)), ("G2", (1, 1)), ("C3", (1, 1, 0))]:
        rs = rsys(label)
        rs2 = _doubled(rs)
        assert freudenthal_character(rs2, lam) == freudenthal_character(rs, lam)
        assert weyl_dim(rs2, lam) == weyl_dim(rs, lam)
        # and so are the minuscule nodes and the quasi-minuscule weight
        assert rs2.highest_coroot == rs.highest_coroot
        assert short_dominant_root(rs2) == short_dominant_root(rs)


def test_root_classes_match_parabolic_orbits():
    # each class is the W_J-orbit of its J-dominant member, its highest,
    # cut with the positive roots; every zero set through rank 4, seeded
    # ones (with the empty and the full set) beyond
    rng = random.Random(20261020)
    for label in ALL_LABELS:
        rs = rsys(label)
        n = rs.rank
        if n <= 4:
            zero_sets = [tuple(j for j in range(n) if bits >> j & 1) for bits in range(2**n)]
        else:
            zero_sets = [(), tuple(range(n))] + [
                tuple(sorted(rng.sample(range(n), rng.randint(1, n - 1)))) for _ in range(6)
            ]
        gp = weyl_oracle(rs)
        positive = {root_to_weight(rs, a): i for i, a in enumerate(rs.positive_roots)}
        for zero in zero_sets:
            classes = rs.positive_root_classes(zero)
            assert sum(size for _, size in classes) == len(rs.positive_roots), (label, zero)
            covered = set()
            for top, size in classes:
                orbit = gp.parabolic_orbit(zero, root_to_weight(rs, rs.positive_roots[top]))
                members = {positive[v] for v in orbit if v in positive}
                assert (max(members), len(members)) == (top, size), (label, zero, top)
                covered |= members
            assert covered == set(range(len(rs.positive_roots))), (label, zero)


def _sparse_weight(rng, rs, max_dominant):
    """A seeded non-zero dominant weight, mostly zeros, small enough for the
    oracle."""
    n = rs.rank
    while True:
        lam = tuple(rng.choice((0, 0, 0, 1, 1, 2)) if rng.random() < 3 / n else 0
                    for _ in range(n))
        if any(lam) and len(dominant_weights(rs, lam)) <= max_dominant:
            return lam


def test_folded_freudenthal_matches_unfolded_oracle():
    rng = random.Random(20261021)
    for label in ALL_LABELS:
        rs = rsys(label)
        n = rs.rank
        lams = [tuple(int(j == i) for j in range(n)) for i in rng.sample(range(n), min(n, 2))]
        lams += [_sparse_weight(rng, rs, 60 if n >= 7 else 100) for _ in range(3)]
        for lam in lams:
            folded = freudenthal_character(rs, lam).entries
            assert folded == unfolded_freudenthal(rs, lam), (label, lam)


def test_folded_freudenthal_matches_unfolded_oracle_doubled_symmetrizer():
    # the classes come from the instance passed in, not from build_root_system
    rng = random.Random(20261022)
    for label in ["B3", "C4", "G2", "F4", "B8", "D5", "E6"]:
        rs = rsys(label)
        rs2 = _doubled(rs)
        for lam in [_sparse_weight(rng, rs, 60) for _ in range(3)]:
            folded = freudenthal_character(rs2, lam).entries
            assert folded == unfolded_freudenthal(rs2, lam) == unfolded_freudenthal(rs, lam)


def test_string_sums_match_walked_oracle():
    # every type to rank 8: fundamental, sparse and (to rank 4) denser
    # weights, whose strings run longer, against every string walked in full
    rng = random.Random(20261031)
    for label in ALL_LABELS:
        rs = rsys(label)
        n = rs.rank
        lams = [tuple(int(j == i) for j in range(n)) for i in rng.sample(range(n), min(n, 2))]
        lams += [_sparse_weight(rng, rs, 60 if n >= 7 else 100) for _ in range(3)]
        if n <= 4:
            lams += [lam for lam in (tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(3))
                     if len(dominant_weights(rs, lam)) <= 300]
        for lam in lams:
            assert freudenthal_character(rs, lam).entries == walked_freudenthal(rs, lam), (
                label, lam)


def test_string_sums_match_walked_oracle_near_the_cap():
    # the longest string there is, D8 rho with 1,976 dominant weights, and
    # two rescaled forms
    for label, lam in [("A1", (4998,)), ("D8", (1,) * 8)]:
        rs = rsys(label)
        assert freudenthal_character(rs, lam).entries == walked_freudenthal(rs, lam), label
    for label in ["B3", "G2"]:
        rs2 = _doubled(rsys(label))
        lam = (3, 2) + (0,) * (rs2.rank - 2)
        assert freudenthal_character(rs2, lam).entries == walked_freudenthal(rs2, lam), label


def test_string_weights_fit_the_character_table_at_the_digit_edge():
    # coordinate_bound 126 fits 8-bit digits, but a string weight is one root
    # past a weight, so its conjugates reach 126 + 3: the character's table
    # must be bound for that
    for label, lam in [("B2", (0, 126)), ("G2", (0, 42))]:
        rs = _cold(label)
        assert rs.coordinate_bound(lam) == 126
        assert freudenthal_character(rs, lam).entries == walked_freudenthal(rs, lam), label


def _cold(label):
    """A root system of its own, so no memo of build_root_system's is warm."""
    t = parse_dynkin(label)
    return RootSystem(t, cartan_matrix(t))


def test_one_dominant_weight_binds_no_code_table():
    # a minuscule weight's character is {lam: 1}, read before any table is
    # bound; a character that walks strings binds one
    rs = _cold("E6")
    assert freudenthal_character(rs, (1, 0, 0, 0, 0, 0)).entries == {(1, 0, 0, 0, 0, 0): 1}
    assert root_system._weight_codes not in rs._memos
    freudenthal_character(rs, (0, 1, 0, 0, 0, 0))
    assert len(rs._memos[root_system._weight_codes]) == 1


def test_string_walk_work_counts(monkeypatch):
    # the string weights off the chamber are reduced by the character's own
    # code table; count its reductions
    calls = []
    weight_codes = RootSystem.weight_codes

    def counted_codes(rs, bound):
        codes = weight_codes(rs, bound)
        return codes._replace(dominant=lambda c: calls.append(c) or codes.dominant(c))

    monkeypatch.setattr(RootSystem, "weight_codes", counted_codes)
    # every string of A1 stays in the chamber, so no weight is reduced
    freudenthal_character(_cold("A1"), (4999,))
    assert calls == []
    # every lookup off the chamber is one reduction, with no memo in front;
    # a string walked from its class's J-dominant root stays on the chamber
    # at J
    for label, lam, count in [
        ("F4", (1, 1, 0, 0), 37),
        ("E8", (0, 1, 0, 0, 0, 0, 0, 1), 7),
        ("D8", (1,) * 8, 37_961),
        ("E8", (0, 0, 2, 2, 0, 0, 0, 0), 138_530),
    ]:
        calls.clear()
        freudenthal_character(_cold(label), lam)
        assert len(calls) == count, (label, lam)
    monkeypatch.undo()

    # each string step tests the new weight's dominance once, on the top
    # bits of the table's digits: doubling the weight of A2 gives about 4
    # times the dominant weights, and so 4 times the steps, where walking
    # every string to its end gives 8 times
    class CountedTops(int):
        count = 0

        def __rand__(self, other):
            CountedTops.count += 1
            return int(self) & other

    def steps(lam):
        def counted_codes(rs, bound):
            codes = weight_codes(rs, bound)
            return codes._replace(tops=CountedTops(codes.tops))

        CountedTops.count = 0
        with monkeypatch.context() as m:
            m.setattr(RootSystem, "weight_codes", counted_codes)
            freudenthal_character(_cold("A2"), lam)
        return CountedTops.count

    small, large = steps((30, 30)), steps((60, 60))
    assert 0 < large <= 4.5 * small, (small, large)


def _package_caches():
    """Every functools cache bound in a lieinduct module or class, found by
    the rule perfbench uses to clear caches before each op."""
    modules = [lieinduct] + [
        importlib.import_module(f"lieinduct.{m.name}")
        for m in pkgutil.iter_modules(lieinduct.__path__)
    ]
    found = {}
    for mod in modules:
        scopes = [vars(mod)] + [
            vars(c) for c in vars(mod).values()
            if inspect.isclass(c) and c.__module__ == mod.__name__
        ]
        for scope in scopes:
            for obj in scope.values():
                if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                    found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def test_build_root_system_is_the_only_functools_cache():
    # every other memo lives on a RootSystem instance, so clearing this one
    # cache clears them all
    assert list(_package_caches()) == ["lieinduct.root_system.build_root_system"]


def test_rescaled_instance_memoizes_on_itself():
    # characters, orbits, orbit sizes and the full tables behind tensor and
    # wedge2 are computed on the instance passed in: with every cache
    # cleared, none of them builds a canonical root system
    cases = [("B3", (1, 0, 1), (0, 0, 1)), ("G2", (1, 1), (1, 0)), ("C3", (1, 1, 0), (0, 1, 0))]
    canonical = {label: _memoized_results(rsys(label), lam, mu) for label, lam, mu in cases}
    doubled = {label: _doubled(rsys(label)) for label, _, _ in cases}
    for cache in _package_caches().values():
        cache.cache_clear()
    for label, lam, mu in cases:
        assert _memoized_results(doubled[label], lam, mu) == canonical[label], label
    assert build_root_system.cache_info().currsize == 0


def _memoized_results(rs, lam, mu):
    return (
        freudenthal_character(rs, lam),
        weyl_orbit(rs, lam),
        orbit_size(rs, lam),
        tensor_decompose(rs, lam, mu),
        wedge2_decompose(rs, lam),
    )


def _minuscule_weights(rs):
    """Zero and the fundamental weights w_i whose highest-coroot
    coefficient is 1: the minuscule weights as _howe_candidates reads them."""
    n = rs.rank
    return {(0,) * n} | {w(n, i + 1) for i, c in enumerate(rs.highest_coroot) if c == 1}


def test_weyl_dim_and_classify_match_per_call_formulas():
    # the engine's minuscule weights and quasi-minuscule weight (the short
    # dominant root) against the coroot pairing of every positive root
    rng = random.Random(20261019)
    for label in ALL_LABELS:
        rs = rsys(label)
        weights = [(0,) * rs.rank] + [
            tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)
        ]
        weights += [tuple(rng.randint(0, 3) for _ in range(rs.rank)) for _ in range(6)]
        for lam in weights:
            assert weyl_dim(rs, lam) == product_weyl_dim(rs, lam), (label, lam)
            assert coroot_weight_class(rs, lam) == (
                lam in _minuscule_weights(rs), lam == short_dominant_root(rs)), (label, lam)


def test_weyl_dim_over_the_support_matches_product_oracle():
    # (lam, alpha) is summed over supp(lam) only: every weight with entries
    # <= 2 to rank 4, the Howe candidates to rank 8, and seeded weights at
    # rank 32 on supports of every size
    cases = [(label, lam) for label in ALL_LABELS if rsys(label).rank <= 4
             for lam in itertools.product(range(3), repeat=rsys(label).rank)]
    cases += [(label, lam) for label in ALL_LABELS for lam in sorted(_howe_candidates(rsys(label)))]
    rng = random.Random(20261021)
    for label in ["A32", "B32", "C32", "D32"]:
        for size in [0, 1, 2, 3, 5, 8, 16, 32]:
            nodes = set(rng.sample(range(32), size))
            cases.append((label, tuple(rng.randint(1, 2) if j in nodes else 0 for j in range(32))))
    assert len(cases) > 700
    for label, lam in cases:
        rs = rsys(label)
        assert weyl_dim(rs, lam) == product_weyl_dim(rs, lam), (label, lam)


def _check_against_weight_system_oracle(rs, lam):
    below = dominant_weights(rs, lam)
    assert set(below) == {v for v in full_weight_system(rs, lam) if min(v) >= 0}
    for mu, diff in below.items():
        assert root_to_weight(rs, diff) == tuple(a - b for a, b in zip(lam, mu))
    keys = [(sum(diff), mu) for mu, diff in below.items()]
    assert keys == sorted(keys)
    assert freudenthal_character(rs, lam).entries == weight_system_freudenthal(rs, lam)


def test_dominant_freudenthal_matches_weight_system_oracle_randomized():
    rng = random.Random(20261018)
    labels = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"]
    for label in labels:
        rs = rsys(label)
        for _ in range(6):
            lam = tuple(rng.randint(0, 2) for _ in range(rs.rank))
            while weyl_dim(rs, lam) > 5000:
                lam = tuple(rng.randint(0, 1) for _ in range(rs.rank))
            _check_against_weight_system_oracle(rs, lam)


def test_dominant_freudenthal_matches_weight_system_oracle_pinned():
    for label, lam in [("E6", w(6, 2)), ("E7", w(7, 1, 2)), ("D8", (1, 0, 0, 0, 0, 0, 1, 1))]:
        _check_against_weight_system_oracle(rsys(label), lam)


def test_weyl_orbit_refuses_a_weight_of_the_wrong_length():
    # refused as weyl_dim refuses it, not as an engine fault, and a longer
    # weight is not cut to the rank
    for label, weights in [("A2", [(1,), (1, 0, 0), (1, 0, 5)]),
                           ("E8", [(1,) * 7, (1,) + (0,) * 8])]:
        for weight in weights:
            with pytest.raises(NotDominant, match=f"wrong length for {label}"):
                weyl_orbit(rsys(label), weight)


def test_weyl_orbit_basics():
    rs = rsys("D4")
    assert weyl_orbit(rs, (0, 0, 0, 0)) == {(0, 0, 0, 0)}
    rs1 = rsys("A1")
    assert weyl_orbit(rs1, (1,)) == {(1,), (-1,)}


def test_orbit_size_formula_matches_enumeration():
    for label, weight in [
        ("A3", (1, 0, 1)), ("B3", (0, 1, 0)), ("C3", (1, 1, 1)),
        ("D4", (0, 1, 0, 0)), ("G2", (1, 0)), ("F4", (0, 0, 0, 1)),
        ("A5", (0, 0, 1, 0, 0)), ("B4", (0, 0, 0, 1)),
    ]:
        rs = rsys(label)
        assert orbit_size(rs, weight) == len(weyl_orbit(rs, weight))


def test_orbit_size_matches_stabilizer_oracle():
    # every zero-node set of every accepted type through rank 8, and seeded
    # sets at rank 32: the root-height product against the stabilizer's
    # components times their family Weyl group orders
    rng = random.Random(20261020)
    cases = [
        (DynkinType(family, rank), zero)
        for family, (lo, hi) in RANK_RANGES.items()
        for rank in range(lo, min(hi, 8) + 1)
        for k in range(rank + 1)
        for zero in itertools.combinations(range(1, rank + 1), k)
    ]
    for family in "ABCD":
        cases += [
            (DynkinType(family, 32), tuple(sorted(rng.sample(range(1, 33), rng.randint(0, 32)))))
            for _ in range(40)
        ]
    assert len(cases) > 2_600
    for t, zero in cases:
        rs = build_root_system(t)
        weight = tuple(int(j not in zero) for j in range(1, t.rank + 1))
        assert orbit_size(rs, weight) == stabilizer_orbit_size(rs, zero), (t, zero)


@pytest.mark.parametrize(
    "label, weight",
    [
        ("E8", w(8, 1)),
        ("E8", w(8, 8)),
        ("E7", w(7, 7)),
        ("D8", (1, 0, 0, 0, 0, 0, 1, 1)),
        ("B8", w(8, 8)),
        ("F4", (1, 1, 1, 1)),
        ("A32", w(32, 3)),
        ("G2", (50, 70)),
        ("G2", (1, 42)),
        ("A1", (128,)),
        ("A1", (100000,)),
        ("A1", (10**30,)),
    ],
)
def test_weyl_orbit_matches_tuple_oracle(label, weight):
    # the orbit walk on codes against the walk on tuples it replaced
    rs = rsys(label)
    assert weyl_orbit(rs, weight) == tuple_weyl_orbit(rs, weight)


def test_weyl_orbit_matches_group_oracle():
    # the orbit is walked down from the dominant weight; the oracle applies
    # every element of the group to the weight itself
    rng = random.Random(20261018)
    for label in ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4"]:
        rs = rsys(label)
        gp = weyl_oracle(rs)
        for _ in range(4):
            v = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
            for u in (v, tuple(-x for x in v)):
                assert weyl_orbit(rs, u) == gp.orbit(u), (label, u)


def test_expand_work_budget():
    rs = rsys("E8")
    # three orbits of 967,680 weights each: every orbit fits, their sum does not
    big = [(1, 1, 1, 0, 0, 0, 0, 0), (2, 1, 1, 0, 0, 0, 0, 0), (1, 2, 1, 0, 0, 0, 0, 0)]
    assert all(orbit_size(rs, v) < MAX_WEIGHTS for v in big)
    assert sum(orbit_size(rs, v) for v in big) > MAX_WEIGHTS
    with pytest.raises(BudgetExceeded, match="expanding this table gives 2903040 weights"):
        CharacterTable(rs.type, dict.fromkeys(big, 1)).expand(rs)


def test_orbit_groups_partition_the_expansion():
    # seeded characters of every type through rank 8: one group per dominant
    # weight, carrying its multiplicity, holding its whole orbit and no
    # other weight, so the groups are disjoint and cover the expansion
    rng = random.Random(20261030)
    for label in ALL_LABELS:
        rs = rsys(label)
        for _ in range(3):
            entries = freudenthal_character(rs, _sparse_weight(rng, rs, 12)).entries
            codes = rs.weight_codes(max(map(rs.coordinate_bound, entries)))
            groups = orbit_codes(rs, codes, entries)
            assert [m for _, m in groups] == list(entries.values()), label
            union = set()
            for (orbit, _), mu in zip(groups, entries):
                assert len(orbit) == orbit_size(rs, mu), (label, mu)
                assert {codes.decode(c) for c in orbit} == tuple_weyl_orbit(rs, mu), (label, mu)
                union |= orbit
            assert len(union) == sum(len(orbit) for orbit, _ in groups), label


def test_c3_long_root_module_has_two_orbits_and_no_zero_weight():
    rs = rsys("C3")
    ch = freudenthal_character(rs, (0, 0, 1))
    assert len(ch.entries) == 2
    assert (0, 0, 0) not in ch.entries
    assert set(ch.entries.values()) == {1}


def test_minuscule_classification_lists():
    minuscule = {
        "A4": [1, 2, 3, 4],
        "B4": [4],
        "C4": [1],
        "D5": [1, 4, 5],
        "E6": [1, 6],
        "E7": [7],
        "E8": [],
        "F4": [],
        "G2": [],
    }
    for label, idxs in minuscule.items():
        rs = rsys(label)
        got = [i for i in range(1, rs.rank + 1)
               if coroot_weight_class(rs, w(rs.rank, i))[0]]
        assert got == idxs, label
        assert [i + 1 for i, c in enumerate(rs.highest_coroot) if c == 1] == idxs, label
        # zero weight counts as minuscule
        assert coroot_weight_class(rs, (0,) * rs.rank)[0]


def test_short_simple_root_counts():
    from lieinduct.rep_theory import num_short_simple_roots

    # C_l has l-1 short simple roots, which keeps its quasi-minuscule weight
    # out of the one-dimensional-weight-space candidates
    for l in range(3, 8):
        assert num_short_simple_roots(rsys(f"C{l}")) == l - 1
    for l in range(2, 8):
        assert num_short_simple_roots(rsys(f"B{l}")) == 1
    assert num_short_simple_roots(rsys("G2")) == 1
    assert num_short_simple_roots(rsys("F4")) == 2
    for label in ["A4", "D5", "E6"]:
        rs = rsys(label)
        assert num_short_simple_roots(rs) == rs.rank  # simply laced: all short


def test_quasi_minuscule_classification():
    quasi = {
        "B4": w(4, 1),
        "C4": w(4, 2),
        "D5": w(5, 2),
        "E6": w(6, 2),
        "E7": w(7, 1),
        "E8": w(8, 8),
        "F4": w(4, 4),
        "G2": w(2, 1),
    }
    for label, weight in quasi.items():
        rs = rsys(label)
        assert coroot_weight_class(rs, weight) == (False, True), label
        assert short_dominant_root(rs) == weight, label
    rs = rsys("A3")
    assert coroot_weight_class(rs, (1, 0, 1)) == (False, True)
    assert short_dominant_root(rs) == (1, 0, 1)
    assert not coroot_weight_class(rs, (0,) * 3)[1]


def test_short_dominant_root_matches_norm_scan_oracle():
    # every accepted type, up to the rank cap of the classical families
    count = 0
    for family, (lo, hi) in RANK_RANGES.items():
        for rank in range(lo, hi + 1):
            rs = build_root_system(DynkinType(family, rank))
            assert short_dominant_root(rs) == norm_scan_short_dominant_root(rs), rs.type
            count += 1
    assert count == 127


def test_minuscule_modules_are_single_orbits():
    for label, weight in [("A4", w(4, 2)), ("B4", w(4, 4)), ("D5", w(5, 5)),
                          ("E6", w(6, 1)), ("C4", w(4, 1))]:
        rs = rsys(label)
        assert coroot_weight_class(rs, weight)[0]
        ch = freudenthal_character(rs, weight)
        assert list(ch.entries.keys()) == [weight]
        assert orbit_size(rs, weight) == weyl_dim(rs, weight)


def test_is_defining_witnesses():
    # the adjoint of E8 fails on its zero weight, of multiplicity 8
    assert is_defining(rsys("E8"), w(8, 8)) is False
    assert freudenthal_character(rsys("E8"), w(8, 8)).entries[(0,) * 8] == 8
    assert is_defining(rsys("A1"), (3,)) is True
    # 3w1 of A_l fails on a third dominant weight, where the closure stops
    for l in range(2, 6):
        rs = rsys(f"A{l}")
        assert is_defining(rs, w(l, 1, 3)) is False
        with pytest.raises(BudgetExceeded):
            dominant_weights(rs, w(l, 1, 3), cap=2)


def test_is_defining_past_character_budget():
    # E8 rho (14,870 dominant weights) and A1 5000w1 (2,501) are refused as
    # characters but are simply not defining; the check stops at the third
    for label, lam in (("E8", (1,) * 8), ("A1", (5000,))):
        with pytest.raises(BudgetExceeded):
            freudenthal_character(rsys(label), lam)
        assert is_defining(rsys(label), lam) is False
        with pytest.raises(BudgetExceeded):
            dominant_weights(rsys(label), lam, cap=2)


def test_roots_within_support_matches_brute_filter():
    # weights from the Cartan rows, not from the root datum
    for label in ALL_LABELS:
        rs = rsys(label)
        n, rows = rs.rank, rs.cartan.entries
        positive_nodes = [
            {j for j in range(n) if sum(k[i] * rows[i][j] for i in range(n)) > 0}
            for k in rs.positive_roots
        ]
        for mask in range(1 << n):
            nodes = {j for j in range(n) if mask & (1 << j)}
            expected = tuple(i for i, pos in enumerate(positive_nodes) if pos <= nodes)
            assert rs.roots_within_support(mask) == expected, (label, mask)


def test_support_indexed_closure_matches_unindexed_oracle():
    rng = random.Random(20261101)
    for label in ALL_LABELS:
        rs = rsys(label)
        n = rs.rank
        lams = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        lams += [_sparse_weight(rng, rs, 400) for _ in range(4)]
        for lam in lams:
            expected = unindexed_dominant_weights(rs, lam)
            got = dominant_weights(rs, lam)
            assert list(got.items()) == list(expected.items()), (label, lam)
            # the cap admits exactly as many weights as it names
            assert dominant_weights(rs, lam, cap=len(expected)) == got
            if len(expected) > 1:
                with pytest.raises(BudgetExceeded):
                    dominant_weights(rs, lam, cap=len(expected) - 1)


def _seeded_defining_weights():
    """(label, weight) pairs: every fundamental weight, three seeded sparse
    weights and m*w1 (m = 2, 3, 4) of every type through rank 8, and A2's
    (100, 100), which is refused as a character."""
    rng = random.Random(20261102)
    out = []
    for label in ALL_LABELS:
        rs = rsys(label)
        n = rs.rank
        lams = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        lams += [_sparse_weight(rng, rs, 150) for _ in range(3)]
        lams += [(m,) + (0,) * (n - 1) for m in (2, 3, 4)]
        if label == "A2":
            lams.append((100, 100))
        out += [(label, lam) for lam in lams]
    return out


def _full_character(rs, lam):
    return freudenthal_character(rs, lam).entries


def test_is_defining_matches_full_character_decision():
    # every Howe candidate through rank 8 and at rank 32, and the seeded
    # weights above
    cases = [(label, lam) for label in ALL_LABELS + ["A32", "B32", "C32", "D32"]
             for lam in sorted(_howe_candidates(rsys(label)))]
    cases += _seeded_defining_weights()
    for label, lam in cases:
        rs = rsys(label)
        assert is_defining(rs, lam) == character_defining_check(rs, lam, _full_character), (
            label, lam)
    assert sum(not is_defining(rsys(label), lam) for label, lam in cases) > 100
    with pytest.raises(BudgetExceeded):
        freudenthal_character(rsys("A2"), (100, 100))


def test_howe_candidates_take_minuscule_nodes_from_the_highest_coroot():
    # a fundamental weight is a candidate when the coroot pairing calls it
    # minuscule; any other fundamental candidate is the quasi-minuscule
    # weight of a type with one short simple root, or w3 of C3
    count = 0
    for family, (lo, hi) in RANK_RANGES.items():
        for rank in range(lo, hi + 1):
            rs = build_root_system(DynkinType(family, rank))
            cands = _howe_candidates(rs)
            for i in range(rank):
                wi = w(rank, i + 1)
                if coroot_weight_class(rs, wi)[0]:
                    assert wi in cands, (rs.type, i + 1)
                elif wi in cands:
                    assert wi == short_dominant_root(rs) and num_short_simple_roots(rs) == 1 or (
                        rs.type == DynkinType("C", 3) and wi == (0, 0, 1)), (rs.type, i + 1)
                count += 1
    assert count == sum(range(1, 33)) + sum(range(2, 33)) + sum(range(3, 33)) + sum(
        range(4, 33)) + 6 + 7 + 8 + 4 + 2


def test_is_defining_matches_brute_force():
    # independent route: enumerate dominant weights and multiplicities by the
    # alternating Weyl sum, then apply the two defining conditions directly
    from lieinduct.induction import _modules_up_to_dim

    for label in ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "D4", "B4", "F4"]:
        rs = rsys(label)
        for lam, dim in _modules_up_to_dim(rs, 400):
            if label in ("D4", "B4", "F4") and dim > 150:
                continue  # keep the suite under budget; smaller cases cover rank 4
            table = kostant_dominant_character(rs, lam)
            brute_ok = all(m == 1 for m in table.values()) and len(table) <= 2
            assert is_defining(rs, lam) == brute_ok, (label, lam)


def test_defining_modules_full_lists():
    def weights(label):
        return [md.highest_weight for md in defining_modules(rsys(label))]

    assert weights("A1") == [(0,), (1,), (2,), (3,)]
    for l in range(2, 9):
        got = set(weights(f"A{l}"))
        expected = {w(l, 0)} | {w(l, i) for i in range(1, l + 1)} | {w(l, 1, 2), w(l, l, 2)}
        assert got == expected
    for l in range(2, 9):
        assert set(weights(f"B{l}")) == {w(l, 0), w(l, 1), w(l, l)}
    assert set(weights("C3")) == {w(3, 0), w(3, 1), w(3, 3)}
    for l in range(4, 9):
        assert set(weights(f"C{l}")) == {w(l, 0), w(l, 1)}
    for l in range(4, 9):
        assert set(weights(f"D{l}")) == {w(l, 0), w(l, 1), w(l, l - 1), w(l, l)}
    assert set(weights("E6")) == {w(6, 0), w(6, 1), w(6, 6)}
    assert set(weights("E7")) == {w(7, 0), w(7, 7)}
    assert weights("E8") == [w(8, 0)]
    assert weights("F4") == [w(4, 0)]
    assert set(weights("G2")) == {w(2, 0), w(2, 1)}


def test_a_family_exponent_failure_is_monotone():
    # rank 1: m = 3 passes, m >= 4 fails; rank >= 2: m = 2 passes, m >= 3 fails
    rs = rsys("A1")
    flags = [is_defining(rs, (m,)) for m in range(2, 7)]
    assert flags == [True, True, False, False, False]
    for l in [2, 4]:
        rs = rsys(f"A{l}")
        flags = [is_defining(rs, w(l, 1, m)) for m in range(2, 7)]
        assert flags == [True, False, False, False, False]


def test_module_descriptor():
    rs = rsys("E6")
    md = module_descriptor(rs, w(6, 6))
    assert md.dimension == 27
    assert not md.is_trivial
    assert module_descriptor(rs, (0,) * 6).is_trivial
