"""Node deletion: the multiplicity grading, graded component identification,
the deletion summary table, and equivalence under diagram automorphisms.

Deleting node d partitions the ambient roots by their coordinate at d.  Each
nonzero level is an irreducible module over the residual algebra.  The root
of least height at level i is its lowest weight vector, so the highest
weight of level -i is minus that root's residual weight; the roots come in
positive_roots order, by height, so it is the first root found at level i.

Only the levels -1 ... -m_d are checked, each on the positive roots of its
mirror level i (see _check_level), whose residual weights are read once, by
one itemgetter over the nodes of the residual: the level's root count must
equal the module's dimension, the weights must be distinct, and the negated
antidominant ones, level -i's dominant weights, must be the module's
dominant weights.  No Freudenthal multiplicity is computed.  Level +i is
the mirror of level -i: its roots and weights are negated.  Its highest
weight is the residual weight of the highest root at level i, which no
residual simple root raises (a residual weight fixes a root of the level,
the residual Cartan matrix being invertible), split by component; each
factor keeps the dimension of its mirror factor.
"""

from __future__ import annotations

import itertools
from math import prod
from operator import itemgetter, neg
from typing import NamedTuple, Sequence

from .errors import BijectionFailure, EmptyLevel, InvalidType, IrreducibilityMismatch
from .rep_theory import ModuleDescriptor, dominant_weights, module_descriptor
from .root_system import (
    DynkinType,
    RootSystem,
    SubdiagramComponent,
    Vector,
    build_root_system,
    check_embedding,
    classify_subdiagram,
    diagram_automorphisms,
    diagram_embeddings,
    parse_dynkin,
)


class ZeroLevel(NamedTuple):
    """Bookkeeping for the zero graded part: residual algebra plus a
    one-dimensional center (no bracket structure is modeled)."""

    root_count: int
    residual_dimension: int
    center_dimension: int = 1


class GradedComponent(NamedTuple):
    level: int
    roots: tuple[Vector, ...]
    factors: tuple[ModuleDescriptor, ...]

    @property
    def dimension(self) -> int:
        """The level's root count, which delete_node checks is the product
        of its factors' dimensions."""
        return len(self.roots)

    @property
    def highest_weight(self) -> Vector:
        return tuple(itertools.chain.from_iterable(f.highest_weight for f in self.factors))


class Deletion(NamedTuple):
    ambient: DynkinType
    node: int
    components: tuple[SubdiagramComponent, ...]
    iota: tuple[int, ...]  # global residual label -> ambient label
    levels: tuple[GradedComponent, ...]  # nonzero levels, ascending
    zero_level: ZeroLevel

    @property
    def residual(self) -> tuple[DynkinType, ...]:
        return tuple(c.type for c in self.components)

    @property
    def m_d(self) -> int:
        return max(c.level for c in self.levels)

    def level(self, i: int) -> GradedComponent:
        for c in self.levels:
            if c.level == i:
                return c
        raise EmptyLevel(f"{self.ambient} deletion at {self.node} has no level {i}")

    def chain(self) -> tuple[GradedComponent, ...]:
        """Negative levels -1, -2, ... in order."""
        return tuple(self.level(-i) for i in range(1, self.m_d + 1))


def _negated(v: Vector) -> Vector:
    return tuple(map(neg, v))


def check_node(rs: RootSystem, d: int) -> None:
    """InvalidType unless d is a node of rs (1-based)."""
    if not 1 <= d <= rs.rank:
        raise InvalidType(f"node {d} out of range for {rs.type}")


def _residual(
    rs: RootSystem, d: int, iota=None
) -> tuple[tuple[SubdiagramComponent, ...], tuple[int, ...]]:
    """The residual components at node d, and iota as a tuple: the canonical
    embedding when iota is None, else iota validated by check_embedding.
    InvalidType for a node out of range, before anything else."""
    check_node(rs, d)
    residual_nodes = [i for i in range(1, rs.rank + 1) if i != d]
    components = classify_subdiagram(
        rs.cartan.entries, rs.cartan.symmetrizer, residual_nodes
    )
    if iota is None:
        return components, tuple(itertools.chain.from_iterable(c.embedding for c in components))
    return components, check_embedding(
        rs.cartan.entries, d, [c.type for c in components], iota, str(rs.type)
    )


def delete_node(rs: RootSystem, d: int, iota=None) -> Deletion:
    """Grade the ambient roots by the coordinate at node d and identify every
    nonzero level as an irreducible residual module."""
    components, iota_t = _residual(rs, d, iota)
    index = [amb - 1 for amb in iota_t]
    algebras = [build_root_system(c.type) for c in components]
    ends = itertools.accumulate(c.type.rank for c in components)
    cuts = [slice(e - c.type.rank, e) for c, e in zip(components, ends)]  # per component
    m_d = rs.highest_root[d - 1]
    pos = rs.positive_roots
    by_level: dict[int, list[int]] = {}  # positive roots' indices per level, by height
    for k, r in enumerate(pos):
        by_level.setdefault(r[d - 1], []).append(k)

    positive = sorted(by_level.keys() - {0})
    if len(positive) != m_d:
        raise IrreducibilityMismatch(
            f"expected {2 * m_d} nonzero levels, found {2 * len(positive)}"
        )

    # a root's residual weight: its weight's coordinates at index, as a tuple
    # (an itemgetter of one index returns the bare coordinate)
    at_index = itemgetter(*index) if len(index) > 1 else lambda w: tuple(map(w.__getitem__, index))
    lower, upper = [], []
    for i in positive:
        level = by_level[i]
        weights = list(map(at_index, map(rs.positive_weights.__getitem__, level)))
        lowest = _negated(weights[0])
        factors = tuple(module_descriptor(frs, lowest[s]) for frs, s in zip(algebras, cuts))
        up_roots = list(map(pos.__getitem__, level))
        _check_level(up_roots, weights, factors)
        up_roots.sort()
        roots = tuple(map(_negated, reversed(up_roots)))
        lower.append(GradedComponent(-i, roots, factors))
        mirror = tuple(f._replace(highest_weight=weights[-1][s]) for f, s in zip(factors, cuts))
        upper.append(GradedComponent(i, tuple(up_roots), mirror))
    levels = lower[::-1] + upper

    residual_roots = sum(2 * len(frs.positive_roots) for frs in algebras)
    zero_roots = 2 * len(by_level.get(0, ()))
    if zero_roots != residual_roots:
        raise IrreducibilityMismatch(
            f"zero level has {zero_roots} roots; residual root systems have {residual_roots}"
        )
    zero = ZeroLevel(zero_roots, residual_roots + rs.rank - 1)
    return Deletion(rs.type, d, components, iota_t, tuple(levels), zero)


def _check_level(
    roots: Sequence[Vector], weights: Sequence[Vector], factors: tuple[ModuleDescriptor, ...]
) -> None:
    """BijectionFailure unless the negated roots, with the negated residual
    weights, carry the weights of the module V with these factors, one each:
    the check of level -i, run on the roots of level i and their weights.

    The roots must be as many as dim V, their weights distinct, and the
    dominant ones, the negated antidominant weights given, the dominant
    weights D of V: the concatenations of the factors' dominant weights
    (rep_theory.dominant_weights).  No multiplicity is computed.  The
    residual Weyl group W0 keeps a root's coordinate at d, so a level's
    weights form a W0-invariant set S, each of whose W0-orbits holds one
    dominant weight; so |S| = sum over mu in D of |W0 mu| <= sum of
    m_mu |W0 mu| = dim V, with equality only when every multiplicity m_mu
    is 1.
    """
    dim = prod(f.dimension for f in factors)
    if dim != len(weights):
        raise BijectionFailure(
            f"{len(weights)} roots cannot carry the weight system of a module "
            f"of dimension {dim}"
        )
    if len(set(weights)) != len(weights):
        seen: dict[Vector, Vector] = {}
        for r, w in zip(roots, weights):
            if w in seen:
                raise BijectionFailure(
                    f"roots {_negated(seen[w])} and {_negated(r)} share the residual "
                    f"weight {_negated(w)}"
                )
            seen[w] = r
    dominant: set[Vector] = {()}
    for f in factors:
        top = dominant_weights(build_root_system(f.algebra), f.highest_weight)
        dominant = {u + v for u in dominant for v in top}
    if dominant != {_negated(w) for w in weights if max(w, default=0) <= 0}:
        raise BijectionFailure(
            "level weights do not match the identified module's weight system"
        )


# ---------------------------------------------------------------------------
# Equivalence of deletions under diagram automorphisms.
# ---------------------------------------------------------------------------


class EquivalenceClass(NamedTuple):
    ambient: DynkinType
    residual: DynkinType
    members: tuple[tuple[int, tuple[int, ...]], ...]  # (node, embedding)
    aut_ambient_order: int
    aut_residual_order: int

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def stabilizer_order(self) -> int:
        return self.aut_ambient_order * self.aut_residual_order // self.size


def deletion_equivalences(g: DynkinType, d: int, iota=None) -> EquivalenceClass:
    """Orbit of the deletion (g, d, g0, iota) under Aut(g) x Aut(g0): each
    node sigma(d), sigma in Aut(g), with every embedding of g0 onto the rest
    of g, in lexicographic order.  The embeddings of a simple g0 onto one
    node set are a single Aut(g0)-orbit, so every valid iota gives one class.
    iota is validated and g0 named as delete_node does, without its levels.
    """
    rs = build_root_system(g)
    components = _residual(rs, d, iota)[0]
    if len(components) != 1:
        raise InvalidType("deletion equivalences are defined for simple residuals")
    g0 = components[0].type
    auts_g = diagram_automorphisms(g)
    canon, entries = build_root_system(g0).cartan.entries, rs.cartan.entries
    nodes = sorted({sigma[d - 1] for sigma in auts_g})
    members = tuple(
        (node, emb)
        for node in nodes
        for emb in diagram_embeddings(canon, entries, set(range(1, g.rank + 1)) - {node})
    )
    # Aut(g0) acts on each node's embeddings freely and transitively
    return EquivalenceClass(g, g0, members, len(auts_g), len(members) // len(nodes))


# ---------------------------------------------------------------------------
# The deletion summary table: 19 rows, family rows rank-parameterized, plus
# the rank-one special case with an empty residual.
# ---------------------------------------------------------------------------


def _w(rank: int, idx: int, scale: int = 1) -> Vector:
    """scale * omega_idx over a rank-`rank` algebra; idx 0 is the zero weight."""
    out = [0] * rank
    if idx:
        out[idx - 1] = scale
    return tuple(out)


def summary_rows() -> list[dict]:
    """Concrete instances of the 19 summary rows, family rows instantiated at
    every ambient rank 2..8 where both types are valid and the stated weights
    exist (the wedge-square label needs residual rank >= 2)."""
    rows: list[dict] = []

    def add(name, ambient, node, residual, iota, expected):
        rows.append(
            dict(name=name, ambient=ambient, node=node, residual=residual,
                 iota=iota, expected=expected)
        )

    for r in range(2, 9):
        l = r - 1
        add(f"A{r}/{r}/A{l}", DynkinType("A", r), r, DynkinType("A", l),
            tuple(range(1, l + 1)), [_w(l, l)])
    for r in range(3, 9):
        l = r - 1
        add(f"B{r}/1/B{l}", DynkinType("B", r), 1, DynkinType("B", l),
            tuple(range(2, r + 1)), [_w(l, 1)])
    for r in range(4, 9):
        l = r - 1
        add(f"C{r}/1/C{l}", DynkinType("C", r), 1, DynkinType("C", l),
            tuple(range(2, r + 1)), [_w(l, 1), _w(l, 0)])
    for r in range(5, 9):
        l = r - 1
        add(f"D{r}/1/D{l}", DynkinType("D", r), 1, DynkinType("D", l),
            tuple(range(2, r + 1)), [_w(l, 1)])
    add("E7/7/E6", DynkinType("E", 7), 7, DynkinType("E", 6),
        (1, 2, 3, 4, 5, 6), [_w(6, 6)])
    add("E8/8/E7", DynkinType("E", 8), 8, DynkinType("E", 7),
        (1, 2, 3, 4, 5, 6, 7), [_w(7, 7), _w(7, 0)])
    for r in range(3, 9):
        l = r - 1
        rev = tuple(l - i + 1 for i in range(1, l + 1))
        add(f"B{r}/{r}/A{l}", DynkinType("B", r), r, DynkinType("A", l),
            rev, [_w(l, 1), _w(l, 2)])
    for r in range(3, 9):
        l = r - 1
        rev = tuple(l - i + 1 for i in range(1, l + 1))
        add(f"C{r}/{r}/A{l}", DynkinType("C", r), r, DynkinType("A", l),
            rev, [_w(l, 1, 2)])
    for r in range(4, 9):
        l = r - 1
        rev = tuple(l - i + 1 for i in range(1, l + 1))
        add(f"D{r}/{r}/A{l}", DynkinType("D", r), r, DynkinType("A", l),
            rev, [_w(l, 2)])
    add("E6/2/A5", DynkinType("E", 6), 2, DynkinType("A", 5),
        (1, 3, 4, 5, 6), [_w(5, 3), _w(5, 0)])
    add("E7/2/A6", DynkinType("E", 7), 2, DynkinType("A", 6),
        (1, 3, 4, 5, 6, 7), [_w(6, 3), _w(6, 6)])
    add("E8/2/A7", DynkinType("E", 8), 2, DynkinType("A", 7),
        (1, 3, 4, 5, 6, 7, 8), [_w(7, 3), _w(7, 6), _w(7, 1)])
    add("G2/1/A1", DynkinType("G", 2), 1, DynkinType("A", 1),
        (2,), [_w(1, 1), _w(1, 0), _w(1, 1)])
    add("G2/2/A1", DynkinType("G", 2), 2, DynkinType("A", 1),
        (1,), [_w(1, 1, 3), _w(1, 0)])
    add("F4/1/C3", DynkinType("F", 4), 1, DynkinType("C", 3),
        (4, 3, 2), [_w(3, 3), _w(3, 0)])
    add("F4/4/B3", DynkinType("F", 4), 4, DynkinType("B", 3),
        (1, 2, 3), [_w(3, 3), _w(3, 1)])
    add("E6/1/D5", DynkinType("E", 6), 1, DynkinType("D", 5),
        (6, 5, 4, 3, 2), [_w(5, 4)])
    add("E7/1/D6", DynkinType("E", 7), 1, DynkinType("D", 6),
        (7, 6, 5, 4, 3, 2), [_w(6, 5), _w(6, 0)])
    add("E8/1/D7", DynkinType("E", 8), 1, DynkinType("D", 7),
        (8, 7, 6, 5, 4, 3, 2), [_w(7, 6), _w(7, 1)])
    return rows


class RowResult(NamedTuple):
    name: str
    ok: bool
    m_d: int
    expected: tuple[Vector, ...]
    got: tuple[Vector, ...]
    detail: str


class Table2Report(NamedTuple):
    rows: tuple[RowResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


def verify_table2() -> Table2Report:
    """Run every summary-table deletion and check the module columns, the
    node multiplicity, and the rank-one special case."""
    results: list[RowResult] = []
    for row in summary_rows():
        rs = build_root_system(row["ambient"])
        deletion = delete_node(rs, row["node"], row["iota"])
        expected = tuple(row["expected"])
        got = tuple(c.highest_weight for c in deletion.chain())
        ok = True
        details = []
        if deletion.residual != (row["residual"],):
            ok = False
            details.append(f"residual {deletion.residual} != {row['residual']}")
        if deletion.m_d != len(expected):
            ok = False
            details.append(f"m_d {deletion.m_d} != {len(expected)}")
        if got != expected:
            ok = False
            details.append(f"levels {got} != {expected}")
        results.append(RowResult(
            row["name"], ok, deletion.m_d, expected, got, "; ".join(details) or "ok"
        ))

    # rank-one case: deleting the only node leaves an empty residual and a
    # single one-dimensional level on each side
    rs1 = build_root_system(parse_dynkin("A1"))
    del1 = delete_node(rs1, 1)
    ok1 = (
        del1.components == ()
        and del1.m_d == 1
        and del1.level(-1).dimension == 1
    )
    results.append(RowResult("A1/1/-", ok1, del1.m_d, ((),), ((),),
                             "ok" if ok1 else "rank-one deletion malformed"))

    return Table2Report(tuple(results))
