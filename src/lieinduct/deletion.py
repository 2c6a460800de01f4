"""Node deletion: the multiplicity grading, graded component identification,
the deletion summary table, and equivalence under diagram automorphisms.

Deleting node d partitions the ambient roots by their coordinate at d.  Each
nonzero level is an irreducible module over the residual algebra.  The root
of least height at level i is its lowest weight vector, so the highest
weight of level -i is minus that root's residual weight; the roots come in
positive_roots order, by height, so it is the first root found at level i.

Only the levels -1 ... -m_d are identified and checked.  A check is exact:
the level's root count must equal the module's dimension, the roots' residual
weights must be distinct, and the dominant ones must be the module's dominant
weights, each of multiplicity one.  The residual Weyl group keeps a root's
coordinate at d, so the level's weights and the module's form two sets
invariant under it, and equal dominant parts make them equal.  Level +i is
the mirror of level -i: its roots and weights are negated, and each factor
is the dual V(-w0 lam), whose weights are those of V(lam) negated.
"""

from __future__ import annotations

import itertools
from math import prod
from operator import mul, neg
from typing import NamedTuple, Sequence

from .errors import BijectionFailure, EmptyLevel, InvalidType, IrreducibilityMismatch
from .rep_theory import ModuleDescriptor, freudenthal_character, module_descriptor
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
    simple_root_codes,
    to_dominant,
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
    correspondence: tuple[tuple[Vector, Vector], ...]  # (residual weight, root)

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


def _residual_weight(rs: RootSystem, index: Sequence[int], code: int) -> Vector:
    """Weight over the residual algebra of the ambient root with this code:
    its coordinates at index, the 0-based ambient nodes in residual order
    (iota - 1), read from the positive root's weight, negated for a negative
    root."""
    coords = map(rs.positive_weights[rs.root_codes[abs(code)]].__getitem__, index)
    return tuple(coords if code > 0 else map(neg, coords))


def _component_factors(
    components: tuple[SubdiagramComponent, ...], weight: Vector
) -> tuple[ModuleDescriptor, ...]:
    out = []
    pos = 0
    for comp in components:
        r = comp.type.rank
        sub = weight[pos : pos + r]
        out.append(module_descriptor(build_root_system(comp.type), sub))
        pos += r
    return tuple(out)


def _dual(f: ModuleDescriptor) -> ModuleDescriptor:
    """V(-w0 lam) for f = V(lam): the module whose weights are f's negated."""
    frs = build_root_system(f.algebra)
    lam = to_dominant(frs, tuple(map(neg, f.highest_weight)))[0]
    return ModuleDescriptor(f.algebra, lam, f.dimension)


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
    m_d = rs.highest_root[d - 1]
    pos, codes = rs.positive_roots, rs.root_codes
    by_level: dict[int, list[int]] = {}  # positive roots' codes per level, by height
    for c, k in codes.items():
        by_level.setdefault(pos[k][d - 1], []).append(c)

    positive = sorted(by_level.keys() - {0})
    if len(positive) != m_d:
        raise IrreducibilityMismatch(
            f"expected {2 * m_d} nonzero levels, found {2 * len(positive)}"
        )

    lower, upper = [], []
    for i in positive:
        level_codes = by_level[i]
        weight = _residual_weight(rs, index, -level_codes[0])  # minus the lowest root
        up_roots = tuple(pos[codes[c]] for c in sorted(level_codes))  # codes sort as the roots do
        roots = tuple(tuple(map(neg, r)) for r in reversed(up_roots))
        factors = _component_factors(components, weight)
        dim = prod(f.dimension for f in factors)
        if dim != len(roots):
            raise IrreducibilityMismatch(
                f"level {-i} of {rs.type} at node {d}: {len(roots)} roots but the "
                f"identified module has dimension {dim}"
            )
        corr = _level_correspondence(rs, index, roots, factors)
        lower.append(GradedComponent(-i, roots, factors, corr))
        # negating reverses the (weight sum, weight) order of the pairs
        mirror = tuple((tuple(map(neg, w)), tuple(map(neg, b))) for w, b in reversed(corr))
        upper.append(GradedComponent(i, up_roots, tuple(map(_dual, factors)), mirror))
    levels = lower[::-1] + upper

    residual_roots = sum(
        2 * len(build_root_system(c.type).positive_roots) for c in components
    )
    zero_roots = 2 * len(by_level.get(0, ()))
    if zero_roots != residual_roots:
        raise IrreducibilityMismatch(
            f"zero level has {zero_roots} roots; residual root systems have {residual_roots}"
        )
    zero = ZeroLevel(zero_roots, residual_roots + rs.rank - 1)
    return Deletion(rs.type, d, components, iota_t, tuple(levels), zero)


def _level_correspondence(
    rs: RootSystem,
    index: Sequence[int],
    roots: tuple[Vector, ...],
    factors: tuple[ModuleDescriptor, ...],
) -> tuple[tuple[Vector, Vector], ...]:
    """The (residual weight, root) pairs of a level, by descending weight
    sum and then weight, once the weights are found to be those of the
    module with these factors, one each (see the module docstring).

    The module's dominant weights are the concatenations of the factors'
    dominant weights, with the product of their multiplicities."""
    seen: dict[Vector, Vector] = {}
    steps = simple_root_codes(rs.rank)
    for beta in roots:
        w = _residual_weight(rs, index, sum(map(mul, beta, steps)))
        if w in seen:
            raise BijectionFailure(
                f"roots {seen[w]} and {beta} share the residual weight {w}"
            )
        seen[w] = beta
    dominant: dict[Vector, int] = {(): 1}
    for f in factors:
        entries = freudenthal_character(build_root_system(f.algebra), f.highest_weight).entries
        dominant = {u + v: m * n for u, m in dominant.items() for v, n in entries.items()}
    if any(m != 1 for m in dominant.values()) or dominant.keys() != {
        w for w in seen if min(w, default=0) >= 0
    }:
        raise BijectionFailure(
            "level weights do not match the identified module's weight system"
        )
    return tuple(sorted(seen.items(), key=lambda kv: (-sum(kv[0]), kv[0])))


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
