"""Forward induction: enumerate admissible graded chains over a base algebra
and reproduce the rank-9/5/3 obstruction analyses.  Each analysis derives
its routes from its hypothetical diagrams in EXCEPTIONAL_TARGETS: one per
node whose deletion leaves a connected finite base (exceptional_routes).

A chain assigns to each negative level a defining module of the base (or
zero).  A nonzero candidate for level k must appear as a summand of every
product b_i (x) b_j with i + j = k (the exterior square when i = j), with two
exceptions that come from the graded bracket itself:

* a pair with a zero member forces level k to zero outright;
* the exterior square of a one-dimensional level is the zero module, so that
  bracket component vanishes identically and the pair imposes no constraint.

If no pair can produce the level at all (every square is of a line), nothing
feeds the bracket and only zero survives.  Zero is always admissible, and
once a level is zero every deeper level is forced to zero.

A search decomposes each bracket it meets once and keeps the result, the
defining summands as a bitmask over the search's interned modules, for that
search only; b_j (x) b_i reuses b_i (x) b_j.

One kernel, _admissible, checks every level.  A chain of length n is held
by its places: per distinct module a, the bitset P_a of the levels holding
it and its mirror R_a, P_a reversed within n bits.  Levels i and n + 1 - i
hold a and b iff P_a & R_b has bit i - 1, so a state costs a few int ANDs
over its distinct modules.  The pairs are applied by the level of their
shallower member and the square last, the order in which a walk over the
levels meets them, so the same brackets are decomposed.  A child extends its
parent's chain tuple by one descriptor and shifts its mirrors up one level;
no state rebuilds its chain.

The assembled algebra built from a base g0 and a chain has dimension
dim g0 + 1 + 2 * sum(dim b_j): the centrally extended middle plus the chain
and its dual.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence

from .errors import BudgetExceeded, TrivialFirstLevel
from .rep_theory import (
    ModuleDescriptor,
    is_defining,
    module_descriptor,
    weyl_dim,
)
from .root_system import (
    CartanMatrix,
    DynkinType,
    RootSystem,
    Vector,
    build_root_system,
    cartan_from_edges,
    check_embedding,
    classify_subdiagram,
    connected_components,
    diagram_embeddings,
)
from .tensor_ops import tensor_decompose, wedge2_decompose

DEFAULT_MAX_DEPTH = 12
# Cap on the levels of all chains one search creates, counted as chains are
# pushed.  A search to depth d can hold O(d) chains of O(d) levels, so a cap
# on chains alone would not stop a deep one.
MAX_SEARCH_LEVELS = 2_000_000


class TargetDiagram(NamedTuple):
    """A (possibly hypothetical) diagram given by its validated Cartan matrix."""

    name: str
    cartan: CartanMatrix


# Hypothetical rank-9/5/3 diagrams, each a symmetrizer and its edges.  F5 and
# G3 each come in two shapes, depending on which end the new node attaches to.
E9_DIAGRAM = TargetDiagram(  # d = (1,) * 9: the E chain 1-3-4-...-9, 2 on 4
    "E9", cartan_from_edges((1,) * 9, [(1, 3), (2, 4)] + [(i, i + 1) for i in range(3, 9)]),
)
F5_LONG_TAIL = TargetDiagram(  # d = (2, 2, 2, 1, 1): 1-2-3=>4-5, new node 1 long
    "F5a", cartan_from_edges((2, 2, 2, 1, 1), [(1, 2), (2, 3), (3, 4), (4, 5)]),
)
F5_SHORT_TAIL = TargetDiagram(  # d = (2, 2, 1, 1, 1): 1-2=>3-4-5, new node 5 short
    "F5b", cartan_from_edges((2, 2, 1, 1, 1), [(1, 2), (2, 3), (3, 4), (4, 5)]),
)
G3_SHORT_SIDE = TargetDiagram(  # d = (1, 3, 1): new node 3 on the short node 1
    "G3a", cartan_from_edges((1, 3, 1), [(1, 2), (1, 3)]),
)
G3_LONG_SIDE = TargetDiagram(  # d = (1, 3, 3): new node 3 on the long node 2
    "G3b", cartan_from_edges((1, 3, 3), [(1, 2), (2, 3)]),
)

EXCEPTIONAL_TARGETS: dict[str, tuple[TargetDiagram, ...]] = {
    "E9": (E9_DIAGRAM,),
    "F5": (F5_LONG_TAIL, F5_SHORT_TAIL),
    "G3": (G3_SHORT_SIDE, G3_LONG_SIDE),
}


def target_names() -> str:
    """The keys of EXCEPTIONAL_TARGETS in prose: "E9, F5 or G3"."""
    *head, last = EXCEPTIONAL_TARGETS
    return f"{', '.join(head)} or {last}" if head else last


def check_new_row(
    g0: DynkinType,
    iota,
    weight: Sequence[int],
    target: TargetDiagram,
    target_node: int,
) -> bool:
    """Would deleting target_node from target produce V(weight; g0)?

    True iff the negated target-Cartan row at target_node, restricted along
    the embedding, equals the weight; an invalid embedding raises BadEmbedding.
    """
    c = target.cartan.entries
    iota_t = check_embedding(c, target_node, [g0], iota, target.name)
    row = tuple(-c[target_node - 1][iota_t[j] - 1] for j in range(g0.rank))
    return row == tuple(weight)


_highest_weight = attrgetter("highest_weight")


class InductionState(NamedTuple):
    """A chain of graded levels; zero levels after the stored prefix."""

    chain: tuple[ModuleDescriptor, ...]
    terminated: bool
    dbos_dimension: int

    @property
    def weights(self) -> tuple[Vector, ...]:
        """The chain's highest weights, computed on each access."""
        return tuple(map(_highest_weight, self.chain))


_SQUARE = -1  # partner id of the exterior square Lambda^2 b_i


class _BracketMasks(dict):
    """One search's modules interned as small ints, and each bracket pair's
    defining summands as a bitmask over those ints, decomposed on first
    lookup.  This is the only cache of bracket decompositions: a search asks
    for each pair once.

    A pair is keyed by the ids of its shallower and deeper level; the
    exterior square of a level is keyed (id, _SQUARE).  Two equal modules at
    different levels bracket by their tensor product, so (a, a) and
    (a, _SQUARE) are different keys.  V(a) (x) V(b) is V(b) (x) V(a), so a
    tensor key reuses the mask of its commuted key when that is known.  The
    search kernel, _admissible, finds the pairs that meet from a chain's
    position bitsets and looks up only those.
    """

    def __init__(self, rs: RootSystem) -> None:
        super().__init__()
        self.rs = rs
        self.ids: dict[ModuleDescriptor, int] = {}
        self.modules: list[ModuleDescriptor] = []

    def intern(self, md: ModuleDescriptor) -> int:
        i = self.ids.get(md)
        if i is None:
            i = self.ids[md] = len(self.modules)
            self.modules.append(md)
        return i

    def __missing__(self, key: tuple[int, int]) -> int:
        a, b = key
        mask = self.get((b, a))  # (_SQUARE, a) is never a key
        if mask is None:
            rs, lam = self.rs, self.modules[a].highest_weight
            dec = (wedge2_decompose(rs, lam) if b == _SQUARE
                   else tensor_decompose(rs, lam, self.modules[b].highest_weight))
            mask = 0
            for md, _ in dec.summands:
                if is_defining(rs, md.highest_weight):
                    mask |= 1 << self.intern(md)
        self[key] = mask
        return mask


def _admissible(masks: _BracketMasks, n: int, places: dict[int, tuple[int, int]]) -> int:
    """The ids admissible at level n + 1 below a chain of length n with
    these places, as a bitmask (0: only zero).  For a = b only the bits
    below the middle count: an odd chain's middle level brackets by its
    exterior square, applied last."""
    low = (1 << (n >> 1)) - 1
    met = []
    seen = []
    for a, (pa, ra) in places.items():
        meet = pa & ra & low
        if meet:
            met.append(((meet & -meet).bit_length(), a, a))
        for b, pb, _ in seen:
            meet = pb & ra
            if meet:  # b is shallower at its lowest bit, a at its highest
                i, j = (meet & -meet).bit_length(), n + 1 - meet.bit_length()
                met.append((i, b, a) if i < j else (j, a, b))
        seen.append((a, pa, ra))
    met.sort()
    common = -1  # every bit set: no pair has constrained the level yet
    for _, a, b in met:
        common &= masks[a, b]
        if not common:
            return 0
    if n & 1:  # the square of a line is zero: no constraint, no producer
        h = n >> 1
        for a, pa, _ in seen:
            if pa >> h & 1:
                break
        if masks.modules[a].dimension != 1:
            common &= masks[a, _SQUARE]
    return common if common > 0 else 0  # -1: nothing can feed the bracket


def _chains(rs: RootSystem, first: ModuleDescriptor, max_depth: int) -> Iterator[InductionState]:
    """Every admissible chain starting from the non-trivial defining module
    first, in pre-order: each chain right after its prefix, and siblings by
    ascending highest weight.  See induction_search."""
    masks = _BracketMasks(rs)
    modules = masks.modules
    state = InductionState._make  # cheaper per chain than calling the class
    order: dict[int, tuple[int, ...]] = {}  # mask -> its ids by descending weight
    # A stack entry is a chain, its DBOS dimension and its places.  A child
    # adds one module and 2 * its dimension, shifts every mirror up one and
    # sets the new level's bits.  Children are pushed by descending weight,
    # so they pop in ascending order.
    stack = [((first,), rs.dimension + 1 + 2 * first.dimension, {masks.intern(first): (1, 1)})]
    levels = 1
    while stack:
        chain, dim, places = stack.pop()
        n = len(chain)
        if n == max_depth:
            yield state((chain, False, dim))
            continue
        yield state((chain, True, dim))
        common = _admissible(masks, n, places)
        if not common:
            continue
        children = order.get(common)
        if children is None:
            ids = [i for i in range(common.bit_length()) if common >> i & 1]
            ids.sort(key=lambda i: modules[i].highest_weight, reverse=True)
            children = order[common] = tuple(ids)
        levels += len(children) * (n + 1)
        if levels > MAX_SEARCH_LEVELS:
            raise BudgetExceeded(
                f"the search from {first} to depth {max_depth} holds chains of "
                f"more than {MAX_SEARCH_LEVELS} levels in all"
            )
        bit = 1 << n
        for c in children:
            md = modules[c]
            grown = {a: (pa, ra << 1) for a, (pa, ra) in places.items()}
            pa, ra = grown.get(c, (0, 0))
            grown[c] = pa | bit, ra | 1
            stack.append((chain + (md,), dim + 2 * md.dimension, grown))


def induction_search(
    rs: RootSystem,
    b1: Sequence[int],
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[InductionState]:
    """All admissible chains starting from b1, to the given depth, sorted by
    their weights.

    Chains that reach max_depth with every level nonzero are flagged
    non-terminated.  A non-defining b1 admits no chains at all.  The search
    runs on an explicit stack, so its depth is not bounded by Python's
    recursion limit; it raises BudgetExceeded once the chains it holds
    would add up to more than MAX_SEARCH_LEVELS levels.  Every chain follows
    its prefix: the chain of a state of length n > 1 without its last level
    is the chain of the latest earlier state of length n - 1.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    first = module_descriptor(rs, b1)
    if first.is_trivial:
        raise TrivialFirstLevel(
            f"the first level over {rs.type} must be a non-trivial module"
        )
    if not is_defining(rs, first.highest_weight):
        return []
    return list(_chains(rs, first, max_depth))


# ---------------------------------------------------------------------------
# Obstruction reports for the hypothetical rank-9/5/3 diagrams.
# ---------------------------------------------------------------------------


class RouteReport(NamedTuple):
    base: DynkinType
    target: str
    target_node: int
    iota: tuple[int, ...]
    required_weight: Vector
    row_matches: bool
    b1_defining: bool
    b1_dimension: int
    terminated_dims: tuple[int, ...]
    non_terminated: int


class ExceptionalReport(NamedTuple):
    name: str
    max_depth: int
    routes: tuple[RouteReport, ...]
    base_dims: tuple[tuple[str, tuple[int, ...]], ...]
    common_dims: tuple[int, ...]
    consistent: bool
    verdict: str
    analysis: dict


def exceptional_routes(name: str) -> list[tuple]:
    """(base, target diagram, deleted node, embedding) for every node of the
    diagrams of EXCEPTIONAL_TARGETS[name] whose deletion leaves a connected base.

    Of the base's embeddings, in lexicographic order, the route takes the
    first that maximizes the required first level, so the new node meets the
    lowest canonical label.  Routes whose base is of the target's family
    come first; otherwise they keep the order of diagram and node.
    """
    routes = []
    for target in EXCEPTIONAL_TARGETS[name]:
        c, d = target.cartan
        nodes = range(1, len(c) + 1)
        for node in nodes:
            rest = [i for i in nodes if i != node]
            if len(connected_components(c, rest)) != 1:
                continue
            [(base, _)] = classify_subdiagram(c, d, rest)
            embeddings = diagram_embeddings(build_root_system(base).cartan.entries, c, rest)
            iota = max(embeddings, key=lambda p: tuple(-c[node - 1][j - 1] for j in p))
            routes.append((base, target, node, iota))
    routes.sort(key=lambda r: r[0].family != name[0])  # stable
    return routes


def _route_report(
    base: DynkinType,
    target: TargetDiagram,
    node: int,
    iota: tuple[int, ...],
    max_depth: int,
) -> RouteReport:
    rs = build_root_system(base)
    c = target.cartan.entries
    required = tuple(-c[node - 1][iota[j] - 1] for j in range(base.rank))
    row_matches = check_new_row(base, iota, required, target, node)
    first = module_descriptor(rs, required)
    defining = not first.is_trivial and is_defining(rs, required)
    dims: set[int] = set()
    non_term = 0
    if defining:
        for _, terminated, dim in _chains(rs, first, max_depth):
            if terminated:
                dims.add(dim)
            else:
                non_term += 1
    return RouteReport(
        base, target.name, node, iota, required, row_matches,
        defining, first.dimension, tuple(sorted(dims)), non_term,
    )


def _modules_up_to_dim(rs: RootSystem, bound: int) -> list[tuple[Vector, int]]:
    """All dominant weights with Weyl dimension <= bound (dimension grows
    strictly in every coordinate, so pruning is exhaustive)."""
    zero = (0,) * rs.rank
    found = {zero: 1}
    frontier = [zero]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(rs.rank):
                up = tuple(x + int(j == i) for j, x in enumerate(w))
                if up in found:
                    continue
                d = weyl_dim(rs, up)
                if d <= bound:
                    found[up] = d
                    nxt.append(up)
        frontier = nxt
    return sorted(found.items(), key=lambda kv: (kv[1], kv[0]))


def exceptional_report(name: str, max_depth: int = DEFAULT_MAX_DEPTH) -> ExceptionalReport:
    """Run the induction programme for a key of EXCEPTIONAL_TARGETS and
    summarize the outcome.  E9, F5 and G3 add their own analysis."""
    key = name.upper()
    if key not in EXCEPTIONAL_TARGETS:
        raise ValueError(f"no exceptional analysis for {name!r}; expected {target_names()}")
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")

    routes = tuple(
        _route_report(base, tgt, node, iota, max_depth)
        for base, tgt, node, iota in exceptional_routes(key)
    )

    per_base: dict[str, set[int]] = {}
    for r in routes:
        per_base.setdefault(str(r.base), set()).update(r.terminated_dims)
    base_dims = tuple(sorted((b, tuple(sorted(ds))) for b, ds in per_base.items()))
    common = set.intersection(*per_base.values()) if per_base else set()
    consistent = bool(common)

    analysis: dict = {}
    verdict = "consistent" if consistent else "no candidate dimension is shared by all bases"
    if key == "E9":
        if not consistent:
            verdict += "; the rank-8 base admits no non-trivial first level at all"
    elif key == "F5":
        f4 = build_root_system(DynkinType("F", 4))
        candidate = min((d for _, ds in base_dims for d in ds), default=None)
        missing = None if candidate is None else (candidate - f4.dimension - 1) // 2
        small = _modules_up_to_dim(f4, missing) if missing else []
        exists = any(d == missing for _, d in small)
        analysis.update(
            candidate_dimension=candidate,
            required_f4_module_dimension=missing,
            f4_modules_up_to_bound=tuple(small),
            required_module_exists=exists,
        )
        verdict = (
            "consistent" if consistent and exists else
            f"the unique candidate has dimension {candidate}, which would need an "
            f"F4 module of dimension {missing}; the exhaustive scan finds none"
        )
        consistent = consistent and exists
    elif key == "G3":
        g2_dims = per_base.get("G2", set())
        a2_dims = per_base.get("A2", set())
        matches = []
        m = 1
        while True:
            d = 15 + 14 * m  # all-natural chain of length m over G2
            if (3 * m + 1) + 1 > max_depth:
                break
            matches.append((m, d, d in g2_dims and d in a2_dims))
            m += 1
        analysis["per_length_matches"] = tuple(matches)
        all_match = bool(matches) and all(ok for _, _, ok in matches)
        consistent = consistent and all_match
        verdict = (
            "dimension-matched candidates at every chain length within depth; "
            "the necessary conditions cannot exclude these (and the matched "
            "algebras are not new simple algebras)"
            if consistent else
            "candidate dimensions do not match between the bases"
        )

    return ExceptionalReport(
        key, max_depth, routes, base_dims, tuple(sorted(common)),
        consistent, verdict, analysis,
    )
