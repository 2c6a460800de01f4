"""Weight-level representation theory over exact integers.

Dimensions come from the Weyl product formula.  Orbits are walked down from
the dominant weight, applying a simple reflection s_i only where the i-th
coordinate is positive (every other s_i either fixes the weight or leads
back up), on weight codes (root_system.WeightCodes).  orbit_codes is the one
orbit expansion: it turns a table's dominant entries into their orbits,
grouped by dominant weight as (the codes of the orbit, its multiplicity),
so no term carries its own multiplicity.  weyl_orbit and
CharacterTable.expand decode the groups, and tensor_ops straightens them
one group at a time.
Multiplicities come from the Freudenthal recursion run over the dominant
weights alone; no full weight system is built.  A root string's sum is
memoized per character at each dominant weight on it, so a walk stops at
the next dominant weight whose sum is known and a long string costs its
length once, not once per dominant weight on it; only the string weights
off the dominant chamber are looked up through their dominant
representative.

The dominant weights of V(lam) are the closure of lam under subtracting
positive roots while staying dominant: covers among dominant weights differ
by a positive root (J. R. Stembridge, "The partial order of dominant
weights", Adv. Math. 136 (1998) 340-364).  The closure is indexed by support:
w - alpha can be dominant only if alpha's weight is positive on supp(w)
alone, so at w only the roots of RootSystem.roots_within_support are tried.

The Freudenthal sum is folded as in R. V. Moody, J. Patera, "Fast recursion
formula for weight multiplicities", Bull. AMS 7 (1982) 237-242.  At a
dominant weight mu with zero nodes J, every w in the stabilizer W_J gives
the root alpha and the root w(alpha) the same term, so the sum over the
positive roots is a sum over the classes O ∩ Φ⁺ of the W_J-orbits O of roots:
one root string is walked per class, at its first member, and weighted by
the class size.  The classes come from RootSystem.positive_root_classes,
which labels each positive root with the one J-dominant root of its class
in a single pass from the highest root down.

Character tables store dominant entries only; full tables are recovered by
orbit expansion on demand.  An orbit's size is |W| / |W_J|, each order
Macdonald's product of (ht + 1) / ht over the positive roots of its root
system: |W| is read once per root system, and the roots of W_J are those
whose code has no digit outside the stabilizer's nodes J
(RootSystem.subsystem_roots).
Characters, orbits, orbit sizes and defining checks are memoized on the
RootSystem passed in (RootSystem.memoized), not keyed by type.
Orbit enumeration and expansion refuse, with BudgetExceeded, any request of
more than MAX_WEIGHTS weights, judged up front from exact orbit sizes (for
a module, its top orbit before its character is computed); a
character refuses, as its dominant-weight closure grows, a module with more
than MAX_DOMINANT_WEIGHTS dominant weights.
is_defining runs the closure with a cap of two: a third dominant weight
answers "not defining" at once, so the check never refuses.  Below the cap
no recursion runs: one dominant weight lam has multiplicity 1, and with a
second, mu, the Weyl dimension is |W lam| + m_mu |W mu|, which gives m_mu
by exact division.  The candidates it is asked about read the minuscule
fundamental weights off the highest coroot: <w_i, alpha^vee> is the
coefficient of alpha^vee at node i, and the highest coroot has the largest
of each, so w_i is minuscule exactly when that coefficient is 1.
"""

from __future__ import annotations

from itertools import compress, repeat
from math import prod
from operator import add, mul, not_, sub
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import BudgetExceeded, InvariantViolation, NotACharacter, NotDominant
from .root_system import (
    DynkinType,
    RootSystem,
    Vector,
    WeightCodes,
    to_dominant,
)

# Most weights one orbit enumeration or orbit expansion may build.  Orbit
# sizes are known exactly up front, so an oversized request fails before any
# weight is enumerated.
MAX_WEIGHTS = 2_000_000

# Most dominant weights one character may have.  The closure stops as soon as
# it finds one more, so the refusal does not depend on timing; D8 with
# highest weight rho (1,976 dominant weights) still fits, E8 rho (14,870)
# does not.
MAX_DOMINANT_WEIGHTS = 2_500


class ModuleDescriptor(NamedTuple):
    """An irreducible module named by algebra, highest weight and dimension;
    a tuple, so it hashes and sorts by those three fields in that order."""

    algebra: DynkinType
    highest_weight: Vector
    dimension: int

    @property
    def is_trivial(self) -> bool:
        return all(x == 0 for x in self.highest_weight)

    def __str__(self) -> str:
        coords = ",".join(str(x) for x in self.highest_weight)
        return f"V([{coords}]; {self.algebra}) dim {self.dimension}"


def module_descriptor(rs: RootSystem, weight: Sequence[int]) -> ModuleDescriptor:
    w = tuple(weight)
    return ModuleDescriptor(rs.type, w, weyl_dim(rs, w))


class CharacterTable:
    """Finite map weight -> multiplicity of a genuine character: a negative
    multiplicity raises NotACharacter.

    Only dominant representatives are stored; Weyl invariance makes this
    lossless.  Instances are treated as immutable once returned.
    """

    __slots__ = ("algebra", "entries")

    def __init__(self, algebra: DynkinType, entries: Mapping[Vector, int]) -> None:
        self.algebra = algebra
        self.entries = {tuple(w): int(m) for w, m in entries.items() if m != 0}
        if any(x < 0 for w in self.entries for x in w):
            raise NotACharacter("tables are keyed by dominant representatives")
        if any(m < 0 for m in self.entries.values()):
            raise NotACharacter("genuine characters need non-negative multiplicities")

    def total_dimension(self, rs: RootSystem) -> int:
        return sum(m * orbit_size(rs, w) for w, m in self.entries.items())

    def expand(self, rs: RootSystem) -> dict[Vector, int]:
        """Full weight -> multiplicity map via orbit expansion."""
        codes = rs.weight_codes(max(map(rs.coordinate_bound, self.entries), default=0))
        decode = codes.decode
        return {decode(c): m for orbit, m in orbit_codes(rs, codes, self.entries) for c in orbit}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CharacterTable)
            and self.algebra == other.algebra
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"CharacterTable({self.algebra}, {self.entries!r})"


def _require_length(rs: RootSystem, w: Sequence[int]) -> Vector:
    w = tuple(w)
    if len(w) != rs.rank:
        raise NotDominant(f"weight {w} has wrong length for {rs.type}")
    return w


def _require_dominant(rs: RootSystem, w: Sequence[int]) -> Vector:
    w = _require_length(rs, w)
    if min(w) < 0:
        raise NotDominant(f"weight {w} is not dominant")
    return w


def weyl_dim(rs: RootSystem, weight: Sequence[int]) -> int:
    """Exact dimension of V(weight): the product over the positive roots of
    (weight + rho, alpha), divided by the product of the (rho, alpha).

    (weight, alpha) is summed over supp(weight) only, one pairing column
    per node, so a root that misses the support keeps the factor
    (rho, alpha) that the denominator cancels.
    """
    lam = _require_dominant(rs, weight)
    factors: Iterable[int] = rs.rho_pairings
    for column, x in zip(rs.pairing_columns, lam):
        if x:
            factors = map(add, factors, map(mul, column, repeat(x)))
    q, r = divmod(prod(factors), rs.weyl_denominator)
    if r:
        raise InvariantViolation(f"Weyl dimension product of {lam} does not divide exactly")
    return q


def dominant_weights(
    rs: RootSystem, lam: Sequence[int], cap: int = MAX_DOMINANT_WEIGHTS
) -> dict[Vector, Vector]:
    """Dominant weights mu of V(lam), each mapped to lam - mu in root
    coordinates, ordered by depth (the height of lam - mu) and then by mu.

    This is the closure of lam under subtracting positive roots while staying
    dominant; covers among dominant weights differ by a positive root
    (Stembridge), so no dominant weight is missed.  At w only the roots
    positive on supp(w) alone are tried (RootSystem.roots_within_support):
    any other root leaves a negative coordinate.  BudgetExceeded as soon as
    the closure holds more than cap weights; NotDominant unless lam is
    dominant.
    """
    lam = _require_dominant(rs, lam)
    pr, pw = rs.positive_roots, rs.positive_weights
    bits = [1 << j for j in range(rs.rank)]
    below = {lam: (0,) * rs.rank}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            above = below[w]
            for i in rs.roots_within_support(sum(compress(bits, w))):
                v = tuple(map(sub, w, pw[i]))
                if min(v) >= 0 and v not in below:
                    below[v] = tuple(map(add, above, pr[i]))
                    nxt.append(v)
                    if len(below) > cap:
                        raise BudgetExceeded(
                            f"V({list(lam)}) of {rs.type} has more than "
                            f"{cap} dominant weights"
                        )
        frontier = nxt
    return dict(sorted(below.items(), key=lambda it: (sum(it[1]), it[0])))


def _freudenthal(rs: RootSystem, lam: Vector) -> dict[Vector, int]:
    """The dominant multiplicities of V(lam), by the folded recursion.

    Only dominant weights are visited, by depth below lam.  At mu the sum
    runs over the classes of positive roots under the stabilizer of mu (see
    the module docstring), one root string per class, each worth the string
    sum S(mu, alpha) of m(mu + k alpha)(mu + k alpha, alpha) over k >= 1.
    Every mu + k alpha lies strictly above mu, so its multiplicity is
    already known: a dominant one is read off directly, any other through
    its dominant representative, and a miss means it is not a weight, nor
    is any weight further along the string.  Since every weight has
    (nu, nu) <= (lam, lam), the walk also stops before any lookup once
    2k(mu, alpha) + k^2(alpha, alpha) exceeds (lam + mu, lam - mu).

    S is memoized per character on (dominant weight, root index): where
    mu + k alpha is dominant, S(mu, alpha) is the terms up to it plus
    S(mu + k alpha, alpha), so a walk stops at the first dominant weight
    whose sum is known, and records the sum at every dominant weight it
    passed.  Each step of a string is walked once, and a long string costs
    its length once rather than at every dominant weight on it.
    """
    nodes = range(rs.rank)
    pw, pp, pn = rs.positive_weights, rs.positive_pairings, rs.positive_norms
    mult: dict[Vector, int] = {lam: 1}
    sums: dict[tuple[Vector, int], int] = {}  # S(mu, alpha) by (mu, index of alpha)
    dom_cache: dict[Vector, Vector] = {}

    def dom_rep(v: Vector) -> Vector:
        r = dom_cache.get(v)
        if r is None:
            r = to_dominant(rs, v)[0]
            dom_cache[v] = r
        return r

    def string_sum(mu: Vector, i: int, gap: int) -> int:
        aw, norm = pw[i], pn[i]
        base = sum(map(mul, mu, pp[i]))
        passed = []  # (dominant weight on the string, the terms up to it)
        acc = 0
        nu = mu
        k = 1
        while 2 * k * base + k * k * norm <= gap:
            nu = tuple(map(add, nu, aw))
            if min(nu) >= 0:
                m = mult.get(nu)
                if m is None:
                    break
                acc += m * (base + k * norm)
                known = sums.get((nu, i))
                if known is not None:
                    acc += known
                    break
                passed.append((nu, acc))
            else:
                m = mult.get(dom_rep(nu))
                if m is None:
                    break
                acc += m * (base + k * norm)
            k += 1
        for nu, part in passed:
            sums[nu, i] = acc - part
        sums[mu, i] = acc
        return acc

    for mu, diff in dominant_weights(rs, lam).items():
        if mu == lam:
            continue
        gap = rs.form_weight_root(tuple(map(add, lam, mu)), diff)
        zero_nodes = tuple(compress(nodes, map(not_, mu)))
        acc = 0
        for i, size in rs.positive_root_classes(zero_nodes):
            acc += size * string_sum(mu, i, gap)
        den = gap + 2 * rs.form_weight_root(rs.rho, diff)
        q, r = divmod(2 * acc, den)
        if r or q <= 0:
            raise InvariantViolation(f"Freudenthal recursion gave {2 * acc}/{den} at {mu}")
        mult[mu] = q
    return dict(sorted(mult.items()))


def freudenthal_character(rs: RootSystem, weight: Sequence[int]) -> CharacterTable:
    """Multiplicities of all dominant weights of V(weight)."""
    lam = _require_dominant(rs, weight)
    return CharacterTable(rs.type, rs.memoized(_freudenthal, lam))


def weyl_orbit(rs: RootSystem, weight: Sequence[int]) -> frozenset[Vector]:
    """Full Weyl orbit of a weight; NotDominant for one of the wrong length."""
    return rs.memoized(_weyl_orbit, to_dominant(rs, _require_length(rs, weight))[0])


def _check_orbit_budget(rs: RootSystem, w: Vector) -> None:
    """BudgetExceeded if the orbit of w has more than MAX_WEIGHTS weights."""
    size = orbit_size(rs, w)
    if size > MAX_WEIGHTS:
        raise BudgetExceeded(
            f"the orbit of {list(w)} has {size} weights, more than {MAX_WEIGHTS}"
        )


def _weyl_orbit(rs: RootSystem, w: Vector) -> frozenset[Vector]:
    _check_orbit_budget(rs, w)
    codes = rs.weight_codes(rs.coordinate_bound(w))
    [(orbit, _)] = orbit_codes(rs, codes, {w: 1})
    return frozenset(map(codes.decode, orbit))


def orbit_codes(
    rs: RootSystem, codes: WeightCodes, dominant: Mapping[Vector, int]
) -> list[tuple[set[int], int]]:
    """The orbits of these dominant weights, as (the codes of the orbit, m)
    for each, m the dominant weight's multiplicity: the one orbit expansion.

    BudgetExceeded before any walk if the orbits hold more than MAX_WEIGHTS
    weights in all, judged from their exact sizes.  The codes must hold
    every coordinate of the orbits (RootSystem.coordinate_bound of each
    dominant weight); InvariantViolation unless the walks find as many
    weights as orbit_size gives, since a coordinate that overflowed its
    digit would alias or lose weights."""
    size = sum(orbit_size(rs, w) for w in dominant)
    if size > MAX_WEIGHTS:
        raise BudgetExceeded(
            f"expanding this table gives {size} weights, more than {MAX_WEIGHTS}"
        )
    groups = [(_walk_orbit(codes, codes.encode(w)), m) for w, m in dominant.items()]
    found = sum(len(orbit) for orbit, _ in groups)
    if found != size:
        raise InvariantViolation(f"an orbit walk found {found} weights, not {size}")
    return groups


def module_codes(rs: RootSystem, codes: WeightCodes, lam: Vector) -> list[tuple[set[int], int]]:
    """orbit_codes of the dominant multiplicities of V(lam).  The top orbit
    is part of the expansion, so its budget is checked before the
    Freudenthal recursion runs."""
    _check_orbit_budget(rs, lam)
    return orbit_codes(rs, codes, freudenthal_character(rs, lam).entries)


def _walk_orbit(codes: WeightCodes, c: int) -> set[int]:
    """The codes of the orbit of the dominant weight coded c, walked down
    only.  Every other orbit weight v has some v_i < 0, and s_i v is one step
    nearer the dominant weight with a positive i-th coordinate; so applying
    s_i only where the coordinate is positive reaches the whole orbit.  The
    positive coordinates are the digits whose top bit is set in c - ones.

    The codes must hold every coordinate of the orbit (a bound from
    RootSystem.coordinate_bound of the dominant weight); were they not to,
    the walk would stop with InvariantViolation rather than run on."""
    ones, tops, mask, offset = codes.ones, codes.tops, codes.mask, codes.offset
    steps = codes.steps
    seen = {c}
    frontier = [c]
    # the weights of each frontier are one reflection longer than the last
    for _ in range(codes.longest + 1):
        nxt = []
        for v in frontier:
            t = (v - ones) & tops
            while t:
                low = t & -t
                t ^= low
                shift, row = steps[low.bit_length()]
                r = v - (((v >> shift) & mask) - offset) * row  # s_i
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
        if not frontier:
            return seen
    raise InvariantViolation(
        f"an orbit walk is longer than the longest Weyl group element: a "
        f"coordinate overflowed its {codes.width}-bit digit"
    )


def orbit_size(rs: RootSystem, weight: Sequence[int]) -> int:
    """|W| / |W_J| where J is the set of nodes fixing the dominant weight;
    NotDominant for any other weight."""
    lam = _require_dominant(rs, weight)
    return rs.memoized(_orbit_size, tuple(compress(range(rs.rank), map(not_, lam))))


def _orbit_size(rs: RootSystem, zero_nodes: tuple[int, ...]) -> int:
    """|W| / |W_J|, J = zero_nodes (0-based), |W| read once per root system."""
    whole = rs.memoized(_parabolic_order, tuple(range(rs.rank)))
    if not zero_nodes:
        return whole
    q, r = divmod(whole, _parabolic_order(rs, zero_nodes))
    if r:
        raise InvariantViolation(f"|W_J| for J = {zero_nodes} does not divide |W|")
    return q


def _parabolic_order(rs: RootSystem, nodes: tuple[int, ...]) -> int:
    """|W_J|, J = nodes (0-based), as the product of (ht alpha + 1) / ht alpha
    over the positive roots of the root system of J (I. G. Macdonald, "The
    Poincare series of a Coxeter group", Math. Ann. 199 (1972) 161-174):
    RootSystem.subsystem_roots."""
    heights = list(map(sum, rs.subsystem_roots(nodes)))
    q, r = divmod(prod(map(add, heights, repeat(1))), prod(heights))
    if r:
        raise InvariantViolation(f"the Weyl group product on {nodes} does not divide exactly")
    return q


def is_defining(rs: RootSystem, weight: Sequence[int]) -> bool:
    """Whether V(weight) has at most two dominant weights and every weight
    multiplicity 1.

    The dominant-weight closure runs first with cap 2; a third dominant
    weight settles "not defining" before any multiplicity is computed, and
    a second one's multiplicity comes from the dimension formula (see the
    module docstring).  Memoized per weight."""
    return rs.memoized(_is_defining, _require_dominant(rs, weight))


def _is_defining(rs: RootSystem, lam: Vector) -> bool:
    try:
        dominant = dominant_weights(rs, lam, cap=2)
    except BudgetExceeded:
        return False  # the closure found a third dominant weight
    if len(dominant) == 1:
        return True
    # lam and one lower dominant weight mu: dim V(lam) = |W lam| + m_mu |W mu|
    mu = list(dominant)[1]
    m, r = divmod(weyl_dim(rs, lam) - orbit_size(rs, lam), orbit_size(rs, mu))
    if r or m <= 0:
        raise InvariantViolation(
            f"V({list(lam)}) of {rs.type}: the dimension formula gives no multiplicity at {mu}"
        )
    return m == 1


def short_dominant_root(rs: RootSystem) -> Vector:
    """The dominant root of minimal length (the quasi-minuscule weight): the
    highest short root."""
    return rs.positive_weights[rs.highest_short_index]


def num_short_simple_roots(rs: RootSystem) -> int:
    d = rs.cartan.symmetrizer
    shortest = min(d)
    return sum(1 for x in d if x == shortest)


# A-family exponents scanned when generating one-dimensional-weight-space
# candidates; the filter rejects everything from m = 3 (rank >= 2) or
# m = 4 (rank 1) on, which a test verifies is monotone over this range.
A_FAMILY_MAX_EXPONENT = 6


def _howe_candidates(rs: RootSystem) -> set[Vector]:
    """Weights whose modules can have all weight spaces one-dimensional:
    minuscule weights; the quasi-minuscule weight when there is a single short
    simple root; (C3, w3); and m*w1 / m*wl for the A family."""
    n = rs.rank
    zero = (0,) * n
    cands = {zero}
    for i, c in enumerate(rs.highest_coroot):
        if c == 1:  # <w_i, alpha^vee> is alpha^vee's coefficient at i
            cands.add(tuple(int(j == i) for j in range(n)))
    if num_short_simple_roots(rs) == 1:
        cands.add(short_dominant_root(rs))
    if rs.type == DynkinType("C", 3):
        cands.add((0, 0, 1))
    if rs.type.family == "A":
        for m in range(2, A_FAMILY_MAX_EXPONENT + 1):
            cands.add((m,) + (0,) * (n - 1))
            cands.add((0,) * (n - 1) + (m,))
    return cands


def defining_modules(rs: RootSystem) -> list[ModuleDescriptor]:
    """All irreducible modules passing the defining-module filter."""
    out = [
        module_descriptor(rs, w)
        for w in _howe_candidates(rs)
        if is_defining(rs, w)
    ]
    return sorted(out, key=lambda md: (md.dimension, md.highest_weight))
