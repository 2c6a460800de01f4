"""Weight-level representation theory over exact integers.

Dimensions come from the Weyl product formula, multiplicities from the
Freudenthal recursion over dominant weights, orbits from closure under simple
reflections.  Character tables store dominant entries only; full tables are
recovered by orbit expansion on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .errors import InvariantViolation, NotACharacter, NotDominant
from .root_system import (
    DynkinType,
    RootSystem,
    Vector,
    build_root_system,
    classify_subdiagram,
    to_dominant,
    weyl_order,
)


@dataclass(frozen=True, order=True)
class ModuleDescriptor:
    """An irreducible module named by algebra, highest weight and dimension."""

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
    """Finite map weight -> multiplicity for a module or virtual character.

    Only dominant representatives are stored; Weyl invariance makes this
    lossless.  Instances are treated as immutable once returned.
    """

    __slots__ = ("algebra", "entries", "virtual")

    def __init__(
        self,
        algebra: DynkinType,
        entries: Mapping[Vector, int],
        virtual: bool = False,
    ) -> None:
        self.algebra = algebra
        self.entries = {tuple(w): int(m) for w, m in entries.items() if m != 0}
        self.virtual = virtual
        if any(x < 0 for w in self.entries for x in w):
            raise NotACharacter("tables are keyed by dominant representatives")
        if not virtual and any(m < 0 for m in self.entries.values()):
            raise NotACharacter("genuine characters need non-negative multiplicities")

    @classmethod
    def from_weights(cls, rs: RootSystem, weights: Iterable[Sequence[int]]) -> "CharacterTable":
        """Build a table from a full weight list (with repetition), verifying
        Weyl invariance and collapsing to dominant representatives."""
        full: dict[Vector, int] = {}
        for w in weights:
            w = tuple(w)
            full[w] = full.get(w, 0) + 1
        dominant: dict[Vector, int] = {}
        for w, m in full.items():
            if all(x >= 0 for x in w):
                dominant[w] = m
        covered = 0
        for w, m in dominant.items():
            orbit = weyl_orbit(rs, w)
            for v in orbit:
                if full.get(v, 0) != m:
                    raise NotACharacter(
                        f"multiplicity not constant on the orbit of {w}"
                    )
            covered += m * len(orbit)
        if covered != sum(full.values()):
            raise NotACharacter("weight list is not a union of full Weyl orbits")
        return cls(rs.type, dominant)

    def total_dimension(self, rs: RootSystem) -> int:
        return sum(m * orbit_size(rs, w) for w, m in self.entries.items())

    def expand(self, rs: RootSystem) -> dict[Vector, int]:
        """Full weight -> multiplicity map via orbit expansion."""
        full: dict[Vector, int] = {}
        for w, m in self.entries.items():
            for v in weyl_orbit(rs, w):
                full[v] = m
        return full

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CharacterTable)
            and self.algebra == other.algebra
            and self.entries == other.entries
            and self.virtual == other.virtual
        )

    def __repr__(self) -> str:
        return f"CharacterTable({self.algebra}, {self.entries!r}, virtual={self.virtual})"


def _require_dominant(rs: RootSystem, w: Sequence[int]) -> Vector:
    w = tuple(w)
    if len(w) != rs.rank:
        raise NotDominant(f"weight {w} has wrong length for {rs.type}")
    if any(x < 0 for x in w):
        raise NotDominant(f"weight {w} is not dominant")
    return w


def weyl_dim(rs: RootSystem, weight: Sequence[int]) -> int:
    """Exact dimension of V(weight) by the product over positive roots."""
    lam = _require_dominant(rs, weight)
    lam_rho = tuple(x + 1 for x in lam)
    num = 1
    den = 1
    for alpha in rs.positive_roots:
        num *= rs.form_weight_root(lam_rho, alpha)
        den *= rs.form_weight_root(rs.rho, alpha)
    q, r = divmod(num, den)
    if r:
        raise InvariantViolation(f"Weyl dimension product of {lam} does not divide exactly")
    return q


@lru_cache(maxsize=None)
def _weight_system(t: DynkinType, lam: Vector) -> frozenset[Vector]:
    """All weights of V(lam): closure of lam under root strings downwards."""
    rs = build_root_system(t)
    c = rs.cartan.entries
    n = rs.rank
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(n):
                p = w[i]
                if p <= 0:
                    continue
                cur = w
                for _ in range(p):
                    cur = tuple(cur[j] - c[i][j] for j in range(n))
                    if cur not in seen:
                        seen.add(cur)
                        nxt.append(cur)
        frontier = nxt
    return frozenset(seen)


def _depth_key(rs: RootSystem, lam: Vector, mu: Vector):
    diff = rs.weight_to_root(tuple(a - b for a, b in zip(lam, mu)))
    return (sum(diff), mu)


@lru_cache(maxsize=None)
def _freudenthal_entries(t: DynkinType, lam: Vector) -> tuple[tuple[Vector, int], ...]:
    return _freudenthal_core(build_root_system(t), lam)


def _freudenthal_core(rs: RootSystem, lam: Vector) -> tuple[tuple[Vector, int], ...]:
    """Uncached recursion; takes the root system explicitly so the bilinear
    form's scale-homogeneity is testable with a rescaled symmetrizer."""
    weights = _weight_system(rs.type, lam)
    dominant = sorted(
        (w for w in weights if all(x >= 0 for x in w)),
        key=lambda mu: _depth_key(rs, lam, mu),
    )
    n = rs.rank
    d = rs.cartan.symmetrizer
    # (nu, alpha) = dot(nu_weight, alpha_root * d); precompute both vectors
    alpha_weight = [rs.root_to_weight(a) for a in rs.positive_roots]
    alpha_pair = [tuple(a[j] * d[j] for j in range(n)) for a in rs.positive_roots]
    alpha_norm = [
        sum(aw[j] * ap[j] for j in range(n))
        for aw, ap in zip(alpha_weight, alpha_pair)
    ]
    mult: dict[Vector, int] = {lam: 1}
    dom_cache: dict[Vector, Vector] = {}

    def dom_rep(v: Vector) -> Vector:
        r = dom_cache.get(v)
        if r is None:
            r = to_dominant(rs, v)[0]
            dom_cache[v] = r
        return r

    for mu in dominant:
        if mu == lam:
            continue
        acc = 0
        for aw, ap, norm in zip(alpha_weight, alpha_pair, alpha_norm):
            base = sum(mu[j] * ap[j] for j in range(n))
            nu = mu
            k = 0
            while True:
                nu = tuple(a + b for a, b in zip(nu, aw))
                k += 1
                if nu not in weights:
                    break
                acc += mult[dom_rep(nu)] * (base + k * norm)
        diff = rs.weight_to_root(tuple(a - b for a, b in zip(lam, mu)))
        diff_int = tuple(int(x) for x in diff)
        lam_mu_2rho = tuple(a + b + 2 for a, b in zip(lam, mu))
        den = rs.form_weight_root(lam_mu_2rho, diff_int)
        q, r = divmod(2 * acc, den)
        if r or q <= 0:
            raise InvariantViolation(f"Freudenthal recursion gave {2 * acc}/{den} at {mu}")
        mult[mu] = q
    return tuple(sorted(mult.items()))


def freudenthal_character(rs: RootSystem, weight: Sequence[int]) -> CharacterTable:
    """Multiplicities of all dominant weights of V(weight)."""
    lam = _require_dominant(rs, weight)
    return CharacterTable(rs.type, dict(_freudenthal_entries(rs.type, lam)))


def weyl_orbit(rs: RootSystem, weight: Sequence[int]) -> frozenset[Vector]:
    """Full orbit of a weight by closure under simple reflections."""
    return _weyl_orbit_cached(rs.type, to_dominant(rs, tuple(weight))[0])


@lru_cache(maxsize=None)
def _weyl_orbit_cached(t: DynkinType, w: Vector) -> frozenset[Vector]:
    rs = build_root_system(t)
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(1, rs.rank + 1):
                r = rs.reflect(v, i)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return frozenset(seen)


def orbit_size(rs: RootSystem, weight: Sequence[int]) -> int:
    """|W| / |W_J| where J is the set of nodes fixing the dominant conjugate."""
    dom = to_dominant(rs, tuple(weight))[0]
    zero_nodes = [i + 1 for i, x in enumerate(dom) if x == 0]
    stab = 1
    if zero_nodes:
        comps = classify_subdiagram(
            rs.cartan.entries, rs.cartan.symmetrizer, zero_nodes
        )
        for comp in comps:
            stab *= weyl_order(comp.type)
    q, r = divmod(weyl_order(rs.type), stab)
    if r:
        raise InvariantViolation(f"stabilizer order {stab} does not divide |W({rs.type})|")
    return q


@dataclass(frozen=True)
class WeightClass:
    minuscule: bool
    quasi_minuscule: bool


def classify_weight(rs: RootSystem, weight: Sequence[int]) -> WeightClass:
    """Minuscule / quasi-minuscule flags under the coroot pairing.

    The zero weight counts as minuscule; quasi-minuscule means the pairing
    reaches 2 on exactly one root and never exceeds it.
    """
    lam = _require_dominant(rs, weight)
    max_pairing = 0
    count_two = 0
    for alpha in rs.positive_roots:
        p = rs.coroot_pairing(lam, alpha)
        if p > max_pairing:
            max_pairing = p
        if p == 2:
            count_two += 1
    return WeightClass(
        minuscule=max_pairing <= 1,
        quasi_minuscule=max_pairing <= 2 and count_two == 1,
    )


@dataclass(frozen=True)
class DefiningCheck:
    ok: bool
    dominant_count: int
    max_multiplicity: int
    witness: str | None

    def __bool__(self) -> bool:
        return self.ok


def is_defining(rs: RootSystem, weight: Sequence[int]) -> DefiningCheck:
    """All weight multiplicities 1 and at most two dominant weights."""
    lam = _require_dominant(rs, weight)
    table = freudenthal_character(rs, lam).entries
    dominant_count = len(table)
    worst_w, worst_m = max(table.items(), key=lambda it: it[1])
    if worst_m > 1:
        return DefiningCheck(
            False,
            dominant_count,
            worst_m,
            f"weight {list(worst_w)} has multiplicity {worst_m}",
        )
    if dominant_count > 2:
        return DefiningCheck(
            False,
            dominant_count,
            worst_m,
            f"{dominant_count} dominant weights (more than two Weyl orbits)",
        )
    return DefiningCheck(True, dominant_count, worst_m, None)


def short_dominant_root(rs: RootSystem) -> Vector:
    """The dominant root of minimal length (the quasi-minuscule weight)."""
    shortest = min(rs.positive_roots, key=rs.root_norm)
    return to_dominant(rs, rs.root_to_weight(shortest))[0]


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
    for i in range(n):
        w = tuple(int(j == i) for j in range(n))
        if classify_weight(rs, w).minuscule:
            cands.add(w)
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
        if is_defining(rs, w).ok
    ]
    return sorted(out, key=lambda md: (md.dimension, md.highest_weight))
