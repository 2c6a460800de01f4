"""Decomposition of characters, tensor products and exterior/symmetric squares.

One engine serves all four operations: dot-action straightening.  A
Weyl-invariant sum of weights nu (with multiplicities), shifted by a dominant
weight, is straightened term by term: nu + shift + rho is reflected into the
dominant chamber, terms landing on a wall cancel, and the rest contribute
(-1)^l(w) times V(w(nu + shift + rho) - rho).  With the full weights of one
factor and the other factor's highest weight as shift this is the
Brauer-Klimyk formula for tensor products; with shift zero it decomposes a
character table.  Exterior and symmetric squares come from the Adams
operation: Lambda^2 V = (V (x) V - psi^2 V) / 2 and S^2 V = (V (x) V + psi^2 V) / 2,
where psi^2 V carries the doubled weights 2 nu.

The sum runs on weight codes (root_system.WeightCodes): the expanded factor
comes from rep_theory.orbit_codes (module_codes for a module V(lam)) as one
group of codes per orbit with the orbit's multiplicity, and the expansion
also refuses an oversized factor.  _straighten takes a group at a time,
the multiplicity read once per group; each code nu becomes
scale * nu + lift, one multiply and one add: scale 1 with lift the code
step to nu + shift + rho, or scale 2 with lift ones - tops for the doubled
weight 2 nu + rho.  The table's own reduction loop, WeightCodes.dominant,
straightens each code.
A wall shows as a clear top bit in the code of p - rho, and only the
highest weights that survive are decoded.  The digit width comes from a
bound on every coordinate met: each is a coordinate of a Weyl conjugate of
a dominant p below lam_small + shift + rho (or 2 lam + rho for the doubled
weights), so RootSystem.coordinate_bound of that weight covers it, and a
weight that does not fit raises InvariantViolation.

Summands are listed by root-coordinate height of the highest weight, then by
the weight itself, both descending.

Decompositions are computed on the caller's RootSystem and not cached; a
caller that asks for the same product again, such as the induction search,
keeps its own results.  Only the factor's character, on that RootSystem,
is memoized.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InvariantViolation, NotACharacter
from .rep_theory import (
    CharacterTable,
    ModuleDescriptor,
    module_codes,
    module_descriptor,
    orbit_codes,
    weyl_dim,
)
from .root_system import RootSystem, Vector, WeightCodes


class _DecompositionFields(NamedTuple):
    summands: tuple[tuple[ModuleDescriptor, int], ...]
    source_dimension: int


class DecompositionResult(_DecompositionFields):
    """Multiset of irreducible summands, with exact dimension conservation:
    summands whose dimensions do not total source_dimension raise
    NotACharacter."""

    __slots__ = ()

    def __new__(
        cls, summands: tuple[tuple[ModuleDescriptor, int], ...], source_dimension: int
    ) -> DecompositionResult:
        total = sum(md.dimension * m for md, m in summands)
        if total != source_dimension:
            raise NotACharacter(
                f"summand dimensions total {total}, expected {source_dimension}"
            )
        return tuple.__new__(cls, (summands, source_dimension))

    def as_multiset(self) -> dict[Vector, int]:
        return {md.highest_weight: m for md, m in self.summands}


def _straighten(
    codes: WeightCodes,
    groups: Iterable[tuple[Iterable[int], int]],
    scale: int,
    lift: int,
    coeffs: dict[int, int],
) -> None:
    """Add m * chi(v - rho) to coeffs, keyed by the code of the highest
    weight, for v = scale * nu + lift and every code nu of each orbit group
    (codes, m) that rep_theory.orbit_codes gives.

    chi(v - rho) is the Weyl numerator ratio A(v) / A(rho): if
    WeightCodes.dominant takes v to a dominant p with k reflections, then p
    on a wall (a zero coordinate, so a top bit clear in the code of
    p - rho) gives zero and otherwise chi(v - rho) = (-1)^k V(p - rho).  A
    regular weight has exactly one reducing element, so k has its parity.
    """
    dominant, ones, tops = codes.dominant, codes.ones, codes.tops
    get = coeffs.get
    for orbit, m in groups:
        odd = -m
        for c in orbit:
            p, count = dominant(scale * c + lift)
            p -= ones
            if not ~p & tops:
                coeffs[p] = get(p, 0) + (odd if count & 1 else m)


def _decoded(codes: WeightCodes, coeffs: Mapping[int, int]) -> dict[Vector, int]:
    return {codes.decode(c): m for c, m in coeffs.items() if m}


def _result(rs: RootSystem, coeffs: Mapping[Vector, int], source_dim: int) -> DecompositionResult:
    h = rs.height_form[0]  # a positive multiple of the root-coordinate height
    order = sorted(
        (w for w, m in coeffs.items() if m),
        key=lambda v: (sum(x * y for x, y in zip(h, v)), v),
        reverse=True,
    )
    summands = []
    for w in order:
        if coeffs[w] < 0:
            raise NotACharacter(f"V({list(w)}) occurs with multiplicity {coeffs[w]}")
        summands.append((module_descriptor(rs, w), coeffs[w]))
    return DecompositionResult(tuple(summands), source_dim)


def decompose_character(rs: RootSystem, ch: CharacterTable) -> DecompositionResult:
    """Write a genuine character as a sum of irreducibles."""
    if ch.algebra != rs.type:
        raise NotACharacter(f"character over {ch.algebra}, root system is {rs.type}")
    bound = max(map(rs.coordinate_bound, ch.entries), default=0)
    codes = rs.weight_codes(bound + rs.coordinate_bound(rs.rho))
    coeffs: dict[int, int] = {}
    _straighten(codes, orbit_codes(rs, codes, ch.entries), 1, codes.ones, coeffs)
    return _result(rs, _decoded(codes, coeffs), ch.total_dimension(rs))


def tensor_decompose(
    rs: RootSystem, lam: Sequence[int], mu: Sequence[int]
) -> DecompositionResult:
    lam, mu = tuple(lam), tuple(mu)
    dl, dm = weyl_dim(rs, lam), weyl_dim(rs, mu)  # NotDominant for lam, then mu
    # expand the smaller factor by (dimension, weight), in either argument order
    (_, small), (_, big) = sorted([(dl, lam), (dm, mu)])
    # every straightened weight is a conjugate of one below small + big + rho
    codes = rs.weight_codes(rs.coordinate_bound([a + b + 1 for a, b in zip(small, big)]))
    lift = codes.encode(big) - codes.tops + codes.ones  # nu -> nu + big + rho
    coeffs: dict[int, int] = {}
    _straighten(codes, module_codes(rs, codes, small), 1, lift, coeffs)
    return _result(rs, _decoded(codes, coeffs), dl * dm)


def wedge2_decompose(rs: RootSystem, lam: Sequence[int]) -> DecompositionResult:
    """Exterior square of V(lam)."""
    return _square(rs, tuple(lam), -1)


def sym2_decompose(rs: RootSystem, lam: Sequence[int]) -> DecompositionResult:
    """Symmetric square of V(lam)."""
    return _square(rs, tuple(lam), +1)


def _square(rs: RootSystem, lam: Vector, sign: int) -> DecompositionResult:
    d = weyl_dim(rs, lam)  # NotDominant first
    # both nu + lam + rho and 2 nu + rho are conjugates of weights below 2 lam + rho
    codes = rs.weight_codes(rs.coordinate_bound([2 * a + 1 for a in lam]))
    groups = module_codes(rs, codes, lam)
    coeffs: dict[int, int] = {}
    lift = codes.encode(lam) - codes.tops + codes.ones  # nu -> nu + lam + rho
    _straighten(codes, groups, 1, lift, coeffs)
    lift = codes.ones - codes.tops  # nu -> 2 nu + rho
    _straighten(codes, [(orbit, sign * m) for orbit, m in groups], 2, lift, coeffs)
    for c, m in coeffs.items():
        if m % 2:
            raise InvariantViolation(
                f"odd coefficient {m} of V({list(codes.decode(c))}) before halving"
            )
        coeffs[c] = m // 2
    return _result(rs, _decoded(codes, coeffs), d * (d + sign) // 2)
