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

Summands are listed by root-coordinate height of the highest weight, then by
the weight itself, both descending.

Decompositions are computed on the caller's RootSystem and not cached; only
the full weight table of a factor (`_full_table`) is, memoized on that
RootSystem.  A caller that asks for the same product again, such as the
induction search, keeps its own results.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .errors import InternalParity, NotACharacter
from .rep_theory import (
    CharacterTable,
    ModuleDescriptor,
    freudenthal_character,
    module_descriptor,
    weyl_dim,
    _require_dominant,
    _check_orbit_budget,
)
from .root_system import RootSystem, Vector, to_dominant


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

    def multiplicity(self, weight: Sequence[int]) -> int:
        w = tuple(weight)
        for md, m in self.summands:
            if md.highest_weight == w:
                return m
        return 0

    def weights(self) -> list[Vector]:
        return [md.highest_weight for md, _ in self.summands]

    def as_multiset(self) -> dict[Vector, int]:
        return {md.highest_weight: m for md, m in self.summands}

    def __str__(self) -> str:
        parts = []
        for md, m in self.summands:
            label = f"V([{','.join(str(x) for x in md.highest_weight)}])"
            parts.append(label if m == 1 else f"{m}*{label}")
        return " + ".join(parts) if parts else "0"


def _full_table(rs: RootSystem, lam: Vector) -> dict[Vector, int]:
    # the top orbit is part of the expansion, so check it before Freudenthal
    _check_orbit_budget(rs, lam)
    return freudenthal_character(rs, lam).expand(rs)


def _straighten(
    rs: RootSystem, weights: Mapping[Vector, int], shift: Vector
) -> dict[Vector, int]:
    """Highest weight -> signed coefficient of sum_nu m(nu) * chi(nu + shift).

    chi(v) is the Weyl numerator ratio A(v + rho) / A(rho): if to_dominant
    takes v + rho to a dominant p with c reflections, then p on a wall (a zero
    coordinate) gives zero and otherwise chi(v) = (-1)^c V(p - rho).  A
    regular weight has exactly one reducing element, so c has its parity.
    """
    shift_rho = [a + 1 for a in shift]
    out: dict[Vector, int] = {}
    for nu, m in weights.items():
        p, count = to_dominant(rs, [a + b for a, b in zip(nu, shift_rho)])
        if 0 not in p:
            key = tuple(x - 1 for x in p)
            out[key] = out.get(key, 0) + (-m if count & 1 else m)
    return out


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
    coeffs = _straighten(rs, ch.expand(rs), (0,) * rs.rank)
    return _result(rs, coeffs, ch.total_dimension(rs))


def tensor_decompose(
    rs: RootSystem, lam: Sequence[int], mu: Sequence[int]
) -> DecompositionResult:
    lam = _require_dominant(rs, lam)
    mu = _require_dominant(rs, mu)
    dl, dm = weyl_dim(rs, lam), weyl_dim(rs, mu)
    # expand the smaller factor by (dimension, weight), in either argument order
    (_, small), (_, big) = sorted([(dl, lam), (dm, mu)])
    return _result(rs, _straighten(rs, rs.memoized(_full_table, small), big), dl * dm)


def wedge2_decompose(rs: RootSystem, lam: Sequence[int]) -> DecompositionResult:
    """Exterior square of V(lam)."""
    return _square(rs, _require_dominant(rs, lam), -1)


def sym2_decompose(rs: RootSystem, lam: Sequence[int]) -> DecompositionResult:
    """Symmetric square of V(lam)."""
    return _square(rs, _require_dominant(rs, lam), +1)


def _square(rs: RootSystem, lam: Vector, sign: int) -> DecompositionResult:
    table = rs.memoized(_full_table, lam)
    coeffs = _straighten(rs, table, lam)
    doubled = {tuple(2 * a for a in w): m for w, m in table.items()}
    for w, m in _straighten(rs, doubled, (0,) * rs.rank).items():
        coeffs[w] = coeffs.get(w, 0) + sign * m
    for w, m in coeffs.items():
        if m % 2:
            raise InternalParity(f"odd coefficient {m} of V({list(w)}) before halving")
        coeffs[w] = m // 2
    d = weyl_dim(rs, lam)
    return _result(rs, coeffs, d * (d + sign) // 2)
