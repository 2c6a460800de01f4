"""Irreducible root systems from Cartan matrices, with exact integer arithmetic.

Conventions (fixed once, validated by the highest-root round-trip tests):

* Node labels are 1-based and follow the Humphreys numbering.  Coordinate
  vectors are plain tuples, index 0 holding node 1.
* The stored Cartan matrix has entries ``C[i][j] = 2(a_i, a_j)/(a_j, a_j)``,
  i.e. row = root, column = coroot.  A root with simple-root coordinates ``k``
  then has fundamental-weight coordinates ``m_j = sum_i k_i C[i][j]``, and the
  highest weight of the level -1 graded component of a node deletion is the
  negated deleted *row* of C.
* The symmetrizer ``d`` is normalized so short simple roots have ``d_i = 1``
  (short root length squared = 2).  With the row-root convention above the
  symmetry relation reads ``C[i][j] * d[j] == C[j][i] * d[i]``, and
  ``(a_i, a_j) = C[i][j] * d[j]`` is the exact symmetric bilinear form.
* Every diagram, finite or hypothetical, is a symmetrizer and a list of
  undirected edges, made a validated CartanMatrix by cartan_from_edges,
  which checks d and each edge on its own, in O(n + edges).
  The classical families stop at rank MAX_CLASSICAL_RANK.

No floating point is used anywhere.

The positive roots come from one p - q closure over simple-root strings run
on int codes: a root's coefficients are the digits of one int in radix 8,
node 1 the most significant, so probing beta + a_i or beta - k a_i is one
int addition and one set lookup, and the codes sort as the coefficient
tuples do.  No finite-type coefficient exceeds 6 (E8's highest root), so a
coefficient that would reach 7 stops the closure with InvariantViolation:
the matrix is not of finite type, and one more probe would carry into the
next digit and alias another root.  The same pass yields the per-root
tables that nearly every caller reads, each entry built once, when its
root is found: the coefficient tuple, the weight, the code
(RootSystem.root_codes, minus a code for minus a root), the norm and the
nodes where the weight is positive as a bitmask.  RootSystem(type, cartan)
runs it; there is no other way to build a root system.

Each RootSystem instance derives the rest of its datum once, on first use,
from those tables: the pairing vectors of the positive roots (the roots
themselves when every d_i is 1), the Weyl dimension denominator, the
highest coroot, an integer height functional and the reflection table of
RootSystem._raising.  The reflection table is
read only by the stabilizer classes of Freudenthal's formula, so node
deletions, their residual algebras, dimensions and defining checks never
build it; derived one node at a time from the weights, it costs what the
closure paid to fill it inline.  Every result derived from the datum and a
key (the root classes per zero-node set, the roots within a support, the
weight codes per digit width, and the characters, orbits, orbit sizes and
defining checks of rep_theory) is memoized on the instance by
RootSystem.memoized, never keyed by type, so a rescaled symmetrizer gets its
own.  build_root_system is the one process-wide cache: clearing it drops
every instance and with it every memo.

Weights are reduced and walked as int codes too (WeightCodes): one digit
per node, node 1 the lowest, holding the coordinate plus an offset of half
the digit's range, so a coordinate is negative exactly when its digit's top
bit is clear.  A simple reflection is one multiply-subtract of a packed
Cartan row, and the first negative coordinate is the lowest set bit of the
complemented code masked to the top bits.  Each table carries the one
reduction loop, WeightCodes.dominant: a closure that _weight_codes binds
once to the table's digits, rows and the longest element's length, so a
call reads no field of the table.  tensor_ops straightens with it;
to_dominant encodes, runs it and decodes.  The digit width is never fixed:
it comes from a bound on every coordinate the caller will meet,
sum_j c_j |v_j| over the highest coroot's coefficients c_j (at most 6),
since every coordinate of a Weyl conjugate of v is a pairing of v with a
coroot (RootSystem.coordinate_bound), rounded up to whole bytes.  A weight
that does not fit its digits raises InvariantViolation when it is encoded
or decoded, under python -O too.
"""

from __future__ import annotations

import itertools
import re
import struct
from collections import Counter, defaultdict
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from operator import add, mul
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

from .errors import BadEmbedding, InvalidType, InvariantViolation

Vector = tuple[int, ...]
T = TypeVar("T")

# The root closure of A_n costs about n^4; the paper needs rank 9 at most.
MAX_CLASSICAL_RANK = 32
RANK_RANGES: dict[str, tuple[int, int]] = {
    "A": (1, MAX_CLASSICAL_RANK),
    "B": (2, MAX_CLASSICAL_RANK),
    "C": (3, MAX_CLASSICAL_RANK),  # C starts at 3 to avoid relabelling B2
    "D": (4, MAX_CLASSICAL_RANK),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

class _DynkinFields(NamedTuple):
    family: str
    rank: int


class DynkinType(_DynkinFields):
    """A family letter and a rank in RANK_RANGES; anything else raises
    InvalidType.  A tuple, so it hashes, compares and sorts as (family, rank)."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int) -> DynkinType:
        rng = RANK_RANGES.get(family)
        if rng is None:
            raise InvalidType(f"unknown family {family!r}; expected one of A-G")
        lo, hi = rng
        if not lo <= rank <= hi:
            raise InvalidType(
                f"{family}{rank} out of range: {family} accepts rank {lo}..{hi}"
            )
        return tuple.__new__(cls, (family, rank))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def parse_dynkin(text: str) -> DynkinType:
    """Parse a type label such as "E8" or "a12" (case-insensitive)."""
    m = re.fullmatch(r"\s*([A-Ga-g])\s*(\d+)\s*", text)
    if not m:
        raise InvalidType(f"cannot parse Dynkin type from {text!r}; expected e.g. 'E8'")
    return DynkinType(m.group(1).upper(), int(m.group(2)))


class CartanMatrix(NamedTuple):
    entries: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.entries)


def cartan_from_edges(d: Sequence[int], edges: Iterable[tuple[int, int]]) -> CartanMatrix:
    """The validated Cartan matrix of the diagram with symmetrizer d and
    undirected edges between 1-based nodes: across an edge from a to b,
    C[a][b] = -max(1, d_a / d_b), so only the longer root's entry is below -1.

    The diagonal is 2 and every edge sets a symmetric pair of nonzero
    entries, so what is left to check is d and each edge alone: min(d) is 1
    (short roots have d_i = 1), both ends are distinct nodes, and the
    shorter end's d divides the longer's at most three times, so the entry
    is -1, -2 or -3 and d symmetrizes C.  Anything else raises InvalidType.
    """
    n = len(d)
    if not n or min(d) != 1:
        raise InvalidType("symmetrizer must be normalized with min d_i = 1")
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in edges:
        if a == b or not (1 <= a <= n and 1 <= b <= n):
            raise InvalidType(f"edge {(a, b)} does not join two of the nodes 1..{n}")
        da, db = d[a - 1], d[b - 1]
        ratio, r = divmod(max(da, db), min(da, db))
        if r or ratio > 3:
            raise InvalidType(f"symmetrizer entries {da} and {db} across edge {(a, b)} "
                              f"give no Cartan entry -1, -2 or -3")
        c[a - 1][b - 1] = -max(1, da // db)
        c[b - 1][a - 1] = -max(1, db // da)
    return CartanMatrix(tuple(map(tuple, c)), tuple(d))


def cartan_matrix(t: DynkinType) -> CartanMatrix:
    """Cartan matrix and symmetrizer in the Humphreys numbering."""
    l = t.rank
    edges = [(i, i + 1) for i in range(1, l)]
    d = [1] * l
    if t.family == "B":  # nodes 1..l-1 long, node l short
        d = [2] * (l - 1) + [1]
    elif t.family == "C":  # nodes 1..l-1 short, node l long
        d = [1] * (l - 1) + [2]
    elif t.family == "D":  # nodes l-1 and l both on node l-2
        edges[-1] = (l - 2, l)
    elif t.family == "E":  # chain 1-3-4-...-l with node 2 on node 4
        edges = [(1, 3), (2, 4)] + edges[2:]
    elif t.family == "F":  # nodes 1,2 long; 3,4 short; double edge 2=>3
        d = [2, 2, 1, 1]
    elif t.family == "G":  # node 1 short, node 2 long
        d = [1, 3]
    return cartan_from_edges(d, edges)


# Highest-root coordinates per family, used as a fail-fast convention check
# at build time (A-D are rank-parameterized).
def _expected_highest_root(t: DynkinType) -> Vector:
    l = t.rank
    if t.family == "A":
        return (1,) * l
    if t.family == "B":
        return (1,) + (2,) * (l - 1)
    if t.family == "C":
        return (2,) * (l - 1) + (1,)
    if t.family == "D":
        return (1,) + (2,) * (l - 3) + (1, 1)
    table = {
        ("E", 6): (1, 2, 2, 3, 2, 1),
        ("E", 7): (2, 2, 3, 4, 3, 2, 1),
        ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2),
        ("F", 4): (2, 3, 4, 2),
        ("G", 2): (3, 2),
    }
    return table[(t.family, t.rank)]


class RootSystem:
    """A root system and its memos, read-only once built.

    The constructor runs the root closure of cartan, which yields every
    per-root table below (see the module docstring); the root system is
    irreducible, its highest root unique.  The reflection table _raising,
    which only the Freudenthal stabilizer classes read, is derived on first
    read, as the other cached properties are.  build_root_system returns a
    cached singleton per type, and each instance owns its memos, so
    identity equality and hashing are all it needs.  The cached properties
    below and RootSystem.memoized keep their results in the instance's
    __dict__; attribute assignment raises AttributeError.
    """

    type: DynkinType
    rank: int
    cartan: CartanMatrix
    positive_roots: tuple[Vector, ...]  # by height, then lexicographically
    highest_root: Vector
    positive_weights: tuple[Vector, ...]  # in positive_roots order, as all below
    positive_norms: tuple[int, ...]  # (alpha, alpha)
    positive_nodes: tuple[int, ...]  # bit j set when the weight is positive at node j
    root_codes: dict[int, int]  # code -> index in positive_roots

    def __init__(self, type: DynkinType, cartan: CartanMatrix) -> None:
        roots, weights, codes, norms, positive = _root_closure(cartan)
        vars(self).update(
            type=type, rank=type.rank, cartan=cartan, positive_roots=roots,
            highest_root=roots[-1], positive_weights=weights, positive_norms=norms,
            positive_nodes=positive, root_codes=codes,
        )

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"RootSystem.{name} is read-only")

    __delattr__ = __setattr__

    @property
    def rho(self) -> Vector:
        return (1,) * self.rank

    @property
    def num_roots(self) -> int:
        return 2 * len(self.positive_roots)

    @property
    def dimension(self) -> int:
        """dim g = |R| + rank."""
        return self.num_roots + self.rank

    # -- root coordinates and the bilinear form ---------------------------

    def form_weight_root(self, m: Sequence[int], k: Sequence[int]) -> int:
        """(lambda, beta) for lambda in weight coords, beta in root coords."""
        return sum(map(mul, map(mul, k, self.cartan.symmetrizer), m))

    # -- root datum, computed once per instance ---------------------------

    @cached_property
    def positive_pairings(self) -> tuple[Vector, ...]:
        """alpha_j * d_j per positive root, so (lambda, alpha) = lambda . this;
        positive_roots itself when every d_j is 1, as in types A, D and E."""
        d = self.cartan.symmetrizer
        if max(d) == 1:
            return self.positive_roots
        return tuple(tuple(map(mul, a, d)) for a in self.positive_roots)

    @cached_property
    def _raising(self) -> tuple[dict[int, int], ...]:
        """Per node j, the index of each positive root alpha whose weight w
        has w_j < 0, mapped to the index of s_j(alpha) = alpha - w_j a_j, a
        higher positive root.  Only _root_classes reads it, so it is built
        on first read, one node's column of positive_weights at a time."""
        index = self.root_codes
        codes = list(index)  # in positive_roots order
        return tuple(
            {i: index[codes[i] - x * step] for i, x in enumerate(column) if x < 0}
            for column, step in zip(zip(*self.positive_weights), simple_root_codes(self.rank))
        )

    @cached_property
    def highest_coroot(self) -> Vector:
        """The coefficients c_j of the highest coroot, the highest root of the
        dual root system, on the simple coroots.

        The coroot of a positive root alpha has the coefficients
        2 alpha_j d_j / (alpha, alpha), and the highest coroot, the coroot of
        the highest short root (the last of the shortest positive roots), has
        the largest of each (at most 6, as in E8).  So |<v, beta^vee>| <=
        sum_j c_j |v_j| for every root beta, and every coordinate of every
        Weyl conjugate of v, a pairing <v, beta^vee> with beta = w^-1(a_j),
        obeys that bound.
        """
        top = self.highest_short_index
        short = self.positive_norms[top]
        return tuple(2 * x // short for x in self.positive_pairings[top])

    @property
    def highest_short_index(self) -> int:
        """The index in positive_roots of the highest short root, the last
        of the shortest positive roots: the one dominant short root."""
        norms = self.positive_norms
        return len(norms) - 1 - norms[::-1].index(min(norms))

    def coordinate_bound(self, w: Sequence[int]) -> int:
        """sum_j c_j |w_j| (see highest_coroot): no Weyl conjugate of w has a
        coordinate of larger absolute value."""
        return sum(map(mul, self.highest_coroot, map(abs, w)))

    def weight_codes(self, bound: int) -> WeightCodes:
        """The weight codes (see WeightCodes) whose digits hold every
        coordinate of absolute value at most bound; memoized per digit width."""
        nbytes = -(-(bound.bit_length() + 1) // 8)  # the bytes whose offset exceeds bound
        if nbytes <= 8:
            nbytes = 1 << (nbytes - 1).bit_length()  # 1, 2, 4 or 8, as struct packs
        return self.memoized(_weight_codes, nbytes)

    @cached_property
    def pairing_columns(self) -> tuple[Vector, ...]:
        """positive_pairings by node: entry j holds alpha_j * d_j for every
        positive root, so (lambda, alpha) sums lambda_j times entry j over
        supp(lambda)."""
        return tuple(zip(*self.positive_pairings))

    @cached_property
    def rho_pairings(self) -> Vector:
        """(rho, alpha) per positive root."""
        return tuple(map(sum, self.positive_pairings))

    @cached_property
    def weyl_denominator(self) -> int:
        """The constant denominator prod (rho, alpha) of the Weyl dimension formula."""
        return prod(self.rho_pairings)

    @cached_property
    def height_form(self) -> tuple[Vector, int]:
        """(h, D), D > 0, with h . v equal to D times the height of v, the
        sum of its (possibly fractional) coordinates on the simple roots, for
        every v: an integer functional ordering weights by that height.

        The height of v is <v, rho^vee>, half the sum of <v, alpha^vee> over
        the positive roots, and <w_j, alpha^vee> = 2 alpha_j d_j / (alpha, alpha);
        so h is the sum of alpha_j d_j * D / (alpha, alpha) with D the lcm of
        the norms, reduced by the common divisor.  The pairings are summed
        once per norm, of which there are at most three.
        """
        norms = self.positive_norms
        den = lcm(*set(norms))
        h = [0] * self.rank
        for norm in set(norms):
            same = itertools.compress(self.positive_pairings, map(norm.__eq__, norms))
            h = list(map(add, h, map((den // norm).__mul__, map(sum, zip(*same)))))
        g = gcd(den, *h)
        return tuple(x // g for x in h), den // g

    @cached_property
    def _memos(self) -> defaultdict[Callable, dict]:
        return defaultdict(dict)

    def memoized(self, compute: Callable[["RootSystem", Hashable], T], key: Hashable) -> T:
        """compute(self, key), computed once per instance, compute and key.

        This is where every result derived from the instance is kept: one
        dict per compute function, holding no result that is None.
        """
        memo = self._memos[compute]
        out = memo.get(key)
        if out is None:
            out = memo[key] = compute(self, key)
        return out

    def positive_root_classes(self, zero_nodes: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
        """The classes O ∩ Φ⁺ of the W_J-orbits O of roots, J = zero_nodes
        (0-based), as (index in positive_roots of the first member, size).
        Memoized per zero set."""
        return self.memoized(_root_classes, zero_nodes)

    def subsystem_roots(self, nodes: Iterable[int]) -> list[Vector]:
        """The positive roots of the root system of J = nodes (0-based):
        those whose code has no digit outside J set."""
        outside = _RADIX ** self.rank - 1  # every digit's bits
        for j in nodes:
            outside ^= (_RADIX - 1) * _RADIX ** (self.rank - 1 - j)
        return [a for c, a in zip(self.root_codes, self.positive_roots) if not c & outside]

    def roots_within_support(self, mask: int) -> tuple[int, ...]:
        """Indices in positive_roots of the roots whose weight is positive
        only on nodes in mask (bit j for the 0-based node j).

        Only these roots can be subtracted from a dominant weight with
        support mask and leave it dominant.  Memoized per mask.
        """
        return self.memoized(_roots_within_support, mask)


def _root_classes(rs: RootSystem, zero_nodes: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """One pass from the highest root down labels each positive root with
    the J-dominant root of its W_J-orbit, J = zero_nodes.

    A root whose weight is negative at some j in J takes the label of
    s_j(alpha), a higher positive root in the same orbit, for the first such
    j (RootSystem._raising, its rows for J merged so the first wins); any
    other root is J-dominant and labels itself.  Each W_J-orbit of roots
    that meets the positive roots meets them in exactly one J-dominant root,
    so the labels are the classes, and the last root a label reaches is the
    class's first member.
    """
    up: dict[int, int] = {}
    for j in reversed(zero_nodes):
        up.update(rs._raising[j])
    label = list(range(len(rs.positive_roots)))
    first = {}
    for i in reversed(label):
        k = up.get(i)
        if k is not None:
            label[i] = label[k]
        first[label[i]] = i
    return tuple(sorted((first[lab], size) for lab, size in Counter(label).items()))


def _roots_within_support(rs: RootSystem, mask: int) -> tuple[int, ...]:
    outside = ~mask
    return tuple(i for i, nodes in enumerate(rs.positive_nodes) if not nodes & outside)


# The radix of the root codes (see the module docstring).  A kept
# coefficient stays below _RADIX - 1, so adding a simple root never carries.
_RADIX = 8


def simple_root_codes(rank: int) -> tuple[int, ...]:
    """The codes of the simple roots a_1, ..., a_rank: the step of a probe
    beta + a_i or beta - a_i on a root code."""
    return tuple(_RADIX ** (rank - 1 - i) for i in range(rank))


def _root_closure(cm: CartanMatrix) -> tuple[
    tuple[Vector, ...], tuple[Vector, ...], dict[int, int], tuple[int, ...], tuple[int, ...],
]:
    """The positive roots of cm, by height and then lexicographically, and
    in that order their weights, codes (mapped to their indices), norms and
    positive-node bitmasks: the p - q closure over simple-root strings, run
    on root codes (see the module docstring).

    Each frontier holds the roots of one height.  Adding a_i adds Cartan row
    i to the weight w, whose i-th coordinate is the pairing <beta, a_i^vee> =
    p - q, and 2 d_i (w_i + 1) to the norm.  Root strings are unbroken, so
    beta + a_i is a root when w_i < 0, and when w_i >= 0 exactly when
    beta - (w_i + 1) a_i is one: a single probe, made only when beta_i >
    w_i, so the subtraction never borrows.  The matrix is irreducible
    exactly when the last frontier holds one root and that root has every
    coefficient at least 1; otherwise InvalidType.  (A reducible matrix can
    end on one root, the highest root of its tallest component, as A2 + A1
    does.)
    """
    n = cm.rank
    rows, d = cm.entries, cm.symmetrizer
    steps = simple_root_codes(n)
    nodes = tuple(zip(range(n), steps, [1 << i for i in range(n)]))
    level = {step: ((0,) * i + (1,) + (0,) * (n - 1 - i), rows[i], 2 * d[i])
             for i, step in enumerate(steps)}
    known = set(level)
    roots: list[Vector] = []
    weights: list[Vector] = []
    codes: list[int] = []
    norms: list[int] = []
    positive: list[int] = []
    while True:
        nxt = {}
        for code in sorted(level):
            k, w, norm = level[code]
            roots.append(k)
            weights.append(w)
            codes.append(code)
            norms.append(norm)
            pos = 0
            for i, step, bit in nodes:
                wi = w[i]
                if wi >= 0:
                    if wi:
                        pos |= bit
                    if k[i] <= wi or code - (wi + 1) * step not in known:
                        continue
                up = code + step
                if up in known:
                    continue
                ki = k[i]
                if ki + 1 >= _RADIX - 1:
                    raise InvariantViolation(
                        f"a root coefficient reaches {ki + 1}: the Cartan matrix "
                        f"{cm.entries} is not of finite type"
                    )
                known.add(up)
                nxt[up] = (k[:i] + (ki + 1,) + k[i + 1:], tuple(map(add, w, rows[i])),
                           norm + 2 * d[i] * (wi + 1))
            positive.append(pos)
        if not nxt:
            break
        level = nxt
    if len(level) != 1:
        raise InvalidType(
            f"the Cartan matrix {cm.entries} has {len(level)} highest roots, not one"
        )
    if 0 in roots[-1]:
        raise InvalidType(
            f"the Cartan matrix {cm.entries} is reducible: its highest root "
            f"{roots[-1]} misses a node"
        )
    return (tuple(roots), tuple(weights), dict(zip(codes, range(len(codes)))),
            tuple(norms), tuple(positive))


@lru_cache(maxsize=None)
def build_root_system(t: DynkinType) -> RootSystem:
    """The root system of t, after the convention-drift check."""
    rs = RootSystem(t, cartan_matrix(t))
    if rs.highest_root != _expected_highest_root(t):
        raise InvalidType(
            f"convention drift: generated highest root {rs.highest_root} for {t} does "
            f"not match the expected coordinates {_expected_highest_root(t)}"
        )
    return rs


# struct item formats of the signed digit widths, in bytes, that struct
# packs; a wider digit is packed with int.to_bytes.
_STRUCT_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


class WeightCodes(NamedTuple):
    """Weights packed as ints (see the module docstring): the code of v is
    sum_j (v_j + offset) << (width * j), offset = 1 << (width - 1).

    v + u is code(v) + code(u) - tops, 2v is 2 code(v) - tops, and s_j(v) is
    code(v) - v_j * row_j, with Cartan row j packed without offset: integer
    arithmetic is exact, so each is the code of its weight whenever that
    weight fits the digits.  The width is whole bytes, so encode and decode
    go through bytes: XOR with tops turns each digit into the
    two's-complement form of its coordinate.
    """

    width: int
    offset: int
    mask: int  # one digit's bits
    tops: int  # the top bit of every digit
    ones: int  # 1 in every digit: the step from the code of v to that of v + rho
    size: int  # bytes of a code
    longest: int  # the number of positive roots, the longest Weyl group element's length
    steps: dict[int, tuple[int, int]]  # bit_length of digit j's top bit -> (width * j, row_j)
    pack: Callable[..., bytes]  # signed coordinates -> little-endian digits
    unpack: Callable[[bytes], Vector]
    # code -> (code of its dominant conjugate, simple reflections used): the
    # one reduction loop, bound to this table by _weight_codes
    dominant: Callable[[int], tuple[int, int]]

    def encode(self, w: Sequence[int]) -> int:
        try:
            return int.from_bytes(self.pack(*w), "little") ^ self.tops
        except (struct.error, OverflowError):
            raise InvariantViolation(
                f"weight {tuple(w)} does not fit {self.width}-bit weight-code digits"
            ) from None

    def decode(self, c: int) -> Vector:
        try:
            return self.unpack((c ^ self.tops).to_bytes(self.size, "little"))
        except OverflowError:
            raise InvariantViolation(
                f"code {c} carries past its {len(self.steps)} {self.width}-bit digits"
            ) from None


def _weight_codes(rs: RootSystem, nbytes: int) -> WeightCodes:
    n, k = rs.rank, 8 * nbytes
    places = [1 << (k * j) for j in range(n)]
    rows = [sum(map(mul, row, places)) for row in rs.cartan.entries]
    fmt = _STRUCT_FORMATS.get(nbytes)
    if fmt:
        packer = struct.Struct(f"<{n}{fmt}")
        pack, unpack = packer.pack, packer.unpack
    else:
        def pack(*w: int) -> bytes:
            return b"".join(x.to_bytes(nbytes, "little", signed=True) for x in w)

        def unpack(b: bytes) -> Vector:
            return tuple(
                int.from_bytes(b[i:i + nbytes], "little", signed=True)
                for i in range(0, len(b), nbytes)
            )
    ones, offset, mask = sum(places), 1 << (k - 1), (1 << k) - 1
    tops, longest = offset * ones, len(rs.positive_roots)
    steps = {k * (j + 1): (k * j, row) for j, row in enumerate(rows)}

    def dominant(c: int) -> tuple[int, int]:
        """The code of the dominant Weyl-conjugate of the weight coded c, and
        the number of simple reflections used.

        Each step reflects the first negative coordinate, the lowest digit
        whose top bit is clear, and shortens the reducing element by one, so
        for a regular weight (-1)^count is that element's sign.  Every weight
        met is a conjugate of the first, so the caller's bound for it covers
        them all; were it wrong, the loop would stop with InvariantViolation
        after as many reflections as the longest element has, not run on.
        """
        count = 0
        while True:
            t = ~c & tops
            if not t:
                return c, count
            if count == longest:
                raise InvariantViolation(
                    f"no dominant code after {longest} reflections, the length of the "
                    f"longest Weyl group element: a coordinate overflowed its {k}-bit digit"
                )
            shift, row = steps[(t & -t).bit_length()]
            c -= (((c >> shift) & mask) - offset) * row  # s_j
            count += 1

    return WeightCodes(
        k, offset, mask, tops, ones, n * nbytes, longest, steps, pack, unpack, dominant
    )


def to_dominant(rs: RootSystem, w: Sequence[int]) -> tuple[Vector, int]:
    """Dominant Weyl-conjugate of w and the number of simple reflections used
    (see WeightCodes.dominant)."""
    codes = rs.weight_codes(rs.coordinate_bound(w))
    c, count = codes.dominant(codes.encode(w))
    return codes.decode(c), count


def diagram_automorphisms(t: DynkinType) -> tuple[tuple[int, ...], ...]:
    """All node permutations preserving the Cartan matrix, in lexicographic order.

    Each permutation is returned as a tuple p with p[i-1] the image of node i.
    """
    c = cartan_matrix(t).entries
    return tuple(diagram_embeddings(c, c, range(1, t.rank + 1)))


def coxeter_number(rs: RootSystem) -> int:
    """h = |R| / rank, with the height identity ht(highest root) = h - 1."""
    h, rem = divmod(rs.num_roots, rs.rank)
    if rem or sum(rs.highest_root) != h - 1:
        raise InvariantViolation(f"{rs.type}: |R| / rank and highest-root height disagree")
    return h


# ---------------------------------------------------------------------------
# Sub-diagram classification: the residual algebras of node deletion and the
# connected residuals of the induction search.
# ---------------------------------------------------------------------------


class SubdiagramComponent(NamedTuple):
    """A connected component of a node subset, identified as a Dynkin type.

    embedding[i-1] is the ambient label of this component's canonical node i;
    it is the lexicographically smallest valid graph isomorphism.
    """

    type: DynkinType
    embedding: tuple[int, ...]


def connected_components(entries, nodes: Iterable[int]) -> list[list[int]]:
    """The connected components of a node subset, each sorted, ordered by
    their smallest label."""
    remaining = set(nodes)
    comps = []
    while remaining:
        comp = [min(remaining)]
        remaining.remove(comp[0])
        for a in comp:  # comp grows while it is walked
            linked = {b for b in remaining if entries[a - 1][b - 1]}
            remaining -= linked
            comp.extend(linked)
        comps.append(sorted(comp))
    return comps


def component_type(entries, symmetrizer, comp: Sequence[int]) -> DynkinType:
    """The only Dynkin type a connected component can have, read from its
    root-length ratio max(d) / min(d): 3 is G; 2 is B (one short node), C
    (one long node) or F; 1 is A with no node of degree 3, else D when that
    node has two or more leaf neighbours and E when it has one.

    The shape is not checked here: DynkinType rejects a name such as E9, F5
    or G3, and classify_subdiagram proves the name by an isomorphism search.
    """
    d = [symmetrizer[a - 1] for a in comp]
    n, short, long = len(comp), min(d), max(d)
    if long == 3 * short:
        return DynkinType("G", n)
    if long == 2 * short:
        shorts = d.count(short)
        family = "B" if shorts == 1 else "C" if shorts == n - 1 else "F"
        return DynkinType(family, n)
    if long != short:
        raise InvalidType(f"root lengths on {comp} have the ratio {long}/{short}")
    neighbours = {a: [b for b in comp if b != a and entries[a - 1][b - 1]] for a in comp}
    branch = next((a for a in comp if len(neighbours[a]) == 3), None)
    if branch is None:
        return DynkinType("A", n)
    leaves = sum(len(neighbours[b]) == 1 for b in neighbours[branch])
    return DynkinType("D" if leaves >= 2 else "E", n)


def diagram_embeddings(canon, entries, labels: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Yield, in lexicographic order, every map p (canonical node i -> ambient
    label p[i-1]) under which `entries` restricted to `labels` equals `canon`.

    This one backtracking search gives the diagram automorphisms (canon ==
    entries), the embedding classify_subdiagram takes (the first), and the
    embedding sets of report routes and deletion equivalences.  A canonical
    node with a neighbour placed before it can only go to an ambient
    neighbour of that neighbour's image, so only those are tried, in
    ascending order; the maps yielded are the same.
    """
    n = len(canon)
    labels = sorted(labels)
    # per canonical node, the last canonical neighbour placed before it
    anchors = [next((j for j in reversed(range(i)) if canon[i][j]), None) for i in range(n)]
    near: dict[int, list[int]] = {}  # ambient label -> its neighbours in labels, ascending
    img: list[int] = []

    def extend():
        i = len(img)
        if i == n:
            yield tuple(img)
            return
        k = anchors[i]
        if k is None:
            cands = labels
        else:
            a = img[k]
            cands = near.get(a)
            if cands is None:
                cands = near[a] = [b for b in labels if b != a and entries[a - 1][b - 1]]
        for cand in cands:
            if cand in img:
                continue
            if all(
                canon[i][j] == entries[cand - 1][img[j] - 1]
                and canon[j][i] == entries[img[j] - 1][cand - 1]
                for j in reversed(range(i))  # canonical neighbours of i come mostly just before it
            ):
                img.append(cand)
                yield from extend()
                img.pop()

    return extend()


def classify_subdiagram(
    entries, symmetrizer, nodes: Iterable[int]
) -> tuple[SubdiagramComponent, ...]:
    """Split a node subset into components and identify each as a Dynkin type.

    Components are ordered by their smallest ambient label.  component_type
    names each, and the search for its lexicographically smallest embedding
    (the canonical choice when no explicit embedding is supplied) proves the
    name: a component not of finite type raises InvalidType, from that
    search or from DynkinType.  Each component's Cartan matrix is read from
    its root system, which the callers build anyway.
    """
    comps = []
    for comp in connected_components(entries, nodes):
        t = component_type(entries, symmetrizer, comp)
        iso = next(diagram_embeddings(build_root_system(t).cartan.entries, entries, comp), None)
        if iso is None:
            raise InvalidType(f"the diagram on {comp} is not of finite type")
        comps.append(SubdiagramComponent(t, iso))
    return tuple(comps)


def check_embedding(
    entries, node: int, residual: Sequence[DynkinType], iota, name: str
) -> tuple[int, ...]:
    """Validate iota (residual label -> ambient label, as a sequence or a
    1-based mapping) as an embedding of the residual diagram, its components
    in the given order, into the ambient Cartan matrix `entries` named `name`
    with `node` deleted.  Returns iota as a tuple; any failure raises
    BadEmbedding.

    The residual's Cartan matrix is block diagonal, so one comparison checks
    both that each component is realized and that no edge joins two of them.
    Each block is read from the component's root system, as in
    classify_subdiagram.
    """
    n = len(entries)
    if not 1 <= node <= n:
        raise BadEmbedding(f"node {node} out of range for {name}")
    canon: list[list[int]] = []
    for t in residual:
        pad = len(canon)
        canon = [row + [0] * t.rank for row in canon] + [
            [0] * pad + list(row) for row in build_root_system(t).cartan.entries
        ]
    size = len(canon)
    if size != n - 1:
        raise BadEmbedding(f"a rank-{size} residual does not have corank one in {name}")
    if isinstance(iota, Mapping):
        missing = [i for i in range(1, size + 1) if i not in iota]
        if missing:
            raise BadEmbedding(f"embedding lacks residual labels {missing}")
        stray = sorted(i for i in iota if not 1 <= i <= size)
        if stray:
            raise BadEmbedding(f"the rank-{size} residual has no labels {stray}")
        got = tuple(iota[i] for i in range(1, size + 1))
    else:
        got = tuple(iota)
    if len(got) != size:
        raise BadEmbedding(f"embedding must list {size} residual nodes, got {len(got)}")
    if set(got) != set(range(1, n + 1)) - {node}:
        raise BadEmbedding(f"embedding image must be the {name} nodes without {node}, got {got}")
    for i in range(size):
        for j in range(size):
            if entries[got[i] - 1][got[j] - 1] != canon[i][j]:
                kinds = "+".join(str(t) for t in residual) or "the empty diagram"
                raise BadEmbedding(f"map {got} does not embed {kinds} into {name}")
    return got
