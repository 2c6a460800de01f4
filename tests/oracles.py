"""Independent oracles for cross-checking the engine.

Multiplicities here come from the alternating Weyl sum over a partition-count,
from the Freudenthal recursion run over the full weight system (every weight
of the module, not just the dominant ones), or from the dominant-only
recursion with one root string per positive root, which the engine folds over
classes of roots.  The walked recursion folds as the engine does but walks
every root string to its end at every dominant weight, where the engine
memoizes each string's sum from the next dominant weight on it.  That recursion closes the dominant weights under every
positive root, where the engine tries only the roots positive on the
support.  Orbits come from explicit group matrices, parabolic ones from
closing under the chosen generators, dominance tests from a local
rational inverse, and the tensor, exterior-square and symmetric-square oracles
convolve full weight tables and peel them greedily rather than straightening.
The search oracle replays the induction search state by state, decomposing
every bracket pair again with those oracles.  The root-datum oracles
recompute, call by call, what each RootSystem now precomputes: the Weyl
product with both factors from the bilinear form, the coroot pairing of every
positive root, the height from the rational weight-to-root conversion, the
shortest dominant root from the norm of every positive root, and each
root's weight from a sum of Cartan rows (root_to_weight).  The orbit-size
oracle names the stabilizer's Dynkin components and multiplies per-family
Weyl group orders, where the engine multiplies (ht + 1) / ht over the roots
off the stabilizer.
The Cartan-matrix oracle builds each finite type as a simple chain and
patches its entries per family, where the engine reads a symmetrizer and an
edge list.  The root-closure oracle closes simple-root strings on
coefficient tuples, probing every string in full, where the engine probes
int codes once per root and node; root_set holds every root as a
coefficient tuple, which only the tests read.
The tuple Weyl kernel reduces a weight to the dominant chamber on a list
of coordinates, changing at each reflection the coordinates where the Cartan
row is nonzero; it walks an orbit and straightens a full weight table on
coordinate tuples, where the engine runs the same steps on packed int codes.
The reflection-edge oracle looks each reflected positive root up by its
coefficient tuple, where the engine adds codes, and the root-class oracle
runs a union-find over those edges, where the engine labels each root in
one pass from the highest root down.  The defining-check oracle reads the
verdict off a whole dominant character, where the engine solves the
dimension formula for the one multiplicity it needs.
The node-deletion oracle identifies every level, positive ones included,
from a primitive root found on coefficient tuples, and checks each against
the module's full weight multiset, the outer product of the factors' full
weight tables, and pairs each weight with its root (level_correspondence);
the engine reads each negative level's highest weight off the lowest root
of its mirror level and each positive one's off the highest root, and
checks dominant weights at the negative levels.  The dual-module oracle
names a positive level's factors as the duals V(-w0 lam) of its mirror's,
reducing -lam on a tuple.
The equivalence oracle takes the orbit of a deletion as the products
sigma o iota o tau over both automorphism groups, each group found by trying
every node permutation; the engine pairs the nodes of d's orbit with every
embedding that its one isomorphism search yields.
The pairwise search oracle replays the walk over level pairs that the
search kernel replaced: each state pairs level i with level n + 1 - i for
every i in turn and rebuilds its chain of descriptors from its ids.  It
reads the engine's own bracket masks and defining check, so it checks the
kernel's position bitsets, mirrors and pair order alone.
Apart from those and the walked recursion, which reads the engine's
dominant weights, nothing in this module calls the engine's character,
orbit or decomposition code; the decomposition oracles accept a full-table
character function so that cases too large for the Weyl-group sum can be fed
characters from elsewhere.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations
from math import factorial
from operator import add, mul

from lieinduct.deletion import Deletion, EquivalenceClass, GradedComponent, ZeroLevel
from lieinduct.induction import _SQUARE, _BracketMasks
from lieinduct.errors import (
    BijectionFailure,
    BudgetExceeded,
    EmptyLevel,
    InvalidType,
    InvariantViolation,
    IrreducibilityMismatch,
)
from lieinduct.rep_theory import (
    MAX_DOMINANT_WEIGHTS,
    MAX_WEIGHTS,
    ModuleDescriptor,
    dominant_weights,
    is_defining,
)
from lieinduct.root_system import (
    CartanMatrix,
    DynkinType,
    RootSystem,
    build_root_system,
    check_embedding,
    classify_subdiagram,
    component_type,
    connected_components,
)


def invert_rational(matrix):
    n = len(matrix)
    aug = [
        [Fraction(matrix[i][j]) for j in range(n)]
        + [Fraction(1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class WeylOracle:
    """Explicit Weyl group matrices acting on fundamental-weight coordinates.

    The group's elements are enumerated on first use of ``elements``; orbits
    of a parabolic subgroup close a weight under its generators only, so they
    stay cheap for E8.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        n = rs.rank
        c = rs.cartan.entries
        gens = []
        for i in range(n):
            rows = []
            for a in range(n):
                row = [int(a == j) for j in range(n)]
                if a == i:
                    row = [row[j] - c[i][j] for j in range(n)]
                rows.append(tuple(row))
            gens.append(tuple(rows))
        self.gens = gens
        cw = _inverse_cartan(c)
        # adjugate form of the same inverse for integer-only hot paths
        den = 1
        for row in cw:
            for x in row:
                den = den * x.denominator // _gcd(den, x.denominator)
        self._det = den
        self._adj = [[int(x * den) for x in row] for row in cw]

    @cached_property
    def elements(self) -> dict:
        """Every group element as a matrix, mapped to its determinant sign."""
        n = self.rs.rank
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        elements = {ident: 1}
        frontier = [(ident, 1)]
        while frontier:
            nxt = []
            for mat, sign in frontier:
                for g in self.gens:
                    prod = self._mul(mat, g)
                    if prod not in elements:
                        elements[prod] = -sign
                        nxt.append((prod, -sign))
            frontier = nxt
        return elements

    @staticmethod
    def _mul(a, b):
        n = len(a)
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )

    def act(self, mat, weight):
        n = len(weight)
        return tuple(sum(weight[a] * mat[a][j] for a in range(n)) for j in range(n))

    def orbit(self, weight):
        return {self.act(m, tuple(weight)) for m in self.elements}

    def parabolic_orbit(self, nodes, weight) -> set:
        """Orbit of weight under the subgroup generated by the reflections of
        the given (0-based) nodes, closed by applying their matrices."""
        seen = {tuple(weight)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for v in frontier:
                for j in nodes:
                    u = self.act(self.gens[j], v)
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        return seen

    def root_coords_scaled(self, weight):
        """det * (root coordinates); integer arithmetic only."""
        n = len(weight)
        return tuple(
            sum(weight[j] * self._adj[j][i] for j in range(n)) for i in range(n)
        )


@lru_cache(maxsize=None)
def _weyl_oracle_cached(rs_id, rs_ref=None):
    return WeylOracle(rs_ref)


def weyl_oracle(rs: RootSystem) -> WeylOracle:
    return _weyl_oracle_cached(id(rs), rs)


def kostant_partitions(rs: RootSystem):
    """Memoized count of ways to write a root-coordinate vector as a
    non-negative integer combination of the positive roots."""
    roots = sorted(rs.positive_roots, key=lambda r: (-sum(r), r))
    memo: dict[tuple[int, tuple], int] = {}

    def count(idx: int, v: tuple) -> int:
        if all(x == 0 for x in v):
            return 1
        if idx == len(roots) or any(x < 0 for x in v):
            return 0
        key = (idx, v)
        if key in memo:
            return memo[key]
        total = 0
        cur = v
        while all(x >= 0 for x in cur):
            total += count(idx + 1, cur)
            cur = tuple(a - b for a, b in zip(cur, roots[idx]))
        memo[key] = total
        return total

    return lambda v: count(0, tuple(v))


def kostant_multiplicity(rs: RootSystem, lam, mu) -> int:
    """Alternating Weyl sum over the partition count."""
    gp = weyl_oracle(rs)
    part = _partition_fn(rs)
    det = gp._det
    lam_rho = tuple(x + 1 for x in lam)
    mu_rho = tuple(x + 1 for x in mu)
    total = 0
    for mat, sign in gp.elements.items():
        arg = tuple(a - b for a, b in zip(gp.act(mat, lam_rho), mu_rho))
        scaled = gp.root_coords_scaled(arg)
        if any(x < 0 or x % det for x in scaled):
            continue
        total += sign * part(tuple(x // det for x in scaled))
    return total


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


@lru_cache(maxsize=None)
def _partition_fn_cached(rs_id, rs_ref=None):
    return kostant_partitions(rs_ref)


def _partition_fn(rs: RootSystem):
    return _partition_fn_cached(id(rs), rs)


_DOM_CHAR_CACHE: dict = {}


def kostant_dominant_character(rs: RootSystem, lam) -> dict:
    """Dominant weight -> multiplicity, multiplicities all by the Weyl sum.

    Candidate dominant weights are taken from the box lam - sum c_i alpha_i
    bounded by the lowest weight; entries with multiplicity zero are dropped.
    """
    key = (id(rs), tuple(lam))
    if key in _DOM_CHAR_CACHE:
        return _DOM_CHAR_CACHE[key]
    gp = weyl_oracle(rs)
    # the antidominant conjugate is the lowest weight; it bounds the box
    lowest = next(w for w in gp.orbit(lam) if all(x <= 0 for x in w))
    bound = root_coords(rs, tuple(a - b for a, b in zip(lam, lowest)))
    bound = [int(x) for x in bound]
    n = rs.rank
    alphas = [tuple(rs.cartan.entries[i][j] for j in range(n)) for i in range(n)]

    out: dict[tuple, int] = {}

    def walk(i, current):
        if i == n:
            if all(x >= 0 for x in current):
                m = kostant_multiplicity(rs, lam, current)
                if m:
                    out[current] = m
            return
        cur = current
        for _ in range(bound[i] + 1):
            walk(i + 1, cur)
            cur = tuple(a - b for a, b in zip(cur, alphas[i]))

    walk(0, tuple(lam))
    _DOM_CHAR_CACHE[key] = out
    return out


def kostant_full_character(rs: RootSystem, lam) -> dict:
    gp = weyl_oracle(rs)
    full: dict[tuple, int] = {}
    for w, m in kostant_dominant_character(rs, lam).items():
        for v in gp.orbit(w):
            full[v] = m
    return full


@lru_cache(maxsize=None)
def _inverse_cartan(entries):
    return invert_rational(entries)


def root_coords(rs: RootSystem, weight) -> list:
    """Simple-root coordinates of a weight, as Fractions."""
    inv = _inverse_cartan(rs.cartan.entries)
    n = len(weight)
    return [sum(weight[j] * inv[j][i] for j in range(n)) for i in range(n)]


def _dominates(rs: RootSystem, higher, lower) -> bool:
    """higher - lower a non-negative integer combination of simple roots;
    needs only the Cartan inverse, not the Weyl group."""
    coords = root_coords(rs, [a - b for a, b in zip(higher, lower)])
    return all(x.denominator == 1 and x >= 0 for x in coords)


def full_weight_system(rs: RootSystem, lam) -> frozenset:
    """Every weight of V(lam): the closure of lam under root strings downwards
    (a weight w with w_i = p > 0 has w - alpha_i, ..., w - p alpha_i too)."""
    c = rs.cartan.entries
    n = rs.rank
    lam = tuple(lam)
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(n):
                cur = w
                for _ in range(w[i]):
                    cur = tuple(cur[j] - c[i][j] for j in range(n))
                    if cur not in seen:
                        seen.add(cur)
                        nxt.append(cur)
        frontier = nxt
    return frozenset(seen)


def _dominant_conjugate(rs: RootSystem, v) -> tuple:
    rows = rs.cartan.entries
    v = tuple(v)
    while True:
        i = next((j for j, x in enumerate(v) if x < 0), None)
        if i is None:
            return v
        v = tuple(a - v[i] * r for a, r in zip(v, rows[i]))


def weight_system_freudenthal(rs: RootSystem, lam) -> dict:
    """Dominant weight -> multiplicity by the Freudenthal recursion over the
    full weight system: the dominant weights come from that system, processed
    by depth below lam, and a root string mu + k alpha is walked for as long
    as it stays inside the system."""
    lam = tuple(lam)
    n = rs.rank
    d = rs.cartan.symmetrizer
    weights = full_weight_system(rs, lam)
    dominant = sorted(
        (w for w in weights if min(w) >= 0),
        key=lambda w: (sum(root_coords(rs, [a - b for a, b in zip(lam, w)])), w),
    )

    def form(weight, root) -> int:
        return sum(weight[j] * root[j] * d[j] for j in range(n))

    mult = {lam: 1}
    for mu in dominant[1:]:
        acc = 0
        for alpha in rs.positive_roots:
            aw = root_to_weight(rs, alpha)
            nu = tuple(a + b for a, b in zip(mu, aw))
            while nu in weights:
                acc += mult[_dominant_conjugate(rs, nu)] * form(nu, alpha)
                nu = tuple(a + b for a, b in zip(nu, aw))
        diff = [int(x) for x in root_coords(rs, [a - b for a, b in zip(lam, mu)])]
        den = form([a + b + 2 for a, b in zip(lam, mu)], diff)
        q, r = divmod(2 * acc, den)
        if not (r == 0 and q > 0):
            raise AssertionError(f"Freudenthal oracle gave {2 * acc}/{den} at {mu}")
        mult[mu] = q
    return mult


def unindexed_dominant_weights(rs: RootSystem, lam) -> dict:
    """Dominant weight mu of V(lam) -> lam - mu in root coordinates, ordered
    by (height of lam - mu, mu): the closure of lam under subtracting every
    positive root at every weight while staying dominant, with no index by
    support.  BudgetExceeded past MAX_DOMINANT_WEIGHTS weights, checked as
    the closure grows."""
    lam = tuple(lam)
    below = {lam: (0,) * rs.rank}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            above = below[w]
            for alpha, aw in zip(rs.positive_roots, rs.positive_weights):
                v = tuple(a - b for a, b in zip(w, aw))
                if min(v) >= 0 and v not in below:
                    below[v] = tuple(a + b for a, b in zip(above, alpha))
                    nxt.append(v)
                    if len(below) > MAX_DOMINANT_WEIGHTS:
                        raise BudgetExceeded(
                            f"V({list(lam)}) of {rs.type} has more than "
                            f"{MAX_DOMINANT_WEIGHTS} dominant weights"
                        )
        frontier = nxt
    return dict(sorted(below.items(), key=lambda it: (sum(it[1]), it[0])))


def unfolded_freudenthal(rs: RootSystem, lam) -> dict:
    """Dominant weight -> multiplicity by the dominant-only Freudenthal
    recursion with one root string per positive root (no folding over root
    classes).  The dominant weights come from unindexed_dominant_weights,
    processed by depth below lam; the string mu + k alpha stops at its first
    weight whose dominant conjugate has no multiplicity yet, or once
    2k(mu, alpha) + k^2(alpha, alpha) exceeds (lam + mu, lam - mu)."""
    lam = tuple(lam)
    n = rs.rank
    d = rs.cartan.symmetrizer
    roots = [(alpha, root_to_weight(rs, alpha)) for alpha in rs.positive_roots]

    def form(weight, root) -> int:
        return sum(weight[j] * root[j] * d[j] for j in range(n))

    mult = {lam: 1}
    for mu, diff in list(unindexed_dominant_weights(rs, lam).items())[1:]:
        gap = form([a + b for a, b in zip(lam, mu)], diff)
        acc = 0
        for alpha, aw in roots:
            base = form(mu, alpha)
            norm = form(aw, alpha)
            nu = mu
            k = 1
            while 2 * k * base + k * k * norm <= gap:
                nu = tuple(a + b for a, b in zip(nu, aw))
                m = mult.get(_dominant_conjugate(rs, nu))
                if m is None:
                    break
                acc += m * (base + k * norm)
                k += 1
        den = gap + form([2] * n, diff)
        q, r = divmod(2 * acc, den)
        if not (r == 0 and q > 0):
            raise AssertionError(f"unfolded Freudenthal gave {2 * acc}/{den} at {mu}")
        mult[mu] = q
    return mult


def walked_freudenthal(rs: RootSystem, lam) -> dict:
    """Dominant weight -> multiplicity by the folded recursion with every
    root string walked to its end at every dominant weight, as the engine did
    before it memoized string sums: quadratic along a long string.  The
    dominant weights and root classes are the engine's; each string weight
    off the chamber is looked up through its dominant conjugate, reduced on
    a tuple."""
    lam = tuple(lam)
    n = rs.rank
    pw, pp, pn = rs.positive_weights, rs.positive_pairings, rs.positive_norms
    mult = {lam: 1}
    for mu, diff in list(dominant_weights(rs, lam).items())[1:]:
        gap = rs.form_weight_root([a + b for a, b in zip(lam, mu)], diff)
        acc = 0
        for i, size in rs.positive_root_classes(tuple(j for j in range(n) if not mu[j])):
            base = sum(x * y for x, y in zip(mu, pp[i]))
            nu = mu
            k = 1
            while 2 * k * base + k * k * pn[i] <= gap:
                nu = tuple(map(add, nu, pw[i]))
                m = mult.get(nu if min(nu) >= 0 else _dominant_conjugate(rs, nu))
                if m is None:
                    break
                acc += size * m * (base + k * pn[i])
                k += 1
        den = gap + 2 * rs.form_weight_root(rs.rho, diff)
        q, r = divmod(2 * acc, den)
        if not (r == 0 and q > 0):
            raise AssertionError(f"walked Freudenthal gave {2 * acc}/{den} at {mu}")
        mult[mu] = q
    return dict(sorted(mult.items()))


def _add(table: dict, key, m) -> None:
    if m:
        table[key] = table.get(key, 0) + m


def _peel_full_table(rs: RootSystem, table: dict, character) -> dict:
    """Greedy full-table peeling: remove the full character of a
    dominance-maximal dominant entry until nothing is left; returns highest
    weight -> multiplicity.  character(rs, lam) gives the full weight table of
    V(lam)."""
    conv = {w: m for w, m in table.items() if m}
    result: dict[tuple, int] = {}
    while conv:
        dominant = [w for w in conv if all(x >= 0 for x in w)]
        if not dominant:
            raise AssertionError("leftover table with no dominant entry")
        top = next(
            (w for w in dominant
             if all(w == v or not _dominates(rs, v, w) for v in dominant)),
            None,
        )
        if top is None:
            raise AssertionError("no dominance-maximal entry")
        mult = conv[top]
        if not mult > 0:
            raise AssertionError(f"negative multiplicity {mult} at {top}")
        result[top] = mult
        for w, m in character(rs, top).items():
            _add(conv, w, -mult * m)
            if conv.get(w) == 0:
                del conv[w]
        if not all(m > 0 for m in conv.values()):
            raise AssertionError("peeling drove a multiplicity negative")
    return result


def brute_tensor_decompose(rs: RootSystem, lam, mu, character=None) -> dict:
    """Tensor product decomposition by full-table convolution and full-table
    peeling; returns highest weight -> multiplicity.  Characters come from the
    Kostant oracle unless another full-table function is passed."""
    character = character or kostant_full_character
    ta = character(rs, tuple(lam))
    tb = character(rs, tuple(mu))
    conv: dict[tuple, int] = {}
    for w1, m1 in ta.items():
        for w2, m2 in tb.items():
            _add(conv, tuple(a + b for a, b in zip(w1, w2)), m1 * m2)
    return _peel_full_table(rs, conv, character)


def _brute_square(rs: RootSystem, lam, sign: int, character) -> dict:
    """Signed half-convolution over pairs of weight-basis vectors: weight
    spaces u < v contribute m_u m_v at u + v, and a weight space u of
    dimension m contributes m (m + sign) / 2 at 2u (sign -1 for the exterior
    square, +1 for the symmetric square)."""
    character = character or kostant_full_character
    items = sorted(character(rs, tuple(lam)).items())
    half: dict[tuple, int] = {}
    for i, (w1, m1) in enumerate(items):
        _add(half, tuple(2 * a for a in w1), m1 * (m1 + sign) // 2)
        for w2, m2 in items[i + 1 :]:
            _add(half, tuple(a + b for a, b in zip(w1, w2)), m1 * m2)
    return _peel_full_table(rs, half, character)


def brute_wedge2_decompose(rs: RootSystem, lam, character=None) -> dict:
    return _brute_square(rs, lam, -1, character)


def brute_sym2_decompose(rs: RootSystem, lam, character=None) -> dict:
    return _brute_square(rs, lam, +1, character)


@lru_cache(maxsize=None)
def _nonzero_entries(entries) -> tuple:
    """Per Cartan row, its (column, entry) pairs with a nonzero entry."""
    return tuple(tuple((j, r) for j, r in enumerate(row) if r) for row in entries)


def tuple_to_dominant(rs: RootSystem, w) -> tuple[tuple, int]:
    """Dominant Weyl-conjugate of w and the number of simple reflections
    used, on a list: each step reflects the weight at its first negative
    coordinate, changing only where that Cartan row is nonzero."""
    m = list(w)
    rows = _nonzero_entries(rs.cartan.entries)
    count = 0
    while True:
        for i, x in enumerate(m):
            if x < 0:
                break
        else:
            return tuple(m), count
        for j, r in rows[i]:  # s_i
            m[j] -= x * r
        count += 1


def tuple_weyl_orbit(rs: RootSystem, w) -> frozenset:
    """The orbit of the dominant weight w, walked down on tuples, applying
    s_i only where the i-th coordinate is positive."""
    w = tuple(w)
    rows = rs.cartan.entries
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for v in frontier:
            for x, row in zip(v, rows):
                if x > 0:
                    r = tuple(a - x * b for a, b in zip(v, row))
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
        frontier = nxt
    return frozenset(seen)


def tuple_straighten(rs: RootSystem, weights: dict, shift) -> dict:
    """Highest weight -> signed coefficient of sum_nu m(nu) * chi(nu + shift),
    for a full weight table: nu + shift + rho is reduced by
    tuple_to_dominant, a wall gives zero and any other point p contributes
    (-1)^count V(p - rho).  Zero coefficients are dropped."""
    shift_rho = [a + 1 for a in shift]
    out: dict = {}
    for nu, m in weights.items():
        p, count = tuple_to_dominant(rs, [a + b for a, b in zip(nu, shift_rho)])
        if 0 not in p:
            _add(out, tuple(x - 1 for x in p), -m if count & 1 else m)
    return {w: m for w, m in out.items() if m}


def tuple_square(rs: RootSystem, table: dict, lam, sign: int) -> dict:
    """Exterior (sign -1) or symmetric (sign +1) square of V(lam) from its
    full weight table, by the Adams operation straightened on tuples."""
    coeffs = tuple_straighten(rs, table, lam)
    doubled = {tuple(2 * a for a in w): m for w, m in table.items()}
    for w, m in tuple_straighten(rs, doubled, (0,) * rs.rank).items():
        _add(coeffs, w, sign * m)
    if any(m % 2 for m in coeffs.values()):
        raise AssertionError("odd coefficient before halving")
    return {w: m // 2 for w, m in coeffs.items() if m}


def _brute_is_defining(rs: RootSystem, lam) -> bool:
    """All multiplicities 1 and at most two dominant weights, read from the
    Kostant character."""
    table = kostant_dominant_character(rs, tuple(lam))
    return len(table) <= 2 and max(table.values()) == 1


def character_defining_check(rs: RootSystem, lam, character) -> bool:
    """The defining verdict read off the whole dominant character, as given
    by character(rs, lam): at most two dominant weights, each of
    multiplicity 1.  A character refused with BudgetExceeded has more than
    two."""
    try:
        table = character(rs, tuple(lam))
    except BudgetExceeded:
        return False
    return len(table) <= 2 and max(table.values()) == 1


def _brute_dimension(rs: RootSystem, lam) -> int:
    return sum(kostant_full_character(rs, tuple(lam)).values())


def brute_induction_search(rs: RootSystem, b1, max_depth: int) -> list:
    """(chain weights, terminated, DBOS dimension) of every admissible chain
    starting from b1, sorted by the chain weights.

    The per-state route: every state decomposes each of its bracket pairs
    b_i (x) b_j (Lambda^2 b_i when i = j, skipped for a line) again by
    full-table convolution and peeling, tests every summand for the defining
    property on its Kostant character, and intersects the survivors.
    """
    b1 = tuple(b1)
    if not _brute_is_defining(rs, b1):
        return []
    out = []

    def candidates(chain: list) -> set:
        k = len(chain) + 1
        required = []
        for i in range(1, k // 2 + 1):
            a, b = chain[i - 1], chain[k - i - 1]
            if i == k - i:
                if _brute_dimension(rs, a) == 1:
                    continue
                dec = brute_wedge2_decompose(rs, a)
            else:
                dec = brute_tensor_decompose(rs, a, b)
            required.append({w for w in dec if _brute_is_defining(rs, w)})
        return set.intersection(*required) if required else set()

    def walk(chain: list) -> None:
        dim = rs.dimension + 1 + 2 * sum(_brute_dimension(rs, w) for w in chain)
        if len(chain) == max_depth:
            out.append((tuple(chain), False, dim))
            return
        out.append((tuple(chain), True, dim))
        for w in candidates(chain):
            walk(chain + [w])

    walk([b1])
    return sorted(out)


def pairwise_admissible(masks: _BracketMasks, chain: tuple) -> int:
    """The ids admissible below a chain of module ids, as a bitmask: the
    masks of the pairs (level i, level n + 1 - i) for i = 1, 2, ... in turn,
    stopping at the first empty intersection, then the square of the middle
    level of an odd chain unless that level is a line."""
    n = len(chain)
    common = -1
    for key in zip(chain[: n // 2], reversed(chain)):
        common &= masks[key]
        if not common:
            return 0
    if n % 2 and masks.modules[chain[n // 2]].dimension != 1:
        common &= masks[chain[n // 2], _SQUARE]
    return max(common, 0)


def pairwise_induction_search(rs: RootSystem, b1, max_depth: int) -> list:
    """(chain of descriptors, terminated, DBOS dimension) of every admissible
    chain from b1, in the order of the search: depth first, children by
    ascending highest weight.  Each state sums its dimension again."""
    masks = _BracketMasks(rs)
    modules = masks.modules
    first = ModuleDescriptor(rs.type, tuple(b1), product_weyl_dim(rs, b1))
    if not is_defining(rs, first.highest_weight):  # as the masks check
        return []
    out = []
    stack = [(masks.intern(first),)]
    while stack:
        chain = stack.pop()
        mds = tuple(modules[i] for i in chain)
        dim = rs.dimension + 1 + 2 * sum(md.dimension for md in mds)
        if len(chain) == max_depth:
            out.append((mds, False, dim))
            continue
        out.append((mds, True, dim))
        common = pairwise_admissible(masks, chain)
        ids = [i for i in range(common.bit_length()) if common >> i & 1]
        ids.sort(key=lambda i: modules[i].highest_weight, reverse=True)
        stack.extend(chain + (i,) for i in ids)
    return out


def product_weyl_dim(rs: RootSystem, lam) -> int:
    """Weyl's product formula, both factors from form_weight_root per call."""
    lam_rho = tuple(x + 1 for x in lam)
    num = den = 1
    for alpha in rs.positive_roots:
        num *= rs.form_weight_root(lam_rho, alpha)
        den *= rs.form_weight_root(rs.rho, alpha)
    q, r = divmod(num, den)
    if r:
        raise ValueError(f"Weyl product of {lam} is not an integer")
    return q


def coroot_weight_class(rs: RootSystem, lam) -> tuple[bool, bool]:
    """(minuscule, quasi-minuscule) from the coroot pairing
    2 (lam, alpha) / (alpha, alpha) on every positive root, with both forms
    summed from the root's pairing vector and weight.  The zero weight counts
    as minuscule; quasi-minuscule means the pairing reaches 2 on exactly one
    root and never exceeds it."""
    pairings = []
    for aw, ap in zip(rs.positive_weights, rs.positive_pairings):
        q, r = divmod(2 * sum(map(mul, lam, ap)), sum(map(mul, aw, ap)))
        if r:
            raise ValueError(f"coroot pairing of {lam} with the root of weight {aw} is not an integer")
        pairings.append(q)
    top = max(pairings + [0])
    return top <= 1, top <= 2 and pairings.count(2) == 1


def norm_scan_short_dominant_root(rs: RootSystem) -> tuple:
    """The dominant root of minimal length: the norm (alpha, alpha) of every
    positive root from the bilinear form, each call converting the root to
    weight coordinates again."""
    shortest = min(rs.positive_roots,
                   key=lambda alpha: rs.form_weight_root(root_to_weight(rs, alpha), alpha))
    return _dominant_conjugate(rs, root_to_weight(rs, shortest))


def root_to_weight(rs: RootSystem, k) -> tuple:
    """The weight of the root with coefficients k: the sum of k_i times
    Cartan row i."""
    out = [0] * rs.rank
    for ki, row in zip(k, rs.cartan.entries):
        out = [a + ki * b for a, b in zip(out, row)]
    return tuple(out)


# Weyl group orders of the exceptional types; the classical ones by formula.
_EXCEPTIONAL_WEYL_ORDER = {
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
    ("F", 4): 1152,
    ("G", 2): 12,
}


def family_weyl_order(t: DynkinType) -> int:
    """|W(t)| from the per-family formulas and the exceptional table."""
    l = t.rank
    if t.family == "A":
        return factorial(l + 1)
    if t.family in ("B", "C"):
        return (1 << l) * factorial(l)
    if t.family == "D":
        return (1 << (l - 1)) * factorial(l)
    return _EXCEPTIONAL_WEYL_ORDER[(t.family, t.rank)]


def stabilizer_orbit_size(rs: RootSystem, zero_nodes) -> int:
    """|W| / |W_J| for the 1-based node set J: the stabilizer's Dynkin
    components named by component_type, each sized by family_weyl_order."""
    stab = 1
    cm = rs.cartan
    for comp in connected_components(cm.entries, zero_nodes):
        stab *= family_weyl_order(component_type(cm.entries, cm.symmetrizer, comp))
    q, r = divmod(family_weyl_order(rs.type), stab)
    if r:
        raise ValueError(f"stabilizer order {stab} does not divide |W({rs.type})|")
    return q


def root_height(rs: RootSystem, v) -> Fraction:
    """Height of a weight in root coordinates (may be fractional)."""
    return sum(root_coords(rs, v))


def simple_reflection(rs: RootSystem, v, i: int) -> tuple:
    """s_i on fundamental-weight coordinates (i 1-based): v minus v_i times
    Cartan row i."""
    row = rs.cartan.entries[i - 1]
    return tuple(x - v[i - 1] * y for x, y in zip(v, row))


def patched_cartan_matrix(t: DynkinType) -> CartanMatrix:
    """Cartan matrix and symmetrizer in the Humphreys numbering: the simple
    chain 1-2-...-l, with the entries of each family patched by hand."""
    l = t.rank
    c = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
    for i in range(l - 1):
        c[i][i + 1] = -1
        c[i + 1][i] = -1
    d = [1] * l
    if t.family == "B":
        # nodes 1..l-1 long, node l short
        c[l - 2][l - 1] = -2
        c[l - 1][l - 2] = -1
        d = [2] * (l - 1) + [1]
    elif t.family == "C":
        # nodes 1..l-1 short, node l long
        c[l - 2][l - 1] = -1
        c[l - 1][l - 2] = -2
        d = [1] * (l - 1) + [2]
    elif t.family == "D":
        c[l - 2][l - 1] = 0
        c[l - 1][l - 2] = 0
        c[l - 3][l - 1] = -1
        c[l - 1][l - 3] = -1
    elif t.family == "E":
        # chain 1-3-4-...-l with node 2 attached to node 4
        c = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
        edges = [(1, 3), (3, 4), (2, 4)] + [(i, i + 1) for i in range(4, l)]
        for a, b in edges:
            c[a - 1][b - 1] = -1
            c[b - 1][a - 1] = -1
    elif t.family == "F":
        # nodes 1,2 long; 3,4 short; double edge 2=>3
        c[1][2] = -2
        c[2][1] = -1
        d = [2, 2, 1, 1]
    elif t.family == "G":
        # node 1 short, node 2 long
        c = [[2, -1], [-3, 2]]
        d = [1, 3]
    return CartanMatrix(tuple(tuple(row) for row in c), tuple(d))


@lru_cache(maxsize=None)
def root_set(rs: RootSystem) -> frozenset:
    """Every root of rs, positive and negative, as a coefficient tuple."""
    pr = rs.positive_roots
    return frozenset(pr) | frozenset(tuple(-x for x in r) for r in pr)


def tuple_root_closure(cm: CartanMatrix) -> tuple[tuple, tuple]:
    """(positive roots sorted by height and then lexicographically, their
    weights), by the p - q rule on coefficient tuples: beta + a_i is a root
    when the a_i-string down from beta is longer than <beta, a_i^vee>.
    Runs forever on a matrix that is not of finite type."""
    n = cm.rank
    rows = cm.entries
    weights = {tuple(int(i == j) for j in range(n)): rows[i] for i in range(n)}
    frontier = list(weights.items())
    while frontier:
        nxt = []
        for beta, w in frontier:
            for i in range(n):
                cand = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                if cand in weights:
                    continue
                p = 0
                while beta[:i] + (beta[i] - p - 1,) + beta[i + 1:] in weights:
                    p += 1
                if p > w[i]:
                    weights[cand] = tuple(a + b for a, b in zip(w, rows[i]))
                    nxt.append((cand, weights[cand]))
        frontier = nxt
    ordered = tuple(sorted(weights, key=lambda r: (sum(r), r)))
    return ordered, tuple(weights[r] for r in ordered)


def tuple_reflection_edges(rs: RootSystem) -> tuple:
    """Per node j, the pairs (i, k) of positive-root indices with
    s_j(alpha_i) = alpha_k and <alpha_i, a_j^vee> > 0, alpha_i != a_j, each
    reflected root s_j(alpha) = alpha - <alpha, a_j^vee> a_j found by its
    coefficient tuple."""
    pr, pw = rs.positive_roots, rs.positive_weights
    index = {a: i for i, a in enumerate(pr)}
    return tuple(
        tuple(
            (i, index[a[:j] + (a[j] - aw[j],) + a[j + 1:]])
            for i, (a, aw) in enumerate(zip(pr, pw))
            if aw[j] > 0 and aw != row
        )
        for j, row in enumerate(rs.cartan.entries)  # row j is a_j's weight
    )


def union_find_root_classes(rs: RootSystem, zero_nodes) -> tuple:
    """RootSystem.positive_root_classes by a union-find over the edges
    alpha - s_j(alpha), j in zero_nodes, of tuple_reflection_edges: the
    classes as (smallest index, size), sorted."""
    parent = list(range(len(rs.positive_roots)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    edges = tuple_reflection_edges(rs)
    for j in zero_nodes:
        for i, k in edges[j]:
            a, b = find(i), find(k)
            if a != b:  # the smaller index stays the class's first member
                parent[max(a, b)] = min(a, b)
    return tuple(sorted(Counter(find(i) for i in range(len(parent))).items()))


def tuple_primitive_root(rs: RootSystem, d: int, level_roots) -> tuple:
    """The unique root of the level that remains a root under no residual
    simple-root addition, probed on coefficient tuples in root_set(rs)."""
    prims = []
    for beta in level_roots:
        ok = True
        for j in range(1, rs.rank + 1):
            if j == d:
                continue
            up = list(beta)
            up[j - 1] += 1
            if tuple(up) in root_set(rs):
                ok = False
                break
        if ok:
            prims.append(beta)
    if not prims:
        raise EmptyLevel("no primitive vector: level is empty")
    if len(prims) > 1:
        raise InvariantViolation(
            f"level has {len(prims)} primitive vectors {prims}; expected one"
        )
    return prims[0]


def _full_weight_table(rs: RootSystem, lam) -> dict:
    """Every weight of V(lam) with its multiplicity, read off the dominant
    conjugate in weight_system_freudenthal."""
    dominant = weight_system_freudenthal(rs, lam)
    return {v: dominant[_dominant_conjugate(rs, v)] for v in full_weight_system(rs, lam)}


def module_weight_multiset(factors) -> dict:
    """Full weight multiset of a product-algebra module: the outer product
    of the factors' full weight tables.  BudgetExceeded, before any weight
    is built, when the product of the dimensions exceeds MAX_WEIGHTS."""
    size = 1
    for f in factors:
        size *= f.dimension
    if size > MAX_WEIGHTS:
        raise BudgetExceeded(
            f"the outer product of these factors has up to {size} weights, "
            f"more than {MAX_WEIGHTS}"
        )
    acc = {(): 1}
    for f in factors:
        table = _full_weight_table(build_root_system(f.algebra), f.highest_weight)
        nxt = {}
        for w0, m0 in acc.items():
            for w1, m1 in table.items():
                key = w0 + w1
                nxt[key] = nxt.get(key, 0) + m0 * m1
        acc = nxt
    return acc


def _oracle_residual_weight(rs: RootSystem, index, beta) -> tuple:
    w = root_to_weight(rs, beta)
    return tuple(w[i] for i in index)


def level_correspondence(rs: RootSystem, index, roots, factors) -> tuple:
    """(residual weight, root) pairs, by descending weight sum and then
    weight, once the weights are found to be the module's full weight
    multiset, each of multiplicity one."""
    seen = {}
    for beta in roots:
        w = _oracle_residual_weight(rs, index, beta)
        if w in seen:
            raise BijectionFailure(
                f"roots {seen[w]} and {beta} share the residual weight {w}"
            )
        seen[w] = beta
    expected = module_weight_multiset(factors)
    if set(expected) != set(seen) or any(m != 1 for m in expected.values()):
        raise BijectionFailure(
            "level weights do not match the identified module's weight system"
        )
    return tuple(sorted(seen.items(), key=lambda kv: (-sum(kv[0]), kv[0])))


def dual_module(f: ModuleDescriptor) -> ModuleDescriptor:
    """V(-w0 lam) for f = V(lam): the module whose weights are f's negated."""
    lam = tuple_to_dominant(build_root_system(f.algebra), [-x for x in f.highest_weight])[0]
    return ModuleDescriptor(f.algebra, lam, f.dimension)


def _residual_embedding(rs: RootSystem, d: int, iota) -> tuple:
    """The residual components at node d and iota as a tuple: the canonical
    embedding when iota is None, else iota validated by check_embedding."""
    residual_nodes = [i for i in range(1, rs.rank + 1) if i != d]
    components = classify_subdiagram(rs.cartan.entries, rs.cartan.symmetrizer, residual_nodes)
    if iota is None:
        return components, tuple(a for c in components for a in c.embedding)
    return components, check_embedding(
        rs.cartan.entries, d, [c.type for c in components], iota, str(rs.type)
    )


def full_multiset_delete_node(rs: RootSystem, d: int, iota=None) -> Deletion:
    """delete_node with every nonzero level identified on its own: roots
    grouped from root_set(rs), the primitive root probed on tuples, factors sized
    by product_weyl_dim and each level checked on its full weight multiset."""
    residual_nodes = [i for i in range(1, rs.rank + 1) if i != d]
    components, iota_t = _residual_embedding(rs, d, iota)
    index = [amb - 1 for amb in iota_t]
    by_level = {}
    for r in root_set(rs):
        by_level.setdefault(r[d - 1], []).append(r)
    levels = []
    for i in sorted(k for k in by_level if k != 0):
        roots = tuple(sorted(by_level[i]))
        weight = _oracle_residual_weight(rs, index, tuple_primitive_root(rs, d, roots))
        factors, pos = [], 0
        for comp in components:
            sub = weight[pos:pos + comp.type.rank]
            frs = build_root_system(comp.type)
            factors.append(ModuleDescriptor(comp.type, sub, product_weyl_dim(frs, sub)))
            pos += comp.type.rank
        factors = tuple(factors)
        dim = 1
        for f in factors:
            dim *= f.dimension
        if dim != len(roots):
            raise IrreducibilityMismatch(f"level {i}: {len(roots)} roots, dimension {dim}")
        level_correspondence(rs, index, roots, factors)  # BijectionFailure unless one each
        levels.append(GradedComponent(i, roots, factors))
    residual_roots = sum(
        2 * len(build_root_system(c.type).positive_roots) for c in components
    )
    zero = ZeroLevel(len(by_level.get(0, [])), residual_roots + len(residual_nodes))
    return Deletion(rs.type, d, components, iota_t, tuple(levels), zero)


@lru_cache(maxsize=None)
def permutation_automorphisms(t: DynkinType) -> tuple:
    """Every permutation of t's nodes preserving its Cartan matrix, found by
    trying all of them, in lexicographic order."""
    c = patched_cartan_matrix(t).entries
    n = t.rank
    return tuple(
        p for p in permutations(range(1, n + 1))
        if all(c[p[i] - 1][p[j] - 1] == c[i][j] for i in range(n) for j in range(n))
    )


def product_deletion_equivalences(g: DynkinType, d: int, iota=None) -> EquivalenceClass:
    """The orbit of the deletion (g, d, g0, iota) as the set of
    (sigma(d), sigma o iota o tau) over every sigma in Aut(g) and tau in
    Aut(g0), sorted; the engine instead pairs each node of d's Aut(g)-orbit
    with every embedding of g0 onto the rest."""
    components, seed = _residual_embedding(build_root_system(g), d, iota)
    if len(components) != 1:
        raise InvalidType("deletion equivalences are defined for simple residuals")
    g0 = components[0].type
    auts_g, auts_g0 = permutation_automorphisms(g), permutation_automorphisms(g0)
    members = {
        (sigma[d - 1], tuple(sigma[seed[tau[j] - 1] - 1] for j in range(g0.rank)))
        for sigma in auts_g
        for tau in auts_g0
    }
    return EquivalenceClass(g, g0, tuple(sorted(members)), len(auts_g), len(auts_g0))
