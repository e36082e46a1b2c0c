"""Lattice combinatorics of escape sets.

For a sequence of ideals I_1, ..., I_t and a p-family of reference ideals,
the level-e escape set is the set of exponent tuples a in N^t whose product
ideal I_1^{a_1} * ... * I_t^{a_t} is NOT contained in the level ideal. It is
a finite down-set; everything here (enumeration, borders, the two covers of a
refined escape set, volumes, exports) manipulates such sets exactly, with
integer numerators over a power-of-p denominator. No floating point anywhere.

A `DownSet` holds a down-set by its maximal points a; scaled by 1/p^e it is
the paper's box region, the union of the boxes [0, a/p^e].
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .errors import (
    BadInputError,
    BadLevelError,
    BudgetExceededError,
    HypothesisViolatedError,
)
from .groebner import (
    GroebnerBasis,
    Ideal,
    frobenius_basis,
    frobenius_power,
    groebner_basis,
    ideal_contains,
    power_containment_index,
    power_table,
    radical_membership,
)

DEFAULT_BUDGET = 10**7


class BudgetCounter:
    """Counts membership evaluations; trips loudly instead of hanging."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = limit
        self.used = 0

    def charge(self, n: int = 1):
        self.used += n
        if self.used > self.limit:
            raise BudgetExceededError(
                f"membership-call budget {self.limit} exceeded"
            )


def _as_budget(budget) -> BudgetCounter:
    if budget is None:
        return BudgetCounter(DEFAULT_BUDGET)
    if isinstance(budget, BudgetCounter):
        return budget
    return BudgetCounter(int(budget))


# ---------------------------------------------------------------------------
# Input containers
# ---------------------------------------------------------------------------

class IdealSequence:
    """The tuple I_1, ..., I_t; `principal` when every entry has one generator."""

    __slots__ = ("ring", "entries", "_key")

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise BadInputError("need at least one sequence entry")
        ring = entries[0].ring
        for I in entries:
            if not isinstance(I, Ideal):
                raise BadInputError(f"sequence entry is not an ideal: {I!r}")
            if I.ring != ring:
                raise BadInputError("sequence entries live in different rings")
            if I.is_zero:
                raise BadInputError("sequence entries must be nonzero ideals")
        self.ring = ring
        self.entries = entries
        self._key = None

    @property
    def t(self) -> int:
        return len(self.entries)

    @property
    def principal(self) -> bool:
        return all(I.num_gens == 1 for I in self.entries)

    def generator_counts(self) -> tuple:
        return tuple(I.num_gens for I in self.entries)

    def truncated(self) -> "IdealSequence":
        """Drop the last entry (needs t >= 2)."""
        if self.t < 2:
            raise BadInputError("cannot truncate a length-1 sequence")
        return IdealSequence(self.entries[:-1])

    def key(self) -> tuple:
        if self._key is None:
            self._key = tuple(I.key() for I in self.entries)
        return self._key

    def __eq__(self, other):
        return isinstance(other, IdealSequence) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"IdealSequence{self.entries!r}"


class PFamily:
    """A p-family of reference ideals: Frobenius powers of a fixed ideal, or
    explicitly listed levels J_{p^0}, J_{p^1}, ... (contiguous from 0)."""

    __slots__ = ("ring", "kind", "base", "levels", "_key")

    def __init__(self, ring, kind, base, levels):
        self.ring = ring
        self.kind = kind
        self.base = base
        self.levels = levels
        self._key = None

    @classmethod
    def frobenius(cls, J: Ideal) -> "PFamily":
        if J.is_zero:
            raise BadInputError("reference ideal must be nonzero")
        return cls(J.ring, "frobenius", J, None)

    @classmethod
    def explicit(cls, level_ideals, pres=None) -> "PFamily":
        """Explicit levels as a list of ideals for e = 0, 1, 2, ...

        The defining containment J_{p^e}^[p] within J_{p^{e+1}} is checked for
        every consecutive pair provided, in the presented ring when a
        presentation is given.
        """
        level_ideals = tuple(level_ideals)
        if not level_ideals:
            raise BadInputError("explicit family needs at least level 0")
        ring = level_ideals[0].ring
        p = ring.p
        for a, b in zip(level_ideals, level_ideals[1:]):
            if not ideal_contains(frobenius_power(a, p), b, pres):
                raise BadInputError(
                    "not a p-family: bracket p-th power of one level "
                    "is not contained in the next"
                )
        return cls(ring, "explicit", None, level_ideals)

    @property
    def p(self) -> int:
        return self.ring.p

    def level_ideal(self, e: int) -> Ideal:
        if e < 0:
            raise BadLevelError(f"negative level {e}")
        if self.kind == "frobenius":
            return frobenius_power(self.base, self.p ** e)
        if e >= len(self.levels):
            raise BadLevelError(
                f"level {e} not provided (explicit family has levels 0..{len(self.levels) - 1})"
            )
        return self.levels[e]

    def level_basis(self, e: int, pres=None) -> GroebnerBasis:
        """Basis of the level-e reference ideal, which must be proper."""
        if self.kind == "frobenius":
            if e < 0:
                raise BadLevelError(f"negative level {e}")
            basis = frobenius_basis(self.base, self.p ** e, pres)
        else:
            basis = groebner_basis(self.level_ideal(e), pres)
        if basis.contains_one:
            raise HypothesisViolatedError(
                f"level-{e} reference ideal is the unit ideal in the quotient"
            )
        return basis

    def base_level(self) -> Ideal:
        """J_{p^0}, the reference for the radical hypothesis and bounds."""
        return self.level_ideal(0)

    def key(self) -> tuple:
        if self._key is None:
            if self.kind == "frobenius":
                self._key = ("frobenius", self.base.key())
            else:
                self._key = ("explicit", tuple(J.key() for J in self.levels))
        return self._key

    def __eq__(self, other):
        return isinstance(other, PFamily) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.kind == "frobenius":
            return f"PFamily.frobenius({self.base!r})"
        return f"PFamily.explicit({list(self.levels)!r})"


# ---------------------------------------------------------------------------
# Hypothesis checks and finiteness bounds
# ---------------------------------------------------------------------------

@functools.cache
def check_hypothesis(seq: IdealSequence, fam: PFamily, pres=None):
    """Validate that every sequence generator lies in the radical of J_{p^0}.

    Raises HypothesisViolatedError naming the offending generator. Also
    rejects a unit reference ideal (escape sets need a proper target).
    Cached: a passing check is not repeated for equal arguments.
    """
    J0 = fam.base_level()
    if groebner_basis(J0, pres).contains_one:
        raise HypothesisViolatedError("reference ideal must be proper")
    for n, I in enumerate(seq.entries):
        for g in I.gens:
            if not radical_membership(g, J0, pres):
                raise HypothesisViolatedError(
                    f"generator {g} of sequence entry {n + 1} is not in the "
                    f"radical of the level-0 reference ideal"
                )


def containment_exponents(seq: IdealSequence, fam: PFamily, pres=None) -> tuple:
    """Per-entry least l with I_n^l inside J_{p^0}; drives all finiteness bounds."""
    J0 = fam.base_level()
    return tuple(power_containment_index(I, J0, pres) for I in seq.entries)


def axis_bounds(seq: IdealSequence, fam: PFamily, e: int, pres=None) -> tuple:
    """Exclusive per-axis bounds mu_n * l_n * p^e on escape-set coordinates."""
    ells = containment_exponents(seq, fam, pres)
    q = fam.p ** e
    return tuple(mu * ell * q for mu, ell in zip(seq.generator_counts(), ells))


# ---------------------------------------------------------------------------
# Membership machinery
# ---------------------------------------------------------------------------

def escapes(point, seq: IdealSequence, fam: PFamily, e: int, pres=None, budget=None) -> bool:
    """True iff the product ideal at `point` is NOT contained in the level ideal.

    The normal forms of the product of all entries but the last are formed,
    and `GroebnerBasis.meets` tests their products with the last power."""
    point = tuple(point)
    if len(point) != seq.t:
        raise BadInputError(f"point arity {len(point)} != sequence length {seq.t}")
    if any(a < 0 for a in point):
        raise BadInputError(f"negative exponent in {point}")
    check_hypothesis(seq, fam, pres)
    counter = _as_budget(budget)
    basis = fam.level_basis(e, pres)
    counter.charge()
    acc = power_table(seq.entries[0], basis).power(point[0])
    if seq.t == 1:
        return bool(acc)
    for I, a in zip(seq.entries[1:-1], point[1:-1]):
        if not acc:
            return False
        acc = basis.reduce_products(acc, power_table(I, basis).power(a))
    return bool(acc) and basis.meets(acc, power_table(seq.entries[-1], basis).power(point[-1]))


# ---------------------------------------------------------------------------
# Down-sets
# ---------------------------------------------------------------------------

class DownSet:
    """A finite down-closed subset of N^t, stored by its maximal points."""

    __slots__ = ("dimension", "level", "p", "max_points", "size", "positive_size")

    def __init__(self, dimension, level, p, max_points, size, positive_size):
        self.dimension = dimension
        self.level = level
        self.p = p
        self.max_points = tuple(sorted(max_points))
        self.size = size
        self.positive_size = positive_size

    def __contains__(self, point) -> bool:
        point = tuple(point)
        return any(
            all(x <= m for x, m in zip(point, mp)) for mp in self.max_points
        )

    def points(self) -> list:
        """All points, sorted; intended for export and small-instance oracles."""
        return [b + (a,) for b, top in _down_set_rows(self.max_points) for a in range(top + 1)]

    def is_empty(self) -> bool:
        return self.size == 0

    def __eq__(self, other):
        return (
            isinstance(other, DownSet)
            and self.dimension == other.dimension
            and self.max_points == other.max_points
        )

    def __hash__(self):
        return hash((self.dimension, self.max_points))

    def __repr__(self):
        return (
            f"DownSet(t={self.dimension}, e={self.level}, size={self.size}, "
            f"max_points={list(self.max_points)})"
        )


def _down_set_rows(corners) -> list:
    """The rows (b, top), the points b + (a,) for a = 0..top, of the union of
    the boxes [0, m] over the corners m, sorted. The prefixes b are the points
    of the corners' rows less their last coordinate; walked from the last,
    top(b) is the max of b's own corner and top(b + e_i) over the axes i < t - 1."""
    if not corners:
        return []
    if len(corners[0]) == 1:
        return [((), max(m[0] for m in corners))]
    own = {m[:-1]: m[-1] for m in sorted(corners)}  # the largest m[-1] comes last
    top = {}
    for prefix, end in reversed(_down_set_rows(list(own))):
        ups = [prefix[:i] + (x + 1,) + prefix[i + 1:] for i, x in enumerate(prefix)]
        above = -1  # top(prefix + (a + 1,))
        for a in range(end, -1, -1):
            b = prefix + (a,)
            above = top[b] = max(own.get(b, -1), above, *[top.get(u + (a,), -1) for u in ups])
    return list(reversed(top.items()))


def _sizes(rows) -> tuple:
    """The number of points of the rows (b, top), and of the positive ones."""
    return sum(top + 1 for _, top in rows), sum(top for b, top in rows if 0 not in b)


def _antichain(points) -> tuple:
    """The maximal points among `points`. In reverse lexicographic order a
    point comes after every point above it, so it is compared only with the
    maximal points kept so far."""
    out = []
    for a in sorted(set(map(tuple, points)), reverse=True):
        if not any(all(x <= y for x, y in zip(a, b)) for b in out):
            out.append(a)
    return tuple(sorted(out))


def escape_set(seq: IdealSequence, fam: PFamily, e: int, pres=None, budget=None,
               carry=None) -> DownSet:
    """Enumerate the level-e escape set exactly.

    Every entry I = (f_1, ..., f_mu) is split into its generators (the
    paper's sup identity): I^k is the sum of the f^b with |b| = k, in any
    ring, so a product of powers of the entries escapes exactly when some
    product of powers of their generators does. The escape set is therefore
    the image of the principal sequence's under the sums over each entry's
    block of coordinates, and its maximal points are among the images of
    that set's maximal points. Only principal sequences are swept, so every
    power a probe reads is built from base-p digits.

    `carry` is None (a cold sweep) or a dict that hands the rows of the
    swept sequence from one level to the next: the sweep starts from the
    rows of level e - 1 if they are there (`_principal_escape_set`), and
    leaves its own in their place. `escape_sets` passes one.
    """
    check_hypothesis(seq, fam, pres)
    counter = _as_budget(budget)
    if seq.principal:
        return _principal_escape_set(seq, fam, e, pres, counter, carry)
    split = IdealSequence(Ideal(seq.ring, (g,)) for I in seq.entries for g in I.gens)
    ends = list(itertools.accumulate(seq.generator_counts()))
    blocks = list(zip([0] + ends, ends))
    corners = [
        tuple(sum(m[a:b]) for a, b in blocks)
        for m in _principal_escape_set(split, fam, e, pres, counter, carry).max_points
    ]
    return box_region(seq.t, e, fam.p, corners)


def escape_sets(seq: IdealSequence, fam: PFamily, levels, pres=None, budget=None):
    """Yield the escape set at each of `levels` in turn, all charged to one
    budget. A level one above the level before it starts from that level's
    rows: they lie within p times the rows below (see
    `_principal_escape_set`). `escape_set` is the cold single level."""
    counter = _as_budget(budget)
    carry = {}
    for e in levels:
        yield escape_set(seq, fam, e, pres, counter, carry)


def _flat(fam: PFamily, pres) -> bool:
    """Whether p * V_(e-1) lies in V_e, the lower end of a warm row search.
    Frobenius is flat over a regular ring (Kunz 1969), so x^p in K^[p]
    gives x in K, and the levels of a Frobenius family are bracket powers;
    neither holds in a quotient ring or for an explicit family."""
    return fam.kind == "frobenius" and (pres is None or pres.trivial)


def _power_tables(seq: IdealSequence, fam: PFamily, e: int, pres) -> list:
    """The entries' power tables modulo the level-e ideal, each linked to
    its table one level down, and so on to level 0 (`PowerTable.below`).
    The link is exact in every ring and for both family kinds: the p-th
    bracket power of a level lies in the next level, and a presentation's
    relations contain their own p-th powers."""
    tables = []
    for I in seq.entries:
        table = power_table(I, fam.level_basis(e, pres))
        tables.append(table)
        for lower in range(e - 1, -1, -1):
            if table.below is not None:
                break
            table.below = power_table(I, fam.level_basis(lower, pres))
            table = table.below
    return tables


def _principal_escape_set(seq: IdealSequence, fam: PFamily, e: int, pres,
                          counter: BudgetCounter, carry=None) -> DownSet:
    """The escape set of a principal sequence.

    Depth-first sweep over prefixes; on the last axis the feasible values form
    an interval [0, m] located by binary search, so the work scales with the
    staircase surface rather than its volume. The escape set is a down-set,
    so m is at most the row of every prefix one step lower on some axis, and
    the sweep has found those rows already: each search runs up to the least
    of them (the axis bound for the first row), testing that top first.
    Each prefix product is formed once and reused by every probe below it;
    the empty prefix is the unit (None), so a probe on the first axis reads
    the power table as it is. A probe on the last axis only asks whether
    the prefix meets the power outside the level ideal
    (`GroebnerBasis.meets`), which stops at the first surviving term.

    Given the rows at level e - 1 in `carry`, the row of a prefix b is
    at most p * row_(e-1)(floor(b/p)) + p - 1 in every ring and family: if
    the product at (b, a) escapes, so does its factor at p * floor((b, a)/p),
    which is the p-th power of the product at floor((b, a)/p), so that
    product escapes one level down. Where Frobenius is flat (`_flat`) the
    row is also at least p * row_(e-1)(ceil(b/p)), and the search starts
    there. For one entry the search then spans p values, so `nu` costs
    about log2(p) + 1 probes per level (Mustata-Takagi-Watanabe 2005).
    """
    basis = fam.level_basis(e, pres)
    powers = _power_tables(seq, fam, e, pres)
    t = seq.t
    p = fam.p
    bounds = axis_bounds(seq, fam, e, pres)
    rows: dict = {}
    lower = None if carry is None else carry.pop(e - 1, None)
    flat = _flat(fam, pres)

    def last_max(prefix: tuple, prefix_polys) -> int:
        hi = bounds[t - 1] - 1
        lo = 0  # the prefix itself escapes, so m = 0 is always feasible
        for i, a in enumerate(prefix):
            if a:
                hi = min(hi, rows[prefix[:i] + (a - 1,) + prefix[i + 1:]])
        if lower is not None:
            hi = min(hi, p * lower[tuple([a // p for a in prefix])] + p - 1)
            if flat:
                lo = p * lower.get(tuple([-(-a // p) for a in prefix]), 0)

        def member(m: int) -> bool:
            counter.charge()
            polys = powers[t - 1].power(m)
            return bool(polys) if prefix_polys is None else basis.meets(prefix_polys, polys)

        if hi <= lo:
            return lo
        if member(hi):
            return hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if member(mid):
                lo = mid
            else:
                hi = mid
        return lo

    def sweep(i: int, prefix: tuple, prefix_polys):
        if i == t - 1:
            rows[prefix] = last_max(prefix, prefix_polys)
            return
        a = 0
        while a < bounds[i]:
            counter.charge()
            polys = powers[i].power(a)
            if prefix_polys is not None:
                polys = basis.reduce_products(prefix_polys, polys)
            if not polys:
                break
            sweep(i + 1, prefix + (a,), polys)
            a += 1

    sweep(0, (), None)
    if carry is not None:
        carry.clear()
        carry[e] = rows

    size, positive = _sizes(rows.items())
    max_points = []
    for prefix, m in rows.items():
        if all(
            rows.get(prefix[:i] + (prefix[i] + 1,) + prefix[i + 1:], -1) < m
            for i in range(t - 1)
        ):
            max_points.append(prefix + (m,))
    return DownSet(t, e, fam.p, max_points, size, positive)


# ---------------------------------------------------------------------------
# Borders and the two covers
# ---------------------------------------------------------------------------

def border_points(V: DownSet, caps) -> frozenset:
    """The border of C = V united with the axis slabs: the points x of C
    whose diagonal successor x + (1, ..., 1) is not in V. The slab of axis
    j holds the points with x_j = 0 and x_i <= caps[i] on the other axes;
    `caps` are the exclusive `axis_bounds` of V's level. A successor has no
    coordinate 0, so it lies in C exactly when it lies in V."""
    slabs = (
        x
        for j in range(V.dimension)
        for x in itertools.product(*[range(1 if i == j else c + 1) for i, c in enumerate(caps)])
    )
    points = V.points()
    inside = set(points)
    return frozenset(
        x for x in itertools.chain(points, slabs) if tuple(v + 1 for v in x) not in inside
    )


class CoverCheck:
    """Boolean verdict that carries a witness point when false."""

    __slots__ = ("ok", "witness")

    def __init__(self, ok: bool, witness=None):
        self.ok = ok
        self.witness = witness

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"CoverCheck(ok={self.ok}, witness={self.witness})"


def verify_cover(seq: IdealSequence, fam: PFamily, e1: int, e2: int, pres=None,
                 budget=None) -> CoverCheck:
    """Check that the level-(e1+e2) escape set sits inside the two covers.

    With s = p^e2, V the level-e1 escape set and B = `border_points` of V,
    a fine point n is in the first cover (the fill of V, the down-set with
    maximal points s * maxpts(V)) exactly when ceil(n/s) lies in V, and in
    the second (the fill of B's diagonal translates by k <= mu, the largest
    generator count) exactly when ceil(n/s) - k*(1, ..., 1) lies in B for
    some such k. So both are read off the coarse cell ceil(n/s), against
    the coarse cells V and B + k*(1, ..., 1): the fine set is walked row by
    row (`_down_set_rows`) and each coarse cell is tested once per row,
    with no fine point set built.

    This is a theorem; a false verdict signals an implementation bug and
    carries the least uncovered numerator tuple.
    """
    counter = _as_budget(budget)
    V = escape_set(seq, fam, e1, pres, counter)
    border = border_points(V, axis_bounds(seq, fam, e1, pres))
    steps = range(max(seq.generator_counts()) + 1)
    cells = set(V.points()).union(tuple(v + k for v in x) for x in border for k in steps)
    s = fam.p ** e2
    fine = escape_set(seq, fam, e1 + e2, pres, counter)
    for prefix, top in _down_set_rows(fine.max_points):
        cell = tuple(-(-a // s) for a in prefix)
        for c in range(-(-top // s) + 1):
            if cell + (c,) not in cells:
                return CoverCheck(False, prefix + (max(0, (c - 1) * s + 1),))
    return CoverCheck(True, None)


# ---------------------------------------------------------------------------
# Box regions and volumes
# ---------------------------------------------------------------------------

def box_region(dimension, level, p, corners) -> DownSet:
    """The down-set the corners generate: the union of the boxes [0, a] over
    the corners a, counted row by row (no set is built)."""
    max_points = _antichain(corners)
    size, positive = _sizes(_down_set_rows(max_points))
    return DownSet(dimension, level, p, max_points, size, positive)


def region_volume(ds: DownSet) -> Fraction:
    """Exact volume of the box region by cube counting: positive_size/(p^e)^t,
    never floating point."""
    denom = (ds.p ** ds.level) ** ds.dimension
    return Fraction(ds.positive_size, denom)


# ---------------------------------------------------------------------------
# Exports: CSV and SVG staircases
# ---------------------------------------------------------------------------

def _export_list(downsets) -> list:
    """One down-set or several, as a nonempty list of one dimension."""
    downsets = [downsets] if isinstance(downsets, DownSet) else list(downsets)
    if not downsets:
        raise BadInputError("nothing to export")
    if any(ds.dimension != downsets[0].dimension for ds in downsets):
        raise BadInputError("mixed dimensions in one export")
    return downsets


def downset_csv(downsets, out=None):
    """CSV with one lattice point per line. Columns: e, a1..at (exact integers).

    With a text stream `out` the lines go to it row by row and None is
    returned; without one they are joined into the returned string. A row
    (prefix, top) of a level's maximal points (`_down_set_rows`) is its head
    "e,a1,...,a(t-1)," joined over the cached lines of the last coordinate,
    0 to top, so no set of points is built and `out` gets one row at a time."""
    lines = _csv_lines(_export_list(downsets))
    return "".join(lines) if out is None else out.writelines(lines)


def _csv_lines(downsets):
    t = downsets[0].dimension
    width = 1 + max((m[-1] for ds in downsets for m in ds.max_points), default=-1)
    cells = [f"{a}\n" for a in range(width)]
    yield "e," + ",".join(f"a{i + 1}" for i in range(t)) + "\n"
    for ds in downsets:
        level = f"{ds.level},"
        for prefix, top in _down_set_rows(ds.max_points):
            head = level + "".join(f"{a}," for a in prefix)
            yield head + head.join(cells[:top + 1])


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
_PX_PER_UNIT = 240


def _staircase_path(ds: DownSet) -> list:
    """Vertices of the upper-right boundary polyline, as exact fractions."""
    q = ds.p ** ds.level
    corners = ds.max_points  # ascending first coordinate, descending second
    if not corners:
        return [(Fraction(0), Fraction(0))]
    path = [(Fraction(0), Fraction(corners[0][1], q))]
    prev_x = None
    for a, b in corners:
        x, y = Fraction(a, q), Fraction(b, q)
        if prev_x is not None:
            path.append((prev_x, y))  # drop down at the previous corner
        path.append((x, y))
        prev_x = x
    path.append((prev_x, Fraction(0)))
    return [pt for i, pt in enumerate(path) if i == 0 or pt != path[i - 1]]


def staircase_svg(downsets) -> str:
    """SVG overlay of staircase outlines, one color per level (2d only).

    Coordinates are exact fractions scaled by `_PX_PER_UNIT` pixels and
    emitted with three decimals; output is byte-stable across runs.
    """
    downsets = sorted(_export_list(downsets), key=lambda ds: ds.level)
    if downsets[0].dimension != 2:
        raise BadInputError("staircase SVG export is two-dimensional only")
    extent = Fraction(0)
    for ds in downsets:
        q = ds.p ** ds.level
        for a, b in ds.max_points:
            extent = max(extent, Fraction(a, q), Fraction(b, q))
    extent = max(extent + Fraction(1, 4), Fraction(1))
    margin = 20
    side = int(extent * _PX_PER_UNIT) + 2 * margin

    def px(v: Fraction) -> str:
        return f"{float(v * _PX_PER_UNIT + margin):.3f}"

    def py(v: Fraction) -> str:
        return f"{float((extent - v) * _PX_PER_UNIT + margin):.3f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}" '
        f'viewBox="0 0 {side} {side}">',
        f'<line x1="{px(Fraction(0))}" y1="{py(Fraction(0))}" x2="{px(extent)}" '
        f'y2="{py(Fraction(0))}" stroke="#444444" stroke-width="1"/>',
        f'<line x1="{px(Fraction(0))}" y1="{py(Fraction(0))}" x2="{px(Fraction(0))}" '
        f'y2="{py(extent)}" stroke="#444444" stroke-width="1"/>',
    ]
    for idx, ds in enumerate(downsets):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        pts = " ".join(f"{px(x)},{py(y)}" for x, y in _staircase_path(ds))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="2"><title>e={ds.level}</title></polyline>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
