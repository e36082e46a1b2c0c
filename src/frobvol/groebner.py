"""Ideal arithmetic and membership oracles.

Buchberger's algorithm with the normal selection strategy and the
Gebauer-Moeller pair criteria, normal forms, Frobenius powers and their bases
(built level by level in a quotient ring), sums/products/powers/intersections,
radical membership, staircase counting and combinatorial Krull dimension.
Completed bases are immutable; reduction against a shared basis is pure.

Polynomials key their terms on monomials packed by `PolynomialRing.pack`
(Monagan and Pearce, CASC 2007), so every routine here works on them as they
are. `_divide` is the one division loop: it serves `GroebnerBasis.reduce`,
the S-polynomials and tail reduction of `buchberger`, and the product
kernel. Divisibility and overflow are read off the guard bits of the packed
fields, and the largest remaining term comes off a heap of int order keys;
a divisor's tail carries each term's key offset from its leading monomial
(`_tail`), so a division step adds to a key instead of computing one.

`GroebnerBasis.reduce_products` is the product kernel of every power and
every prefix product of an escape-set sweep: the distinct nonzero normal
forms of all pairwise products of two polynomial lists, each formed by one
pass of `GroebnerBasis._product`. On a monomial basis that pass multiplies
and truncates, so no term inside the ideal is ever stored, and a product
with a one-term factor is a shift whose survivors are kept as formed; on any
other basis it forms the full product and hands it to `_divide`. A digit
step of a power table is the same pass with the high factor's exponents
scaled by p. `GroebnerBasis.meets` is the membership probe: whether some such
product lies outside the ideal. It is the same pass, with one private early
exit: a shift on a monomial basis returns at its first surviving term.
So `_product` is the one loop here that multiplies two polynomials.

`PowerTable` holds the normal forms of the powers I^k of one ideal modulo
one basis; every power of an ideal modulo an ideal (entry powers of escape
sets, containment exponents, the Fedder test) is read from it. A sweep
links each level's table to the table one level down, so a digit step
reads its high digits from the smaller normal forms there.

`groebner_basis`, `frobenius_basis` and `power_table` cache what they build
for the life of the process (`functools.cache`, keyed on the arguments as
passed, so `f(J)` and `f(J, None)` are separate entries). Each exposes
`cache_info()` for hit and miss counts and `cache_clear()` to empty its cache.
A reduced basis is unique, so bases compare and hash by content, and
`power_table` shares one table among equal level ideals.
"""

from __future__ import annotations

import functools
import heapq
import itertools

from .errors import BadInputError, ExponentOverflowError, RingMismatchError, SearchLimitError
from .ring import Polynomial, PolynomialRing, _fresh_aux_name


class Ideal:
    """An ideal given by a generator list; zero generators are dropped.

    The user-supplied list length (after dropping zeros) doubles as the
    minimal-generator-count surrogate in all finiteness bounds.
    """

    __slots__ = ("ring", "gens", "_key")

    def __init__(self, ring: PolynomialRing, gens):
        self.ring = ring
        kept = []
        for g in gens:
            if not isinstance(g, Polynomial):
                raise BadInputError(f"ideal generator is not a polynomial: {g!r}")
            if g.ring != ring:
                raise RingMismatchError("generator from a different ring")
            if not g.is_zero:
                kept.append(g)
        self.gens = tuple(kept)
        self._key = None

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def num_gens(self) -> int:
        return len(self.gens)

    def key(self) -> tuple:
        if self._key is None:
            self._key = (
                self.ring.p,
                self.ring.variables,
                self.ring.order._signature(),
                tuple(g.key() for g in self.gens),
            )
        return self._key

    def __eq__(self, other):
        return isinstance(other, Ideal) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens) if self.gens else "0"
        return f"({inside})"


class QuotientPresentation:
    """Work in R/a by adjoining a's generators to every containment test."""

    __slots__ = ("ring", "relations")

    def __init__(self, ring: PolynomialRing, relations: Ideal | None = None):
        if relations is not None and relations.ring != ring:
            raise RingMismatchError("presentation ideal from a different ring")
        self.ring = ring
        self.relations = relations if relations is not None else Ideal(ring, ())

    @property
    def trivial(self) -> bool:
        return self.relations.is_zero

    def key(self) -> tuple:
        return self.relations.key()

    def __eq__(self, other):
        return isinstance(other, QuotientPresentation) and self.key() == other.key()

    def __hash__(self):
        return hash(("pres", self.key()))

    def __repr__(self):
        return f"QuotientPresentation({self.relations!r})"


def _presentation_gens(ring: PolynomialRing, pres) -> tuple:
    if pres is None:
        return ()
    if pres.ring != ring:
        raise RingMismatchError("presentation from a different ring")
    return pres.relations.gens


class LengthValue:
    """A nonnegative integer length, or the infinite marker."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value  # None encodes +infinity

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __int__(self):
        if self.value is None:
            raise ValueError("length is infinite")
        return self.value

    def __eq__(self, other):
        if isinstance(other, LengthValue):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(("LengthValue", self.value))

    def __repr__(self):
        return "LengthValue(inf)" if self.value is None else f"LengthValue({self.value})"


INFINITE_LENGTH = LengthValue(None)


# ---------------------------------------------------------------------------
# Division and Buchberger
# ---------------------------------------------------------------------------

class GroebnerBasis:
    """A reduced, monic Groebner basis, sorted by leading monomial (ascending).

    Alongside the polynomials it keeps their packed leading monomials and
    tails, the form `_divide` works on."""

    __slots__ = ("ring", "polys", "leading_monomials", "is_monomial", "_tails")

    def __init__(self, ring: PolynomialRing, polys):
        self.ring = ring
        polys = sorted(polys, key=lambda f: ring.key(f.leading()[0]))
        self.polys = tuple(polys)
        self.leading_monomials = tuple(f.leading()[0] for f in polys)
        self.is_monomial = all(len(f.coeffs) == 1 for f in polys)
        self._tails = tuple(
            _tail(lm, [(m, c) for m, c in f.coeffs.items() if m != lm], ring)
            for f, lm in zip(polys, self.leading_monomials)
        )

    @property
    def contains_one(self) -> bool:
        return len(self.polys) == 1 and self.polys[0] == self.ring.one()

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis)
                and (self.ring, self.polys) == (other.ring, other.polys))

    def __hash__(self):
        return hash((self.ring, self.polys))

    def reduce(self, f: Polynomial) -> Polynomial:
        """Remainder of multivariate division of f by the basis."""
        if f.ring != self.ring:
            raise RingMismatchError("polynomial from a different ring")
        if f.is_zero or not self.polys:
            return f
        rem = _divide(f.coeffs, self.leading_monomials, self._tails, self.ring)
        return Polynomial(self.ring, dict(rem))

    def reduce_products(self, left, right) -> tuple:
        """Distinct nonzero NF(u*v) for u in `left` and v in `right`, in
        first-seen order: `_dedup(self.reduce(u * v) ...)`.

        Each product is one pass of `_product`. When only one product is
        formed, its normal form is the answer and nothing is deduplicated.
        """
        if not left or not right:
            return ()
        ring = self.ring
        if any(f.ring is not ring and f.ring != ring for f in (*left, *right)):
            raise RingMismatchError("polynomial from a different ring")
        if len(left) == 1 and len(right) == 1:
            out = self._product(left[0].coeffs, right[0].coeffs)
            return (Polynomial(ring, out),) if out else ()
        found = {}
        for u in left:
            for v in right:
                out = self._product(u.coeffs, v.coeffs)
                if out:
                    found.setdefault(frozenset(out.items()), out)
        return tuple(Polynomial(ring, out) for out in found.values())

    def _product(self, u: dict, v: dict, q: int = 1, _first: bool = False) -> dict:
        """NF(u^[q] * v) as a coefficient map, for the coefficient maps u and
        v of two polynomials and q = 1 or p. u^[q] is u with its exponents
        scaled by q, which is u^p when q = p (c^p = c in F_p); the scaling
        raises `ExponentOverflowError` where `Polynomial.frobenius` would,
        against the ring's `frobenius_limit`.

        Every monomial field holds at most MAX_EXPONENT, so a field of a
        packed product sets its guard bit exactly when it overflows; every
        distinct product monomial is checked when first formed. On a
        monomial basis the product and the reduction are fused: a term
        inside the ideal is dropped as soon as it is formed, and the
        survivors' coefficients are reduced mod p, dropping those that
        vanish. When one factor has one term the product is a shift of the
        other: its monomials are distinct and its coefficients nonzero,
        because p is prime, so each survivor is kept as it is formed, with
        no lookup of earlier terms, and with `_first` (only `meets` passes
        it) the pass returns at the first survivor, whose presence settles
        that the product is nonzero. On any other basis the full product
        goes to `_divide`. The kept monomials are ints allocated in this
        pass, so a power table that keeps them holds no int shared with a
        factor or with the pass's garbage.
        """
        ring = self.ring
        p, guard, limit = ring.p, ring.guard, ring.frobenius_limit
        cut = self.leading_monomials if self.is_monomial else ()
        shift = self.is_monomial and (len(u) == 1 or len(v) == 1)
        stop = shift and _first
        acc = {}
        dead = set()
        for m1, c1 in u.items():
            if q != 1:
                if (limit - m1) & guard != guard:
                    raise ExponentOverflowError(f"exponent beyond 2^63-1 scaling by {q}")
                m1 *= q
            for m2, c2 in v.items():
                m = m1 + m2
                if not shift:
                    c = acc.get(m)
                    if c is not None:
                        acc[m] = c + c1 * c2
                        continue
                    if m in dead:
                        continue
                if m & guard:
                    raise ExponentOverflowError("exponent beyond 2^63-1 in a product")
                g = m | guard
                for lm in cut:
                    if (g - lm) & guard == guard:
                        dead.add(m)
                        break
                else:
                    if stop:
                        return {m: c1 * c2 % p}
                    acc[m] = c1 * c2
        if shift:
            return {m: c % p for m, c in acc.items()}
        if self.is_monomial:
            return {m: c % p for m, c in acc.items() if c % p}
        return dict(_divide(acc, self.leading_monomials, self._tails, ring))

    def meets(self, left, right) -> bool:
        """Whether some product u*v, u in `left` and v in `right`, lies
        outside the ideal: `bool(self.reduce_products(left, right))`. Each
        product is one pass of `_product`, and a shift on a monomial basis
        stops at its first term outside the ideal. A product formed before
        the answer is known raises `ExponentOverflowError` as
        `reduce_products` does.
        """
        ring = self.ring
        if any(f.ring is not ring and f.ring != ring for f in (*left, *right)):
            raise RingMismatchError("polynomial from a different ring")
        for u in left:
            for v in right:
                if self._product(u.coeffs, v.coeffs, 1, True):
                    return True
        return False

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __repr__(self):
        return f"GroebnerBasis[{', '.join(str(g) for g in self.polys)}]"


def _tail(lm: int, terms, ring: PolynomialRing) -> tuple:
    """A monic divisor's tail in the form `_divide` reads: (packed monomial,
    coefficient, key offset) for each term (m, c) of `terms`, where the
    offset key(m) - key(lm) moves an order key by the shift that takes the
    leading monomial lm to a cancelled term (`MonomialOrder`)."""
    key = ring.key
    k = key(lm)
    return tuple((m, c, key(m) - k) for m, c in terms)


def _divide(terms: dict, lms, tails, ring: PolynomialRing) -> list:
    """Remainder of the packed terms `terms` (packed monomial -> coefficient,
    not yet reduced mod p) on division by monic divisors, given by their
    packed leading monomials `lms` and the matching `tails` (`_tail`), as
    (packed monomial, coefficient) pairs in descending order.

    Each step cancels the largest remaining term with the first listed
    divisor whose leading monomial divides it. The terms wait in a heap of
    negated order keys, plain ints, one entry per monomial (Monagan and
    Pearce, CASC 2007): a step only adds monomials below the one it
    cancels, so a monomial never returns once it leaves the heap. Only the
    input terms have their keys computed; the key of each term a step adds
    is the cancelled term's key plus the tail term's offset, since order
    keys are affine in the exponents.
    """
    p, guard, key = ring.p, ring.guard, ring.key
    work = {}  # order key -> coefficient
    monos = {}  # order key -> packed monomial
    for m, c in terms.items():
        k = key(m)
        work[k] = c
        monos[k] = m
    heap = [-k for k in work]
    heapq.heapify(heap)
    rem = []
    while heap:
        k = -heapq.heappop(heap)
        m = monos.pop(k)
        c = work.pop(k) % p
        if not c:
            continue
        g = m | guard
        for lm, tail in zip(lms, tails):
            if (g - lm) & guard == guard:
                shift = m - lm
                # the divisor is monic: subtract c * x^shift * tail
                for tm, tc, off in tail:
                    n = k + off
                    v = work.get(n)
                    if v is None:
                        tm += shift
                        if tm & guard:
                            raise ExponentOverflowError("exponent beyond 2^63-1 in a division step")
                        heapq.heappush(heap, -n)
                        work[n] = -c * tc
                        monos[n] = tm
                    else:
                        work[n] = v - c * tc
                break
        else:
            rem.append((m, c))
    return rem


def buchberger(gens, ring: PolynomialRing | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`.

    Deterministic: pairs are selected by smallest lcm in the ring order with
    ties broken by insertion index (normal strategy). Each polynomial joins
    by the Gebauer-Moeller update (J. Symbolic Comput. 6, 1988). A waiting
    pair goes when the new leading monomial divides its lcm and the new
    polynomial's lcms with both of its members differ from it (criterion
    B). The new pairs are taken by ascending lcm, and one goes when the lcm
    of one kept before divides its own (criteria M and F; a proper divisor
    of a packed monomial is a smaller int); at one lcm a pair with coprime
    leading monomials comes first, so it drops the others, and then itself.
    Two monomials form no pair at all: their S-polynomial is 0, so a new
    monomial pairs only with the polynomials that have a tail. A
    polynomial whose leading monomial the new one divides is retired: it
    forms no more pairs and no longer divides. Pair lcms are field-wise
    maxima of packed monomials, read off the guard bits. Each S-polynomial
    is built from the tails of its pair.
    """
    if isinstance(gens, Ideal):
        ring = gens.ring
        gens = gens.gens
    gens = [g for g in gens if not g.is_zero]
    if ring is None:
        if not gens:
            raise BadInputError("cannot infer the ring of an empty generator list")
        ring = gens[0].ring
    if not gens:
        return GroebnerBasis(ring, ())
    key, p, guard = ring.key, ring.p, ring.guard

    lms: list[int] = []
    tails: list[tuple] = []
    live: list[int] = []  # the indices not retired
    live_lms: list[int] = []
    live_tails: list[tuple] = []
    pairs: list[tuple] = []

    def lcm(a, b):
        d = ((a | guard) - b) & guard  # the guard bits of the fields where a >= b
        mask = d - (d >> 63)
        return a & mask | b & ~mask

    def divides(a, b):
        return ((b | guard) - a) & guard == guard

    def push(terms):
        """Add the polynomial of `terms`, leading term first."""
        (lm, lc), *tail = terms
        inv = ring.field.inv(lc)
        j = len(lms)
        pairs[:] = [pair for pair in pairs if not (
            divides(lm, pair[3]) and lcm(lms[pair[1]], lm) != pair[3] != lcm(lms[pair[2]], lm))]
        heapq.heapify(pairs)
        new = []
        for i in live:
            if tail or tails[i]:
                m = lcm(lms[i], lm)
                new.append((m, m != lms[i] + lm, i))
        kept = []
        for pair in sorted(new):
            if not any(divides(k[0], pair[0]) for k in kept):
                kept.append(pair)
        for m, shared, i in kept:
            if shared:
                heapq.heappush(pairs, (key(m), i, j, m))
        lms.append(lm)
        tails.append(_tail(lm, [(m, c * inv % p) for m, c in tail], ring))
        live[:] = [i for i in live if not divides(lm, lms[i])] + [j]
        live_lms[:] = [lms[i] for i in live]
        live_tails[:] = [tails[i] for i in live]

    for g in gens:
        push(g.terms_desc())

    while pairs:
        _, i, j, lcm_ij = heapq.heappop(pairs)
        # the S-polynomial of monic f_i and f_j: their leading terms cancel
        s = {}
        for k, sign in ((i, 1), (j, -1)):
            shift = lcm_ij - lms[k]
            for m, c, _ in tails[k]:
                m += shift
                if m & guard:
                    raise ExponentOverflowError("exponent beyond 2^63-1 in an S-polynomial")
                s[m] = s.get(m, 0) + sign * c
        r = _divide(s, live_lms, live_tails, ring)
        if r:
            push(r)

    return GroebnerBasis(ring, _autoreduce(live_lms, live_tails, ring))


def _autoreduce(lms: list, tails: list, ring: PolynomialRing) -> list:
    """Minimalize and tail-reduce a monic Groebner generating set, given by
    leading monomials and tails (`_tail`); returns the polynomials."""
    key, guard = ring.key, ring.guard
    minimal = []
    for lm, tail in sorted(zip(lms, tails), key=lambda f: key(f[0])):
        if not any(((lm | guard) - g) & guard == guard for g, _ in minimal):
            minimal.append((lm, tail))
    # tail reduction keeps every leading monomial, since none divides another
    lms, tails = map(list, zip(*minimal))
    for i in range(len(minimal)):
        others = lms[:i] + lms[i + 1:], tails[:i] + tails[i + 1:]
        rem = _divide({m: c for m, c, _ in tails[i]}, *others, ring)
        tails[i] = _tail(lms[i], rem, ring)
    return [Polynomial(ring, {lm: 1, **{m: c for m, c, _ in tail}}) for lm, tail in zip(lms, tails)]


# ---------------------------------------------------------------------------
# Cached basis access
# ---------------------------------------------------------------------------

@functools.cache
def groebner_basis(ideal: Ideal, pres: QuotientPresentation | None = None) -> GroebnerBasis:
    """Reduced basis of ideal + presentation relations, cached."""
    extra = _presentation_gens(ideal.ring, pres)
    return buchberger(list(ideal.gens) + list(extra), ideal.ring)


def ideal_contains(inner: Ideal, outer: Ideal, pres: QuotientPresentation | None = None) -> bool:
    """True iff inner is contained in outer (modulo the presentation)."""
    if inner.ring != outer.ring:
        raise RingMismatchError("ideals from different rings")
    gb = groebner_basis(outer, pres)
    return all(gb.reduce(g).is_zero for g in inner.gens)


def ideal_equal(a: Ideal, b: Ideal, pres: QuotientPresentation | None = None) -> bool:
    return ideal_contains(a, b, pres) and ideal_contains(b, a, pres)


# ---------------------------------------------------------------------------
# Frobenius powers
# ---------------------------------------------------------------------------

def _power_of(q: int, p: int) -> int:
    """The e with q = p^e, or raise."""
    if q < 1:
        raise BadInputError(f"{q} is not a power of {p}")
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    if q != 1:
        raise BadInputError("bracket power index must be a power of the characteristic")
    return e


def frobenius_power(J: Ideal, q: int) -> Ideal:
    """The bracket power generated by g^q for each generator, q a power of p."""
    _power_of(q, J.ring.p)
    return Ideal(J.ring, tuple(g.frobenius(q) for g in J.gens))


@functools.cache
def frobenius_basis(J: Ideal, q: int, pres: QuotientPresentation | None = None) -> GroebnerBasis:
    """Cached basis of J^[q] (+ presentation).

    In the polynomial ring the reduced basis of J^[q] is the exponent-scaled
    reduced basis of J: scaling every exponent by q preserves the term order
    and S-pair reductions, and c^q = c on F_p coefficients. With a nontrivial
    presentation a the basis is built level by level: a^[p] lies in a, so
    (J^[q/p] + a)^[p] + a = J^[q] + a, and Buchberger runs on the p-th
    powers of the cached basis at level q/p together with the relations. At
    q = 1 it is `groebner_basis(J, pres)`.
    """
    _power_of(q, J.ring.p)
    extra = _presentation_gens(J.ring, pres)
    if not extra:
        return GroebnerBasis(J.ring, [g.frobenius(q) for g in groebner_basis(J, None).polys])
    if q == 1:
        return groebner_basis(J, pres)
    p = J.ring.p
    below = frobenius_basis(J, q // p, pres)
    return buchberger([g.frobenius(p) for g in below.polys] + list(extra), J.ring)


# ---------------------------------------------------------------------------
# Powers of an ideal modulo a basis
# ---------------------------------------------------------------------------

class PowerTable:
    """Normal forms generating the powers I^k modulo the ideal of `basis`.

    `pows` maps k to the deduplicated nonzero normal forms of I^k, with
    `pows[0]` from NF(1) and `pows[1]` from the generators; an empty tuple
    means the power lies in the ideal (and every higher one does too).
    `below` is None or the table of the same I modulo an ideal L' whose
    bracket power L'^[p] lies in this table's ideal, such as the level
    below in a p-family; the digit step then reads its high digits there.
    """

    __slots__ = ("ideal", "basis", "pows", "below")

    def __init__(self, I: Ideal, basis: GroebnerBasis):
        self.ideal = I
        self.basis = basis
        self.below = None
        self.pows = {
            0: _dedup([basis.reduce(I.ring.one())]),
            1: _dedup(basis.reduce(g) for g in I.gens),
        }

    def power(self, k: int) -> tuple:
        """Normal forms generating I^k modulo the ideal L of the basis.

        A one-generator ideal (f) with k >= p is built from its base-p
        digits: NF(f^k) = NF(g^p * NF(f^(k%p))), where g = NF'(f^(k//p))
        is read from `below` when it is set (NF' modulo its ideal L') and
        from this table otherwise. This is exact: if g = f^a + h with h in
        L', then in characteristic p, g^p = f^(ap) + h^p and h^p lies in
        L'^[p], which lies in L (and L' = L is the case without `below`).
        Normal forms are unique, so either route gives the same entry.
        The step is one pass of `GroebnerBasis._product` on every basis:
        g's exponents are scaled by p inside the product loop, against the
        ring's `frobenius_limit`, and the product is truncated or divided as
        it is formed. g is scaled even when NF(f^(k%p)) is 0, so an exponent
        overflow raises exactly where g^p would. The kept monomials are
        allocated in that pass, so the table pins no product garbage.
        Every other power takes the step I^k = I^(k-1) * I; for several
        generators (I^a)^[p] is only contained in I^(ap), so the digit step
        does not apply. `regions.escape_set` splits its entries into their
        generators, so only `regions.escapes` and `power_containment_index`
        read powers of several generators.
        """
        pows = self.pows
        if k in pows:
            return pows[k]
        basis = self.basis
        p = basis.ring.p
        if k >= p and self.ideal.num_gens == 1:
            source = self if self.below is None else self.below
            high, low = source.power(k // p), self.power(k % p)
            out = basis._product(high[0].coeffs, low[0].coeffs if low else {}, p) if high else {}
            pows[k] = (Polynomial(basis.ring, out),) if out else ()
            return pows[k]
        j = k - 1
        while j not in pows:
            j -= 1
        for j in range(j + 1, k + 1):
            pows[j] = basis.reduce_products(pows[j - 1], pows[1])
        return pows[k]


@functools.cache
def power_table(I: Ideal, basis: GroebnerBasis) -> PowerTable:
    """The shared, growing power table of I modulo the ideal of `basis`."""
    return PowerTable(I, basis)


# ---------------------------------------------------------------------------
# Sums, products, powers, intersections
# ---------------------------------------------------------------------------

def _dedup(polys) -> tuple:
    seen = {}
    for g in polys:
        if not g.is_zero:
            seen.setdefault(g.key(), g)
    return tuple(seen.values())


def ideal_sum(*ideals: Ideal) -> Ideal:
    if not ideals:
        raise BadInputError("need at least one ideal")
    ring = ideals[0].ring
    gens = []
    for I in ideals:
        if I.ring != ring:
            raise RingMismatchError("ideals from different rings")
        gens.extend(I.gens)
    return Ideal(ring, _dedup(gens))


def ideal_product(*ideals: Ideal) -> Ideal:
    if not ideals:
        raise BadInputError("need at least one ideal")
    ring = ideals[0].ring
    for I in ideals:
        if I.ring != ring:
            raise RingMismatchError("ideals from different rings")
    if any(I.is_zero for I in ideals):
        return Ideal(ring, ())
    gens = [ring.one()]
    for I in ideals:
        gens = [u * v for u in gens for v in I.gens]
        gens = list(_dedup(gens))
    return Ideal(ring, gens)


def ideal_power(I: Ideal, a: int) -> Ideal:
    """I^a on generator sets, by repeated squaring with deduplication."""
    if a < 0:
        raise BadInputError("ideal power must be nonnegative")
    ring = I.ring
    if a == 0:
        return Ideal(ring, (ring.one(),))
    if I.is_zero:
        return I
    result = None
    sq = I.gens
    k = a
    while k:
        if k & 1:
            result = sq if result is None else _dedup(u * v for u in result for v in sq)
        k >>= 1
        if k:
            sq = _dedup(u * v for u in sq for v in sq)
    return Ideal(ring, result)


def ideal_intersection(A: Ideal, B: Ideal) -> Ideal:
    """A ∩ B by the auxiliary-variable elimination method."""
    ring = A.ring
    if B.ring != ring:
        raise RingMismatchError("ideals from different rings")
    if A.is_zero or B.is_zero:
        return Ideal(ring, ())
    w_name = _fresh_aux_name(ring, "w")
    ext = ring.extended((w_name,))
    w = ext.gens()[0]
    one = ext.one()
    gens = [w * ring.inject(g, ext) for g in A.gens]
    gens += [(one - w) * ring.inject(g, ext) for g in B.gens]
    gb = buchberger(gens, ext)
    kept = [
        ring.project(g, ext) for g in gb.polys if not any(ext.unpack(m)[0] for m in g.coeffs)
    ]
    return Ideal(ring, _dedup(kept))


def radical_membership(f: Polynomial, J: Ideal, pres: QuotientPresentation | None = None) -> bool:
    """True iff some power of f lies in J (modulo the presentation).

    Uses the extra-variable trick: f is in the radical iff
    1 lies in J + (1 - w*f) in the ring with one more variable w.
    """
    ring = J.ring
    if f.ring != ring:
        raise RingMismatchError("polynomial from a different ring")
    if f.is_zero:
        return True
    w_name = _fresh_aux_name(ring, "w")
    ext = ring.extended((w_name,))
    w = ext.gens()[0]
    gens = [ring.inject(g, ext) for g in J.gens]
    gens += [ring.inject(g, ext) for g in _presentation_gens(ring, pres)]
    gens.append(ext.one() - w * ring.inject(f, ext))
    gb = buchberger(gens, ext)
    return gb.contains_one


def power_containment_index(I: Ideal, J: Ideal, pres: QuotientPresentation | None = None,
                            cap: int = 512) -> int:
    """Least k >= 1 with I^k contained in J, by incremental search up to `cap`."""
    table = power_table(I, groebner_basis(J, pres))
    for k in range(1, cap + 1):
        if not table.power(k):
            return k
    raise SearchLimitError(
        f"no power of {I!r} landed in {J!r} within cap {cap}; raise the cap or fix the input"
    )


# ---------------------------------------------------------------------------
# Staircase counting and dimension
# ---------------------------------------------------------------------------

def _minimal(lms, guard: int) -> list:
    """The packed monomials of `lms` that no other one divides, ascending.
    A proper divisor of a packed monomial is a smaller int."""
    out = []
    for m in sorted(set(lms)):
        g = m | guard
        if not any((g - k) & guard == guard for k in out):
            out.append(m)
    return out


def _staircase_count(lms: list, nvars: int, guard: int) -> int:
    """Number of monomials in the first `nvars` variables outside the
    monomial ideal of the packed `lms`; the staircase must be finite. The
    last variable is the top field: each slice below its pure power is
    counted one variable down."""
    if 0 in lms:
        return 0
    if nvars == 0:
        return 1
    shift = 64 * (nvars - 1)
    low = (1 << shift) - 1
    bound = min(m >> shift for m in lms if not m & low)
    cuts = sorted({m >> shift for m in lms if m >> shift < bound} | {0})
    total = 0
    for idx, v in enumerate(cuts):
        width = (cuts[idx + 1] if idx + 1 < len(cuts) else bound) - v
        layer = _minimal([m & low for m in lms if m >> shift <= v], guard & low)
        total += width * _staircase_count(layer, nvars - 1, guard & low)
    return total


def staircase_count_of(gb: GroebnerBasis) -> LengthValue:
    """Number of standard monomials of a completed basis: infinite unless
    every variable has a pure power among the leading monomials, else
    counted slice by slice on the packed leading monomials."""
    if gb.contains_one:
        return LengthValue(0)
    ring, lms = gb.ring, gb.leading_monomials
    field = (1 << 64) - 1
    for i in range(ring.nvars):
        if not any(m and not m & ~(field << 64 * i) for m in lms):
            return INFINITE_LENGTH
    return LengthValue(_staircase_count(lms, ring.nvars, ring.guard))


def standard_monomial_count(J: Ideal, pres: QuotientPresentation | None = None) -> LengthValue:
    """Vector-space dimension of R/(J + presentation) via its staircase."""
    return staircase_count_of(groebner_basis(J, pres))


def krull_dimension(J: Ideal, pres: QuotientPresentation | None = None) -> int:
    """dim R/(J + presentation): largest variable subset meeting no leading support."""
    gb = groebner_basis(J, pres)
    nvars = J.ring.nvars
    supports = [
        frozenset(i for i, e in enumerate(J.ring.unpack(m)) if e) for m in gb.leading_monomials
    ]
    if any(not s for s in supports):
        return -1  # unit ideal: empty spectrum
    for size in range(nvars, -1, -1):
        for combo in itertools.combinations(range(nvars), size):
            s = set(combo)
            if not any(sup <= s for sup in supports):
                return size
    return -1
