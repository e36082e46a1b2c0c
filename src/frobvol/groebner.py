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
a divisor's tail carries each term's key offset from its leading monomial,
so a division step adds to a key instead of computing one. `_divide`
returns each remainder term with the key it holds, and the tails of
`buchberger`, `_autoreduce` and `GroebnerBasis` are read off those keys, so
a basis keys each of its terms once.

`GroebnerBasis.reduce_products` is the product kernel of every power and
every prefix product of an escape-set sweep: the distinct nonzero normal
forms of all pairwise products of two polynomial lists, each formed by one
`GroebnerBasis._product`. On a monomial basis that is one
`PolynomialRing.multiply` cut by the leading monomials, so no term inside
the ideal is ever stored; on any other basis the full product goes to
`_divide`. A digit step of a power table is the same call with the high
factor's exponents scaled by p. `GroebnerBasis.meets` is the membership
probe: whether some such product lies outside the ideal. It is the same
call, with one early exit: a shift on a monomial basis returns at its first
surviving term. `_product` only chooses between fused truncation and
`_divide`; the product loop itself is `PolynomialRing.multiply`, shared
with `Polynomial.__mul__` and `Polynomial.frobenius`.

`PowerTable` holds the normal forms of the powers I^k of one ideal modulo
one basis. It is the package's one power builder: every power an algorithm
reads (entry powers of escape sets, containment exponents, the Fedder test,
and the root automaton's digit factors modulo the zero ideal) is read from
one, and `Polynomial.__pow__` is left to the tests as their reference. A
power is one product of two smaller ones: a digit step for a principal
ideal past the characteristic, else I^(k-1) * I when I^(k-1) is held, else
the two halves of k, so a power costs O(log k) products at any
characteristic. A sweep and the Fedder test link each level's table to the
table one level down (`regions._power_tables`), so a digit step reads its
high digits from the smaller normal forms there.

`groebner_basis`, `frobenius_basis`, `power_table` and
`power_containment_index`, the package's only process-wide caches, keep
what they build for the life of the process (`functools.cache`, keyed on
the ideals, bases and ints as passed, so `f(J)` and `f(J, None)` are
separate entries). Each has `cache_info()` and `cache_clear()`.
A reduced basis is unique, so bases compare and hash by content, and
`power_table` shares one table among equal level ideals.
"""

from __future__ import annotations

import functools
import heapq
import itertools

from .errors import BadInputError, ExponentOverflowError, HypothesisViolatedError, RingMismatchError
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
                self.ring.naux,
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


def _presentation_gens(ring: PolynomialRing, pres: Ideal | None) -> tuple:
    """The relations of the presentation R/pres; None presents R itself."""
    if pres is None:
        return ()
    if pres.ring != ring:
        raise RingMismatchError("presentation from a different ring")
    return pres.gens


# ---------------------------------------------------------------------------
# Division and Buchberger
# ---------------------------------------------------------------------------

class GroebnerBasis:
    """A reduced, monic Groebner basis, sorted by leading monomial (ascending).

    Alongside the polynomials it keeps their packed leading monomials and
    tails, the form `_divide` works on: each polynomial's terms are keyed
    once, by `_divide` with no divisors, and its tail offsets are read off
    those keys."""

    __slots__ = ("ring", "polys", "leading_monomials", "is_monomial", "_tails")

    def __init__(self, ring: PolynomialRing, polys):
        self.ring = ring
        # each polynomial's keyed terms, the polynomials by their leading keys
        keyed = sorted(((_divide(f.coeffs, (), (), ring), f) for f in polys),
                       key=lambda t: t[0][0][2])
        self.polys = tuple(f for _, f in keyed)
        self.leading_monomials = tuple(terms[0][0] for terms, _ in keyed)
        self.is_monomial = all(len(f.coeffs) == 1 for f in self.polys)
        self._tails = tuple(
            tuple((m, c, k - terms[0][2]) for m, c, k in terms[1:]) for terms, _ in keyed
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
        return Polynomial(self.ring, {m: c for m, c, _ in rem})

    def reduce_products(self, left, right) -> tuple:
        """Distinct nonzero NF(u*v) for u in `left` and v in `right`, in
        first-seen order: `_dedup(self.reduce(u * v) ...)`.

        Each product is one pass of `_product`.
        """
        ring = self.ring
        if any(f.ring is not ring and f.ring != ring for f in (*left, *right)):
            raise RingMismatchError("polynomial from a different ring")
        found = {}
        for u in left:
            for v in right:
                out = self._product(u.coeffs, v.coeffs)
                if out:
                    found.setdefault(frozenset(out.items()), out)
        return tuple(Polynomial(ring, out) for out in found.values())

    def _product(self, u: dict, v: dict, q: int = 1, _first: bool = False) -> dict:
        """NF(u^[q] * v) as a coefficient map, for the coefficient maps u and
        v of two polynomials and q = 1 or p: one `PolynomialRing.multiply`.
        On a monomial basis the product and the reduction are fused: the
        leading monomials are the cut, so no term inside the ideal is
        stored, and with `_first` (only `meets` passes it) a shift returns
        at its first survivor. On any other basis the full product goes to
        `_divide`.
        """
        ring = self.ring
        if self.is_monomial:
            return ring.multiply(u, v, q, self.leading_monomials, _first)
        rem = _divide(ring.multiply(u, v, q), self.leading_monomials, self._tails, ring)
        return {m: c for m, c, _ in rem}

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


def _divide(terms: dict, lms, tails, ring: PolynomialRing) -> list:
    """Remainder of the packed terms `terms` (packed monomial -> coefficient,
    not yet reduced mod p) on division by monic divisors, given by their
    packed leading monomials `lms` and the matching `tails`, as keyed terms
    (packed monomial, coefficient, order key) in descending order; with no
    divisors, the terms themselves, keyed and sorted. A divisor's tail
    holds (packed monomial, coefficient, key offset) for each term after
    its leading one, the offset key(m) - key(lm) moving an order key by the
    shift that takes the leading monomial lm to a cancelled term.

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
            rem.append((m, c, k))
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
    is built from the tails of its pair. Only the input terms and the pair
    lcms are keyed: a remainder comes from `_divide` with its terms' keys,
    and a new polynomial's tail offsets are read off them.
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
    keys: list[int] = []  # the order keys of the leading monomials
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
        """Add the polynomial of the keyed `terms` (`_divide`), leading term first."""
        (lm, lc, lk), *tail = terms
        inv = pow(lc, p - 2, p)
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
        keys.append(lk)
        tails.append(tuple((m, c * inv % p, k - lk) for m, c, k in tail))
        live[:] = [i for i in live if not divides(lm, lms[i])] + [j]
        live_lms[:] = [lms[i] for i in live]
        live_tails[:] = [tails[i] for i in live]

    for g in gens:
        push(_divide(g.coeffs, (), (), ring))

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

    return GroebnerBasis(ring, _autoreduce([(keys[i], lms[i], tails[i]) for i in live], ring))


def _autoreduce(polys: list, ring: PolynomialRing) -> list:
    """Minimalize and tail-reduce a monic Groebner generating set, given as
    (leading key, leading monomial, tail) with the tails of `_divide`;
    returns the polynomials. Each offset of a reduced tail is read off the
    key that `_divide` returns with its term."""
    guard = ring.guard
    minimal = []
    for lk, lm, tail in sorted(polys):  # by leading key, so a divisor comes first
        if not any(((lm | guard) - g) & guard == guard for _, g, _ in minimal):
            minimal.append((lk, lm, tail))
    # tail reduction keeps every leading monomial, since none divides another
    keys, lms, tails = map(list, zip(*minimal))
    for i, lk in enumerate(keys):
        others = lms[:i] + lms[i + 1:], tails[:i] + tails[i + 1:]
        rem = _divide({m: c for m, c, _ in tails[i]}, *others, ring)
        tails[i] = tuple((m, c, k - lk) for m, c, k in rem)
    return [Polynomial(ring, {lm: 1, **{m: c for m, c, _ in tail}}) for lm, tail in zip(lms, tails)]


# ---------------------------------------------------------------------------
# Cached basis access
# ---------------------------------------------------------------------------

@functools.cache
def groebner_basis(ideal: Ideal, pres: Ideal | None = None) -> GroebnerBasis:
    """Reduced basis of ideal + presentation relations, cached."""
    extra = _presentation_gens(ideal.ring, pres)
    return buchberger(list(ideal.gens) + list(extra), ideal.ring)


def ideal_contains(inner: Ideal, outer: Ideal, pres: Ideal | None = None) -> bool:
    """True iff inner is contained in outer (modulo the presentation)."""
    if inner.ring != outer.ring:
        raise RingMismatchError("ideals from different rings")
    gb = groebner_basis(outer, pres)
    return all(gb.reduce(g).is_zero for g in inner.gens)


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
def frobenius_basis(J: Ideal, q: int, pres: Ideal | None = None) -> GroebnerBasis:
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
    """Normal forms generating the powers I^k modulo the ideal of `basis`;
    the package's one power builder (`Polynomial.__pow__` is the tests').

    `pows` maps k to the deduplicated nonzero normal forms of I^k, with
    `pows[0]` from NF(1) and `pows[1]` from the generators; an empty tuple
    means the power lies in the ideal (and every higher one does too).
    `below` is None or the table of the same I modulo an ideal L' whose
    bracket power L'^[p] lies in this table's ideal, such as the level
    below in a p-family; the digit step then reads its high digits there.
    Without it a high level digit-steps from its own barely truncated high
    powers (Fedder's test of the cusp over F_1009 at e = 3 ran out of 2 GB).
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
        The step is one `GroebnerBasis._product` on every basis: g's
        exponents are scaled by p inside `PolynomialRing.multiply`, against
        the ring's `frobenius_limit`, and the product is truncated as it is
        formed or then divided. g is scaled even when NF(f^(k%p)) is 0, so
        an exponent overflow raises exactly where g^p would. The kept
        monomials are allocated in that call, so the table pins no product
        garbage.
        Every other power is one product of two cached powers: the step
        I^k = I^(k-1) * I when k - 1 is cached, and I^k = I^a * I^(k-a)
        with a = floor(k/2) otherwise, which is exact for any ideal. So a
        power far above every cached one costs O(log k) products, not k,
        and a table read at a large characteristic stays small. For several
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
        if k - 1 in pows:
            pows[k] = basis.reduce_products(pows[k - 1], pows[1])
        else:
            a = k // 2
            pows[k] = basis.reduce_products(self.power(a), self.power(k - a))
        return pows[k]


@functools.cache
def power_table(I: Ideal, basis: GroebnerBasis) -> PowerTable:
    """The shared, growing power table of I modulo the ideal of `basis`."""
    return PowerTable(I, basis)


# ---------------------------------------------------------------------------
# Sums and intersections
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


def radical_membership(f: Polynomial, J: Ideal, pres: Ideal | None = None) -> bool:
    """True iff some power of f lies in J (modulo the presentation).

    Without a presentation, J gives way to its p-th root while every
    generator is a p-th power, since rad(K^[p]) = rad(K): a polynomial whose
    exponents are all divisible by p is the p-th power of the one with its
    exponents divided by p (c^p = c in F_p). The roots stop once no exponent
    is positive, so a unit J cannot loop, and a bracket power J^[q] faces J
    itself rather than a Buchberger of about q rounds. Then the
    extra-variable trick: f is in the radical iff 1 lies in J + (1 - w*f)
    in the ring with one more variable w.
    """
    ring = J.ring
    if f.ring != ring:
        raise RingMismatchError("polynomial from a different ring")
    if f.is_zero:
        return True
    gens = J.gens
    extra = _presentation_gens(ring, pres)
    while not extra:
        exps = [a for g in gens for m in g.coeffs for a in ring.unpack(m)]
        if not any(exps) or any(a % ring.p for a in exps):
            break
        # every field of each packed monomial is divisible by p, so m // p is its root
        gens = [Polynomial(ring, {m // ring.p: c for m, c in g.coeffs.items()}) for g in gens]
    w_name = _fresh_aux_name(ring, "w")
    ext = ring.extended((w_name,))
    w = ext.gens()[0]
    gens = [ring.inject(g, ext) for g in (*gens, *extra)]
    gens.append(ext.one() - w * ring.inject(f, ext))
    gb = buchberger(gens, ext)
    return gb.contains_one


@functools.cache
def power_containment_index(I: Ideal, J: Ideal, pres: Ideal | None = None) -> int:
    """Least k >= 1 with I^k contained in J; cached.

    Some power lands exactly when every generator of I lies in the radical
    of J. That is decided first, so the search always ends; a generator
    outside raises HypothesisViolatedError before any power is built. This
    is the package's one check of the radical hypothesis.

    I^k in J is monotone in k, so for a principal I, whose every power is
    one polynomial, k is found by doubling and then bisecting over the
    power table: O(log k) powers of O(log k) products each, where stepping
    took k. The powers of several generators grow with k, and a product of
    two halves costs their product of sizes, so those step one at a time,
    each step one I^(k-1) * I (doubling took 57 s, not 1.6 s, for (x, y, z)
    in (x^50, y^50, z^50) over F_2).
    """
    for g in I.gens:
        if not radical_membership(g, J, pres):
            raise HypothesisViolatedError(
                f"generator {g} is not in the radical of {J!r}, so no power of "
                f"{I!r} lies in it"
            )
    table = power_table(I, groebner_basis(J, pres))
    lo, hi = 0, 1  # I^lo is not in J, or lo = 0
    while table.power(hi):
        lo, hi = hi, 2 * hi if I.num_gens == 1 else hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if table.power(mid):
            lo = mid
        else:
            hi = mid
    return hi


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


def staircase_count_of(gb: GroebnerBasis) -> int | None:
    """Number of standard monomials of a completed basis: None (infinite)
    unless every variable has a pure power among the leading monomials,
    else counted slice by slice on the packed leading monomials."""
    if gb.contains_one:
        return 0
    ring, lms = gb.ring, gb.leading_monomials
    field = (1 << 64) - 1
    for i in range(ring.nvars):
        if not any(m and not m & ~(field << 64 * i) for m in lms):
            return None
    return _staircase_count(lms, ring.nvars, ring.guard)


def standard_monomial_count(J: Ideal, pres: Ideal | None = None) -> int | None:
    """Vector-space dimension of R/(J + presentation) via its staircase,
    or None when it is infinite."""
    return staircase_count_of(groebner_basis(J, pres))


def krull_dimension(J: Ideal, pres: Ideal | None = None) -> int:
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
