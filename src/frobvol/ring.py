"""Exact arithmetic layer: the monomial order and sparse polynomials over F_p.

A polynomial is an immutable sparse map from monomial to nonzero coefficient
in F_p. Each monomial is one int packed by `PolynomialRing.pack`, 64 bits per
variable (Monagan and Pearce, CASC 2007): a product of monomials is a sum of
ints, and overflow and divisibility are read off the guard bits of the
fields. Exponent tuples appear only at the edges: `from_dict` and `monomial`
take them, and printing goes through `PolynomialRing.unpack`; the parser
multiplies one-term polynomials. The characteristic is the int `ring.p`.

`PolynomialRing.multiply` is the package's one product loop, and the one
place that scales exponents by q: `Polynomial.__mul__`, `Polynomial.frobenius`
and `GroebnerBasis._product` (every power, probe, prefix product and digit
step) each make one call to it, and its guard-bit checks raise every
`ExponentOverflowError` of a product or a Frobenius power.

A ring's monomials are ordered by grevlex: `PolynomialRing.key` ranks a
packed monomial by the grevlex key of its unpacked exponents. Only the
rings that `PolynomialRing.extended` builds for elimination put a grevlex
block of auxiliary variables above it. Order keys are ints, affine in the
exponents, so a kernel can negate them for a min-heap and move a shifted
term's key by a fixed offset. All values are hashable and safe to share
once constructed.
"""

from __future__ import annotations

import re
import struct
import sys

from .errors import (
    ExponentOverflowError,
    NonPrimeError,
    PolyParseError,
    RingMismatchError,
)

MAX_EXPONENT = 2**63 - 1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _digits(n) -> str:
    """str(n) of an exact int, or of a Fraction or tuple of them, past the
    default limit of 4300 digits (Python 3.11, and 3.10.7 on), which a high
    level's q and exact rows pass: the package's one writer of exact
    integers."""
    if not hasattr(sys, "get_int_max_str_digits"):
        return str(n)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# The monomial order
# ---------------------------------------------------------------------------

def _grevlex_key(mono: tuple) -> int:
    """The grevlex key of an exponent tuple: the degree first, then the
    smaller exponent of the last variable that differs. The key holds the
    degree above the complemented fields 2^64 - 1 - e_i, the last
    variable's field highest, so it is affine in the exponents and exact
    while every exponent is below 2^64 (a sum of two valid exponents is).
    It takes 64 * (n + 1) + n.bit_length() bits for n variables."""
    k = sum(mono) + 1
    for e in reversed(mono):
        k = (k << 64) - e
    return k - 1


# ---------------------------------------------------------------------------
# Polynomial ring and polynomials
# ---------------------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class PolynomialRing:
    """F_p[x_1, ..., x_n] under grevlex; p is a prime in [2, 2^31).

    `naux`, the number of auxiliary variables, is 0 unless `extended` built
    the ring: it prepends them under an elimination order.
    """

    __slots__ = ("p", "variables", "naux", "_order_key", "_var_index", "_one", "_zero",
                 "_packer", "guard", "frobenius_limit")

    def __init__(self, p: int, variables):
        if not isinstance(p, int) or not 2 <= p < 2**31 or not is_prime(p):
            raise NonPrimeError(f"characteristic must be a prime in [2, 2^31): {p!r}")
        self.p = p
        variables = tuple(variables)
        if not variables:
            raise ValueError("need at least one variable")
        for v in variables:
            if not _IDENT_RE.fullmatch(v):
                raise ValueError(f"bad variable name {v!r}")
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable in {variables}")
        self.variables = variables
        self.naux = 0
        self._order_key = _grevlex_key
        self._var_index = {v: i for i, v in enumerate(variables)}
        self._zero = None
        self._one = None
        self._packer = struct.Struct(f"<{len(variables)}Q")
        self.guard = self.pack((MAX_EXPONENT + 1,) * len(variables))
        self.frobenius_limit = self.scale_limit(self.p)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Polynomial":
        if self._zero is None:
            self._zero = Polynomial(self, {})
        return self._zero

    def one(self) -> "Polynomial":
        if self._one is None:
            self._one = Polynomial(self, {0: 1})
        return self._one

    def gens(self) -> tuple:
        return tuple(Polynomial(self, {1 << 64 * i: 1}) for i in range(self.nvars))

    def monomial(self, exps, coeff: int = 1) -> "Polynomial":
        return self.from_dict({tuple(exps): coeff})

    def constant(self, c: int) -> "Polynomial":
        return self.from_dict({(0,) * self.nvars: c})

    def from_dict(self, raw: dict) -> "Polynomial":
        """Canonicalize a raw exponent-tuple -> int map: pack the monomials,
        reduce mod p, drop zeros."""
        p = self.p
        out = {}
        for mono, c in raw.items():
            mono = tuple(mono)
            if len(mono) != self.nvars:
                raise ValueError(f"monomial arity {len(mono)} != {self.nvars}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            if mono and max(mono) > MAX_EXPONENT:
                raise ExponentOverflowError(f"exponent beyond 2^63-1 in {mono}")
            mono = self.pack(mono)
            c %= p
            if c:
                cur = out.get(mono, 0)
                cur = (cur + c) % p
                if cur:
                    out[mono] = cur
                elif mono in out:
                    del out[mono]
        return Polynomial(self, out)

    def pack(self, mono: tuple) -> int:
        """The monomial as one int: variable i in bits 64i..64i+63.

        Every exponent is at most MAX_EXPONENT, so the top bit of each field
        is clear and can serve as a guard bit; `guard` has all of them set.
        A sum of two packed monomials sets a guard bit exactly where its
        exponent overflows, and x^a divides x^b exactly when every field of
        (b | guard) - a keeps its guard bit.
        """
        return int.from_bytes(self._packer.pack(*mono), "little")

    def scale_limit(self, q: int) -> int:
        """MAX_EXPONENT // q in every field, with the guard bits set: a packed
        monomial m times q carries nowhere exactly when no field of
        scale_limit(q) - m borrows its guard bit. `frobenius_limit` is
        scale_limit(p)."""
        return self.pack((MAX_EXPONENT // q,) * self.nvars) | self.guard

    def unpack(self, packed: int) -> tuple:
        """Inverse of `pack`."""
        return self._packer.unpack(packed.to_bytes(self._packer.size, "little"))

    def key(self, packed: int) -> int:
        """Order key of a packed monomial; larger key means larger monomial."""
        return self._order_key(self.unpack(packed))

    def multiply(self, u: dict, v: dict, q: int = 1, cut=(), first: bool = False) -> dict:
        """The coefficient map of u^[q] * v without the terms that a packed
        monomial of `cut` divides, for the coefficient maps u and v of two
        polynomials and q >= 1. u^[q] is u with its exponents scaled by q,
        which is u^q when q is a power of p (c^p = c in F_p). Scaling a
        monomial past MAX_EXPONENT raises `ExponentOverflowError`, checked
        against `frobenius_limit` when q = p and `scale_limit(q)` otherwise.

        Every monomial field holds at most MAX_EXPONENT, so a field of a
        packed product sets its guard bit exactly when it overflows; a
        surviving product monomial is checked when first formed. A term that
        a monomial of `cut` divides is dropped as soon as it is formed, so
        a truncated product never stores it (nor remembers it: a set of the
        dropped monomials doubled peak memory on truncated products of long
        polynomials and saved no measured time), and the survivors'
        coefficients are reduced mod p, dropping those that vanish. When
        one factor has one term the product is a shift of the other: its
        monomials are distinct and its coefficients nonzero, because p is
        prime, so each survivor is kept as it is formed, with no lookup of
        earlier terms, and with `first` the pass returns at the first
        survivor, whose presence settles that the product is nonzero. The
        kept monomials are ints allocated in this pass, so a table that
        keeps them holds no int shared with a factor or with the pass's
        garbage.
        """
        p, guard = self.p, self.guard
        if q != 1:
            limit = self.frobenius_limit if q == p else self.scale_limit(q)
        shift = len(u) == 1 or len(v) == 1
        stop = shift and first
        acc = {}
        for m1, c1 in u.items():
            if q != 1:
                if (limit - m1) & guard != guard:
                    raise ExponentOverflowError(f"exponent beyond 2^63-1 scaling by {_digits(q)}")
                m1 *= q
            for m2, c2 in v.items():
                m = m1 + m2
                if not shift:
                    c = acc.get(m)
                    if c is not None:
                        acc[m] = c + c1 * c2
                        continue
                if m & guard:
                    raise ExponentOverflowError("exponent beyond 2^63-1 in a product")
                g = m | guard
                for lm in cut:
                    if (g - lm) & guard == guard:
                        break
                else:
                    if stop:
                        return {m: c1 * c2 % p}
                    acc[m] = c1 * c2
        if shift:
            return {m: c % p for m, c in acc.items()}
        return {m: c % p for m, c in acc.items() if c % p}

    def poly(self, text: str, line: int = 1, column: int = 1) -> "Polynomial":
        return parse_polynomial(text, self, line=line, column=column)

    def extended(self, aux_names) -> "PolynomialRing":
        """Ring with auxiliary variables prepended under an elimination order.

        Its key holds the grevlex key of the auxiliary block above the
        grevlex key of this ring's variables, whose width is fixed, so any
        monomial involving an auxiliary variable beats every one that does
        not, and intersecting a Groebner basis with this ring eliminates the
        block. The key stays affine in the exponents.
        """
        aux_names = tuple(aux_names)
        for v in aux_names:
            if v in self._var_index:
                raise ValueError(f"auxiliary name {v!r} collides with a ring variable")
        ext = PolynomialRing(self.p, aux_names + self.variables)
        naux, width = len(aux_names), 64 * (self.nvars + 1) + self.nvars.bit_length()
        ext.naux = naux
        ext._order_key = lambda mono: (_grevlex_key(mono[:naux]) << width) + _grevlex_key(mono[naux:])
        return ext

    def inject(self, f: "Polynomial", extended: "PolynomialRing") -> "Polynomial":
        """Image of f in `extended` (extra leading variables set to exponent 0).

        The auxiliary variables come first, so they take the low fields and
        every monomial of f shifts up by 64 bits per auxiliary variable."""
        shift = 64 * (extended.nvars - self.nvars)
        return Polynomial(extended, {m << shift: c for m, c in f.coeffs.items()})

    def project(self, f: "Polynomial", extended: "PolynomialRing") -> "Polynomial":
        """Preimage of an auxiliary-free polynomial of `extended` in this ring."""
        shift = 64 * (extended.nvars - self.nvars)
        aux = (1 << shift) - 1
        if any(m & aux for m in f.coeffs):
            raise ValueError("polynomial involves auxiliary variables")
        return Polynomial(self, {m >> shift: c for m, c in f.coeffs.items()})

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialRing)
            and self.p == other.p
            and self.variables == other.variables
            and self.naux == other.naux
        )

    def __hash__(self):
        return hash((self.p, self.variables, self.naux))

    def __repr__(self):
        return f"F_{self.p}[{', '.join(self.variables)}] ({'elim' if self.naux else 'grevlex'})"


def _fresh_aux_name(ring: PolynomialRing, base: str = "w") -> str:
    name = base
    k = 0
    while name in ring.variables:
        k += 1
        name = f"{base}{k}"
    return name


class Polynomial:
    """Immutable sparse polynomial over a PolynomialRing.

    `coeffs` maps monomials packed by `PolynomialRing.pack` to nonzero ints
    in [1, p); construction via `PolynomialRing.from_dict` canonicalizes, the
    constructor itself trusts its input.
    """

    __slots__ = ("ring", "coeffs", "_hash")

    def __init__(self, ring: PolynomialRing, coeffs: dict):
        self.ring = ring
        self.coeffs = coeffs
        self._hash = None

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def terms_desc(self) -> list:
        """Terms as (packed monomial, coeff), descending in the ring's order."""
        key = self.ring.key
        return sorted(self.coeffs.items(), key=lambda t: key(t[0]), reverse=True)

    def leading(self) -> tuple:
        """(packed monomial, coeff) of the leading term; undefined on zero."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.coeffs, key=self.ring.key)
        return m, self.coeffs[m]

    def total_degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(sum(self.ring.unpack(m)) for m in self.coeffs)

    def key(self) -> tuple:
        """Canonical hashable content key (monomials sorted ascending)."""
        return tuple(sorted(self.coeffs.items()))

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(f"mixed rings {self.ring} and {other.ring}")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        p = self.ring.p
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            v = (out.get(m, 0) + c) % p
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        return Polynomial(self.ring, self.ring.multiply(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def frobenius(self, q: int) -> "Polynomial":
        """Image under x_i -> x_i^q; equals self**q when q is a power of p."""
        return Polynomial(self.ring, self.ring.multiply(self.coeffs, {0: 1}, q))

    def __pow__(self, k: int) -> "Polynomial":
        """f^k by repeated squaring after peeling off Frobenius. No package
        algorithm calls it (they read `groebner.PowerTable`); it is the
        tests' independent reference for the tables."""
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a nonnegative int: {k!r}")
        if k == 0:
            return self.ring.one()
        # peel off the characteristic: f^(p^e * m) = frobenius(f, p^e)^m
        p = self.ring.p
        q = 1
        while k % p == 0:
            k //= p
            q *= p
        base = self.frobenius(q)
        result = None
        sq = base
        while k:
            if k & 1:
                result = sq if result is None else result * sq
            k >>= 1
            if k:
                sq = sq * sq
        return result

    # -- comparisons / printing ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.p, self.ring.variables, self.key()))
        return self._hash

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        names, unpack = self.ring.variables, self.ring.unpack
        parts = []
        for mono, c in self.terms_desc():
            mono = unpack(mono)
            factors = []
            if c != 1 or not any(mono):
                factors.append(str(c))
            for name, e in zip(names, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} over F_{self.ring.p}>"


# ---------------------------------------------------------------------------
# Text grammar: ident, int literals, + - * ^; no juxtaposition
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^]))")


def _tokenize(text: str, line: int, column: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise PolyParseError(f"unexpected character {rest[0]!r}", line,
                                 column + len(text) - len(rest))
        col = column + m.start(m.lastgroup)
        tokens.append((m.lastgroup, m.group(m.lastgroup), col))
        pos = m.end()
    return tokens


def parse_polynomial(text: str, ring: PolynomialRing, line: int = 1, column: int = 1) -> Polynomial:
    """Parse `text` into a canonical polynomial of `ring`.

    Grammar: poly := ['-'] term (('+'|'-') term)*;
             term := factor ('*' factor)*;
             factor := INT | IDENT ['^' INT].
    """
    tokens = _tokenize(text, line, column)
    if not tokens:
        raise PolyParseError("empty polynomial", line, column)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None, column + len(text))

    def factor():
        nonlocal pos
        kind, value, col = peek()
        if kind == "num":
            pos += 1
            return ring.one() * int(value)
        if kind == "ident":
            idx = ring._var_index.get(value)
            if idx is None:
                raise PolyParseError(f"unknown variable {value!r}", line, col)
            pos += 1
            exp = 1
            kind2, value2, col2 = peek()
            if kind2 == "op" and value2 == "^":
                pos += 1
                kind3, value3, col3 = peek()
                if kind3 != "num":
                    raise PolyParseError("expected integer exponent after '^'", line, col3)
                exp = int(value3)
                if exp > MAX_EXPONENT:
                    raise PolyParseError("exponent beyond 2^63-1", line, col3)
                pos += 1
            return Polynomial(ring, {exp << 64 * idx: 1})
        raise PolyParseError("expected a variable or integer", line, col)

    def term():
        nonlocal pos
        acc = factor()
        while True:
            kind, value, col = peek()
            if kind == "op" and value == "*":
                pos += 1
                col = peek()[2]
                try:
                    acc = acc * factor()
                except ExponentOverflowError:
                    raise PolyParseError("exponent beyond 2^63-1", line, col)
            elif kind in ("num", "ident"):
                raise PolyParseError("missing operator (juxtaposition not allowed)", line, col)
            else:
                return acc

    kind, value, _ = peek()
    negate = kind == "op" and value == "-"
    if kind == "op" and value in "+-":
        pos += 1
    acc = -term() if negate else term()
    while pos < len(tokens):
        kind, value, col = peek()
        if kind != "op" or value not in "+-":
            raise PolyParseError(f"expected '+' or '-', got {value!r}", line, col)
        pos += 1
        acc = acc - term() if value == "-" else acc + term()
    return acc
