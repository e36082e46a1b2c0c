import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from frobvol.errors import (
    ExponentOverflowError,
    NonPrimeError,
    PolyParseError,
    RingMismatchError,
)
from frobvol.groebner import Ideal, groebner_basis
from frobvol.ring import MAX_EXPONENT, Polynomial, PolynomialRing
from oracles import bracket_power, exponents, naive_power, product, random_poly


def test_ring_characteristic_is_a_checked_prime():
    for bad in (0, 1, 4, 9, 2**31, 3.0, "3"):
        with pytest.raises(NonPrimeError, match=r"characteristic must be a prime in \[2, 2\^31\)"):
            PolynomialRing(bad, ["x"])
    R = PolynomialRing(2147483647, ["x"])  # largest supported prime
    assert R.p == 2147483647
    assert R != PolynomialRing(2, ["x"]) and R == PolynomialRing(2147483647, ["x"])
    assert R.extended(["w"]).p == R.p


@pytest.fixture
def R2():
    return PolynomialRing(2, ["x", "y"])


@pytest.fixture
def R5():
    return PolynomialRing(5, ["x", "y"])


def test_poly_mul(R2, R5):
    x, y = R2.gens()
    assert (x + y) * (x + y) == R2.poly("x^2 + y^2")
    f = R2.poly("x^2*y + x + 1")
    assert f * R2.one() == f
    # (x+y)(x-y) = x^2 - y^2 = x^2 + 4y^2 over F_5
    assert R5.poly("x+y") * R5.poly("x-y") == R5.poly("x^2 + 4*y^2")


def test_poly_power(R2):
    x, y = R2.gens()
    assert (x + y) ** 4 == R2.poly("x^4 + y^4")
    assert (x + y) ** 0 == R2.one()
    R3 = PolynomialRing(3, ["x", "y"])
    assert R3.poly("x+y") ** 3 == R3.poly("x^3 + y^3")


def test_power_matches_naive_and_frobenius():
    rng = random.Random(7)
    for p in (2, 3):
        ring = PolynomialRing(p, ["x", "y", "z"])
        for _ in range(6):
            f = random_poly(ring, rng)
            for e in range(5):
                q = p**e
                assert f**q == f.frobenius(q) == bracket_power(f, q)
            for k in (0, 1, 2, 3, 5, p, p * 2, p**2):
                assert f**k == naive_power(f, k)


@st.composite
def product_loop_cases(draw):
    """(f, g, c, monomial basis, general basis) over F_p[x_1..x_n], p in
    {2, 3, 5, 7} and n <= 3. An exponent is small or within a few of
    2^63 - 1, of (2^63 - 1)/p or of (2^63 - 1)/p^2; c is an int. The
    monomial basis may hold such exponents. The general basis is principal:
    a leading monomial with one such exponent, so a division takes few
    steps, over one or two small terms."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nvars = draw(st.integers(1, 3))
    R = PolynomialRing(p, ["x", "y", "z"][:nvars])
    near = st.builds(lambda a, d: min(a + d, MAX_EXPONENT),
                     st.sampled_from([MAX_EXPONENT, MAX_EXPONENT // p, MAX_EXPONENT // p**2]),
                     st.integers(-3, 3))
    small = st.tuples(*[st.integers(0, 3)] * nvars)
    mono = st.tuples(*[st.one_of(st.integers(0, 3), near)] * nvars)

    def poly(monos, min_size=1):
        return R.from_dict(draw(st.dictionaries(monos, st.integers(1, p - 1),
                                                min_size=min_size, max_size=3)))

    f, g, c = poly(mono), poly(mono), draw(st.integers(-2 * p, 2 * p))
    monomial = groebner_basis(Ideal(R, [R.from_dict({m: 1}) for m in draw(
        st.lists(st.one_of(small, mono), min_size=1, max_size=3))]))
    lead = list(draw(mono))
    lead[draw(st.integers(0, nvars - 1))] = draw(near)
    general = groebner_basis(Ideal(R, [R.monomial(lead) + poly(small)]))
    return f, g, c, monomial, general


def _outcome(call):
    """The polynomial `call` returns, or the message of its exponent overflow."""
    try:
        return call()
    except ExponentOverflowError as exc:
        return str(exc)


def _first_overflow(f, g, q):
    """The message for f^[q] * g at its first term past 2^63 - 1, taking the
    terms of f in order and, under each, the scaled term and then its
    products with the terms of g in order; None when no term passes."""
    for a in exponents(f):
        if max(a) * q > MAX_EXPONENT:
            return f"exponent beyond 2^63-1 scaling by {q}"
        for b in exponents(g):
            if max(q * x + y for x, y in zip(a, b)) > MAX_EXPONENT:
                return "exponent beyond 2^63-1 in a product"
    return None


@settings(derandomize=True, deadline=None, max_examples=300)
@given(product_loop_cases())
def test_products_and_bracket_powers_match_the_oracle_up_to_the_exponent_ceiling(case):
    """f * g, f * c, f^[p], f^[p^2] and one product step on a monomial and on
    a general basis each equal the oracle's product on exponent tuples (the
    basis's normal form of it), or raise where its first term passes 2^63 - 1,
    with the message of that term: a scaled exponent of f or a product."""
    f, g, c, monomial, general = case
    R, p = f.ring, f.ring.p

    def expected(left, right, q=1, basis=None):
        message = _first_overflow(left, right, q)
        if message is not None:
            return message
        if basis is None:
            return product(left, right, q)
        return _outcome(lambda: basis.reduce(product(left, right, q)))

    assert _outcome(lambda: f * g) == expected(f, g)
    assert _outcome(lambda: f * c) == expected(f, R.constant(c))
    for q in (p, p * p):
        assert _outcome(lambda: f.frobenius(q)) == expected(f, R.one(), q)
    for basis in (monomial, general):
        for q in (1, p):
            got = _outcome(lambda: Polynomial(R, basis._product(f.coeffs, g.coeffs, q)))
            assert got == expected(f, g, q, basis)


def test_a_truncated_product_keeps_nothing_it_drops():
    """u holds the 300 monomials x^(i+1) y^j with i + j < 24 and v the 300
    monomials z^(k+1) w^l with k + l < 24, so their 90,000 products are
    distinct and each is divisible by xz: cut by (xz), the product is 0.
    `multiply` drops each term as it is formed and remembers none. A set of
    the dropped monomials peaked at 10.6 MB here, and at 744 MB of RSS in
    Fedder's test of (xy+zw, x^2+y^2+z^2+w^2) over F_3 at e = 1..5, which
    it slowed from about 6 s to 150 s."""
    R = PolynomialRing(3, ["x", "y", "z", "w"])
    u = {R.pack((i + 1, j, 0, 0)): 1 for i in range(24) for j in range(24 - i)}
    v = {R.pack((0, 0, k + 1, l)): 2 for k in range(24) for l in range(24 - k)}
    assert len(u) * len(v) == 90_000
    tracemalloc.start()
    try:
        assert R.multiply(u, v, cut=(R.pack((1, 0, 1, 0)),)) == {}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_ring_axioms_random():
    rng = random.Random(11)
    ring = PolynomialRing(5, ["x", "y"])
    for _ in range(25):
        f = random_poly(ring, rng)
        g = random_poly(ring, rng)
        h = random_poly(ring, rng)
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


def _check_order_properties(ring, rng):
    def random_mono():
        return tuple(rng.randint(0, 5) for _ in range(ring.nvars))

    def key(mono):
        return ring.key(ring.pack(mono))

    one = (0,) * ring.nvars
    for _ in range(200):
        a, b, c = random_mono(), random_mono(), random_mono()
        ka, kb = key(a), key(b)
        # total: keys are equal only on equal monomials
        if a != b:
            assert ka != kb
        # multiplicative: a < b implies a+c < b+c
        if ka < kb:
            assert key(tuple(x + z for x, z in zip(a, c))) < key(tuple(y + z for y, z in zip(b, c)))
        # 1 is minimal
        if a != one:
            assert key(one) < ka


def test_order_properties():
    rng = random.Random(3)
    _check_order_properties(PolynomialRing(2, ["x", "y", "z"]), rng)
    _check_order_properties(PolynomialRing(2, ["y", "z"]).extended(["x"]), rng)


def _grevlex_key(mono: tuple) -> int:
    """The degree above the complemented fields 2^64 - 1 - e_i, the last
    variable's field highest."""
    fields = sum((2**64 - 1 - e) << 64 * i for i, e in enumerate(mono))
    return (sum(mono) << 64 * len(mono)) + fields


_EXPONENTS = st.one_of(st.integers(0, 12), st.integers(MAX_EXPONENT - 12, MAX_EXPONENT),
                       st.integers(0, MAX_EXPONENT))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.sampled_from(["grevlex", "elim"]), st.lists(_EXPONENTS, min_size=n, max_size=n))))
def test_a_packed_key_is_the_order_key_of_its_exponents(case):
    """`PolynomialRing.key` of a packed monomial is the order key of its
    exponents: pack and unpack round-trip every exponent up to 2^63 - 1, in
    every field, under grevlex and under the elimination order, whose key
    holds the auxiliary block's grevlex key above the fixed-width grevlex
    key of the other variables."""
    kind, exps = case
    names = ["x", "y", "z", "u"][:len(exps)]
    mono = tuple(exps)
    if kind == "grevlex":
        R = PolynomialRing(5, names)
        expected = _grevlex_key(mono)
    else:
        if len(names) == 1:
            names.append("v")
            mono += (0,)
        R = PolynomialRing(5, names[1:]).extended(names[:1])
        n = len(names) - 1
        width = 64 * (n + 1) + n.bit_length()
        expected = (_grevlex_key(mono[:1]) << width) + _grevlex_key(mono[1:])
    assert R.unpack(R.pack(mono)) == mono
    assert R.key(R.pack(mono)) == expected


def test_a_grevlex_key_past_two_to_the_64_is_exact():
    """The grevlex key stays exact and ordered where the degree of three
    fields near 2^63 passes 2^64 - 1."""
    R = PolynomialRing(2, ["x", "y", "z"])
    top, near = (MAX_EXPONENT,) * 3, (MAX_EXPONENT, MAX_EXPONENT, MAX_EXPONENT - 1)
    assert sum(top) > 2**64
    assert R.key(R.pack(top)) == _grevlex_key(top) > R.key(R.pack(near)) == _grevlex_key(near)


def test_elimination_order_dominates():
    R = PolynomialRing(2, ["x", "y"])
    E = R.extended(["w"])
    # any aux-positive monomial beats any aux-free one
    assert E.key(E.pack((1, 0, 0))) > E.key(E.pack((0, 9, 9)))
    assert repr(R) == "F_2[x, y] (grevlex)" and repr(E) == "F_2[w, x, y] (elim)"
    assert E != PolynomialRing(2, ["w", "x", "y"])


def test_parse_print_roundtrip(R2, R5):
    for text in ("y^2 + x", "x^4 + x^2*y^2 + 1", "x", "1"):
        f = R2.poly(text)
        assert str(f) == text
        assert R2.poly(str(f)) == f
    f = R5.poly("3*x^2*y + 4*y + 2")
    assert str(f) == "3*x^2*y + 4*y + 2"
    assert R5.poly(str(f)) == f
    # subtraction and coefficient reduction normalize away
    assert str(R5.poly("x - y")) == "x + 4*y"
    assert str(R5.poly("7*x")) == "2*x"
    assert str(R5.poly("5*x")) == "0"


def test_parse_errors(R2):
    with pytest.raises(PolyParseError):
        R2.poly("x + w")  # unknown variable
    with pytest.raises(PolyParseError):
        R2.poly("2x")  # juxtaposition
    with pytest.raises(PolyParseError):
        R2.poly("x +")
    with pytest.raises(PolyParseError):
        R2.poly("x ^ y")
    with pytest.raises(PolyParseError):
        R2.poly("")
    err = None
    try:
        R2.poly("x + $", line=3, column=10)
    except PolyParseError as exc:
        err = exc
    assert err is not None and err.line == 3 and err.column >= 10


def test_exponent_overflow(R2):
    x, _ = R2.gens()
    big = R2.poly(f"x^{2**62}")
    with pytest.raises(ExponentOverflowError):
        _ = big * big
    with pytest.raises(ExponentOverflowError):
        _ = big.frobenius(4)
    assert (big * x).coeffs  # one step below the limit still fine
    # over F_3, y^c cubed fits exactly when 3c <= MAX_EXPONENT, by
    # multiplication and by Frobenius; past it both raise instead of
    # carrying out of the packed y field
    R3 = PolynomialRing(3, ["x", "y"])
    c = MAX_EXPONENT // 3
    f = R3.monomial((1, c))
    assert f * f * f == f.frobenius(3) == R3.monomial((3, 3 * c))
    g = R3.monomial((1, c + 1))
    with pytest.raises(ExponentOverflowError):
        _ = g * g * g
    with pytest.raises(ExponentOverflowError):
        _ = g.frobenius(3)


def test_inject_project_round_trip(R5):
    ext = R5.extended(("w",))
    f = R5.poly("3*x^2*y + 4*y + 2")
    g = R5.inject(f, ext)
    assert g == ext.poly("3*x^2*y + 4*y + 2")
    assert R5.project(g, ext) == f
    with pytest.raises(ValueError, match="auxiliary"):
        R5.project(g + ext.poly("w*x"), ext)


def test_ring_mismatch(R2, R5):
    with pytest.raises(RingMismatchError):
        _ = R2.poly("x") + R5.poly("x")


def test_monomial_order_default_is_grevlex(R2):
    f = R2.poly("x*y + x^2 + y^3")
    assert [R2.unpack(m) for m, _ in f.terms_desc()] == [(0, 3), (2, 0), (1, 1)]
