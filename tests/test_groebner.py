import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from frobvol.errors import (
    BadInputError,
    ExponentOverflowError,
    HypothesisViolatedError,
    RingMismatchError,
)
from frobvol.groebner import (
    Ideal,
    _dedup,
    buchberger,
    frobenius_basis,
    frobenius_power,
    groebner_basis,
    ideal_contains,
    ideal_intersection,
    ideal_sum,
    krull_dimension,
    power_containment_index,
    power_table,
    radical_membership,
    standard_monomial_count,
)
from frobvol.ring import MAX_EXPONENT, PolynomialRing
from oracles import (
    brute_force_ell,
    exponents,
    ideal_equal,
    ideal_power,
    ideal_product,
    la_membership,
    mono_divides,
    power,
    product,
    random_poly,
    staircase_count_brute,
)


@pytest.fixture
def R2():
    return PolynomialRing(2, ["x", "y"])


@pytest.fixture
def R5():
    return PolynomialRing(5, ["x", "y"])


def gb_polys(gens, ring=None):
    return list(buchberger(gens, ring).polys)


def test_buchberger_examples(R2, R5):
    x, y = R2.gens()
    assert gb_polys([x, R2.poly("y^2+x")]) == [x, R2.poly("y^2")]
    assert gb_polys([R2.poly("x^2"), y]) == [y, R2.poly("x^2")]
    assert gb_polys([R5.poly("x+y"), R5.poly("x-y")]) == [R5.poly("y"), R5.poly("x")]


def test_buchberger_is_deterministic(R5):
    gens = [R5.poly("x^2*y + x"), R5.poly("x*y^2 + y"), R5.poly("x^3 + y^3")]
    first = gb_polys(gens)
    for _ in range(3):
        assert gb_polys(gens) == first


def _spoly(f, g):
    ring = f.ring
    lm_f, lc_f = f.leading()
    lm_g, lc_g = g.leading()
    lm_f, lm_g = ring.unpack(lm_f), ring.unpack(lm_g)
    lcm = [max(a, b) for a, b in zip(lm_f, lm_g)]
    mf = ring.monomial([a - b for a, b in zip(lcm, lm_f)], pow(lc_f, ring.p - 2, ring.p))
    mg = ring.monomial([a - b for a, b in zip(lcm, lm_g)], pow(lc_g, ring.p - 2, ring.p))
    return mf * f - mg * g


def test_buchberger_reduced_invariants():
    rng = random.Random(5)
    for p in (2, 3):
        ring = PolynomialRing(p, ["x", "y", "z"])
        for _ in range(8):
            gens = [random_poly(ring, rng) for _ in range(rng.randint(1, 3))]
            gb = buchberger(gens, ring)
            # monic, pairwise reduced, gens contained
            for i, g in enumerate(gb.polys):
                assert g.leading()[1] == 1
                for m in exponents(g):
                    divisors = [
                        h for j, h in enumerate(gb.polys)
                        if j != i and all(a <= b for a, b in zip(ring.unpack(h.leading()[0]), m))
                    ]
                    assert not divisors
            for g in gens:
                assert gb.reduce(g).is_zero
            # every S-polynomial reduces to zero
            for i in range(len(gb.polys)):
                for j in range(i + 1, len(gb.polys)):
                    assert gb.reduce(_spoly(gb.polys[i], gb.polys[j])).is_zero


def test_normal_form_examples(R2):
    x, y = R2.gens()
    gb = groebner_basis(Ideal(R2, [R2.poly("x^2"), R2.poly("y^2")]))
    assert gb.reduce(R2.poly("x*y^2")).is_zero
    assert gb.reduce(x * y) == x * y
    gb2 = groebner_basis(Ideal(R2, [x, R2.poly("y^2")]))
    assert gb2.reduce(R2.poly("y^4+x")).is_zero


def test_normal_form_idempotent():
    rng = random.Random(13)
    ring = PolynomialRing(3, ["x", "y"])
    for _ in range(10):
        gens = [random_poly(ring, rng) for _ in range(2)]
        gb = buchberger(gens, ring)
        f = random_poly(ring, rng, max_degree=5)
        r = gb.reduce(f)
        assert gb.reduce(r) == r


@st.composite
def division_cases(draw):
    """(basis, f) over F_p, p in {2,3,5,7}, in 2 or 3 variables under grevlex:
    a non-monomial reduced basis, either a bracket power of a monomial ideal
    modulo y^2-x^3 or the basis of random polynomials, and f of total degree
    at most 6, so that the linear-algebra oracle stays small."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nvars = draw(st.sampled_from([2, 3]))
    R = PolynomialRing(p, ["x", "y", "z"][:nvars])
    mono = st.tuples(*[st.integers(0, 3)] * nvars).filter(lambda m: sum(m) <= 6)

    def poly(max_size):
        terms = draw(st.dictionaries(mono, st.integers(1, p - 1), min_size=1, max_size=max_size))
        return R.from_dict(terms)

    if draw(st.booleans()):
        J = Ideal(R, [R.monomial(m) for m in draw(st.lists(mono, min_size=1, max_size=3))])
        pres = Ideal(R, [R.poly("y^2-x^3")])
        basis = frobenius_basis(J, p ** draw(st.integers(0, 1)), pres)
    else:
        basis = groebner_basis(Ideal(R, [poly(3) for _ in range(draw(st.integers(1, 3)))]))
    assume(not basis.is_monomial)
    return basis, poly(6)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(division_cases())
def test_reduce_gives_the_normal_form(case):
    """The remainder has no term in the leading ideal, and f - r lies in the
    ideal by a degree-bounded linear-algebra certificate."""
    basis, f = case
    r = basis.reduce(f)
    lms = [basis.ring.unpack(lm) for lm in basis.leading_monomials]
    assert not any(mono_divides(lm, m) for lm in lms for m in exponents(r))
    assert la_membership(f - r, basis.polys, f.total_degree())


def test_reduce_large_power_modulo_quotient_bracket_power():
    """A 2,988-term power over F_7 modulo (x,y)^[49] + (y^2-x^3). The value
    agrees with sympy's `reduced`, which takes seconds on it."""
    R = PolynomialRing(7, ["x", "y"])
    pres = Ideal(R, [R.poly("y^2-x^3")])
    basis = frobenius_basis(Ideal(R, list(R.gens())), 49, pres)
    g = R.poly("x+2*y+x^2+3*x*y+y^2")
    f = power(g, 48)
    assert len(f.coeffs) == 2988
    expected = R.poly("y^32+5*x^2*y^31")
    assert basis.reduce(f) == expected
    assert basis.reduce_products([power(g, 47)], [g]) == (expected,)


def test_division_and_s_polynomial_exponent_overflow():
    """Over F_3 with M = 2^63-1, packed sums that pass M raise instead of
    setting a guard bit that later steps would misread: a division step that
    shifts the tail x^2 of y^5-x^2 by x^(M-1), and S-polynomials whose
    shifted tails pass M."""
    R = PolynomialRing(3, ["x", "y"])
    M = MAX_EXPONENT
    y5 = R.poly("y^5-x^2")
    with pytest.raises(ExponentOverflowError, match="division step"):
        groebner_basis(Ideal(R, [y5])).reduce(R.monomial((M - 1, 5)))
    with pytest.raises(ExponentOverflowError):
        buchberger([R.monomial((M - 1, 0)) + R.poly("y"), R.poly("x*y^3+x^3")])
    # the pair (y^5-x^2, x^(M-1)*y) has lcm x^(M-1)*y^5, so the tail x^2 lands on x^(M+1)
    with pytest.raises(ExponentOverflowError, match="S-polynomial"):
        buchberger([y5, R.monomial((M - 1, 1))])


def test_ideal_contains_examples(R2):
    x, y = R2.gens()
    sq = Ideal(R2, [R2.poly("x^2"), R2.poly("y^2")])
    assert ideal_contains(Ideal(R2, [R2.poly("x*y^2")]), sq)
    assert not ideal_contains(Ideal(R2, [x * y]), sq)
    assert ideal_contains(Ideal(R2, [R2.poly("x+y^2")]), Ideal(R2, [x, R2.poly("y^2")]))


def test_frobenius_power_examples(R2):
    x, y = R2.gens()
    J = Ideal(R2, [x, R2.poly("y^2+x")])
    J4 = frobenius_power(J, 4)
    assert list(J4.gens) == [R2.poly("x^4"), R2.poly("y^8+x^4")]
    assert frobenius_power(J, 1) == J
    m = Ideal(R2, [x, y])
    assert list(frobenius_power(m, 8).gens) == [R2.poly("x^8"), R2.poly("y^8")]
    with pytest.raises(BadInputError):
        frobenius_power(J, 3)
    with pytest.raises(BadInputError):
        frobenius_power(J, 6)


def test_frobenius_power_generating_set_independent(R2):
    x, _ = R2.gens()
    I1 = Ideal(R2, [x, R2.poly("y^2")])
    I2 = Ideal(R2, [x, R2.poly("y^2+x")])
    for q in (2, 4, 8):
        assert ideal_equal(frobenius_power(I1, q), frobenius_power(I2, q))


def test_frobenius_basis_shortcut_matches_buchberger():
    for p, variables in ((2, ["x", "y"]), (3, ["x", "y"]), (2, ["y", "x"])):
        ring = PolynomialRing(p, variables)
        for gens in (["x", "y^2+x"], ["x^2+y", "x*y"], ["x+y"]):
            J = Ideal(ring, [ring.poly(g) for g in gens])
            for e in (1, 2):
                q = p**e
                fast = frobenius_basis(J, q)
                direct = buchberger(frobenius_power(J, q))
                assert fast.polys == direct.polys


def test_bracket_power_bases_compare_by_content():
    for p, relation in ((2, None), (3, None), (3, "y^2-x^3")):
        ring = PolynomialRing(p, ["x", "y"])
        pres = Ideal(ring, [ring.poly(relation)]) if relation else None
        J = Ideal(ring, [ring.poly("x^2+y"), ring.poly("x*y")])
        for e in (0, 1, 2):
            shifted = frobenius_basis(frobenius_power(J, p), p**e, pres)
            direct = frobenius_basis(J, p ** (e + 1), pres)
            assert shifted is not direct
            assert shifted == direct and hash(shifted) == hash(direct)
        assert frobenius_basis(J, p) != frobenius_basis(J, p**2)


def test_bracket_power_tower(R2):
    x, _ = R2.gens()
    J = Ideal(R2, [x, R2.poly("y^2+x")])
    p = R2.p
    for e in (1, 2):
        lhs = frobenius_power(frobenius_power(J, p), p**e)
        rhs = frobenius_power(J, p ** (e + 1))
        assert ideal_equal(lhs, rhs)


def test_power_shift_lemma():
    # a^r = a^(r - s p^e) (a^[p^e])^s once r >= (mu + s - 1) p^e
    rng = random.Random(29)
    ring = PolynomialRing(2, ["x", "y"])
    for _ in range(4):
        gens = [random_poly(ring, rng, max_degree=2) for _ in range(rng.randint(1, 2))]
        a = Ideal(ring, gens)
        if a.is_zero:
            continue
        mu = a.num_gens
        p = ring.p
        for e, s in ((1, 1), (1, 2)):
            q = p**e
            r = (mu + s - 1) * q + rng.randint(0, 2)
            lhs = ideal_power(a, r)
            rhs = ideal_product(
                ideal_power(a, r - s * q), ideal_power(frobenius_power(a, q), s)
            )
            assert ideal_equal(lhs, rhs)


def test_ideal_algebra_examples(R2):
    x, y = R2.gens()
    m = Ideal(R2, [x, y])
    assert ideal_equal(ideal_product(Ideal(R2, [x]), Ideal(R2, [R2.poly("y^2")])),
                       Ideal(R2, [R2.poly("x*y^2")]))
    sq = ideal_power(m, 2)
    assert ideal_equal(sq, Ideal(R2, [R2.poly("x^2"), x * y, R2.poly("y^2")]))
    assert ideal_equal(ideal_sum(m, Ideal(R2, [x])), m)
    assert ideal_power(m, 0) == Ideal(R2, [R2.one()])


def test_ideal_intersection_examples(R2):
    x, y = R2.gens()
    A = Ideal(R2, [R2.poly("x^2"), y])
    B = Ideal(R2, [x, R2.poly("y^2")])
    C = ideal_intersection(A, B)
    expected = ideal_power(Ideal(R2, [x, y]), 2)
    assert ideal_contains(C, A) and ideal_contains(C, B)
    assert ideal_equal(C, expected)
    assert ideal_equal(ideal_intersection(Ideal(R2, [x]), Ideal(R2, [x])), Ideal(R2, [x]))
    assert ideal_equal(ideal_intersection(Ideal(R2, [x]), Ideal(R2, [y])), Ideal(R2, [x * y]))


def test_radical_membership_examples(R2, R5):
    x, y = R2.gens()
    assert radical_membership(x, Ideal(R2, [R2.poly("x^3")]))
    assert not radical_membership(y, Ideal(R2, [x]))
    assert radical_membership(R2.poly("x+y"), Ideal(R2, [R2.poly("x^2"), R2.poly("y^2")]))
    assert radical_membership(R5.poly("x+y"), Ideal(R5, [R5.poly("x^2"), R5.poly("y^2")]))


def test_radical_membership_of_a_bracket_power():
    # the hypothesis check of a level-3 family of (x, y) over F_3: Buchberger
    # on (x^27, y^27, 1 - w(y^2 + x)) under the elimination order
    R3 = PolynomialRing(3, ["x", "y"])
    J = frobenius_power(Ideal(R3, list(R3.gens())), 27)
    assert radical_membership(R3.poly("y^2+x"), J)
    # generators that are all cubes face their cube roots, down to a unit
    cube = Ideal(R3, [R3.poly("x^3+2*y^3")])  # (x + 2y)^3
    assert radical_membership(R3.poly("x+2*y"), cube)
    assert not radical_membership(R3.poly("x"), cube)
    assert radical_membership(R3.poly("y"), Ideal(R3, [R3.one(), R3.poly("x^9")]))
    assert radical_membership(R3.poly("y"), Ideal(R3, [R3.one()]))


def test_power_containment_index(R2):
    x, y = R2.gens()
    m = Ideal(R2, [x, y])
    assert power_containment_index(m, m) == 1
    assert power_containment_index(m, ideal_power(m, 3)) == 3
    assert power_containment_index(Ideal(R2, [R2.poly("x+y")]), Ideal(R2, [R2.poly("x^4+y^4")])) == 4
    with pytest.raises(HypothesisViolatedError):
        power_containment_index(Ideal(R2, [x]), Ideal(R2, [y]))


def test_power_containment_index_doubles_only_a_principal_ideal():
    """x^k lies in (x^p), p = 1009, from k = p on. A principal power is one
    polynomial, so the search doubles k and bisects: 20 probes, each
    reading halves down to the held powers, so the table holds at most
    10^2 powers (51), not p of them. The powers of (x, y, z) grow with k,
    so its search in (x^6, y^6, z^6) steps one power at a time and holds
    just the powers up to the answer, 3 * 5 + 1."""
    R = PolynomialRing(1009, ["x"])
    I, J = Ideal(R, R.gens()), Ideal(R, [R.poly("x").frobenius(R.p)])
    assert power_containment_index(I, J) == R.p
    assert len(power_table(I, groebner_basis(J)).pows) <= 10**2
    R = PolynomialRing(2, ["x", "y", "z"])
    m, J = Ideal(R, R.gens()), Ideal(R, [R.poly(f"{v}^6") for v in "xyz"])
    assert power_containment_index(m, J) == 16
    assert sorted(power_table(m, groebner_basis(J)).pows) == list(range(17))


def test_the_hypothesis_is_decided_before_powers_are_built():
    """No power of y+z+1 lies in (x): the radical test says so before the
    search builds any power above the first, so the search always ends."""
    R = PolynomialRing(5, ["x", "y", "z"])
    I, J = Ideal(R, [R.poly("y+z+1")]), Ideal(R, [R.poly("x")])
    with pytest.raises(HypothesisViolatedError, match=r"generator y \+ z \+ 1 is not in"):
        power_containment_index(I, J)
    assert max(power_table(I, groebner_basis(J)).pows) == 1


_CONTAINMENT_TARGETS = (["x", "y"], ["x^2", "y"], ["x^2+y^2", "x*y"])


@st.composite
def containment_cases(draw):
    """(I, J, pres) over F_p[x,y], p in {2,3,5}: I has one or two generators
    without a constant term, J has radical (x,y), optionally modulo y^2-x^3."""
    p = draw(st.sampled_from([2, 3, 5]))
    R = PolynomialRing(p, ["x", "y"])
    monos = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def gen():
        support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        return R.from_dict({m: draw(st.integers(1, p - 1)) for m in support})

    I = Ideal(R, [gen() for _ in range(draw(st.integers(1, 2)))])
    J = Ideal(R, [R.poly(g) for g in draw(st.sampled_from(_CONTAINMENT_TARGETS))])
    pres = Ideal(R, [R.poly("y^2-x^3")]) if draw(st.booleans()) else None
    return I, J, pres


@settings(derandomize=True, deadline=None, max_examples=150)
@given(containment_cases())
def test_power_containment_index_matches_bruteforce(case):
    I, J, pres = case
    assert power_containment_index(I, J, pres) == brute_force_ell(I, J, pres)


def test_staircase_counts(R2):
    x, y = R2.gens()
    assert standard_monomial_count(Ideal(R2, [R2.poly("x^4"), R2.poly("y^4")])) == 16
    assert standard_monomial_count(
        Ideal(R2, [R2.poly("x^2"), x * y, R2.poly("y^3")])
    ) == 4
    assert standard_monomial_count(Ideal(R2, [x])) is None  # infinite length
    assert standard_monomial_count(Ideal(R2, [R2.one() + x + x])) == 0  # unit ideal


def test_staircase_counts_match_bruteforce():
    rng = random.Random(41)
    ring = PolynomialRing(3, ["x", "y", "z"])
    for _ in range(12):
        gens = [ring.poly(f"{v}^{rng.randint(1, 4)}") for v in ring.variables]
        for _ in range(rng.randint(0, 3)):
            exps = tuple(rng.randint(0, 3) for _ in range(3))
            gens.append(ring.monomial(exps))
        J = Ideal(ring, gens)
        assert standard_monomial_count(J) == staircase_count_brute(J)


def test_staircase_count_quotient(R2):
    x, y = R2.gens()
    pres = Ideal(R2, [x])
    m = Ideal(R2, [x, y])
    assert standard_monomial_count(frobenius_power(m, 4), pres) == 4


def test_krull_dimension(R2):
    x, y = R2.gens()
    assert krull_dimension(Ideal(R2, [])) == 2
    assert krull_dimension(Ideal(R2, [x])) == 1
    assert krull_dimension(Ideal(R2, [x * y])) == 1
    assert krull_dimension(Ideal(R2, [x, y])) == 0
    assert krull_dimension(Ideal(R2, [R2.one()])) == -1
    ring3 = PolynomialRing(3, ["x", "y", "z"])
    xs = ring3.gens()
    assert krull_dimension(Ideal(ring3, [xs[0] * xs[1]])) == 2
    pres = Ideal(R2, [x * y])
    assert krull_dimension(Ideal(R2, [x]), pres) == 1
    assert krull_dimension(Ideal(R2, [x, y]), pres) == 0


def test_contains_agrees_with_linear_algebra_basics(R2):
    x, y = R2.gens()
    cases = [
        (R2.poly("x*y^2"), [R2.poly("x^2"), R2.poly("y^2")], True),
        (x * y, [R2.poly("x^2"), R2.poly("y^2")], False),
        (R2.poly("y^4+x"), [x, R2.poly("y^2")], True),
        (R2.poly("x^2+y"), [R2.poly("x+y")], False),
    ]
    for f, gens, expected in cases:
        J = Ideal(R2, gens)
        assert ideal_contains(Ideal(R2, [f]), J) is expected
        assert la_membership(f, gens, f.total_degree() + 6) is expected


def test_zero_generators_dropped(R2):
    x, _ = R2.gens()
    I = Ideal(R2, [R2.zero(), x, R2.zero()])
    assert I.gens == (x,)
    Z = Ideal(R2, [R2.zero()])
    assert Z.is_zero
    assert groebner_basis(Z).polys == ()


# -- reduce_products: fused multiply-and-reduce -------------------------------

@st.composite
def product_cases(draw):
    """(basis, left, right) over F_p in 2 or 3 variables. The basis is a
    monomial ideal that need not be m-primary, or one non-monomial ideal."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nvars = draw(st.sampled_from([2, 3]))
    R = PolynomialRing(p, ["x", "y", "z"][:nvars])
    mono = st.tuples(*[st.integers(0, 3)] * nvars)

    def polys():
        terms = st.dictionaries(mono, st.integers(1, p - 1), min_size=1, max_size=4)
        return [R.from_dict(t) for t in draw(st.lists(terms, max_size=3))]

    q = p ** draw(st.integers(0, 1))
    a, b = draw(st.integers(0, 2)), draw(st.integers(1, 2))
    gens = draw(st.sampled_from([
        ["x^2*y"],
        [f"x^{q}", f"x^{a}*y^{b}"],
        [R.from_dict({m: 1}) for m in draw(st.lists(mono, min_size=1, max_size=3))],
        ["y^2-x^3", f"x^{q}*y"],
    ]))
    basis = groebner_basis(Ideal(R, [R.poly(g) if isinstance(g, str) else g for g in gens]))
    return basis, polys(), polys()


@settings(derandomize=True, deadline=None, max_examples=150)
@given(product_cases())
def test_reduce_products_matches_reducing_each_product(case):
    basis, left, right = case
    expected = _dedup(basis.reduce(product(u, v)) for u in left for v in right)
    assert basis.reduce_products(left, right) == expected


@st.composite
def probe_cases(draw):
    """`product_cases`, or one product (x + c*y)(x - c*y) whose cross terms
    cancel mod p, against a basis that may hold both squares. Over F_2 it is
    (x + y)(x + y)."""
    if draw(st.booleans()):
        return draw(product_cases())
    p = draw(st.sampled_from([2, 3, 5]))
    R = PolynomialRing(p, ["x", "y"])
    c = draw(st.integers(1, p - 1))
    gens = draw(st.sampled_from([["x^2", "y^2"], ["x^2", "y^3"], ["x*y"], ["y^2-x^3", "x^2"]]))
    basis = groebner_basis(Ideal(R, [R.poly(g) for g in gens]))
    left = R.from_dict({(1, 0): 1, (0, 1): c})
    right = R.from_dict({(1, 0): 1, (0, 1): p - c})
    return basis, [left], [right]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(probe_cases())
def test_meets_is_whether_some_product_survives(case):
    basis, left, right = case
    assert basis.meets(left, right) == bool(basis.reduce_products(left, right))


def test_reduce_products_exponent_boundary(R2):
    def x_to(k):
        return R2.monomial((k, 0))

    left, right = [x_to(MAX_EXPONENT - 5)], [x_to(5) + x_to(4)]
    along_y = groebner_basis(Ideal(R2, [R2.poly("y")]))
    assert along_y.reduce_products(left, right) == (x_to(MAX_EXPONENT) + x_to(MAX_EXPONENT - 1),)
    at_max = groebner_basis(Ideal(R2, [x_to(MAX_EXPONENT)]))
    assert at_max.reduce_products(left, right) == (x_to(MAX_EXPONENT - 1),)
    with pytest.raises(ExponentOverflowError):
        along_y.reduce_products([x_to(MAX_EXPONENT - 4)], right)
    assert along_y.meets(left, right) and not at_max.meets(left, [x_to(5)])
    general = groebner_basis(Ideal(R2, [R2.poly("y^2-x^3")]))
    for basis in (along_y, general):
        with pytest.raises(ExponentOverflowError):
            basis.meets([x_to(MAX_EXPONENT - 4)], [x_to(5)])


def test_reduce_products_rejects_other_rings_and_passes_empty_operands(R2, R5):
    basis = groebner_basis(Ideal(R2, [R2.poly("x^3"), R2.poly("y^3")]))
    here, there = R2.poly("x+y"), R5.poly("x+y")
    with pytest.raises(RingMismatchError):
        basis.reduce_products([here], [there])
    with pytest.raises(RingMismatchError):
        basis.reduce_products([there], [here])
    assert basis.reduce_products([], [here]) == ()
    assert basis.reduce_products([here], []) == ()
    assert basis.reduce_products([here], [here]) == (R2.poly("x^2+y^2"),)
    with pytest.raises(RingMismatchError):
        basis.meets([here], [there])
    assert not basis.meets([], [here]) and not basis.meets([here], [])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_packed_digit_step_exponent_boundary(p):
    """The digit step raises the p-th power of a packed power exactly where
    `Polynomial.frobenius` overflows, in either exponent field. At p > 2 the
    power x^MAX_EXPONENT scaled by p would carry into the next field."""
    R = PolynomialRing(p, ["x", "y"])
    c = MAX_EXPONENT // p
    for var in (0, 1):
        def mono(k):
            return R.monomial((k, 0) if var == 0 else (0, k))

        other = groebner_basis(Ideal(R, [R.gens()[1 - var]]))
        assert power_table(Ideal(R, [mono(c)]), other).power(p) == (mono(c * p),)
        for over in (c + 1, MAX_EXPONENT):
            with pytest.raises(ExponentOverflowError):
                power_table(Ideal(R, [mono(over)]), other).power(p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_digit_step_on_a_general_basis_exponent_boundary(p):
    """On a basis that is not monomial the digit step scales the high
    factor inside the product and then divides; it raises exactly where
    `Polynomial.frobenius` overflows, for a one-term and a two-term power."""
    R = PolynomialRing(p, ["x", "y"])
    c = MAX_EXPONENT // p
    for var in (0, 1):
        def mono(k):
            return R.monomial((k, 0) if var == 0 else (0, k))

        g = R.gens()[1 - var]
        general = groebner_basis(Ideal(R, [g * g + g]))
        assert not general.is_monomial
        for tail in (R.zero(), R.one()):
            table = power_table(Ideal(R, [mono(c) + tail]), general)
            assert table.power(p) == (mono(c * p) + tail,)
            for over in (c + 1, MAX_EXPONENT):
                with pytest.raises(ExponentOverflowError):
                    power_table(Ideal(R, [mono(over) + tail]), general).power(p)


def test_single_shift_product_exponent_boundary(R2):
    """One product with a one-term factor, on either side, is a shift on a
    monomial basis; it raises exactly where the packed sum overflows, as
    the same product on a general basis does."""
    def x_to(k):
        return R2.monomial((k, 0))

    along_y = groebner_basis(Ideal(R2, [R2.poly("y")]))
    general = groebner_basis(Ideal(R2, [R2.poly("y^2+y")]))
    for basis in (along_y, general):
        for other in ([x_to(5)], [x_to(5) + x_to(4)]):
            expected = (x_to(MAX_EXPONENT - 5) * other[0],)
            assert basis.reduce_products([x_to(MAX_EXPONENT - 5)], other) == expected
            assert basis.reduce_products(other, [x_to(MAX_EXPONENT - 5)]) == expected
            with pytest.raises(ExponentOverflowError):
                basis.reduce_products([x_to(MAX_EXPONENT - 4)], other)
            with pytest.raises(ExponentOverflowError):
                basis.reduce_products(other, [x_to(MAX_EXPONENT - 4)])


@st.composite
def presented_frobenius_cases(draw):
    """(J, q, pres) over F_p, p in {2, 3, 5}, in 2 or 3 variables, q = p^e
    with e <= 2. J has one to three generators of degree at most 2; the
    relation is y^2 - x^3, xy - z^2 (in three variables) or a random one."""
    p = draw(st.sampled_from([2, 3, 5]))
    nvars = draw(st.sampled_from([2, 3]))
    R = PolynomialRing(p, ["x", "y", "z"][:nvars])
    monos = [m for m in itertools.product(range(3), repeat=nvars) if sum(m) <= 2]

    def poly():
        terms = st.dictionaries(st.sampled_from(monos), st.integers(1, p - 1), min_size=1, max_size=3)
        return R.from_dict(draw(terms))

    named = ["y^2-x^3"] + (["x*y-z^2"] if nvars == 3 else [])
    relation = draw(st.sampled_from(named + [None]))
    relation = R.poly(relation) if relation else poly()
    J = Ideal(R, [poly() for _ in range(draw(st.integers(1, 3)))])
    return J, p ** draw(st.integers(0, 2)), Ideal(R, [relation])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(presented_frobenius_cases())
def test_presented_frobenius_basis_matches_direct_buchberger(case):
    """The level-by-level basis of J^[q] + a equals Buchberger's basis of the
    bracket power's generators and the relations."""
    J, q, pres = case
    direct = buchberger(list(frobenius_power(J, q).gens) + list(pres.gens), J.ring)
    assert frobenius_basis(J, q, pres).polys == direct.polys
