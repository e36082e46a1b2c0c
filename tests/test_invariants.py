import json
import random
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

import frobvol.invariants as invariants
from frobvol.errors import (
    BadInputError,
    BadLevelError,
    BudgetExceededError,
    HypothesisViolatedError,
    NotPrimaryError,
)
from frobvol.groebner import (
    Ideal,
    frobenius_basis,
    frobenius_power,
    ideal_contains,
    ideal_sum,
    power_table,
    staircase_count_of,
    standard_monomial_count,
)
from frobvol.invariants import (
    check_containment_monotone,
    check_frob_shift,
    check_hk_length_inequality,
    check_level_refinement_bound,
    check_simplex_bound,
    check_slice_bound,
    check_sup_identity,
    check_threshold_bounds,
    check_union_decomposition,
    fedder_criterion,
    fedder_payload,
    fpure_ci_label,
    hilbert_kunz_table,
    is_parameter_sequence,
    nu,
    threshold_table,
    truncation_table,
    volume_table,
)
from frobvol.regions import (
    BudgetCounter,
    IdealSequence,
    PFamily,
    containment_exponents,
    escape_set,
)
from frobvol.ring import PolynomialRing
import corpus
from oracles import brute_force_nu, exponents, ideal_power, random_poly


@pytest.fixture
def R2():
    return PolynomialRing(2, ["x", "y"])


@pytest.fixture
def m2(R2):
    return Ideal(R2, list(R2.gens()))


def seq_of(ring, *gen_lists):
    return IdealSequence([Ideal(ring, [ring.poly(g) for g in gens]) for gens in gen_lists])


# -- nu and thresholds -------------------------------------------------------

def test_nu_examples(R2, m2):
    x, _ = R2.gens()
    assert nu(m2, m2, 1) == 2
    for e in (1, 2, 3, 5):
        assert nu(Ideal(R2, [x]), Ideal(R2, [x]), e) == 2**e - 1
    assert nu(Ideal(R2, [x, R2.poly("y^2")]), m2, 2) == 4


def test_nu_bruteforce_crosscheck(R2, m2):
    I = Ideal(R2, [R2.poly("x"), R2.poly("y^2")])
    for e in (1, 2, 3):
        q = 2**e
        Jq = frobenius_power(m2, q)
        expected = max(
            k for k in range(4 * q) if not ideal_contains(ideal_power(I, k), Jq)
        )
        assert nu(I, m2, e) == expected


def test_nu_large_level_principal(R2):
    x, _ = R2.gens()
    # each probe builds x^k from its base-2 digits
    assert nu(Ideal(R2, [x]), Ideal(R2, [x]), 14) == 2**14 - 1


def test_nu_charges_the_budget():
    R3 = PolynomialRing(3, ["x", "y"])
    cusp = Ideal(R3, [R3.poly("y^2+x^3")])
    # nu = 4373 lies below the bound 6561, so the search needs a second probe
    with pytest.raises(BudgetExceededError):
        nu(cusp, Ideal(R3, list(R3.gens())), 8, budget=1)
    R5 = PolynomialRing(5, ["x", "y"])
    x, y = R5.gens()
    counter = BudgetCounter()
    assert nu(Ideal(R5, [x + y]), Ideal(R5, [x, y]), 6, budget=counter) == 15624
    assert counter.used >= 1


def test_nu_of_a_split_entry_charges_the_budget():
    """(x, y+z^2) is split into its generators, so each probe builds its
    powers from base-p digits and the second probe trips the budget.
    Building each I^k by the step ran about 195 s here for two probes."""
    R = PolynomialRing(3, ["x", "y", "z"])
    I = Ideal(R, [R.poly("x"), R.poly("y+z^2")])
    with pytest.raises(BudgetExceededError):
        nu(I, Ideal(R, list(R.gens())), 6, budget=1)


@pytest.mark.parametrize("e", [5, 6])
def test_nu_of_a_two_generator_entry_at_high_levels(e):
    R = PolynomialRing(3, ["x", "y", "z"])
    I = Ideal(R, [R.poly("x"), R.poly("y+z^2")])
    assert nu(I, Ideal(R, list(R.gens())), e) == 2 * 3**e - 2


# (variables n, power d, p, level e): nu(m^d, m) = floor(n(q-1)/d). Each
# level is the highest that takes about a second or less. m^2 in three
# variables has six generators, so its sweep has six axes and stops lowest.
_POWER_OF_M_CASES = [
    (2, 1, 2, 6), (2, 1, 3, 6), (2, 1, 5, 5),
    (2, 2, 2, 6), (2, 2, 3, 4), (2, 2, 5, 3),
    (3, 1, 2, 6), (3, 1, 3, 4), (3, 1, 5, 3),
    (3, 2, 2, 4), (3, 2, 3, 2), (3, 2, 5, 1),
]


@pytest.mark.parametrize("n, d, p, e", _POWER_OF_M_CASES)
def test_nu_of_a_power_of_the_maximal_ideal(n, d, p, e):
    R = PolynomialRing(p, ["x", "y", "z"][:n])
    m = Ideal(R, list(R.gens()))
    assert nu(ideal_power(m, d), m, e) == n * (p**e - 1) // d


@st.composite
def multi_generator_cases(draw):
    """(I, J, e, pres): an entry of two or three generators with no constant
    term, against the ideal J of all variables, over F_p[x,y], F_p[x,y,z] or
    F_p[x,y,z]/(xy - z^2), p in {2, 3}, e in 1..3 for p = 2 and 1..2
    otherwise. Each case is one of four kinds: three generators in two
    variables, two in two variables, or two or three in three variables or
    in the quotient, whose dimension is two. Three generators outnumber the
    dimension in the first kind and in the quotient."""
    p = draw(st.sampled_from([2, 3]))
    nvars, relation, mu = draw(st.sampled_from([
        (2, None, st.just(3)),
        (2, None, st.just(2)),
        (3, None, st.integers(2, 3)),
        (3, "x*y-z^2", st.integers(2, 3)),
    ]))
    mu = draw(mu)
    R = PolynomialRing(p, ["x", "y", "z"][:nvars])
    mono = st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars).map(tuple)
    terms = st.dictionaries(mono.filter(any), st.integers(1, p - 1), min_size=1, max_size=2)
    I = Ideal(R, [R.from_dict(draw(terms)) for _ in range(mu)])
    pres = Ideal(R, [R.poly(relation)]) if relation else None
    return I, Ideal(R, list(R.gens())), draw(st.integers(1, 3 if p == 2 else 2)), pres


@settings(derandomize=True, deadline=None, max_examples=100)
@given(multi_generator_cases())
def test_nu_of_a_multi_generator_entry_matches_direct_powers(case):
    """The sup identity, checked against directly built powers:
    `check_sup_identity` computes both of its sides by it."""
    I, J, e, pres = case
    assert nu(I, J, e, pres) == brute_force_nu(I, J, e, pres)


@st.composite
def nu_route_cases(draw):
    """(I, J, e, pres): an entry of one or two generators with no constant
    term, against a monomial or a non-monomial J primary to the ideal of
    all variables, over F_p[x,y] (p in {2, 3}) or F_3[x,y,z]/(xy - z^2);
    e in 1..3 for p = 2 and 1..2 otherwise."""
    quotient = draw(st.booleans())
    p = 3 if quotient else draw(st.sampled_from([2, 3]))
    names = ["x", "y", "z"] if quotient else ["x", "y"]
    R = PolynomialRing(p, names)
    J = draw(st.sampled_from(
        [names, ["x^2", "y"], ["x+z", "y"]] if quotient else [names, ["x^2", "y"], ["x+y^2", "y^3"]]
    ))
    mono = st.lists(st.integers(0, 2), min_size=len(names), max_size=len(names)).map(tuple)
    terms = st.dictionaries(mono.filter(any), st.integers(1, p - 1), min_size=1, max_size=2)
    I = Ideal(R, [R.from_dict(draw(terms)) for _ in range(draw(st.integers(1, 2)))])
    pres = Ideal(R, [R.poly("x*y-z^2")]) if quotient else None
    return I, Ideal(R, [R.poly(g) for g in J]), draw(st.integers(1, 3 if p == 2 else 2)), pres


@settings(derandomize=True, deadline=None, max_examples=100)
@given(nu_route_cases())
def test_every_nu_route_gives_the_same_nu(case):
    """`nu`, the threshold row times p^e, the one-entry volume row times
    p^e less 1 (the escape set of one entry is [0, nu]) and the maximal
    point of a cold `escape_set` agree, whether the levels are walked from
    level 0 or swept at level e alone."""
    I, J, e, pres = case
    q = J.ring.p ** e
    seq, fam = IdealSequence([I]), PFamily.frobenius(J)
    value = nu(I, J, e, pres)
    assert threshold_table(I, J, range(1, e + 1), pres).value(e) * q == value
    assert volume_table(seq, fam, [e], pres).value(e) * q - 1 == value
    assert escape_set(seq, fam, e, pres).max_points == ((value,),)


def cold_sides(seq, J, e, pres=None) -> dict:
    """{checker name: (left, right)} of the checkers that read their sizes
    from `regions.escape_sizes`, computed from a cold `escape_set` and the
    `nu` of each entry instead. The length inequality needs principal
    entries."""
    q = J.ring.p ** e
    t = seq.t
    ds = escape_set(seq, PFamily.frobenius(J), e, pres)
    left = Fraction(ds.positive_size, q ** t)
    simplex = Fraction(nu(ideal_sum(*seq.entries), J, e, pres), q) ** t / factorial(t)
    product = prod(Fraction(nu(I, J, e, pres) + 1, q) for I in seq.entries)
    sides = {"simplex_bound": (left, simplex), "threshold_bounds": (left, min(simplex, product))}
    if seq.principal:
        length = staircase_count_of(frobenius_basis(J, q, pres))
        rest = standard_monomial_count(ideal_sum(*seq.entries, frobenius_power(J, q)), pres)
        sides["hk_length_ineq"] = (length, ds.size * rest)
    return sides


def cold_refinement_sides(seq, fam, e, e1, e2, pres=None) -> tuple:
    """(left, right) of the level refinement bound from cold escape sets
    against the Frobenius family of the level-e ideal J_e itself, the
    family it is stated for."""
    p, t = fam.p, seq.t
    fixed = PFamily.frobenius(fam.level_ideal(e))
    fine = escape_set(seq, fixed, e1 + e2, pres)
    coarse = escape_set(seq, fixed, e1, pres)
    mus = seq.generator_counts()
    ells = containment_exponents(seq, fam, pres)
    u = sum(prod(m ** 2 * ell + 1 for j, (m, ell) in enumerate(zip(mus, ells)) if j != i)
            for i in range(t)) * (max(mus) + 1)
    return (Fraction(fine.positive_size, p ** ((e1 + e2) * t)),
            Fraction(coarse.positive_size, p ** (e1 * t)) + Fraction(p ** (e * (t - 1)) * u, p ** e1))


def assert_sides(report, sides):
    assert (report.left, report.right) == tuple(map(str, sides)), report.to_jsonable()


@st.composite
def level_check_cases(draw):
    """(seq, J, e): one or two principal entries with no constant term from
    `oracles.random_poly`, over F_p[x,y] (p in {2, 3}); J = (x, y) and
    e in {1, 2}."""
    R = PolynomialRing(draw(st.sampled_from([2, 3])), ["x", "y"])
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    entries = [Ideal(R, [random_poly(R, rng, no_constant=True)]) for _ in range(draw(st.integers(1, 2)))]
    return IdealSequence(entries), Ideal(R, list(R.gens())), draw(st.integers(1, 2))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(level_check_cases())
def test_every_level_checker_holds_on_random_entries(case):
    """Each of the eight per-level checkers states a theorem, so every
    report is ok. A failing case belongs in `corpus.CORPUS`. The checkers
    that read only sizes, and the level refinement bound against J^[p^2]
    at e1 = e2 = 1, give the sides of cold escape sets and per-entry nu."""
    seq, J, e = case
    R = J.ring
    parts = [Ideal(R, [R.poly(g) for g in part.split(",")]) for part in corpus.UNION_PARTS[2]]
    reports = [
        check_frob_shift(seq, J, e),
        check_containment_monotone(seq, ideal_power(J, 2), J, e),
        check_simplex_bound(seq, J, e),
        check_sup_identity(seq, J, e),
        check_threshold_bounds(seq, J, e),
        check_union_decomposition(seq, parts, e),
        check_hk_length_inequality(seq, J, e),
    ]
    if seq.t == 2:
        reports.append(check_slice_bound(seq, J, e))
    for report in reports:
        assert report.ok, report.to_jsonable()
    sides = cold_sides(seq, J, e)
    for report in reports:
        if report.name in sides:
            assert_sides(report, sides[report.name])
    fam = PFamily.frobenius(J)
    refinement = check_level_refinement_bound(seq, fam, 2, 1, 1)
    assert refinement.ok, refinement.to_jsonable()
    assert_sides(refinement, cold_refinement_sides(seq, fam, 2, 1, 1))


@st.composite
def quotient_level_check_cases(draw):
    """(seq, J, e, pres): one or two principal entries with no constant term
    from `oracles.random_poly` (degree and terms at most 2), over
    F_p[x,y,z]/(xy - z^2) with p in {2, 3}; J = (x, y, z) and e in {1, 2}."""
    R = PolynomialRing(draw(st.sampled_from([2, 3])), ["x", "y", "z"])
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    entries = [Ideal(R, [random_poly(R, rng, max_degree=2, max_terms=2, no_constant=True)])
               for _ in range(draw(st.integers(1, 2)))]
    pres = Ideal(R, [R.poly("x*y-z^2")])
    return IdealSequence(entries), Ideal(R, list(R.gens())), draw(st.integers(1, 2)), pres


@settings(derandomize=True, deadline=None, max_examples=60)
@given(quotient_level_check_cases())
def test_every_level_checker_holds_in_a_quotient_ring(case):
    """The per-level checkers that admit a presented ring, and the level
    refinement bound at e = e1 = e2 = 1, on random entries of the A_1
    singularity. A failing case belongs in `corpus.CORPUS`. The checkers
    that read only sizes give the sides of cold escape sets and per-entry
    nu."""
    seq, J, e, pres = case
    reports = [
        check_frob_shift(seq, J, e, pres),
        check_containment_monotone(seq, ideal_power(J, 2), J, e, pres),
        check_simplex_bound(seq, J, e, pres),
        check_sup_identity(seq, J, e, pres),
        check_threshold_bounds(seq, J, e, pres),
        check_hk_length_inequality(seq, J, e, pres),
        check_level_refinement_bound(seq, PFamily.frobenius(J), 1, 1, 1, pres),
    ]
    if seq.t == 2:
        reports.append(check_slice_bound(seq, J, e, pres))
    for report in reports:
        assert report.ok, report.to_jsonable()
    sides = cold_sides(seq, J, e, pres)
    sides["level_refinement_bound"] = cold_refinement_sides(seq, PFamily.frobenius(J), 1, 1, 1, pres)
    for report in reports:
        if report.name in sides:
            assert_sides(report, sides[report.name])


def test_nu_hypothesis(R2):
    x, y = R2.gens()
    with pytest.raises(HypothesisViolatedError):
        nu(Ideal(R2, [y]), Ideal(R2, [x]), 1)
    with pytest.raises(HypothesisViolatedError):
        nu(Ideal(R2, [x]), Ideal(R2, [R2.one()]), 1)


def test_threshold_tables(R2, m2):
    x, _ = R2.gens()
    table = threshold_table(m2, m2, range(1, 5))
    assert [v for _, v in table.rows] == [
        Fraction(2 * (2**e - 1), 2**e) for e in range(1, 5)
    ]
    table = threshold_table(Ideal(R2, [x]), Ideal(R2, [x]), range(1, 5))
    assert [v for _, v in table.rows] == [
        Fraction(2**e - 1, 2**e) for e in range(1, 5)
    ]
    # no closed form assumed: brute-force verified rows for I = (x, y^2)
    table = threshold_table(Ideal(R2, [x, R2.poly("y^2")]), m2, range(1, 5))
    assert [str(v) for _, v in table.rows] == ["1/2", "1", "5/4", "11/8"]


def test_tables_judge_their_rows_in_level_order(R2, m2):
    """Levels passed out of order are compared in level order: the positive
    rows of (x; y^2+x), 0 at level 1 and 33/64 at level 3, do not
    decrease, and the threshold rows of (x, y^2+x), 1/2, 1 and 5/4, do not
    either. The gap bounds are written in level order too."""
    x, _ = R2.gens()
    table = volume_table(seq_of(R2, ["x"], ["y^2+x"]), PFamily.frobenius(m2), [3, 1])
    assert table.tilde_rows == [(1, 0), (3, Fraction(33, 64))]
    assert table.flags["tilde_nondecreasing"] is True
    assert [note["e"] for note in table.flags["gap_bounds"]] == [1, 3]
    table = threshold_table(Ideal(R2, [x, R2.poly("y^2+x")]), m2, [3, 1, 2])
    assert [str(v) for _, v in table.rows] == ["1/2", "1", "5/4"]
    assert table.flags["nondecreasing"] is True


# -- volume tables -----------------------------------------------------------

def test_volume_tables_worked_example(R2, m2):
    fam = PFamily.frobenius(m2)
    table_f = volume_table(seq_of(R2, ["x"], ["y^2"]), fam, range(1, 5))
    assert all(v == Fraction(1, 2) for _, v in table_f.rows)
    table_g = volume_table(seq_of(R2, ["x"], ["y^2+x"]), fam, range(1, 5))
    assert all(v == Fraction(3, 4) for _, v in table_g.rows)
    assert table_g.flags["stabilized"] is True
    assert table_g.flags["note"] == "stabilized (not a proof)"
    table_xy = volume_table(seq_of(R2, ["x"], ["y"]), fam, range(1, 5))
    assert all(v == 1 for _, v in table_xy.rows)


def test_volume_interval_relation_t1(R2, m2):
    # for t = 1 principal entries the set is the interval [0, nu]
    fam = PFamily.frobenius(m2)
    seq = seq_of(R2, ["x+y"])
    table = volume_table(seq, fam, range(1, 4))
    for e, v in table.rows:
        expected = Fraction(nu(seq.entries[0], m2, e) + 1, 2**e)
        assert v == expected


def test_volume_monotone_flag_quotient(R2, m2):
    x, _ = R2.gens()
    pres = Ideal(R2, [x * R2.gens()[1]])
    seq = IdealSequence([Ideal(R2, [x])])
    table = volume_table(seq, PFamily.frobenius(m2), range(1, 4), pres)
    assert "tilde_nondecreasing" in table.flags


@st.composite
def explicit_family_cases(draw):
    """(seq, fam, e): one or two principal entries with no constant term
    from `oracles.random_poly` (degree at most 2) over F_p[x,y], p in
    {2, 3}, and an explicit monomial p-family with levels 0..3. Level 0
    holds x^a and y^b (a, b <= 2), so its radical is (x, y); each next
    level is the bracket p-th power of the one before plus up to two
    nonconstant monomials, so J_e^[p] lies in J_(e+1) but need not equal
    it. e <= 1 is the fixed level of the refinement check."""
    p = draw(st.sampled_from([2, 3]))
    R = PolynomialRing(p, ["x", "y"])
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    entries = [Ideal(R, [random_poly(R, rng, max_degree=2, no_constant=True)])
               for _ in range(draw(st.integers(1, 2)))]
    x, y = R.gens()
    levels = [Ideal(R, [x ** draw(st.integers(1, 2)), y ** draw(st.integers(1, 2))])]
    for e in range(1, 4):
        extra = []
        for _ in range(draw(st.integers(0, 2))):
            a, b = draw(st.tuples(st.integers(0, 2 * p**e), st.integers(0, 2 * p**e)))
            if a or b:
                extra.append(x ** a * y ** b)
        levels.append(Ideal(R, list(frobenius_power(levels[-1], p).gens) + extra))
    return IdealSequence(entries), PFamily.explicit(levels), draw(st.integers(0, 1))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(explicit_family_cases())
def test_the_checkers_hold_on_explicit_families(case):
    """On an explicit family the volume table raises nothing: the gap bound
    holds, and the positive rows need not rise, since J_(e+1) may be larger
    than J_e^[p]. The plain rows never rise in any ring or family:
    V_(e+1) lies in p * V_e + [0, p)^t. The level refinement bound holds,
    with the sides of cold escape sets against the Frobenius family of J_e."""
    seq, fam, e = case
    table = volume_table(seq, fam, range(4))
    values = [v for _, v in table.rows]
    assert all(a >= b for a, b in zip(values, values[1:])), table.rows
    report = check_level_refinement_bound(seq, fam, e, 1, 1)
    assert report.ok, report.to_jsonable()
    assert_sides(report, cold_refinement_sides(seq, fam, e, 1, 1))


def test_volume_json_schema(R2, m2):
    table = volume_table(seq_of(R2, ["x"], ["y^2"]), PFamily.frobenius(m2), range(1, 3))
    payload = json.loads(table.to_json())
    assert payload["kind"] == "volume"
    assert payload["p"] == 2 and payload["t"] == 2
    assert payload["rows"][0] == {"e": 1, "num": "1", "den": "2"}
    assert all(isinstance(r["num"], str) and isinstance(r["den"], str) for r in payload["rows"])
    assert "rows_tilde" in payload and "flags" in payload


# -- Hilbert-Kunz ------------------------------------------------------------

def test_hk_examples(R2, m2):
    x, y = R2.gens()
    table = hilbert_kunz_table(m2, range(1, 9))
    assert all(v == 1 for _, v in table.rows)
    table = hilbert_kunz_table(Ideal(R2, [R2.poly("x^2"), y]), range(1, 5))
    assert all(v == 2 for _, v in table.rows)
    pres = Ideal(R2, [x])
    table = hilbert_kunz_table(m2, range(1, 5), pres)
    assert table.flags["d"] == 1
    assert all(v == 1 for _, v in table.rows)


def test_hk_not_primary(R2):
    x, _ = R2.gens()
    with pytest.raises(NotPrimaryError):
        hilbert_kunz_table(Ideal(R2, [x]), range(1, 3))
    m2 = Ideal(R2, list(R2.gens()))
    with pytest.raises(BadInputError, match="^presented ring is zero; no Hilbert-Kunz data$"):
        hilbert_kunz_table(m2, range(1, 3), Ideal(R2, [R2.one()]))
    with pytest.raises(BadLevelError, match="^negative level -1$"):
        hilbert_kunz_table(m2, [-1])


def test_hk_dimension_override(R2, m2):
    table = hilbert_kunz_table(m2, range(1, 4), d=1)
    assert [v for _, v in table.rows] == [2, 4, 8]


# -- Fedder and parameter sequences -----------------------------------------

def test_fedder_examples(R2):
    x, y = R2.gens()
    assert fedder_criterion([x, y], 1) is True
    assert fedder_criterion([R2.poly("x^2")], 1) is False
    assert fedder_criterion([R2.poly("x+y")], 2) is True
    # a zero element makes every product zero, and drops no dimension
    assert fedder_criterion([x, R2.zero()], 1) is False
    assert is_parameter_sequence([x, R2.zero()]) is False
    # row 0 is its own test, and rows 1 and 2 read level 1's
    assert fedder_payload([x, R2.zero()], range(0, 3), 2) == {
        "kind": "fedder", "p": 2, "rows": [{"e": e, "value": False} for e in range(3)],
        "sop": False, "label": None}
    for empty in (lambda: fedder_criterion([], 1), lambda: fpure_ci_label([], 1)):
        with pytest.raises(BadInputError, match="need at least one element"):
            empty()


def test_fedder_at_a_large_characteristic_builds_logarithmically_many_powers():
    """Fedder's test reads f^(q-1) for the cusp over F_1009 from the power
    table of (f) modulo m^[q], linked to the table one level down. At
    e = 1 that table holds the powers that halving k reaches from p - 1,
    not every power below p. At e = 2 the digit step reads f^(p-1) from
    the level-1 table as it stands, so the level-2 table adds only the
    powers that halving reaches from p - 1 and q - 1 itself."""
    R = PolynomialRing(1009, ["x", "y"])
    f, m = Ideal(R, [R.poly("y^2+x^3")]), Ideal(R, R.gens())
    assert fedder_criterion(f.gens, 1) is False  # the cusp is never F-pure
    table = power_table(f, frobenius_basis(m, 1009))
    assert len(table.pows) <= 2 * (1009).bit_length()
    assert fedder_criterion(f.gens, 2) is False
    level2 = power_table(f, frobenius_basis(m, 1009**2))
    assert level2.below is table
    assert len(table.pows) <= 2 * (1009).bit_length()
    assert len(level2.pows) <= 2 * (1009).bit_length() + 1


def test_fedder_reads_every_entry_of_the_corner():
    """(xy(x+y))^(q-1) lies in the bracket square of (x, y) over F_2, but the
    product of any two of x, y, x+y escapes it: the corner probe reads the
    first, middle and last entries. An entry outside (x, y) is a row too."""
    R = PolynomialRing(2, ["x", "y"])
    x, y = R.gens()
    f_seq = [x, y, x + y]
    assert fedder_criterion(f_seq, 1) is False
    for i in range(3):
        assert fedder_criterion(f_seq[:i] + f_seq[i + 1:], 1) is True
    assert fedder_criterion([R.poly("1+x"), y], 2) is True


@st.composite
def fedder_cases(draw):
    """(f_seq, e): one or two polynomials, with or without a constant term, in
    two or three variables over F_p, p in {2,3,5}; e in 1..3 for p = 2 and
    1..2 otherwise."""
    p = draw(st.sampled_from([2, 3, 5]))
    nvars = draw(st.sampled_from([2, 3]))
    R = PolynomialRing(p, ["x", "y", "z"][:nvars])
    mono = st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars).map(tuple)
    terms = st.dictionaries(mono, st.integers(1, p - 1), min_size=1, max_size=2)
    f_seq = [R.from_dict(draw(terms)) for _ in range(draw(st.integers(1, 2)))]
    return f_seq, draw(st.integers(1, 3 if p == 2 else 2))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(fedder_cases())
def test_fedder_matches_direct_power(case):
    """Fedder's test at level e against the direct power of the product,
    both by `fedder_criterion` at level e and by the payload's row, which
    reads level 1 (Fedder's lemma)."""
    f_seq, e = case
    ring = f_seq[0].ring
    q = ring.p ** e
    prod = ring.one()
    for f in f_seq:
        prod = prod * f
    direct = any(all(x < q for x in mono) for mono in exponents(prod ** (q - 1)))
    assert fedder_criterion(f_seq, e) is direct
    assert fedder_payload(f_seq, [e], e)["rows"] == [{"e": e, "value": direct}]


@st.composite
def fpure_cases(draw):
    """(f_seq, e): one or two nonzero polynomials with no constant term, in
    two or three variables over F_p, p in {2,3,5}; e in 1..2."""
    p = draw(st.sampled_from([2, 3, 5]))
    nvars = draw(st.sampled_from([2, 3]))
    R = PolynomialRing(p, ["x", "y", "z"][:nvars])
    mono = st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars).map(tuple)
    terms = st.dictionaries(mono.filter(any), st.integers(1, p - 1), min_size=1, max_size=2)
    f_seq = [R.from_dict(draw(terms)) for _ in range(draw(st.integers(1, 2)))]
    return f_seq, draw(st.integers(1, 2))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(fpure_cases())
def test_volume_row_is_one_exactly_when_fedder_holds(case):
    """Against the ideal of all variables, the escape set of (f_1, ..., f_t)
    lies in the box [0, q-1]^t, and fills it exactly when its corner
    (q-1, ..., q-1) escapes: the level-e volume row is at most 1, with
    equality exactly when Fedder's test holds at level e."""
    f_seq, e = case
    ring = f_seq[0].ring
    seq = IdealSequence([Ideal(ring, [f]) for f in f_seq])
    fam = PFamily.frobenius(Ideal(ring, list(ring.gens())))
    row = volume_table(seq, fam, [e]).value(e)
    assert row <= 1
    assert (row == 1) is fedder_criterion(f_seq, e)


@st.composite
def fpure_label_cases(draw):
    """(f_seq, e_max): the sequences of `fedder_cases`, constant terms
    allowed, with e_max in 1..2."""
    f_seq, _ = draw(fedder_cases())
    return f_seq, draw(st.integers(1, 2))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(fpure_label_cases())
def test_fpure_label_is_set_exactly_when_the_volume_rows_are_one(case):
    """The label is set exactly when the sequence is a parameter sequence,
    each f_i lies in the ideal m of all variables, and every volume row
    against m up to e_max is 1; the table is built here, not by the label."""
    f_seq, e_max = case
    ring = f_seq[0].ring
    expected = is_parameter_sequence(f_seq) and all(any(mono) for f in f_seq for mono in exponents(f))
    if expected:
        seq = IdealSequence([Ideal(ring, [f]) for f in f_seq])
        table = volume_table(seq, PFamily.frobenius(Ideal(ring, list(ring.gens()))),
                             range(1, e_max + 1))
        expected = all(v == 1 for _, v in table.rows)
    label = fpure_ci_label(f_seq, e_max)
    assert label == (invariants.FPURE_CI_LABEL.format(e=e_max) if expected else None)


def test_parameter_sequence_examples(R2):
    x, y = R2.gens()
    assert is_parameter_sequence([x]) is True
    assert is_parameter_sequence([x, y]) is True
    assert is_parameter_sequence([x, x * y]) is False


def test_fpure_ci_label(R2):
    x, y = R2.gens()
    assert fpure_ci_label([x, y], 3) == "F-pure complete intersection (verified to level 3)"
    assert fpure_ci_label([R2.poly("x^2")], 2) is None
    # x, y^2+x is a regular sequence but the quotient is not reduced
    assert fpure_ci_label([x, R2.poly("y^2+x")], 2) is None
    # no level from 1 up is tested at e_max = 0, so nothing is certified:
    # not (x, y), and not the cusp, which fails Fedder's test at level 1
    cusp = [PolynomialRing(7, ["x", "y"]).poly("y^2+x^3")]
    assert fpure_ci_label([x, y], 0) is None
    assert fpure_ci_label(cusp, 0) is None and fpure_ci_label(cusp, 1) is None
    # the label needs a polynomial ambient ring
    assert fpure_ci_label([x], 3, Ideal(R2, [y])) is None


# -- checkers -----------------------------------------------------------------

def test_check_frob_shift_example(R2, m2):
    report = check_frob_shift(seq_of(R2, ["x"], ["y^2"]), m2, 1)
    assert report.ok and report.left == "8" and report.right == "8"


def test_check_simplex_bound_example(R2, m2):
    report = check_simplex_bound(seq_of(R2, ["x"], ["y^2"]), m2, 2)
    assert report.ok
    assert report.left == "3/16" and report.right == "1/2"


def test_check_hk_length_example(R2, m2):
    report = check_hk_length_inequality(seq_of(R2, ["x"]), m2, 2)
    assert report.ok and report.left == "16" and report.right == "16"


def test_check_union_example(R2, m2):
    parts = [Ideal(R2, [R2.poly("x^2"), R2.gens()[1]]), Ideal(R2, [R2.gens()[0], R2.poly("y^2")])]
    report = check_union_decomposition(seq_of(R2, ["x"], ["y"]), parts, 1)
    assert report.ok and report.left == "12" and report.right == "12"


def test_check_union_names_a_witness_when_the_sets_differ(R2, monkeypatch):
    """A wrong intersection (the first part alone) makes the check fail, and
    the witness is the least point in only one of the two sets."""
    monkeypatch.setattr(invariants, "ideal_intersection", lambda a, b: a)
    parts = [Ideal(R2, [R2.poly("x^2"), R2.gens()[1]]), Ideal(R2, [R2.gens()[0], R2.poly("y^2")])]
    report = check_union_decomposition(seq_of(R2, ["x"], ["y"]), parts, 1)
    assert not report.ok
    assert report.left == "8" and report.right == "12"
    assert report.witness == (0, 2)


def test_check_sup_identity_example(R2, m2):
    report = check_sup_identity(seq_of(R2, ["x"], ["y^2"]), m2, 2)
    assert report.ok and report.left == "4"


def test_checker_hypothesis_validation(R2, m2):
    x, y = R2.gens()
    with pytest.raises(HypothesisViolatedError):
        check_slice_bound(seq_of(R2, ["x"]), m2, 1)  # needs t >= 2
    with pytest.raises(HypothesisViolatedError):
        # J not inside the comparison ideal
        check_containment_monotone(seq_of(R2, ["x"]), m2, Ideal(R2, [R2.poly("x^2")]), 1)
    pres = Ideal(R2, [x * y])
    with pytest.raises(HypothesisViolatedError):
        check_union_decomposition(
            seq_of(R2, ["x"]), [m2, Ideal(R2, [x])], 1, pres
        )
    with pytest.raises(HypothesisViolatedError):
        check_hk_length_inequality(
            IdealSequence([Ideal(R2, [x, y])]), m2, 1
        )  # needs principal entries
    with pytest.raises(HypothesisViolatedError, match="^need at least two ideals to intersect$"):
        check_union_decomposition(seq_of(R2, ["x"]), [m2], 1)
    with pytest.raises(NotPrimaryError, match="^reference ideal is not primary"):
        check_hk_length_inequality(seq_of(R2, ["x"]), Ideal(R2, [x]), 1)


def test_check_level_refinement(R2, m2):
    fam = PFamily.frobenius(m2)
    report = check_level_refinement_bound(seq_of(R2, ["x"], ["y^2"]), fam, 1, 1, 1)
    assert report.ok
    assert report.params == {"e": 1, "e1": 1, "e2": 1}
    # a Frobenius family reads level e + e' of its own levels, and still
    # refuses a negative fixed or inner level, or a negative step e2
    for levels in [(-1, 1, 1), (1, -2, 1), (1, 2, -1)]:
        with pytest.raises(BadLevelError, match="^negative level -"):
            check_level_refinement_bound(seq_of(R2, ["x"]), fam, *levels)


def test_truncation_table_diagnostic(R2, m2):
    fam = PFamily.frobenius(m2)
    seq = seq_of(R2, ["x"], ["y^2+x"])
    report = truncation_table(seq, fam, range(1, 3), range(1, 3))
    assert report.ok and len(report.table) == 4
    # against the bracket-power family the normalized grid is constant 3/4
    assert all(Fraction(int(r["num"]), int(r["den"])) == Fraction(3, 4) for r in report.table)
    # an explicit family of the same levels reads the same grid cell by cell
    explicit = PFamily.explicit([frobenius_power(m2, 2**e) for e in range(3)])
    assert truncation_table(seq, explicit, range(1, 3), range(1, 3)).table == report.table


def test_the_size_only_checkers_count_on_the_automaton():
    """On (x; y^2 + x) over F_3 at e = 5 the level refinement bound reads
    levels 6 and 7 of (x, y)'s own family and the length inequality reads
    level 5, each counted on the root automaton: within budgets of 1,000
    and 300 units, which sweeps of the fixed family J^[3^5] (7,840 units)
    and of the level-5 escape set (728) overrun."""
    R = PolynomialRing(3, ["x", "y"])
    seq, J = seq_of(R, ["x"], ["y^2+x"]), Ideal(R, list(R.gens()))
    report = check_level_refinement_bound(seq, PFamily.frobenius(J), 5, 1, 1, budget=1000)
    assert (report.ok, report.left, report.right) == (True, "151679/3", "459905/9")
    report = check_hk_length_inequality(seq, J, 5, budget=300)
    assert (report.ok, report.left, report.right) == (True, "59049", "101236")


def test_check_threshold_bounds(R2, m2):
    report = check_threshold_bounds(seq_of(R2, ["x"], ["y^2"]), m2, 2)
    assert report.ok
    assert Fraction(report.left) <= Fraction(report.right)
    # for (x; y) the product (nu(x) + 1)(nu(y) + 1)/16 = 1 is below the
    # simplex term 9/8, so the right side is the product of the entries' sizes
    seq = seq_of(R2, ["x"], ["y"])
    report = check_threshold_bounds(seq, m2, 2)
    assert (report.ok, report.left, report.right) == (True, "9/16", "1")
    assert_sides(report, cold_sides(seq, m2, 2)["threshold_bounds"])


def test_check_report_json(R2, m2):
    report = check_frob_shift(seq_of(R2, ["x"], ["y^2"]), m2, 1)
    payload = json.loads(report.to_json())
    assert payload["check"] == "frob_shift"
    assert payload["ok"] is True
    assert payload["params"] == {"e": 1}
