import hashlib
import importlib
import io
import itertools
import math
import pkgutil
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import frobvol.regions as regions
from frobvol.errors import (
    BadInputError,
    BadLevelError,
    BudgetExceededError,
    HypothesisViolatedError,
)
from frobvol.cli import parse_spec
from frobvol.groebner import (
    Ideal,
    PowerTable,
    _dedup,
    frobenius_basis,
    frobenius_power,
    power_table,
)
from frobvol.regions import (
    BudgetCounter,
    IdealSequence,
    PFamily,
    axis_bounds,
    border_points,
    box_region,
    containment_exponents,
    downset_csv,
    escape_set,
    escape_sets,
    escape_sizes,
    escapes,
    staircase_svg,
    verify_cover,
)
from frobvol.invariants import nu, threshold_table, volume_table
from frobvol.ring import PolynomialRing
from corpus import COVER_PARAMS, load, run_capped
from oracles import (
    brute_force_escape_points,
    downset_size_inclusion_exclusion,
    exponents,
    fill_refinement,
    ideal_power,
    least_uncovered,
    monomial_escape_rows,
    power,
    random_poly,
    region_volume,
    rows_summary,
)


@pytest.fixture
def R2():
    return PolynomialRing(2, ["x", "y"])


def csv_text(downsets) -> str:
    """The CSV `downset_csv` writes for `downsets`."""
    out = io.StringIO()
    downset_csv(downsets, out)
    return out.getvalue()


def seq_of(ring, *gen_lists):
    return IdealSequence([Ideal(ring, [ring.poly(g) for g in gens]) for gens in gen_lists])


@pytest.fixture
def worked(R2):
    m = Ideal(R2, list(R2.gens()))
    fam = PFamily.frobenius(m)
    seq_f = seq_of(R2, ["x"], ["y^2"])
    seq_g = seq_of(R2, ["x"], ["y^2+x"])
    return m, fam, seq_f, seq_g


def test_escapes_examples(worked, R2):
    m, fam, seq_f, _ = worked
    assert escapes((1, 0), seq_f, fam, 1)
    assert not escapes((1, 1), seq_f, fam, 1)
    assert escapes((0, 0), seq_f, fam, 1)


def test_escape_set_counts(worked, R2):
    _, fam, seq_f, seq_g = worked
    assert escape_set(seq_f, fam, 2).size == 8
    assert escape_set(seq_g, fam, 2).size == 12
    R3 = PolynomialRing(3, ["x", "y"])
    m3 = Ideal(R3, list(R3.gens()))
    ds = escape_set(seq_of(R3, ["x"], ["y"]), PFamily.frobenius(m3), 1)
    assert ds.size == 9
    assert sorted(ds.points()) == [(a, b) for a in range(3) for b in range(3)]


def test_positive_counts(worked):
    _, fam, seq_f, seq_g = worked
    assert escape_set(seq_g, fam, 1).positive_size == 0
    assert escape_set(seq_g, fam, 2).positive_size == 5
    assert escape_set(seq_f, fam, 2).positive_size == 3


def test_escape_set_matches_bruteforce(worked):
    _, fam, seq_f, seq_g = worked
    for seq in (seq_f, seq_g):
        for e in (1, 2):
            assert set(escape_set(seq, fam, e).points()) == brute_force_escape_points(seq, fam, e)


def test_down_closedness_spot_checks(worked):
    _, fam, _, seq_g = worked
    rng = random.Random(17)
    ds = escape_set(seq_g, fam, 3)
    for _ in range(25):
        mp = rng.choice(ds.max_points)
        below = tuple(rng.randint(0, c) for c in mp)
        assert below in ds
        assert escapes(below, seq_g, fam, 3)


def test_cardinality_bound(worked):
    _, fam, seq_f, seq_g = worked
    for seq in (seq_f, seq_g):
        mus = seq.generator_counts()
        ells = containment_exponents(seq, fam)
        for e in (1, 2, 3):
            cap = (2 ** (e * seq.t))
            for mu, ell in zip(mus, ells):
                cap *= mu * ell
            ds = escape_set(seq, fam, e)
            assert ds.size <= cap
            # every coordinate stays below its per-axis finiteness bound
            bounds = axis_bounds(seq, fam, e)
            for mp in ds.max_points:
                assert all(c < b for c, b in zip(mp, bounds))


def test_floor_membership(worked):
    _, fam, _, seq_g = worked
    rng = random.Random(23)
    e = 2
    ds = escape_set(seq_g, fam, e)
    q = 2**e
    for _ in range(30):
        corner = rng.choice(ds.max_points)
        alpha = tuple(
            Fraction(rng.randint(0, 8 * c), 8 * q) if c else Fraction(0) for c in corner
        )
        floored = tuple((q * a).numerator // (q * a).denominator for a in alpha)
        assert floored in ds


def test_border_examples(R2):
    # one-dimensional: {0, 1/2, 1} has the single border point 1
    line = box_region(1, 1, 2, [(2,)])
    assert border_points(line, (2,)) == frozenset({(2,)})
    # full square grid: border is the upper-right L
    grid = box_region(2, 1, 2, [(2, 2)])
    expected = {(a, b) for a in range(3) for b in range(3) if a == 2 or b == 2}
    assert border_points(grid, (2, 2)) == frozenset(expected)


def test_border_figure_data(worked, R2):
    _, fam, _, seq_g = worked
    border = border_points(escape_set(seq_g, fam, 2), axis_bounds(seq_g, fam, 2))
    expected = {(0, 3), (0, 4), (1, 1), (1, 2), (1, 3), (2, 1), (3, 0), (3, 1), (4, 0)}
    assert border == frozenset(expected)


def test_fill_refinement_examples():
    assert fill_refinement({(1,)}, 1, 2) == {(1,), (2,)}
    assert fill_refinement(set(), 1, 2) == set()
    assert fill_refinement({(1, 1)}, 1, 2) == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_covering_figure_l_set(worked):
    """The border cover of the figure, read point by point off its rule: a
    fine point n is in it when ceil(n/2) - k*(1, 1) is a border point for
    some k <= mu = 1."""
    _, fam, _, seq_g = worked
    border = border_points(escape_set(seq_g, fam, 2), axis_bounds(seq_g, fam, 2))
    L_set = {
        n for n in itertools.product(range(13), repeat=2)
        if any((-(-n[0] // 2) - k, -(-n[1] // 2) - k) in border for k in (0, 1))
    }
    stars = set()
    for xs, ys in [
        (0, [5, 6, 7, 8]), (1, range(1, 11)), (2, range(1, 11)),
        (3, range(1, 9)), (4, range(1, 9)), (5, range(0, 5)), (6, range(0, 5)),
        (7, range(0, 5)), (8, range(0, 5)), (9, [1, 2]), (10, [1, 2]),
    ]:
        stars.update((xs, yy) for yy in ys)
    assert L_set == stars


def test_verify_cover_examples(worked):
    _, fam, seq_f, seq_g = worked
    assert verify_cover(seq_f, fam, 2, 1)
    assert verify_cover(seq_g, fam, 1, 2)
    R3 = PolynomialRing(3, ["x", "y"])
    m3 = Ideal(R3, list(R3.gens()))
    assert verify_cover(seq_of(R3, ["x"], ["y"]), PFamily.frobenius(m3), 1, 1)


def test_verify_cover_witness_without_a_border(worked, R2, monkeypatch):
    """With no border the second cover is empty, so the witness is the least
    fine point n with ceil(n/p^e2) outside the coarse escape set V."""
    monkeypatch.setattr(regions, "border_points", lambda V, caps: frozenset())
    x, _ = R2.gens()
    seq = IdealSequence([Ideal(R2, [x])])
    fam_x = PFamily.frobenius(Ideal(R2, [x]))
    # V_1 = {0, 1} fills {0, 1, 2} over 4; V_2 = {0, ..., 3}
    check = verify_cover(seq, fam_x, 1, 1)
    assert not check and check.witness == (3,)
    # V_2 of the figure has the maximal points (1, 3) and (3, 1): 4 = ceil(7/2)
    _, fam, _, seq_g = worked
    assert verify_cover(seq_g, fam, 2, 1).witness == (0, 7)


@pytest.mark.parametrize("name,e1,e2", [
    (name, e1, e2) for name in sorted(COVER_PARAMS) for e1, e2 in COVER_PARAMS[name]
])
def test_verify_cover_matches_the_point_by_point_fills(name, e1, e2, monkeypatch):
    """`verify_cover` reads both covers off coarse cells; the oracle fills
    them point by point. With every other border point dropped some cases
    fail, and the verdict and the least uncovered point must agree."""
    spec = load(name)
    seq, fam, pres = spec.sequence(), spec.family(), spec.presentation()
    real = regions.border_points
    kept = {}

    def thinned(V, caps):
        kept["border"] = frozenset(sorted(real(V, caps))[::2])
        return kept["border"]

    monkeypatch.setattr(regions, "border_points", thinned)
    check = verify_cover(seq, fam, e1, e2, pres)
    witness = least_uncovered(
        escape_set(seq, fam, e1 + e2, pres).points(), escape_set(seq, fam, e1, pres).points(),
        kept["border"], max(seq.generator_counts()), fam.p, e2,
    )
    assert (check.ok, check.witness) == (witness is None, witness)


def test_unit_reference_rejected(R2):
    x, _ = R2.gens()
    seq = IdealSequence([Ideal(R2, [x])])
    fam = PFamily.frobenius(Ideal(R2, [R2.one()]))
    with pytest.raises(HypothesisViolatedError, match="^reference ideal must be proper$"):
        escape_set(seq, fam, 1)


def test_hypothesis_violation_names_generator(R2):
    x, y = R2.gens()
    seq = IdealSequence([Ideal(R2, [y])])
    fam = PFamily.frobenius(Ideal(R2, [x]))
    with pytest.raises(HypothesisViolatedError) as info:
        containment_exponents(seq, fam)
    assert str(info.value) == "generator y is not in the radical of (x), so no power of (y) lies in it"


def test_border_injection_bound(worked):
    _, fam, seq_f, seq_g = worked
    for seq in (seq_f, seq_g):
        mus = seq.generator_counts()
        ells = containment_exponents(seq, fam)
        t = seq.t
        for e1 in (1, 2):
            border = border_points(escape_set(seq, fam, e1), axis_bounds(seq, fam, e1))
            bound = 0
            for n in range(t):
                term = 1
                for j in range(t):
                    if j != n:
                        term *= mus[j] * ells[j] + 1
                bound += term
            assert len(border) <= (2 ** (e1 * (t - 1))) * bound


def test_downset_cardinality_inclusion_exclusion(worked):
    _, fam, seq_f, seq_g = worked
    for seq in (seq_f, seq_g):
        for e in (1, 2, 3):
            ds = escape_set(seq, fam, e)
            assert ds.size == downset_size_inclusion_exclusion(ds.max_points)


def test_box_region_volumes(worked, R2):
    _, fam, seq_f, _ = worked
    ds = escape_set(seq_f, fam, 2)
    assert region_volume(ds) == Fraction(3, 16)
    seq_xy = seq_of(R2, ["x"], ["y"])
    ds3 = escape_set(seq_xy, fam, 3)
    assert region_volume(ds3) == Fraction(49, 64)
    assert region_volume(box_region(2, 1, 2, [(0, 0)])) == 0


def test_downset_from_max_points(worked):
    _, fam, _, seq_g = worked
    ds = escape_set(seq_g, fam, 2)
    assert ds.max_points == ((1, 3), (3, 1))
    assert ds.size == 12
    assert ds.positive_size == 5
    assert (0, 3) in ds and (2, 2) not in ds
    assert (-1, 0) not in ds and (0, -1) not in ds


def test_down_set_points_are_the_sorted_union_of_boxes():
    """Points stream from the rows in sorted order, each once, also where
    one box contains another; `box_region` counts them and keeps the
    maximal corners, and `downset_csv` writes them row by row."""
    rng = random.Random(23)
    for t in (1, 2, 3):
        for _ in range(20):
            corners = [tuple(rng.randint(0, 4) for _ in range(t)) for _ in range(rng.randint(1, 4))]
            union = set()
            for m in corners:
                union.update(itertools.product(*(range(v + 1) for v in m)))
            assert box_region(t, 1, 2, corners).points() == sorted(union)
            positive = sum(1 for pt in union if min(pt) >= 1)
            maximal = sorted(
                a for a in union
                if not any(b != a and all(x <= y for x, y in zip(a, b)) for b in union)
            )
            region = box_region(t, 1, 2, corners)
            assert region.size == len(union)
            assert region.positive_size == positive
            assert list(region.max_points) == maximal
            lines = [f"{e}," + ",".join(map(str, pt)) for e in (1, 3) for pt in sorted(union)]
            header = ",".join(["e"] + [f"a{i + 1}" for i in range(t)])
            both = csv_text([region, box_region(t, 3, 2, corners)])
            assert both == "\n".join([header] + lines) + "\n"
    assert csv_text(box_region(2, 1, 2, [])) == "e,a1,a2\n"


def rows_of(points) -> list:
    """The rows (prefix, top) of a set of points, in ascending prefix order."""
    tops = {}
    for pt in sorted(points):
        tops[pt[:-1]] = pt[-1]
    return list(tops.items())


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(1, 4).flatmap(lambda t: st.tuples(
    st.just(t), st.lists(st.tuples(*[st.integers(0, 5)] * t), max_size=6))))
def test_down_set_rows_match_the_union_of_boxes(case):
    """Each row of `box_region` is a prefix of the union with its largest
    last coordinate, the prefixes in sorted order; corners may repeat or
    contain each other, and no corners give the empty set of dimension t."""
    t, corners = case
    union = set()
    for m in corners:
        union.update(itertools.product(*(range(v + 1) for v in m)))
    region = box_region(t, 1, 2, corners)
    assert region.dimension == t
    assert list(region.rows.items()) == rows_of(union)


def test_csv_export_to_a_stream_holds_one_row_at_a_time():
    """The escape sets of ex_g at e = 1..8 make a 565 KB CSV. Written to a
    stream that only counts and hashes, the export allocates under 64 KB at
    its peak, and the stream gets exactly what an `io.StringIO` gets."""

    class Sink(io.TextIOBase):
        def __init__(self):
            self.chars = 0
            self.digest = hashlib.sha256()

        def write(self, text):
            self.chars += len(text)
            self.digest.update(text.encode())
            return len(text)

    spec = parse_spec("p=2; ring x,y; J: x,y; seq: x; y^2+x; e: 1..8")
    sets = list(escape_sets(spec.sequence(), spec.family(), spec.levels()))
    text = csv_text(sets)
    assert len(text) > 500_000
    sink = Sink()
    tracemalloc.start()
    try:
        assert downset_csv(sets, sink) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert sink.chars == len(text)
    assert sink.digest.digest() == hashlib.sha256(text.encode()).digest()


def test_axis_bounds(worked, R2):
    m, fam, seq_f, _ = worked
    assert axis_bounds(seq_f, fam, 2) == (4, 4)
    seq_pair = IdealSequence([Ideal(R2, [R2.poly("x"), R2.poly("y^2")])])
    # two generators, ell = 1 (I is inside m), so bound 2 * 1 * 4
    assert axis_bounds(seq_pair, fam, 2) == (8,)


def test_csv_export(worked):
    _, fam, seq_f, _ = worked
    ds = escape_set(seq_f, fam, 1)
    text = csv_text(ds)
    assert text == "e,a1,a2\n1,0,0\n1,1,0\n"
    multi = csv_text([escape_set(seq_f, fam, e) for e in (1, 2)])
    assert multi.startswith("e,a1,a2\n1,0,0\n1,1,0\n2,0,0\n")
    with pytest.raises(BadInputError, match="mixed dimensions"):
        downset_csv([ds, box_region(3, 1, 2, [(1, 0, 1)])], io.StringIO())


def test_staircase_outline_matches_region(worked):
    from frobvol.regions import _staircase_path

    _, fam, _, seq_g = worked
    path = _staircase_path(escape_set(seq_g, fam, 2))
    F = Fraction
    assert path == [
        (F(0), F(3, 4)), (F(1, 4), F(3, 4)), (F(1, 4), F(1, 4)),
        (F(3, 4), F(1, 4)), (F(3, 4), F(0)),
    ]


def test_svg_export(worked):
    _, fam, seq_f, seq_g = worked
    downsets = [escape_set(seq_g, fam, e) for e in (1, 2)]
    svg = staircase_svg(downsets)
    assert svg.startswith("<svg ")
    assert svg.count("<polyline") == 2
    assert "e=1" in svg and "e=2" in svg
    assert svg == staircase_svg(downsets)  # stable
    with pytest.raises(BadInputError):
        staircase_svg([box_region(3, 1, 2, [(1, 1, 1)])])


def test_budget_guard(worked):
    _, fam, _, seq_g = worked
    with pytest.raises(BudgetExceededError):
        escape_set(seq_g, fam, 4, budget=10)
    counter = BudgetCounter(10**6)
    escape_set(seq_g, fam, 2, budget=counter)
    assert counter.used > 0


def test_explicit_family(R2):
    m = Ideal(R2, list(R2.gens()))
    levels = [ideal_power(m, 2**e) for e in range(3)]
    fam = PFamily.explicit(levels)
    seq = seq_of(R2, ["x"], ["y"])
    assert escape_set(seq, fam, 1).size == 3
    with pytest.raises(BadLevelError):
        fam.level_ideal(3)
    with pytest.raises(BadInputError):
        # x^2 (the bracket square of x) is not inside (x^3, y^3)
        PFamily.explicit([m, Ideal(R2, [R2.poly("x^3"), R2.poly("y^3")])])


def test_escape_sets_are_order_independent(R2):
    """Listing the variables as y, x gives the same polynomials another
    grevlex order, so other Groebner bases; the escape sets agree, and
    match the brute-force oracle."""
    rng = random.Random(59)
    other = PolynomialRing(2, ["y", "x"])
    texts = ["x^2+y", "y^2+x*y", "x*y", "x+y"]
    for _ in range(6):
        gens = [rng.choice(texts), rng.choice(texts)]
        seq = seq_of(R2, [gens[0]], [gens[1]])
        fam = PFamily.frobenius(Ideal(R2, list(R2.gens())))
        ds_a = escape_set(seq, fam, 2)
        ds_b = escape_set(
            seq_of(other, [gens[0]], [gens[1]]),
            PFamily.frobenius(Ideal(other, list(other.gens()))), 2,
        )
        assert ds_a.max_points == ds_b.max_points
        assert set(ds_a.points()) == brute_force_escape_points(seq, fam, 2)


def test_explicit_family_in_quotient(R2):
    x, y = R2.gens()
    pres = Ideal(R2, [x * y])
    # the p-th bracket power lands in the next level only modulo the relation
    lvl0 = Ideal(R2, [R2.poly("x+y")])
    lvl1 = Ideal(R2, [R2.poly("x^2+y^2+x*y")])
    with pytest.raises(BadInputError):
        PFamily.explicit([lvl0, lvl1])  # fails in the ambient ring
    fam = PFamily.explicit([lvl0, lvl1], pres)
    seq = IdealSequence([Ideal(R2, [x])])
    assert escape_set(seq, fam, 1, pres).size >= 1


def test_explicit_family_bad_level_propagates(R2):
    m = Ideal(R2, list(R2.gens()))
    fam = PFamily.explicit([m, frobenius_power(m, 2)])
    seq = IdealSequence([Ideal(R2, [R2.gens()[0]])])
    assert escapes((1,), seq, fam, 1)
    with pytest.raises(BadLevelError):
        escapes((1,), seq, fam, 2)
    with pytest.raises(BadLevelError):
        escape_set(seq, fam, 5)


def _worked_level_two(R):
    """The level-2 escape set of x; y^2 + x against (x, y)."""
    return escape_set(seq_of(R, ["x"], ["y^2+x"]), PFamily.frobenius(Ideal(R, R.gens())), 2)


@pytest.mark.parametrize("build, message", [
    (lambda R: IdealSequence([]), r"^need at least one sequence entry$"),
    (lambda R: IdealSequence([R.gens()[0]]), r"^sequence entry is not an ideal: "),
    (lambda R: IdealSequence([Ideal(R, [R.gens()[0]]), Ideal(PolynomialRing(3, ["x"]), [])]),
     r"^sequence entries live in different rings$"),
    (lambda R: IdealSequence([Ideal(R, [R.zero()])]), r"^sequence entries must be nonzero ideals$"),
    (lambda R: seq_of(R, ["x"]).truncated(), r"^cannot truncate a length-1 sequence$"),
    (lambda R: PFamily.frobenius(Ideal(R, [])), r"^reference ideal must be nonzero$"),
    (lambda R: PFamily.explicit([]), r"^explicit family needs at least level 0$"),
    (lambda R: escapes((1,), seq_of(R, ["x"], ["y"]), PFamily.frobenius(Ideal(R, R.gens())), 1),
     r"^point arity 1 != sequence length 2$"),
    (lambda R: escapes((1, -1), seq_of(R, ["x"], ["y"]), PFamily.frobenius(Ideal(R, R.gens())), 1),
     r"^negative exponent in \(1, -1\)$"),
    (lambda R: downset_csv([], io.StringIO()), r"^nothing to export$"),
    (lambda R: box_region(2, 1, 2, [(1,)]), r"^corner arity 1 != dimension 2$"),
    (lambda R: box_region(2, 1, 2, [(2, 1), (1, -1)]),
     r"^negative coordinate in corner \(1, -1\)$"),
    (lambda R: (0,) in _worked_level_two(R), r"^point arity 1 != down-set dimension 2$"),
    (lambda R: (0, 0, 5) in _worked_level_two(R), r"^point arity 3 != down-set dimension 2$"),
], ids=["empty_sequence", "not_an_ideal", "mixed_rings", "zero_entry", "truncate_one",
        "zero_reference", "empty_family", "point_arity", "negative_exponent", "empty_export",
        "corner_arity", "negative_corner", "contains_short_point", "contains_long_point"])
def test_input_checks_name_what_they_reject(R2, build, message):
    with pytest.raises(BadInputError, match=message):
        build(R2)


def test_quotient_membership(R2):
    x, y = R2.gens()
    pres = Ideal(R2, [x * y])
    m = Ideal(R2, [x, y])
    seq = IdealSequence([Ideal(R2, [x])])
    fam = PFamily.frobenius(m)
    ds = escape_set(seq, fam, 2, pres)
    assert ds.size == 4  # x^a stays outside (x^4, y^4, xy) exactly for a <= 3
    assert verify_cover(seq, fam, 1, 1, pres)


def test_presentation_keyed_caches(R2):
    x, y = R2.gens()
    m = Ideal(R2, [x, y])
    fam = PFamily.frobenius(m)
    seq = IdealSequence([m])  # single entry generated by both variables
    pres = Ideal(R2, [x * y])
    plain = escape_set(seq, fam, 1)
    quotient = escape_set(seq, fam, 1, pres)
    # m^2 is inside (x^2, y^2) + (xy) but not inside (x^2, y^2)
    assert plain.size == 3 and quotient.size == 2
    assert escape_set(seq, fam, 1).size == 3  # cache entries stay separate


def test_caches_key_on_content():
    text = "p=3; ring x,y; J: x^2,y; seq: x+y; x*y; e: 1..2"
    first, second = parse_spec(text), parse_spec(text)
    seq_a, seq_b = first.sequence(), second.sequence()
    fam_a, fam_b = first.family(), second.family()
    assert seq_a is not seq_b and fam_a is not fam_b
    ds = escape_set(seq_a, fam_a, 2)
    bases, tables = frobenius_basis.cache_info().misses, power_table.cache_info().misses
    assert escape_set(seq_b, fam_b, 2) == ds
    assert frobenius_basis.cache_info().misses == bases
    assert power_table.cache_info().misses == tables


def test_the_process_wide_caches_are_the_four_named():
    """Every module-level callable of the package with `cache_info` is one
    of the four caches keyed on ideals and bases; an unbounded cache is
    added here on purpose or not at all."""
    package = importlib.import_module("frobvol")
    cached = set()
    for info in pkgutil.iter_modules(package.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"frobvol.{info.name}")
        cached |= {name for name, value in vars(module).items()
                   if callable(value) and hasattr(value, "cache_info")}
    assert cached == {"groebner_basis", "frobenius_basis", "power_table", "power_containment_index"}


def test_equal_level_ideals_share_one_power_table():
    R = PolynomialRing(3, ["x", "y"])
    J = Ideal(R, [R.poly("x^2"), R.poly("y")])
    seq = IdealSequence([Ideal(R, [R.poly("x+y")]), Ideal(R, [R.poly("x*y")])])
    # the finiteness bounds of each family read tables modulo its own J_{p^0}
    axis_bounds(seq, PFamily.frobenius(J), 0)
    for e in (0, 1):
        shifted = escape_set(seq, PFamily.frobenius(frobenius_power(J, 3)), e)
        tables = power_table.cache_info().misses
        assert escape_set(seq, PFamily.frobenius(J), e + 1) == shifted
        assert power_table.cache_info().misses == tables


# -- entry powers: base-p digits (principal) and I^(k-1)*I steps --------------

_LOW_MONOS = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


@st.composite
def power_cases(draw, ngens, max_k=None):
    """(power table, entry, k) with k below the axis bound (and max_k), over
    F_p[x,y] or F_p[x,y]/(y^2-x^3), reference (x,y)^[p^e] with e <= 2."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    R = PolynomialRing(p, ["x", "y"])
    gens = []
    for _ in range(ngens):
        monos = draw(st.lists(st.sampled_from(_LOW_MONOS), min_size=1, max_size=3, unique=True))
        gens.append(R.from_dict({m: draw(st.integers(1, p - 1)) for m in monos}))
    I = Ideal(R, gens)
    seq = IdealSequence([I])
    fam = PFamily.frobenius(Ideal(R, list(R.gens())))
    e = draw(st.integers(0, 2))
    pres = Ideal(R, [R.poly("y^2-x^3")]) if draw(st.booleans()) else None
    bound = axis_bounds(seq, fam, e, pres)[0]
    k = draw(st.integers(0, min(bound, max_k or bound) - 1))
    return power_table(I, fam.level_basis(e, pres)), I, k


@settings(derandomize=True, deadline=None, max_examples=60)
@given(power_cases(ngens=1))
def test_principal_entry_power_matches_direct_power(case):
    table, I, k = case
    assert table.power(k) == _dedup([table.basis.reduce(power(I.gens[0], k))])


# ideal_power of two generators grows fast, so k stays small but crosses p
@settings(derandomize=True, deadline=None, max_examples=40)
@given(power_cases(ngens=2, max_k=16))
def test_two_generator_entry_power_matches_ideal_power(case):
    table, I, k = case
    expected = _dedup(table.basis.reduce(g) for g in ideal_power(I, k).gens)
    assert set(table.power(k)) == set(expected)


# -- escape sets on random small specs against the brute-force oracle ---------

# reference ideals with radical (x, y): monomial, binomial, and (x, y) in the
# quotient by y^2 - x^3
_REFERENCES = [
    (["x", "y"], None),
    (["x^2", "y"], None),
    (["x^2+y^2", "x*y"], None),
    (["x", "y"], "y^2-x^3"),
]


@st.composite
def escape_cases(draw):
    """(seq, fam, e, pres) over F_p[x,y] with p in {2,3,5}, t <= 2 entries of
    one or two generators, e <= 2. The oracle builds every power in its
    bounding box from scratch, so the level is lowered until the box has at
    most 100 cells and no side longer than 20."""
    p = draw(st.sampled_from([2, 3, 5]))
    R = PolynomialRing(p, ["x", "y"])

    def gen():
        monos = draw(st.lists(st.sampled_from(_LOW_MONOS), min_size=1, max_size=2, unique=True))
        return R.from_dict({m: draw(st.integers(1, p - 1)) for m in monos})

    entries = [Ideal(R, [gen() for _ in range(draw(st.integers(1, 2)))])
               for _ in range(draw(st.integers(1, 2)))]
    seq = IdealSequence(entries)
    J, relation = draw(st.sampled_from(_REFERENCES))
    fam = PFamily.frobenius(Ideal(R, [R.poly(g) for g in J]))
    pres = Ideal(R, [R.poly(relation)]) if relation else None
    e = draw(st.integers(0, 2))
    while e:
        bounds = axis_bounds(seq, fam, e, pres)
        if math.prod(bounds) <= 100 and max(bounds) <= 20:
            break
        e -= 1
    return seq, fam, e, pres


@settings(derandomize=True, deadline=None, max_examples=60)
@given(escape_cases())
def test_escape_set_matches_bruteforce_on_random_specs(case):
    seq, fam, e, pres = case
    ds = escape_set(seq, fam, e, pres)
    expected = brute_force_escape_points(seq, fam, e, pres)
    assert set(ds.points()) == expected
    assert list(ds.rows.items()) == rows_of(expected)


@pytest.mark.parametrize("entries", [
    [["x", "y"], ["z"], ["x", "z"]],
    [["z"], ["x", "y"], ["x", "z"]],
    [["x"], ["y", "z", "x*y"], ["y+z"]],
], ids=["xy_z_xz", "z_xy_xz", "x_yzxy_y+z"])
@pytest.mark.parametrize("e", [0, 1, 2])
def test_three_entry_split_matches_bruteforce(entries, e):
    """The image rows of a t = 3 split, with a multi-generator entry in the
    middle or at the ends, against the brute-force points over F_2[x,y,z]."""
    R3 = PolynomialRing(2, ["x", "y", "z"])
    seq = seq_of(R3, *entries)
    fam = PFamily.frobenius(Ideal(R3, list(R3.gens())))
    ds = escape_set(seq, fam, e)
    expected = brute_force_escape_points(seq, fam, e)
    assert list(ds.rows.items()) == rows_of(expected)
    assert ds.size == len(expected)


@st.composite
def escape_point_cases(draw):
    """An `escape_cases` spec and a point in its finiteness box, or one step
    past it on some axis."""
    seq, fam, e, pres = draw(escape_cases())
    bounds = axis_bounds(seq, fam, e, pres)
    point = tuple(draw(st.integers(0, b)) for b in bounds)
    return seq, fam, e, pres, point


@settings(derandomize=True, deadline=None, max_examples=60)
@given(escape_point_cases())
def test_escapes_agrees_with_escape_set(case):
    seq, fam, e, pres, point = case
    assert escapes(point, seq, fam, e, pres) == (point in escape_set(seq, fam, e, pres))


# -- escape sets at high levels against the closed form -----------------------

# (p, e, monomial principal entries, monomial J) over F_p[x, y]
_MONOMIAL_CASES = [
    (2, 8, ["x", "y"], ["x", "y"]),
    (3, 5, ["x^2*y", "x*y^3"], ["x^2", "y^3"]),
    (2, 6, ["x", "y", "x*y"], ["x", "y"]),
    (2, 9, ["x*y", "x^3"], ["x", "y^2"]),
    (2, 10, ["x^3*y", "x*y^2"], ["x^2", "y^2"]),
    (3, 6, ["x^2", "x*y"], ["x", "y^2"]),
    (5, 6, ["x^25*y^5", "x^5*y^25"], ["x", "y"]),
    (2, 7, ["x^2", "y^3", "x*y"], ["x^2", "y"]),
    (3, 6, ["x^9*y^3", "x^3*y^9", "x*y"], ["x", "y"]),
]


@pytest.mark.parametrize("p, e, entries, J", _MONOMIAL_CASES)
def test_escape_set_matches_closed_form_at_high_levels(p, e, entries, J):
    R = PolynomialRing(p, ["x", "y"])
    seq = seq_of(R, *([g] for g in entries))
    fam = PFamily.frobenius(Ideal(R, [R.poly(g) for g in J]))
    ds = escape_set(seq, fam, e)

    def exponent(text):
        (mono,) = exponents(R.poly(text))
        return mono

    rows = monomial_escape_rows([exponent(g) for g in entries], [exponent(g) for g in J], p ** e)
    assert (ds.size, ds.positive_size, list(ds.max_points)) == rows_summary(rows)


# -- probe counts --------------------------------------------------------------

def test_row_bounds_cut_the_probes_of_a_sweep(worked):
    _, fam, _, seq_g = worked
    counter = BudgetCounter(10**6)
    escape_set(seq_g, fam, 8, budget=counter)
    assert counter.used <= 768  # a binary search from the axis bound per row takes 1,536


def test_a_sweep_charges_every_probe(worked, R2):
    """The first axis reads the power table without a product by the unit,
    and the last axis asks `meets`; each probe is charged all the same.
    Walked from level 0 (`escape_sets`), the top level starts each row from
    the rows one level down and takes fewer probes."""
    _, fam, _, seq_g = worked
    cases = ((seq_g, 8, 520, 512), (seq_of(R2, ["x"], ["y"], ["x+y"]), 5, 2626, 2376))
    for seq, e, probes, warm in cases:
        counter = BudgetCounter(10**6)
        escape_set(seq, fam, e, budget=counter)
        assert counter.used == probes
        counter = BudgetCounter(10**6)
        used = [counter.used for _ in escape_sets(seq, fam, range(e + 1), budget=counter)]
        assert used[-1] - used[-2] == warm


def test_nu_charges_each_automaton_edge_once():
    """nu of the cusp over F_3 is counted on its Frobenius-root automaton:
    two states, (1) and (x, y), and p = 3 digit edges from each, 6 edges
    charged once however high the level. The weights are charged as sweep
    probes: each state's one probe of whether it lies in J, and no probe
    of the sweep from (1), whose one row the axis bound 1 settles; each
    level the counts pushed up, by their bits: 2 at level 1, 164 up to
    level 8, 4,860 up to level 40. 4373 is 12222222 in base 3."""
    R = PolynomialRing(3, ["x", "y"])
    cusp, m = Ideal(R, [R.poly("y^2+x^3")]), Ideal(R, list(R.gens()))
    for e, value, edges, pushed in ((1, 1, 3, 2), (8, 4373, 6, 164), (40, 2 * 3**39 - 1, 6, 4860)):
        counter = BudgetCounter(10**6)
        assert nu(cusp, m, e, budget=counter) == value
        assert counter.used == edges + 2 + pushed


def test_a_one_entry_volume_table_charges_like_the_threshold_table():
    """Over levels 7..8 both tables count the cusp on one automaton, as
    `nu` does, so each charges what `nu` at level 8 charges: 172, its
    weights charged as sweep probes."""
    R = PolynomialRing(3, ["x", "y"])
    cusp, m = Ideal(R, [R.poly("y^2+x^3")]), Ideal(R, list(R.gens()))
    used = []
    for table in (
        lambda counter: threshold_table(cusp, m, range(7, 9), budget=counter),
        lambda counter: volume_table(IdealSequence([cusp]), PFamily.frobenius(m), range(7, 9),
                                     budget=counter),
    ):
        counter = BudgetCounter(10**6)
        table(counter)
        used.append(counter.used)
    assert used == [172, 172]


def test_a_large_characteristic_costs_about_log_p_edges():
    """Over F_p with p = 2^31 - 1 every digit of x leads from (1) back to
    (1), so the two corners of [0, p) settle the whole box: nu(x, (x), e)
    = p^e - 1 from 2 edges, one sweep probe for the weight of (1) (it
    escapes (x); the axis bound 1 settles its row) and one pushed count a
    level, charged by its bits (1, 31 and 62 up to level 3), where
    enumerating the digits would take p edges. The
    cusp over F_211 (p = 1 mod 6, so nu = ceil(5q/6) - 1) needs more
    boxes, still far fewer than the 2 * 211 edges of its two states."""
    p = 2**31 - 1
    R = PolynomialRing(p, ["x"])
    x = Ideal(R, list(R.gens()))
    counter = BudgetCounter(10**6)
    assert nu(x, x, 3, budget=counter) == p**3 - 1
    assert counter.used == 2 + 1 + 1 + 31 + 62
    R = PolynomialRing(211, ["x", "y"])
    cusp, m = Ideal(R, [R.poly("y^2+x^3")]), Ideal(R, list(R.gens()))
    counter = BudgetCounter(10**6)
    assert nu(cusp, m, 2, budget=counter) == -(-5 * 211**2 // 6) - 1
    assert counter.used < 100


def test_the_automaton_reads_its_digit_powers_from_power_tables():
    """The root automaton of the cusp over F_1009 forms each digit factor
    f^d, d < p, from the entry's own `PowerTable`, and nothing on the way
    to the sizes (the containment exponent, the edges, the weights' sweeps)
    calls `Polynomial.__pow__`, which a counter wrapped around it would
    see. The sizes at e = 1..3 are ceil(5q/6), since p = 1 mod 6. A child
    process capped at 1 GB, so the wrapper stays out of the suite's
    process and a regression fails at the cap or the timeout."""
    code = (
        "from frobvol.groebner import Ideal\n"
        "from frobvol.regions import IdealSequence, PFamily, escape_sizes\n"
        "from frobvol.ring import Polynomial, PolynomialRing\n"
        "calls = []\n"
        "power = Polynomial.__pow__\n"
        "Polynomial.__pow__ = lambda f, k: calls.append(k) or power(f, k)\n"
        "R = PolynomialRing(1009, ['x', 'y'])\n"
        "seq = IdealSequence([Ideal(R, [R.poly('y^2+x^3')])])\n"
        "fam = PFamily.frobenius(Ideal(R, list(R.gens())))\n"
        "print([size for _, size, _, _ in escape_sizes(seq, fam, range(1, 4))], len(calls))\n"
    )
    proc = run_capped(["-c", code])
    assert (proc.returncode, proc.stderr) == (0, b"")
    sizes = [-(-5 * 1009**e // 6) for e in range(1, 4)]
    assert proc.stdout.decode() == f"{sizes} 0\n"


def test_a_probe_reads_the_linked_power_tables():
    """`escapes` at the corner q - 1 of the cusp over F_1009 against the
    Frobenius family of m at e = 3 reads the entry's power table linked down
    the family's levels (`_power_tables`), as Fedder's test does, so the
    digit step takes the high digits f^(q/p - 1) modulo the level below.
    Read from an unlinked level-3 table, whose high powers are barely
    truncated modulo m^[q], the probe ran out of 2 GB. The cusp is not
    F-pure at 1009 = 1 mod 6, so the corner does not escape. A child
    process capped at 1 GB."""
    code = (
        "from frobvol.groebner import Ideal\n"
        "from frobvol.regions import IdealSequence, PFamily, escapes\n"
        "from frobvol.ring import PolynomialRing\n"
        "R = PolynomialRing(1009, ['x', 'y'])\n"
        "seq = IdealSequence([Ideal(R, [R.poly('y^2+x^3')])])\n"
        "fam = PFamily.frobenius(Ideal(R, list(R.gens())))\n"
        "print(escapes((1009**3 - 1,), seq, fam, 3))\n"
    )
    proc = run_capped(["-c", code])
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, b"", b"False\n")


@pytest.mark.parametrize("p,job,most", [
    (5, "list(escape_sizes(IdealSequence([Ideal(R, [R.poly('x^4+y^4+z^4')]), "
        "Ideal(R, [R.poly('x*y*z+x^3')])]), PFamily.frobenius(m), range(1, 4)))", 16_000),
    (3, "hilbert_kunz_table(m, range(1, 6), Ideal(R, [R.poly('x*y-z^2')]))", 1_500),
], ids=["quartic_pair_escape_sizes", "hk_of_a_quotient"])
def test_order_keys_are_carried_through_buchberger(p, job, most):
    """Buchberger keys each input term once, `_divide` hands back every
    remainder term with the order key it holds, and the tails' key offsets
    are read off those keys, so `PolynomialRing.key` is not called again on
    a term that a basis already holds. The escape sizes of the quartic pair
    over F_5 at e = 1..3 made 31,234 calls when every basis re-keyed its
    terms, now about 15,300 (5,650 of them the automaton's `_echelon`
    columns); the Hilbert-Kunz table of m in F_3[x,y,z]/(xy - z^2) at
    e = 1..5 made 3,751, now about 1,400. A child process, so that the
    counter and the caches stay out of the suite's process."""
    code = (
        "from frobvol.groebner import Ideal\n"
        "from frobvol.invariants import hilbert_kunz_table\n"
        "from frobvol.regions import IdealSequence, PFamily, escape_sizes\n"
        "from frobvol.ring import PolynomialRing\n"
        "calls = []\n"
        "key = PolynomialRing.key\n"
        "PolynomialRing.key = lambda ring, m: calls.append(m) or key(ring, m)\n"
        f"R = PolynomialRing({p}, ['x', 'y', 'z'])\n"
        "m = Ideal(R, list(R.gens()))\n"
        f"{job}\n"
        "print(len(calls))\n"
    )
    proc = run_capped(["-c", code])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert int(proc.stdout) <= most


def test_a_weight_is_one_sweep_of_its_state():
    """(x; y) against (x^200, y^200) over F_2 has one state, (1), reached by
    all 4 of its edges. Each weight is one level-0 sweep from (1), charged
    as its probes: 2 for each entry alone and 401 for both (200 rows of
    one probe each, the 200 probes of the first axis and the probe of
    whether (1) lies in J), 21 bits of pushed counts up to level 3; 430 in
    all, where counting the 40,000 points of the weight one by one charged
    40,828. The rows are the closed form's."""
    R = PolynomialRing(2, ["x", "y"])
    seq = seq_of(R, ["x"], ["y"])
    fam = PFamily.frobenius(Ideal(R, [R.poly("x^200"), R.poly("y^200")]))
    counter = BudgetCounter(10**6)
    table = volume_table(seq, fam, range(1, 4), budget=counter)
    assert counter.used == 430
    alphas, betas = [(1, 0), (0, 1)], [(200, 0), (0, 200)]
    for (e, row), (_, tilde) in zip(table.rows, table.tilde_rows):
        size, positive, _ = rows_summary(monomial_escape_rows(alphas, betas, 2 ** e))
        assert (row * 4 ** e, tilde * 4 ** e) == (size, positive)


# -- the Frobenius-root automaton ----------------------------------------------

# references with radical m, monomial and not
_AUTOMATON_REFERENCES = {
    2: [["x", "y"], ["x^2", "y^3"], ["x^2+y", "x*y", "y^2"], ["x+y^2", "y^3"]],
    3: [["x", "y", "z"], ["x^2", "y", "z^2"], ["x^2+y*z", "y^2", "z^2"]],
}


@st.composite
def automaton_cases(draw):
    """(seq, fam, top): one to three principal entries with no constant
    term from `oracles.random_poly` over F_p[x,y] or F_p[x,y,z], p in
    {2, 3}, the Frobenius family of a reference with radical m, and levels
    0..top, top <= 4, lowered until the axis bounds span at most 20,000
    points."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([2, 3]))
    R = PolynomialRing(p, ["x", "y", "z"][:n])
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    entries = [Ideal(R, [random_poly(R, rng, max_degree=2, no_constant=True)])
               for _ in range(draw(st.integers(1, 3)))]
    J = draw(st.sampled_from(_AUTOMATON_REFERENCES[n]))
    seq, fam = IdealSequence(entries), PFamily.frobenius(Ideal(R, [R.poly(g) for g in J]))
    top = draw(st.integers(1, 4))
    while top > 1 and math.prod(axis_bounds(seq, fam, top)) > 20000:
        top -= 1
    return seq, fam, top


@settings(derandomize=True, deadline=None, max_examples=100)
@given(automaton_cases())
def test_the_root_automaton_counts_what_the_sweep_finds(case):
    """A principal sequence over a polynomial ring is counted on its
    Frobenius-root automaton (`regions.escape_sizes`). At every level the
    volume table's rows equal the size and the positive size of a cold
    `escape_set`, a sweep; the size of each entry alone, which the gap
    bound reads, equals that of the entry's own cold escape set, and `nu`
    of the entry its maximal point."""
    seq, fam, top = case
    table = volume_table(seq, fam, range(top + 1))
    sizes = escape_sizes(seq, fam, range(top + 1))
    for (e, row), (_, tilde), (_, _, _, singles) in zip(table.rows, table.tilde_rows, sizes):
        cold = escape_set(seq, fam, e)
        denom = fam.p ** (e * seq.t)
        assert (row * denom, tilde * denom) == (cold.size, cold.positive_size)
        for I, single in zip(seq.entries, singles):
            alone = escape_set(IdealSequence([I]), fam, e)
            assert (single, nu(I, fam.base, e)) == (alone.size, alone.max_points[0][0])


def test_a_swept_sequence_reads_each_entry_alone_off_its_axes():
    """Where `escape_sizes` sweeps (an entry with two generators, a
    quotient ring), the size of each entry alone is the number of points
    of the escape set on that entry's axis, and equals the entry's own
    cold escape set."""
    R = PolynomialRing(2, ["x", "y"])
    cases = [(seq_of(R, ["x", "y^2+x"], ["y"]), PFamily.frobenius(Ideal(R, list(R.gens()))),
              None, 3)]
    R = PolynomialRing(3, ["x", "y", "z"])
    cases.append((seq_of(R, ["x"], ["y+z"]), PFamily.frobenius(Ideal(R, list(R.gens()))),
                  Ideal(R, [R.poly("x*y-z^2")]), 2))
    for seq, fam, pres, top in cases:
        for e, _, _, singles in escape_sizes(seq, fam, range(top + 1), pres):
            assert singles == tuple(escape_set(IdealSequence([I]), fam, e, pres).size
                                    for I in seq.entries)


# -- every entry is split into its generators ---------------------------------

def _swept_generator_counts(monkeypatch, run) -> set:
    """The generator counts of the entries whose power tables `run` reads in
    escape-set sweeps."""
    counts = set()
    real = regions.power_table

    def spy(I, basis):
        counts.add(I.num_gens)
        return real(I, basis)

    monkeypatch.setattr(regions, "power_table", spy)
    run()
    return counts


def test_escape_sets_sweep_only_principal_sequences(monkeypatch):
    R2 = PolynomialRing(2, ["x", "y"])
    m2 = Ideal(R2, list(R2.gens()))
    I = Ideal(R2, [R2.poly("x"), R2.poly("y^2+x")])
    R3 = PolynomialRing(3, ["x", "y", "z"])
    m3 = Ideal(R3, list(R3.gens()))
    pres = Ideal(R3, [R3.poly("x*y-z^2")])
    R4 = PolynomialRing(2, ["x", "y", "z", "w"])
    seq = seq_of(R4, ["x", "y"], ["z", "w"])
    fam = PFamily.frobenius(Ideal(R4, list(R4.gens())))
    runs = [
        lambda: nu(I, m2, 3),
        lambda: nu(ideal_power(m3, 2), m3, 1),  # six generators in three variables
        lambda: nu(m3, m3, 2, pres),  # three generators, dimension two
        lambda: escape_set(seq, fam, 2),
        lambda: volume_table(seq, fam, [2]),
    ]
    for run in runs:
        assert _swept_generator_counts(monkeypatch, run) == {1}


# -- each level built from the one below --------------------------------------

_RELATIONS = [None, "y^2-x^3", "x*y-z^2"]


def _monomials(n) -> list:
    """The exponent tuples of degree 1 or 2 in n variables."""
    return [a for a in itertools.product(range(3), repeat=n) if 1 <= sum(a) <= 2]


@st.composite
def level_cases(draw, max_gens=1):
    """(seq, fam, pres, top) over F_p[x,y] or F_p[x,y,z] with p in {2,3,5},
    in the polynomial ring or modulo y^2 - x^3 or xy - z^2. The family is
    the Frobenius family of the maximal ideal m or an explicit one whose
    level i + 1 is the bracket p-th power of level i plus a monomial. Up to
    two entries of up to `max_gens` generators, three generators in all;
    levels 0..top, with top lowered until the box of the swept generators
    is small at the top level."""
    p = draw(st.sampled_from([2, 3, 5]))
    relation = draw(st.sampled_from(_RELATIONS))
    three = relation == "x*y-z^2" or draw(st.booleans())
    R = PolynomialRing(p, ["x", "y", "z"] if three else ["x", "y"])
    pres = Ideal(R, [R.poly(relation)]) if relation else None
    monos = _monomials(len(R.variables))

    def gen():
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        return R.from_dict({a: draw(st.integers(1, p - 1)) for a in chosen})

    counts = draw(st.lists(st.integers(1, max_gens), min_size=1, max_size=2)
                  .filter(lambda c: sum(c) <= 3))
    seq = IdealSequence(Ideal(R, [gen() for _ in range(mu)]) for mu in counts)
    # the sweep runs over the generators, one axis each
    split = IdealSequence(Ideal(R, [g]) for I in seq.entries for g in I.gens)
    top = draw(st.integers(1, 3))
    m = Ideal(R, list(R.gens()))
    if draw(st.booleans()):
        fam = PFamily.frobenius(m)
    else:
        levels = [m]
        for _ in range(top):
            extra = R.from_dict({draw(st.sampled_from(monos)): 1})
            levels.append(Ideal(R, [*frobenius_power(levels[-1], p).gens, extra]))
        fam = PFamily.explicit(levels, pres)
    while top > 1:
        bounds = axis_bounds(split, fam, top, pres)
        if math.prod(bounds[:-1]) <= 100 and bounds[-1] <= 200:
            break
        top -= 1
    return seq, fam, pres, top


@settings(derandomize=True, deadline=None, max_examples=100)
@given(level_cases())
def test_a_table_linked_one_level_down_matches_its_own_level(case):
    """Digit steps that read their high digits one level down give the
    same normal forms as digit steps within the level; fresh tables, so
    no cached table is shared."""
    seq, fam, pres, top = case
    I = seq.entries[0]
    linked = None
    for e in range(top + 1):
        below, linked = linked, PowerTable(I, fam.level_basis(e, pres))
        linked.below = below
    own = PowerTable(I, fam.level_basis(top, pres))
    bound = axis_bounds(IdealSequence([I]), fam, top, pres)[0]
    for k in reversed(range(bound + fam.p)):
        assert linked.power(k) == own.power(k)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(level_cases(max_gens=2), st.booleans())
def test_every_walked_level_matches_the_cold_escape_set(case, skip_one):
    """`escape_sets` starts each level from the rows of the level below; a
    skipped level makes the next one start cold."""
    seq, fam, pres, top = case
    levels = [e for e in range(top + 1) if not (skip_one and e == top - 1)]
    walked = list(escape_sets(seq, fam, levels, pres))
    assert [ds.level for ds in walked] == levels
    for ds in walked:
        cold = escape_set(seq, fam, ds.level, pres)
        assert (ds.max_points, ds.size, ds.positive_size) == (
            cold.max_points, cold.size, cold.positive_size)


# references with radical m in two and in three variables
_NU_REFERENCES = {
    2: [["x", "y"], ["x^2", "y"], ["x^2+y^2", "x*y"]],
    3: [["x", "y", "z"], ["x^2", "y", "z+y^2"]],
}


@st.composite
def nu_level_cases(draw):
    """(seq, fam, top): one principal entry over F_p[x,y] or F_p[x,y,z] with
    p in {2,3,5}, the Frobenius family of a reference with radical m, and
    levels 0..top with the top level's bound at most 300."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.sampled_from([2, 3]))
    R = PolynomialRing(p, ["x", "y", "z"][:n])
    chosen = draw(st.lists(st.sampled_from(_monomials(n)), min_size=1, max_size=3, unique=True))
    seq = IdealSequence([Ideal(R, [R.from_dict({a: draw(st.integers(1, p - 1)) for a in chosen})])])
    J = draw(st.sampled_from(_NU_REFERENCES[n]))
    fam = PFamily.frobenius(Ideal(R, [R.poly(g) for g in J]))
    top = draw(st.integers(1, 4))
    while top > 1 and axis_bounds(seq, fam, top)[0] > 300:
        top -= 1
    return seq, fam, top


@settings(derandomize=True, deadline=None, max_examples=60)
@given(nu_level_cases())
def test_nu_of_the_next_level_lies_within_p_times_this_one(case):
    """p nu_e <= nu_(e+1) <= p nu_e + p - 1 in a polynomial ring
    (Mustata-Takagi-Watanabe 2005), each nu from a cold single level."""
    seq, fam, top = case
    p = fam.p
    nus = [escape_set(seq, fam, e).max_points[0][0] for e in range(top + 1)]
    for a, b in zip(nus, nus[1:]):
        assert p * a <= b <= p * a + p - 1


def test_the_lower_end_of_a_walked_row_needs_a_flat_frobenius():
    """p * V_(e-1) lies in V_e for a Frobenius family over a polynomial
    ring, and the walk starts each row there only then (`regions._flat`).
    In F_2[x,y]/(x^2), nu of x against (y) is 1 at levels 0 and 1, since
    x^2 = 0; against the explicit family (x^4), (x^2) it is 3, then 1.
    A row started at 2 * nu would miss both."""
    R = PolynomialRing(2, ["x", "y"])
    x, y = R.gens()
    m = Ideal(R, [x, y])
    nilpotent = Ideal(R, [x * x])
    explicit = PFamily.explicit([Ideal(R, [x ** 4]), Ideal(R, [x ** 2])])
    assert regions._flat(PFamily.frobenius(m), None)
    assert regions._flat(PFamily.frobenius(m), Ideal(R, ()))
    assert not regions._flat(PFamily.frobenius(m), nilpotent)
    assert not regions._flat(explicit, None)
    seq = IdealSequence([Ideal(R, [x])])
    for fam, pres, nus in ((PFamily.frobenius(Ideal(R, [y])), nilpotent, [1, 1]),
                           (explicit, None, [3, 1])):
        assert [ds.max_points[0][0] for ds in escape_sets(seq, fam, [0, 1], pres)] == nus
        assert [escape_set(seq, fam, e, pres).max_points[0][0] for e in (0, 1)] == nus


def test_a_walk_over_a_non_flat_family_keeps_rows_below_p_times_the_last():
    """Two walks whose rows drop below p times the row one level down, so a
    row started there (`regions._flat`) would overshoot. Over the cusp ring
    F_2[x,y]/(y^2 + x^3), nu of y against (x, y) is 1, 3, 5 at levels 1..3,
    and 5 < 2 * 3. Against the explicit family (x^3, y), (x, y) over F_2,
    nu of x is 2 at level 0 and 0 at level 1."""
    spec = parse_spec("p=2; ring x,y; present: y^2+x^3; J: x,y; seq: y; e: 1..3")
    (I,) = spec.sequence().entries
    table = threshold_table(I, spec.reference_ideal(), spec.levels(), spec.presentation())
    assert [v for _, v in table.rows] == [Fraction(1, 2), Fraction(3, 4), Fraction(5, 8)]

    R = PolynomialRing(2, ["x", "y"])
    x, y = R.gens()
    explicit = PFamily.explicit([Ideal(R, [x ** 3, y]), Ideal(R, [x, y])])
    seq = IdealSequence([Ideal(R, [x])])
    assert [ds.max_points[0][0] for ds in escape_sets(seq, explicit, [0, 1])] == [2, 0]
