"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -v tests/test_acceptance.py -s` to see the per-criterion
lines. All comparisons are exact (integers / fractions), zero tolerance.
"""

import functools
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from frobvol.cli import parse_spec
from frobvol.groebner import (
    Ideal,
    frobenius_power,
    ideal_contains,
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
    fpure_ci_label,
    hilbert_kunz_table,
    is_parameter_sequence,
    volume_table,
)
from frobvol.regions import IdealSequence, PFamily, escape_set, verify_cover
from frobvol.ring import PolynomialRing

import corpus
from oracles import brute_force_escape_points, la_membership, random_poly


def criterion(number, name, limit_seconds=None):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            elapsed = time.monotonic() - start
            print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")
            if limit_seconds is not None:
                assert elapsed < limit_seconds, f"expected < {limit_seconds}s, took {elapsed:.2f}s"
        return run
    return wrap


@criterion(1, "worked example reproduction", 10)
def test_criterion_1_worked_example():
    R = PolynomialRing(2, ["x", "y"])
    m = Ideal(R, list(R.gens()))
    fam = PFamily.frobenius(m)
    seq_f = IdealSequence([Ideal(R, [R.poly("x")]), Ideal(R, [R.poly("y^2")])])
    seq_g = IdealSequence([Ideal(R, [R.poly("x")]), Ideal(R, [R.poly("y^2+x")])])
    for e in range(1, 7):
        assert escape_set(seq_f, fam, e).size == 2 ** (2 * e - 1)
        assert escape_set(seq_g, fam, e).size == 3 * 2 ** (2 * e - 2)
    table_f = volume_table(seq_f, fam, range(1, 7))
    table_g = volume_table(seq_g, fam, range(1, 7))
    assert all(v == Fraction(1, 2) for _, v in table_f.rows)
    assert all(v == Fraction(3, 4) for _, v in table_g.rows)


@criterion(2, "F-pure complete intersection detection", 10)
def test_criterion_2_fpure_ci():
    for p in (2, 3):
        R = PolynomialRing(p, ["x", "y"])
        x, y = R.gens()
        m = Ideal(R, [x, y])
        seq = IdealSequence([Ideal(R, [x]), Ideal(R, [y])])
        table = volume_table(seq, PFamily.frobenius(m), range(1, 6))
        assert all(v == 1 for _, v in table.rows)
        assert all(fedder_criterion([x, y], e) for e in range(1, 6))
        assert is_parameter_sequence([x, y])
        label = fpure_ci_label([x, y], 5)
        assert label == "F-pure complete intersection (verified to level 5)"
    R = PolynomialRing(2, ["x", "y"])
    xsq = R.poly("x^2")
    seq = IdealSequence([Ideal(R, [xsq])])
    m = Ideal(R, list(R.gens()))
    table = volume_table(seq, PFamily.frobenius(m), range(1, 6))
    assert all(v < 1 for _, v in table.rows)
    assert fedder_criterion([xsq], 1) is False
    assert fpure_ci_label([xsq], 5) is None


@criterion(3, "theorem checkers on the fixture corpus", 300)
def test_criterion_3_theorem_checkers():
    specs = corpus.all_specs()
    assert len(specs) >= 12
    ran = {name: 0 for name in (
        "frob_shift", "containment_monotone", "slice_bound", "simplex_bound",
        "sup_identity", "union_decomposition", "hk_length_ineq",
        "level_refinement_bound", "verify_cover",
    )}
    for name, spec in sorted(specs.items()):
        seq = spec.sequence()
        fam = spec.family()
        pres = spec.presentation()
        J = spec.reference_ideal()
        levels = corpus.CHECK_LEVELS[name]
        for e in levels:
            r = check_frob_shift(seq, J, e, pres)
            assert r.ok, (name, e, r)
            ran["frob_shift"] += 1
            # strict comparison pair: the bracket p-th power sits inside J
            small = frobenius_power(J, spec.p)
            r = check_containment_monotone(seq, small, J, e, pres)
            assert r.ok, (name, e, r)
            ran["containment_monotone"] += 1
            r = check_simplex_bound(seq, J, e, pres)
            assert r.ok, (name, e, r)
            ran["simplex_bound"] += 1
            r = check_sup_identity(seq, J, e, pres)
            assert r.ok, (name, e, r)
            ran["sup_identity"] += 1
            r = check_threshold_bounds(seq, J, e, pres)
            assert r.ok, (name, e, r)
            if seq.t >= 2:
                r = check_slice_bound(seq, J, e, pres)
                assert r.ok, (name, e, r)
                ran["slice_bound"] += 1
            if seq.principal:
                r = check_hk_length_inequality(seq, J, e, pres)
                assert r.ok, (name, e, r)
                ran["hk_length_ineq"] += 1
            if (pres is None) and spec.ring().nvars in corpus.UNION_PARTS:
                parts = [
                    Ideal(spec.ring(), [spec.ring().poly(s) for s in part.split(",")])
                    for part in corpus.UNION_PARTS[spec.ring().nvars]
                ]
                r = check_union_decomposition(seq, parts, e, pres)
                assert r.ok, (name, e, r)
                ran["union_decomposition"] += 1
        r = check_level_refinement_bound(seq, fam, 1, 1, 1, pres)
        assert r.ok, (name, r)
        ran["level_refinement_bound"] += 1
        for e1, e2 in corpus.COVER_PARAMS[name]:
            result = verify_cover(seq, fam, e1, e2, pres)
            assert result.ok, (name, e1, e2, result.witness)
            ran["verify_cover"] += 1
    assert all(count > 0 for count in ran.values()), ran


@criterion(4, "positive-count monotonicity", 60)
def test_criterion_4_monotonicity():
    for name in corpus.POLYNOMIAL_RING:
        spec = corpus.load(name)
        table = volume_table(
            spec.sequence(), spec.family(), spec.levels(), spec.presentation()
        )
        assert table.flags["tilde_nondecreasing"] is True, name
    g = parse_spec("p=2; ring x,y; J: x,y; seq: x; y^2+x; e: 1..3")
    table = volume_table(g.sequence(), g.family(), g.levels())
    assert [v for _, v in table.tilde_rows] == [
        Fraction(0), Fraction(5, 16), Fraction(33, 64)
    ]


@criterion(5, "Hilbert-Kunz staircase counting", 10)
def test_criterion_5_hilbert_kunz():
    R = PolynomialRing(2, ["x", "y"])
    m = Ideal(R, list(R.gens()))
    start = time.monotonic()
    for e in range(1, 9):
        assert standard_monomial_count(frobenius_power(m, 2**e)) == 4**e
    assert time.monotonic() - start < 1.0
    table = hilbert_kunz_table(m, range(1, 9))
    assert all(v == 1 for _, v in table.rows)
    seq = IdealSequence([Ideal(R, [R.poly("x")])])
    for e in range(1, 7):
        r = check_hk_length_inequality(seq, m, e)
        assert r.ok and r.left == r.right, (e, r)


@criterion(6, "oracle equivalence on random instances", 120)
def test_criterion_6_oracle_equivalence():
    rng = random.Random(96077)
    checked_membership = 0
    checked_sets = 0
    for i in range(50):
        p = rng.choice([2, 3])
        nvars = 3 if i % 10 == 0 else 2
        ring = PolynomialRing(p, ["x", "y", "z"][:nvars])
        max_deg = 2 if nvars == 3 else 3
        gens = [random_poly(ring, rng, max_deg, 3) for _ in range(rng.randint(1, 3))]
        J = Ideal(ring, gens)

        # membership: one constructed member, one random polynomial
        member = ring.zero()
        for g in gens:
            member = member + random_poly(ring, rng, 2, 2) * g
        probes = [member] if not member.is_zero else []
        probes.append(random_poly(ring, rng, max_deg, 3))
        for f in probes:
            got = ideal_contains(Ideal(ring, [f]), J)
            bound = max(f.total_degree(), max(g.total_degree() for g in gens)) + 6
            assert got == la_membership(f, list(J.gens), bound), (i, str(f))
            checked_membership += 1

        # escape sets: exhaustive cell-by-cell over the bounding box
        e = 2 if i % 3 == 0 else 1
        shape = rng.random()
        kgens = [ring.poly(f"{v}^{rng.randint(1, 2)}") for v in ring.variables]
        Jm = Ideal(ring, kgens)
        if shape < 0.6 and nvars == 2:
            entries = [
                Ideal(ring, [random_poly(ring, rng, 2, 2, no_constant=True)])
                for _ in range(2)
            ]
        elif shape < 0.8:
            entries = [
                Ideal(ring, [
                    random_poly(ring, rng, 2, 2, no_constant=True),
                    random_poly(ring, rng, 2, 2, no_constant=True),
                ])
            ]
        else:
            e = 1
            entries = [
                Ideal(ring, [
                    random_poly(ring, rng, 2, 2, no_constant=True),
                    random_poly(ring, rng, 1, 1, no_constant=True),
                ]),
                Ideal(ring, [random_poly(ring, rng, 2, 2, no_constant=True)]),
            ]
        seq = IdealSequence(entries)
        fam = PFamily.frobenius(Jm)
        got = set(escape_set(seq, fam, e).points())
        want = brute_force_escape_points(seq, fam, e)
        assert got == want, (i, e)
        checked_sets += 1
    assert checked_membership >= 50 and checked_sets == 50


_DETERMINISM_RUNS = [
    # (command args, corpus instance)
    (["vset"], "ex_g"),
    (["vset"], "quot_xy"),
    (["volume"], "ex_f"),
    (["volume"], "p3_g"),
    (["threshold"], "ex_f"),
    (["threshold"], "p5_t1_sum"),
    (["hk"], "ex_f"),
    (["hk"], "quot_xy"),
    (["fedder"], "mono_xy"),
    (["fedder"], "ex_g"),
    (["check", "frob_shift", "--e", "1"], "ex_g"),
    (["check", "sup_identity", "--e", "1"], "p3_g"),
    (["check", "pfamily_truncation"], "ex_f"),
    (["verify-cover", "--e1", "1", "--e2", "1"], "ex_g"),
    (["verify-cover", "--e1", "1", "--e2", "1"], "p3_t1"),
    (["staircase"], "ex_g"),
    (["staircase"], "mono_xy"),
]


@criterion(7, "byte-identical CLI outputs", 240)
def test_criterion_7_determinism():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        outputs = {}
        for idx, (args, name) in enumerate(_DETERMINISM_RUNS):
            spec_file = tmp / f"{name}_{idx}.spec"
            spec_file.write_text(corpus.CORPUS[name])
            runs = []
            for seed in ("0", "1"):
                env = corpus.child_env(PYTHONHASHSEED=seed)
                proc = subprocess.run(
                    [sys.executable, "-m", "frobvol.cli", *args, str(spec_file)],
                    capture_output=True, env=env, timeout=120,
                )
                assert proc.returncode == 0, (args, name, proc.stderr.decode())
                runs.append(proc.stdout)
            assert runs[0] == runs[1], (args, name)
            assert runs[0], (args, name)
            outputs[(tuple(args), name)] = runs[0]
        # every command exercised
        commands = {a[0] for a, _ in outputs}
        assert commands == {
            "vset", "volume", "threshold", "hk", "fedder", "check",
            "verify-cover", "staircase",
        }
