"""Cross-validation of reduced bases against an independent implementation.

The reduced Groebner basis of an ideal is unique for a fixed order, so the
two implementations must agree term for term.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from frobvol.groebner import Ideal, buchberger, frobenius_basis
from frobvol.ring import PolynomialRing
from oracles import exponents, random_poly


def _symbols(ring):
    xs = sympy.symbols(" ".join(ring.variables))
    return (xs,) if ring.nvars == 1 else xs


def _to_sympy(f, xs):
    expr = 0
    for mono, c in exponents(f).items():
        term = sympy.Integer(c)
        for v, e in zip(xs, mono):
            term *= v**e
        expr += term
    return expr


def _terms(g, ring):
    """The terms of a sympy Poly over F_p, with coefficients in [0, p)."""
    return frozenset((m, int(c) % ring.p) for m, c in g.terms() if int(c) % ring.p)


def _sympy_reduced_basis(polys, ring, order):
    xs = _symbols(ring)
    gb = sympy.groebner([_to_sympy(f, xs) for f in polys], *xs, modulus=ring.p, order=order)
    return {_terms(g, ring) for g in gb.polys}


def _frobvol_basis_set(polys, ring):
    gb = buchberger(list(polys), ring)
    return {frozenset(exponents(g).items()) for g in gb.polys}


@pytest.mark.parametrize("p,order", [(2, "grevlex"), (3, "grevlex"), (5, "grevlex")])
def test_reduced_basis_matches_sympy(p, order):
    rng = random.Random(1000 + p + len(order))
    for nvars in (2, 3):
        ring = PolynomialRing(p, ["x", "y", "z"][:nvars])
        for _ in range(6):
            gens = [random_poly(ring, rng, 3, 3) for _ in range(rng.randint(1, 3))]
            assert _frobvol_basis_set(gens, ring) == _sympy_reduced_basis(gens, ring, order)


@pytest.mark.parametrize("p,order", [(2, "grevlex"), (5, "grevlex")])
def test_remainders_match_sympy(p, order):
    """The remainder on division by a reduced basis is unique, so `reduce`
    must match sympy's `reduced` against sympy's own basis term for term."""
    rng = random.Random(2000 + p + len(order))
    for nvars in (2, 3):
        ring = PolynomialRing(p, ["x", "y", "z"][:nvars])
        xs = _symbols(ring)
        for _ in range(6):
            gens = [random_poly(ring, rng, 3, 3) for _ in range(rng.randint(1, 3))]
            gb = sympy.groebner([_to_sympy(g, xs) for g in gens], *xs, modulus=ring.p, order=order)
            ours = buchberger(gens, ring)
            for _ in range(3):
                f = random_poly(ring, rng, 6, 6)
                _, r = sympy.reduced(_to_sympy(f, xs), list(gb.exprs), *xs,
                                     modulus=ring.p, order=order)
                expected = _terms(sympy.Poly(r, *xs, modulus=ring.p), ring)
                assert frozenset(exponents(ours.reduce(f)).items()) == expected


def test_named_cases_match_sympy():
    ring = PolynomialRing(7, ["x", "y", "z"])
    cases = [
        ["x^2+y*z", "y^2+x*z", "z^2+x*y"],
        ["x*y-1", "x^2+z"],
        ["x+y+z", "x*y+y*z+x*z", "x*y*z-1"],
    ]
    for gens_text in cases:
        gens = [ring.poly(t) for t in gens_text]
        assert _frobvol_basis_set(gens, ring) == _sympy_reduced_basis(gens, ring, "grevlex")


@pytest.mark.parametrize("order", ["grevlex"])
@pytest.mark.parametrize("variables,q,relation", [("xyz", 9, "x*y-z^2"), ("xy", 27, "y^2-x^3")])
def test_bracket_powers_in_quotients_match_sympy(variables, q, relation, order):
    """m^[9] + (xy - z^2) and (x, y)^[27] + (y^2 - x^3) over F_3, where the
    pair criteria drop most S-pairs, by direct Buchberger and level by
    level."""
    ring = PolynomialRing(3, list(variables))
    m = Ideal(ring, list(ring.gens()))
    pres = Ideal(ring, [ring.poly(relation)])
    gens = [g.frobenius(q) for g in m.gens] + [ring.poly(relation)]
    expected = _sympy_reduced_basis(gens, ring, order)
    assert _frobvol_basis_set(gens, ring) == expected
    assert {frozenset(exponents(g).items()) for g in frobenius_basis(m, q, pres)} == expected
