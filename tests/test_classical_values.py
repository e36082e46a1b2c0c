"""Classical invariants with known closed forms, frozen as regression values.

These are standard examples: F-pure thresholds of plane curve singularities
and Hilbert-Kunz functions of quadric/nodal hypersurfaces. The per-level
values below follow the known closed forms; the first level of each family
was also verified by hand from the definitions.
"""

from fractions import Fraction
from math import ceil

from frobvol.groebner import Ideal, frobenius_power, standard_monomial_count
from frobvol.invariants import hilbert_kunz_table, nu, threshold_table
from frobvol.ring import PolynomialRing

from oracles import brute_force_nu


def _threshold_values(p, f_text, e_max):
    R = PolynomialRing(p, ["x", "y"])
    m = Ideal(R, list(R.gens()))
    table = threshold_table(Ideal(R, [R.poly(f_text)]), m, range(1, e_max + 1))
    return [v for _, v in table.rows]


def test_cusp_thresholds():
    # toward 1/2 in characteristic 2
    assert _threshold_values(2, "y^2-x^3", 6) == [
        Fraction(2 ** (e - 1) - 1, 2**e) for e in range(1, 7)
    ]
    # toward 2/3 in characteristic 3
    assert _threshold_values(3, "y^2-x^3", 4) == [
        Fraction(2 * 3 ** (e - 1) - 1, 3**e) for e in range(1, 5)
    ]
    # toward 5/6 when p is 1 mod 6
    vals = _threshold_values(7, "y^2-x^3", 3)
    assert vals == [Fraction(5, 7), Fraction(40, 49), Fraction(285, 343)]
    assert all(abs(v - Fraction(5, 6)) < Fraction(1, 7**e) for e, v in enumerate(vals, start=1))


def test_cusp_nu_follows_the_threshold_at_high_levels():
    # nu(p^e) = ceil(c p^e) - 1 for a principal f in a polynomial ring with
    # F-pure threshold c (Mustata-Takagi-Watanabe 2005; Blickle-Mustata-Smith
    # 2008); the table counts the levels on the Frobenius-root automaton,
    # so a level costs the same however high it is. For p = 1 mod 6 the
    # cusp has c = 5/6, and for p = 5 mod 6 c = 5/6 - 1/(6p): every base-5
    # digit of nu is then 4 at p = 5, where a sweep's f^nu keeps about 5^e
    # terms.
    for p, c, e_max in ((7, Fraction(5, 6), 60), (13, Fraction(5, 6), 12),
                        (5, Fraction(4, 5), 30), (11, Fraction(9, 11), 30),
                        (3, Fraction(2, 3), 10), (2, Fraction(1, 2), 16)):
        assert _threshold_values(p, "y^2-x^3", e_max) == [
            Fraction(ceil(c * p**e) - 1, p**e) for e in range(1, e_max + 1)
        ]


def test_diagonal_nu_follows_the_threshold_at_high_levels():
    # a diagonal hypersurface sum x_i^(a_i) has F-pure threshold
    # c = min(1, sum 1/a_i) when p = 1 mod lcm(a_i) (Hernandez, Proc. AMS
    # 2015), so nu(p^e) = ceil(c p^e) - 1; at e <= 2 each value is checked
    # against the raw powers as well
    for f_text, p, e_max in (("x^3+y^3", 7, 10), ("x^3+y^3", 13, 7),
                             ("x^2+y^4", 5, 9), ("x^2+y^4", 13, 7),
                             ("x^2+y^3+z^6", 7, 5)):
        R = PolynomialRing(p, ["x", "y", "z"][:f_text.count("+") + 1])
        m = Ideal(R, list(R.gens()))
        f = R.poly(f_text)
        c = min(Fraction(1), sum(Fraction(1, sum(R.unpack(mono))) for mono in f.coeffs))
        I = Ideal(R, [f])
        table = threshold_table(I, m, range(1, e_max + 1))
        expected = [ceil(c * p**e) - 1 for e in range(1, e_max + 1)]
        assert [v * p**e for e, v in table.rows] == expected, (f_text, p)
        for e in (1, 2):
            assert brute_force_nu(I, m, e) == expected[e - 1], (f_text, p, e)


def test_nu_of_a_power_of_one_variable():
    # x^(dk) escapes (x^q) exactly when dk < q
    for p, e_max in ((2, 12), (3, 8), (5, 6), (7, 5)):
        R = PolynomialRing(p, ["x"])
        (x,) = R.gens()
        J = Ideal(R, [x])
        for d in range(1, 8):
            I = Ideal(R, [x**d])
            table = threshold_table(I, J, range(e_max + 1))
            expected = [ceil(Fraction(p**e, d)) - 1 for e in range(e_max + 1)]
            assert [v * p**e for e, v in table.rows] == expected
            assert nu(I, J, e_max) == ceil(Fraction(p**e_max, d)) - 1


def test_diagonal_quartic_threshold():
    # x^4 + y^4 tends to 1/2 when p is 1 mod 4
    assert _threshold_values(5, "x^4+y^4", 3) == [
        Fraction(5**e - 1, 2 * 5**e) for e in range(1, 4)
    ]


def test_quadric_cone_hilbert_kunz():
    # the classical quadric-cone Hilbert-Kunz function (3q^2 - 1)/2, limit 3/2
    R = PolynomialRing(3, ["x", "y", "z"])
    pres = Ideal(R, [R.poly("x^2+y^2+z^2")])
    m = Ideal(R, list(R.gens()))
    table = hilbert_kunz_table(m, range(1, 4), pres)
    assert table.flags["d"] == 2
    assert [v for _, v in table.rows] == [
        Fraction(3 * 9**e - 1, 2 * 9**e) for e in range(1, 4)
    ]


def test_node_hilbert_kunz():
    # multiplicity-2 curve: rows 2 - 1/q
    R = PolynomialRing(2, ["x", "y"])
    pres = Ideal(R, [R.poly("x*y")])
    m = Ideal(R, list(R.gens()))
    table = hilbert_kunz_table(m, range(1, 7), pres)
    assert [v for _, v in table.rows] == [
        Fraction(2 * 2**e - 1, 2**e) for e in range(1, 7)
    ]


def test_a1_hilbert_kunz_lengths_match_the_closed_form():
    # R = F_p[x,y,z]/(xy - z^2) is F_p[s^2, st, t^2] in every characteristic,
    # and m^[q] R is spanned by s^a t^b with a + b even and a >= 2q, b >= 2q
    # or both >= q; the rest of [0, 2q)^2 has (3q^2 - 1)/2 even-sum points
    # for odd q and 3q^2/2 for even q
    for p, e_max in ((2, 7), (3, 6), (5, 3), (7, 2)):
        R = PolynomialRing(p, ["x", "y", "z"])
        pres = Ideal(R, [R.poly("x*y-z^2")])
        m = Ideal(R, list(R.gens()))
        for e in range(e_max + 1):
            q = p**e
            expected = (3 * q * q - 1) // 2 if q % 2 else 3 * q * q // 2
            assert standard_monomial_count(frobenius_power(m, q), pres) == expected


def test_an_hilbert_kunz_rows_match_the_closed_form():
    # A_n: R = F_p[x,y,z]/(xy - z^(n+1)) is F_p[s^(n+1), st, t^(n+1)] in every
    # characteristic, so R/m^[q] is spanned by the s^a t^b with a = b mod n+1
    # in [0, (n+1)q)^2 that do not have both a, b >= q; the rows tend to
    # 2 - 1/(n+1) (Watanabe-Yoshida, J. Algebra 230, 2000)
    for n in (2, 3):
        for p, e_max in ((2, 4), (3, 3), (5, 2)):
            R = PolynomialRing(p, ["x", "y", "z"])
            pres = Ideal(R, [R.poly(f"x*y-z^{n + 1}")])
            table = hilbert_kunz_table(Ideal(R, list(R.gens())), range(1, e_max + 1), pres)
            expected = []
            for e in range(1, e_max + 1):
                q = p**e
                corner = sum(1 for a in range(q, (n + 1) * q) for b in range(q, (n + 1) * q)
                             if (a - b) % (n + 1) == 0)
                expected.append(Fraction((n + 1) * q * q - corner, q * q))
            assert [v for _, v in table.rows] == expected, (n, p)
