"""Threshold and Hilbert-Kunz tables, and the length inequality tying them.

All values are exact rationals. The length of R/J^[p^e] is counted from the
staircase of standard monomials; the inequality bounding it by the
escape-set size times a step length is checked per level, and for f = x,
J = (x, y) it is an equality at every level.
"""

from frobvol import (
    Ideal,
    IdealSequence,
    PolynomialRing,
    check_hk_length_inequality,
    hilbert_kunz_table,
    nu,
    threshold_table,
)

R = PolynomialRing(2, ["x", "y"])
x, y = R.gens()
m = Ideal(R, [x, y])

I = Ideal(R, [x, R.poly("y^2")])
print("nu values for I = (x, y^2) against m:")
for e in range(1, 6):
    print(f"  e={e}: nu = {nu(I, m, e)}")

table = threshold_table(I, m, range(1, 6))
print("normalized rows nu/2^e:", ", ".join(str(v) for _, v in table.rows))
print("(the limit, the F-threshold, is 3/2; the table only reports finite levels)")

print()
print("Hilbert-Kunz rows for m in F_2[x, y]:",
      ", ".join(str(v) for _, v in hilbert_kunz_table(m, range(1, 9)).rows))
print("Hilbert-Kunz rows for (x^2, y):",
      ", ".join(str(v) for _, v in hilbert_kunz_table(Ideal(R, [R.poly('x^2'), y]), range(1, 6)).rows))

pres = Ideal(R, [x * y])
print("on the quotient by (x*y), dimension drops to",
      hilbert_kunz_table(m, range(1, 6), pres).flags["d"], "and the rows become",
      ", ".join(str(v) for _, v in hilbert_kunz_table(m, range(1, 6), pres).rows))

print()
seq = IdealSequence([Ideal(R, [x])])
print("length inequality for f = x, J = m (left <= right, equality here):")
for e in range(1, 7):
    r = check_hk_length_inequality(seq, m, e)
    print(f"  e={e}: {r.left} <= {r.right}  ok={r.ok}")
