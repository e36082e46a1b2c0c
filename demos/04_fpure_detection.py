"""Detecting F-pure complete intersections from volume tables.

The certificate is the dimension-drop test, each f_i in the ideal m of all
variables, and Fedder's product test at every level up to the checked one.
With each f_i in m, Fedder's test at level e holds exactly when the
level-e volume row is 1 (the escape set fills the box [0, q-1]^t exactly
when its corner escapes), so the certificate also means volume rows of 1;
the rows printed below show it. The certificate is honest about being
finite: it never claims the limit.
"""

from frobvol import (
    Ideal,
    IdealSequence,
    PFamily,
    PolynomialRing,
    fedder_criterion,
    fpure_ci_label,
    is_parameter_sequence,
    volume_table,
)

for p in (2, 3, 5):
    R = PolynomialRing(p, ["x", "y"])
    x, y = R.gens()
    label = fpure_ci_label([x, y], 4)
    print(f"p={p}: sequence (x, y) -> {label}")

print()
R = PolynomialRing(2, ["x", "y"])
x, y = R.gens()
m = Ideal(R, [x, y])

cases = {
    "(x, y)": [x, y],
    "(x^2)": [R.poly("x^2")],
    "(x, y^2+x)": [x, R.poly("y^2+x")],
    "(x*y)": [x * y],
}
for name, fs in cases.items():
    seq = IdealSequence([Ideal(R, [f]) for f in fs])
    rows = volume_table(seq, PFamily.frobenius(m), range(1, 5)).rows
    fed = fedder_criterion(fs, 1)
    sop = is_parameter_sequence(fs)
    label = fpure_ci_label(fs, 4)
    print(f"{name:12} volume rows {[str(v) for _, v in rows]}, "
          f"fedder(e=1)={fed}, parameter sequence={sop}")
    print(f"{'':12} certificate: {label}")
