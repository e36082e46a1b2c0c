"""The two-cover picture behind convergence, drawn exactly.

Refining the lattice from denominator p^e1 to p^(e1+e2) can only add escape
points near the staircase boundary: the refined set is covered by (1) the
refinement fill of the coarse set and (2) the fill of its diagonally padded
border. This script rebuilds both covers, checks the containment, and writes
the overlaid staircases to staircases.svg in the current directory.
"""

from pathlib import Path

from frobvol import (
    Ideal,
    IdealSequence,
    PFamily,
    PolynomialRing,
    border_points,
    covering_sets,
    escape_set,
    scaled_points,
    staircase_svg,
    verify_cover,
)
from frobvol.regions import base_slabs

R = PolynomialRing(2, ["x", "y"])
x, y = R.gens()
m = Ideal(R, [x, y])
fam = PFamily.frobenius(m)
seq = IdealSequence([Ideal(R, [x]), Ideal(R, [R.poly("y^2+x")])])

e1, e2 = 2, 1
V = escape_set(seq, fam, e1)
print(f"coarse escape set at e1={e1}: {V.size} points, maximal points {list(V.max_points)}")

C = scaled_points(V).union(base_slabs(seq, fam, e1))
print(f"with the axis slabs adjoined: {len(C)} points")
print(f"border points (diagonal successor missing): {border_points(C).sorted_points()}")

R_set, L_set = covering_sets(seq, fam, e1, e2)
print(f"interior cover has {len(R_set)} points, border cover has {len(L_set)}")

check = verify_cover(seq, fam, e1, e2)
print(f"refined escape set contained in the union: {check.ok}")

fine = escape_set(seq, fam, e1 + e2)
outside_interior = [pt for pt in fine.points() if pt not in R_set.points]
print(f"{len(outside_interior)} of {fine.size} refined points need the border cover")

out = Path("staircases.svg")
out.write_text(staircase_svg([escape_set(seq, fam, e) for e in (1, 2, 3)]))
print(f"wrote overlaid staircase outlines for e = 1, 2, 3 to {out.resolve()}")
