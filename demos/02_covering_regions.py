"""The two-cover picture behind convergence, drawn exactly.

Refining the lattice from denominator p^e1 to p^(e1+e2) can only add escape
points near the staircase boundary: the refined set is covered by (1) the
refinement fill of the coarse set V, the down-set with maximal points
p^e2 * maxpts(V), and (2) the fill of the diagonally padded border of V
extended by the axis slabs. This script prints the border and the first
cover, checks the containment, counts the refined points that only the
border cover reaches, and writes the overlaid staircases to staircases.svg
in the current directory.
"""

from pathlib import Path

from frobvol import (
    Ideal,
    IdealSequence,
    PFamily,
    PolynomialRing,
    axis_bounds,
    border_points,
    box_region,
    escape_set,
    staircase_svg,
    verify_cover,
)

R = PolynomialRing(2, ["x", "y"])
x, y = R.gens()
m = Ideal(R, [x, y])
fam = PFamily.frobenius(m)
seq = IdealSequence([Ideal(R, [x]), Ideal(R, [R.poly("y^2+x")])])

e1, e2 = 2, 1
s = fam.p ** e2
V = escape_set(seq, fam, e1)
print(f"coarse escape set at e1={e1}: {V.size} points, maximal points {list(V.max_points)}")

border = border_points(V, axis_bounds(seq, fam, e1))
print(f"border points with the axis slabs (diagonal successor missing): {sorted(border)}")

first = box_region(2, e1 + e2, fam.p, [tuple(s * a for a in mp) for mp in V.max_points])
print(f"interior cover: the down-set with maximal points {list(first.max_points)}")

check = verify_cover(seq, fam, e1, e2)
print(f"refined escape set contained in the union: {check.ok}")

fine = escape_set(seq, fam, e1 + e2)
outside_interior = [pt for pt in fine.points() if pt not in first]
print(f"{len(outside_interior)} of {fine.size} refined points need the border cover")

out = Path("staircases.svg")
out.write_text(staircase_svg([escape_set(seq, fam, e) for e in (1, 2, 3)]))
print(f"wrote overlaid staircase outlines for e = 1, 2, 3 to {out.resolve()}")
