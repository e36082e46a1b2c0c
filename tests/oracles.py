"""Independent brute-force oracles used to cross-check the library.

Nothing here shares code paths with the fast implementations: membership is
decided by degree-bounded linear algebra over F_p, escape sets by exhaustive
cell-by-cell ideal containment built from raw generator products, staircase
counts by enumerating a bounding box.
"""

from __future__ import annotations

import itertools

from frobvol.groebner import (
    Ideal,
    frobenius_power,
    groebner_basis,
    ideal_contains,
    ideal_power,
    ideal_product,
)
from frobvol.ring import mono_divides


def exponents(f) -> dict:
    """The terms of f keyed on exponent tuples instead of packed monomials."""
    return {f.ring.unpack(m): c for m, c in f.coeffs.items()}


def monomials_up_to(nvars: int, degree: int):
    """All exponent tuples with total degree <= degree, sorted."""

    def gen(slots, remaining):
        if slots == 0:
            yield ()
            return
        for first in range(remaining + 1):
            for rest in gen(slots - 1, remaining - first):
                yield (first,) + rest

    return sorted(gen(nvars, degree))


def la_membership(f, gens, degree_bound: int) -> bool:
    """Is f an F_p-combination of monomial multiples of the generators,
    with every product of total degree <= degree_bound?"""
    ring = f.ring
    p = ring.p
    rows = monomials_up_to(ring.nvars, degree_bound)
    row_index = {m: i for i, m in enumerate(rows)}
    columns = []
    for g in gens:
        if g.is_zero:
            continue
        gdeg = g.total_degree()
        for shift in monomials_up_to(ring.nvars, degree_bound - gdeg):
            col = {}
            for m, c in exponents(g).items():
                mm = tuple(a + b for a, b in zip(m, shift))
                if sum(mm) > degree_bound:
                    col = None
                    break
                col[row_index[mm]] = (col.get(row_index[mm], 0) + c) % p
            if col:
                columns.append(col)
    target = {}
    for m, c in exponents(f).items():
        if sum(m) > degree_bound:
            return False
        target[row_index[m]] = c

    # dense Gaussian elimination on the augmented system
    nrows = len(rows)
    ncols = len(columns)
    matrix = [[0] * (ncols + 1) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, c in col.items():
            matrix[i][j] = c
    for i, c in target.items():
        matrix[i][ncols] = c

    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for r in range(pivot_row, nrows):
            if matrix[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[pivot_row], matrix[pivot] = matrix[pivot], matrix[pivot_row]
        inv = pow(matrix[pivot_row][col], p - 2, p)
        matrix[pivot_row] = [(v * inv) % p for v in matrix[pivot_row]]
        for r in range(nrows):
            if r != pivot_row and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [
                    (a - factor * b) % p for a, b in zip(matrix[r], matrix[pivot_row])
                ]
        pivot_row += 1
        if pivot_row == nrows:
            break
    # consistent iff no row reads 0 = nonzero
    for r in range(nrows):
        if matrix[r][ncols] and not any(matrix[r][j] for j in range(ncols)):
            return False
    return True


def brute_force_ell(I: Ideal, J: Ideal, pres=None, cap: int = 64) -> int:
    """Least k with I^k inside J, via raw generator-set powers."""
    for k in range(1, cap + 1):
        if ideal_contains(ideal_power(I, k), J, pres):
            return k
    raise AssertionError("oracle ell search exhausted")


def brute_force_nu(I: Ideal, J: Ideal, e: int, pres=None) -> int:
    """Largest k with I^k outside J^[p^e], from raw generator-set powers
    tested for k = 0, 1, ... until one lies inside (containment is
    monotone in k)."""
    Jq = frobenius_power(J, I.ring.p ** e)
    k = 0
    while not ideal_contains(ideal_power(I, k), Jq, pres):
        k += 1
    return k - 1


def brute_force_escape_points(seq, fam, e: int, pres=None) -> set:
    """Exhaustive cell-by-cell escape test over the finiteness bounding box.

    Each cell is decided from scratch: raw generator-set powers, raw pairwise
    products, containment through a Groebner basis of the level ideal.
    """
    level = fam.level_ideal(e)
    q = fam.p ** e
    bounds = []
    for I in seq.entries:
        ell = brute_force_ell(I, fam.base_level(), pres)
        bounds.append(I.num_gens * ell * q)
    pts = set()
    for cell in itertools.product(*(range(b) for b in bounds)):
        powers = [ideal_power(I, a) for I, a in zip(seq.entries, cell)]
        prod = ideal_product(*powers)
        if not ideal_contains(prod, level, pres):
            pts.add(cell)
    return pts


def staircase_count_brute(J: Ideal, pres=None):
    """Standard-monomial count by enumerating the box under the pure powers.

    Returns None when some variable has no pure power among the leading
    monomials (infinite staircase)."""
    gb = groebner_basis(J, pres)
    if gb.contains_one:
        return 0
    nvars = J.ring.nvars
    lms = [J.ring.unpack(m) for m in gb.leading_monomials]
    box = []
    for i in range(nvars):
        pures = [
            m[i] for m in lms if m[i] > 0 and all(e == 0 for j, e in enumerate(m) if j != i)
        ]
        if not pures:
            return None
        box.append(min(pures))
    count = 0
    for cell in itertools.product(*(range(b) for b in box)):
        if not any(mono_divides(lm, cell) for lm in lms):
            count += 1
    return count


def downset_size_inclusion_exclusion(max_points) -> int:
    """|union of boxes [0, m]| by inclusion-exclusion over the antichain."""
    pts = list(max_points)
    total = 0
    for r in range(1, len(pts) + 1):
        for subset in itertools.combinations(pts, r):
            meet = tuple(min(xs) for xs in zip(*subset))
            size = 1
            for v in meet:
                size *= v + 1
            total += (-1) ** (r + 1) * size
    return total


def naive_power(f, k: int):
    """Repeated multiplication, no Frobenius shortcut."""
    result = f.ring.one()
    for _ in range(k):
        result = result * f
    return result


def random_poly(ring, rng, max_degree=3, max_terms=3, no_constant=False):
    """A random nonzero polynomial with small support."""
    while True:
        raw = {}
        for _ in range(rng.randint(1, max_terms)):
            deg = rng.randint(1 if no_constant else 0, max_degree)
            exps = [0] * ring.nvars
            for _ in range(deg):
                exps[rng.randrange(ring.nvars)] += 1
            raw[tuple(exps)] = rng.randint(1, ring.p - 1)
        f = ring.from_dict(raw)
        if not f.is_zero and not (no_constant and any(not any(m) for m in exponents(f))):
            return f


def monomial_escape_rows(alphas, betas, q: int) -> dict:
    """Closed-form escape set of monomial principal entries x^alpha_n
    against a monomial ideal J = (x^beta, ...) of a polynomial ring, at
    q = p^e, in integer arithmetic only.

    x^(sum a_n alpha_n) escapes J^[q] exactly when no generator x^beta of J
    has q*beta <= sum a_n alpha_n coordinatewise. Returns the rows: each
    prefix (a_1, ..., a_{t-1}) of the escape set mapped to its largest a_t.
    """

    def last_escaping(start, step) -> int:
        """Largest a >= 0 with x^(start + a*step) outside J^[q]; -1 if none."""
        enter = None  # least a that puts the monomial inside J^[q]
        for beta in betas:
            need = 0
            for s, d, b in zip(start, step, beta):
                gap = q * b - s
                if gap <= 0:
                    continue
                if d == 0:
                    break  # this coordinate never reaches q*b
                need = max(need, -(-gap // d))
            else:
                enter = need if enter is None else min(enter, need)
        if enter is None:
            raise AssertionError("escape set is infinite")
        return enter - 1

    nvars = len(betas[0])
    *heads, last = alphas
    origin = (0,) * nvars
    rows = {}
    for prefix in itertools.product(*(range(last_escaping(origin, a) + 1) for a in heads)):
        start = tuple(sum(a * alpha[i] for a, alpha in zip(prefix, heads)) for i in range(nvars))
        top = last_escaping(start, last)
        if top >= 0:
            rows[prefix] = top
    return rows


def rows_summary(rows: dict) -> tuple:
    """(size, positive size, sorted maximal points) of a down-set given by
    its rows, as `monomial_escape_rows` returns them."""
    size = sum(top + 1 for top in rows.values())
    positive = sum(top for prefix, top in rows.items() if all(prefix))
    maximal = []
    for prefix, top in rows.items():
        steps = (prefix[:i] + (a + 1,) + prefix[i + 1:] for i, a in enumerate(prefix))
        if all(rows.get(step, -1) < top for step in steps):
            maximal.append(prefix + (top,))
    return size, positive, sorted(maximal)


def fill_refinement(points, extra: int, p: int) -> set:
    """The paper's refinement fill, point by point: each point x, numerators
    over p^e, becomes the finer-lattice block (x - 1/p^e, x] of numerators
    n over p^(e+extra), those with x_i*p^extra - p^extra < n_i <= x_i*p^extra
    and n_i >= 0."""
    step = p ** extra
    out = set()
    for x in points:
        out.update(itertools.product(*[range(max(0, v * step - step + 1), v * step + 1) for v in x]))
    return out


def translates(points, steps: int) -> set:
    """The shifts of `points` by k*(1, ..., 1) for k = 0..steps."""
    return {tuple(v + k for v in x) for x in points for k in range(steps + 1)}


def least_uncovered(fine_points, coarse_points, border, mu: int, p: int, e2: int):
    """The least of `fine_points` in neither of the paper's two covers, or
    None: the fill of the coarse escape set, and the fill of the border's
    diagonal translates by up to mu steps, both refined by e2 levels."""
    first = fill_refinement(coarse_points, e2, p)
    second = fill_refinement(translates(border, mu), e2, p)
    return next((n for n in sorted(fine_points) if n not in first and n not in second), None)
