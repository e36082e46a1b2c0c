"""Numerical invariants and exact per-level identity/inequality checkers.

Estimators report finite tables of exact rationals, never an extrapolated
limit: when every computed row agrees the table is flagged "stabilized (not
a proof)". Checkers compare exact values; the relations they test are
theorems, so a false verdict is an implementation bug and carries a witness.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial

from .errors import (
    BadInputError,
    BudgetExceededError,
    HypothesisViolatedError,
    NotPrimaryError,
    TheoremViolationError,
)
from .groebner import (
    Ideal,
    frobenius_basis,
    frobenius_power,
    ideal_contains,
    ideal_intersection,
    ideal_sum,
    krull_dimension,
    power_table,
    staircase_count_of,
    standard_monomial_count,
)
from .regions import (
    IdealSequence,
    PFamily,
    _as_budget,
    box_region,
    _flat,
    containment_exponents,
    escape_set,
    escape_sets,
)


def _fraction_json(v: Fraction) -> dict:
    return {"num": str(v.numerator), "den": str(v.denominator)}


class EstimateTable:
    """Finite table of per-level exact rationals with convergence metadata."""

    __slots__ = ("kind", "p", "t", "rows", "tilde_rows", "flags")

    def __init__(self, kind, p, t, rows, tilde_rows=None, flags=None):
        self.kind = kind
        self.p = p
        self.t = t
        self.rows = sorted(rows)
        self.tilde_rows = sorted(tilde_rows) if tilde_rows is not None else None
        self.flags = dict(flags) if flags else {}

    def value(self, e: int) -> Fraction:
        for level, v in self.rows:
            if level == e:
                return v
        raise KeyError(f"no row for level {e}")

    def to_jsonable(self) -> dict:
        out = {
            "kind": self.kind,
            "p": self.p,
            "t": self.t,
            "rows": [dict(e=e, **_fraction_json(v)) for e, v in self.rows],
            "flags": self.flags,
        }
        if self.tilde_rows is not None:
            out["rows_tilde"] = [dict(e=e, **_fraction_json(v)) for e, v in self.tilde_rows]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":")) + "\n"

    def __repr__(self):
        cells = ", ".join(f"e={e}: {v}" for e, v in self.rows)
        return f"EstimateTable[{self.kind}]({cells})"


class NuValue:
    """The largest power of I escaping the e-th bracket power of J."""

    __slots__ = ("e", "nu")

    def __init__(self, e: int, nu: int):
        self.e = e
        self.nu = nu

    def __eq__(self, other):
        if isinstance(other, NuValue):
            return (self.e, self.nu) == (other.e, other.nu)
        if isinstance(other, int):
            return self.nu == other
        return NotImplemented

    def __hash__(self):
        return hash((self.e, self.nu))

    def __repr__(self):
        return f"NuValue(e={self.e}, nu={self.nu})"


class CheckReport:
    """Outcome of one identity/inequality checker, with exact sides."""

    __slots__ = ("name", "params", "left", "right", "ok", "witness", "table")

    def __init__(self, name, params, left, right, ok, witness=None, table=None):
        self.name = name
        self.params = dict(params)
        self.left = str(left)
        self.right = str(right)
        self.ok = bool(ok)
        self.witness = witness
        self.table = table

    def __bool__(self):
        return self.ok

    def to_jsonable(self) -> dict:
        out = {
            "check": self.name,
            "params": self.params,
            "left": self.left,
            "right": self.right,
            "ok": self.ok,
            "witness": None if self.witness is None else str(self.witness),
        }
        if self.table is not None:
            out["table"] = self.table
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":")) + "\n"

    def __repr__(self):
        verdict = "ok" if self.ok else f"FAILED (witness={self.witness})"
        return f"CheckReport[{self.name}] {self.left} vs {self.right}: {verdict}"


# ---------------------------------------------------------------------------
# nu and the threshold table
# ---------------------------------------------------------------------------

def nu(I: Ideal, J: Ideal, e: int, pres=None, budget=None) -> NuValue:
    """Largest k with I^k escaping J^[p^e]: the maximal point of the
    one-entry escape set, charged against the budget. Containment is
    monotone in k, so each level is a binary search: within the finiteness
    bound at a level swept cold, and within p*nu(e-1) .. p*nu(e-1) + p - 1
    at a level walked from the one below (`regions.escape_sets`).

    A principal I = (f) in a polynomial ring goes digit by digit: the
    levels 0..e are walked (`_nu_walk`), each in about log2(p) + 1 probes,
    every probe charged to the same budget. Each probed power is built from
    f's base-p digits, f^(ap + r) = (f^a)^[p] * f^r, which holds modulo any
    level ideal, with f^a read one level down (see
    `groebner.PowerTable.power`). An I with several generators is split
    into them (the sup identity, see `regions.escape_set`) and swept at
    level e alone.
    """
    fam = PFamily.frobenius(J)
    *_, ds = escape_sets(IdealSequence([I]), fam, _nu_walk(I, fam, pres, [e]), pres, budget)
    return NuValue(e, ds.max_points[0][0])


def _nu_walk(I: Ideal, fam: PFamily, pres, levels: list):
    """The levels a `nu` table visits to reach `levels`, in order: 0 up to
    the highest of them for a principal I where each level's search starts
    from p times the one below (`regions._flat`), else `levels` as given."""
    if I.num_gens == 1 and _flat(fam, pres) and min(levels, default=0) >= 0:
        return range(max(levels, default=-1) + 1)
    return levels


def threshold_table(I: Ideal, J: Ideal, levels, pres=None, budget=None) -> EstimateTable:
    """Rows (e, nu/p^e); the finite sequence only, no extrapolation. The
    levels are walked in one pass (`_nu_walk`, `regions.escape_sets`), so
    consecutive levels start from the one below."""
    counter = _as_budget(budget)
    p = I.ring.p
    fam = PFamily.frobenius(J)
    levels = list(levels)
    nus = {}
    try:
        for ds in escape_sets(IdealSequence([I]), fam, _nu_walk(I, fam, pres, levels), pres,
                              counter):
            nus[ds.level] = ds.max_points[0][0]
    except BudgetExceededError as exc:
        rows = [(e, Fraction(nus[e], p ** e)) for e in levels if e in nus]
        exc.partial = EstimateTable("threshold", p, 1, rows, flags={"budget_exceeded": True})
        raise
    rows = [(e, Fraction(nus[e], p ** e)) for e in levels]
    vals = [v for _, v in rows]
    flags = {
        "nondecreasing": all(a <= b for a, b in zip(vals, vals[1:])),
        "stabilized": len(vals) >= 2 and len(set(vals)) == 1,
    }
    if flags["stabilized"]:
        flags["note"] = "stabilized (not a proof)"
    return EstimateTable("threshold", p, 1, rows, flags=flags)


# ---------------------------------------------------------------------------
# Volume tables
# ---------------------------------------------------------------------------

def volume_table(seq: IdealSequence, fam: PFamily, levels, pres=None,
                 budget=None) -> EstimateTable:
    """Rows (e, |escape set|/p^{et}) with companion strictly-positive rows.

    The levels are walked by `regions.escape_sets`, the sequence and (for
    t >= 2) each entry alone, so consecutive levels start from the one
    below. Each row also records the exact gap bound between the two
    counts; over a polynomial ring the positive-normalized rows must be
    nondecreasing, and a violation is reported as a bug, not a result.
    """
    counter = _as_budget(budget)
    p = fam.p
    t = seq.t
    levels = list(levels)
    singles_walks = [
        escape_sets(IdealSequence([I]), fam, levels, pres, counter) for I in seq.entries
    ] if t >= 2 else []
    rows, tilde_rows, gap_notes = [], [], []
    try:
        for ds in escape_sets(seq, fam, levels, pres, counter):
            e = ds.level
            denom = p ** (e * t)
            rows.append((e, Fraction(ds.size, denom)))
            tilde_rows.append((e, Fraction(ds.positive_size, denom)))
            if t >= 2:
                singles = [next(walk).size for walk in singles_walks]
                bound = 0
                for i in range(t):
                    term = 1
                    for j in range(t):
                        if j != i:
                            term *= singles[j]
                    bound += term
            else:
                bound = 1
            gap = ds.size - ds.positive_size
            if gap > bound:
                raise TheoremViolationError(
                    f"escape-set gap {gap} exceeds its bound {bound} at e={e}",
                    witness=(e, gap, bound),
                )
            gap_notes.append({"e": e, "gap": str(gap), "bound": str(bound)})
    except BudgetExceededError as exc:
        exc.partial = EstimateTable(
            "volume", p, t, rows, tilde_rows, {"budget_exceeded": True}
        )
        raise
    tvals = [v for _, v in tilde_rows]
    nondecreasing = all(a <= b for a, b in zip(tvals, tvals[1:]))
    if (pres is None or pres.trivial) and not nondecreasing:
        bad = next(
            (tilde_rows[i][0], tilde_rows[i + 1][0])
            for i in range(len(tvals) - 1)
            if tvals[i] > tvals[i + 1]
        )
        raise TheoremViolationError(
            "positive-normalized volume rows decreased over a polynomial ring",
            witness=bad,
        )
    vals = [v for _, v in rows]
    flags = {
        "tilde_nondecreasing": nondecreasing,
        "stabilized": len(vals) >= 2 and len(set(vals)) == 1,
        "gap_bounds": gap_notes,
    }
    if flags["stabilized"]:
        flags["note"] = "stabilized (not a proof)"
    return EstimateTable("volume", p, t, rows, tilde_rows, flags)


# ---------------------------------------------------------------------------
# Hilbert-Kunz tables
# ---------------------------------------------------------------------------

def hilbert_kunz_table(J: Ideal, levels, pres=None, d=None) -> EstimateTable:
    """Rows (e, length(R/(J^[p^e] + presentation)) / p^{ed}), exact.

    `d` defaults to the Krull dimension of the presented ring; finite length
    is required at every level (the graded stand-in for m-primary)."""
    ring = J.ring
    p = ring.p
    if d is None:
        d = krull_dimension(Ideal(ring, ()), pres)
    if d < 0:
        raise BadInputError("presented ring is zero; no Hilbert-Kunz data")
    rows = []
    for e in levels:
        q = p ** e
        lam = staircase_count_of(frobenius_basis(J, q, pres))
        if not lam.is_finite:
            raise NotPrimaryError(
                f"quotient by the level-{e} bracket power has infinite length; "
                "the reference ideal is not primary to the irrelevant maximal ideal"
            )
        rows.append((e, Fraction(int(lam), p ** (e * d))))
    vals = [v for _, v in rows]
    flags = {
        "d": d,
        "stabilized": len(vals) >= 2 and len(set(vals)) == 1,
    }
    if flags["stabilized"]:
        flags["note"] = "stabilized (not a proof)"
    return EstimateTable("hk", p, 1, rows, flags=flags)


# ---------------------------------------------------------------------------
# Fedder criterion (complete-intersection form) and parameter sequences
# ---------------------------------------------------------------------------

def fedder_criterion(f_seq, e: int) -> bool:
    """True iff (f_1 ... f_t)^(p^e - 1) escapes the bracket power of the
    ideal of all variables: the escape-set containment question at the
    corner (p^e - 1, ..., p^e - 1)."""
    f_seq = list(f_seq)
    if not f_seq:
        raise BadInputError("need at least one element")
    ring = f_seq[0].ring
    prod = ring.one()
    for f in f_seq:
        if f.ring != ring:
            raise BadInputError("elements from different rings")
        if f.is_zero:
            return False
        prod = prod * f
    q = ring.p ** e
    m = Ideal(ring, ring.gens())
    return bool(power_table(Ideal(ring, (prod,)), frobenius_basis(m, q)).power(q - 1))


def is_parameter_sequence(f_seq, pres=None) -> bool:
    """True iff adjoining the elements drops Krull dimension by their number."""
    f_seq = list(f_seq)
    if not f_seq or any(f.is_zero for f in f_seq):
        return False
    ring = f_seq[0].ring
    ambient = krull_dimension(Ideal(ring, ()), pres)
    quotient = krull_dimension(Ideal(ring, f_seq), pres)
    return quotient == ambient - len(f_seq)


FPURE_CI_LABEL = "F-pure complete intersection (verified to level {e})"


def fpure_ci_label(f_seq, e_max: int, pres=None, budget=None):
    """The certification label, or None.

    The label asserts only finitely checked facts: volume rows exactly 1 up
    to e_max, the Fedder product test at every level up to e_max, and the
    dimension-drop test. Requires a polynomial ambient ring.
    """
    if pres is not None and not pres.trivial:
        return None
    f_seq = list(f_seq)
    ring = f_seq[0].ring
    if not is_parameter_sequence(f_seq, pres):
        return None
    if not all(fedder_criterion(f_seq, e) for e in range(1, e_max + 1)):
        return None
    m = Ideal(ring, ring.gens())
    seq = IdealSequence([Ideal(ring, (f,)) for f in f_seq])
    try:
        table = volume_table(seq, PFamily.frobenius(m), range(1, e_max + 1), pres, budget=budget)
    except HypothesisViolatedError:
        return None
    if any(v != 1 for _, v in table.rows):
        return None
    return FPURE_CI_LABEL.format(e=e_max)


# ---------------------------------------------------------------------------
# Identity / inequality checkers
# ---------------------------------------------------------------------------

CHECK_NAMES = (
    "frob_shift",
    "containment_monotone",
    "slice_bound",
    "simplex_bound",
    "sup_identity",
    "union_decomposition",
    "hk_length_ineq",
    "level_refinement_bound",
    "pfamily_truncation",
    "threshold_bounds",
)


def check_frob_shift(seq: IdealSequence, J: Ideal, e: int, pres=None, budget=None) -> CheckReport:
    """Escape set against the p-th bracket power at level e equals the
    escape set against the ideal itself at level e+1."""
    counter = _as_budget(budget)
    p = J.ring.p
    left = escape_set(seq, PFamily.frobenius(frobenius_power(J, p)), e, pres, counter)
    right = escape_set(seq, PFamily.frobenius(J), e + 1, pres, counter)
    ok = left.max_points == right.max_points
    witness = None
    if not ok:
        diff = set(left.points()) ^ set(right.points())
        witness = sorted(diff)[0]
    return CheckReport("frob_shift", {"e": e}, left.size, right.size, ok, witness)


def check_containment_monotone(seq: IdealSequence, J: Ideal, bigger: Ideal, e: int,
                               pres=None, budget=None) -> CheckReport:
    """J inside `bigger` forces the escape set of `bigger` inside that of J."""
    if not ideal_contains(J, bigger, pres):
        raise HypothesisViolatedError("containment J within the comparison ideal fails")
    counter = _as_budget(budget)
    ds_a = escape_set(seq, PFamily.frobenius(bigger), e, pres, counter)
    ds_j = escape_set(seq, PFamily.frobenius(J), e, pres, counter)
    witness = next((mp for mp in ds_a.max_points if mp not in ds_j), None)
    ok = witness is None
    return CheckReport("containment_monotone", {"e": e}, ds_a.size, ds_j.size, ok, witness)


def check_slice_bound(seq: IdealSequence, J: Ideal, e: int, pres=None, budget=None) -> CheckReport:
    """The escape set embeds in (truncated escape set) x [0, nu of the last entry]."""
    if seq.t < 2:
        raise HypothesisViolatedError("slice bound needs at least two sequence entries")
    counter = _as_budget(budget)
    fam = PFamily.frobenius(J)
    ds = escape_set(seq, fam, e, pres, counter)
    ds_prefix = escape_set(seq.truncated(), fam, e, pres, counter)
    last_nu = nu(seq.entries[-1], J, e, pres, budget=counter).nu
    witness = None
    for mp in ds.max_points:
        if mp[:-1] not in ds_prefix or mp[-1] > last_nu:
            witness = mp
            break
    ok = witness is None
    return CheckReport(
        "slice_bound", {"e": e},
        ds.size, ds_prefix.size * (last_nu + 1), ok, witness,
    )


def check_simplex_bound(seq: IdealSequence, J: Ideal, e: int, pres=None, budget=None) -> CheckReport:
    """Positive-normalized count is at most (nu of the entry sum / p^e)^t / t!."""
    counter = _as_budget(budget)
    p = J.ring.p
    t = seq.t
    ds = escape_set(seq, PFamily.frobenius(J), e, pres, counter)
    total = nu(ideal_sum(*seq.entries), J, e, pres, budget=counter).nu
    left = Fraction(ds.positive_size, p ** (e * t))
    right = Fraction(total, p ** e) ** t / factorial(t)
    ok = left <= right
    return CheckReport("simplex_bound", {"e": e}, left, right, ok,
                       None if ok else (left, right))


def check_sup_identity(seq: IdealSequence, J: Ideal, e: int, pres=None, budget=None) -> CheckReport:
    """nu of the entry sum equals the largest coordinate sum in the escape set.

    `regions.escape_set` computes `nu` of the sum by this identity, so the
    check is not independent: for principal entries both sides are read
    off one escape set."""
    counter = _as_budget(budget)
    ds = escape_set(seq, PFamily.frobenius(J), e, pres, counter)
    total = nu(ideal_sum(*seq.entries), J, e, pres, budget=counter).nu
    best = max(sum(mp) for mp in ds.max_points)
    ok = total == best
    return CheckReport("sup_identity", {"e": e}, total, best, ok,
                       None if ok else (total, best))


def check_union_decomposition(seq: IdealSequence, parts, e: int, pres=None,
                              budget=None) -> CheckReport:
    """For J = intersection of the parts, the escape set of J is the union of
    the parts' escape sets. Polynomial ambient ring only (bracket powers
    commute with intersections there). The sets compare by maximal points;
    points are listed only to name a witness when they differ."""
    if pres is not None and not pres.trivial:
        raise HypothesisViolatedError("union decomposition needs a polynomial ambient ring")
    parts = list(parts)
    if len(parts) < 2:
        raise HypothesisViolatedError("need at least two ideals to intersect")
    counter = _as_budget(budget)
    J = parts[0]
    for other in parts[1:]:
        J = ideal_intersection(J, other)
    ds_j = escape_set(seq, PFamily.frobenius(J), e, pres, counter)
    corners = []
    for part in parts:
        corners.extend(escape_set(seq, PFamily.frobenius(part), e, pres, counter).max_points)
    union = box_region(seq.t, e, ds_j.p, corners)
    ok = union == ds_j
    witness = None if ok else min(set(union.points()) ^ set(ds_j.points()))
    return CheckReport("union_decomposition", {"e": e}, ds_j.size, union.size, ok, witness)


def check_hk_length_inequality(seq: IdealSequence, J: Ideal, e: int, pres=None,
                               budget=None) -> CheckReport:
    """length(R/J^[p^e]) is at most |escape set| * length(R/(I + J^[p^e]))."""
    if not seq.principal:
        raise HypothesisViolatedError("length inequality needs a sequence of elements")
    counter = _as_budget(budget)
    ring = J.ring
    q = ring.p ** e
    Jq = frobenius_power(J, q)
    lam_total = staircase_count_of(frobenius_basis(J, q, pres))
    if not lam_total.is_finite:
        raise NotPrimaryError("reference ideal is not primary to the irrelevant maximal ideal")
    ds = escape_set(seq, PFamily.frobenius(J), e, pres, counter)
    I = ideal_sum(*seq.entries)
    lam_step = standard_monomial_count(ideal_sum(I, Jq), pres)
    left = int(lam_total)
    right = ds.size * int(lam_step)
    ok = left <= right
    return CheckReport("hk_length_ineq", {"e": e}, left, right, ok,
                       None if ok else (left, right))


def check_level_refinement_bound(seq: IdealSequence, fam: PFamily, e: int, e1: int, e2: int,
                                 pres=None, budget=None) -> CheckReport:
    """Refining against the fixed level-e ideal grows the positive-normalized
    count by at most p^{e(t-1)} * u / p^{e1} for the explicit constant u."""
    counter = _as_budget(budget)
    p = fam.p
    t = seq.t
    fixed = PFamily.frobenius(fam.level_ideal(e))
    fine = escape_set(seq, fixed, e1 + e2, pres, counter)
    coarse = escape_set(seq, fixed, e1, pres, counter)
    mus = seq.generator_counts()
    ells = containment_exponents(seq, fam, pres)
    mu = max(mus)
    u = 0
    for n in range(t):
        term = 1
        for j in range(t):
            if j != n:
                term *= mus[j] ** 2 * ells[j] + 1
        u += term
    u *= mu + 1
    left = Fraction(fine.positive_size, p ** ((e1 + e2) * t))
    right = Fraction(coarse.positive_size, p ** (e1 * t)) + Fraction(p ** (e * (t - 1)) * u, p ** e1)
    ok = left <= right
    return CheckReport(
        "level_refinement_bound", {"e": e, "e1": e1, "e2": e2},
        left, right, ok, None if ok else (left, right),
    )


def truncation_table(seq: IdealSequence, fam: PFamily, outer_levels, inner_levels,
                     pres=None, budget=None) -> CheckReport:
    """Diagnostic grid: escape-set size against the fixed level-e ideal at
    inner level e', normalized by p^{(e+e')t}. No verdict is implied.

    For a Frobenius family of J the cell is the level-(e+e') escape set of
    the family itself, since (J^[p^e])^[p^e'] = J^[p^(e+e')]; so each
    distinct level e+e' is swept once, walking them in order
    (`regions.escape_sets`), and the hypothesis is checked once, against J,
    whose radical every J^[q] shares. An explicit family walks the inner
    levels of the Frobenius family of its level-e ideal."""
    counter = _as_budget(budget)
    p = fam.p
    t = seq.t
    outer_levels, inner_levels = list(outer_levels), list(inner_levels)

    def sizes(family, walk) -> dict:
        return {ds.level: ds.size for ds in escape_sets(seq, family, walk, pres, counter)}

    if fam.kind == "frobenius":
        swept = sizes(fam, sorted({e + e2 for e in outer_levels for e2 in inner_levels}))
    table = []
    for e in outer_levels:
        if fam.kind == "frobenius":
            cells, shift = swept, e
        else:
            cells, shift = sizes(PFamily.frobenius(fam.level_ideal(e)), inner_levels), 0
        for e2 in inner_levels:
            v = Fraction(cells[shift + e2], p ** ((e + e2) * t))
            table.append({"e": e, "e_inner": e2, "num": str(v.numerator), "den": str(v.denominator)})
    return CheckReport("pfamily_truncation", {}, len(table), len(table), True, None, table)


def check_threshold_bounds(seq: IdealSequence, J: Ideal, e: int, pres=None,
                           budget=None) -> CheckReport:
    """Positive-normalized count is bounded by both threshold surrogates:
    the simplex term and the product of per-entry (nu+1)/p^e."""
    counter = _as_budget(budget)
    p = J.ring.p
    t = seq.t
    ds = escape_set(seq, PFamily.frobenius(J), e, pres, counter)
    total = nu(ideal_sum(*seq.entries), J, e, pres, budget=counter).nu
    simplex = Fraction(total, p ** e) ** t / factorial(t)
    product = Fraction(1)
    for I in seq.entries:
        product *= Fraction(nu(I, J, e, pres, budget=counter).nu + 1, p ** e)
    left = Fraction(ds.positive_size, p ** (e * t))
    right = min(simplex, product)
    ok = left <= right
    return CheckReport("threshold_bounds", {"e": e}, left, right, ok,
                       None if ok else (left, right))
