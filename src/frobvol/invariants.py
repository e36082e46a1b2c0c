"""Numerical invariants and exact per-level identity/inequality checkers.

Estimators report finite tables of exact rationals, never an extrapolated
limit: when every computed row agrees the table is flagged "stabilized (not
a proof)". Checkers compare exact values; the relations they test are
theorems, so a false verdict is an implementation bug and carries a witness.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction
from math import factorial, prod

from .errors import (
    BadInputError,
    BudgetExceededError,
    ExponentOverflowError,
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
    staircase_count_of,
    standard_monomial_count,
)
from .regions import (
    DownSet,
    IdealSequence,
    PFamily,
    _as_budget,
    _flat,
    _nonnegative,
    _power_tables,
    containment_exponents,
    escape_set,
    escape_sizes,
    product_escapes,
)
from .ring import _digits


def json_text(payload) -> str:
    """The text of every JSON payload: sorted keys, no spaces, one newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _leave_one_out(values: list) -> int:
    """The sum over i of the product of every value but the i-th."""
    return sum(prod(values[:i] + values[i + 1:]) for i in range(len(values)))


def _fraction_json(v: Fraction) -> dict:
    return {"num": _digits(v.numerator), "den": _digits(v.denominator)}


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
        return json_text(self.to_jsonable())

    def __repr__(self):
        cells = ", ".join(f"e={e}: {v}" for e, v in self.rows)
        return f"EstimateTable[{self.kind}]({cells})"


class CheckReport:
    """Outcome of one identity/inequality checker, with exact sides."""

    __slots__ = ("name", "params", "left", "right", "ok", "witness", "table")

    def __init__(self, name, params, left, right, ok, witness=None, table=None):
        self.name = name
        self.params = dict(params)
        self.left = _digits(left)
        self.right = _digits(right)
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
            "witness": None if self.witness is None else _digits(self.witness),
        }
        if self.table is not None:
            out["table"] = self.table
        return out

    def to_json(self) -> str:
        return json_text(self.to_jsonable())

    def __repr__(self):
        verdict = "ok" if self.ok else f"FAILED (witness={self.witness})"
        return f"CheckReport[{self.name}] {self.left} vs {self.right}: {verdict}"


# ---------------------------------------------------------------------------
# nu and the threshold table
# ---------------------------------------------------------------------------

def nu(I: Ideal, J: Ideal, e: int, pres=None, budget=None) -> int:
    """Largest k with I^k escaping J^[p^e], charged against the budget. The
    one-entry escape set is [0, nu], so nu is its size less one
    (`regions.escape_sizes`): a principal I in a polynomial ring is counted
    on its Frobenius-root automaton, and any other I is split into its
    generators (the sup identity, see `regions.escape_set`) and swept at
    level e alone.
    """
    ((_, size, _, _),) = escape_sizes(IdealSequence([I]), PFamily.frobenius(J), [e], pres, budget)
    return size - 1


@contextmanager
def _cut_short(kind, p, t, rows, tilde_rows=None):
    """Attach the rows finished before a budget exit or an exponent overflow
    to the error as `partial`, a table flagged by which of the two it was.
    `rows` and `tilde_rows` are the lists the table fills as it goes."""
    try:
        yield
    except (BudgetExceededError, ExponentOverflowError) as exc:
        flag = "exponent_overflow" if isinstance(exc, ExponentOverflowError) else "budget_exceeded"
        exc.partial = EstimateTable(kind, p, t, rows, tilde_rows, {flag: True})
        raise


def _finished(kind, p, t, rows, tilde_rows=None, **flags) -> EstimateTable:
    """The table of `rows`, flagged "stabilized (not a proof)" when it has
    two or more rows and all agree: a finite table, never a limit."""
    flags["stabilized"] = len(rows) >= 2 and len({v for _, v in rows}) == 1
    if flags["stabilized"]:
        flags["note"] = "stabilized (not a proof)"
    return EstimateTable(kind, p, t, rows, tilde_rows, flags)


def threshold_table(I: Ideal, J: Ideal, levels, pres=None, budget=None) -> EstimateTable:
    """Rows (e, nu/p^e); the finite sequence only, no extrapolation. The
    levels are read in one pass (`regions.escape_sizes`), as `nu` reads
    one. A budget exit or an exponent overflow carries the rows finished
    before it (`_cut_short`)."""
    p = I.ring.p
    rows = []
    with _cut_short("threshold", p, 1, rows):
        for e, size, _, _ in escape_sizes(IdealSequence([I]), PFamily.frobenius(J), levels, pres,
                                          budget):
            rows.append((e, Fraction(size - 1, p ** e)))
    vals = [v for _, v in sorted(rows)]
    return _finished("threshold", p, 1, rows,
                     nondecreasing=all(a <= b for a, b in zip(vals, vals[1:])))


# ---------------------------------------------------------------------------
# Volume tables
# ---------------------------------------------------------------------------

def volume_table(seq: IdealSequence, fam: PFamily, levels, pres=None,
                 budget=None) -> EstimateTable:
    """Rows (e, |escape set|/p^{et}) with companion strictly-positive rows.

    The sizes of the sequence and (for t >= 2) of each entry alone come
    from `regions.escape_sizes`. Each row also records the exact gap bound
    between the two counts; over a polynomial ring with a Frobenius family
    (`regions._flat`: flat Frobenius and J_{p^(e+1)} = J_{p^e}^[p]) the
    positive-normalized rows must be nondecreasing in level order, and a
    violation is reported as a bug, not a result.
    A budget exit or an exponent overflow carries the rows finished before
    it (`_cut_short`).
    """
    counter = _as_budget(budget)
    p = fam.p
    t = seq.t
    rows, tilde_rows, gap_notes = [], [], []
    with _cut_short("volume", p, t, rows, tilde_rows):
        for e, size, positive, singles in escape_sizes(seq, fam, levels, pres, counter):
            denom = p ** (e * t)
            rows.append((e, Fraction(size, denom)))
            tilde_rows.append((e, Fraction(positive, denom)))
            bound = _leave_one_out(singles)
            gap = size - positive
            if gap > bound:
                raise TheoremViolationError(
                    f"escape-set gap {gap} exceeds its bound {bound} at e={e}",
                    witness=(e, gap, bound),
                )
            gap_notes.append({"e": e, "gap": _digits(gap), "bound": _digits(bound)})
    tilde_rows.sort()  # judged in level order, whatever order the levels came in
    gap_notes.sort(key=lambda note: note["e"])
    steps = list(zip(tilde_rows, tilde_rows[1:]))
    nondecreasing = all(a <= b for (_, a), (_, b) in steps)
    if _flat(fam, pres) and not nondecreasing:
        raise TheoremViolationError(
            "positive-normalized volume rows decreased over a polynomial ring",
            witness=next((d, e) for (d, a), (e, b) in steps if a > b),
        )
    return _finished("volume", p, t, rows, tilde_rows,
                     tilde_nondecreasing=nondecreasing, gap_bounds=gap_notes)


# ---------------------------------------------------------------------------
# Hilbert-Kunz tables
# ---------------------------------------------------------------------------

def hilbert_kunz_table(J: Ideal, levels, pres=None, d=None) -> EstimateTable:
    """Rows (e, length(R/(J^[p^e] + presentation)) / p^{ed}), exact.

    `d` defaults to the Krull dimension of the presented ring, and a given
    `d` must be nonnegative; finite length
    is required at every level (the graded stand-in for m-primary). An
    exponent overflow carries the rows finished before it (`_cut_short`)."""
    p = J.ring.p
    if d is None:
        d = krull_dimension(Ideal(J.ring, ()), pres)
        if d < 0:
            raise BadInputError("presented ring is zero; no Hilbert-Kunz data")
    elif d < 0:
        raise BadInputError(f"Hilbert-Kunz dimension must be nonnegative, got {d}")
    rows = []
    with _cut_short("hk", p, 1, rows):
        for e in levels:
            _nonnegative(e)
            q = p ** e
            lam = staircase_count_of(frobenius_basis(J, q, pres))
            if lam is None:
                raise NotPrimaryError(
                    f"quotient by the level-{e} bracket power has infinite length; "
                    "the reference ideal is not primary to the irrelevant maximal ideal"
                )
            rows.append((e, Fraction(lam, p ** (e * d))))
    return _finished("hk", p, 1, rows, d=d)


# ---------------------------------------------------------------------------
# Fedder criterion (complete-intersection form) and parameter sequences
# ---------------------------------------------------------------------------

def fedder_criterion(f_seq, e: int) -> bool:
    """True iff (f_1 ... f_t)^(p^e - 1) escapes the bracket power of the
    ideal m of all variables: the escape-set probe at the corner
    (p^e - 1, ..., p^e - 1) of the sequence ((f_1), ..., (f_t)) against the
    Frobenius family of m (`regions.product_escapes`). Each f_i is powered
    in its own table, linked down the family's levels as a sweep links it
    (`regions._power_tables`), so a digit step reads its high digits modulo
    the level below. For t >= 2 the time goes to the corner product (its
    `GroebnerBasis.meets` modulo m^[q]), not to the powers. An f_i need not
    lie in m, and a zero f_i gives False."""
    f_seq = list(f_seq)
    if not f_seq:
        raise BadInputError("need at least one element")
    ring = f_seq[0].ring
    for f in f_seq:
        if f.ring != ring:
            raise BadInputError("elements from different rings")
        if f.is_zero:
            return False
    seq = IdealSequence(Ideal(ring, (f,)) for f in f_seq)
    fam = PFamily.frobenius(Ideal(ring, ring.gens()))
    tables = _power_tables(seq, fam, e, None)
    return product_escapes([ring.p ** e - 1] * seq.t, tables, fam.level_basis(e))


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


def fedder_payload(f_seq, levels, e_max: int, pres=None) -> dict:
    """The `frobvol fedder` payload: rows of `fedder_criterion` over
    `levels`, sop `is_parameter_sequence` and label `fpure_ci_label` up to
    e_max. Level 1 is tested at most once, when first asked, and answers
    every row e >= 1 and the label (Fedder's lemma, see `fpure_ci_label`)."""
    f_seq = list(f_seq)
    if not f_seq:
        raise BadInputError("need at least one element")
    level_one = []

    def pure() -> bool:
        if not level_one:
            level_one.append(fedder_criterion(f_seq, 1))
        return level_one[0]

    rows = {e: pure() if e >= 1 else fedder_criterion(f_seq, e) for e in levels}
    sop = is_parameter_sequence(f_seq, pres)
    ring = f_seq[0].ring
    certified = ((pres is None or pres.is_zero) and e_max >= 1 and sop
                 and ideal_contains(Ideal(ring, f_seq), Ideal(ring, ring.gens())) and pure())
    return {"kind": "fedder", "p": ring.p, "rows": [{"e": e, "value": v} for e, v in rows.items()],
            "sop": sop, "label": FPURE_CI_LABEL.format(e=e_max) if certified else None}


def fpure_ci_label(f_seq, e_max: int, pres=None):
    """The certification label of `fedder_payload` with no rows, or None.

    The label asserts only finitely checked facts: the dimension-drop test,
    each f_i in the ideal m of all variables (the radical hypothesis of the
    escape sets against m), and Fedder's test at level 1, which by Fedder's
    lemma (Fedder, "F-purity and rational singularity", Trans. AMS 278, 1983)
    answers every level e >= 1; e_max < 1 gets no label. With each f_i in m,
    the level-e escape set against m fills [0, q-1]^t exactly when its
    corner escapes, so the label also means volume rows of exactly 1 from
    level 1 to e_max. Requires a polynomial ambient ring."""
    return fedder_payload(f_seq, (), e_max, pres)["label"]


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
    left = escape_set(seq, PFamily.frobenius(frobenius_power(J, J.ring.p)), e, pres, counter)
    right = escape_set(seq, PFamily.frobenius(J), e + 1, pres, counter)
    witness = _least_difference(left, right)
    return CheckReport("frob_shift", {"e": e}, left.size, right.size, witness is None, witness)


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
    last_nu = nu(seq.entries[-1], J, e, pres, budget=counter)
    witness = next((mp for mp in ds.max_points
                    if mp[:-1] not in ds_prefix or mp[-1] > last_nu), None)
    return CheckReport("slice_bound", {"e": e}, ds.size, ds_prefix.size * (last_nu + 1),
                       witness is None, witness)


def _least_difference(a: DownSet, b: DownSet):
    """None when the down-sets are equal, else the least point in just one
    of them: the witness of a checker comparing two escape sets."""
    return None if a == b else min(set(a.points()) ^ set(b.points()))


def _simplex_sides(seq: IdealSequence, J: Ideal, e: int, pres, counter) -> tuple:
    """(positive count / p^(et), (nu of the entry sum / p^e)^t / t!, singles)
    at level e: the sizes first (`regions.escape_sizes`), then nu of the sum."""
    q, t = J.ring.p ** e, seq.t
    ((_, _, positive, singles),) = escape_sizes(seq, PFamily.frobenius(J), [e], pres, counter)
    total = nu(ideal_sum(*seq.entries), J, e, pres, budget=counter)
    return Fraction(positive, q ** t), Fraction(total, q) ** t / factorial(t), singles


def check_simplex_bound(seq: IdealSequence, J: Ideal, e: int, pres=None, budget=None) -> CheckReport:
    """Positive-normalized count is at most (nu of the entry sum / p^e)^t / t!."""
    left, right, _ = _simplex_sides(seq, J, e, pres, _as_budget(budget))
    ok = left <= right
    return CheckReport("simplex_bound", {"e": e}, left, right, ok,
                       None if ok else (left, right))


def check_sup_identity(seq: IdealSequence, J: Ideal, e: int, pres=None, budget=None) -> CheckReport:
    """nu of the entry sum equals the largest coordinate sum in the escape set.

    The right side is read off the escape set's rows. `regions.escape_set`
    reads `nu` of a sum of principal entries off the sweep of their
    generators by this identity, so the check is not independent."""
    counter = _as_budget(budget)
    ds = escape_set(seq, PFamily.frobenius(J), e, pres, counter)
    total = nu(ideal_sum(*seq.entries), J, e, pres, budget=counter)
    best = max(sum(prefix) + top for prefix, top in ds.rows.items())
    ok = total == best
    return CheckReport("sup_identity", {"e": e}, total, best, ok,
                       None if ok else (total, best))


def check_union_decomposition(seq: IdealSequence, parts, e: int, pres=None,
                              budget=None) -> CheckReport:
    """For J = intersection of the parts, the escape set of J is the union of
    the parts' escape sets. Polynomial ambient ring only (bracket powers
    commute with intersections there). The union's rows are the row-wise
    max of the parts' rows, and the sets compare by rows; points are listed
    only to name a witness when they differ."""
    if pres is not None and not pres.is_zero:
        raise HypothesisViolatedError("union decomposition needs a polynomial ambient ring")
    parts = list(parts)
    if len(parts) < 2:
        raise HypothesisViolatedError("need at least two ideals to intersect")
    counter = _as_budget(budget)
    J = parts[0]
    for other in parts[1:]:
        J = ideal_intersection(J, other)
    ds_j = escape_set(seq, PFamily.frobenius(J), e, pres, counter)
    rows = {}
    for part in parts:
        for prefix, top in escape_set(seq, PFamily.frobenius(part), e, pres, counter).rows.items():
            rows[prefix] = max(rows.get(prefix, -1), top)
    union = DownSet(seq.t, e, ds_j.p, rows)
    witness = _least_difference(union, ds_j)
    return CheckReport("union_decomposition", {"e": e}, ds_j.size, union.size, witness is None,
                       witness)


def check_hk_length_inequality(seq: IdealSequence, J: Ideal, e: int, pres=None,
                               budget=None) -> CheckReport:
    """length(R/J^[p^e]) is at most |escape set| * length(R/(I + J^[p^e]))."""
    _nonnegative(e)
    if not seq.principal:
        raise HypothesisViolatedError("length inequality needs a sequence of elements")
    counter = _as_budget(budget)
    q = J.ring.p ** e
    left = staircase_count_of(frobenius_basis(J, q, pres))
    if left is None:
        raise NotPrimaryError("reference ideal is not primary to the irrelevant maximal ideal")
    ((_, size, _, _),) = escape_sizes(seq, PFamily.frobenius(J), [e], pres, counter)
    right = size * standard_monomial_count(ideal_sum(*seq.entries, frobenius_power(J, q)), pres)
    ok = left <= right
    return CheckReport("hk_length_ineq", {"e": e}, left, right, ok,
                       None if ok else (left, right))


def _fixed_level_sizes(seq: IdealSequence, fam: PFamily, outer_levels, inner_levels, pres,
                       counter) -> dict:
    """{(e, e'): (size, positive size)} of the level-e' escape set against
    the Frobenius family of the fixed level-e ideal J_e.

    For a Frobenius family of J that is the level-(e+e') escape set of the
    family itself, since (J^[p^e])^[p^e'] = J^[p^(e+e')]; so each distinct
    level e+e' is counted once, in one pass (`regions.escape_sizes`), and
    the hypothesis is checked once, against J, whose radical every J^[q]
    shares. An explicit family counts the inner levels of the Frobenius
    family of its level-e ideal."""

    def sizes(family, wanted) -> dict:
        return {level: (size, positive)
                for level, size, positive, _ in escape_sizes(seq, family, wanted, pres, counter)}

    _nonnegative(*outer_levels, *inner_levels)
    if fam.kind != "frobenius":
        return {(e, e2): cell for e in outer_levels
                for e2, cell in sizes(PFamily.frobenius(fam.level_ideal(e)), inner_levels).items()}
    swept = sizes(fam, sorted({e + e2 for e in outer_levels for e2 in inner_levels}))
    return {(e, e2): swept[e + e2] for e in outer_levels for e2 in inner_levels}


def check_level_refinement_bound(seq: IdealSequence, fam: PFamily, e: int, e1: int, e2: int,
                                 pres=None, budget=None) -> CheckReport:
    """Refining against the fixed level-e ideal grows the positive-normalized
    count by at most p^{e(t-1)} * u / p^{e1} for the explicit constant u.
    Both counts are read against J_e as `truncation_table` reads its cells
    (`_fixed_level_sizes`). A negative level or step is rejected up front."""
    _nonnegative(e, e1, e2)
    counter = _as_budget(budget)
    p = fam.p
    t = seq.t
    cells = _fixed_level_sizes(seq, fam, [e], [e1, e1 + e2], pres, counter)
    (_, fine), (_, coarse) = cells[e, e1 + e2], cells[e, e1]
    mus = seq.generator_counts()
    ells = containment_exponents(seq, fam, pres)
    u = _leave_one_out([m ** 2 * ell + 1 for m, ell in zip(mus, ells)]) * (max(mus) + 1)
    left = Fraction(fine, p ** ((e1 + e2) * t))
    right = Fraction(coarse, p ** (e1 * t)) + Fraction(p ** (e * (t - 1)) * u, p ** e1)
    ok = left <= right
    return CheckReport(
        "level_refinement_bound", {"e": e, "e1": e1, "e2": e2},
        left, right, ok, None if ok else (left, right),
    )


def truncation_table(seq: IdealSequence, fam: PFamily, outer_levels, inner_levels,
                     pres=None, budget=None) -> CheckReport:
    """Diagnostic grid: escape-set size against the fixed level-e ideal at
    inner level e', normalized by p^{(e+e')t} (`_fixed_level_sizes`). No
    verdict is implied."""
    outer_levels, inner_levels = list(outer_levels), list(inner_levels)
    cells = _fixed_level_sizes(seq, fam, outer_levels, inner_levels, pres, _as_budget(budget))
    table = []
    for e in outer_levels:
        for e2 in inner_levels:
            v = Fraction(cells[e, e2][0], fam.p ** ((e + e2) * seq.t))
            table.append({"e": e, "e_inner": e2, **_fraction_json(v)})
    return CheckReport("pfamily_truncation", {}, len(table), len(table), True, None, table)


def check_threshold_bounds(seq: IdealSequence, J: Ideal, e: int, pres=None,
                           budget=None) -> CheckReport:
    """Positive-normalized count is bounded by both threshold surrogates:
    the simplex term and the product of per-entry (nu+1)/p^e. Each nu + 1
    is the size of the entry's own escape set, which `regions.escape_sizes`
    yields with the count (`_simplex_sides`)."""
    left, simplex, singles = _simplex_sides(seq, J, e, pres, _as_budget(budget))
    right = min(simplex, Fraction(prod(singles), J.ring.p ** (e * seq.t)))
    ok = left <= right
    return CheckReport("threshold_bounds", {"e": e}, left, right, ok,
                       None if ok else (left, right))
