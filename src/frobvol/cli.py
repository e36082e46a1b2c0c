"""Command-line surface: parse problem specs, run estimators and checkers.

Spec grammar (statements separated by ';' or newlines):

    p=<int>
    ring <id>(,<id>)*
    present: <poly>(,<poly>)*            optional quotient presentation
    J: <poly>(,<poly>)*                  reference ideal (repeat only for
                                         `check union_decomposition`)
    family: e0: <polys>; e1: <polys>...  explicit p-family instead of J
    seq: <ideal> (";" <ideal>)*          ideal = poly(,poly)*
    e: <a>..<b>
    budget=<int>

Exit codes: 0 success, 2 hypothesis/input violation, 3 budget exceeded,
4 internal check failure (a theorem checker came out false).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .errors import (
    BadInputError,
    BadLevelError,
    BudgetExceededError,
    HypothesisViolatedError,
    NonPrimeError,
    NotPrimaryError,
    PolyParseError,
    SearchLimitError,
    SpecParseError,
    TheoremViolationError,
)
from .groebner import Ideal, QuotientPresentation
from .invariants import (
    CHECK_NAMES,
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
    threshold_table,
    truncation_table,
    volume_table,
)
from .groebner import ideal_sum
from .regions import (
    BudgetCounter,
    DEFAULT_BUDGET,
    IdealSequence,
    PFamily,
    check_hypothesis,
    downset_csv,
    escape_sets,
    staircase_svg,
    verify_cover,
)
from .ring import PolynomialRing

_USER_ERRORS = (
    SpecParseError,
    PolyParseError,
    NonPrimeError,
    HypothesisViolatedError,
    BadInputError,
    BadLevelError,
    NotPrimaryError,
    SearchLimitError,
)


class ProblemSpec:
    """A parsed problem: ring, optional presentation, sequence, reference data."""

    def __init__(self, p, variables, order, present, j_parts, family_levels,
                 seq_entries, e_lo, e_hi, budget):
        self.p = p
        self.variables = tuple(variables)
        self.order = order
        self.present = tuple(present)
        self.j_parts = tuple(tuple(part) for part in j_parts)
        self.family_levels = (
            None if family_levels is None else tuple(tuple(l) for l in family_levels)
        )
        self.seq_entries = tuple(tuple(entry) for entry in seq_entries)
        self.e_lo = e_lo
        self.e_hi = e_hi
        self.budget = budget

    # -- derived objects -----------------------------------------------------

    def ring(self) -> PolynomialRing:
        return PolynomialRing(self.p, self.variables, self.order)

    def presentation(self):
        if not self.present:
            return None
        return QuotientPresentation(self.ring(), Ideal(self.ring(), self.present))

    def sequence(self) -> IdealSequence:
        ring = self.ring()
        return IdealSequence([Ideal(ring, entry) for entry in self.seq_entries])

    def reference_ideal(self) -> Ideal:
        if self.family_levels is not None:
            raise BadInputError("this command needs a fixed reference ideal J, not a family")
        if len(self.j_parts) != 1:
            raise BadInputError(
                "multiple J statements are only meaningful for `check union_decomposition`"
            )
        return Ideal(self.ring(), self.j_parts[0])

    def family(self) -> PFamily:
        ring = self.ring()
        if self.family_levels is not None:
            return PFamily.explicit(
                [Ideal(ring, lvl) for lvl in self.family_levels], self.presentation()
            )
        return PFamily.frobenius(self.reference_ideal())

    def levels(self) -> range:
        return range(self.e_lo, self.e_hi + 1)

    # -- round trip -----------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"p={self.p}", "ring " + ",".join(self.variables)]
        if self.present:
            lines.append("present: " + ",".join(str(g) for g in self.present))
        if self.family_levels is not None:
            parts = [
                f"e{i}: " + ",".join(str(g) for g in lvl)
                for i, lvl in enumerate(self.family_levels)
            ]
            lines.append("family: " + "; ".join(parts))
        else:
            for part in self.j_parts:
                lines.append("J: " + ",".join(str(g) for g in part))
        lines.append("seq: " + "; ".join(",".join(str(g) for g in entry) for entry in self.seq_entries))
        lines.append(f"e: {self.e_lo}..{self.e_hi}")
        lines.append(f"budget={self.budget}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        if not isinstance(other, ProblemSpec):
            return NotImplemented
        return (
            self.p == other.p
            and self.variables == other.variables
            and self.order == other.order
            and self.present == other.present
            and self.j_parts == other.j_parts
            and self.family_levels == other.family_levels
            and self.seq_entries == other.seq_entries
            and (self.e_lo, self.e_hi) == (other.e_lo, other.e_hi)
            and self.budget == other.budget
        )

    def __repr__(self):
        return f"ProblemSpec(p={self.p}, vars={self.variables}, t={len(self.seq_entries)})"


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------

_KEYWORD_RES = {
    "p": re.compile(r"p\s*=\s*(.*)$", re.S),
    "ring": re.compile(r"ring\s+(.*)$", re.S),
    "present": re.compile(r"present\s*:\s*(.*)$", re.S),
    "J": re.compile(r"J\s*:\s*(.*)$", re.S),
    "family": re.compile(r"family\s*:\s*(.*)$", re.S),
    "seq": re.compile(r"seq\s*:\s*(.*)$", re.S),
    "e": re.compile(r"e\s*:\s*(.*)$", re.S),
    "budget": re.compile(r"budget\s*=\s*(.*)$", re.S),
}
_FAMILY_LEVEL_RE = re.compile(r"e(\d+)\s*:\s*(.*)$", re.S)
_RANGE_RE = re.compile(r"(\d+)\s*\.\.\s*(\d+)$")


def _segments(text: str):
    """Split into (line, column, content) statement tokens."""
    out = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.strip().startswith("#"):
            continue
        col = 1
        for chunk in line.split(";"):
            stripped = chunk.strip()
            if stripped:
                out.append((lineno, col + (len(chunk) - len(chunk.lstrip())), stripped))
            col += len(chunk) + 1
    return out


def _classify(content: str):
    for name, rx in _KEYWORD_RES.items():
        m = rx.match(content)
        if m is not None:
            if name == "e" and _FAMILY_LEVEL_RE.match(content):
                continue  # e<k>: is a family level, not the range statement
            return name, m.group(1).strip()
    return None, content


def parse_spec(text: str, order: str | None = None) -> ProblemSpec:
    """Parse and fully validate a problem spec.

    Raises SpecParseError / PolyParseError with positions, NonPrimeError for a
    composite p, and HypothesisViolatedError when a sequence generator is not
    in the radical of the level-0 reference ideal.
    """
    tokens = _segments(text)
    statements = []  # (kind, payload tokens [(line, col, text), ...])
    current = None
    for line, col, content in tokens:
        kind, rest = _classify(content)
        if kind is not None:
            current = (kind, [(line, col, rest)])
            statements.append(current)
        else:
            if current is None or current[0] not in ("seq", "family"):
                raise SpecParseError(f"unexpected statement {content!r}", line, col)
            current[1].append((line, col, content))

    found = {}
    j_parts_raw = []
    for kind, payload in statements:
        if kind == "J":
            j_parts_raw.append(payload[0])
            continue
        if kind in found:
            line, col, _ = payload[0]
            raise SpecParseError(f"duplicate {kind!r} statement", line, col)
        found[kind] = payload

    def need(kind):
        if kind not in found:
            raise SpecParseError(f"missing {kind!r} statement")
        return found[kind]

    line, col, raw_p = need("p")[0]
    try:
        p = int(raw_p)
    except ValueError:
        raise SpecParseError(f"p must be an integer, got {raw_p!r}", line, col)
    line_r, col_r, raw_ring = need("ring")[0]
    variables = tuple(v.strip() for v in raw_ring.split(",") if v.strip())
    if not variables:
        raise SpecParseError("empty variable list", line_r, col_r)
    try:
        ring = PolynomialRing(p, variables, order or "grevlex")
    except NonPrimeError:
        raise NonPrimeError(f"p={p} is not prime (line {line})")
    except ValueError as exc:
        raise SpecParseError(str(exc), line_r, col_r)

    def parse_polys(raw, line, col):
        polys = []
        for piece in raw.split(","):
            piece = piece.strip()
            if not piece:
                raise SpecParseError("empty polynomial in list", line, col)
            polys.append(ring.poly(piece, line=line, column=col))
        return tuple(polys)

    present = ()
    if "present" in found:
        line_p, col_p, raw = found["present"][0]
        present = parse_polys(raw, line_p, col_p)

    family_levels = None
    if "family" in found:
        if j_parts_raw:
            line_f, col_f, _ = found["family"][0]
            raise SpecParseError("give either J or family, not both", line_f, col_f)
        levels = {}
        for line_f, col_f, piece in found["family"]:
            if not piece:
                continue
            m = _FAMILY_LEVEL_RE.match(piece)
            if m is None:
                raise SpecParseError(f"expected 'e<k>: polys', got {piece!r}", line_f, col_f)
            idx = int(m.group(1))
            if idx in levels:
                raise SpecParseError(f"duplicate family level e{idx}", line_f, col_f)
            levels[idx] = parse_polys(m.group(2).strip(), line_f, col_f)
        if sorted(levels) != list(range(len(levels))) or not levels:
            raise SpecParseError("family levels must be contiguous starting at e0")
        family_levels = tuple(levels[i] for i in range(len(levels)))
    elif not j_parts_raw:
        raise SpecParseError("missing 'J:' or 'family:' statement")

    j_parts = tuple(parse_polys(raw, line_j, col_j) for line_j, col_j, raw in j_parts_raw)

    seq_entries = []
    for line_s, col_s, piece in need("seq"):
        if piece:
            seq_entries.append(parse_polys(piece, line_s, col_s))
    if not seq_entries:
        raise SpecParseError("empty sequence")

    e_lo, e_hi = 1, 4
    if "e" in found:
        line_e, col_e, raw = found["e"][0]
        m = _RANGE_RE.match(raw)
        if m is None:
            raise SpecParseError(f"expected 'e: a..b', got {raw!r}", line_e, col_e)
        e_lo, e_hi = int(m.group(1)), int(m.group(2))
        if e_lo > e_hi:
            raise SpecParseError("empty level range", line_e, col_e)

    budget = DEFAULT_BUDGET
    if "budget" in found:
        line_b, col_b, raw = found["budget"][0]
        try:
            budget = int(raw)
        except ValueError:
            raise SpecParseError(f"budget must be an integer, got {raw!r}", line_b, col_b)
        if budget < 1:
            raise SpecParseError("budget must be positive", line_b, col_b)

    spec = ProblemSpec(
        p, variables, order or "grevlex", present, j_parts, family_levels,
        seq_entries, e_lo, e_hi, budget,
    )
    # validate the radical hypothesis up front, citing the offending generator
    if spec.family_levels is None and len(spec.j_parts) > 1:
        for part in spec.j_parts:
            check_hypothesis(
                spec.sequence(),
                PFamily.frobenius(Ideal(spec.ring(), part)),
                spec.presentation(),
            )
    else:
        check_hypothesis(spec.sequence(), spec.family(), spec.presentation())
    return spec


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _checks_json(reports) -> str:
    payload = {"checks": [r.to_jsonable() for r in reports]}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _union_parts(spec: ProblemSpec) -> list:
    if len(spec.j_parts) < 2:
        raise BadInputError("union_decomposition needs two or more J statements in the spec")
    return [Ideal(spec.ring(), part) for part in spec.j_parts]


# Checkers that run once per level: name -> call(spec, seq, e, pres, budget).
# The lambdas look each checker up by name at call time, so rebinding a
# checker's module-level name (as a tracer does) reaches this dispatch too.
_LEVEL_CHECKS = {
    "frob_shift": lambda spec, seq, e, pres, budget: check_frob_shift(
        seq, spec.reference_ideal(), e, pres, budget),
    "containment_monotone": lambda spec, seq, e, pres, budget: check_containment_monotone(
        seq, spec.reference_ideal(), Ideal(spec.ring(), spec.ring().gens()), e, pres, budget),
    "slice_bound": lambda spec, seq, e, pres, budget: check_slice_bound(
        seq, spec.reference_ideal(), e, pres, budget),
    "simplex_bound": lambda spec, seq, e, pres, budget: check_simplex_bound(
        seq, spec.reference_ideal(), e, pres, budget),
    "sup_identity": lambda spec, seq, e, pres, budget: check_sup_identity(
        seq, spec.reference_ideal(), e, pres, budget),
    "threshold_bounds": lambda spec, seq, e, pres, budget: check_threshold_bounds(
        seq, spec.reference_ideal(), e, pres, budget),
    "union_decomposition": lambda spec, seq, e, pres, budget: check_union_decomposition(
        seq, _union_parts(spec), e, pres, budget),
    "hk_length_ineq": lambda spec, seq, e, pres, budget: check_hk_length_inequality(
        seq, spec.reference_ideal(), e, pres, budget),
}


def _run_check(spec: ProblemSpec, name: str, args) -> tuple:
    seq = spec.sequence()
    pres = spec.presentation()
    counter = BudgetCounter(spec.budget)
    if name in _LEVEL_CHECKS:
        levels = [args.e] if args.e is not None else spec.levels()
        reports = [_LEVEL_CHECKS[name](spec, seq, e, pres, counter) for e in levels]
    elif name == "level_refinement_bound":
        e = args.e if args.e is not None else spec.e_lo
        e1 = args.e1 if args.e1 is not None else 1
        e2 = args.e2 if args.e2 is not None else 1
        reports = [check_level_refinement_bound(seq, spec.family(), e, e1, e2, pres, counter)]
    else:  # pfamily_truncation; argparse admits only CHECK_NAMES
        reports = [truncation_table(seq, spec.family(), spec.levels(), spec.levels(), pres, counter)]
    code = 0 if all(r.ok for r in reports) else 4
    return _checks_json(reports), code


def _dispatch(spec: ProblemSpec, args) -> tuple:
    """Return (payload text, exit code)."""
    command = args.command
    pres = spec.presentation()
    if command == "vset":
        seq = spec.sequence()
        fam = spec.family()
        counter = BudgetCounter(spec.budget)
        sets = list(escape_sets(seq, fam, spec.levels(), pres, counter))
        return downset_csv(sets), 0

    if command == "volume":
        table = volume_table(
            spec.sequence(), spec.family(), spec.levels(), pres,
            budget=BudgetCounter(spec.budget),
        )
        return table.to_json(), 0

    if command == "threshold":
        seq = spec.sequence()
        I = ideal_sum(*seq.entries)
        table = threshold_table(I, spec.reference_ideal(), spec.levels(), pres,
                                budget=BudgetCounter(spec.budget))
        return table.to_json(), 0

    if command == "hk":
        table = hilbert_kunz_table(spec.reference_ideal(), spec.levels(), pres, d=args.dim)
        return table.to_json(), 0

    if command == "fedder":
        seq = spec.sequence()
        if not seq.principal:
            raise BadInputError("fedder needs a sequence of single-generator entries")
        f_seq = [I.gens[0] for I in seq.entries]
        rows = [{"e": e, "value": fedder_criterion(f_seq, e)} for e in spec.levels()]
        sop = is_parameter_sequence(f_seq, pres)
        label = fpure_ci_label(f_seq, spec.e_hi, pres, budget=BudgetCounter(spec.budget))
        payload = {
            "kind": "fedder",
            "p": spec.p,
            "rows": rows,
            "sop": sop,
            "label": label,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", 0

    if command == "check":
        return _run_check(spec, args.name, args)

    if command == "verify-cover":
        result = verify_cover(
            spec.sequence(), spec.family(), args.e1, args.e2, pres,
            BudgetCounter(spec.budget),
        )
        payload = {
            "check": "verify_cover",
            "e1": args.e1,
            "e2": args.e2,
            "ok": result.ok,
            "witness": None if result.witness is None else list(result.witness),
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        return text, 0 if result.ok else 4

    if command == "staircase":
        seq = spec.sequence()
        fam = spec.family()
        counter = BudgetCounter(spec.budget)
        downsets = list(escape_sets(seq, fam, spec.levels(), pres, counter))
        return staircase_svg(downsets), 0

    raise BadInputError(f"unknown command {command!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobvol",
        description="Exact escape-set, F-threshold, F-volume and Hilbert-Kunz computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, first_positional=None, output="json", **kwargs):
        sp = sub.add_parser(name, **kwargs)
        if first_positional is not None:
            sp.add_argument(*first_positional[0], **first_positional[1])
        sp.add_argument("specfile", help="problem spec file")
        sp.add_argument(f"--{output}", dest="out", default=None,
                        help=f"write {output.upper()} here instead of stdout")
        sp.add_argument("--order", choices=("lex", "grevlex"), default=None)
        return sp

    add("vset", output="csv", help="enumerate escape sets, one CSV row per lattice point")
    add("volume", help="exact volume table (JSON)")
    add("threshold", help="nu/p^e table for the sum of the sequence entries (JSON)")
    hk = add("hk", help="Hilbert-Kunz length table (JSON)")
    hk.add_argument("--dim", type=int, default=None, help="override the normalizing dimension")
    add("fedder", help="Fedder product test per level, plus the certification label")
    chk = add(
        "check",
        first_positional=(("name",), {"choices": CHECK_NAMES}),
        help="run one named identity/inequality checker",
    )
    chk.add_argument("--e", type=int, default=None)
    chk.add_argument("--e1", type=int, default=None)
    chk.add_argument("--e2", type=int, default=None)
    cover = add("verify-cover", help="check the two-cover containment at (e1, e2)")
    cover.add_argument("--e1", type=int, required=True)
    cover.add_argument("--e2", type=int, required=True)
    add("staircase", output="svg", help="SVG staircase outlines, one color per level")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = Path(args.specfile).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {args.specfile}: {exc}", file=sys.stderr)
        return 2
    try:
        spec = parse_spec(text, order=args.order)
        payload, code = _dispatch(spec, args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # volume and threshold still write the rows finished before the
        # cutoff; fedder's label builds a volume table that is not its payload
        if exc.partial is None or exc.partial.kind != args.command:
            return 3
        payload, code = exc.partial.to_json(), 3
    except TheoremViolationError as exc:
        print(f"internal check failure: {exc} (witness: {exc.witness})", file=sys.stderr)
        return 4
    if args.out:
        Path(args.out).write_bytes(payload.encode("utf-8"))
    else:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
