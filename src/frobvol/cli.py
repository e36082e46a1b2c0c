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

A spec error names the line and column of the offending text: inside a
polynomial list the bad piece or token, otherwise its statement.

Exit codes: 0 success, 2 hypothesis/input violation or an unreadable spec
or unwritable output file, 3 budget exceeded, 4 internal check failure (a
theorem checker came out false), 1 with no message when the reader of
stdout closes it before the output is written. A library error carries its
own code (`errors.FrobvolError.exit_code`).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from .errors import (
    BadInputError,
    FrobvolError,
    HypothesisViolatedError,
    NonPrimeError,
    SpecParseError,
)
from .groebner import Ideal, ideal_sum
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
    fedder_payload,
    hilbert_kunz_table,
    json_text,
    threshold_table,
    truncation_table,
    volume_table,
)
from .regions import (
    BudgetCounter,
    DEFAULT_BUDGET,
    IdealSequence,
    PFamily,
    downset_csv,
    escape_sets,
    staircase_svg,
    verify_cover,
)
from .ring import PolynomialRing

class ProblemSpec:
    """A parsed problem: ring, optional presentation, sequence, reference data.

    The ring is the one `parse_spec` built its polynomials in, and every
    derived object is built on it.
    """

    def __init__(self, ring, present, j_parts, family_levels, seq_entries,
                 e_lo, e_hi, budget):
        self._ring = ring
        self.p = ring.p
        self.variables = ring.variables
        self.present = present
        self.j_parts = j_parts
        self.family_levels = family_levels
        self.seq_entries = seq_entries
        self.e_lo = e_lo
        self.e_hi = e_hi
        self.budget = budget

    # -- derived objects -----------------------------------------------------

    def ring(self) -> PolynomialRing:
        return self._ring

    def presentation(self) -> Ideal | None:
        """The relations of the presented ring, or None for the polynomial ring."""
        if not self.present:
            return None
        return Ideal(self._ring, self.present)

    def sequence(self) -> IdealSequence:
        return IdealSequence([Ideal(self._ring, entry) for entry in self.seq_entries])

    def reference_ideal(self) -> Ideal:
        if self.family_levels is not None:
            raise BadInputError("this command needs a fixed reference ideal J, not a family")
        if len(self.j_parts) != 1:
            raise BadInputError(
                "multiple J statements are only meaningful for `check union_decomposition`"
            )
        return Ideal(self._ring, self.j_parts[0])

    def family(self) -> PFamily:
        if self.family_levels is not None:
            return PFamily.explicit(
                [Ideal(self._ring, lvl) for lvl in self.family_levels], self.presentation()
            )
        return PFamily.frobenius(self.reference_ideal())

    def levels(self) -> range:
        return range(self.e_lo, self.e_hi + 1)

    def __repr__(self):
        return f"ProblemSpec(p={self.p}, vars={self.variables}, t={len(self.seq_entries)})"


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------

# One pattern for every statement: the group that matched is its keyword, and
# the match ends where its payload starts.
_STATEMENT_RE = re.compile(r"(?:(p|budget)\s*=|(ring)\s|(present|J|family|seq|e)\s*:)\s*")
_FAMILY_LEVEL_RE = re.compile(r"e(\d+)\s*:\s*")
_RANGE_RE = re.compile(r"(\d+)\s*\.\.\s*(\d+)$")


def _statements(text: str) -> list:
    """Group the ';'- and newline-separated pieces of `text` into statements.

    Each statement is (keyword, pieces). A piece is (line, column, payload
    column, payload): the column is where the piece starts, the payload
    column where its text after the keyword starts. Pieces without a keyword
    continue the `seq` or `family` statement before them.
    """
    statements = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.strip().startswith("#"):
            continue
        col = 1
        for chunk in line.split(";"):
            content = chunk.strip()
            start = col + len(chunk) - len(chunk.lstrip())
            col += len(chunk) + 1
            if not content:
                continue
            m = _STATEMENT_RE.match(content)
            if m is not None:
                piece = (lineno, start, start + m.end(), content[m.end():])
                statements.append((m.group(m.lastindex), [piece]))
            elif statements and statements[-1][0] in ("seq", "family"):
                statements[-1][1].append((lineno, start, start, content))
            else:
                raise SpecParseError(f"unexpected statement {content!r}", lineno, start)
    return statements


def parse_spec(text: str) -> ProblemSpec:
    """Parse a problem spec.

    Raises SpecParseError / PolyParseError with positions, NonPrimeError for a
    composite p, and BadInputError for family levels that are not a p-family.
    A polynomial error names the offending text; any other error names its
    statement. The radical hypothesis is not checked here: each command that
    reads the sequence against J checks it through `containment_exponents`.
    """
    found = {}
    j_parts_raw = []
    for kind, pieces in _statements(text):
        if kind == "J":
            j_parts_raw.append(pieces[0])
        elif kind in found:
            raise SpecParseError(f"duplicate {kind!r} statement", *pieces[0][:2])
        else:
            found[kind] = pieces

    def need(kind):
        if kind not in found:
            raise SpecParseError(f"missing {kind!r} statement")
        return found[kind]

    line, col, _, raw_p = need("p")[0]
    try:
        p = int(raw_p)
    except ValueError:
        raise SpecParseError(f"p must be an integer, got {raw_p!r}", line, col)
    line_r, col_r, _, raw_ring = need("ring")[0]
    variables = tuple(v.strip() for v in raw_ring.split(",") if v.strip())
    if not variables:
        raise SpecParseError("empty variable list", line_r, col_r)
    try:
        ring = PolynomialRing(p, variables)
    except NonPrimeError:
        raise NonPrimeError(f"p={p} is not prime (line {line})")
    except ValueError as exc:
        raise SpecParseError(str(exc), line_r, col_r)

    def parse_polys(line, col, raw):
        """The comma-separated polynomials of `raw`, which starts at `col`."""
        polys = []
        for piece in raw.split(","):
            poly = piece.strip()
            if not poly:
                raise SpecParseError("empty polynomial in list", line, col)
            polys.append(ring.poly(poly, line=line, column=col + len(piece) - len(piece.lstrip())))
            col += len(piece) + 1
        return tuple(polys)

    present = ()
    if "present" in found:
        line_p, _, at, raw = found["present"][0]
        present = parse_polys(line_p, at, raw)

    family_levels = None
    if "family" in found:
        line_f, col_f = found["family"][0][:2]
        if j_parts_raw:
            raise SpecParseError("give either J or family, not both", line_f, col_f)
        levels = {}
        for line_l, col_l, at, piece in found["family"]:
            if not piece:
                continue
            m = _FAMILY_LEVEL_RE.match(piece)
            if m is None:
                raise SpecParseError(f"expected 'e<k>: polys', got {piece!r}", line_l, col_l)
            idx = int(m.group(1))
            if idx in levels:
                raise SpecParseError(f"duplicate family level e{idx}", line_l, col_l)
            levels[idx] = parse_polys(line_l, at + m.end(), piece[m.end():])
        if sorted(levels) != list(range(len(levels))) or not levels:
            raise SpecParseError("family levels must be contiguous starting at e0", line_f, col_f)
        family_levels = tuple(levels[i] for i in range(len(levels)))
    elif not j_parts_raw:
        raise SpecParseError("missing 'J:' or 'family:' statement")

    j_parts = tuple(parse_polys(line_j, at, raw) for line_j, _, at, raw in j_parts_raw)

    seq_pieces = need("seq")
    seq_entries = tuple(parse_polys(line_s, at, raw) for line_s, _, at, raw in seq_pieces if raw)
    if not seq_entries:
        raise SpecParseError("empty sequence", *seq_pieces[0][:2])

    e_lo, e_hi = 1, 4
    if "e" in found:
        line_e, col_e, _, raw = found["e"][0]
        m = _RANGE_RE.match(raw)
        if m is None:
            raise SpecParseError(f"expected 'e: a..b', got {raw!r}", line_e, col_e)
        e_lo, e_hi = int(m.group(1)), int(m.group(2))
        if e_lo > e_hi:
            raise SpecParseError("empty level range", line_e, col_e)

    budget = DEFAULT_BUDGET
    if "budget" in found:
        line_b, col_b, _, raw = found["budget"][0]
        try:
            budget = int(raw)
        except ValueError:
            raise SpecParseError(f"budget must be an integer, got {raw!r}", line_b, col_b)
        if budget < 1:
            raise SpecParseError("budget must be positive", line_b, col_b)

    spec = ProblemSpec(ring, present, j_parts, family_levels, seq_entries, e_lo, e_hi, budget)
    if family_levels is not None:
        spec.family()  # a family whose levels are not a p-family is malformed input
    return spec


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _checks_json(reports) -> str:
    return json_text({"checks": [r.to_jsonable() for r in reports]})


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


# The level flags each checker reads (a per-level checker: --e); any other is refused.
_CHECK_FLAGS = {"level_refinement_bound": ("e", "e1", "e2"), "pfamily_truncation": ()}


def _run_check(spec: ProblemSpec, name: str, args) -> tuple:
    reads = _CHECK_FLAGS.get(name, ("e",))
    for flag in ("e", "e1", "e2"):
        if flag not in reads and getattr(args, flag) is not None:
            raise BadInputError(f"check {name} does not read --{flag}")
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
    """Return (payload, exit code): text, or a function writing it to a stream."""
    command = args.command
    pres = spec.presentation()
    if command in ("vset", "staircase"):
        counter = BudgetCounter(spec.budget)
        sets = list(escape_sets(spec.sequence(), spec.family(), spec.levels(), pres, counter))
        if command == "staircase":
            return staircase_svg(sets), 0
        for ds in sets:
            counter.charge(ds.size)  # the points the CSV lists
        return (lambda out: downset_csv(sets, out)), 0

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
        # the rows test Fedder's criterion in the polynomial ring itself
        if pres is not None and not pres.is_zero:
            raise HypothesisViolatedError("fedder needs a polynomial ambient ring")
        seq = spec.sequence()
        if not seq.principal:
            raise BadInputError("fedder needs a sequence of single-generator entries")
        f_seq = [I.gens[0] for I in seq.entries]
        return json_text(fedder_payload(f_seq, spec.levels(), spec.e_hi, pres)), 0

    if command == "check":
        return _run_check(spec, args.name, args)

    if command == "verify-cover":
        result = verify_cover(
            spec.sequence(), spec.family(), args.e1, args.e2, pres,
            BudgetCounter(spec.budget),
        )
        witness = None if result.witness is None else list(result.witness)
        return json_text({"check": "verify_cover", "e1": args.e1, "e2": args.e2,
                          "ok": result.ok, "witness": witness}), 0 if result.ok else 4

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
        spec = parse_spec(text)
        payload, code = _dispatch(spec, args)
    except FrobvolError as exc:
        print(exc.message(), file=sys.stderr)
        code = exc.exit_code
        # volume, threshold and hk still write the rows finished before a cut-off
        if exc.partial is None:
            return code
        payload = exc.partial.to_json()
    write = payload if callable(payload) else lambda out: out.write(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as out:
                write(out)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
        return code
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): point it at devnull so
        # that the interpreter's last flush does not fail again, and exit 1
        # as Python does on EPIPE (the pattern of the `signal` module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
