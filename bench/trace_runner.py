"""Run one frobvol CLI job with spans around each layer's entry points.

    PYTHONPATH=src python3 bench/trace_runner.py OUT.json JOB_ID <frobvol args...>

The runner wraps the public functions that mark each layer boundary, calls
`frobvol.cli.main` with the remaining arguments, and on exit writes every
span to OUT.json as [name, start, end, parent] rows (parent is a row index,
-1 for the root) together with the work counters. All spans of the run
carry JOB_ID. Spans live in memory until the job ends, so tracing adds no
I/O to the timed work.

A name imported with `from .x import f` is a separate binding in each
importing module, so a wrapper replaces every binding of the original
object in every frobvol module (and every alias on a class, such as
`Polynomial.__rmul__`).
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

from frobvol import cli, groebner, invariants, regions, ring

SPANS: list = []
COUNTS: Counter = Counter()
_STACK = [-1]


def span(name, fn):
    """Wrap fn so each call records a span named `name`."""

    def wrapper(*args, **kwargs):
        row = [name, 0.0, 0.0, _STACK[-1]]
        _STACK.append(len(SPANS))
        SPANS.append(row)
        row[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            row[2] = perf_counter()
            _STACK.pop()

    return wrapper


def count_calls(key, fn):
    def wrapper(*args, **kwargs):
        COUNTS[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def count_result(key, measure, fn):
    """Add measure(result) to COUNTS[key] after each call."""

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        COUNTS[key] += measure(result)
        return result

    return wrapper


def count_hits(fn):
    """A basis lookup is a hit when no GroebnerBasis is built inside it."""

    def wrapper(*args, **kwargs):
        built = COUNTS["groebner.bases_built"]
        result = fn(*args, **kwargs)
        if COUNTS["groebner.bases_built"] == built:
            COUNTS["groebner.basis.hits"] += 1
        return result

    return wrapper


def _terms(poly) -> int:
    return len(poly.coeffs) if isinstance(poly, ring.Polynomial) else 0


def count_terms_in(key, fn):
    def wrapper(self, f):
        COUNTS[key] += _terms(f)
        return fn(self, f)

    return wrapper


def _reduce(original):
    """Split GroebnerBasis.reduce on whether the basis is monomial."""
    by_kind = {}
    for kind, monomial in (("monomial", True), ("general", False)):
        name = f"groebner.reduce_{kind}"
        terms = count_terms_in(f"{name}.terms_in", original)
        by_kind[monomial] = span(name, terms)

    def reduce(self, f):
        return by_kind[self.is_monomial](self, f)

    return reduce


def _modules():
    return [m for name, m in sys.modules.items() if name == "frobvol" or name.startswith("frobvol.")]


def patch(owner, attr, wrap):
    """Replace owner.attr, and every other binding of the same object, by wrap(original)."""
    original = vars(owner)[attr]
    replacement = wrap(original)
    namespaces = [owner] if isinstance(owner, type) else _modules()
    for namespace in namespaces:
        for name, value in list(vars(namespace).items()):
            if value is original:
                setattr(namespace, name, replacement)


def install():
    Polynomial = ring.Polynomial
    patch(Polynomial, "__mul__",
          lambda f: span("ring.mul", count_result("ring.mul.terms_out", _terms, f)))
    patch(Polynomial, "__pow__", lambda f: span("ring.pow", f))

    patch(groebner.GroebnerBasis, "__init__", lambda f: count_calls("groebner.bases_built", f))
    patch(groebner.GroebnerBasis, "reduce", _reduce)
    patch(groebner, "buchberger", lambda f: span("groebner.buchberger", f))
    patch(groebner, "staircase_count_of", lambda f: span("groebner.staircase", f))
    patch(groebner, "radical_membership", lambda f: span("groebner.radical", f))
    for name in ("groebner_basis", "frobenius_basis"):
        patch(groebner, name, lambda f: span("groebner.basis", count_hits(f)))

    patch(regions.BudgetCounter, "charge", lambda f: count_calls("regions.probes", f))
    patch(regions, "escape_set", lambda f: span(
        "regions.escape_set", count_result("regions.points", lambda ds: ds.size, f)))
    for name in ("downset_csv", "staircase_svg", "box_region"):
        patch(regions, name, lambda f: span("regions.export", f))
    patch(regions, "verify_cover", lambda f: span("regions.verify_cover", f))

    patch(invariants, "nu", lambda f: span("invariants.nu", f))
    for name in ("volume_table", "threshold_table", "hilbert_kunz_table"):
        patch(invariants, name, lambda f: span("invariants.tables", f))
    checkers = [n for n in vars(invariants) if n.startswith("check_") and n != "check_hypothesis"]
    for name in checkers + ["truncation_table"]:
        patch(invariants, name, lambda f: span("invariants.checks", f))

    patch(cli, "parse_spec", lambda f: span("cli.parse_spec", f))
    for owner in (invariants.EstimateTable, invariants.CheckReport):
        patch(owner, "to_json", lambda f: span("cli.serialize", f))
    patch(cli, "_checks_json", lambda f: span("cli.serialize", f))
    patch(cli, "main", lambda f: span("cli.main", f))


def main(argv) -> int:
    out_path, job_id, cli_args = argv[0], argv[1], argv[2:]
    install()
    try:
        return cli.main(cli_args)
    finally:
        payload = {
            "job": job_id,
            "fields": ["name", "start", "end", "parent"],
            "spans": SPANS,
            "counts": dict(COUNTS),
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
