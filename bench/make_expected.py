"""Regenerate bench/expected/ and cross-check it against independent routes.

    python3 bench/make_expected.py

Runs every benchmark job once through the CLI, compares the payload with
the brute-force oracles of tests/oracles.py at the levels where they are
feasible (at most ORACLE_MAX_LEVEL), and writes bench/expected/<job>.out.
It exits non-zero, writing nothing, if any cross-check fails. Files whose
content changes are listed: a changed payload is a change in behaviour.

Cross-checks by command:
  volume, vset  escape sets against brute_force_escape_points
  threshold     nu against the brute-force escape set of the summed ideal;
                levels above ORACLE_MAX_LEVEL against a closed form
  hk            lengths against staircase_count_brute
  check, verify-cover   every verdict is ok (each is a theorem)
  staircase     none: it draws the same escape sets that vset checks
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction

import run

sys.path[:0] = [str(run.ROOT / "src"), str(run.ROOT / "tests")]

from oracles import brute_force_escape_points, staircase_count_brute  # noqa: E402

from frobvol.cli import parse_spec  # noqa: E402
from frobvol.groebner import frobenius_power, ideal_sum  # noqa: E402
from frobvol.regions import IdealSequence, PFamily  # noqa: E402

ORACLE_MAX_LEVEL = 3


# nu_e by spec, for levels past the oracle. For the cusp y^2+x^3 in
# characteristic 3 it is 2*3^(e-1) - 1: the same form is frozen for y^2-x^3 in
# tests/test_classical_values.py, and x -> -x maps one curve to the other.
# The linear form x+y has F-pure threshold 1, so nu_e = p^e - 1.
# check_threshold also compares each form with the oracle at levels 1 and 2.
CLOSED_FORM_NU = {
    "cusp_p3.e7-8": lambda e: 2 * 3 ** (e - 1) - 1,
    "p5_t1_sum.e1-4": lambda e: 5 ** e - 1,
}


class CrossCheckError(Exception):
    pass


def expect(ok, where):
    if not ok:
        raise CrossCheckError(where)


def rows(payload, key="rows"):
    return {r["e"]: Fraction(int(r["num"]), int(r["den"])) for r in payload[key]}


def oracle_points(spec, e, seq=None, fam=None):
    return brute_force_escape_points(
        seq or spec.sequence(), fam or spec.family(), e, spec.presentation()
    )


def oracle_levels(spec):
    return [e for e in spec.levels() if e <= ORACLE_MAX_LEVEL]


def check_volume(spec, text, spec_name):
    payload = json.loads(text)
    t, p = spec.sequence().t, spec.p
    for e in oracle_levels(spec):
        pts = oracle_points(spec, e)
        positive = sum(all(a >= 1 for a in pt) for pt in pts)
        expect(rows(payload)[e] == Fraction(len(pts), p ** (e * t)), e)
        expect(rows(payload, "rows_tilde")[e] == Fraction(positive, p ** (e * t)), e)


def check_vset(spec, text, spec_name):
    by_level = {}
    for line in text.splitlines()[1:]:
        e, *pt = map(int, line.split(","))
        by_level.setdefault(e, set()).add(tuple(pt))
    for e in oracle_levels(spec):
        expect(by_level[e] == oracle_points(spec, e), e)


def check_threshold(spec, text, spec_name):
    values = rows(json.loads(text))
    summed = IdealSequence([ideal_sum(*spec.sequence().entries)])
    fam = PFamily.frobenius(spec.reference_ideal())

    def oracle_nu(e):
        return max(a for (a,) in oracle_points(spec, e, summed, fam))

    closed_form = CLOSED_FORM_NU.get(spec_name)
    if closed_form is not None:
        for e in (1, 2):
            expect(oracle_nu(e) == closed_form(e), f"closed form at e={e}")
    for e, value in values.items():
        if e <= ORACLE_MAX_LEVEL:
            nu = oracle_nu(e)
        elif closed_form is not None:
            nu = closed_form(e)
        else:
            continue
        expect(value == Fraction(nu, spec.p ** e), e)


def check_hk(spec, text, spec_name):
    payload = json.loads(text)
    d = payload["flags"]["d"]
    J = spec.reference_ideal()
    for e in oracle_levels(spec):
        length = staircase_count_brute(frobenius_power(J, spec.p ** e), spec.presentation())
        expect(rows(payload)[e] == Fraction(length, spec.p ** (e * d)), e)


def check_verdicts(spec, text, spec_name):
    payload = json.loads(text)
    reports = payload.get("checks", [payload])
    expect(all(r["ok"] for r in reports), reports)


CROSS_CHECKS = {
    "volume": check_volume,
    "vset": check_vset,
    "threshold": check_threshold,
    "hk": check_hk,
    "check": check_verdicts,
    "verify-cover": check_verdicts,
    "staircase": None,
}


def main() -> int:
    outputs = {}
    for workload, lines in run.WORKLOADS.items():
        for line in lines:
            argv = [run.PYTHON, "-m", "frobvol", *run.cli_args(line)]
            proc = subprocess.run(argv, cwd=run.ROOT, env=run.ENV, capture_output=True,
                                  timeout=run.JOB_LIMIT_S, check=False)
            if proc.returncode != 0:
                print(f"{line}: exit code {proc.returncode}: {proc.stderr.decode()}")
                return 1
            spec_name = next(tok[1:] for tok in line.split() if tok.startswith("@"))
            spec = parse_spec((run.BENCH / "specs" / f"{spec_name}.spec").read_text())
            check = CROSS_CHECKS[line.split()[0]]
            try:
                if check is not None:
                    check(spec, proc.stdout.decode(), spec_name)
            except CrossCheckError as exc:
                print(f"{workload}: {line}: cross-check failed at {exc}")
                return 1
            print(f"{workload}: {line}: ok ({'no oracle' if check is None else 'cross-checked'})")
            outputs[run.job_id(line)] = proc.stdout
    target = run.BENCH / "expected"
    target.mkdir(exist_ok=True)
    for jid, data in outputs.items():
        path = target / f"{jid}.out"
        if path.is_file() and path.read_bytes() != data:
            print(f"changed: {path.relative_to(run.ROOT)}")
        path.write_bytes(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
