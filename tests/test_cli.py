import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import frobvol.cli as cli
import frobvol.invariants as invariants
import frobvol.regions as regions
from frobvol.cli import main, parse_spec
from frobvol.errors import (
    HypothesisViolatedError,
    NonPrimeError,
    RingMismatchError,
    SpecParseError,
)

import corpus

EXAMPLE = "p=2; ring x,y; J: x,y; seq: x ; y^2+x; e: 1..4"
BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_parse_example_line():
    spec = parse_spec(EXAMPLE)
    assert spec.p == 2
    assert spec.variables == ("x", "y")
    assert len(spec.seq_entries) == 2
    assert spec.e_lo == 1 and spec.e_hi == 4
    assert spec.j_parts == ((spec.ring().poly("x"), spec.ring().poly("y")),)


def test_parse_rejects_nonprime():
    with pytest.raises(NonPrimeError):
        parse_spec("p=4; ring x,y; J: x,y; seq: x; e: 1..2")


def test_the_radical_hypothesis_is_checked_by_the_commands_not_the_parser(tmp_path, capsys):
    """`parse_spec` only parses. `containment_exponents`, which every command
    that reads the sequence against J calls, raises; `hk` reads only J and
    `fedder` tests against m, so both answer a sequence outside the radical."""
    spec = parse_spec("p=2; ring x,y; J: x; seq: y; e: 1..2")
    with pytest.raises(HypothesisViolatedError,
                       match=r"^generator y is not in the radical of \(x\), so no power"):
        regions.containment_exponents(spec.sequence(), spec.family(), spec.presentation())
    spec_file = tmp_path / "outside.spec"
    spec_file.write_text("p=3; ring x,y; J: x,y; seq: y+1; e: 1..2")
    for command in ("hk", "fedder"):
        assert main([command, str(spec_file)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and json.loads(captured.out)["kind"] == command


def test_parse_syntax_errors():
    for text in (
        "ring x,y; J: x; seq: x",             # missing p
        "p=2; J: x; seq: x",                  # missing ring
        "p=2; ring x,y; seq: x",              # missing J / family
        "p=2; ring x,y; J: x,y",              # missing seq
        "p=2; ring x,y; J: x,y; seq: x; e: 4..1",
        "p=2; ring x,y; J: x,y; seq: x; budget=0",
        "p=2; ring x,y; J: x,y; family: e0: x; seq: x",
        "p=2; ring x,y; family: e1: x; seq: x",  # levels must start at e0
        "p=2; ring x,y; J: x,y; seq: x; p=3",    # duplicate
        "banana",
    ):
        with pytest.raises(SpecParseError):
            parse_spec(text)


BIG = "9223372036854775808"  # 2^63, one past the packed exponent field


@pytest.mark.parametrize("command, spec_text, message", [
    ("threshold", "p=two; ring x,y; J: x,y; seq: x",
     "p must be an integer, got 'two' (line 1, column 1)"),
    ("threshold", "p=2; ring ,; J: x,y; seq: x", "empty variable list (line 1, column 6)"),
    ("threshold", "p=2; ring x,x; J: x,y; seq: x",
     "duplicate variable in ('x', 'x') (line 1, column 6)"),
    ("threshold", "p=2; ring x,y; J: x,,y; seq: x", "empty polynomial in list (line 1, column 21)"),
    ("volume", "p=2; ring x,y; family: e0: x,y; nonsense; seq: x",
     "expected 'e<k>: polys', got 'nonsense' (line 1, column 33)"),
    ("volume", "p=2; ring x,y; family: e0: x,y; e0: x,y; seq: x",
     "duplicate family level e0 (line 1, column 33)"),
    ("threshold", "p=2; ring x,y; J: x,y; seq:", "empty sequence (line 1, column 24)"),
    ("volume", "p=2; ring x,y; family: e1: x; seq: x",
     "family levels must be contiguous starting at e0 (line 1, column 16)"),
    ("threshold", "p=2; ring x,y; J: x,y; seq: x; e: 1-3",
     "expected 'e: a..b', got '1-3' (line 1, column 32)"),
    ("threshold", "p=2; ring x,y; J: x,y; seq: x; budget=lots",
     "budget must be an integer, got 'lots' (line 1, column 32)"),
    ("fedder", "p=2; ring x,y; J: x,y; seq: x,y", "fedder needs a sequence of single-generator entries"),
    ("fedder", "p=2; ring x,y; present: x*y; J: x,y; seq: x; e: 1..2",
     "fedder needs a polynomial ambient ring"),
    ("hk --dim -1", "p=2; ring x,y; J: x,y; seq: x; e: 1..2",
     "Hilbert-Kunz dimension must be nonnegative, got -1"),
    # polynomial grammar: a leading sign with nothing after it, a stray
    # operator where '+' or '-' must come, a character outside the grammar
    # after a space, an exponent past 2^63 - 1, written or reached by a
    # product (named at the factor whose product overflows)
    ("threshold", "p=2; ring x,y; J: x,y; seq: -", "expected a variable or integer (line 1, column 30)"),
    ("threshold", "p=2; ring x,y; J: x,y; seq: x^2 ^3",
     "expected '+' or '-', got '^' (line 1, column 33)"),
    ("threshold", "p=2; ring x,y; J: x,y; seq: x $", "unexpected character '$' (line 1, column 31)"),
    ("threshold", f"p=2; ring x,y; J: x,y; seq: x^{BIG}",
     "exponent beyond 2^63-1 (line 1, column 31)"),
    ("threshold", f"p=2\nring x,y\nJ: x,y\nseq: x + y^{BIG}",
     "exponent beyond 2^63-1 (line 4, column 12)"),
    ("threshold", "p=2; ring x,y; J: x,y; seq: x^4611686018427387904*x^4611686018427387904",
     "exponent beyond 2^63-1 (line 1, column 51)"),
    # the radical hypothesis, checked by the command for the family and for
    # each part of a union spec, and a unit reference ideal
    ("volume", "p=2; ring x,y; J: x; seq: y",
     "generator y is not in the radical of (x), so no power of (y) lies in it"),
    ("check union_decomposition", "p=3; ring x,y; J: x,y; J: x; seq: x; y+x^2",
     "generator x^2 + y is not in the radical of (x), so no power of (x^2 + y) lies in it"),
    ("check level_refinement_bound", "p=2; ring x,y; J: x; seq: y",
     "generator y is not in the radical of (x), so no power of (y) lies in it"),
    ("threshold", "p=2; ring x,y; J: 1; seq: x", "reference ideal must be proper"),
    # a negative refinement step or level, refused before any work
    ("verify-cover --e1 2 --e2 -1", EXAMPLE, "negative level -1"),
    ("check level_refinement_bound --e 1 --e1 2 --e2 -1", EXAMPLE, "negative level -1"),
    ("check hk_length_ineq --e -1", EXAMPLE, "negative level -1"),
])
def test_cli_spec_errors_are_one_line_and_exit_2(tmp_path, capsys, command, spec_text, message):
    """Each grammar or input error ends the run with exit 2, an empty stdout
    and one stderr line. A grammar error names a line and column: the
    offending text's for an error inside a polynomial list, the statement's
    for any other."""
    spec_file = tmp_path / "bad.spec"
    spec_file.write_text(spec_text)
    assert main(command.split() + [str(spec_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_one_ring_per_parse():
    """Every object a spec derives lives in the ring that `parse_spec` built."""
    for name, text in corpus.CORPUS.items():
        spec = parse_spec(text)
        assert spec.ring() is spec.ring(), name
        assert spec.sequence().ring is spec.ring(), name


def run_cli(tmp_path, args, spec_text=EXAMPLE):
    spec_file = tmp_path / "problem.spec"
    spec_file.write_text(spec_text)
    out_file = tmp_path / "out.txt"
    code = main(args + ["--json", str(out_file), str(spec_file)])
    data = out_file.read_text() if out_file.exists() else ""
    return code, data


def test_cli_volume(tmp_path):
    code, data = run_cli(tmp_path, ["volume"])
    assert code == 0
    payload = json.loads(data)
    assert all(row["num"] == "3" and row["den"] == "4" for row in payload["rows"])


def test_cli_volume_on_an_explicit_family_above_the_bracket_powers(tmp_path, capsys):
    """J_(e+1) = (x, y^2) holds J_e^[2] = (x^2, y^4) but is larger, so the
    positive rows 1, 1/2, 1/4 may fall: the table is written, flagged, with
    exit 0. The escape set of x^2 + y is [0, 1] at every level."""
    spec_file = tmp_path / "explicit.spec"
    spec_file.write_text(
        "p=2; ring x,y; family: e0: x,y^2; e1: x,y^2; e2: x,y^2; seq: x^2+y; e: 0..2")
    assert main(["volume", str(spec_file)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["flags"]["tilde_nondecreasing"] is False
    assert [(r["num"], r["den"]) for r in payload["rows"]] == [("2", "1"), ("1", "1"), ("1", "2")]
    assert [(r["num"], r["den"]) for r in payload["rows_tilde"]] == [
        ("1", "1"), ("1", "2"), ("1", "4")]


def test_cli_volume_f_sequence(tmp_path):
    code, data = run_cli(tmp_path, ["volume"], "p=2; ring x,y; J: x,y; seq: x; y^2; e: 1..4")
    payload = json.loads(data)
    assert code == 0
    assert all(row["num"] == "1" and row["den"] == "2" for row in payload["rows"])


def test_cli_check_frob_shift(tmp_path):
    code, data = run_cli(tmp_path, ["check", "frob_shift", "--e", "1"],
                         "p=2; ring x,y; J: x,y; seq: x; y^2; e: 1..4")
    assert code == 0
    payload = json.loads(data)
    assert payload["checks"][0]["left"] == "8"
    assert payload["checks"][0]["right"] == "8"


def test_cli_exit_codes(tmp_path):
    spec_file = tmp_path / "bad.spec"
    spec_file.write_text("p=4; ring x,y; J: x,y; seq: x; e: 1..2")
    assert main(["volume", str(spec_file)]) == 2

    spec_file.write_text("p=2; ring x,y; J: x; seq: y; e: 1..2")
    assert main(["volume", str(spec_file)]) == 2

    # the root automaton charges 17 to reach level 1 and 31 for level 2
    spec_file.write_text("p=2; ring x,y; J: x,y; seq: x ; y^2+x; e: 1..6; budget=20")
    out = tmp_path / "partial.json"
    assert main(["volume", "--json", str(out), str(spec_file)]) == 3
    payload = json.loads(out.read_text())
    assert payload["flags"]["budget_exceeded"] is True
    assert [row["e"] for row in payload["rows"]] == [1]  # partial rows survive

    assert main(["volume", str(tmp_path / "missing.spec")]) == 2


def test_cli_threshold_partial_table_on_budget_exit(tmp_path):
    spec_file = tmp_path / "budget.spec"
    # the entry (x, y^2+x) splits into its generators: levels 1 and 2 take
    # 4 + 10 probes; level 3 needs 19 more
    spec_file.write_text("p=2; ring x,y; J: x,y; seq: x ; y^2+x; e: 1..6; budget=20")
    out = tmp_path / "partial.json"
    assert main(["threshold", "--json", str(out), str(spec_file)]) == 3
    payload = json.loads(out.read_text())
    assert payload["kind"] == "threshold"
    assert payload["flags"] == {"budget_exceeded": True}
    assert [row["e"] for row in payload["rows"]] == [1, 2]


def test_cli_vset_csv(tmp_path):
    spec_file = tmp_path / "f.spec"
    spec_file.write_text("p=2; ring x,y; J: x,y; seq: x; y^2; e: 1..1")
    out = tmp_path / "v.csv"
    assert main(["vset", "--csv", str(out), str(spec_file)]) == 0
    assert out.read_text() == "e,a1,a2\n1,0,0\n1,1,0\n"


def test_cli_rejects_an_output_flag_of_another_format(tmp_path):
    spec_file = tmp_path / "f.spec"
    spec_file.write_text(EXAMPLE)
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["volume", "--csv", str(out), str(spec_file)])
    assert exc.value.code == 2
    assert not out.exists()


def test_cli_verify_cover(tmp_path):
    spec_file = tmp_path / "f.spec"
    spec_file.write_text(EXAMPLE)
    code = main(["verify-cover", "--e1", "2", "--e2", "1", str(spec_file)])
    assert code == 0


def test_cli_verify_cover_exits_4_with_the_witness(tmp_path, monkeypatch):
    """A false verdict is exit 4, and the payload names the least uncovered
    point: with no border, the least n with ceil(n/2) outside V_2."""
    monkeypatch.setattr(regions, "border_points", lambda V, caps: frozenset())
    code, data = run_cli(tmp_path, ["verify-cover", "--e1", "2", "--e2", "1"])
    assert code == 4
    assert json.loads(data) == {
        "check": "verify_cover", "e1": 2, "e2": 1, "ok": False, "witness": [0, 7],
    }


def test_cli_theorem_violation_exits_4_with_its_witness(tmp_path, capsys, monkeypatch):
    """A theorem that comes out false inside a table ends the run with exit
    4, one `internal check failure` line naming the witness and no payload.
    Here every level-2 escape set loses its positive points, so the gap of
    the one-entry volume table exceeds its bound 1."""
    sizes = invariants.escape_sizes

    def shrunk(*args):
        for e, size, positive, singles in sizes(*args):
            yield e, size, 0 if e == 2 else positive, singles

    monkeypatch.setattr(invariants, "escape_sizes", shrunk)
    spec_file = tmp_path / "f.spec"
    spec_file.write_text("p=2; ring x,y; J: x,y; seq: x; e: 1..3")
    assert main(["volume", str(spec_file)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal check failure: escape-set gap 4 exceeds its bound 1 at e=2 "
        "(witness: (2, 4, 1))\n"
    )


def test_cli_ends_every_library_error_with_its_exit_code(tmp_path, capsys, monkeypatch):
    """A library error that no spec raises still ends in one error line and
    its exit code, not a traceback."""
    def mismatch(*args, **kwargs):
        raise RingMismatchError("ideals from different rings")

    monkeypatch.setattr(cli, "threshold_table", mismatch)
    spec_file = tmp_path / "f.spec"
    spec_file.write_text("p=2; ring x,y; J: x,y; seq: x; e: 1..2")
    assert main(["threshold", str(spec_file)]) == 2
    assert capsys.readouterr() == ("", "error: ideals from different rings\n")


def test_cli_staircase_svg(tmp_path):
    spec_file = tmp_path / "f.spec"
    spec_file.write_text("p=2; ring x,y; J: x,y; seq: x; y^2+x; e: 1..2")
    out = tmp_path / "stairs.svg"
    assert main(["staircase", "--svg", str(out), str(spec_file)]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg ") and svg.count("<polyline") == 2


def test_cli_threshold_and_hk(tmp_path):
    code, data = run_cli(tmp_path, ["threshold"],
                         "p=2; ring x,y; J: x,y; seq: x,y; e: 1..3")
    assert code == 0
    payload = json.loads(data)
    assert [r["num"] for r in payload["rows"]] == ["1", "3", "7"]
    code, data = run_cli(tmp_path, ["hk"], "p=2; ring x,y; J: x,y; seq: x; e: 1..3")
    assert code == 0
    payload = json.loads(data)
    assert all(r["num"] == "1" and r["den"] == "1" for r in payload["rows"])


def test_cli_fedder_label(tmp_path):
    code, data = run_cli(tmp_path, ["fedder"], "p=2; ring x,y; J: x,y; seq: x; y; e: 1..5")
    assert code == 0
    payload = json.loads(data)
    assert payload["sop"] is True
    assert all(row["value"] for row in payload["rows"])
    assert payload["label"] == "F-pure complete intersection (verified to level 5)"


@pytest.mark.parametrize("spec_text, expected", [
    ("p=3; ring x,y,z; J: x,y,z; seq: x; y; z; e: 1..3",
     '{"kind":"fedder","label":"F-pure complete intersection (verified to level 3)","p":3,'
     '"rows":[{"e":1,"value":true},{"e":2,"value":true},{"e":3,"value":true}],"sop":true}\n'),
    ("p=2; ring x,y,z; J: x,y,z; seq: x*y+z^2; x^2+y^3+z^3; e: 1..4",
     '{"kind":"fedder","label":null,"p":2,"rows":[{"e":1,"value":false},{"e":2,"value":false},'
     '{"e":3,"value":false},{"e":4,"value":false}],"sop":true}\n'),
    # the cusp is not F-pure; at e = 0..0 no level from 1 up is tested, so
    # there is no label
    ("p=7; ring x,y; J: x,y; seq: y^2+x^3; e: 0..0",
     '{"kind":"fedder","label":null,"p":7,"rows":[{"e":0,"value":true}],"sop":true}\n'),
    ("p=7; ring x,y; J: x,y; seq: y^2+x^3; e: 0..1",
     '{"kind":"fedder","label":null,"p":7,"rows":[{"e":0,"value":true},{"e":1,"value":false}],'
     '"sop":true}\n'),
])
def test_cli_fedder_stdout_is_pinned(tmp_path, capsys, spec_text, expected):
    spec_file = tmp_path / "f.spec"
    spec_file.write_text(spec_text)
    assert main(["fedder", str(spec_file)]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("spec_text, probes, label", [
    ("p=2; ring x,y,z; J: x,y,z; seq: x*y; z; e: 1..3", 3, 3),
    ("p=2; ring x,y,z; J: x,y,z; seq: x*y; z; e: 2..3", 3, 3),
    ("p=7; ring x,y; J: x,y; seq: y^2+x^3; e: 2..3", 2, None),
    ("p=3; ring x,y; J: x,y; seq: y+1; e: 2..2", 1, None),
], ids=["xy_z_e1-3", "xy_z_e2-3", "cusp_e2-3", "outside_m"])
def test_cli_fedder_runs_each_test_once(tmp_path, capsys, monkeypatch, spec_text, probes, label):
    """`frobvol fedder` builds its rows, sop and label in one pass
    (`invariants.fedder_payload`). (xy; z) over F_2 is F-pure: at e = 1..3 the
    label reads the three rows and probes no corner of its own, and at
    e = 2..3 it probes level 1 alone. The cusp's rows fail, and y + 1 lies
    outside m, so neither label probes a level. Each run makes one
    dimension test (two `krull_dimension` calls) and one containment test."""
    counts = {}
    for name in ("product_escapes", "krull_dimension", "ideal_contains"):
        def counted(*args, _real=getattr(invariants, name), _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args)
        monkeypatch.setattr(invariants, name, counted)
    spec_file = tmp_path / "f.spec"
    spec_file.write_text(spec_text)
    assert main(["fedder", str(spec_file)]) == 0
    expected = None if label is None else invariants.FPURE_CI_LABEL.format(e=label)
    assert json.loads(capsys.readouterr().out)["label"] == expected
    assert counts == {"product_escapes": probes, "krull_dimension": 2, "ideal_contains": 1}


def test_cli_union_needs_parts(tmp_path):
    spec_file = tmp_path / "u.spec"
    spec_file.write_text("p=2; ring x,y; J: x,y; seq: x; y; e: 1..1")
    assert main(["check", "union_decomposition", str(spec_file)]) == 2
    spec_file.write_text("p=2\nring x,y\nJ: x^2,y\nJ: x,y^2\nseq: x; y\ne: 1..2\n")
    assert main(["check", "union_decomposition", str(spec_file)]) == 0
    # other commands reject multi-J specs
    assert main(["volume", str(spec_file)]) == 2


def test_cli_order_flag(tmp_path):
    """Every ring is grevlex: `--order` is not an option."""
    spec_file = tmp_path / "f.spec"
    spec_file.write_text("p=2; ring x,y; J: x,y; seq: x; y^2; e: 1..3")
    for order in ("lex", "grevlex"):
        with pytest.raises(SystemExit) as exc:
            main(["volume", "--order", order, str(spec_file)])
        assert exc.value.code == 2


# a JSON text and a streamed CSV writer
@pytest.mark.parametrize("command,flag", [("volume", "--json"), ("vset", "--csv")])
def test_cli_an_unwritable_output_path_is_one_error_line(tmp_path, capsys, command, flag):
    spec_file = tmp_path / "f.spec"
    spec_file.write_text("p=2; ring x,y; J: x,y; seq: x; y^2; e: 1..3")
    out = tmp_path / "missing" / "out"
    assert main([command, flag, str(out), str(spec_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["volume", "vset"])
def test_cli_a_stdout_closed_early_ends_without_a_traceback(tmp_path, command):
    """The reader of stdout is gone before the first byte is written, as
    after `| head -1`: exit 1 and nothing on stderr."""
    spec_file = tmp_path / "f.spec"
    spec_file.write_text("p=2; ring x,y; J: x,y; seq: x; y^2; e: 1..3")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "frobvol", command, str(spec_file)],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60, env=corpus.child_env(),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_cli_family_specs_need_fixed_j_for_hk(tmp_path):
    spec_file = tmp_path / "fam.spec"
    spec_file.write_text("p=2\nring x,y\nfamily: e0: x,y; e1: x^2,y^2\nseq: x\ne: 0..1\n")
    assert main(["hk", str(spec_file)]) == 2
    assert main(["threshold", str(spec_file)]) == 2
    assert main(["volume", str(spec_file)]) == 0  # families are fine here


def test_cli_staircase_needs_two_dimensions(tmp_path):
    spec_file = tmp_path / "one.spec"
    spec_file.write_text("p=2; ring x,y; J: x,y; seq: x; e: 1..2")
    assert main(["staircase", str(spec_file)]) == 2


def test_cli_stdout(tmp_path, capsys):
    spec_file = tmp_path / "f.spec"
    spec_file.write_text("p=2; ring x,y; J: x,y; seq: x; e: 1..2")
    assert main(["threshold", str(spec_file)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["kind"] == "threshold"


def test_cli_module_entry_point(tmp_path):
    spec_file = tmp_path / "f.spec"
    spec_file.write_text("p=2; ring x,y; J: x,y; seq: x; e: 1..2")
    proc = subprocess.run(
        [sys.executable, "-m", "frobvol", "volume", str(spec_file)],
        capture_output=True, timeout=60, env=corpus.child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "volume"


def test_cli_vset_writes_the_same_bytes_to_stdout_and_to_a_file(tmp_path):
    """The CSV streams through the real stdout of a child process (not a
    capture) and through --csv, byte for byte the golden either way."""
    spec_file = BENCH / "specs" / "ex_g.e1-8.spec"
    expected = (BENCH / "expected" / "vset_ex_g.e1-8.out").read_bytes()
    proc = subprocess.run(
        [sys.executable, "-m", "frobvol", "vset", str(spec_file)],
        capture_output=True, timeout=60, env=corpus.child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == expected
    out = tmp_path / "v.csv"
    assert main(["vset", "--csv", str(out), str(spec_file)]) == 0
    assert out.read_bytes() == expected


def test_cli_vset_budget_exit_writes_nothing(tmp_path, capsys):
    """Every level is swept before the first byte: a budget exit leaves no
    --csv file and an empty stdout."""
    spec_file = tmp_path / "f.spec"
    spec_file.write_text("p=2; ring x,y; J: x,y; seq: x; y^2+x; e: 1..8; budget=1")
    out = tmp_path / "v.csv"
    assert main(["vset", "--csv", str(out), str(spec_file)]) == 3
    assert not out.exists()
    assert main(["vset", str(spec_file)]) == 3
    assert capsys.readouterr().out == ""


def test_cli_exponent_overflow_is_a_user_error(tmp_path, capsys):
    """7^23 > 2^63 - 1, so the sweep of x in the cusp ring F_7[x,y]/(y^2 + x^3)
    leaves the packed exponent field at level 23: one error line and exit
    2, not a traceback. `threshold` and `volume` still write the rows of
    levels 1..22, flagged `exponent_overflow`; nu(7^e) = 7^e - 1 there.
    The cusp itself in F_7[x,y] is counted on its root automaton, with no
    exponent past the degree of its states, so every level up to 30 is
    written: nu(7^e) = ceil(5/6 * 7^e) - 1."""
    spec_file = tmp_path / "cusp.spec"
    spec_file.write_text("p=7; ring x,y; present: y^2+x^3; J: x,y; seq: x; e: 1..30")
    for command in ("threshold", "volume"):
        assert main([command, str(spec_file)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: exponent beyond 2^63-1")
        assert captured.err.count("\n") == 1
        payload = json.loads(captured.out)
        assert payload["kind"] == command
        assert payload["flags"] == {"exponent_overflow": True}
        rows = payload["rows"] if command == "threshold" else payload["rows_tilde"]
        assert [row["e"] for row in rows] == list(range(1, 23))
        for row in rows:
            q = 7 ** row["e"]
            assert (int(row["num"]), int(row["den"])) == (q - 1, q)
    spec_file.write_text("p=7; ring x,y; J: x,y; seq: y^2+x^3; e: 1..30")
    for command in ("threshold", "volume"):
        assert main([command, str(spec_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["rows"] if command == "threshold" else payload["rows_tilde"]
        assert [row["e"] for row in rows] == list(range(1, 31))
        for row in rows:
            q = 7 ** row["e"]
            assert Fraction(int(row["num"]), int(row["den"])) == Fraction(-(-5 * q // 6) - 1, q)


def test_cli_a_large_characteristic_answers_at_once_or_stops_at_the_budget(tmp_path, capsys):
    """Over F_p with p = 2^31 - 1 every digit of x leads the root automaton
    from (1) back to (1), which the two corners of [0, p) settle: level 1
    is answered at once. Asked for a million levels, the run stops at its
    budget, which each level's pushed count charges by its bits, with exit
    3 and the rows nu(p^e) = p^e - 1 written up to there."""
    p = 2**31 - 1
    spec_file = tmp_path / "p.spec"
    spec_file.write_text(f"p={p}; ring x; J: x; seq: x; e: 1..1")
    assert main(["threshold", str(spec_file)]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == [
        {"e": 1, "num": str(p - 1), "den": str(p)}]
    spec_file.write_text(f"p={p}; ring x; J: x; seq: x; e: 1..1000000; budget=20000")
    assert main(["threshold", str(spec_file)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: budget 20000 exceeded\n"
    payload = json.loads(captured.out)
    assert payload["flags"] == {"budget_exceeded": True}
    levels = [row["e"] for row in payload["rows"]]
    assert levels == list(range(1, 37))
    for row in payload["rows"]:
        assert (int(row["num"]), int(row["den"])) == (p ** row["e"] - 1, p ** row["e"])


@pytest.mark.parametrize("command,spec_text,payload", [
    ("fedder", "p=2147483647; ring x; J: x; seq: x; e: 1..1",
     '"label":"F-pure complete intersection (verified to level 1)"'),
    ("threshold", "p=2147483647; ring x,y; present: y; J: x; seq: x; e: 1..1",
     '"rows":[{"den":"2147483647","e":1,"num":"2147483646"}]'),
    ("check level_refinement_bound", "p=2147483647; ring x; J: x; seq: x; e: 1..1",
     '"left":"9903520300447984150353281022/4611686014132420609"'),
    ("check frob_shift", "p=2147483647; ring x; J: x; seq: x; e: 1..1; budget=20000",
     '"left":"4611686014132420609","ok":true,"params":{"e":1},"right":"4611686014132420609"'),
], ids=["fedder", "threshold", "level_refinement_bound", "frob_shift"])
def test_cli_a_large_characteristic_builds_few_powers(tmp_path, command, spec_text, payload):
    """Fedder's test reads x^(p-1) and the sweep of x in F_p[x,y]/(y) reads
    powers near p/2, with p = 2^31 - 1. Each is a few dozen products, not
    one per power below it. The level refinement bound counts levels 2 and
    3 of (x)'s own family, whose radical test does not face (x^p); its left
    side is (p^3 - 1)/p^2. The Frobenius shift sweeps (x) against (x^p):
    its radical test runs against the p-th root (x), and the containment
    exponent p of x in (x^p) is found by doubling and bisecting, so both
    sides are p^2 within a budget of 20,000 probes. A child process, so
    that a regression fails at the timeout instead of stalling the suite."""
    spec_file = tmp_path / "p.spec"
    spec_file.write_text(spec_text)
    proc = corpus.run_capped(["-m", "frobvol", *command.split(), str(spec_file)])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert payload in proc.stdout.decode()


@pytest.mark.parametrize("spec_text,levels", [
    ("p=1009; ring x,y; J: x,y; seq: y^2+x^3; e: 1..3", 3),
    ("p=5; ring x,y,z; J: x,y,z; seq: x^4+y^4+z^4; x*y*z+x^3; e: 1..6", 6),
], ids=["cusp_over_F1009", "quartic_pair_over_F5"])
def test_cli_fedder_powers_down_the_levels(tmp_path, spec_text, levels):
    """Fedder's test at level e reads f^(q-1) modulo m^[q], q = p^e; its
    digit step takes the high digits f^(q/p - 1) modulo the level below,
    where the table of the level below holds them, not modulo m^[q], where
    they are barely truncated. Neither sequence is F-pure at any level.
    Read modulo m^[q] alone, the cusp over F_1009 ran out of 2 GB by e = 3
    and the quartic pair over F_5 took about a minute at e = 6. A child
    process capped at 1 GB, so that a regression fails at the cap or the
    timeout instead of exhausting memory."""
    spec_file = tmp_path / "fedder.spec"
    spec_file.write_text(spec_text)
    proc = corpus.run_capped(["-m", "frobvol", "fedder", str(spec_file)])
    assert (proc.returncode, proc.stderr) == (0, b"")
    p = spec_text.split(";")[0].removeprefix("p=")
    rows = ",".join(f'{{"e":{e},"value":false}}' for e in range(1, levels + 1))
    assert proc.stdout.decode() == (
        f'{{"kind":"fedder","label":null,"p":{p},"rows":[{rows}],"sop":true}}\n')


@pytest.mark.parametrize("command", ["vset", "verify-cover --e1 1 --e2 1"],
                         ids=["vset", "verify-cover"])
def test_cli_the_points_listed_are_charged_before_they_are_listed(tmp_path, command):
    """The level-1 escape set of x against (x) over F_p, p = 2^31 - 1, is
    [0, p), found in a few dozen probes. `vset` charges the p points it
    would write, and `verify-cover` the p points of V and the slab that
    `border_points` would list, so each stops at a budget of 20,000 with
    exit 3, one error line and nothing written. A child process, so that a
    listing that is not charged fails at the timeout."""
    spec_file = tmp_path / "p.spec"
    spec_file.write_text("p=2147483647; ring x; J: x; seq: x; e: 1..1; budget=20000")
    proc = corpus.run_capped(["-m", "frobvol", *command.split(), str(spec_file)])
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr == b"error: budget 20000 exceeded\n"


@pytest.mark.parametrize("command,code", [
    ("hk", 2),
    ("check frob_shift", 2),
    ("check containment_monotone", 2),
    ("check sup_identity", 2),
    ("check hk_length_ineq", 2),
    ("check simplex_bound", 0),
    ("check level_refinement_bound", 0),
    ("check threshold_bounds", 0),
], ids=["hk", "frob_shift", "containment_monotone", "sup_identity", "hk_length_ineq",
        "simplex_bound", "level_refinement_bound", "threshold_bounds"])
def test_cli_writes_exact_integers_past_the_default_digit_limit(tmp_path, capsys, command, code):
    """q = p^470 with p = 2^31 - 1 has 4,387 digits, past the 4,300 that
    Python's str allows by default, and `ring._digits` writes every exact
    integer. x^q passes the exponent ceiling: `hk` writes its empty partial
    table flagged `exponent_overflow`, and the checkers that sweep print
    one error line naming q in full, both with exit 2. The size-only
    checkers count on the automaton and write their sides in full. Each
    exited 1 with a traceback when q and the sides went through str."""
    spec_file = tmp_path / "high.spec"
    spec_file.write_text("p=2147483647; ring x; J: x; seq: x; e: 470..470")
    assert main([*command.split(), str(spec_file)]) == code
    captured = capsys.readouterr()
    q = 2147483647**470
    if code == 2:
        head = "error: exponent beyond 2^63-1 scaling by "
        assert captured.err.startswith(head) and captured.err.endswith("\n")
        digits = captured.err[len(head):-1]
        assert len(digits) == 4387 and int(digits[-18:]) == q % 10**18
        assert captured.out == ("" if command != "hk" else
                                '{"flags":{"exponent_overflow":true},"kind":"hk",'
                                '"p":2147483647,"rows":[],"t":1}\n')
    else:
        (report,) = json.loads(captured.out)["checks"]
        assert captured.err == "" and report["ok"] and report["witness"] is None
        assert min(len(report["left"]), len(report["right"])) > 4300


def test_cli_writes_rows_longer_than_the_default_digit_limit(tmp_path, capsys):
    """7^6000 has 5,071 digits, past the 4,300 that Python's str allows by
    default; the cusp's row at that level is still written in full, given
    a budget for its counts' bits. Its digits are checked by count and by
    their last 18."""
    spec_file = tmp_path / "cusp.spec"
    spec_file.write_text("p=7; ring x,y; J: x,y; seq: y^2+x^3; e: 6000..6000; budget=1000000000")
    assert main(["threshold", str(spec_file)]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    q = 7**6000
    assert len(row["den"]) == 5071 and int(row["den"][-18:]) == q % 10**18
    assert int(row["num"][-18:]) == (-(-5 * q // 6) - 1) % 10**18


def test_cli_hk_keeps_its_rows_on_an_exponent_overflow(tmp_path, capsys):
    """(x, y)^[7^23] leaves the packed exponent field, so `hk` exits 2 with
    one error line and still writes the rows of levels 1..22, flagged
    `exponent_overflow`: F_7[x,y]/(x^q, y^q) has length q^2, so each row is 1."""
    spec_file = tmp_path / "hk.spec"
    spec_file.write_text("p=7; ring x,y; J: x,y; seq: x; e: 1..30")
    assert main(["hk", str(spec_file)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: exponent beyond 2^63-1")
    assert captured.err.count("\n") == 1
    payload = json.loads(captured.out)
    assert (payload["kind"], payload["flags"]) == ("hk", {"exponent_overflow": True})
    assert [(row["e"], row["num"], row["den"]) for row in payload["rows"]] == [
        (e, "1", "1") for e in range(1, 23)]


def test_cli_threshold_searches_600_powers_for_containment(tmp_path, capsys):
    """x^k lies in (x^(600q), y^q) exactly when k >= 600q, so the row bound
    of level 0 needs 600 powers of x; nu(q) = 600q - 1."""
    spec_file = tmp_path / "deep.spec"
    spec_file.write_text("p=2; ring x,y; J: x^600,y; seq: x; e: 1..3")
    assert main(["threshold", str(spec_file)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = json.loads(captured.out)["rows"]
    assert [(row["num"], row["den"]) for row in rows] == [("1199", "2"), ("2399", "4"), ("4799", "8")]
