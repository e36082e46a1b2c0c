import json
import subprocess
import sys
from pathlib import Path

import pytest

import frobvol.regions as regions
from frobvol.cli import main, parse_spec
from frobvol.errors import HypothesisViolatedError, NonPrimeError, SpecParseError

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


def test_parse_rejects_radical_violation():
    with pytest.raises(HypothesisViolatedError):
        parse_spec("p=2; ring x,y; J: x; seq: y; e: 1..2")


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


def test_roundtrip_all_corpus():
    for name, text in corpus.CORPUS.items():
        spec = parse_spec(text)
        again = parse_spec(spec.to_text())
        assert spec == again, name


def test_roundtrip_family_and_present():
    text = (
        "p=2\nring x,y\npresent: x*y\n"
        "family: e0: x,y; e1: x^2,x*y,y^2\nseq: x\ne: 0..1\nbudget=500\n"
    )
    spec = parse_spec(text)
    assert spec.family_levels is not None and len(spec.family_levels) == 2
    assert parse_spec(spec.to_text()) == spec


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

    spec_file.write_text("p=2; ring x,y; J: x,y; seq: x ; y^2+x; e: 1..6; budget=40")
    out = tmp_path / "partial.json"
    assert main(["volume", "--json", str(out), str(spec_file)]) == 3
    payload = json.loads(out.read_text())
    assert payload["flags"]["budget_exceeded"] is True
    assert payload["rows"]  # partial rows survive

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


def test_cli_union_needs_parts(tmp_path):
    spec_file = tmp_path / "u.spec"
    spec_file.write_text("p=2; ring x,y; J: x,y; seq: x; y; e: 1..1")
    assert main(["check", "union_decomposition", str(spec_file)]) == 2
    spec_file.write_text("p=2\nring x,y\nJ: x^2,y\nJ: x,y^2\nseq: x; y\ne: 1..2\n")
    assert main(["check", "union_decomposition", str(spec_file)]) == 0
    # other commands reject multi-J specs
    assert main(["volume", str(spec_file)]) == 2


def test_cli_order_flag(tmp_path):
    spec_file = tmp_path / "f.spec"
    spec_file.write_text("p=2; ring x,y; J: x,y; seq: x; y^2; e: 1..3")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["volume", "--order", "lex", "--json", str(out_a), str(spec_file)]) == 0
    assert main(["volume", "--order", "grevlex", "--json", str(out_b), str(spec_file)]) == 0
    assert json.loads(out_a.read_text())["rows"] == json.loads(out_b.read_text())["rows"]


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
    """7^23 > 2^63 - 1, so level 23 of the cusp at p = 7 leaves the packed
    exponent field: one error line and exit 2, not a traceback. `threshold`
    and `volume` still write the rows of levels 1..22, flagged
    `exponent_overflow`; nu(7^e) = ceil(5/6 * 7^e) - 1 there."""
    spec_file = tmp_path / "cusp.spec"
    spec_file.write_text("p=7; ring x,y; J: x,y; seq: y^2+x^3; e: 1..30")
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
            assert (int(row["num"]), int(row["den"])) == (-(-5 * q // 6) - 1, q)
