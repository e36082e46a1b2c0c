"""The benchmark's tracer still wraps every function it names.

`bench/trace_runner.py` looks each traced function up by name, so renaming
or deleting one breaks tracing; this runs small jobs through it in child
processes and checks their spans."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from corpus import child_env

BENCH = Path(__file__).resolve().parents[1] / "bench"


def traced_spans(tmp_path, *args) -> set:
    """Run one CLI job under the tracer, from `tmp_path`; the names of its spans."""
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "trace_runner.py"), str(out), "smoke", *args],
        env=child_env(),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(out.read_text())
    assert trace["job"] == "smoke"
    return {row[0] for row in trace["spans"]}


def test_trace_runner_spans_one_check_job(tmp_path):
    names = traced_spans(tmp_path, "check", "union_decomposition", "--e", "2",
                         str(BENCH / "specs" / "ex_g_union.e1-6.spec"))
    assert {"cli.main", "regions.escape_set", "invariants.checks"} <= names


def test_trace_runner_spans_the_csv_export(tmp_path):
    names = traced_spans(tmp_path, "vset", str(BENCH / "specs" / "ex_g.e1-4.spec"))
    assert {"cli.main", "regions.escape_set", "regions.export"} <= names


@pytest.mark.parametrize("line, expected", [
    ("threshold @ex_g.e1-7", {"invariants.tables", "regions.escape_set"}),
    ("hk @a1.e1-4", {"invariants.tables", "groebner.staircase"}),
    ("volume @ex_g.e1-4", {"invariants.tables"}),
    ("check threshold_bounds --e 2 @ex_g.e1-4",
     {"invariants.checks", "invariants.nu", "regions.escape_set"}),
])
def test_trace_runner_spans_the_tables_lengths_and_nu(tmp_path, line, expected):
    """The tracer wraps `nu`, `staircase_count_of`, `escape_set` and the
    table functions by name; `volume` of a principal sequence counts on
    the root automaton, with no sweep of its own. "@name" stands for
    bench/specs/name.spec."""
    args = [str(BENCH / "specs" / f"{t[1:]}.spec") if t.startswith("@") else t
            for t in line.split()]
    assert {"cli.main"} | expected <= traced_spans(tmp_path, *args)
