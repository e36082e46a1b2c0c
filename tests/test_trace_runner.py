"""The benchmark's tracer still wraps every function it names.

`bench/trace_runner.py` looks each traced function up by name, so renaming
or deleting one breaks tracing; this runs small jobs through it in child
processes and checks their spans."""

import json
import subprocess
import sys
from pathlib import Path

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
