"""The benchmark's tracer still wraps every function it names.

`bench/trace_runner.py` looks each traced function up by name, so renaming
or deleting one breaks tracing; this runs one small job through it in a
child process and checks its spans."""

import json
import subprocess
import sys
from pathlib import Path

from corpus import child_env

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_trace_runner_spans_one_check_job(tmp_path):
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "trace_runner.py"), str(out), "smoke",
            "check", "union_decomposition", "--e", "2",
            str(BENCH / "specs" / "ex_g_union.e1-6.spec"),
        ],
        env=child_env(),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(out.read_text())
    names = {row[0] for row in trace["spans"]}
    assert {"cli.main", "regions.escape_set", "invariants.checks"} <= names
    assert trace["job"] == "smoke"
