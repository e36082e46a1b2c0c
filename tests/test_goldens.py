"""Every benchmark job's CLI output, byte for byte against bench/expected/.

The jobs run in-process through `frobvol.cli.main`, sharing one process and
its caches, so this also checks that cached results never change an answer.
"""

import importlib.util
from pathlib import Path

import pytest

from frobvol.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_run = _load_bench_run()
JOBS = [line for lines in bench_run.WORKLOADS.values() for line in lines]


@pytest.mark.parametrize("line", JOBS, ids=[bench_run.job_id(line) for line in JOBS])
def test_golden_output(line, capsysbinary):
    code = main(bench_run.cli_args(line))
    out = capsysbinary.readouterr().out
    assert code == 0
    assert out == (BENCH / "expected" / f"{bench_run.job_id(line)}.out").read_bytes()
