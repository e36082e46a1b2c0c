"""Fixture corpus: problem specs spanning p in {2,3,5}, t in {1,2,3},
polynomial rings and quotients, principal and multi-generator entries.

Each entry is spec text (single source of truth for API and CLI tests) plus
per-instance knobs for the heavier checks.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import frobvol
from frobvol.cli import parse_spec

CORPUS = {
    # the two-generator worked example and its companion
    "ex_f": "p=2\nring x,y\nJ: x,y\nseq: x; y^2\ne: 1..4\n",
    "ex_g": "p=2\nring x,y\nJ: x,y\nseq: x; y^2+x\ne: 1..4\n",
    "mono_xy": "p=2\nring x,y\nJ: x,y\nseq: x; y\ne: 1..5\n",
    "t1_x": "p=2\nring x,y\nJ: x,y\nseq: x\ne: 1..5\n",
    "t1_pair": "p=2\nring x,y\nJ: x,y\nseq: x,y^2\ne: 1..4\n",
    "t3_p2": "p=2\nring x,y\nJ: x,y\nseq: x; y; x+y\ne: 1..3\n",
    "p3_g": "p=3\nring x,y\nJ: x,y\nseq: x; y^2+x\ne: 1..3\n",
    "p3_t1": "p=3\nring x,y\nJ: x,y\nseq: x^2+y\ne: 1..4\n",
    "p3_t2_z": "p=3\nring x,y,z\nJ: x,y,z\nseq: x; y*z\ne: 1..2\n",
    "p5_t2": "p=5\nring x,y\nJ: x,y\nseq: x; y\ne: 1..2\n",
    "p5_t3": "p=5\nring x,y,z\nJ: x,y,z\nseq: x; y; z\ne: 1..2\n",
    "p5_t1_sum": "p=5\nring x,y\nJ: x,y\nseq: x+y\ne: 1..3\n",
    "t2_mixed": "p=2\nring x,y\nJ: x,y\nseq: x,y; y^2\ne: 1..3\n",
    "quot_xy": "p=2\nring x,y\npresent: x*y\nJ: x,y\nseq: x\ne: 1..4\n",
    "quot_cusp": "p=3\nring x,y\npresent: y^2-x^3\nJ: x,y\nseq: x\ne: 1..3\n",
}

# (e1, e2) pairs small enough per instance for the covering check
COVER_PARAMS = {
    "ex_f": [(1, 1), (2, 1), (1, 2)],
    "ex_g": [(1, 1), (2, 1), (1, 2)],
    "mono_xy": [(1, 1), (2, 1)],
    "t1_x": [(1, 1), (2, 2)],
    "t1_pair": [(1, 1), (1, 2)],
    "t3_p2": [(1, 1)],
    "p3_g": [(1, 1)],
    "p3_t1": [(1, 1), (1, 2)],
    "p3_t2_z": [(1, 1)],
    "p5_t2": [(1, 1)],
    "p5_t3": [(1, 1)],
    "p5_t1_sum": [(1, 1)],
    "t2_mixed": [(1, 1)],
    "quot_xy": [(1, 1), (2, 1)],
    "quot_cusp": [(1, 1)],
}

# levels at which the per-e checkers run (kept small where enumeration is wide)
CHECK_LEVELS = {
    "ex_f": [1, 2],
    "ex_g": [1, 2],
    "mono_xy": [1, 2, 3],
    "t1_x": [1, 2, 3, 4, 5],
    "t1_pair": [1, 2],
    "t3_p2": [1, 2, 3],
    "p3_g": [1, 2],
    "p3_t1": [1, 2, 3],
    "p3_t2_z": [1],
    "p5_t2": [1],
    "p5_t3": [1],
    "p5_t1_sum": [1, 2],
    "t2_mixed": [1, 2],
    "quot_xy": [1, 2, 3],
    "quot_cusp": [1, 2],
}

# union-decomposition parts per variable count (intersected inside the check)
UNION_PARTS = {
    2: ("x^2,y", "x,y^2"),
    3: ("x^2,y,z", "x,y^2,z"),
}

# instances with a polynomial ambient ring (monotonicity contract applies)
POLYNOMIAL_RING = tuple(
    name for name, text in CORPUS.items() if "present" not in text
)


def load(name: str):
    return parse_spec(CORPUS[name])


def all_specs():
    return {name: load(name) for name in sorted(CORPUS)}


def child_env(**extra) -> dict:
    """Environment for a `python -m frobvol` child process that imports the
    same package as the tests, installed or not."""
    src = str(Path(frobvol.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_capped(args, timeout: int = 60, cap: int = 2**30) -> subprocess.CompletedProcess:
    """Run `python ARGS` in a child process with `child_env`, a timeout and
    an address-space cap of `cap` bytes, so that a regression fails at one
    of them instead of stalling the suite or exhausting memory."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run([sys.executable, *args], capture_output=True, timeout=timeout,
                          env=child_env(), preexec_fn=limit)
