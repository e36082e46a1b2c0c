"""frobvol benchmark: the CLI on fixed corpus jobs, end to end and by layer.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run it from the repository root; it needs nothing beyond the standard
library and runs the package from `src/` without installing it.

Each job is `python -m frobvol <command> <spec>` in a fresh interpreter.
Jobs run one after another from this process, pinned with it to one CPU: a
closed loop with one client. A pass runs every job of the workload once, in
an order shuffled by --seed (the seed changes neither the outputs nor the
amount of work). Passes repeat while the next one is expected to end within
--seconds.

Every job's stdout is compared byte for byte with bench/expected/<job>.out
and its exit code with 0; a job that runs past JOB_LIMIT_S is killed. Any of
these counts the job as failed.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
  wall_ref     one pass in units of bench/reference.py: sum over jobs of the
               median of (job wall time / the pass's median reference time)
  cpu_ref      the same for user+sys CPU time (os.wait4) of job and reference
  peak_rss_mb  largest per-job median ru_maxrss
  setup_s      median time of a fresh interpreter running `import frobvol.cli`,
               paced the same way and scaled back to seconds by REFERENCE_S
and, unbounded, the raw seconds wall_s, cpu_s and setup_raw_s.
--trace 1 alternates untraced passes with traced ones, where each job runs
under bench/trace_runner.py, and reports the per-layer metrics: span calls
and self time, work counters, and trace.overhead_s (traced minus untraced
raw wall_s). The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
PYTHON = sys.executable
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

JOB_LIMIT_S = 60.0   # the slowest job takes about 2 s on a 2-core Xeon
RUN_LIMIT_S = 150.0  # jobs still pending after this are killed at once
SETUP_SAMPLES = 3    # setup_s samples taken at the start of every pass
# Seconds per reference run on the 2-core 2.1 GHz Xeon of bench/baseline.json.
# It only scales the paced setup time back to seconds.
REFERENCE_S = 0.25
REFERENCE_RUNS = 4   # reference runs per pass, spread evenly among its jobs

CHECKERS = (
    "frob_shift", "containment_monotone", "slice_bound", "simplex_bound",
    "sup_identity", "hk_length_ineq", "threshold_bounds",
)

# Each job is a frobvol command line; "@name" stands for bench/specs/name.spec.
WORKLOADS = {
    # escape-set enumeration over a polynomial ring with a monomial J:
    # many probes, monomial division, and CSV/SVG export
    "sweep": [
        "volume @ex_g.e1-8",
        "volume @t3_p2.e1-5",
        "vset @ex_g.e1-8",
        "staircase @ex_g.e1-8",
    ],
    # power building with almost no probes; cusp_p3 e=8 takes the
    # single-generator direct-powering path of `nu`. p5_t1_sum stops at e=4:
    # its e=5 level alone runs about 5 s, and two samples of it per run left
    # the paced figures spread by a tenth of their median.
    "powers": [
        "threshold @ex_g.e1-7",
        "threshold @p5_t1_sum.e1-4",
        "threshold @cusp_p3.e7-8",
    ],
    # Buchberger and division against non-monomial bases in quotient rings
    "quotient": [
        "hk @a1.e1-4",
        "volume @a1.e1-4",
        "volume @quot_cusp.e1-9",
    ],
    # every checker, with caches reused across related escape sets
    "checks": [f"check {name} @ex_g.e1-7" for name in CHECKERS] + [
        "check union_decomposition @ex_g_union.e1-6",
        "check level_refinement_bound @ex_g.e1-4",
        "check pfamily_truncation @ex_g.e1-4",
        "verify-cover @ex_g.e1-4 --e1 2 --e2 2",
    ],
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def job_id(line: str) -> str:
    return "_".join(token.lstrip("@-") for token in line.split())


def cli_args(line: str) -> list:
    return [
        str(BENCH / "specs" / f"{token[1:]}.spec") if token.startswith("@") else token
        for token in line.split()
    ]


def run_process(argv, stdout, stderr, limit):
    """Run argv to completion, killing it after `limit` seconds.

    Returns (exit code or None if killed, wall seconds, resource usage).
    """
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=stdout, stderr=stderr)
    pidfd = os.pidfd_open(proc.pid)
    try:
        finished = bool(select.select([pidfd], [], [], max(limit, 0.0))[0])
        if not finished:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        os.close(pidfd)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode if finished else None), wall, usage


class Runner:
    """Runs one workload's jobs and keeps every sample."""

    def __init__(self, workload: str, seed: int):
        self.lines = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.deadline = perf_counter() + RUN_LIMIT_S
        self.expected = {}
        for line in self.lines:
            path = BENCH / "expected" / f"{job_id(line)}.out"
            if not path.is_file():
                raise BenchError(f"missing expected output {path}")
            self.expected[line] = path.read_bytes()
        self.setup = []  # (raw seconds, seconds / the pass's median reference)
        self.attempted = 0
        self.failed = 0

    def limit(self) -> float:
        return min(JOB_LIMIT_S, self.deadline - perf_counter())

    def helper_time(self, argv) -> tuple:
        """(wall, cpu) seconds of a helper process that must exit with 0."""
        code, wall, usage = run_process(argv, subprocess.DEVNULL, subprocess.DEVNULL, JOB_LIMIT_S)
        if code != 0:
            raise BenchError(f"`{' '.join(argv)}` with PYTHONPATH=src exited with {code}")
        return wall, usage.ru_utime + usage.ru_stime

    def setup_time(self) -> float:
        return self.helper_time([PYTHON, "-c", "import frobvol.cli"])[0]

    def reference_time(self) -> tuple:
        return self.helper_time([PYTHON, str(BENCH / "reference.py")])

    def run_pass(self, traced: bool) -> dict:
        """Run every job once; returns {line: sample dict}.

        The reference program runs before the first job, after the last one
        and evenly in between. The median of those runs paces every job of
        the pass: on a shared host the same code's speed drifts by tens of
        percent within minutes, and the ratio cancels most of that drift."""
        order = list(self.lines)
        self.rng.shuffle(order)
        setup = [self.setup_time() for _ in range(SETUP_SAMPLES)]
        gaps = REFERENCE_RUNS - 1
        after = {round(k * len(order) / gaps) for k in range(1, gaps + 1)}
        refs = [self.reference_time()]
        samples = {}
        for done, line in enumerate(order, start=1):
            samples[line] = self.run_job(line, traced)
            if done in after:
                refs.append(self.reference_time())
        ref_wall = statistics.median(wall for wall, _ in refs)
        ref_cpu = statistics.median(cpu for _, cpu in refs)
        self.setup.extend((t, t / ref_wall) for t in setup)
        for sample in samples.values():
            sample["ref_wall"], sample["ref_cpu"] = ref_wall, ref_cpu
        return samples

    def run_job(self, line: str, traced: bool) -> dict:
        jid = job_id(line)
        spans_path = OUT / "spans" / f"{jid}.json"
        if traced:
            argv = [PYTHON, str(BENCH / "trace_runner.py"), str(spans_path), jid]
        else:
            argv = [PYTHON, "-m", "frobvol"]
        with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
            code, wall, usage = run_process(argv + cli_args(line), out, err, self.limit())
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        self.attempted += 1
        problem = None
        if code is None:
            problem = "killed at the time limit"
        elif code != 0:
            problem = f"exit code {code}"
        elif stdout != self.expected[line]:
            problem = "stdout differs from the expected output"
        sample = {
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
        }
        if problem is not None:
            self.failed += 1
            detail = stderr.decode(errors="replace").strip().splitlines()
            print(f"FAILED {jid}: {problem}" + (f" ({detail[-1]})" if detail else ""),
                  file=sys.stderr)
        elif traced:
            sample["layers"] = layer_totals(json.loads(spans_path.read_text()))
        return sample


def layer_totals(trace: dict) -> Counter:
    """Calls and self time per span name, plus the runner's counters."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = Counter(trace["counts"])
    for (name, start, end, _), children in zip(spans, covered):
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += end - start - children
    return totals


def per_job(passes: list, field: str, pace: str | None = None) -> dict:
    """{line: median over passes of field, divided by the pace field if given}."""
    return {
        line: statistics.median(
            p[line][field] / (p[line][pace] if pace else 1) for p in passes
        )
        for line in passes[0]
    }


def end_to_end(runner: Runner, passes: list) -> dict:
    return {
        "wall_ref": sum(per_job(passes, "wall", "ref_wall").values()),
        "cpu_ref": sum(per_job(passes, "cpu", "ref_cpu").values()),
        "peak_rss_mb": max(per_job(passes, "rss_mb").values()),
        "setup_s": statistics.median(paced for _, paced in runner.setup) * REFERENCE_S,
        "wall_s": sum(per_job(passes, "wall").values()),
        "cpu_s": sum(per_job(passes, "cpu").values()),
        "setup_raw_s": statistics.median(raw for raw, _ in runner.setup),
    }


def per_layer(plain: list, traced: list) -> dict:
    sums = []
    for p in traced:
        total = Counter()
        for sample in p.values():
            total.update(sample.get("layers", Counter()))
        calls = total["groebner.basis.calls"]
        total["groebner.basis.hit_ratio"] = total["groebner.basis.hits"] / calls if calls else 0.0
        sums.append(total)
    metrics = {name: statistics.median(s[name] for s in sums) for name in set().union(*sums)}
    metrics["trace.overhead_s"] = (
        sum(per_job(traced, "wall").values()) - sum(per_job(plain, "wall").values())
    )
    return Counter(metrics)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    OUT.mkdir(exist_ok=True)
    (OUT / "spans").mkdir(exist_ok=True)
    runner = Runner(workload, seed)
    runner.setup_time()  # compiles the package's bytecode once, untimed
    plain, traced = [], []
    start = perf_counter()
    while True:
        began = perf_counter()
        plain.append(runner.run_pass(traced=False))
        if trace:
            traced.append(runner.run_pass(traced=True))
        took = perf_counter() - began
        if perf_counter() - start + took > seconds or perf_counter() > runner.deadline:
            break
    metrics = per_layer(plain, traced) if trace else end_to_end(runner, plain)
    return runner, plain, traced, metrics


def report(args, runner, plain, traced, metrics):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(plain)} traced_passes={len(traced)} attempted={runner.attempted} "
          f"failed={runner.failed} failed_frac={runner.failed / runner.attempted}")
    for line in sorted(plain[0]):
        walls = [p[line]["wall"] for p in plain]
        print(f"  {job_id(line):45s} wall median {statistics.median(walls):.3f} s "
              f"min {min(walls):.3f} max {max(walls):.3f} over {len(walls)} passes")
    result = {}
    for m in wanted:
        result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:36s} {metrics[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        for name in ("wall_s", "cpu_s", "setup_raw_s"):
            print(f"  {name:36s} {metrics[name]:.6g} s (raw, not bounded)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through run_process, which kills and reaps the job
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # one CPU for the jobs and the reference, so both see the same contention
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "frobvol" / "cli.py").is_file():
        print(f"error: no frobvol package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(args, *outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
