"""Benchmark of avgexp through its public entry point, avgexp.cli.main.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src; the
work files go to ./.perfbench_work.  Each run repeats whole rounds of one
workload (a cold command, then a rerun with the same arguments) for S
seconds and checks every output against perfbench/references.py.  Each
timed command runs between two gauges of the machine's speed, and its
time is reported at a fixed speed (gauge.py).  The last line of
standard output is a JSON object with the keys correct, attempted,
failed and metrics.  --trace 1 runs one traced pass over every
workload, whichever is named, and reports the per-layer metrics of
tracing.py instead of the end-to-end ones.  See perfbench/README.md.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gauge  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 7


@dataclass(frozen=True)
class Workload:
    argv: tuple  # the command, without --outfile and --cache
    cache: bool
    spec: checks.SweepSpec = None  # None for the constant command

    @property
    def workers(self) -> int:
        return int(self.argv[self.argv.index("--workers") + 1]) if "--workers" in self.argv else 1


WORKLOADS = {
    # Non-CM curve: BSGS point counting dominates; the only workload that
    # uses the process pool and the cache.  The rerun reads the cache.
    "sweep-generic": Workload(
        ("run", "--preset", "generic1", "--xmax", "50000", "--workers", "2"), True,
        checks.SweepSpec(1, 1, 50_000, "gl2", cm_i=False, annihilate=True)),
    # y^2 = x^3 - x: group structure dominates; one worker, no cache.
    "sweep-cm": Workload(
        ("run", "--preset", "cm-i", "--model", "empirical", "--xmax", "20000", "--workers", "1"),
        False, checks.SweepSpec(-1, 0, 20_000, "empirical", cm_i=True, annihilate=False)),
    # The constant two ways, with no point counting at all.
    "constant": Workload(
        ("constant", "--model", "gl2", "--series-y", "3000", "--euler-pmax", "3000"), False),
}


def setup_seconds() -> tuple:
    """Median time for a fresh interpreter to import the entry point:
    (at the reference speed, as measured)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    scaled, raw = [], []
    before = gauge.gauge()[0]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import avgexp.cli"], cwd=ROOT, env=env, check=True)
        raw.append(time.perf_counter() - t0)
        after = gauge.gauge()[0]
        scaled.append(gauge.scaled(raw[-1], before, after))
        before = after
    return median(scaled), median(raw)


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                 resource.getrusage(resource.RUSAGE_CHILDREN)))


class Runner:
    def __init__(self, name: str, seed: int):
        from avgexp import cli
        self.cli = cli
        self.name = name
        self.w = WORKLOADS[name]
        self.dir = WORK / name
        self.seed = seed
        self.checker = None  # built at the first check, after peak memory is read
        self.verdicts = []
        self.problems = []

    def argv(self, workers=None) -> list:
        argv = list(self.w.argv)
        if workers is not None and "--workers" in argv:
            argv[argv.index("--workers") + 1] = str(workers)
        if self.w.spec:
            argv += ["--outfile", str(self.dir / "out")]
        if self.w.cache:
            argv += ["--cache", str(self.dir / "records.bin")]
        return argv

    def fresh(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def command(self, argv) -> tuple:
        """Run one command; returns (wall seconds, CPU seconds, outputs)."""
        out = io.StringIO()
        c0, t0 = cpu_seconds(), time.perf_counter()
        with contextlib.redirect_stdout(out):
            try:
                rc = self.cli.main(argv)
            except Exception as err:  # a crash is a failed command, not a failed benchmark
                rc = f"{type(err).__name__}: {err}"
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        if rc != 0:
            self.problems.append(f"{' '.join(argv)}: exit {rc}")
        outputs = checks.read_outputs(self.dir / "out") if self.w.spec else out.getvalue()
        return wall, cpu, outputs

    def gauged(self, argv, before) -> tuple:
        """Run one command between two gauges.  Returns the gauge after it,
        the (wall, CPU) seconds scaled to the reference speed, the same
        measured, and the outputs."""
        wall, cpu, outputs = self.command(argv)
        after = gauge.gauge()
        scaled = (gauge.scaled(wall, before[0], after[0]), gauge.scaled(cpu, before[1], after[1]))
        return after, scaled, (wall, cpu), outputs

    def check(self, outputs) -> None:
        if self.checker is None:
            rng = np.random.default_rng(self.seed)
            self.checker = checks.SweepChecker(self.w.spec, rng) if self.w.spec else checks.ConstantChecker()
        self.verdicts.append(self.checker.check(outputs))

    def check_rerun(self, cold, warm) -> None:
        """The rerun's records are byte-identical to the cold run's."""
        if self.w.spec and (cold is None or warm is None or cold[0] != warm[0]):
            self.problems.append("rerun records.csv differs from the cold run's")


def report(runners: list, metrics: dict) -> dict:
    """Print the failures, problems and metrics; return the result object."""
    verdicts = [v for r in runners for v in r.verdicts]
    failed = [label for v in verdicts for label in v.failed]
    for label in sorted(set(failed)):
        print(f"failed ({failed.count(label)}x): {label}")
    for note in dict.fromkeys(n for v in verdicts for n in v.notes):
        print(f"note: {note}")
    problems = [p for r in runners for p in r.problems] + [p for v in verdicts for p in v.problems]
    for problem in dict.fromkeys(problems):
        print(f"PROBLEM: {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not problems,
            "attempted": sum(v.attempted for v in verdicts),
            "failed": len(failed),
            "metrics": metrics}


def measure(runners: list, seconds: float) -> dict:
    """End-to-end metrics: whole rounds of cold command plus rerun, each
    timed between two gauges and reported at the reference speed."""
    (r,) = runners
    setup, setup_raw = setup_seconds()
    cold, cold_cpu, rerun = [], [], []
    raw_cold, raw_rerun, gauges = [], [], []
    peak_mb = None
    start = time.perf_counter()
    while not cold or time.perf_counter() - start < seconds:
        r.fresh()
        g = gauge.gauge()
        gauges.append(g[0])
        g, (wall, cpu), raw, first = r.gauged(r.argv(), g)
        cold.append(wall)
        cold_cpu.append(cpu)
        raw_cold.append(raw[0])
        g, (wall, _), raw, second = r.gauged(r.argv(), g)
        rerun.append(wall)
        raw_rerun.append(raw[0])
        if peak_mb is None:  # before any check has allocated memory
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        r.check(first)
        r.check(second)
        r.check_rerun(first, second)
    print(f"{r.name}: {len(cold)} rounds in {time.perf_counter() - start:.1f} s")
    print(f"measured, not scaled: setup {setup_raw:.4g} s, cold {median(raw_cold):.4g} s, "
          f"rerun {median(raw_rerun):.4g} s, gauge {median(gauges) * 1e3:.4g} ms")
    return {"setup_s": (setup, "s"), "cold_s": (median(cold), "s"),
            "cold_cpu_s": (median(cold_cpu), "s"), "rerun_s": (median(rerun), "s"),
            "peak_rss_mb": (peak_mb, "MB")}


def trace(runners: list, seconds: float) -> dict:
    """Per-layer metrics from one traced pass over every workload, run in
    this one process with one worker, so that each traced run measures
    every layer.  A round also runs each cold command untraced: with the
    workload's own workers, for harness.parallel_efficiency, and with one
    worker, whose time subtracted from the traced one is the tracing cost."""
    tracer = tracing.Tracer()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        first = len(tracer.spans)
        pool_cpu = pool_capacity = overhead = 0.0
        for r in runners:
            r.fresh()
            wall, cpu, outputs = r.command(r.argv())
            r.check(outputs)
            if r.w.workers > 1:
                pool_cpu += cpu
                pool_capacity += r.w.workers * wall
                r.fresh()
                wall, _, outputs = r.command(r.argv(workers=1))
                r.check(outputs)
            r.fresh()
            with tracer.installed():
                traced, _, cold = r.command(r.argv(workers=1))
                _, _, warm = r.command(r.argv(workers=1))
            r.check(cold)
            r.check(warm)
            r.check_rerun(cold, warm)
            overhead += traced - wall
        m = tracer.round_metrics(first)
        m["harness.parallel_efficiency"] = pool_cpu / pool_capacity
        m["trace.overhead_s"] = overhead
        rounds.append(m)
    print(f"{len(rounds)} traced rounds of every workload in {time.perf_counter() - start:.1f} s")
    tracer.write(WORK / "spans.jsonl")
    summary = tracing.summarize(rounds)
    return {k: (summary[k], unit) for k, (unit, _) in tracing.METRICS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "avgexp" / "cli.py").is_file():
        print(f"no avgexp sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.trace:
        runners = [Runner(name, args.seed) for name in WORKLOADS]
        measured = trace(runners, args.seconds)
    else:
        runners = [Runner(args.workload, args.seed)]
        measured = measure(runners, args.seconds)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in measured.items()}
    print(json.dumps(report(runners, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
