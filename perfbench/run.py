"""End-to-end and per-layer benchmark for solnorm.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census|reports|verify --seed N \
        --seconds S --trace 0|1

Drives solnorm through its documented interface, solnorm.cli.main(argv),
called in-process with stdout captured: one process, one thread, a closed
loop (the next command starts when the previous one returns).  A run
repeats whole rounds of the workload's seeded commands until S seconds have
passed, checks every output (perfbench/checks.py), and prints one JSON
object as its last line.  With --trace 0 it reports the end-to-end metrics,
with every time scaled to the machine's nominal speed (perfbench/speed.py;
the unscaled figures go to the result file); with --trace 1 it runs a fixed number of rounds, alternately untraced and
traced, and reports the per-layer metrics of the traced rounds plus the
tracing overhead.  A copy of the result, with the Python version, commit,
kernel backend, CPU count and seed, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from speed import SpeedSampler, reference_ratio  # noqa: E402

SETUP_SAMPLES = 15
SETUP_CHILD = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import solnorm, solnorm.cli\n"
    "print(time.perf_counter() - start)\n"
)
# Untraced/traced round pairs in a --trace 1 run.
TRACE_PAIRS = {"census": 3, "reports": 1, "verify": 1}
# Latency tail: the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10


@dataclass
class Op:
    argv: list[str]
    units: int  # throughput operations: CSV rows, reports or checks
    output: Path | None = None  # a file the command writes, read as its output


@dataclass
class Stats:
    """Per-command timings: (round, start, end, seconds), where seconds
    excludes the speed sampler's handler."""

    sampler: SpeedSampler
    timings: list[tuple[int, float, float, float]] = field(default_factory=list)
    rounds: int = 0
    attempted: int = 0  # throughput operations: CSV rows, reports or checks
    failed: int = 0

    def latencies(self, normalise: bool = True) -> list[float]:
        if not normalise:
            return [t for _, _, _, t in self.timings]
        return [t * self.sampler.factor(a, b) for _, a, b, t in self.timings]

    def round_seconds(self, normalise: bool = True) -> list[float]:
        totals = [0.0] * self.rounds
        for (r, _, _, _), t in zip(self.timings, self.latencies(normalise)):
            totals[r] += t
        return totals


def measure_setup(work: Path) -> float:
    """Median time, in a fresh interpreter with a warm bytecode cache, to
    import solnorm and solnorm.cli, scaled to nominal machine speed by the
    reference timed just before and after each child.  The first child
    writes the cache (under `work`, whatever PYTHONDONTWRITEBYTECODE says)
    and is not counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(work / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        before = reference_ratio()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD], cwd=ROOT, env=env, capture_output=True,
            text=True, check=True, timeout=60,
        )
        samples.append(float(done.stdout) * (before + reference_ratio()) / 2)
    return statistics.median(samples[1:])


def call(argv: list[str], sampler: SpeedSampler) -> tuple[int, str, float, float, float]:
    """Run one solnorm command in-process.  Returns (status, output, start,
    end, seconds), where seconds leaves out the sampler's handler."""
    import solnorm.cli

    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # every command starts from the same collector state
    spent = sampler.spent
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = solnorm.cli.main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
    end = time.perf_counter()
    return status, out.getvalue() + err.getvalue(), start, end, end - start - (sampler.spent - spent)


class Workload:
    """One round of commands, and the checks on their outputs."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.name = name
        self.ops: list[Op] = []
        if name == "census":
            self.files = inputs.census_files(seed)
            for i, f in enumerate(self.files):
                src, dst = work / f"in{i}.txt", work / f"out{i}.csv"
                src.write_text(f.text(), encoding="utf-8")
                self.ops.append(Op(["census", "--in", str(src), "--out", str(dst)], len(f.lines), dst))
        elif name == "reports":
            self.items = inputs.report_inputs(seed)
            for item in self.items:
                self.ops.append(Op(inputs.report_argv(item, as_json=False), 1))
                self.ops.append(Op(inputs.report_argv(item, as_json=True), 1))
        else:
            self.ops.append(Op(["verify", "--level", "full"], checks.FULL_CHECKS))
        self.first: list[tuple[int, str]] | None = None
        self.errors: list[str] = []

    def run_round(self, stats: Stats) -> None:
        outputs = []
        for op in self.ops:
            status, out, start, end, seconds = call(op.argv, stats.sampler)
            if op.output is not None:
                out += op.output.read_text(encoding="utf-8") if op.output.exists() else ""
            stats.timings.append((stats.rounds, start, end, seconds))
            stats.attempted += op.units
            if status != 0:
                stats.failed += op.units
            outputs.append((status, out))
        stats.rounds += 1
        if self.first is None:
            self.first = outputs
        elif outputs != self.first:
            changed = sum(a != b for a, b in zip(outputs, self.first))
            self.errors.append(f"{changed} outputs differ from the first round's")

    def check(self) -> list[str]:
        """Check the first round's outputs; later rounds were compared to them."""
        errors = list(self.errors)
        if self.name == "census":
            for (status, out), f, op in zip(self.first, self.files, self.ops):
                message, _, csv_text = out.partition("\n")
                if status != 0 or message != f"wrote {len(f.lines)} rows to {op.output}":
                    errors.append(f"census exited {status}: {message}")
                errors += checks.check_census(csv_text, f.lines, f.groups)
        elif self.name == "reports":
            records = []
            for i, item in enumerate(self.items):
                (st_text, text_out), (st_json, json_out) = self.first[2 * i], self.first[2 * i + 1]
                if st_text or st_json:
                    errors.append(f"{item.kind} {inputs.text(item.matrix)} exited {st_text}/{st_json}")
                rec, errs = checks.check_report_pair(text_out, json_out, item.kind, item.matrix, item.cap)
                records.append(rec)
                errors += errs
            for item, rec in zip(self.items, records):
                if item.related is not None and rec is not None and records[item.related] is not None:
                    where = f"{item.family} {inputs.text(item.matrix)}"
                    errors += checks.check_related(rec, records[item.related], item.power, where)
        else:
            status, out = self.first[0]
            errors += checks.check_verify(out, status)
        return errors


def percentile_tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it; with fewer samples than that, the largest."""
    ordered = sorted(latencies)
    index = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(stats: Stats, normalise: bool) -> dict[str, tuple[float, str]]:
    latencies = stats.latencies(normalise)
    rounds = stats.round_seconds(normalise)
    tail, _ = percentile_tail(latencies)
    return {
        "throughput_ops_s": (stats.attempted / sum(rounds), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "wall_s": (statistics.median(rounds), "s"),
    }


def run_untraced(workload: Workload, seconds: float) -> tuple[dict, Stats, dict]:
    """Whole rounds until `seconds` have passed.  Returns the end-to-end
    metrics, the stats and the same metrics unnormalised."""
    with SpeedSampler() as sampler:
        stats = Stats(sampler)
        start = time.perf_counter()
        while not stats.rounds or time.perf_counter() - start < seconds:
            workload.run_round(stats)
    _, pct = percentile_tail(stats.latencies())
    print(f"{workload.name}: {stats.rounds} rounds, {len(stats.timings)} commands, tail at p{pct:.1f}, "
          f"{len(sampler.ratios)} speed samples, median speed {statistics.median(sampler.ratios):.3f}")
    return end_to_end(stats, True), stats, end_to_end(stats, False)


def run_traced(workload: Workload) -> tuple[dict, Stats, dict]:
    """TRACE_PAIRS untraced and traced rounds.  Returns the per-layer
    metrics, stats covering both kinds of round and the span dump."""
    from tracer import Tracer

    tracer = Tracer()
    with SpeedSampler() as sampler:
        plain, traced = Stats(sampler), Stats(sampler)
        for _ in range(TRACE_PAIRS[workload.name]):
            workload.run_round(plain)
            tracer.install()
            try:
                workload.run_round(traced)
            finally:
                tracer.uninstall()
    metrics = tracer.metrics()
    overhead = 100.0 * (sum(traced.round_seconds()) / sum(plain.round_seconds()) - 1)
    metrics["trace.overhead_pct"] = (overhead, "%")
    print(f"{workload.name}: {plain.rounds} untraced and {traced.rounds} traced rounds, "
          f"tracing overhead {overhead:.1f}%")
    both = Stats(sampler, attempted=plain.attempted + traced.attempted, failed=plain.failed + traced.failed)
    return metrics, both, tracer.dump()


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("census", "reports", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "solnorm" / "__init__.py").is_file():
        print(f"solnorm sources not found under {SRC}", file=sys.stderr)
        return 2

    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = measure_setup(work)
        sys.path.insert(0, str(SRC))
        import solnorm
        import solnorm.cli  # noqa: F401

        workload = Workload(args.workload, args.seed, work)
        raw = trace_dump = None
        if args.trace:
            metrics, stats, trace_dump = run_traced(workload)
        else:
            metrics, stats, raw = run_untraced(workload, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        errors = workload.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in errors[:20]:
        print(f"CHECK FAILED: {error}")
    result = {
        "correct": not errors,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": git_commit(),
        "kernel_backend": getattr(solnorm, "kernel_backend", lambda: "n/a")(),
        "nproc": len(os.sched_getaffinity(0)),
        "result": result,
        "unnormalised": raw and {name: value for name, (value, _) in raw.items()},
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if trace_dump is not None:
        (results / f"{stem}.trace.json").write_text(json.dumps(trace_dump, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
