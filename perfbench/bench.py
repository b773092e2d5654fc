"""Runs one workload as a closed loop of in-process CLI calls and reports metrics.

One operation runs at a time, from one process, each an
``empursuit.cli.main([...])`` call on files generated during set-up. Each
output is checked after its call, outside the timed region; a failed call
or check counts against the run instead of stopping it.

Untraced runs report the end-to-end metrics. A traced run alternates
untraced and traced cycles (one operation of each kind) and reports the
per-layer metrics of the traced cycles, plus the tracing overhead as the
difference between the two.
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

import numpy as np
import scipy

from empursuit import cli

from . import THREAD_VARS, workloads
from .checks import Checker
from .spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 5
KINDS = workloads.VARIANTS + ("learn",)

END_TO_END = {"setup_s": ("s", "lower")}
END_TO_END.update({f"{k}_samples_per_s": ("samples/s", "higher") for k in KINDS})
END_TO_END.update({f"{k}_snr_db": ("dB", "higher") for k in KINDS})
END_TO_END["peak_rss_mb"] = ("MB", "lower")

_SECONDS = (
    "pursuit.refresh.s", "pursuit.solve_neighborhood.s", "pursuit.correlate_all.s",
    "pursuit.select.s", "pursuit.update_residual.s", "pursuit.match.total_s",
    "pursuit.match.self_s", "learner.dlearn.self_s", "learner.apply_update.s",
    "learner.atom_gradient.s", "dictionary.extnorm.s", "signal_io.load_wav.s",
    "signal_io.next_block.s", "dictionary.load_dict.s", "dictionary.save_dict.s",
    "dictionary.dict_digest.s", "pursuit.save_code.s", "pursuit.reconstruct.s",
    "cli.self_s", "trace.overhead_s",
)
_COUNTS = (
    "pursuit.refresh.calls", "pursuit.solve_neighborhood.calls",
    "pursuit.solve_neighborhood.ridged", "pursuit.correlate_all.calls",
    "pursuit.select.calls", "pursuit.deactivate.calls", "learner.atom_gradient.calls",
    "dictionary.extnorm.calls", "learner.tail_growths", "learner.rerandomized",
    "dictionary.distinct_lengths", "trace.missing_spans",
)
# Per traced cycle. Each is a cost or a workload property: lower is better.
PER_LAYER = {name: "s" for name in _SECONDS}
PER_LAYER.update({name: "count" for name in _COUNTS})
PER_LAYER.update(
    {
        "pursuit.refresh.span_samples": "samples",
        "pursuit.solve_neighborhood.cols_mean": "cols",
        "pursuit.solve_neighborhood.cols_max": "cols",
        "trace.overhead_frac": "ratio",
        "pursuit.emp_over_mp_iter_cost": "ratio",
        "pursuit.eomp_over_omp_iter_cost": "ratio",
    }
)
PER_LAYER.update({f"pursuit.us_per_iter.{v}": "us" for v in workloads.VARIANTS})


def environment(root: str = ROOT) -> dict:
    """Versions, thread settings and hardware this result was measured with."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cli._cpu_model(),
    }


def _git_sha(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_seconds(repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall times of fresh interpreters that import the benchmark and the program."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]))
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import perfbench.bench"],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - t0)
    return times


def execute(op: workloads.Op, checker: Checker, tracer: Tracer | None = None, op_id: int = 0):
    """Run one operation; return (seconds, failure reason or None)."""
    out = io.StringIO()
    with tracer.op(op_id, op.kind) if tracer else contextlib.nullcontext():
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                rc = cli.main(list(op.argv))
        except Exception:
            rc = None
            out.write(traceback.format_exc())
        seconds = perf_counter() - t0
    if rc != 0:
        return seconds, f"exit code {rc}: {out.getvalue().strip()[-300:]}"
    return seconds, checker.check(op)


class Run:
    """The operations of one benchmark process and what they produced."""

    def __init__(self, case: workloads.Case):
        self.case = case
        self.checker = Checker(case)
        self.log: list[tuple[str, float, str | None, bool]] = []  # kind, s, problem, traced

    def cycle(self, tracer: Tracer | None = None) -> float:
        t0 = perf_counter()
        for op in self.case.ops:
            self.one(op, tracer)
        return perf_counter() - t0

    def one(self, op: workloads.Op, tracer: Tracer | None = None) -> None:
        seconds, problem = execute(op, self.checker, tracer, len(self.log))
        if problem is not None:
            print(f"failed {op.kind}: {problem}", file=sys.stderr)
        self.log.append((op.kind, seconds, problem, tracer is not None))

    @property
    def failed(self) -> int:
        return sum(problem is not None for _, _, problem, _ in self.log)


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: workloads.Sizes | None = None,
    root: str = ROOT,
) -> dict:
    """Set up, measure for `seconds`, check, and return the result record.

    Set-up time is the median start-up of a fresh interpreter importing the
    program plus the median time to write the workload's files and run a
    warm-up cycle, each taken SETUP_REPEATS times.
    """
    import_s = statistics.median(import_seconds())
    sizes = sizes or workloads.FULL[workload]
    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=base)
    try:
        setup, warm_failed = [], 0
        for k in range(SETUP_REPEATS):
            t0 = perf_counter()
            case = workloads.prepare(seed, sizes, os.path.join(work, f"setup{k}"))
            warm = Run(
                workloads.prepare(seed, workloads.TINY[workload], os.path.join(work, f"warm{k}"))
            )
            warm.cycle()
            warm_failed += warm.failed
            setup.append(perf_counter() - t0)
        bench = Run(case)
        deadline = perf_counter() + seconds
        if trace:
            tracer, overhead = Tracer(), []
            while True:
                t0 = perf_counter()
                plain = bench.cycle()
                overhead.append((bench.cycle(tracer) - plain, plain))
                # Start another pair of cycles only if it can end in time.
                if perf_counter() + (perf_counter() - t0) > deadline:
                    break
        else:
            bench.cycle()
            while perf_counter() < deadline:
                bench.one(case.ops[len(bench.log) % len(case.ops)])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics, counts, missing = _layer_metrics(bench, tracer, overhead)
        tracer.write(os.path.join(base, f"spans-{workload}.csv"))
    else:
        metrics, counts = _end_to_end(bench, import_s + statistics.median(setup))
        missing = []
    failed = bench.failed
    complete = all(n > 0 for n in counts.values())
    return {
        "correct": failed == 0 and warm_failed == 0 and complete and not missing,
        "attempted": len(bench.log),
        "failed": failed,
        "metrics": metrics,
        "samples": counts,
        "missing_spans": missing,
        "warmup_failed": warm_failed,
        "ops": [(k, round(s, 6), problem is None, traced) for k, s, problem, traced in bench.log],
        "env": environment(root),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def _end_to_end(bench: Run, setup_s: float) -> tuple[dict, dict]:
    """Throughput per operation kind, SNR of its output, set-up and RSS.

    A throughput is the run's samples over the summed wall time of its good
    operations of that kind. The host's speed drifts in phases of tens of
    seconds; this total weighs every phase by its length, where the median
    operation jumps to whichever phase holds the middle one.
    """
    metrics = {"setup_s": setup_s}
    counts = {"setup_s": SETUP_REPEATS}
    samples = {op.kind: op.samples for op in bench.case.ops}
    for kind in KINDS:
        times = [s for k, s, problem, _ in bench.log if k == kind and problem is None]
        snr = bench.checker.snr_db(kind)
        metrics[f"{kind}_samples_per_s"] = samples[kind] * len(times) / sum(times) if times else 0.0
        metrics[f"{kind}_snr_db"] = 0.0 if snr is None else snr
        counts[f"{kind}_samples_per_s"] = len(times)
        counts[f"{kind}_snr_db"] = bench.checker.checked.get(kind, 0)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts["peak_rss_mb"] = 1
    return {name: metrics[name] for name in END_TO_END}, counts


def _layer_metrics(bench: Run, tracer: Tracer, overhead: list) -> tuple[dict, dict, list]:
    """Per-layer metrics per traced cycle, with the tracing overhead."""
    metrics, missing = tracer.layer_metrics(len(overhead))
    lengths = {len(w) for w in bench.case.dictionary}
    metrics["dictionary.distinct_lengths"] = float(len(lengths))
    metrics["trace.overhead_s"] = statistics.median(d for d, _ in overhead)
    metrics["trace.overhead_frac"] = statistics.median(d / plain for d, plain in overhead)
    metrics["trace.missing_spans"] = float(len(missing))
    counts = {"traced_cycles": len(overhead), "spans": len(tracer.spans)}
    return {name: metrics[name] for name in PER_LAYER}, counts, missing
