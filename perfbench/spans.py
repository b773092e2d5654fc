"""Spans around the program's layer boundaries, recorded from outside.

While an operation is traced, the module-level names that ``cli``,
``learner`` and ``pursuit`` look up at call time are replaced by wrappers
that record a span (name, start, end, parent, operation id) and, for a few
calls, a count taken from their arguments or result. The originals are
put back when the operation ends, so untraced operations run the program
unchanged. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter

from empursuit import cli, learner, pursuit
from empursuit.errors import ZeroAtomError

from .workloads import VARIANTS


def _on_match(tracer, rec, args, result, exc):
    variant = args[2].variant
    if result is not None and tracer.kind == variant:
        tracer.match_s[variant] += rec[2] - rec[1]
        tracer.counts[f"iters.{variant}"] += len(result.events)


def _on_solve(tracer, rec, args, result, exc):
    if result is not None:
        tracer.cols.append(len(args[0]))
        tracer.counts["pursuit.solve_neighborhood.ridged"] += bool(result[1])


def _on_refresh(tracer, rec, args, result, exc):
    tracer.counts["pursuit.refresh.span_samples"] += args[2] - args[1]


def _on_extnorm(tracer, rec, args, result, exc):
    if isinstance(exc, ZeroAtomError):
        tracer.counts["learner.rerandomized"] += 1
    elif result is not None and len(result.waveform) > len(args[0].waveform):
        tracer.counts["learner.tail_growths"] += 1


# (owner, attribute, span name, observer). Each entry is a name the caller
# resolves at call time, so replacing it on the owner reaches every call.
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "load_dict", "dictionary.load_dict", None),
    (cli, "load_wav", "signal_io.load_wav", None),
    (cli, "match", "pursuit.match", _on_match),
    (cli, "save_code", "pursuit.save_code", None),
    (cli, "reconstruct", "pursuit.reconstruct", None),
    (cli, "snr_db", "signal_io.snr_db", None),
    (cli, "dlearn", "learner.dlearn", None),
    (cli, "save_dict", "dictionary.save_dict", None),
    (cli, "write_trace", "learner.write_trace", None),
    (cli, "dict_digest", "dictionary.dict_digest", None),
    (learner, "randdict", "dictionary.randdict", None),
    (learner, "next_block", "signal_io.next_block", None),
    (learner, "match", "pursuit.match", _on_match),
    (learner, "apply_update", "learner.apply_update", None),
    (learner, "atom_gradient", "learner.atom_gradient", None),
    (learner, "extnorm", "dictionary.extnorm", _on_extnorm),
    (pursuit, "dict_digest", "dictionary.dict_digest", None),
    (pursuit, "correlate_all", "pursuit.correlate_all", None),
    (pursuit, "select", "pursuit.select", None),
    (pursuit, "solve_neighborhood", "pursuit.solve_neighborhood", _on_solve),
    (pursuit, "update_residual", "pursuit.update_residual", None),
    (pursuit.CorrelationTable, "refresh", "pursuit.refresh", _on_refresh),
    (pursuit.CorrelationTable, "deactivate", "pursuit.deactivate", None),
)
EXPECTED = sorted({name for _, _, name, _ in TARGETS})


class Tracer:
    """Records spans and counts for the operations run inside ``op()``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self._stack: list[int] = []
        self.op_id = -1
        self.kind = ""
        self.counts: Counter = Counter()
        self.cols: list[int] = []
        self.match_s: defaultdict = defaultdict(float)

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            result = exc = None
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
                if observe is not None:
                    observe(self, rec, args, result, exc)

        return wrapper

    @contextlib.contextmanager
    def op(self, op_id: int, kind: str):
        """Trace one operation: install the wrappers, then restore the originals."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
        self.op_id, self.kind = op_id, kind
        try:
            for (owner, attr, name, observe), (_, _, fn) in zip(TARGETS, saved):
                setattr(owner, attr, self._wrap(name, fn, observe))
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)
            self._stack.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, t0, t1, parent, op_id in self.spans:
                fh.write(f"{name},{t0:.9f},{t1:.9f},{parent},{op_id}\n")

    def layer_metrics(self, cycles: int) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics per traced cycle, and the expected spans that never fired.

        ``<span>.s`` is self time: the span's duration minus its children's.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for (name, t0, t1, _, _), inner in zip(self.spans, child):
            self_s[name] += t1 - t0 - inner
            total_s[name] += t1 - t0
            calls[name] += 1
        per = 1.0 / max(cycles, 1)
        out = {}
        for name in EXPECTED:
            out[f"{name}.s"] = self_s[name] * per
            out[f"{name}.calls"] = calls[name] * per
        out["pursuit.match.total_s"] = total_s["pursuit.match"] * per
        out["pursuit.match.self_s"] = out["pursuit.match.s"]
        out["learner.dlearn.self_s"] = out["learner.dlearn.s"]
        out["cli.self_s"] = out["cli.main.s"]
        for key in (
            "pursuit.refresh.span_samples", "pursuit.solve_neighborhood.ridged",
            "learner.tail_growths", "learner.rerandomized",
        ):
            out[key] = self.counts[key] * per
        out["pursuit.solve_neighborhood.cols_mean"] = (
            sum(self.cols) / len(self.cols) if self.cols else 0.0
        )
        out["pursuit.solve_neighborhood.cols_max"] = float(max(self.cols, default=0))
        us = {
            v: 1e6 * self.match_s[v] / self.counts[f"iters.{v}"] if self.counts[f"iters.{v}"] else 0.0
            for v in VARIANTS
        }
        for v in VARIANTS:
            out[f"pursuit.us_per_iter.{v}"] = us[v]
        out["pursuit.emp_over_mp_iter_cost"] = us["emp"] / us["mp"] if us["mp"] else 0.0
        out["pursuit.eomp_over_omp_iter_cost"] = us["eomp"] / us["omp"] if us["omp"] else 0.0
        missing = [name for name in EXPECTED if calls[name] == 0]
        return out, missing
