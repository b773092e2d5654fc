"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for _p in (str(ROOT / "src"), str(ROOT)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from empursuit import cli  # noqa: E402
from empursuit.dictionary import Atom, Dictionary  # noqa: E402
from perfbench import bench, spans, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The layer boundaries the per-layer table names; each must be traced.
TABLE_SPANS = {
    "pursuit.refresh", "pursuit.solve_neighborhood", "pursuit.correlate_all",
    "pursuit.select", "pursuit.update_residual", "pursuit.deactivate", "pursuit.match",
    "learner.apply_update", "learner.atom_gradient", "dictionary.extnorm",
    "signal_io.load_wav", "signal_io.next_block", "dictionary.load_dict",
    "dictionary.save_dict", "pursuit.save_code", "pursuit.reconstruct", "cli.main",
}


def tiny_run(workload: str, root: Path, trace: bool = False) -> dict:
    return bench.run(
        workload, 5, 0.0, trace, sizes=workloads.TINY[workload], root=str(root)
    )


def test_spec_matches_the_metric_tables():
    e2e = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert e2e == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    result = tiny_run(workload, tmp_path)
    assert result["correct"], result["ops"]
    assert result["failed"] == 0 and result["attempted"] == len(
        workloads.prepare(5, workloads.TINY[workload], str(tmp_path / "ops")).ops
    )
    assert list(result["metrics"]) == list(bench.END_TO_END)
    assert all(v > 0 for v in result["metrics"].values()), result["metrics"]
    assert all(result["samples"][name] >= 1 for name in bench.END_TO_END)
    assert set(result["env"]) == {
        "git_sha", "python", "numpy", "scipy", "blas", "blas_threads", "nproc",
        "cpus_usable", "cpu_model",
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_records_every_span_in_the_table(workload, tmp_path):
    result = tiny_run(workload, tmp_path, trace=True)
    assert result["correct"], result["ops"]
    assert result["missing_spans"] == []
    assert TABLE_SPANS <= set(spans.EXPECTED)
    assert list(result["metrics"]) == list(bench.PER_LAYER)
    m = result["metrics"]
    for name in ("pursuit.refresh", "pursuit.solve_neighborhood", "pursuit.correlate_all",
                 "pursuit.select", "pursuit.deactivate", "learner.atom_gradient",
                 "dictionary.extnorm"):
        assert m[f"{name}.calls"] > 0, name
    assert m["pursuit.match.self_s"] < m["pursuit.match.total_s"]
    written = (tmp_path / ".perfbench" / f"spans-{workload}.csv").read_text().splitlines()
    assert written[0] == "name,start_s,end_s,parent,op"
    assert {line.split(",")[0] for line in written[1:]} == set(spans.EXPECTED)


def _shifted_code(save_code):
    def corrupt(code, path, residual_path=None):
        code.events[0].coefficient += 1.0
        save_code(code, path, residual_path=residual_path)

    return corrupt


def _scaled_dict(save_dict):
    def corrupt(d, path):
        atoms = [Atom(2.0 * a.waveform, pad_len=a.pad_len) for a in d.atoms]
        save_dict(Dictionary(atoms, sample_rate_hint=d.sample_rate_hint), path)

    return corrupt


@pytest.mark.parametrize(
    "attr, corrupt, kinds",
    [
        ("save_code", _shifted_code, set(workloads.VARIANTS)),
        ("save_dict", _scaled_dict, {"learn"}),
    ],
)
def test_corrupted_output_counts_as_failed(attr, corrupt, kinds, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, attr, corrupt(getattr(cli, attr)))
    result = tiny_run("encode-long-atoms", tmp_path)
    bad = [ok for kind, _, ok, _ in result["ops"] if kind in kinds]
    assert bad and not any(bad)
    assert result["failed"] == len(bad) < result["attempted"]
    assert result["correct"] is False


def test_event_list_must_repeat_within_a_run(tmp_path):
    case = workloads.prepare(5, workloads.TINY["encode-long-atoms"], str(tmp_path))
    run = bench.Run(case)
    op = case.ops[0]
    run.one(op)
    text = Path(op.out).read_text().splitlines()
    head = [ln for ln in text if ln.startswith("#")]
    events = [ln for ln in text if not ln.startswith("#")]
    # Same events in another order: still a valid code, but not the same output.
    Path(op.out).write_text("\n".join(head + events[::-1]) + "\n")
    assert run.checker.check(op) == "event list differs from the run's first one"
    assert np.isfinite(run.checker.snr_db(op.kind))


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "learn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
