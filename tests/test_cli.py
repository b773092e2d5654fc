"""Command-line surface: learn, encode, reconstruct, eval, profile."""

from __future__ import annotations

import csv
import errno
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import empursuit
from empursuit import learner
from empursuit.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    _parse_grid,
    build_parser,
    main,
)
from empursuit.dictionary import load_dict, randdict, save_dict
from empursuit.learner import LearnConfig
from empursuit.pursuit import VARIANTS, PursuitConfig, load_code, reconstruct
from empursuit.signal_io import load_wav


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def synth_cfg(tmp_path) -> str:
    """Structured synthetic source: 3 hidden atoms, sparse events, mild noise."""
    return write_json(
        tmp_path / "synth.json",
        {
            "length": 2000,
            "sample_rate": 8000,
            "seed": 5,
            "noise_sigma": 0.01,
            "atoms": {"kind": "gaussian", "count": 3, "length": 10},
            "placements": {"kind": "poisson", "rate": 0.01},
        },
    )


@pytest.fixture()
def zero_cfg(tmp_path) -> str:
    """Synthetic source that renders to an all-zero signal."""
    return write_json(
        tmp_path / "zero.json",
        {
            "length": 300,
            "sample_rate": 8000,
            "atoms": {"kind": "explicit", "waveforms": [[1.0, 0.5]]},
            "placements": {"kind": "explicit", "events": []},
        },
    )


@pytest.fixture()
def dict_path(tmp_path) -> str:
    path = tmp_path / "dict.json"
    save_dict(randdict(4, seed=2, sample_rate_hint=8000), path)
    return str(path)


def read_table(path):
    """Split a CSV-with-commented-header file into (header dict, rows)."""
    header = {}
    body = []
    for line in Path(path).read_text().splitlines(keepends=True):
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            header[key] = value
        else:
            body.append(line)
    rows = list(csv.reader(body))
    return header, rows[0], rows[1:]


class TestLearnCommand:
    def test_zero_blocks_writes_initial_dictionary(self, tmp_path, synth_cfg):
        out = str(tmp_path / "d.json")
        code = main(
            [
                "learn", "--synth", synth_cfg, "--atoms", "3", "--blocks", "0",
                "--seed", "3", "--out", out,
            ]
        )
        assert code == EXIT_OK
        learned = load_dict(out)
        init = randdict(3, seed=3, sample_rate_hint=8000)
        for a, b in zip(learned.atoms, init.atoms):
            np.testing.assert_array_equal(a.waveform, b.waveform)

    def test_rerun_with_identical_flags_is_byte_identical(self, tmp_path, synth_cfg):
        flags = [
            "learn", "--synth", synth_cfg, "--atoms", "3", "--blocks", "2",
            "--block-len", "500", "--eta", "1e-4", "--seed", "3",
        ]
        out1, out2 = str(tmp_path / "d1.json"), str(tmp_path / "d2.json")
        assert main(flags + ["--out", out1]) == EXIT_OK
        assert main(flags + ["--out", out2]) == EXIT_OK
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_writes_trace_and_run_config(self, tmp_path, synth_cfg):
        out = str(tmp_path / "d.json")
        assert (
            main(
                [
                    "learn", "--synth", synth_cfg, "--atoms", "3", "--blocks", "2",
                    "--block-len", "500", "--eta", "1e-4", "--seed", "3",
                    "--out", out,
                ]
            )
            == EXIT_OK
        )
        header, columns, rows = read_table(out + ".trace.csv")
        assert "config_digest" in header and "dict_digest" in header
        assert columns[0] == "block"
        assert len(rows) == 2
        run_cfg = json.loads(Path(out + ".run.json").read_text())
        assert run_cfg["argv_command"] == "learn"
        assert run_cfg["atoms"] == 3
        assert run_cfg["p"] == 0.05  # default resolved and recorded
        assert "checkpoint_every" not in run_cfg and "checkpoint_dir" not in run_cfg

    @pytest.mark.parametrize(
        "flags",
        [
            ["--out", "{missing}/d.json"],
            ["--trace", "{missing}/t.csv", "--out", "{tmp}/d.json"],
        ],
        ids=["out", "trace"],
    )
    def test_missing_output_directory_rejected_before_the_first_block(
        self, tmp_path, synth_cfg, monkeypatch, capsys, flags
    ):
        def no_block(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(learner, "next_block", no_block)
        fill = {"{missing}": str(tmp_path / "missing"), "{tmp}": str(tmp_path)}
        for key, value in fill.items():
            flags = [f.replace(key, value) for f in flags]
        argv = [
            "learn", "--synth", synth_cfg, "--atoms", "3", "--blocks", "2",
            "--block-len", "1000",
        ]
        assert main(argv + flags) == EXIT_DATA
        assert "directory" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["synth.json"]

    @pytest.mark.parametrize(
        "trace", ["d.json", "sub/../d.json", "d.json.run.json"],
        ids=["same-path", "same-file", "run-config"],
    )
    def test_output_named_twice_rejected_before_the_first_block(
        self, tmp_path, synth_cfg, monkeypatch, capsys, trace
    ):
        """--trace naming --out's file (or its run config) would overwrite it."""
        def no_block(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(learner, "next_block", no_block)
        (tmp_path / "sub").mkdir()
        argv = [
            "learn", "--synth", synth_cfg, "--atoms", "3", "--blocks", "2",
            "--block-len", "1000", "--out", str(tmp_path / "d.json"),
            "--trace", str(tmp_path / trace),
        ]
        assert main(argv) == EXIT_USAGE
        assert "are one file" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["sub", "synth.json"]

    def test_defaults_come_from_the_configs(self):
        parser = build_parser()
        learn = parser.parse_args(["learn", "--synth", "s.json", "--out", "d.json"])
        cfg = LearnConfig()
        assert (
            learn.atoms, learn.p, learn.eta, learn.variant, learn.blocks, learn.seed,
        ) == (cfg.m, cfg.p, cfg.eta, cfg.variant, cfg.n_blocks, cfg.seed)
        pursuit = PursuitConfig()
        encode = parser.parse_args(
            ["encode", "--synth", "s.json", "--dict", "d.json", "--out", "x.code"]
        )
        assert (encode.p, encode.variant) == (pursuit.p, pursuit.variant)
        evaluate = parser.parse_args(
            ["eval", "--synth", "s.json", "--dict", "d.json", "--analysis", "rates",
             "--out", "x.csv"]
        )
        assert (evaluate.p, evaluate.variants) == (pursuit.p, ",".join(VARIANTS))
        profile = parser.parse_args(["profile", "--out", "x.csv"])
        assert profile.p == pursuit.p


class TestEncodeCommand:
    def test_encode_reconstruct_residual_identity(
        self, tmp_path, synth_cfg, dict_path
    ):
        out = str(tmp_path / "sig.code")
        res_path = str(tmp_path / "sig.res")
        assert (
            main(
                [
                    "encode", "--synth", synth_cfg, "--dict", dict_path,
                    "--variant", "emp", "--out", out, "--residual", res_path,
                ]
            )
            == EXIT_OK
        )
        code = load_code(out, residual_path=res_path)
        from empursuit.signal_io import build_synth_signal

        sig, _ = build_synth_signal(json.loads(Path(synth_cfg).read_text()))
        approx = reconstruct(code, load_dict(dict_path))
        err = np.linalg.norm(sig.samples - approx - code.residual)
        assert err <= 1e-10 * np.linalg.norm(sig.samples)

    def test_iteration_budget_from_equiprobable_quota(
        self, tmp_path, synth_cfg, dict_path, capsys
    ):
        out = str(tmp_path / "mp.code")
        assert (
            main(
                [
                    "encode", "--synth", synth_cfg, "--dict", dict_path,
                    "--variant", "mp", "--out", out,
                ]
            )
            == EXIT_OK
        )
        quota = PursuitConfig(p=0.05).quota(2000, 4)
        assert len(load_code(out).events) == 4 * quota
        assert f"events={4 * quota}" in capsys.readouterr().out

    def test_zero_signal_writes_empty_code_and_degenerate_snr(
        self, tmp_path, zero_cfg, dict_path, capsys
    ):
        out = str(tmp_path / "zero.code")
        assert (
            main(["encode", "--synth", zero_cfg, "--dict", dict_path, "--out", out])
            == EXIT_OK
        )
        assert load_code(out).events == []
        stdout = capsys.readouterr().out
        assert "events=0" in stdout
        assert "snr_db=degenerate" in stdout

    def test_reports_snr_on_stdout(self, tmp_path, synth_cfg, dict_path, capsys):
        out = str(tmp_path / "sig.code")
        assert (
            main(["encode", "--synth", synth_cfg, "--dict", dict_path, "--out", out])
            == EXIT_OK
        )
        line = [
            ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("snr_db=")
        ]
        assert len(line) == 1
        assert math.isfinite(float(line[0].split("=")[1]))

    def test_residual_named_as_out_rejected_before_any_pursuit(
        self, tmp_path, synth_cfg, dict_path, monkeypatch, capsys
    ):
        """--residual naming --out's file would replace the code with raw bytes."""
        def no_match(*args):
            raise AssertionError("a pursuit ran")

        monkeypatch.setattr(empursuit.cli, "match", no_match)
        out = str(tmp_path / "y.code")
        argv = [
            "encode", "--synth", synth_cfg, "--dict", dict_path,
            "--out", out, "--residual", out,
        ]
        assert main(argv) == EXIT_USAGE
        assert "are one file" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["dict.json", "synth.json"]


class TestReconstructCommand:
    def encode(self, tmp_path, synth_cfg, dict_path):
        code_path = str(tmp_path / "sig.code")
        assert (
            main(
                ["encode", "--synth", synth_cfg, "--dict", dict_path, "--out", code_path]
            )
            == EXIT_OK
        )
        return code_path

    def test_round_trip_matches_in_process_reconstruction(
        self, tmp_path, synth_cfg, dict_path
    ):
        code_path = self.encode(tmp_path, synth_cfg, dict_path)
        wav_path = str(tmp_path / "out.wav")
        assert (
            main(["reconstruct", "--dict", dict_path, "--code", code_path, "--out", wav_path])
            == EXIT_OK
        )
        rendered = load_wav(wav_path)
        assert rendered.sample_rate == 8000
        expected = reconstruct(load_code(code_path), load_dict(dict_path))
        np.testing.assert_allclose(rendered.samples, expected, atol=1e-6)

    def test_sample_rate_override(self, tmp_path, synth_cfg, dict_path):
        code_path = self.encode(tmp_path, synth_cfg, dict_path)
        wav_path = str(tmp_path / "out.wav")
        assert (
            main(
                [
                    "reconstruct", "--dict", dict_path, "--code", code_path,
                    "--sample-rate", "4000", "--out", wav_path,
                ]
            )
            == EXIT_OK
        )
        assert load_wav(wav_path).sample_rate == 4000

    def test_code_from_another_dictionary_rejected(self, tmp_path, synth_cfg, capsys):
        made_with = str(tmp_path / "dict1.json")
        other = str(tmp_path / "dict2.json")
        save_dict(randdict(4, seed=1, sample_rate_hint=8000), made_with)
        save_dict(randdict(4, seed=2, sample_rate_hint=8000), other)
        code_path = self.encode(tmp_path, synth_cfg, made_with)
        wav_path = str(tmp_path / "out.wav")
        capsys.readouterr()
        code = main(["reconstruct", "--dict", other, "--code", code_path, "--out", wav_path])
        assert code == EXIT_USAGE
        assert "different dictionary" in capsys.readouterr().err

    def test_code_without_digest_is_not_checked(self, tmp_path, synth_cfg, dict_path):
        made_with = str(tmp_path / "dict1.json")
        save_dict(randdict(4, seed=1, sample_rate_hint=8000), made_with)
        code_path = self.encode(tmp_path, synth_cfg, made_with)
        with open(code_path) as fh:
            lines = [ln for ln in fh if not ln.startswith("#dict_digest=")]
        with open(code_path, "w") as fh:
            fh.writelines(lines)
        wav_path = str(tmp_path / "out.wav")
        assert (
            main(["reconstruct", "--dict", dict_path, "--code", code_path, "--out", wav_path])
            == EXIT_OK
        )
        assert load_code(code_path).dict_digest is None


ANALYSES = ["entropy", "denoise", "rates", "histograms", "psweep"]


class TestEvalCommand:
    @pytest.mark.parametrize("analysis", ANALYSES)
    def test_unknown_variant_rejected_before_any_pursuit(
        self, tmp_path, synth_cfg, dict_path, monkeypatch, analysis
    ):
        calls = []

        def counting_match(*args, **kwargs):
            calls.append(args[2].variant)
            return empursuit.pursuit.match(*args, **kwargs)

        monkeypatch.setattr(empursuit.cli, "match", counting_match)
        monkeypatch.setattr(empursuit.metrics, "match", counting_match)
        out = str(tmp_path / f"{analysis}.csv")
        argv = [
            "eval", "--synth", synth_cfg, "--dict", dict_path, "--analysis", analysis,
            "--variants", "emp,omp,bogus", "--out", out,
        ]
        assert main(argv) == EXIT_USAGE
        assert calls == []
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--analysis", "denoise", "--ratios", "0.1,0.2,-0.3"], "noise ratios"),
            (["--analysis", "psweep", "--p-grid", "0.25:0.25:1.0"], "p must be in"),
            (["--analysis", "denoise", "--ratios", "0,0.1", "--noise-seed", "-1"],
             "noise_seed must be >= 0, got -1"),
        ],
        ids=["negative-ratio", "p-grid-reaches-1", "negative-noise-seed"],
    )
    def test_bad_sweep_setting_rejected_before_any_pursuit(
        self, tmp_path, synth_cfg, dict_path, monkeypatch, capsys, flags, message
    ):
        def no_match(*args):
            raise AssertionError("a pursuit ran")

        monkeypatch.setattr(empursuit.metrics, "match", no_match)
        out = str(tmp_path / "sweep.csv")
        argv = ["eval", "--synth", synth_cfg, "--dict", dict_path, "--out", out]
        assert main(argv + flags) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not os.path.exists(out) and not os.path.exists(out + ".run.json")

    def test_entropy_table_hits_quota_parity_and_log2_m(
        self, tmp_path, synth_cfg, dict_path
    ):
        out = str(tmp_path / "entropy.csv")
        assert (
            main(
                [
                    "eval", "--synth", synth_cfg, "--dict", dict_path,
                    "--analysis", "entropy", "--out", out,
                ]
            )
            == EXIT_OK
        )
        header, columns, rows = read_table(out)
        assert header["analysis"] == "entropy"
        assert columns[:3] == ["variant", "events", "index_entropy_bits"]
        assert [r[0] for r in rows] == ["mp", "omp", "emp", "eomp"]
        # Sparsity parity: every variant is evaluated at the same event count.
        assert len({r[1] for r in rows}) == 1
        by_variant = {r[0]: r for r in rows}
        assert float(by_variant["emp"][2]) == pytest.approx(2.0, abs=1e-6)
        assert float(by_variant["eomp"][2]) == pytest.approx(2.0, abs=1e-6)

    def test_rates_table(self, tmp_path, synth_cfg):
        """One row per atom in atom order, past 25 atoms too; the rows count
        every event coded."""
        duration = 2000 / 8000  # synth_cfg's length over its sample rate
        for m in (4, 30):
            dict_path = str(tmp_path / f"dict{m}.json")
            save_dict(randdict(m, seed=1, sample_rate_hint=8000), dict_path)
            out = str(tmp_path / f"rates{m}.csv")
            assert (
                main(
                    [
                        "eval", "--synth", synth_cfg, "--dict", dict_path,
                        "--analysis", "rates", "--out", out,
                    ]
                )
                == EXIT_OK
            )
            _, columns, rows = read_table(out)
            assert columns == ["variant", "atom_index", "events_per_second"]
            assert [r[0] for r in rows] == [v for v in VARIANTS for _ in range(m)]
            events = m * PursuitConfig().quota(2000, m)  # 100 at m=4, 90 at m=30
            for v in VARIANTS:
                mine = [r for r in rows if r[0] == v]
                assert [int(r[1]) for r in mine] == list(range(m))
                total = sum(float(r[2]) * duration for r in mine)
                assert total == pytest.approx(events, abs=1e-6)

    def test_histograms_table(self, tmp_path, synth_cfg, dict_path):
        out = str(tmp_path / "hist.csv")
        assert (
            main(
                [
                    "eval", "--synth", synth_cfg, "--dict", dict_path,
                    "--analysis", "histograms", "--out", out,
                ]
            )
            == EXIT_OK
        )
        header, columns, rows = read_table(out)
        assert columns == ["variant", "bins", "bin_index", "count"]
        per_variant = 16 + 32 + 64
        assert [r[0] for r in rows] == [v for v in VARIANTS for _ in range(per_variant)]
        # The entropies are the entropy analysis's to report.
        assert not any("entropy" in key for key in header)

    def test_single_atom_index_entropy_prints_positive_zero(
        self, tmp_path, synth_cfg, dict_path
    ):
        one_atom = str(tmp_path / "one.json")
        save_dict(randdict(1, seed=2, sample_rate_hint=8000), one_atom)
        out = str(tmp_path / "hist.csv")
        flags = [
            "eval", "--synth", synth_cfg, "--dict", one_atom,
            "--analysis", "entropy", "--variants", "mp", "--out", out,
        ]
        assert main(flags) == EXIT_OK
        _, columns, rows = read_table(out)
        assert [r[:3] for r in rows] == [["mp", "100", "0.000000"]]  # Q = 0.05 * 2000

    def test_denoise_table(self, tmp_path, synth_cfg, dict_path):
        out = str(tmp_path / "denoise.csv")
        assert (
            main(
                [
                    "eval", "--synth", synth_cfg, "--dict", dict_path,
                    "--analysis", "denoise", "--ratios", "0.0,0.1",
                    "--variants", "omp,eomp", "--out", out,
                ]
            )
            == EXIT_OK
        )
        _, columns, rows = read_table(out)
        assert columns == ["variant", "noise_ratio", "snr_db"]
        assert [(r[0], float(r[1])) for r in rows] == [
            ("omp", 0.0), ("omp", 0.1), ("eomp", 0.0), ("eomp", 0.1),
        ]
        for row in rows:
            assert math.isfinite(float(row[2]))

    def test_psweep_grid(self, tmp_path, synth_cfg, dict_path):
        out = str(tmp_path / "psweep.csv")
        assert (
            main(
                [
                    "eval", "--synth", synth_cfg, "--dict", dict_path,
                    "--analysis", "psweep", "--p-grid", "0.02:0.02:0.06",
                    "--out", out,
                ]
            )
            == EXIT_OK
        )
        _, columns, rows = read_table(out)
        assert columns == ["variant", "p", "snr_db"]
        assert [(r[0], r[1]) for r in rows] == [
            (v, p) for v in VARIANTS for p in ("0.0200", "0.0400", "0.0600")
        ]

    @pytest.mark.parametrize(
        "grid, values",
        [
            (None, [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1]),
            ("1e-2:1e-2:3e-2", [0.01, 0.02, 0.03]),
            ("0.02:0.03:0.1", [0.02, 0.05, 0.08]),  # no step past the stop
        ],
        ids=["default", "exponents", "stop-between-steps"],
    )
    def test_p_grid_values_are_the_decimals_typed(self, grid, values):
        argv = ["eval", "--synth", "s", "--dict", "d", "--analysis", "psweep"]
        argv += ["--out", "o"] + (["--p-grid", grid] if grid else [])
        assert _parse_grid(build_parser().parse_args(argv).p_grid) == values

    def test_psweep_row_is_the_run_at_its_p(self, tmp_path, synth_cfg, dict_path):
        """The default grid's 0.07 is p = 0.07: a float step to 0.06999999999999999
        would code M*floor(pN/M) = 4*34 events, not 4*35."""
        tables = []
        for grid in ("0.01:0.01:0.10", "0.07:0.01:0.07"):
            out = str(tmp_path / "psweep.csv")
            argv = [
                "eval", "--synth", synth_cfg, "--dict", dict_path, "--analysis",
                "psweep", "--variants", "mp,emp", "--p-grid", grid, "--out", out,
            ]
            assert main(argv) == EXIT_OK
            tables.append(read_table(out)[2])
        assert [r for r in tables[0] if r[1] == "0.0700"] == tables[1]

    @pytest.mark.parametrize("analysis", ANALYSES)
    def test_every_analysis_applies_variants_and_iters(
        self, tmp_path, synth_cfg, dict_path, monkeypatch, analysis
    ):
        calls = []

        def recording_match(dictionary, x, cfg):
            calls.append((cfg.variant, cfg.p))
            return empursuit.pursuit.match(dictionary, x, cfg)

        monkeypatch.setattr(empursuit.cli, "match", recording_match)
        monkeypatch.setattr(empursuit.metrics, "match", recording_match)
        out = str(tmp_path / f"{analysis}.csv")
        argv = [
            "eval", "--synth", synth_cfg, "--dict", dict_path, "--analysis", analysis,
            "--variants", "mp,emp", "--p", "0.01", "--p-grid", "0.04:0.02:0.06",
            "--ratios", "0.1", "--out", out,
        ]
        assert main(argv) == EXIT_OK
        grid = [0.04, 0.06] if analysis == "psweep" else [0.01]
        assert calls == [(v, pytest.approx(p)) for v in ("mp", "emp") for p in grid]
        _, columns, rows = read_table(out)
        assert columns[0] == "variant"
        column = [r[0] for r in rows]
        assert column == sorted(column, key=["mp", "emp"].index)  # mp's rows first
        assert set(column) == {"mp", "emp"}
        if analysis in ("rates", "histograms"):
            # Each variant's counts add up to its M*Q = 4*floor(0.01*2000/4) events.
            duration = 2000 / 8000
            for v in ("mp", "emp"):
                if analysis == "rates":
                    total = sum(float(r[2]) for r in rows if r[0] == v) * duration
                else:
                    total = sum(int(r[3]) for r in rows if r[0] == v and r[1] == "16")
                assert total == pytest.approx(20)


class TestProfileCommand:
    def test_timing_table_shape_and_header(self, tmp_path):
        dict_path = str(tmp_path / "d.json")
        save_dict(randdict(3, seed=0, sample_rate_hint=8000), dict_path)
        out = str(tmp_path / "prof.csv")
        assert (
            main(
                [
                    "profile", "--dict", dict_path, "--windows", "256,512",
                    "--repeats", "1", "--out", out,
                ]
            )
            == EXIT_OK
        )
        header, columns, rows = read_table(out)
        assert "cpu_model" in header and "dict_digest" in header
        assert columns == ["variant", "window_len", "seconds_per_sample_per_iteration"]
        assert [(r[0], r[1]) for r in rows] == [
            (v, n) for v in ("mp", "omp", "emp", "eomp") for n in ("256", "512")
        ]
        for row in rows:
            assert float(row[2]) > 0.0


class TestRunConfigEmission:
    def test_encode_records_resolved_defaults(self, tmp_path, synth_cfg, dict_path):
        out = str(tmp_path / "sig.code")
        assert (
            main(["encode", "--synth", synth_cfg, "--dict", dict_path, "--out", out])
            == EXIT_OK
        )
        cfg = json.loads(Path(out + ".run.json").read_text())
        assert cfg["argv_command"] == "encode"
        assert cfg["variant"] == "emp"
        assert cfg["p"] == 0.05
        assert sorted(cfg) == [
            "argv_command", "command", "dict", "environment", "input", "out", "p",
            "residual", "synth", "variant",
        ]

    def test_records_environment_outside_the_digest(self, tmp_path, synth_cfg):
        out = str(tmp_path / "d.json")
        flags = [
            "learn", "--synth", synth_cfg, "--atoms", "3", "--blocks", "1",
            "--block-len", "500", "--out", out,
        ]
        assert main(flags) == EXIT_OK
        cfg = json.loads(Path(out + ".run.json").read_text())
        env = cfg.pop("environment")
        assert env["empursuit"] == empursuit.__version__
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        assert env["blas"] and env["cpu_model"]
        scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env["scipy_blas"] == f"{scipy_blas['name']} {scipy_blas['version']}"
        assert set(env["threads"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
        }
        header, _, _ = read_table(out + ".trace.csv")
        blob = json.dumps(cfg, indent=2, sort_keys=True, default=str)
        assert header["config_digest"] == hashlib.sha256(blob.encode()).hexdigest()[:16]


class TestExitCodes:
    def test_parameter_error_is_usage_exit(self, tmp_path, synth_cfg, dict_path):
        out = str(tmp_path / "x.code")
        code = main(
            [
                "encode", "--synth", synth_cfg, "--dict", dict_path,
                "--p", "1.5", "--out", out,
            ]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ["--max-atom-len", "-5"],
                "max_atom_len must be >= 70, the initial atom length, got -5",
            ),
            (["--block-len", "0"], "block_len must be positive, got 0"),
            (
                ["--block-len", "1000", "--max-atom-len", "1010"],
                "max_atom_len 1010 exceeds block_len 1000",
            ),
        ],
        ids=["max-atom-len", "block-len", "max-atom-len-above-block-len"],
    )
    def test_bad_learn_length_is_usage_exit(
        self, tmp_path, synth_cfg, capsys, flags, message
    ):
        """A zero is rejected like any other bad value, not replaced by a default."""
        out = str(tmp_path / "d.json")
        argv = ["learn", "--synth", synth_cfg, "--atoms", "3", "--blocks", "1"]
        assert main(argv + flags + ["--out", out]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)
        assert not os.path.exists(out + ".run.json")

    def test_zero_sample_rate_is_usage_exit(
        self, tmp_path, synth_cfg, dict_path, capsys
    ):
        """--sample-rate 0 is rejected, not replaced by the dictionary's rate."""
        code_path = str(tmp_path / "sig.code")
        argv = ["encode", "--synth", synth_cfg, "--dict", dict_path, "--out", code_path]
        assert main(argv) == EXIT_OK
        wav_path = str(tmp_path / "out.wav")
        argv = [
            "reconstruct", "--dict", dict_path, "--code", code_path,
            "--sample-rate", "0", "--out", wav_path,
        ]
        assert main(argv) == EXIT_USAGE
        assert "sample_rate must be positive, got 0" in capsys.readouterr().err
        assert not os.path.exists(wav_path)

    def test_zero_profile_repeats_is_usage_exit(self, tmp_path, capsys):
        out = str(tmp_path / "prof.csv")
        argv = [
            "profile", "--atoms", "2", "--atom-len", "8", "--windows", "256",
            "--repeats", "0", "--out", out,
        ]
        assert main(argv) == EXIT_USAGE
        assert "repeats must be >= 1, got 0" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["reconstruct", "--dict", "{dict}", "--code", "{code}",
                 "--sample-rate", "0"],
                "sample_rate must be positive, got 0",
            ),
            (
                ["profile", "--atoms", "2", "--atom-len", "8", "--windows", "256",
                 "--repeats", "0"],
                "repeats must be >= 1, got 0",
            ),
            (
                ["eval", "--synth", "{synth}", "--dict", "{dict}",
                 "--analysis", "psweep", "--p-grid", "0.1:0:0.05"],
                "bad grid '0.1:0:0.05'",
            ),
            (
                ["eval", "--synth", "{synth}", "--dict", "{dict}",
                 "--analysis", "psweep", "--p-grid", "0.01:1/0:0.05"],
                "grid must be start:step:stop, got '0.01:1/0:0.05'",
            ),
            (
                ["eval", "--synth", "{synth}", "--dict", "{dict}",
                 "--analysis", "entropy", "--variants", "emp,bogus"],
                "variant must be one of",
            ),
            (
                ["eval", "--synth", "{synth}", "--dict", "{dict}",
                 "--analysis", "denoise", "--ratios", "0.1,x"],
                "bad float list '0.1,x'",
            ),
            (
                ["encode", "--synth", "{synth}", "--dict", "{dict}", "--p", "0.001"],
                "quota floor(p*N/M) = 0 < 1",
            ),
            (
                ["encode", "--synth", "{synth}", "--dict", "{dict}", "--variant", "mp",
                 "--p", "0.001"],
                "quota floor(p*N/M) = 0 < 1",
            ),
            (
                ["encode", "--synth", "{synth}", "--dict", "{dict}", "--iters", "3"],
                "unrecognized arguments: --iters 3",
            ),
            (
                ["eval", "--synth", "{synth}", "--dict", "{dict}",
                 "--analysis", "entropy", "--iters", "3"],
                "unrecognized arguments: --iters 3",
            ),
            (["profile", "--windows", ","], "--windows must list lengths >= 1"),
            (["profile", "--windows", "-5"], "--windows must list lengths >= 1"),
            (["profile", "--windows", "0"], "--windows must list lengths >= 1"),
            (
                ["profile", "--windows", "100"],
                "signal of 100 samples is shorter than the longest atom (128)",
            ),
            (
                ["learn", "--synth", "{synth}", "--checkpoint-every", "1"],
                "unrecognized arguments: --checkpoint-every 1",
            ),
            (
                ["learn", "--synth", "{synth}", "--checkpoint-dir", "d"],
                "unrecognized arguments: --checkpoint-dir d",
            ),
            (
                ["eval", "--synth", "{synth}", "--dict", "{dict}",
                 "--analysis", "denoise", "--ratios", ","],
                "need one or more finite noise ratios >= 0, got []",
            ),
        ],
        ids=[
            "sample-rate-0", "repeats-0", "p-grid-step-0", "p-grid-ratio",
            "unknown-variant", "bad-ratio", "quota-below-1", "quota-below-1-mp",
            "encode-iters", "eval-iters", "windows-empty", "windows-negative",
            "windows-0", "windows-below-atom", "learn-checkpoint-every",
            "learn-checkpoint-dir", "ratios-empty",
        ],
    )
    def test_rejected_run_writes_no_output_or_run_config(
        self, tmp_path, synth_cfg, dict_path, capsys, argv, message
    ):
        code_path = str(tmp_path / "sig.code")
        argv_enc = ["encode", "--synth", synth_cfg, "--dict", dict_path]
        assert main(argv_enc + ["--out", code_path]) == EXIT_OK
        out = str(tmp_path / "out")
        fill = {"{synth}": synth_cfg, "{dict}": dict_path, "{code}": code_path}
        assert main([fill.get(a, a) for a in argv] + ["--out", out]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)
        assert not os.path.exists(out + ".run.json")

    def test_missing_dictionary_is_data_exit(self, tmp_path, synth_cfg):
        code = main(
            [
                "encode", "--synth", synth_cfg, "--dict", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "x.code"),
            ]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "rate, samples, message",
        [
            (0, [0.5] * 64, "sample_rate must be positive, got 0"),
            (8000, [0.5, float("nan")] * 32, "non-finite samples"),
        ],
        ids=["rate-0", "nan-sample"],
    )
    def test_unloadable_wav_is_data_exit(
        self, tmp_path, dict_path, capsys, rate, samples, message
    ):
        """A float WAV that parses but holds no valid signal is a data error."""
        data = np.asarray(samples, "<f4").tobytes()
        fmt = struct.pack("<HHIIHH", 3, 1, rate, 4 * rate, 4, 32)
        body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", len(data)) + data
        wav = tmp_path / "bad.wav"
        wav.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        out = str(tmp_path / "x.code")
        argv = ["encode", "--input", str(wav), "--dict", dict_path, "--out", out]
        assert main(argv) == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not os.path.exists(out) and not os.path.exists(out + ".run.json")

    @pytest.mark.parametrize("flag", ["--dict", "--synth"])
    def test_non_utf8_json_input_is_data_exit(
        self, tmp_path, synth_cfg, dict_path, capsys, flag
    ):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        inputs = {"--synth": synth_cfg, "--dict": dict_path, flag: str(bad)}
        out = str(tmp_path / "x.code")
        argv = ["encode", *(a for kv in inputs.items() for a in kv), "--out", out]
        assert main(argv) == EXIT_DATA
        assert "codec can't decode" in capsys.readouterr().err
        assert not os.path.exists(out) and not os.path.exists(out + ".run.json")

    def test_unparseable_synth_config_is_data_exit(self, tmp_path, dict_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(
            [
                "encode", "--synth", str(bad), "--dict", dict_path,
                "--out", str(tmp_path / "x.code"),
            ]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "cfg",
        [
            {"atoms": {"length": 10}},
            {"placements": {}},
            {"atoms": [1, 2]},
            {"placements": {"kind": "explicit", "events": [[7, 0, 1.0]]}},
            {"placements": {"kind": "explicit", "events": [[-1, 0, 1.0]]}},
            {"placements": {"kind": "explicit", "events": [[0, 1999, 1.0]]}},
            {"atoms": {"kind": "explicit", "waveforms": [[0.0, 0.0]]}},
            {"placements": {"rate": float("nan")}},
            {"noise_sigma": -0.1},
            {"noise_sigma": float("nan")},
            {"sample_rate": 16000.5},
            {"sample_rate": True},
            {"length": 2000.7},
            {"length": "2000"},
            {"seed": 1.5},
            {"atoms": {"count": 3.9, "length": 10}},
            {"placements": {"kind": "explicit", "events": [[0.9, 5, 1.0]]}},
            {"placements": {"kind": "explicit", "events": [[0, 5.5, 1.0]]}},
        ],
        ids=[
            "no-count", "no-rate", "atoms-list", "event-atom-7", "event-atom-negative",
            "event-past-end", "zero-waveform", "nan-rate", "negative-noise", "nan-noise",
            "rate-fraction", "rate-bool", "length-fraction", "length-string",
            "seed-fraction", "count-fraction", "event-atom-fraction",
            "event-offset-fraction",
        ],
    )
    def test_malformed_synth_config_is_data_exit(
        self, tmp_path, dict_path, capsys, cfg
    ):
        base = {
            "length": 2000, "sample_rate": 8000,
            "atoms": {"kind": "explicit", "waveforms": [[1.0, 0.5]]},
            "placements": {"rate": 0.01},
        }
        synth = write_json(tmp_path / "bad.json", {**base, **cfg})
        out = str(tmp_path / "x.code")
        argv = ["encode", "--synth", synth, "--dict", dict_path, "--out", out]
        assert main(argv) == EXIT_DATA
        assert "bad synthetic-signal config" in capsys.readouterr().err
        assert not os.path.exists(out) and not os.path.exists(out + ".run.json")

    @pytest.mark.parametrize(
        "header",
        [
            {"m": None},
            {"m": "x"},
            {"m": 0},
            {"sample_rate_hint": -5},
            {"sample_rate_hint": "abc"},
            {"sample_rate_hint": 0},
        ],
        ids=["no-m", "m-text", "m-0", "rate-negative", "rate-text", "rate-0"],
    )
    def test_bad_dictionary_header_is_data_exit(
        self, tmp_path, synth_cfg, header
    ):
        doc = {
            "format": "empursuit-dict", "format_version": 1, "m": 1,
            "sample_rate_hint": 8000, "pad_len": 10, "provenance": "",
            "atoms": [[1.0, 0.0]], **header,
        }
        doc = {k: v for k, v in doc.items() if v is not None}
        out = str(tmp_path / "x.code")
        argv = [
            "encode", "--synth", synth_cfg,
            "--dict", write_json(tmp_path / "d.json", doc), "--out", out,
        ]
        assert main(argv) == EXIT_DATA
        assert not os.path.exists(out) and not os.path.exists(out + ".run.json")

    def test_malformed_code_header_is_data_exit(self, tmp_path, dict_path):
        bad = tmp_path / "bad.code"
        bad.write_text("#format=empursuit-code\n#format_version=1\n#window_len=64\n#p=a\n")
        code = main(
            [
                "reconstruct", "--dict", dict_path, "--code", str(bad),
                "--out", str(tmp_path / "x.wav"),
            ]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "line",
        [
            "#p=nan", "#p=7", "#variant=zzz", "#sample_rate=-3", "0 600 0.5",
            "#window_len=100000000000000",
        ],
    )
    def test_invalid_code_is_data_exit(self, tmp_path, dict_path, line):
        bad = tmp_path / "bad.code"
        header = "#format=empursuit-code\n#format_version=1\n#window_len=64\n"
        bad.write_text(f"{header}{line}\n")
        code = main(
            [
                "reconstruct", "--dict", dict_path, "--code", str(bad),
                "--out", str(tmp_path / "x.wav"),
            ]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "event, message",
        [("0 40 0.5", "offset 40"), ("7 0 0.5", "atom 7")],
        ids=["overruns-window", "atom-past-dictionary"],
    )
    def test_event_that_cannot_be_placed_is_usage_exit(
        self, tmp_path, dict_path, capsys, event, message
    ):
        """A code without a digest is checked event by event against the dictionary."""
        bad = tmp_path / "bad.code"
        header = "#format=empursuit-code\n#format_version=1\n#window_len=100\n"
        bad.write_text(f"{header}{event}\n")
        wav_path = str(tmp_path / "x.wav")
        argv = ["reconstruct", "--dict", dict_path, "--code", str(bad)]
        assert main(argv + ["--out", wav_path]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
        assert not os.path.exists(wav_path)
        assert not os.path.exists(wav_path + ".run.json")

    def test_non_unit_norm_dictionary_is_data_exit(self, tmp_path, synth_cfg):
        doc = {
            "format": "empursuit-dict", "format_version": 1, "m": 1,
            "sample_rate_hint": 8000, "pad_len": 10, "provenance": "",
            "atoms": [[2.0, 0.0]],
        }
        code = main(
            [
                "encode", "--synth", synth_cfg,
                "--dict", write_json(tmp_path / "d.json", doc),
                "--out", str(tmp_path / "x.code"),
            ]
        )
        assert code == EXIT_DATA

    def test_degenerate_noise_scaling_is_numeric_exit(
        self, tmp_path, zero_cfg, dict_path
    ):
        code = main(
            [
                "eval", "--synth", zero_cfg, "--dict", dict_path,
                "--analysis", "denoise", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize(
        "argv",
        [
            ["learn", "--synth", "{synth}", "--atoms", "3", "--blocks", "1",
             "--block-len", "1000", "--trace", "{synth}", "--out", "{tmp}/d.json"],
            ["encode", "--synth", "{synth}", "--dict", "{dict}", "--residual", "{dict}",
             "--out", "{tmp}/y.code"],
            ["reconstruct", "--dict", "{dict}", "--code", "{code}", "--out", "{code}"],
            ["eval", "--synth", "{synth}", "--dict", "{dict}", "--analysis", "entropy",
             "--out", "{synth}"],
            ["profile", "--dict", "{dict}", "--windows", "256", "--repeats", "1",
             "--out", "{dict}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_output_naming_an_input_rejected(
        self, tmp_path, synth_cfg, dict_path, capsys, argv
    ):
        """No output, and no run config, replaces an input's bytes."""
        code_path = str(tmp_path / "sig.code")
        argv_enc = ["encode", "--synth", synth_cfg, "--dict", dict_path]
        assert main(argv_enc + ["--out", code_path]) == EXIT_OK
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        fill = {
            "{synth}": synth_cfg, "{dict}": dict_path, "{code}": code_path,
            "{tmp}": str(tmp_path),
        }
        for key, value in fill.items():
            argv = [a.replace(key, value) for a in argv]
        assert main(argv) == EXIT_USAGE
        assert "would overwrite the input" in capsys.readouterr().err
        after = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        assert after == before

    def test_output_under_a_file_is_data_exit_before_any_pursuit(
        self, tmp_path, synth_cfg, dict_path, monkeypatch, capsys
    ):
        def no_match(*args):
            raise AssertionError("a pursuit ran")

        monkeypatch.setattr(empursuit.cli, "match", no_match)
        out = os.path.join(synth_cfg, "x.code")
        argv = ["encode", "--synth", synth_cfg, "--dict", dict_path, "--out", out]
        assert main(argv) == EXIT_DATA
        assert "no directory to write" in capsys.readouterr().err

    def test_failed_write_is_data_exit(
        self, tmp_path, synth_cfg, dict_path, monkeypatch, capsys
    ):
        def disk_full(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(empursuit.cli, "save_code", disk_full)
        out = str(tmp_path / "x.code")
        argv = ["encode", "--synth", synth_cfg, "--dict", dict_path, "--out", out]
        assert main(argv) == EXIT_DATA
        assert "No space left on device" in capsys.readouterr().err
        assert not os.path.exists(out + ".run.json")

    def test_out_of_memory_is_data_exit(
        self, tmp_path, synth_cfg, dict_path, monkeypatch, capsys
    ):
        """A code whose window is too long to allocate is a data error."""
        code_path = str(tmp_path / "sig.code")
        argv = ["encode", "--synth", synth_cfg, "--dict", dict_path, "--out", code_path]
        assert main(argv) == EXIT_OK

        def no_memory(*args):
            raise MemoryError("Unable to allocate 8.20 GiB")

        monkeypatch.setattr(empursuit.cli, "reconstruct", no_memory)
        out = str(tmp_path / "x.wav")
        argv = ["reconstruct", "--dict", dict_path, "--code", code_path, "--out", out]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == "error: Unable to allocate 8.20 GiB\n"
        assert not os.path.exists(out) and not os.path.exists(out + ".run.json")

    def test_unknown_command_is_usage_exit(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()


class TestStartup:
    def test_cli_import_skips_scipy_array_api_layer(self):
        # Importing scipy.linalg or scipy.io runs scipy's array-API layer,
        # about 0.3 s and 22 MB of every CLI process.
        layer = [
            "scipy.linalg", "scipy.io", "scipy._lib._array_api", "numpy.f2py",
            "numpy.testing",
        ]
        src = os.path.dirname(os.path.dirname(empursuit.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, empursuit.cli; "
            f"print(sorted(set({layer!r}) & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip() == "[]"
