"""Command-line surface: learn, encode, reconstruct, eval, profile."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy

import empursuit
from empursuit.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from empursuit.dictionary import load_dict, randdict, save_dict
from empursuit.pursuit import PursuitConfig, load_code, reconstruct
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


class TestEvalCommand:
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

    def test_rates_table(self, tmp_path, synth_cfg, dict_path):
        out = str(tmp_path / "rates.csv")
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
        assert columns == ["atom_index", "events_per_second"]
        assert len(rows) == 4
        values = [float(r[1]) for r in rows]
        assert values == sorted(values, reverse=True)

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
        assert columns == ["bins", "bin_index", "count"]
        assert len(rows) == 16 + 32 + 64
        assert "coeff_entropy_16" in header and "index_entropy_bits" in header

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
        assert columns == ["p", "snr_db"]
        assert [r[0] for r in rows] == ["0.0200", "0.0400", "0.0600"]


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
        assert cfg["iters"] is None

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

    def test_missing_dictionary_is_data_exit(self, tmp_path, synth_cfg):
        code = main(
            [
                "encode", "--synth", synth_cfg, "--dict", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "x.code"),
            ]
        )
        assert code == EXIT_DATA

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

    def test_unknown_command_is_usage_exit(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()
