"""Signal container, WAV round-trips, block source, noise, and SNR."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from empursuit.errors import DataFormatError, DegenerateSignalError
from empursuit.signal_io import (
    Signal,
    add_noise,
    build_synth_signal,
    load_wav,
    next_block,
    save_wav,
    snr_db,
    synth_signal,
)


class TestSignal:
    def test_basic_fields(self):
        sig = Signal(np.zeros(10), 8000)
        assert len(sig) == 10
        assert sig.sample_rate == 8000

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Signal(np.array([]), 8000)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Signal(np.array([1.0, np.nan]), 8000)

    def test_rejects_bad_rate(self):
        """A rate must be a whole number >= 1: save_wav packs it as an int."""
        for rate in (0, -8000, 16000.5, float("nan"), float("inf"), True, "abc"):
            with pytest.raises(ValueError):
                Signal(np.zeros(4), rate)

    @pytest.mark.parametrize(
        "rate",
        [16000.0, np.float64(16000.0), np.int64(16000)],
        ids=["float", "numpy float", "numpy int"],
    )
    def test_whole_rate_is_stored_as_int(self, rate):
        sig = Signal(np.zeros(4), rate)
        assert type(sig.sample_rate) is int and sig.sample_rate == 16000

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Signal(np.zeros((4, 2)), 8000)


class TestWavIO:
    def test_unknown_encoding_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        with pytest.raises(ValueError, match="unknown encoding 'pcm8'"):
            save_wav(Signal(np.zeros(10), 8000), path, encoding="pcm8")
        assert not path.exists()

    def test_float32_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        sig = Signal(rng.uniform(-0.9, 0.9, 500), 44100)
        path = tmp_path / "x.wav"
        save_wav(sig, path, encoding="float32")
        back = load_wav(path)
        assert back.sample_rate == 44100
        np.testing.assert_allclose(back.samples, sig.samples, atol=1e-7)

    def test_pcm16_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        sig = Signal(rng.uniform(-0.9, 0.9, 500), 48000)
        path = tmp_path / "x.wav"
        save_wav(sig, path, encoding="pcm16")
        back = load_wav(path)
        np.testing.assert_allclose(back.samples, sig.samples, atol=1.1 / 32768)

    def test_pcm24_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        sig = Signal(rng.uniform(-0.9, 0.9, 500), 16000)
        path = tmp_path / "x.wav"
        save_wav(sig, path, encoding="pcm24")
        back = load_wav(path)
        np.testing.assert_allclose(back.samples, sig.samples, atol=1.1 / 8388608)

    def test_pcm16_full_scale_convention(self, tmp_path):
        # a full-scale positive 16-bit sample maps to 32767/32768
        import scipy.io.wavfile as wavfile

        path = tmp_path / "fs.wav"
        wavfile.write(path, 8000, np.array([32767, -32768], dtype=np.int16))
        sig = load_wav(path)
        assert sig.samples[0] == pytest.approx(32767 / 32768)
        assert sig.samples[1] == pytest.approx(-1.0)

    def test_stereo_silence_downmix(self, tmp_path):
        import scipy.io.wavfile as wavfile

        path = tmp_path / "st.wav"
        wavfile.write(path, 48000, np.zeros((48000, 2), dtype=np.int16))
        sig = load_wav(path)
        assert len(sig) == 48000
        assert np.all(sig.samples == 0.0)

    def test_stereo_downmix_is_channel_mean(self, tmp_path):
        import scipy.io.wavfile as wavfile

        path = tmp_path / "st.wav"
        left = np.full(100, 0.5, dtype=np.float32)
        right = np.full(100, -0.25, dtype=np.float32)
        wavfile.write(path, 8000, np.stack([left, right], axis=1))
        sig = load_wav(path)
        np.testing.assert_allclose(sig.samples, 0.125, atol=1e-7)

    def test_load_twice_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        sig = Signal(rng.uniform(-1, 1, 200), 8000)
        path = tmp_path / "x.wav"
        save_wav(sig, path, encoding="pcm16")
        a = load_wav(path)
        b = load_wav(path)
        assert np.array_equal(a.samples, b.samples)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not audio")
        with pytest.raises(DataFormatError):
            load_wav(path)


def wav_image(chunks: list[tuple[bytes, bytes]], order: str = "<") -> bytes:
    """A RIFF (or, big-endian, RIFX) WAVE file of (id, body) chunks, padded."""
    body = b"WAVE"
    for chunk_id, data in chunks:
        body += chunk_id + struct.pack(order + "I", len(data)) + data
        body += b"\x00" * (len(data) % 2)
    magic = b"RIFF" if order == "<" else b"RIFX"
    return magic + struct.pack(order + "I", len(body)) + body


def fmt_chunk(tag, channels, width, bits, order="<", rate=8000, ext=b""):
    data = struct.pack(
        order + "HHIIHH", tag, channels, rate, rate * channels * width,
        channels * width, bits,
    )
    return (b"fmt ", data + ext)


def pcm24_bytes(q: np.ndarray, order: str = "<") -> bytes:
    """Interleaved 3-byte samples of int32 values in the 24-bit range."""
    raw = q.astype(order + "i4").view(np.uint8).reshape(-1, 4)
    return (raw[:, :3] if order == "<" else raw[:, 1:]).tobytes()


def extensible(subformat: int, valid_bits: int, order: str = "<") -> bytes:
    """cbSize, valid bits, channel mask and subformat GUID of an extensible fmt."""
    # The GUID's first three fields follow the file's byte order.
    guid = struct.pack(order + "IHH", subformat, 0, 0x10) + bytes.fromhex(
        "80 00 00 aa 00 38 9b 71"
    )
    return struct.pack(order + "HHI", 22, valid_bits, 3) + guid


def scipy_samples(path) -> tuple[int, np.ndarray]:
    """What load_wav returned when it decoded through scipy.io.wavfile."""
    rate, data = wavfile.read(path)
    if data.dtype.kind == "f":
        samples = data.astype(np.float64)
    else:  # 24-bit arrives left-justified in int32
        samples = data.astype(np.float64) / 2.0 ** (8 * data.dtype.itemsize - 1)
    return rate, samples.mean(axis=1) if samples.ndim == 2 else samples


class TestWavScipyCompatibility:
    @pytest.mark.parametrize(
        "dtype, channels",
        [
            ("int16", 1), ("int32", 1), ("float32", 1), ("float64", 1),
            ("int16", 2), ("float32", 3),
        ],
    )
    def test_files_scipy_writes_load_as_before(self, tmp_path, dtype, channels):
        rng = np.random.default_rng(20)
        if np.dtype(dtype).kind == "f":
            data = rng.uniform(-1, 1, (301, channels)).astype(dtype)
        else:
            info = np.iinfo(dtype)
            data = rng.integers(info.min, info.max, (301, channels), endpoint=True)
            data = data.astype(dtype)
        path = tmp_path / "x.wav"
        wavfile.write(path, 22050, data[:, 0] if channels == 1 else data)
        rate, expected = scipy_samples(path)
        sig = load_wav(path)
        assert sig.sample_rate == rate == 22050
        np.testing.assert_array_equal(sig.samples, expected)

    @pytest.mark.parametrize(
        "name, chunks",
        [
            (
                "24-bit stereo",
                [
                    fmt_chunk(1, 2, 3, 24),
                    (b"data", pcm24_bytes(np.arange(-300, 300) * 13_001)),
                ],
            ),
            (
                "extensible 16-bit stereo",
                [
                    fmt_chunk(0xFFFE, 2, 2, 16, ext=extensible(1, 16)),
                    (b"data", (np.arange(-200, 200) * 97).astype("<i2").tobytes()),
                ],
            ),
            (
                "extensible float32",
                [
                    fmt_chunk(0xFFFE, 1, 4, 32, ext=extensible(3, 32)),
                    (b"data", np.linspace(-1, 1, 99).astype("<f4").tobytes()),
                ],
            ),
            (
                "odd-size LIST chunk before data",
                [
                    fmt_chunk(1, 1, 2, 16),
                    (b"LIST", b"INFOodd"),
                    (b"data", (np.arange(-50, 50) * 311).astype("<i2").tobytes()),
                ],
            ),
            (
                "odd-size 24-bit data before a LIST chunk",
                [
                    fmt_chunk(1, 1, 3, 24),
                    (b"data", pcm24_bytes(np.arange(-7, 8) * 500_001)),
                    (b"LIST", b"INFO"),
                ],
            ),
        ],
    )
    def test_other_layouts_load_as_scipy_reads_them(self, tmp_path, name, chunks):
        path = tmp_path / "x.wav"
        path.write_bytes(wav_image(chunks))
        rate, expected = scipy_samples(path)
        sig = load_wav(path)
        assert sig.sample_rate == rate
        np.testing.assert_array_equal(sig.samples, expected)

    @pytest.mark.parametrize("tag", [1, 0xFFFE])
    def test_big_endian_rifx_loads_like_riff(self, tmp_path, tag):
        q = np.arange(-300, 300) * 13_001
        loaded = []
        for order in "<>":
            path = tmp_path / f"{'riff' if order == '<' else 'rifx'}.wav"
            ext = extensible(1, 24, order) if tag == 0xFFFE else b""
            chunks = [
                fmt_chunk(tag, 2, 3, 24, order, ext=ext),
                (b"data", pcm24_bytes(q, order)),
            ]
            path.write_bytes(wav_image(chunks, order))
            loaded.append(load_wav(path).samples)
            np.testing.assert_array_equal(loaded[-1], scipy_samples(path)[1])
        np.testing.assert_array_equal(loaded[0], loaded[1])

    @pytest.mark.parametrize("encoding", ["float32", "pcm16", "pcm24"])
    def test_save_wav_reads_back_in_scipy(self, tmp_path, encoding):
        rng = np.random.default_rng(21)
        x = rng.uniform(-1.1, 1.1, 1001)
        path = tmp_path / "x.wav"
        save_wav(Signal(x, 12000), path, encoding=encoding)
        rate, data = wavfile.read(path)
        assert rate == 12000
        if encoding == "float32":
            expected = x.astype(np.float32)
        elif encoding == "pcm16":
            expected = np.clip(np.rint(x * 32768), -32768, 32767).astype(np.int16)
        else:  # scipy returns 24-bit samples left-justified in int32
            q = np.clip(np.rint(x * 8388608), -8388608, 8388607).astype(np.int32)
            expected = q << 8
        assert data.dtype == expected.dtype
        np.testing.assert_array_equal(data, expected)

    @pytest.mark.parametrize(
        "image",
        [
            pytest.param(b"RIFF\x24\x00\x00\x00WAVEfmt \x10", id="truncated header"),
            pytest.param(wav_image([(b"data", b"\x00\x00")]), id="no fmt chunk"),
            pytest.param(wav_image([fmt_chunk(1, 1, 2, 16)]), id="no data chunk"),
            pytest.param(
                wav_image([fmt_chunk(1, 1, 1, 8), (b"data", bytes(range(64)))]),
                id="8-bit PCM",
            ),
            pytest.param(
                wav_image(
                    [fmt_chunk(3, 1, 4, 32, rate=0), (b"data", bytes(4 * 8))]
                ),
                id="float sample rate 0",
            ),
            pytest.param(
                wav_image(
                    [
                        fmt_chunk(3, 1, 4, 32),
                        (b"data", np.array([0.5, np.nan], "<f4").tobytes()),
                    ]
                ),
                id="float NaN sample",
            ),
            pytest.param(
                wav_image(
                    [
                        fmt_chunk(3, 1, 4, 32),
                        (b"data", np.array([0x3F000000, 0x7FA00000], "<u4").tobytes()),
                    ]
                ),
                id="float signalling NaN sample",
            ),
            pytest.param(
                # Frames of three PCM16 samples and two pad bytes: a block
                # align of 8 does not split into 3 channels.
                wav_image(
                    [
                        (b"fmt ", struct.pack("<HHIIHH", 1, 3, 8000, 64000, 8, 16)),
                        (b"data", np.array(
                            [[1, 2, 3, 0], [4, 5, 6, 0], [7, 8, 9, 0], [10, 11, 12, 0]],
                            "<i2",
                        ).tobytes()),
                    ]
                ),
                id="block align not divisible by channels",
            ),
            pytest.param(
                wav_image([(b"fmt ", bytes(14)), (b"data", b"\x00\x00")]),
                id="fmt chunk under 16 bytes",
            ),
            pytest.param(
                wav_image([fmt_chunk(1, 1, 2, 16), (b"data", b"")]),
                id="data chunk with no frames",
            ),
        ],
    )
    def test_bad_files_are_data_errors(self, tmp_path, image):
        path = tmp_path / "bad.wav"
        path.write_bytes(image)
        with pytest.raises(DataFormatError):
            load_wav(path)


class TestSynthSignal:
    def test_empty_placements_zero_signal(self):
        sig = synth_signal([np.array([1.0])], [], 100)
        assert np.all(sig.samples == 0.0)
        assert len(sig) == 100

    def test_delta_atom_placement(self):
        atom = np.zeros(5)
        atom[0] = 1.0
        sig = synth_signal([atom], [(0, 5, 2.0)], 20)
        expected = np.zeros(20)
        expected[5] = 2.0
        np.testing.assert_array_equal(sig.samples, expected)

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(11)
        atoms = [rng.standard_normal(L) for L in (4, 7, 9)]
        length = 300
        placements = []
        for _ in range(50):
            i = int(rng.integers(0, 3))
            off = int(rng.integers(0, length - len(atoms[i]) + 1))
            placements.append((i, off, float(rng.normal())))
        sig = synth_signal(atoms, placements, length)
        oracle = np.zeros(length)
        for i, off, amp in placements:
            for s, v in enumerate(atoms[i]):
                oracle[off + s] += amp * v
        np.testing.assert_array_equal(sig.samples, oracle)

    def test_out_of_bounds_placement(self):
        with pytest.raises(ValueError):
            synth_signal([np.ones(5)], [(0, 98, 1.0)], 100)

    @pytest.mark.parametrize("idx", [-1, 2])
    def test_atom_index_outside_the_waveforms_rejected(self, idx):
        """-1 would otherwise place the last atom; 2 would raise IndexError."""
        with pytest.raises(ValueError, match=f"atom {idx} of 2"):
            synth_signal([np.ones(5), np.ones(3)], [(idx, 0, 1.0)], 100)


class TestNextBlock:
    """Training blocks drawn by next_block."""

    def test_deterministic_sequence(self):
        rng = np.random.default_rng(5)
        sig = Signal(rng.standard_normal(1000), 8000)
        for step in range(10):
            a = next_block(sig, 64, 7, step)
            b = next_block(sig, 64, 7, step)
            assert np.array_equal(a.samples, b.samples)

    def test_start_drawn_from_seed_and_step(self):
        """The block start formula, pinned so that learned outputs cannot drift."""
        rng = np.random.default_rng(9)
        sig = Signal(rng.standard_normal(1000), 8000)
        for seed, step in ((0, 0), (7, 3), (123, 40)):
            start = int(np.random.default_rng((seed, step)).integers(0, 1000 - 64 + 1))
            block = next_block(sig, 64, seed, step)
            assert np.array_equal(block.samples, sig.samples[start : start + 64])
            assert block.sample_rate == 8000

    def test_five_second_blocks_at_44100(self):
        sig = Signal(np.zeros(44100 * 6), 44100)
        block = next_block(sig, 220500, 0, 0)
        assert len(block) == 220500


class TestAddNoise:
    def test_ratio_zero_identical(self):
        sig = Signal(np.sin(np.arange(100)), 8000)
        out = add_noise(sig, 0.0)
        assert np.array_equal(out.samples, sig.samples)

    def test_noise_std_tracks_ratio(self):
        rng = np.random.default_rng(10)
        sig = Signal(rng.standard_normal(100_000), 8000)
        out = add_noise(sig, 0.1, seed=4)
        delta = out.samples - sig.samples
        assert np.std(delta) == pytest.approx(0.1 * np.std(sig.samples), rel=0.05)

    def test_constant_signal_rejected(self):
        sig = Signal(np.full(100, 3.0), 8000)
        with pytest.raises(DegenerateSignalError):
            add_noise(sig, 0.1)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError, match="sigma_ratio must be >= 0"):
            add_noise(Signal(np.sin(np.arange(100)), 8000), -0.1)

    def test_snr_degrades_with_ratio(self):
        rng = np.random.default_rng(12)
        sig = Signal(rng.standard_normal(20_000), 8000)
        snrs = []
        for ratio in (0.05, 0.1, 0.2, 0.4):
            out = add_noise(sig, ratio, seed=1)
            snrs.append(snr_db(sig.samples, out.samples))
        assert all(a > b for a, b in zip(snrs, snrs[1:]))


class TestSnrDb:
    def test_perfect_estimate_is_infinite(self):
        x = np.array([1.0, 2.0])
        assert snr_db(x, x) == math.inf

    def test_zero_estimate_is_zero_db(self):
        x = np.array([0.3, -1.2, 4.0])
        assert snr_db(x, np.zeros(3)) == pytest.approx(0.0)

    def test_hand_computed_20db(self):
        assert snr_db(np.array([1.0, 0.0]), np.array([0.9, 0.0])) == pytest.approx(20.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(DegenerateSignalError):
            snr_db(np.zeros(5), np.ones(5))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            snr_db(np.ones(4), np.ones(5))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(64)
        e = x + rng.standard_normal(64) * 0.1
        base = snr_db(x, e)
        scaled = snr_db(3.0 * x, 3.0 * e)
        assert scaled == pytest.approx(base, rel=1e-9)


class TestBuildSynthSignal:
    def test_gaussian_atoms_unit_norm(self):
        cfg = {
            "length": 2000,
            "sample_rate": 8000,
            "seed": 3,
            "atoms": {"kind": "gaussian", "count": 3, "length": 12},
            "placements": {"kind": "poisson", "rate": 0.01},
        }
        sig, hidden = build_synth_signal(cfg)
        assert len(sig) == 2000
        assert len(hidden) == 3
        for w in hidden:
            assert np.linalg.norm(w) == pytest.approx(1.0)

    def test_explicit_everything(self):
        cfg = {
            "length": 30,
            "sample_rate": 100,
            "atoms": {"kind": "explicit", "waveforms": [[2.0, 0.0]]},
            "placements": {"kind": "explicit", "events": [[0, 4, 3.0]]},
        }
        sig, hidden = build_synth_signal(cfg)
        expected = np.zeros(30)
        expected[4] = 3.0  # explicit atoms are normalized before placement
        np.testing.assert_allclose(sig.samples, expected)

    def test_deterministic(self):
        cfg = {
            "length": 500,
            "sample_rate": 8000,
            "seed": 9,
            "atoms": {"kind": "gaussian", "count": 2, "length": 8},
            "placements": {"kind": "poisson", "rate": 0.02},
            "noise_sigma": 0.05,
        }
        a, _ = build_synth_signal(cfg)
        b, _ = build_synth_signal(cfg)
        assert np.array_equal(a.samples, b.samples)

    def test_whole_float_values_accepted(self):
        """JSON may spell a whole number as a float; only a fraction is rejected."""
        cfg = {
            "length": 2000.0, "sample_rate": 8000.0, "seed": 1.0,
            "atoms": {"count": 2.0, "length": 10.0},
            "placements": {"kind": "explicit", "events": [[1.0, 5.0, 1.0]]},
        }
        sig, hidden = build_synth_signal(cfg)
        assert (len(sig), sig.sample_rate, len(hidden)) == (2000, 8000, 2)
        assert type(sig.sample_rate) is int

    def test_missing_keys_rejected(self):
        with pytest.raises(DataFormatError):
            build_synth_signal({"length": 100})

    def test_negative_atom_count_rejected_and_zero_kept(self):
        cfg = {
            "length": 200, "noise_sigma": 0.1,
            "atoms": {"count": -3, "length": 10}, "placements": {"rate": 0.01},
        }
        with pytest.raises(DataFormatError, match="atoms count"):
            build_synth_signal(cfg)
        cfg["atoms"]["count"] = 0
        sig, hidden = build_synth_signal(cfg)
        assert hidden == [] and len(sig) == 200 and np.any(sig.samples != 0)

    @pytest.mark.parametrize(
        "atoms, placements, message",
        [
            ({"kind": "sine"}, {"rate": 0.01}, "unknown atoms kind 'sine'"),
            (
                {"count": 1, "length": 4}, {"kind": "grid"},
                "unknown placements kind 'grid'",
            ),
            (
                {"count": 1, "length": 40}, {"rate": 0.01},
                "hidden atom longer than the signal",
            ),
        ],
        ids=["atoms-kind", "placements-kind", "atom-longer-than-signal"],
    )
    def test_bad_source_rejected(self, atoms, placements, message):
        cfg = {"length": 30, "atoms": atoms, "placements": placements}
        with pytest.raises(DataFormatError, match=message):
            build_synth_signal(cfg)

    @pytest.mark.parametrize("idx", [-1, 1])
    def test_explicit_event_on_missing_atom_rejected(self, idx):
        cfg = {
            "length": 30,
            "atoms": {"kind": "explicit", "waveforms": [[2.0, 0.0]]},
            "placements": {"kind": "explicit", "events": [[idx, 4, 3.0]]},
        }
        with pytest.raises(DataFormatError, match=f"atom {idx} of 1"):
            build_synth_signal(cfg)
