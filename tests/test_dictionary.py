"""Atom/dictionary construction, tail growth, and serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empursuit.dictionary import (
    INIT_BODY_LEN,
    TAIL_LEN,
    Atom,
    Dictionary,
    dict_digest,
    extnorm,
    load_dict,
    randdict,
    save_dict,
)
from empursuit.errors import DataFormatError, ZeroAtomError


class TestAtom:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Atom(np.array([1.0, np.inf]))

    def test_equality_by_value(self):
        a = Atom(np.array([1.0, 2.0]))
        b = Atom(np.array([1.0, 2.0]))
        c = Atom(np.array([1.0, 2.5]))
        assert a == b
        assert a != c

    def test_pad_len_is_fixed_at_tail_len(self):
        """Rebuilding an atom with its own pad_len works; any other pad is refused."""
        a = Atom(np.full(4, 0.5))
        assert a.pad_len == TAIL_LEN
        assert Atom(2.0 * a.waveform, pad_len=a.pad_len) == Atom(np.ones(4))
        with pytest.raises(ValueError, match="pad_len"):
            Atom(a.waveform, pad_len=2)


class TestRanddict:
    def test_paper_shape(self):
        d = randdict(32, seed=0)
        assert len(d.atoms) == 32
        for atom in d.atoms:
            assert len(atom.waveform) == INIT_BODY_LEN + 2 * TAIL_LEN == 70

    def test_tails_are_zero(self):
        d = randdict(4, seed=1)
        for atom in d.atoms:
            assert np.all(atom.waveform[:TAIL_LEN] == 0.0)
            assert np.all(atom.waveform[-TAIL_LEN:] == 0.0)

    def test_unit_norm(self):
        d = randdict(8, seed=2)
        for atom in d.atoms:
            assert np.linalg.norm(atom.waveform) == pytest.approx(1.0, abs=1e-12)

    def test_same_seed_bitwise_identical(self):
        a = randdict(6, seed=42)
        b = randdict(6, seed=42)
        assert a == b
        for x, y in zip(a.atoms, b.atoms):
            assert np.array_equal(x.waveform, y.waveform)

    def test_different_seeds_differ(self):
        assert randdict(2, seed=0) != randdict(2, seed=1)

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            randdict(0, seed=0)


class TestExtnorm:
    def test_quiet_tails_only_renormalizes(self):
        w = np.zeros(70)
        w[30:40] = np.linspace(1.0, 2.0, 10)
        atom = Atom(w)
        out = extnorm(atom)
        assert len(out.waveform) == 70
        assert np.linalg.norm(out.waveform) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out.waveform, w / np.linalg.norm(w))

    def test_loud_left_tail_grows_left(self):
        # left tail RMS 0.2 trips the 0.1 threshold; right tail stays silent
        w = np.zeros(70)
        w[:10] = 0.2
        w[10:60] = np.sqrt((70 * 1.0 - 10 * 0.04) / 50)  # atom RMS exactly 1
        atom = Atom(w)
        out = extnorm(atom)
        assert len(out.waveform) == 80
        assert np.all(out.waveform[:10] == 0.0)
        # original left tail now sits after the fresh zeros
        np.testing.assert_allclose(
            out.waveform[10:20], w[:10] / np.linalg.norm(w), atol=1e-15
        )

    def test_loud_both_tails_grow_both(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(70)
        atom = Atom(w)  # Gaussian everywhere: both tails are loud
        out = extnorm(atom)
        assert len(out.waveform) == 90
        assert np.all(out.waveform[:10] == 0.0)
        assert np.all(out.waveform[-10:] == 0.0)

    def test_idempotent_once_quiet(self):
        rng = np.random.default_rng(4)
        atom = Atom(rng.standard_normal(70))
        once = extnorm(atom)
        twice = extnorm(once)
        assert len(twice.waveform) == len(once.waveform)
        np.testing.assert_allclose(twice.waveform, once.waveform, atol=1e-15)

    def test_respects_max_len(self):
        rng = np.random.default_rng(5)
        atom = Atom(rng.standard_normal(70))
        out = extnorm(atom, max_len=75)
        assert len(out.waveform) == 70  # growing by 10 would exceed the cap
        out = extnorm(atom, max_len=80)
        assert len(out.waveform) == 80  # room for one side only

    def test_zero_atom_signals(self):
        with pytest.raises(ZeroAtomError):
            extnorm(Atom(np.zeros(70)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_tail_rms_contract(self, seed):
        # after extnorm, tails are quiet or the cap was hit
        rng = np.random.default_rng(seed)
        length = int(rng.integers(21, 90))
        atom = Atom(rng.standard_normal(length))
        max_len = int(rng.integers(length, length + 40))
        out = extnorm(atom, max_len=max_len)
        w = out.waveform
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        atom_rms = float(np.sqrt(np.mean(w**2)))
        for tail in (w[:TAIL_LEN], w[-TAIL_LEN:]):
            tail_rms = float(np.sqrt(np.mean(tail**2)))
            grown = len(w) + TAIL_LEN > max_len
            assert tail_rms <= 0.1 * atom_rms + 1e-12 or grown


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        d = randdict(5, seed=7, sample_rate_hint=44100)
        path = tmp_path / "d.json"
        save_dict(d, path)
        back = load_dict(path)
        assert back == d
        for a, b in zip(d.atoms, back.atoms):
            assert np.array_equal(a.waveform, b.waveform)
        assert back.sample_rate_hint == 44100
        assert dict_digest(back) == dict_digest(d)

    def test_round_trip_after_growth(self, tmp_path):
        rng = np.random.default_rng(8)
        atoms = [extnorm(Atom(rng.standard_normal(70))) for _ in range(3)]
        d = Dictionary(atoms=atoms, sample_rate_hint=None, provenance="x")
        path = tmp_path / "d.json"
        save_dict(d, path)
        back = load_dict(path)
        assert [len(a.waveform) for a in back.atoms] == [90, 90, 90]
        assert back == d

    def test_version_mismatch_rejected(self, tmp_path):
        d = randdict(2, seed=0)
        path = tmp_path / "d.json"
        save_dict(d, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="version"):
            load_dict(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("m", None), ("m", "x"), ("m", 2.0), ("sample_rate_hint", -5),
            ("sample_rate_hint", "abc"), ("sample_rate_hint", 0),
            ("sample_rate_hint", True),
        ],
    )
    def test_bad_header_rejected(self, tmp_path, key, value):
        """m is an integer >= 1; sample_rate_hint is null or an integer >= 1."""
        path = tmp_path / "d.json"
        save_dict(randdict(2, seed=0, sample_rate_hint=8000), path)
        doc = json.loads(path.read_text())
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=key):
            load_dict(path)

    @pytest.mark.parametrize("hint", [16000.0, np.int64(16000), np.float64(16000)])
    def test_whole_number_hint_round_trips_as_int(self, tmp_path, hint):
        """What save_dict writes, load_dict reads back."""
        d = randdict(2, seed=0, sample_rate_hint=hint)
        assert type(d.sample_rate_hint) is int
        path = tmp_path / "d.json"
        save_dict(d, path)
        back = load_dict(path)
        assert back.sample_rate_hint == 16000
        assert back == d

    @pytest.mark.parametrize(
        "hint", [16000.5, 0, -5, "abc", True, float("nan"), float("inf")]
    )
    def test_bad_hint_rejected_before_any_file_is_written(self, hint):
        with pytest.raises(ValueError, match="sample_rate_hint"):
            randdict(2, seed=0, sample_rate_hint=hint)

    def test_corrupt_file_structured_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(DataFormatError):
            load_dict(path)

    def test_non_utf8_file_structured_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(DataFormatError, match="malformed dictionary file"):
            load_dict(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else", "format_version": 1}')
        with pytest.raises(DataFormatError):
            load_dict(path)

    def test_digest_is_pinned(self):
        """The digest hashes the file format version, M and the samples."""
        assert dict_digest(randdict(4, seed=1)) == (
            "44bb6b07873d64bb4da2145087c0d888d1f4d8ba29f801375f6609c6a877767b"
        )

    @pytest.mark.parametrize("scale", [0.0, 0.5, 2.0, 1.0 + 1e-6])
    def test_non_unit_norm_atom_rejected(self, tmp_path, scale):
        d = randdict(3, seed=0)
        path = tmp_path / "d.json"
        save_dict(d, path)
        doc = json.loads(path.read_text())
        doc["atoms"][2] = [scale * v for v in doc["atoms"][2]]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="atom 2 .* not unit norm"):
            load_dict(path)

    def test_digest_distinguishes(self):
        assert dict_digest(randdict(3, seed=0)) != dict_digest(randdict(3, seed=1))
