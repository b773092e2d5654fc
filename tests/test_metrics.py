"""Entropy, event-rate, denoising and timing analyses."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empursuit import metrics
from empursuit.dictionary import Atom, Dictionary, randdict
from empursuit.metrics import (
    clamp_db,
    coeff_entropy,
    coeff_histogram,
    denoise_sweep,
    event_rates,
    index_entropy,
    profile_dictionary,
    profile_signal,
    timing_profile,
    write_table,
)
from empursuit.pursuit import PursuitConfig, SparseCode, SparseEvent, match, reconstruct
from empursuit.signal_io import Signal, add_noise, snr_db, synth_signal


def code_of(
    atom_indices: list[int],
    coefficients: list[float] | None = None,
    window_len: int = 1000,
) -> SparseCode:
    if coefficients is None:
        coefficients = [1.0] * len(atom_indices)
    events = [
        SparseEvent(atom_index=i, offset=0, coefficient=c)
        for i, c in zip(atom_indices, coefficients)
    ]
    return SparseCode(events=events, residual=None, window_len=window_len)


@pytest.fixture(scope="module")
def quota_code_48k() -> SparseCode:
    """E-MP code over one second of 48 kHz noise with M=32 at p=0.05."""
    d = randdict(32, seed=0, sample_rate_hint=48000)
    rng = np.random.default_rng((0, 7))
    sig = Signal(rng.standard_normal(48000), 48000)
    return match(d, sig, PursuitConfig(variant="emp", p=0.05))


class TestIndexEntropy:
    def test_all_events_on_one_atom_is_zero_bits(self):
        assert index_entropy(code_of([2] * 9), m=4) == 0.0

    def test_all_events_on_one_atom_is_positive_zero(self):
        assert math.copysign(1.0, index_entropy(code_of([2] * 9), m=4)) == 1.0

    def test_three_one_split(self):
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert index_entropy(code_of([0, 0, 0, 1]), m=2) == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(0.8113, abs=5e-5)

    def test_equiprobable_counts_hit_log2_m_exactly(self):
        code = code_of(list(range(32)) * 3)
        assert abs(index_entropy(code, m=32) - 5.0) <= 1e-9

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            index_entropy(code_of([]), m=4)

    def test_out_of_range_atom_index_rejected(self):
        with pytest.raises(ValueError):
            index_entropy(code_of([5]), m=4)

    def test_negative_atom_index_rejected(self):
        """-1 would otherwise be counted as atom M-1."""
        code = code_of([0, 1, -1])
        with pytest.raises(ValueError, match="atom -1"):
            index_entropy(code, m=4)
        with pytest.raises(ValueError, match="atom -1"):
            event_rates(code, sample_rate=8000, m=4)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    def test_permutation_invariant(self, idxs):
        forward = index_entropy(code_of(idxs), m=6)
        assert index_entropy(code_of(list(reversed(idxs))), m=6) == forward
        assert index_entropy(code_of(sorted(idxs)), m=6) == forward

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    def test_bounded_by_log2_m(self, idxs):
        h = index_entropy(code_of(idxs), m=6)
        assert 0.0 <= h <= math.log2(6) + 1e-12


class TestCoeffEntropy:
    def test_uniform_over_bins_is_log2_bins(self):
        values = [k + 0.5 for k in range(8)]
        assert coeff_entropy(code_of([0] * 8, values), bins=8) == pytest.approx(
            3.0, abs=1e-12
        )

    def test_single_repeated_value_is_zero_bits(self):
        assert coeff_entropy(code_of([0] * 5, [2.5] * 5), bins=16) == 0.0

    def test_bad_bin_count_rejected(self):
        with pytest.raises(ValueError):
            coeff_entropy(code_of([0], [1.0]), bins=0)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            coeff_entropy(code_of([]), bins=16)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(0, 7), min_size=1, max_size=30),
        st.sampled_from([0.25, 2.0, 3.7, 12.0]),
    )
    def test_invariant_under_global_scaling(self, ks, scale):
        # Anchor the observed range at [0, 8] and keep interior values at
        # bin centers so float rounding of scaled bin edges cannot move a
        # sample across a boundary.
        values = [0.0, 8.0] + [k + 0.5 for k in ks]
        base = coeff_entropy(code_of([0] * len(values), values), bins=8)
        scaled = [scale * v for v in values]
        assert coeff_entropy(code_of([0] * len(values), scaled), bins=8) == base


class TestEventRates:
    def test_counts_per_second(self):
        code = code_of([0, 0, 1], window_len=4000)
        rates = event_rates(code, sample_rate=8000, m=3)
        np.testing.assert_allclose(rates, [4.0, 2.0, 0.0])

    def test_no_events_gives_all_zeros(self):
        rates = event_rates(code_of([], window_len=100), sample_rate=8000, m=4)
        np.testing.assert_allclose(rates, np.zeros(4))

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            event_rates(code_of([0], window_len=0), sample_rate=8000, m=2)
        with pytest.raises(ValueError):
            event_rates(code_of([0]), sample_rate=0, m=2)

    def test_equiprobable_quota_rate_at_48khz(self, quota_code_48k):
        rates = event_rates(quota_code_48k, sample_rate=48000, m=32)
        np.testing.assert_allclose(rates, np.full(32, 75.0))

    def test_equiprobable_quota_entropy_at_48khz(self, quota_code_48k):
        assert abs(index_entropy(quota_code_48k, m=32) - 5.0) <= 1e-9

    def test_plain_pursuit_rates_nonuniform_on_structured_signal(self):
        rng = np.random.default_rng(42)
        waveforms = []
        for _ in range(4):
            w = rng.standard_normal(12)
            waveforms.append(w / np.linalg.norm(w))
        d = Dictionary([Atom(w) for w in waveforms], sample_rate_hint=8000)
        # Plant only atom 0 so greedy selection concentrates there.
        placements = [
            (0, int(off), 1.0) for off in rng.integers(0, 2000 - 12, size=40)
        ]
        sig = synth_signal(waveforms, placements, 2000, noise_sigma=0.01, seed=1)
        code = match(d, sig, PursuitConfig(variant="mp", p=0.05))
        rates = event_rates(code, sample_rate=8000, m=4)
        assert rates.max() > rates.min()


class TestEventAnalyses:
    """index_entropy, coeff_histogram/coeff_entropy and event_rates together."""

    def test_consistent_with_individual_analyses(self):
        code = code_of([0, 0, 1, 2, 2, 2], [0.5, 1.5, -2.0, 0.25, 3.0, 1.0])
        # One second of signal: rates are the per-atom counts.
        rates = event_rates(code, sample_rate=1000, m=4)
        np.testing.assert_array_equal(rates, [2, 1, 3, 0])
        p_index = rates / rates.sum()
        expected = -sum(q * math.log2(q) for q in p_index if q > 0)
        assert index_entropy(code, m=4) == pytest.approx(expected, abs=1e-12)
        for bins in (16, 32, 64):
            hist = coeff_histogram(code, bins)
            assert len(hist) == bins
            assert hist.sum() == 6
            p = hist[hist > 0] / 6
            bits = float(-(p * np.log2(p)).sum())
            assert coeff_entropy(code, bins) == pytest.approx(bits, abs=1e-12)

    def test_probabilities_normalize(self):
        code = code_of([0, 1, 1, 3], [0.1, 0.7, -0.4, 2.0])
        counts = event_rates(code, sample_rate=1000, m=4)
        np.testing.assert_array_equal(counts, [1, 2, 0, 1])
        p_index = counts / counts.sum()
        assert abs(p_index.sum() - 1.0) <= 1e-12
        for bins in (16, 32, 64):
            hist = coeff_histogram(code, bins)
            assert abs(hist / hist.sum()).sum() == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_coefficients_give_zero_entropy(self):
        code = code_of([0, 1], [1.0, 1.0])
        for bins in (16, 32, 64):
            assert coeff_entropy(code, bins) == 0.0
            assert math.copysign(1.0, coeff_entropy(code, bins)) == 1.0  # not -0.0
            assert coeff_histogram(code, bins)[0] == 2

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            index_entropy(code_of([]), m=4)
        for bins in (16, 32, 64):
            with pytest.raises(ValueError):
                coeff_histogram(code_of([]), bins)
            with pytest.raises(ValueError):
                coeff_entropy(code_of([]), bins)


class TestVariantEntropyOrdering:
    def test_heavy_tailed_signal_orders_coefficient_entropies(self):
        """Greedy-only variants concentrate coefficients into fewer histogram
        bins than their equiprobable counterparts, and the overlap-solving
        variants concentrate harder than plain matching; at 16 bins the
        entropies order omp <= eomp <= mp <= emp on a heavy-tailed
        amplitude signal (frozen seed; the gaps, not the ordering, vary
        across signals)."""
        n = 32768
        d = randdict(16, seed=1, sample_rate_hint=16000)
        rng = np.random.default_rng((1, 41))
        placements = []
        for _ in range(int(0.04 * n)):
            i = int(rng.integers(16))
            off = int(rng.integers(0, n - 70))
            amp = float(rng.laplace(0, 0.6))
            placements.append((i, off, amp))
        sig = synth_signal(
            [a.waveform for a in d.atoms],
            placements,
            n,
            noise_sigma=0.1,
            seed=(1, 42),
            sample_rate=16000,
        )
        bits = {}
        for variant in ("omp", "eomp", "mp", "emp"):
            code = match(d, sig, PursuitConfig(variant=variant, p=0.05))
            bits[variant] = coeff_entropy(code, bins=16)
        assert bits["omp"] <= bits["eomp"] <= bits["mp"] <= bits["emp"]


class TestDenoiseSweep:
    @pytest.fixture()
    def planted(self):
        rng = np.random.default_rng(7)
        waveforms = []
        for _ in range(3):
            w = rng.standard_normal(10)
            waveforms.append(w / np.linalg.norm(w))
        d = Dictionary([Atom(w) for w in waveforms], sample_rate_hint=8000)
        placements = []
        for _ in range(30):
            i = int(rng.integers(3))
            off = int(rng.integers(0, 1500 - 10))
            placements.append((i, off, float(rng.uniform(0.8, 1.2))))
        clean = synth_signal(waveforms, placements, 1500, sample_rate=8000)
        return d, clean

    def test_zero_ratio_equals_plain_reconstruction_snr(self, planted):
        d, clean = planted
        cfg = PursuitConfig(variant="omp", p=0.05)
        rows = denoise_sweep(d, clean, [0.0], cfg)
        code = match(d, clean, cfg)
        plain = snr_db(clean.samples, clean.samples - code.residual)
        assert rows == [(0.0, plain)]

    def test_snr_degrades_from_low_to_high_noise(self, planted):
        d, clean = planted
        rows = denoise_sweep(
            d, clean, [0.05, 0.3], PursuitConfig(variant="eomp", p=0.05)
        )
        assert rows[0][1] > rows[1][1]

    def test_rows_echo_ratios_deterministically(self, planted):
        d, clean = planted
        cfg = PursuitConfig(variant="emp", p=0.05)
        rows = denoise_sweep(d, clean, [0.1, 0.2], cfg, noise_seed=3)
        again = denoise_sweep(d, clean, [0.1, 0.2], cfg, noise_seed=3)
        assert rows == again
        assert [r[0] for r in rows] == [0.1, 0.2]

    def test_negative_ratio_rejected(self, planted):
        d, clean = planted
        with pytest.raises(ValueError):
            denoise_sweep(d, clean, [-0.1], PursuitConfig(variant="mp", p=0.05))

    def test_empty_ratio_list_rejected_before_any_pursuit(self, planted, monkeypatch):
        d, clean = planted
        monkeypatch.setattr(metrics, "match", None)  # a pursuit would raise TypeError
        with pytest.raises(ValueError, match="one or more"):
            denoise_sweep(d, clean, [], PursuitConfig(variant="mp", p=0.05))


class TestSnrFromResidual:
    """denoise_sweep takes each SNR from the code's residual; it matches the
    SNR of the reconstruction from the events."""

    @pytest.mark.parametrize("variant", ["mp", "omp", "emp", "eomp"])
    def test_matches_reconstruction_snr(self, variant):
        d = randdict(6, seed=3, sample_rate_hint=8000)
        rng = np.random.default_rng(4101)
        placements = [
            (int(rng.integers(6)), int(rng.integers(0, 4000 - 70)),
             float(rng.uniform(0.5, 1.5)))
            for _ in range(80)
        ]
        clean = synth_signal(
            d.waveforms, placements, 4000, noise_sigma=0.05, seed=4, sample_rate=8000
        )
        cfg = PursuitConfig(variant=variant, p=0.05)
        ratios = [0.0, 0.1, 0.5]
        for k, (ratio, snr) in enumerate(
            denoise_sweep(d, clean, ratios, cfg, noise_seed=5)
        ):
            noisy = add_noise(clean, ratio, seed=(5, k))
            approx = reconstruct(match(d, noisy, cfg), d)
            assert abs(snr - snr_db(clean.samples, approx)) <= 1e-9


class TestProfileHelpers:
    def test_profile_dictionary_shape_and_determinism(self):
        d = profile_dictionary(5, seed=3)
        assert len(d.atoms) == 5
        for atom in d.atoms:
            assert len(atom.waveform) == 128
            assert np.linalg.norm(atom.waveform) == pytest.approx(1.0, abs=1e-12)
        again = profile_dictionary(5, seed=3)
        for a, b in zip(d.atoms, again.atoms):
            np.testing.assert_array_equal(a.waveform, b.waveform)
        other = profile_dictionary(5, seed=4)
        assert not np.array_equal(d.atoms[0].waveform, other.atoms[0].waveform)

    def test_profile_signal_shape_and_determinism(self):
        d = profile_dictionary(4, length=16, seed=0)
        sig = profile_signal(d, 2048, seed=5)
        assert len(sig) == 2048
        assert float(np.std(sig.samples)) > 0.0
        np.testing.assert_array_equal(
            sig.samples, profile_signal(d, 2048, seed=5).samples
        )

    def test_signal_shorter_than_longest_atom_rejected(self):
        """Where the longest atom cannot be placed, the error names both lengths."""
        d = Dictionary([Atom(np.ones(16) / 4.0), Atom(np.ones(8) / math.sqrt(8))])
        assert len(profile_signal(d, 16)) == 16
        message = r"signal of 15 samples is shorter than the longest atom \(16\)"
        with pytest.raises(ValueError, match=message):
            profile_signal(d, 15)


class TestTimingProfile:
    @pytest.fixture(autouse=True)
    def short_cells(self, monkeypatch):
        monkeypatch.setattr(metrics, "MIN_CELL_SECONDS", 1e-4)

    def make_profile(self, repeats=1):
        d = profile_dictionary(3, length=8, seed=0)
        sig = profile_signal(d, 1024, seed=0)
        return timing_profile(d, sig, [256, 512], p=0.05, repeats=repeats)

    def test_rows_cover_all_variant_window_cells(self):
        rows = self.make_profile()
        assert [(v, n) for v, n, _ in rows] == [
            (v, n) for v in ("mp", "omp", "emp", "eomp") for n in (256, 512)
        ]
        for _, _, t in rows:
            assert math.isfinite(t) and t > 0.0

    def test_repeated_profiles_agree_within_twenty_percent(self, monkeypatch):
        # Atoms long enough that matrix work dominates interpreter
        # bookkeeping; tiny-atom cells time Python overhead, which is far
        # noisier than the engine itself.
        monkeypatch.setattr(metrics, "MIN_CELL_SECONDS", 0.1)
        d = profile_dictionary(4, length=64, seed=0)
        sig = profile_signal(d, 8192, seed=0)

        def profile():
            return timing_profile(d, sig, [2048, 4096], p=0.05, repeats=3)

        for (_, _, a), (_, _, b) in zip(profile(), profile()):
            assert abs(a - b) / min(a, b) < 0.20

    def test_signal_shorter_than_largest_window_rejected(self):
        d = profile_dictionary(3, length=8, seed=0)
        sig = profile_signal(d, 1024, seed=0)
        with pytest.raises(ValueError):
            timing_profile(d, sig, [2048])

    @pytest.mark.parametrize("windows", [[512, -100], [0], []])
    def test_window_shorter_than_one_sample_rejected(self, windows):
        """A negative length would profile samples[:-100] and report a
        negative time per sample."""
        d = profile_dictionary(3, length=8, seed=0)
        sig = profile_signal(d, 1024, seed=0)
        with pytest.raises(ValueError, match="window lengths"):
            timing_profile(d, sig, windows)

    def test_no_repeats_rejected(self):
        """Zero repeats would leave every cell without a time, i.e. NaN."""
        d = profile_dictionary(3, length=8, seed=0)
        sig = profile_signal(d, 1024, seed=0)
        with pytest.raises(ValueError, match="repeats"):
            timing_profile(d, sig, [256], repeats=0)


class TestClampDb:
    def test_clamps_to_display_limit(self):
        assert clamp_db(500.0) == 120.0
        assert clamp_db(-500.0) == -120.0
        assert clamp_db(math.inf) == 120.0
        assert clamp_db(37.5) == 37.5

    def test_nan_passes_through(self):
        assert math.isnan(clamp_db(float("nan")))


class TestWriteTable:
    def test_writes_commented_header_then_csv(self, tmp_path):
        path = tmp_path / "table.csv"
        write_table(
            path,
            ["p", "snr_db"],
            [(0.05, 12.5), (0.1, 14.0)],
            header={"seed": 3, "digest": "abc"},
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=3"
        assert lines[1] == "# digest=abc"
        rows = list(csv.reader(lines[2:]))
        assert rows[0] == ["p", "snr_db"]
        assert rows[1] == ["0.05", "12.5"]
        assert rows[2] == ["0.1", "14.0"]
