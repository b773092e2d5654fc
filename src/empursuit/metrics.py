"""Entropy, event-rate, denoising, p-sweep, and timing analyses.

The event analyses each take one SparseCode; the denoising, p-sweep and
timing analyses encode a signal with a dictionary themselves. All emit
plain Python/numpy tables that the CLI serializes as CSV with commented
headers.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import math
import time

import numpy as np

from .dictionary import Atom, Dictionary
from .pursuit import VARIANTS, PursuitConfig, SparseCode, match
from .signal_io import Signal, add_noise, snr_db, synth_signal

__all__ = [
    "index_entropy",
    "coeff_histogram",
    "coeff_entropy",
    "event_rates",
    "denoise_sweep",
    "p_sweep",
    "profile_dictionary",
    "profile_signal",
    "timing_profile",
    "write_table",
    "clamp_db",
]

HISTOGRAM_BIN_COUNTS = (16, 32, 64)
DB_DISPLAY_LIMIT = 120.0
# profile_signal's events per sample, amplitude decay per atom index, and
# noise standard deviation.
PROFILE_DENSITY = 0.0525
PROFILE_AMP_DECAY = 0.95
PROFILE_NOISE_SIGMA = 0.002
# Seconds each of timing_profile's timed measurements lasts at least.
MIN_CELL_SECONDS = 0.15


def clamp_db(value: float) -> float:
    """Clamp a dB value to ±120 so CSV cells stay finite."""
    if np.isnan(value):
        return value
    return float(min(max(value, -DB_DISPLAY_LIMIT), DB_DISPLAY_LIMIT))


def _entropy_bits(counts: np.ndarray) -> float:
    """Plug-in Shannon entropy of a count vector, 0*log0 := 0."""
    total = counts.sum()
    if total <= 0:
        raise ValueError("entropy of an empty event stream is undefined")
    p = counts[counts > 0] / total
    # 0.0 - s rather than -s: one atom alone gives +0.0 bits, not -0.0.
    return float(0.0 - (p * np.log2(p)).sum())


def _index_counts(code: SparseCode, m: int) -> np.ndarray:
    atoms = np.array([ev.atom_index for ev in code.events], dtype=np.int64)
    bad = atoms[(atoms < 0) | (atoms >= m)]
    if bad.size:
        raise ValueError(f"event references atom {bad[0]} outside [0, {m})")
    return np.bincount(atoms, minlength=m)


def index_entropy(code: SparseCode, m: int) -> float:
    """Shannon entropy (bits) of the selected-atom-index distribution."""
    return _entropy_bits(_index_counts(code, m))


def coeff_histogram(code: SparseCode, bins: int) -> np.ndarray:
    """Counts of coefficients in equal-width bins over the observed [min, max].

    A degenerate range (all values equal) puts every event in bin 0.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    coeffs = np.array([ev.coefficient for ev in code.events])
    if coeffs.size == 0:
        raise ValueError("entropy of an empty event stream is undefined")
    lo, hi = float(coeffs.min()), float(coeffs.max())
    if lo == hi:
        counts = np.zeros(bins, dtype=np.int64)
        counts[0] = coeffs.size
        return counts
    return np.histogram(coeffs, bins=bins, range=(lo, hi))[0]


def coeff_entropy(code: SparseCode, bins: int) -> float:
    """Entropy (bits) of coeff_histogram; 0 bits when one bin holds every event."""
    return _entropy_bits(coeff_histogram(code, bins))


def event_rates(code: SparseCode, sample_rate: int, m: int) -> np.ndarray:
    """Per-atom selection events per second of analyzed signal."""
    if code.window_len == 0 or sample_rate <= 0:
        raise ValueError("cannot compute rates over zero signal duration")
    return _index_counts(code, m) / (code.window_len / sample_rate)


def denoise_sweep(
    dictionary: Dictionary,
    clean: Signal,
    ratios: list[float],
    cfg: PursuitConfig,
    noise_seed: int = 0,
) -> list[tuple[float, float]]:
    """Reconstruction SNR against the clean signal per noise ratio.

    For each ratio: add Gaussian noise at ratio * std(clean), encode the
    noisy signal, and measure the SNR of its approximation (the noisy
    signal less the code's residual) against the CLEAN signal.
    """
    if not ratios or not all(0 <= r < math.inf for r in ratios):  # NaN fails too
        raise ValueError(f"need one or more finite noise ratios >= 0, got {ratios}")
    if noise_seed < 0:
        raise ValueError(f"noise_seed must be >= 0, got {noise_seed}")
    rows: list[tuple[float, float]] = []
    for k, ratio in enumerate(ratios):
        noisy = add_noise(clean, ratio, seed=(noise_seed, k))
        code = match(dictionary, noisy, cfg)
        approx = noisy.samples - code.residual
        rows.append((float(ratio), snr_db(clean.samples, approx)))
    return rows


def p_sweep(
    dictionary: Dictionary,
    x: Signal,
    p_values: list[float],
    cfg: PursuitConfig,
) -> list[tuple[float, float]]:
    """Reconstruction SNR of the signal encoded with cfg at each p in p_values."""
    if not p_values:
        raise ValueError("p_values must list one or more p")
    # Every p is checked, by building its config, before the first pursuit.
    cfgs = [dataclasses.replace(cfg, p=float(p)) for p in p_values]
    rows: list[tuple[float, float]] = []
    for c in cfgs:
        code = match(dictionary, x, c)
        rows.append((c.p, snr_db(x.samples, x.samples - code.residual)))
    return rows


def profile_dictionary(m: int, length: int = 128, seed: int = 0) -> Dictionary:
    """Dictionary of m unit-norm Gaussian atoms of a fixed length, for timing.

    Timing comparisons want atoms long enough that the per-iteration
    correlation refresh (whose cost scales with atom length and atom
    count) dominates fixed bookkeeping; 128 samples is speech-scale at
    16 kHz and comfortably past that point.
    """
    rng = np.random.default_rng((seed, 5))
    atoms = []
    for _ in range(m):
        w = rng.standard_normal(length)
        atoms.append(Atom(w / float(np.linalg.norm(w))))
    return Dictionary(
        atoms,
        sample_rate_hint=16000,
        provenance=f"profile_dictionary(m={m}, length={length}, seed={seed})",
    )


def profile_signal(dictionary: Dictionary, length: int, seed: int = 0) -> Signal:
    """Structured profiling signal: the dictionary's own atoms plus mild noise.

    Timing comparisons between plain and equiprobable variants are only
    informative when selections concentrate the way they do on natural
    signals. Every atom gets an equal share of the PROFILE_DENSITY·length
    events, but atom i's amplitudes lie in the band PROFILE_AMP_DECAY**i ·
    [1, 1.04] (random sign). The bands are disjoint, so greedy selection
    drains atoms roughly in index order and quota-based variants shed atoms
    steadily over the whole run instead of all at the end. The density
    supplies each atom ~5% more events than a p=0.05 quota needs.
    """
    longest = max(len(w) for w in dictionary.waveforms)
    if length < longest:
        raise ValueError(
            f"signal of {length} samples is shorter than the longest atom ({longest})"
        )
    rng = np.random.default_rng((seed, 11))
    m = len(dictionary.atoms)
    counts = rng.multinomial(int(round(PROFILE_DENSITY * length)), np.full(m, 1 / m))
    placements = []
    for i, count in enumerate(counts):
        w = dictionary.atoms[i].waveform
        offs = rng.integers(0, length - len(w) + 1, size=count)
        amps = (
            PROFILE_AMP_DECAY**i
            * rng.uniform(1.0, 1.04, size=count)
            * rng.choice((-1.0, 1.0), size=count)
        )
        placements.extend((i, int(o), float(a)) for o, a in zip(offs, amps))
    return synth_signal(
        dictionary.waveforms,
        placements,
        length,
        noise_sigma=PROFILE_NOISE_SIGMA,
        seed=(seed, 12),
        sample_rate=dictionary.sample_rate_hint or 16000,
    )


@functools.cache
def _reference_problem() -> tuple[Dictionary, np.ndarray, PursuitConfig]:
    d = profile_dictionary(2, length=16, seed=1)
    x = profile_signal(d, 256, seed=1).samples
    return d, x, PursuitConfig(variant="mp", p=0.05)


def _time_reference(loops: int) -> float:
    """Thread CPU seconds per call of a fixed small pursuit, over loops calls.

    The pursuit mixes interpreter and numpy work as the profiled calls do,
    so a slowdown of the core shows in it in the same proportion.
    """
    d, x, cfg = _reference_problem()
    t0 = time.thread_time()
    for _ in range(loops):
        match(d, x, cfg)
    return (time.thread_time() - t0) / loops


@functools.cache
def _reference_seconds() -> float:
    """Best reference kernel time, measured once per process."""
    _time_reference(10)
    return min(_time_reference(20) for _ in range(5))


def timing_profile(
    dictionary: Dictionary,
    x: Signal,
    window_lengths: list[int],
    p: float = 0.05,
    repeats: int = 3,
) -> list[tuple[str, int, float]]:
    """Steady-state core time per signal sample per pursuit iteration.

    For each (variant, window length): run match() on the window's worth of
    signal, take the median time of one call, and normalize by (window
    length x event count). Each timed measurement loops the match enough
    times to last at least MIN_CELL_SECONDS (the same autoranging
    timeit uses). A first, untimed run of each cell sets its loop counts
    and event count. Repeats are interleaved round-robin across all cells
    so a burst of machine noise cannot poison every repeat of one cell
    while sparing the cell it is compared against.

    Times are the calling thread's CPU time: unlike wall time it ignores
    descheduling, and unlike process CPU time it does not count BLAS
    worker threads spin-waiting between calls, which varies with the
    load on the other cores. On a shared host the speed of a core still
    drifts by tens of percent over seconds, so every call is preceded by a
    fixed small reference pursuit run for about as long, and the call's
    time is scaled by the reference's best time, measured once per
    process, over its time right then. Profiles taken in one process thus
    share one speed scale.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if min(window_lengths, default=0) < 1:
        raise ValueError(f"window lengths must be >= 1, got {window_lengths}")
    samples = x.samples
    if len(samples) < max(window_lengths):
        raise ValueError("profiling signal shorter than the largest window")
    ref = _reference_seconds()
    cfgs = {v: PursuitConfig(variant=v, p=p) for v in VARIANTS}
    cells = [(v, int(n)) for v in VARIANTS for n in window_lengths]
    scaled = {cell: [] for cell in cells}
    events, loops, ref_loops = {}, {}, {}
    for v, n in cells:
        t0 = time.thread_time()
        code = match(dictionary, samples[:n], cfgs[v])
        dt = time.thread_time() - t0
        events[(v, n)] = max(len(code.events), 1)
        loops[(v, n)] = max(1, math.ceil(MIN_CELL_SECONDS / max(dt, 1e-9)))
        ref_loops[(v, n)] = max(1, round(dt / ref))
    for _ in range(repeats):
        for v, n in cells:
            for _ in range(loops[(v, n)]):
                r = _time_reference(ref_loops[(v, n)])
                t0 = time.thread_time()
                match(dictionary, samples[:n], cfgs[v])
                dt = time.thread_time() - t0
                scaled[(v, n)].append(dt * ref / max(r, 1e-12))
    return [
        (v, n, float(np.median(scaled[(v, n)])) / (n * events[(v, n)]))
        for v, n in cells
    ]


def write_table(path, columns: list[str], rows, header: dict) -> None:
    """CSV with '# key=value' comment lines, then a column header and rows."""
    with open(path, "w", newline="") as fh:
        for key, value in header.items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row)
