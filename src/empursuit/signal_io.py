"""Sampled-signal ingestion: WAV files, synthetic sources, training blocks, noise, SNR.

Signals are stored as 1-D float64 arrays regardless of the on-disk encoding;
correlation and least-squares accuracy dominates any storage concern.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.io import wavfile

from .errors import DataFormatError, DegenerateSignalError

__all__ = [
    "Signal",
    "BlockSource",
    "load_wav",
    "save_wav",
    "synth_signal",
    "next_block",
    "add_noise",
    "snr_db",
    "build_synth_signal",
]


@dataclass
class Signal:
    """A mono sampled signal: float64 amplitudes plus a sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ValueError("signal must be a non-empty 1-D sample sequence")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("signal contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        """Signal length in seconds."""
        return len(self.samples) / self.sample_rate


def _as_samples(x: Signal | np.ndarray | Sequence[float]) -> np.ndarray:
    if isinstance(x, Signal):
        return x.samples
    return np.asarray(x, dtype=np.float64)


def load_wav(path) -> Signal:
    """Load a PCM 16/24-bit or 32-bit float WAV file as a mono Signal.

    Multi-channel input is downmixed by channel averaging. Samples are
    scaled to [-1, 1] using the full-scale convention of the bit depth
    (e.g. 16-bit sample 32767 maps to 32767/32768).
    """
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise DataFormatError(f"cannot read WAV file {path!r}: {exc}") from exc
    if data.size == 0:
        raise DataFormatError(f"WAV file {path!r} contains no audio")

    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        # 24-bit PCM arrives left-justified in int32, so one scale covers both.
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise DataFormatError(
            f"unsupported WAV encoding {data.dtype} in {path!r}; "
            "expected PCM16, PCM24/32, or float32"
        )
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return Signal(samples, int(rate))


def save_wav(sig: Signal, path, encoding: str = "float32") -> None:
    """Write a Signal to a WAV file.

    encoding: one of "pcm16", "pcm24", "float32". PCM encodings clip to
    the representable range and round to the nearest code.
    """
    x = sig.samples
    if encoding == "float32":
        wavfile.write(path, sig.sample_rate, x.astype(np.float32))
    elif encoding == "pcm16":
        q = np.clip(np.rint(x * 32768.0), -32768, 32767).astype(np.int16)
        wavfile.write(path, sig.sample_rate, q)
    elif encoding == "pcm24":
        q = np.clip(np.rint(x * 8388608.0), -8388608, 8388607).astype(np.int32)
        raw = q.astype("<i4").tobytes()
        frames = b"".join(raw[i : i + 3] for i in range(0, len(raw), 4))
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(3)
            fh.setframerate(sig.sample_rate)
            fh.writeframes(frames)
    else:
        raise ValueError(f"unknown encoding {encoding!r}")


def synth_signal(
    atoms: Sequence,
    placements: Sequence[tuple[int, int, float]],
    length: int,
    noise_sigma: float = 0.0,
    seed: int | tuple[int, ...] = 0,
    sample_rate: int = 44100,
) -> Signal:
    """Superpose scaled, shifted waveforms plus optional Gaussian noise.

    atoms may be raw 1-D arrays or objects with a ``waveform`` attribute.
    Each placement is (atom index, offset, amplitude) and must keep the
    atom's full support inside [0, length).
    """
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    waveforms = [np.asarray(getattr(a, "waveform", a), dtype=np.float64) for a in atoms]
    out = np.zeros(length, dtype=np.float64)
    for idx, offset, amp in placements:
        w = waveforms[idx]
        if offset < 0 or offset + len(w) > length:
            raise ValueError(
                f"placement (atom {idx}, offset {offset}) exceeds signal bounds"
            )
        out[offset : offset + len(w)] += amp * w
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        out = out + rng.normal(0.0, noise_sigma, size=length)
    return Signal(out, sample_rate)


# Share of a block cross-faded from the previous residual's tail.
OVERLAP_FRAC = 0.1


@dataclass
class BlockSource:
    """Serves fixed-length training blocks from random positions of a signal.

    Block starts are seeded-uniform; the sequence is a pure function of
    (rng_seed, step) and has no end: the learner's budget decides how many
    blocks are drawn. When carry_residual is set, callers pass the previous
    block's pursuit residual and the new block head is cross-faded with its
    tail over OVERLAP_FRAC of the block.
    """

    source: Signal
    block_len: int
    rng_seed: int = 0
    carry_residual: bool = False

    def __post_init__(self) -> None:
        if self.block_len < 1:
            raise ValueError("block_len must be positive")
        if self.block_len > len(self.source):
            raise ValueError("block_len exceeds source length")


def next_block(
    src: BlockSource, step: int, prev_residual: np.ndarray | None = None
) -> Signal:
    """Return training block ``step`` from the source."""
    rng = np.random.default_rng((src.rng_seed, step))
    start = int(rng.integers(0, len(src.source) - src.block_len + 1))
    block = src.source.samples[start : start + src.block_len].copy()
    if src.carry_residual and prev_residual is not None:
        overlap = int(round(OVERLAP_FRAC * src.block_len))
        overlap = min(overlap, len(prev_residual))
        if overlap > 0:
            # Raised-cosine cross-fade from the previous residual tail into
            # the fresh block head.
            t = (np.arange(overlap) + 0.5) / overlap
            fade_in = 0.5 * (1.0 - np.cos(np.pi * t))
            block[:overlap] = (
                fade_in * block[:overlap]
                + (1.0 - fade_in) * prev_residual[-overlap:]
            )
    return Signal(block, src.source.sample_rate)


def add_noise(x: Signal, sigma_ratio: float, seed: int | tuple[int, ...] = 0) -> Signal:
    """Add Gaussian noise with standard deviation sigma_ratio * std(x)."""
    if sigma_ratio < 0:
        raise ValueError("sigma_ratio must be >= 0")
    if sigma_ratio == 0:
        return Signal(x.samples.copy(), x.sample_rate)
    sigma_s = float(np.std(x.samples))
    if sigma_s == 0.0:
        raise DegenerateSignalError("cannot scale noise to a constant signal")
    rng = np.random.default_rng(seed)
    noisy = x.samples + rng.normal(0.0, sigma_ratio * sigma_s, size=len(x.samples))
    return Signal(noisy, x.sample_rate)


def snr_db(reference, estimate) -> float:
    """10 log10 of reference energy over error energy, in dB.

    Returns +inf for a perfect estimate; raises on zero reference energy.
    """
    ref = _as_samples(reference)
    est = _as_samples(estimate)
    if len(ref) != len(est):
        raise ValueError("reference and estimate lengths differ")
    ref_energy = float(np.dot(ref, ref))
    if ref_energy == 0.0:
        raise DegenerateSignalError("reference signal has zero energy")
    err = ref - est
    err_energy = float(np.dot(err, err))
    if err_energy == 0.0:
        return math.inf
    return 10.0 * math.log10(ref_energy / err_energy)


def build_synth_signal(cfg: dict) -> tuple[Signal, list[np.ndarray]]:
    """Build a signal from a synthetic-source config dict.

    Returns the signal and the unit-norm hidden waveforms it was built
    from (useful for recovery experiments). The config, which is also the
    JSON file the CLI's --synth reads, has these keys:

      length       signal samples (required)
      sample_rate  Hz, default 16000
      seed         default 0; seeds the atoms, placements and noise
      noise_sigma  std of added white Gaussian noise, default 0
      atoms        {"kind": "gaussian", "count": M, "length": L}: M Gaussian
                   atoms of L samples (the default kind), or
                   {"kind": "explicit", "waveforms": [[...], ...]};
                   every atom is scaled to unit norm
      placements   {"kind": "poisson", "rate": r, "amp_min": 0.5,
                   "amp_max": 1.5}: per atom, Poisson(r * usable offsets)
                   events at uniform offsets, with amplitudes uniform in
                   [amp_min, amp_max] and a random sign (the default kind),
                   or {"kind": "explicit", "events": [[atom, offset, amp], ...]}
    """
    try:
        length = int(cfg["length"])
        sample_rate = int(cfg.get("sample_rate", 16000))
        seed = int(cfg.get("seed", 0))
        noise_sigma = float(cfg.get("noise_sigma", 0.0))
        atoms_cfg = cfg["atoms"]
        placements_cfg = cfg["placements"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad synthetic-signal config: {exc}") from exc

    if atoms_cfg.get("kind", "gaussian") == "gaussian":
        rng = np.random.default_rng((seed, 1))
        count = int(atoms_cfg["count"])
        alen = int(atoms_cfg["length"])
        waveforms = []
        for _ in range(count):
            w = rng.standard_normal(alen)
            waveforms.append(w / np.linalg.norm(w))
    elif atoms_cfg["kind"] == "explicit":
        waveforms = []
        for w in atoms_cfg["waveforms"]:
            w = np.asarray(w, dtype=np.float64)
            waveforms.append(w / np.linalg.norm(w))
    else:
        raise DataFormatError(f"unknown atoms kind {atoms_cfg.get('kind')!r}")

    kind = placements_cfg.get("kind", "poisson")
    if kind == "poisson":
        rng = np.random.default_rng((seed, 2))
        rate = float(placements_cfg["rate"])
        amp_min = float(placements_cfg.get("amp_min", 0.5))
        amp_max = float(placements_cfg.get("amp_max", 1.5))
        placements = []
        for idx, w in enumerate(waveforms):
            usable = length - len(w) + 1
            if usable <= 0:
                raise DataFormatError("hidden atom longer than the signal")
            n_events = rng.poisson(rate * usable)
            offs = rng.integers(0, usable, size=n_events)
            amps = rng.uniform(amp_min, amp_max, size=n_events)
            signs = rng.choice((-1.0, 1.0), size=n_events)
            placements.extend(
                (idx, int(o), float(a * s)) for o, a, s in zip(offs, amps, signs)
            )
    elif kind == "explicit":
        placements = [
            (int(i), int(o), float(a)) for i, o, a in placements_cfg["events"]
        ]
    else:
        raise DataFormatError(f"unknown placements kind {kind!r}")

    sig = synth_signal(
        waveforms,
        placements,
        length,
        noise_sigma=noise_sigma,
        seed=(seed, 3),
        sample_rate=sample_rate,
    )
    return sig, waveforms
