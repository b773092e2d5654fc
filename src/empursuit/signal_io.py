"""Sampled-signal ingestion: WAV files, synthetic sources, training blocks, noise, SNR.

Signals are stored as 1-D float64 arrays regardless of the on-disk encoding;
correlation and least-squares accuracy dominates any storage concern.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataFormatError, DegenerateSignalError

__all__ = [
    "Signal",
    "load_wav",
    "save_wav",
    "synth_signal",
    "next_block",
    "add_noise",
    "snr_db",
    "build_synth_signal",
]


def whole_number(value, name: str) -> int:
    """value as an int; ValueError for a bool, a string or a non-whole number."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral)
        or (isinstance(value, numbers.Real) and float(value).is_integer())
    ):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass
class Signal:
    """A mono sampled signal: float64 amplitudes plus a sample rate in Hz.

    sample_rate must be a whole number >= 1 and is stored as an int.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ValueError("signal must be a non-empty 1-D sample sequence")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("signal contains non-finite samples")
        self.sample_rate = whole_number(self.sample_rate, "sample_rate")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")

    def __len__(self) -> int:
        return len(self.samples)


# WAVE format tags: integer PCM, IEEE float, and the extensible header whose
# subformat GUID carries one of the two in its first four bytes.
_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
_GUID_TAIL = {
    "<": bytes.fromhex("00 00 10 00 80 00 00 aa 00 38 9b 71"),
    ">": bytes.fromhex("00 00 00 10 80 00 00 aa 00 38 9b 71"),
}
# Full scale per PCM container width in bytes. 24-bit samples are read
# left-justified into 32 bits, so 24- and 32-bit files share one scale.
_PCM_SCALE = {2: 32768.0, 3: 2147483648.0, 4: 2147483648.0}
# A RIFF chunk size is 32 bits, so no WAV holds more 2-byte (PCM16) samples.
MAX_WAV_SAMPLES = (2**32 - 1) // 2


def _read_wav(buf: bytes) -> tuple[int, np.ndarray, int]:
    """Sample rate, interleaved float64 samples and channel count of a WAV image."""
    if len(buf) < 12 or buf[:4] not in (b"RIFF", b"RIFX") or buf[8:12] != b"WAVE":
        raise ValueError("not a RIFF/RIFX WAVE file")
    order = "<" if buf[:4] == b"RIFF" else ">"
    fmt = None
    pos = 12
    while pos + 8 <= len(buf):
        chunk_id = buf[pos : pos + 4]
        (size,) = struct.unpack_from(order + "I", buf, pos + 4)
        body = buf[pos + 8 : pos + 8 + size]
        pos += 8 + size + size % 2  # a chunk of odd size is followed by a pad byte
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise ValueError("fmt chunk shorter than 16 bytes")
            fmt = struct.unpack_from(order + "HHIIHH", body)
            if fmt[0] == _EXTENSIBLE and body[28:40] == _GUID_TAIL[order]:
                fmt = struct.unpack_from(order + "I", body, 24) + fmt[1:]
        elif chunk_id == b"data":
            if fmt is None:
                raise ValueError("data chunk before fmt chunk")
            break
    else:
        raise ValueError("no data chunk" if fmt else "no fmt chunk")

    tag, channels, rate, _, block_align, bits = fmt
    if channels and block_align % channels:
        raise ValueError(
            f"block align {block_align} does not split into {channels} channels"
        )
    width = block_align // channels if channels else 0
    n = len(body) // block_align * channels if width else 0
    if tag == _PCM and bits > 8 and width in _PCM_SCALE:
        if width == 3:
            wide = np.zeros((n, 4), np.uint8)
            lo = 1 if order == "<" else 0
            wide[:, lo : lo + 3] = np.frombuffer(body, np.uint8, 3 * n).reshape(n, 3)
            data = wide.view(order + "i4")[:, 0]
        else:
            data = np.frombuffer(body, f"{order}i{width}", n)
        samples = data.astype(np.float64) / _PCM_SCALE[width]
    elif tag == _FLOAT and bits in (32, 64) and width == bits // 8:
        raw = np.frombuffer(body, f"{order}f{width}", n)
        if not np.all(np.isfinite(raw)):  # the cast would warn on a signalling NaN
            raise ValueError("non-finite samples")
        samples = raw.astype(np.float64)
    else:
        raise ValueError(
            f"unsupported encoding: format tag {tag:#06x}, {bits} bits, "
            f"{channels} channels; expected PCM16, PCM24, PCM32, float32 or float64"
        )
    return rate, samples, channels


def load_wav(path) -> Signal:
    """Load a WAV file as a mono Signal.

    Accepted: integer PCM in 16-, 24- or 32-bit containers and IEEE float32
    or float64; any number of channels; a plain or WAVE_FORMAT_EXTENSIBLE
    fmt chunk; little-endian (RIFF) or big-endian (RIFX) files. Chunks
    other than fmt and data are skipped. 8-bit PCM, compressed formats and
    RF64 raise DataFormatError, as do a sample rate of 0, a block align
    that is not a whole number of bytes per channel and a non-finite
    sample. Multi-channel input is downmixed by channel averaging. PCM
    samples are scaled by the full scale of their container (16-bit sample
    32767 maps to 32767/32768); float samples are kept as they are.
    """
    try:
        with open(path, "rb") as fh:
            rate, samples, channels = _read_wav(fh.read())
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        raise DataFormatError(f"cannot read WAV file {path!r}: {exc}") from exc
    if samples.size == 0:
        raise DataFormatError(f"WAV file {path!r} contains no audio")
    if channels > 1:
        samples = samples.reshape(-1, channels).mean(axis=1)
    try:
        return Signal(samples, rate)
    except ValueError as exc:
        raise DataFormatError(f"bad WAV file {path!r}: {exc}") from exc


def save_wav(sig: Signal, path, encoding: str = "float32") -> None:
    """Write a Signal to a mono WAV file.

    encoding: "float32" (IEEE float, with the cbSize field and fact chunk
    that float files carry), "pcm16" or "pcm24". PCM encodings clip to the
    representable range and round to the nearest code.
    """
    x = sig.samples
    if encoding == "float32":
        tag, data = _FLOAT, x.astype("<f4").tobytes()
    elif encoding == "pcm16":
        q = np.clip(np.rint(x * 32768.0), -32768, 32767)
        tag, data = _PCM, q.astype("<i2").tobytes()
    elif encoding == "pcm24":
        q = np.clip(np.rint(x * 8388608.0), -8388608, 8388607).astype("<i4")
        tag, data = _PCM, q.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    width = len(data) // len(x)
    rate = sig.sample_rate
    fmt = struct.pack("<HHIIHH", tag, 1, rate, rate * width, width, 8 * width)
    fact = b""
    if tag == _FLOAT:
        fmt += b"\x00\x00"
        fact = b"fact" + struct.pack("<II", 4, len(x))
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt + fact
    chunks += b"data" + struct.pack("<I", len(data))
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + len(chunks) + len(data)) + b"WAVE")
        fh.write(chunks)
        fh.write(data)


def synth_signal(
    waveforms: Sequence[np.ndarray],
    placements: Sequence[tuple[int, int, float]],
    length: int,
    noise_sigma: float = 0.0,
    seed: int | tuple[int, ...] = 0,
    sample_rate: int = 44100,
) -> Signal:
    """Superpose scaled, shifted waveforms plus optional Gaussian noise.

    This is the package's one rule for placing events into samples. Each
    placement is (atom index, offset, amplitude), and amp * waveform is
    added at the offset, in list order. A placement on an atom outside
    [0, len(waveforms)), or whose atom does not fit inside [0, length),
    raises ValueError, as does a non-finite result.
    """
    if not noise_sigma >= 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    out = np.zeros(length, dtype=np.float64)
    for idx, offset, amp in placements:
        if not 0 <= idx < len(waveforms):
            raise ValueError(f"placement on atom {idx} of {len(waveforms)}")
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


def next_block(signal: Signal, block_len: int, seed: int, step: int) -> Signal:
    """Training block ``step``: block_len <= len(signal) samples, seeded start.

    The start is drawn from default_rng((seed, step)), so the block
    sequence is a pure function of the seed.
    """
    rng = np.random.default_rng((seed, step))
    start = int(rng.integers(0, len(signal) - block_len + 1))
    return Signal(signal.samples[start : start + block_len].copy(), signal.sample_rate)


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


def snr_db(reference: np.ndarray, estimate: np.ndarray) -> float:
    """10 log10 of reference energy over error energy, in dB.

    Returns +inf for a perfect estimate; raises on zero reference energy.
    """
    if len(reference) != len(estimate):
        raise ValueError("reference and estimate lengths differ")
    ref_energy = float(np.dot(reference, reference))
    if ref_energy == 0.0:
        raise DegenerateSignalError("reference signal has zero energy")
    err = reference - estimate
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

    Raises DataFormatError for a malformed config: a missing or mistyped
    key, a length, sample rate, seed, atom count or event atom or offset
    that is not a whole number (a bool, a string or 2000.5), an all-zero
    atom, a negative atom count, an event on an atom that does not exist
    or outside the signal, or a rate or noise level that is negative or NaN.
    """
    try:
        return _synth_from_config(cfg)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad synthetic-signal config: {exc!r}") from exc


def _synth_from_config(cfg: dict) -> tuple[Signal, list[np.ndarray]]:
    length = whole_number(cfg["length"], "length")
    sample_rate = whole_number(cfg.get("sample_rate", 16000), "sample_rate")
    seed = whole_number(cfg.get("seed", 0), "seed")
    noise_sigma = float(cfg.get("noise_sigma", 0.0))
    atoms_cfg = cfg["atoms"]
    placements_cfg = cfg["placements"]
    if not isinstance(atoms_cfg, dict) or not isinstance(placements_cfg, dict):
        raise TypeError("atoms and placements must be JSON objects")

    kind = atoms_cfg.get("kind", "gaussian")
    if kind == "gaussian":
        rng = np.random.default_rng((seed, 1))
        count = whole_number(atoms_cfg["count"], "atoms count")
        alen = whole_number(atoms_cfg["length"], "atoms length")
        if count < 0:
            raise ValueError(f"atoms count must be >= 0, got {count}")
        raw = [rng.standard_normal(alen) for _ in range(count)]
    elif kind == "explicit":
        raw = [np.asarray(w, dtype=np.float64) for w in atoms_cfg["waveforms"]]
    else:
        raise DataFormatError(f"unknown atoms kind {kind!r}")
    waveforms = []
    for idx, w in enumerate(raw):
        norm = np.linalg.norm(w)
        if not 0 < norm < np.inf:
            raise ValueError(f"hidden atom {idx} has norm {norm}")
        waveforms.append(w / norm)

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
            (whole_number(i, "event atom"), whole_number(o, "event offset"), float(a))
            for i, o, a in placements_cfg["events"]
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
