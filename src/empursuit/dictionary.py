"""Atoms and dictionaries: random initialization, tail growth, normalization, files.

An atom is a unit-norm waveform with zero tails that grow in fixed steps
when boundary energy becomes non-negligible, letting atom length adapt
during learning.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, ZeroAtomError
from .signal_io import whole_number

__all__ = [
    "Atom",
    "Dictionary",
    "randdict",
    "extnorm",
    "save_dict",
    "load_dict",
    "dict_digest",
    "TAIL_LEN",
    "TAIL_RMS_RATIO",
    "INIT_BODY_LEN",
]

TAIL_LEN = 10
TAIL_RMS_RATIO = 0.1
INIT_BODY_LEN = 50

_FORMAT_NAME = "empursuit-dict"
_FORMAT_VERSION = 1
# Largest |norm - 1| of an atom. The pursuit takes a lone event's correlation
# as its coefficient, which is the least-squares one only for unit norm.
UNIT_NORM_TOL = 1e-9


@dataclass(eq=False)
class Atom:
    """One shift-invariant waveform; unit ℓ2 norm after any extnorm call.

    Tails always grow by TAIL_LEN. pad_len accepts only that value, so
    code that rebuilds an atom as Atom(w, pad_len=a.pad_len) still runs.
    """

    waveform: np.ndarray
    pad_len: int = TAIL_LEN

    def __post_init__(self) -> None:
        if self.pad_len != TAIL_LEN:
            raise ValueError(f"pad_len is fixed at TAIL_LEN={TAIL_LEN}")
        self.waveform = np.asarray(self.waveform, dtype=np.float64)
        if self.waveform.ndim != 1 or self.waveform.size < 1:
            raise ValueError("atom waveform must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.waveform)):
            raise ValueError("atom waveform contains non-finite values")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        return np.array_equal(self.waveform, other.waveform)


@dataclass(eq=False)
class Dictionary:
    """Ordered set of atoms; indices are stable identities.

    sample_rate_hint is None or a whole number >= 1, stored as an int.
    """

    atoms: list[Atom]
    sample_rate_hint: int | None = None
    provenance: str = ""

    def __post_init__(self) -> None:
        if len(self.atoms) < 1:
            raise ValueError("dictionary needs at least one atom")
        if self.sample_rate_hint is not None:
            rate = whole_number(self.sample_rate_hint, "sample_rate_hint")
            if rate < 1:
                raise ValueError(f"sample_rate_hint must be >= 1, got {rate}")
            self.sample_rate_hint = rate

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dictionary):
            return NotImplemented
        return (
            self.sample_rate_hint == other.sample_rate_hint
            and self.provenance == other.provenance
            and len(self.atoms) == len(other.atoms)
            and all(a == b for a, b in zip(self.atoms, other.atoms))
        )

    @property
    def waveforms(self) -> list[np.ndarray]:
        return [a.waveform for a in self.atoms]


def _non_unit_atom(d: Dictionary) -> int | None:
    """Index of the first atom whose norm is off 1 by more than UNIT_NORM_TOL."""
    for i, a in enumerate(d.atoms):
        if abs(float(np.linalg.norm(a.waveform)) - 1.0) > UNIT_NORM_TOL:
            return i
    return None


def _random_atom(rng: np.random.Generator) -> Atom:
    body = rng.standard_normal(INIT_BODY_LEN)
    w = np.concatenate([np.zeros(TAIL_LEN), body, np.zeros(TAIL_LEN)])
    w /= np.linalg.norm(w)
    return Atom(w)


def randdict(
    m: int,
    seed: int = 0,
    sample_rate_hint: int | None = None,
) -> Dictionary:
    """Random dictionary of m unit-norm atoms.

    Each atom has 50 zero-mean Gaussian samples flanked by two 10-sample
    zero tails, so atoms start 70 samples long.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    atoms = [_random_atom(rng) for _ in range(m)]
    return Dictionary(
        atoms,
        sample_rate_hint=sample_rate_hint,
        provenance=f"randdict(m={m}, seed={seed})",
    )


def extnorm(atom: Atom, max_len: int | None = None) -> Atom:
    """Grow loud tails by TAIL_LEN zeros per side, then unit-normalize.

    A side grows when the RMS of its outermost TAIL_LEN samples exceeds
    TAIL_RMS_RATIO times the whole-atom RMS, unless growth would exceed
    max_len. Raises ZeroAtomError for an all-zero waveform.
    """
    w = atom.waveform
    # What np.linalg.norm computes for a 1-D array, without its overhead.
    norm = math.sqrt(w.dot(w))
    if norm == 0.0:
        raise ZeroAtomError("all-zero atom cannot be normalized")

    length = len(w)
    threshold = TAIL_RMS_RATIO * (norm / math.sqrt(length))
    grow_left = length > TAIL_LEN and _rms(w[:TAIL_LEN]) > threshold
    grow_right = length > TAIL_LEN and _rms(w[-TAIL_LEN:]) > threshold

    if grow_left and (max_len is None or length + TAIL_LEN <= max_len):
        w = np.concatenate([np.zeros(TAIL_LEN), w])
        length += TAIL_LEN
    if grow_right and (max_len is None or length + TAIL_LEN <= max_len):
        w = np.concatenate([w, np.zeros(TAIL_LEN)])
        length += TAIL_LEN
    if length > len(atom.waveform):
        norm = math.sqrt(w.dot(w))
    return Atom(w / norm)


def _rms(x: np.ndarray) -> float:
    # np.add.reduce is the sum np.mean takes.
    return math.sqrt(np.add.reduce(x * x) / len(x))


def dict_digest(d: Dictionary) -> str:
    """Content hash of the dictionary (format version, M, atom samples)."""
    h = hashlib.sha256()
    h.update(f"{_FORMAT_NAME}:{_FORMAT_VERSION}:{len(d.atoms)}".encode())
    for atom in d.atoms:
        h.update(np.ascontiguousarray(atom.waveform, dtype="<f8").tobytes())
    return h.hexdigest()


def save_dict(d: Dictionary, path) -> None:
    """Write a dictionary as self-describing JSON; floats round-trip exactly."""
    doc = {
        "format": _FORMAT_NAME,
        "format_version": _FORMAT_VERSION,
        "m": len(d.atoms),
        "sample_rate_hint": d.sample_rate_hint,
        "pad_len": TAIL_LEN,  # not read back; kept so the file format is unchanged
        "provenance": d.provenance,
        "atoms": [a.waveform.tolist() for a in d.atoms],
    }
    # json.dumps encodes in C; json.dump streams through the Python encoder.
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")


def load_dict(path) -> Dictionary:
    """Read a dictionary written by save_dict; structured errors on bad files.

    The header needs an integer m >= 1 and a sample_rate_hint that
    Dictionary accepts. Atoms must be unit norm to within UNIT_NORM_TOL.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"malformed dictionary file {path!r}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT_NAME:
        raise DataFormatError(f"{path!r} is not a dictionary file")
    if doc.get("format_version") != _FORMAT_VERSION:
        raise DataFormatError(
            f"unsupported dictionary format version {doc.get('format_version')!r}"
        )
    m = doc.get("m")
    if type(m) is not int or m < 1:  # bool is an int subclass; type() rejects it
        raise DataFormatError(f"bad atom count m={m!r} in {path!r}")
    try:
        atoms = [Atom(np.asarray(w, dtype=np.float64)) for w in doc["atoms"]]
        d = Dictionary(
            atoms,
            sample_rate_hint=doc.get("sample_rate_hint"),
            provenance=doc.get("provenance", ""),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad dictionary contents in {path!r}: {exc}") from exc
    if m != len(d.atoms):
        raise DataFormatError(f"atom count mismatch in {path!r}")
    bad = _non_unit_atom(d)
    if bad is not None:
        raise DataFormatError(f"atom {bad} in {path!r} is not unit norm")
    return d
