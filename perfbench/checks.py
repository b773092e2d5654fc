"""Output checks, written against the file formats rather than the package.

Each check returns None for a good output or a one-line reason. The
reference outputs of a run (first event list per variant, first learned
dictionary) are kept so that later operations must reproduce them exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

from .workloads import LEARN_BLOCKS, P, Case, Op

IDENTITY_RTOL = 1e-9
NORM_TOL = 1e-9


def _events(path: str) -> tuple[str, np.ndarray, np.ndarray, np.ndarray]:
    with open(path) as fh:
        text = fh.read()
    rows = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if any(len(r) != 3 for r in rows):
        raise ValueError("malformed event record")
    atoms = np.array([int(r[0]) for r in rows], dtype=np.int64)
    offsets = np.array([int(r[1]) for r in rows], dtype=np.int64)
    coeffs = np.array([float(r[2]) for r in rows])
    return text, atoms, offsets, coeffs


def _digest(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


class Checker:
    """Validates each operation's files and remembers the reference outputs."""

    def __init__(self, case: Case):
        self.case = case
        self.reference: dict[tuple[str, int], str] = {}
        self.energy: dict[str, list[float]] = {}  # kind -> [input, miss] over segments
        self.learn_snr_db: float | None = None
        self.checked: dict[str, int] = {}

    def check(self, op: Op) -> str | None:
        try:
            problem = self._learn(op) if op.kind == "learn" else self._encode(op)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem is None:
            self.checked[op.kind] = self.checked.get(op.kind, 0) + 1
        return problem

    def snr_db(self, kind: str) -> float | None:
        """SNR of each kind's output, pooled over the encode segments."""
        if kind == "learn":
            return self.learn_snr_db
        if kind not in self.energy:
            return None
        signal, miss = self.energy[kind]
        return 10.0 * math.log10(signal / miss)

    def _first(self, op: Op, digest: str) -> bool | None:
        """True for the first output of (kind, segment), None if it differs from that."""
        key = (op.kind, op.segment)
        if key not in self.reference:
            self.reference[key] = digest
            return True
        return False if self.reference[key] == digest else None

    def _encode(self, op: Op) -> str | None:
        x = self.case.x[op.segment]
        n, waveforms = len(x), self.case.dictionary
        m = len(waveforms)
        text, atoms, offsets, coeffs = _events(op.out)
        residual = np.fromfile(op.residual, dtype="<f8")
        if len(residual) != n:
            return f"residual has {len(residual)} samples, input has {n}"
        lengths = np.array([len(w) for w in waveforms])
        if atoms.size and (
            atoms.min() < 0 or atoms.max() >= m or offsets.min() < 0
            or np.any(offsets + lengths[atoms] > n)
        ):
            return "event outside the dictionary or the window"
        approx = np.zeros(n)
        for a, o, c in zip(atoms, offsets, coeffs):
            approx[o : o + lengths[a]] += c * waveforms[a]
        err = float(np.linalg.norm(approx + residual - x))
        if not err <= IDENTITY_RTOL * float(np.linalg.norm(x)):
            return f"reconstruct(code) + residual misses the input by {err:.3e}"
        q = math.floor(P * n / m)
        counts = np.bincount(atoms, minlength=m)
        if op.kind in ("emp", "eomp"):
            if not np.all(counts == q):
                return f"per-atom counts {counts.min()}..{counts.max()}, quota {q}"
        elif counts.sum() != m * q:
            return f"{counts.sum()} events, budget M*Q = {m * q}"
        first = self._first(op, _digest(text))
        if first is None:
            return "event list differs from the run's first one"
        if first:
            total = self.energy.setdefault(op.kind, [0.0, 0.0])
            total[0] += float(np.dot(x, x))
            total[1] += float(np.dot(x - approx, x - approx))
        return None

    def _learn(self, op: Op) -> str | None:
        with open(op.out) as fh:
            doc = json.load(fh)
        atoms = [np.asarray(w, dtype=np.float64) for w in doc["atoms"]]
        m = self.case.sizes.m
        if len(atoms) != m:
            return f"learned {len(atoms)} atoms, asked for {m}"
        if not all(np.all(np.isfinite(w)) for w in atoms):
            return "learned atom is not finite"
        if not all(abs(np.linalg.norm(w) - 1.0) <= NORM_TOL for w in atoms):
            return "learned atom is not unit norm"
        with open(op.out + ".trace.csv", newline="") as fh:
            rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        if len(rows) != LEARN_BLOCKS:
            return f"trace has {len(rows)} rows, expected {LEARN_BLOCKS}"
        first = self._first(op, _digest(b"".join(w.astype("<f8").tobytes() for w in atoms)))
        if first is None:
            return "learned dictionary differs from the run's first one"
        if first:
            last = [float(r["snr_db"]) for r in rows[-max(1, len(rows) // 4) :]]
            self.learn_snr_db = sum(last) / len(last)
        return None
