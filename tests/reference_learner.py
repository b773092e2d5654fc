"""Per-event gradient step used as a reference in tests.

The learner's update written as plain loops: each atom's gradient adds
coefficient times residual segment one event at a time, and the tail
growth and normalization use np.linalg.norm and np.mean. The engine
batches the gradients and trims numpy calls from extnorm, but must give
the same waveforms, byte for byte.
"""

from __future__ import annotations

import numpy as np

from empursuit.dictionary import (
    TAIL_LEN,
    TAIL_RMS_RATIO,
    Atom,
    Dictionary,
    _random_atom,
)
from empursuit.errors import ZeroAtomError
from empursuit.learner import RESIDUAL_VAR_FLOOR


def loop_gradient(code, atom_index: int, atom_len: int) -> np.ndarray:
    """Sum over the atom's events, in order, of coefficient times segment."""
    g = np.zeros(atom_len)
    r = code.residual
    n = len(r)
    for ev in code.events:
        if ev.atom_index != atom_index:
            continue
        seg = r[ev.offset : min(ev.offset + atom_len, n)]
        g[: len(seg)] += ev.coefficient * seg
    return g


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def loop_extnorm(atom: Atom, max_len: int | None = None) -> Atom:
    """Grow each loud tail by TAIL_LEN zeros, cap permitting, then normalize."""
    w = atom.waveform
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        raise ZeroAtomError("all-zero atom cannot be normalized")
    pad = TAIL_LEN
    threshold = TAIL_RMS_RATIO * (norm / np.sqrt(len(w)))
    grow_left = len(w) > pad and _rms(w[:pad]) > threshold
    grow_right = len(w) > pad and _rms(w[-pad:]) > threshold
    length = len(w)
    if grow_left and (max_len is None or length + pad <= max_len):
        w = np.concatenate([np.zeros(pad), w])
        length += pad
    if grow_right and (max_len is None or length + pad <= max_len):
        w = np.concatenate([w, np.zeros(pad)])
        length += pad
    return Atom(w / np.linalg.norm(w))


def loop_update(
    dictionary: Dictionary, code, eta: float, max_atom_len=None, rng=None
) -> Dictionary:
    """One gradient step per selected atom, one atom and one event at a time."""
    var = max(float(np.var(code.residual)), RESIDUAL_VAR_FLOOR)
    new_atoms = []
    for i, atom in enumerate(dictionary.atoms):
        if all(ev.atom_index != i for ev in code.events):
            new_atoms.append(atom)
            continue
        g = loop_gradient(code, i, len(atom.waveform))
        stepped = Atom(atom.waveform + (eta / var) * g)
        try:
            new_atoms.append(loop_extnorm(stepped, max_len=max_atom_len))
        except ZeroAtomError:
            if rng is None:
                raise
            new_atoms.append(_random_atom(rng))
    return Dictionary(
        atoms=new_atoms,
        sample_rate_hint=dictionary.sample_rate_hint,
        provenance=dictionary.provenance,
    )
