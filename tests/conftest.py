"""Shared fixtures: small dictionaries and structured test signals."""

from __future__ import annotations

import numpy as np
import pytest

from empursuit.dictionary import Atom, Dictionary


@pytest.fixture
def tiny_dict() -> Dictionary:
    """Three short unit-norm atoms of different lengths."""
    rng = np.random.default_rng(1234)
    atoms = []
    for length in (5, 8, 8):
        w = rng.standard_normal(length)
        atoms.append(Atom(w / np.linalg.norm(w)))
    return Dictionary(atoms=atoms, sample_rate_hint=8000, provenance="fixture")


@pytest.fixture
def noise_signal() -> np.ndarray:
    rng = np.random.default_rng(99)
    return rng.standard_normal(400)
