"""Shift-invariant dictionary learning with equiprobable greedy pursuits.

Decomposes 1-D signals into events (atom, offset, coefficient) using four
greedy pursuit variants (mp, omp, emp, eomp), learns the atom waveforms by
gradient ascent over training blocks, and packs analysis utilities for
entropy, event-rate, denoising, and timing studies.
"""

from . import dictionary, errors, learner, metrics, pursuit, signal_io
from .dictionary import *
from .errors import *
from .learner import *
from .metrics import *
from .pursuit import *
from .signal_io import *

__version__ = "0.1.0"

# The package exports what its modules export; each module's __all__ is the list.
__all__ = (
    dictionary.__all__
    + errors.__all__
    + learner.__all__
    + metrics.__all__
    + pursuit.__all__
    + signal_io.__all__
)
