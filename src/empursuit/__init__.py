"""Shift-invariant dictionary learning with equiprobable greedy pursuits.

Decomposes 1-D signals into events (atom, offset, coefficient) using four
greedy pursuit variants (mp, omp, emp, eomp), learns the atom waveforms by
gradient ascent over training blocks, and packs analysis utilities for
entropy, event-rate, denoising, and timing studies.
"""

from .dictionary import (
    Atom,
    Dictionary,
    dict_digest,
    extnorm,
    load_dict,
    randdict,
    save_dict,
)
from .errors import (
    DataFormatError,
    DegenerateSignalError,
    EmpursuitError,
    ZeroAtomError,
)
from .learner import (
    BlockRecord,
    LearnConfig,
    apply_update,
    atom_gradient,
    dlearn,
    write_trace,
)
from .metrics import (
    coeff_entropy,
    denoise_sweep,
    event_rates,
    index_entropy,
    p_sweep,
    profile_dictionary,
    profile_signal,
    timing_profile,
)
from .pursuit import (
    VARIANTS,
    PursuitConfig,
    SparseCode,
    SparseEvent,
    correlate_all,
    load_code,
    match,
    reconstruct,
    save_code,
)
from .signal_io import (
    Signal,
    add_noise,
    build_synth_signal,
    load_wav,
    next_block,
    save_wav,
    snr_db,
    synth_signal,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "BlockRecord",
    "DataFormatError",
    "DegenerateSignalError",
    "Dictionary",
    "EmpursuitError",
    "LearnConfig",
    "PursuitConfig",
    "Signal",
    "SparseCode",
    "SparseEvent",
    "VARIANTS",
    "ZeroAtomError",
    "add_noise",
    "apply_update",
    "atom_gradient",
    "build_synth_signal",
    "coeff_entropy",
    "correlate_all",
    "denoise_sweep",
    "dict_digest",
    "dlearn",
    "event_rates",
    "extnorm",
    "index_entropy",
    "load_code",
    "load_dict",
    "load_wav",
    "match",
    "next_block",
    "p_sweep",
    "randdict",
    "reconstruct",
    "save_code",
    "save_dict",
    "save_wav",
    "snr_db",
    "synth_signal",
    "profile_dictionary",
    "profile_signal",
    "timing_profile",
    "write_trace",
]
