"""The package's public names: one list per module, re-exported whole."""

from __future__ import annotations

import empursuit
from empursuit import dictionary, errors, learner, metrics, pursuit, signal_io

MODULES = (dictionary, errors, learner, metrics, pursuit, signal_io)


def test_package_exports_every_module_list_once():
    names = [name for module in MODULES for name in module.__all__]
    assert empursuit.__all__ == names
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(empursuit, name) is getattr(module, name), name


def test_no_previously_exported_name_is_lost():
    """The 42 names the package exported when it kept its own list, less
    p_sweep, which is deleted."""
    names = [
        "Atom", "BlockRecord", "DataFormatError", "DegenerateSignalError",
        "Dictionary", "EmpursuitError", "LearnConfig", "PursuitConfig", "Signal",
        "SparseCode", "SparseEvent", "VARIANTS", "ZeroAtomError", "add_noise",
        "apply_update", "atom_gradient", "build_synth_signal", "coeff_entropy",
        "correlate_all", "denoise_sweep", "dict_digest", "dlearn", "event_rates",
        "extnorm", "index_entropy", "load_code", "load_dict", "load_wav", "match",
        "next_block", "randdict", "reconstruct", "save_code",
        "save_dict", "save_wav", "snr_db", "synth_signal", "profile_dictionary",
        "profile_signal", "timing_profile", "write_trace",
    ]
    assert len(names) == 41
    missing = [n for n in names if n not in empursuit.__all__ or not hasattr(empursuit, n)]
    assert missing == []
