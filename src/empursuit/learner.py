"""Block-alternating dictionary learning.

dlearn() draws a fixed number of seeded training blocks, sparse-codes each
one with the configured pursuit, then moves every selected atom along the
gradient of the block's squared-residual objective:

    phi_i  <-  extnorm( phi_i + (eta / var(r)) * g_i ),
    g_i = sum over the atom's events of a_j * r[tau_j : tau_j + L_i]

All of an atom's events in a block are accumulated into one increment and
one extnorm call, so the update is order-independent. The increments come
from one gather of every event's residual segment, after which each atom's
scaled segments are summed in event order. Atoms with no events in a block
are left untouched, which is why non-equiprobable pursuits can leave part
of the dictionary at its random initialization while the equiprobable ones
adapt every atom every block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionary import INIT_BODY_LEN, TAIL_LEN, Atom, Dictionary, _random_atom
from .dictionary import extnorm, randdict
from .errors import ZeroAtomError
from .metrics import clamp_db, write_table
from .pursuit import PursuitConfig, SparseCode, match
from .signal_io import Signal, next_block

__all__ = [
    "LearnConfig",
    "BlockRecord",
    "atom_gradient",
    "apply_update",
    "dlearn",
    "write_trace",
]

RESIDUAL_VAR_FLOOR = 1e-12
MIN_ATOM_LEN_CAP = INIT_BODY_LEN + 2 * TAIL_LEN  # a fresh random atom's length


@dataclass
class LearnConfig:
    """Dictionary size, pursuit settings, steplength, block count and block length."""

    m: int = 32
    p: float = 0.05
    eta: float = 1e-6
    variant: str = "emp"
    n_blocks: int = 100
    seed: int = 0  # seeds the initial dictionary and the block positions
    block_len: int | None = None  # default: min(len(signal), 16384) at run time
    max_atom_len: int | None = None  # default: max(block_len // 4, 70) at run time

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be >= 1")
        self.pursuit()  # checks p and variant
        if self.eta <= 0:
            raise ValueError("eta must be > 0")
        if self.n_blocks < 0:
            raise ValueError("n_blocks must be >= 0")
        if self.block_len is not None and self.block_len < 1:
            raise ValueError(f"block_len must be positive, got {self.block_len}")
        if self.max_atom_len is not None and self.max_atom_len < MIN_ATOM_LEN_CAP:
            raise ValueError(
                f"max_atom_len must be >= {MIN_ATOM_LEN_CAP}, the initial atom "
                f"length, got {self.max_atom_len}"
            )

    def pursuit(self) -> PursuitConfig:
        return PursuitConfig(variant=self.variant, p=self.p)


@dataclass
class BlockRecord:
    """One trace row: what a single training block did."""

    block: int
    signal_seconds: float
    snr_db: float
    residual_var: float
    event_counts: np.ndarray
    atom_lengths: list[int]


def atom_gradient(code: SparseCode, atom_lens: list[int]) -> list[np.ndarray]:
    """Gradient of -0.5*||residual||^2 w.r.t. every atom's samples, fixed code.

    Atom i's gradient, of length atom_lens[i], is the sum over its events of
    coefficient times the residual segment starting at the event offset;
    zero for an atom without events. Segments running past the residual
    end (possible after tail growth) are zero-extended. One gather takes
    every event's segment; each atom's rows are then added in event order,
    so the sums are those of a loop over the events.
    """
    if code.residual is None:
        raise ValueError("code carries no residual; re-encode before updating")
    grads = [np.zeros(n) for n in atom_lens]
    if not code.events:
        return grads
    atoms = np.array([ev.atom_index for ev in code.events])
    order = np.argsort(atoms, kind="stable")
    offsets = np.array([ev.offset for ev in code.events])[order]
    coefs = np.array([ev.coefficient for ev in code.events])[order]
    # Two columns at least: numpy sums a single column pairwise, not in order.
    width = max(max(atom_lens), 2)
    r = np.concatenate((code.residual, np.zeros(width)))
    rows = r[offsets[:, None] + np.arange(width)] * coefs[:, None]
    hi = 0
    for i, count in enumerate(np.bincount(atoms, minlength=len(atom_lens)).tolist()):
        lo, hi = hi, hi + count
        if count:
            n = atom_lens[i]
            grads[i] = rows[lo:hi, : max(n, 2)].sum(axis=0)[:n]
    return grads


def apply_update(
    dictionary: Dictionary,
    code: SparseCode,
    eta: float,
    rng: np.random.Generator,
    max_atom_len: int | None = None,
) -> Dictionary:
    """One gradient step on every atom the code selected.

    Each touched atom becomes extnorm(phi + eta * g / var(residual)), so it
    may grow by TAIL_LEN zeros per side up to max_atom_len; the variance
    estimate is floored at 1e-12. An atom driven to exactly zero is
    replaced with a fresh random atom drawn from rng.
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    if code.residual is None:
        raise ValueError("code carries no residual; re-encode before updating")
    var = max(float(np.var(code.residual)), RESIDUAL_VAR_FLOOR)
    grads = atom_gradient(code, [len(a.waveform) for a in dictionary.atoms])
    touched = {ev.atom_index for ev in code.events}
    new_atoms: list[Atom] = []
    for i, atom in enumerate(dictionary.atoms):
        if i not in touched:
            new_atoms.append(atom)
            continue
        stepped = Atom(atom.waveform + (eta / var) * grads[i])
        try:
            new_atoms.append(extnorm(stepped, max_len=max_atom_len))
        except ZeroAtomError:
            new_atoms.append(_random_atom(rng))
    return Dictionary(
        atoms=new_atoms,
        sample_rate_hint=dictionary.sample_rate_hint,
        provenance=dictionary.provenance,
    )


def dlearn(signal: Signal, cfg: LearnConfig) -> tuple[Dictionary, list[BlockRecord]]:
    """Alternate pursuit and atom updates over training blocks of the signal.

    Runs cfg.n_blocks blocks, block k drawn by next_block with (cfg.seed,
    k), so the result is a pure function of the signal and cfg, and the
    first k blocks of a run are the run with n_blocks = k. Raises
    ValueError before the first block if the block is longer than the
    signal or shorter than the atom length cap. With zero blocks the
    random initial dictionary is returned. Returns the dictionary and one
    record per block.
    """
    # Block and cap are validated positive, so `or` only replaces None.
    block_len = cfg.block_len or min(len(signal), 16384)
    if block_len > len(signal):
        raise ValueError(f"block_len {block_len} exceeds signal length {len(signal)}")
    max_atom_len = cfg.max_atom_len or max(block_len // 4, MIN_ATOM_LEN_CAP)
    if max_atom_len > block_len:  # an atom could outgrow the block
        raise ValueError(f"max_atom_len {max_atom_len} exceeds block_len {block_len}")
    sr = signal.sample_rate
    dictionary = randdict(cfg.m, seed=cfg.seed, sample_rate_hint=sr)
    trace: list[BlockRecord] = []
    rerand_rng = np.random.default_rng((cfg.seed, 0x5EED))
    pcfg = cfg.pursuit()

    for step in range(cfg.n_blocks):
        block = next_block(signal, block_len, cfg.seed, step)
        code = match(dictionary, block, pcfg)
        dictionary = apply_update(
            dictionary, code, cfg.eta, max_atom_len=max_atom_len, rng=rerand_rng
        )

        x2 = float(np.dot(block.samples, block.samples))
        r2 = float(np.dot(code.residual, code.residual))
        if x2 == 0.0:
            snr = float("nan")
        elif r2 == 0.0:
            snr = np.inf
        else:
            snr = 10.0 * np.log10(x2 / r2)
        counts = np.bincount([ev.atom_index for ev in code.events], minlength=cfg.m)
        trace.append(
            BlockRecord(
                block=step,
                signal_seconds=(step + 1) * block_len / sr,
                snr_db=float(snr),
                residual_var=float(np.var(code.residual)),
                event_counts=counts,
                atom_lengths=[len(a.waveform) for a in dictionary.atoms],
            )
        )
    return dictionary, trace


def write_trace(trace: list[BlockRecord], path, header: dict) -> None:
    """Write the trace as CSV, one row per block, ±120 dB SNR clamp."""
    columns = [
        "block", "signal_seconds", "snr_db", "residual_var",
        "min_atom_len", "max_atom_len", "event_counts",
    ]
    rows = [
        [
            rec.block,
            f"{rec.signal_seconds:.6f}",
            f"{clamp_db(rec.snr_db):.2f}",
            f"{rec.residual_var:.6e}",
            min(rec.atom_lengths),
            max(rec.atom_lengths),
            " ".join(str(c) for c in rec.event_counts),
        ]
        for rec in trace
    ]
    write_table(path, columns, rows, header)
