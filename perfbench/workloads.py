"""Workload inputs and the command lines the benchmark runs on them.

Every workload runs all five operation kinds, so every end-to-end metric
exists on every workload; each workload puts most of its time into the
layers it was chosen to stress:

- ``encode-long-atoms``: four atom lengths up to 512, so the table refresh
  (cost ~ L^2) and the per-length grouping of atoms dominate.
- ``learn``: the dictionary changes every block and atoms grow to mixed
  lengths, so the learner, ``correlate_all`` and select weigh most; its
  encodes code the planted signal with the planted atoms (one length,
  L=100, the single-length case).

There are two workloads, not three with a single-length ``encode`` of its
own: the host's speed drifts by 10-30% over tens of seconds to minutes, a
run averages over more of that drift the longer it is, and the time limit
on all runs allows runs of close to a minute only for two workloads.

The learn operations of the encode workload and the encodes of the learn
workload are small, so they add every metric without moving the cost
balance. The encodes cycle over several distinct input segments: a run
then times many operations, and its SNR averages over more signal than
one operation could cover in the time. Inputs are a pure function of the
seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from empursuit.dictionary import Atom, Dictionary, save_dict
from empursuit.metrics import profile_dictionary, profile_signal
from empursuit.signal_io import Signal, build_synth_signal, save_wav

VARIANTS = ("mp", "omp", "emp", "eomp")
WORKLOADS = ("encode-long-atoms", "learn")
P = 0.05
LEARN_ETA = "1e-4"
LEARN_BLOCKS = 20


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload.

    atom_lens: lengths of the encode dictionary, m // len(atom_lens) atoms
    each, coding profile signals; empty for a planted signal of m atoms of
    hidden_len samples, coded with those atoms.
    signal_len: samples of the signal the learn reads.
    encode_len: samples each encode reads.
    segments: distinct encode inputs. Each is its own profile signal, and
    the learn reads them joined; or consecutive pieces from the start of
    the planted signal.
    block_len: learn block length; each learn reads LEARN_BLOCKS blocks.
    learn_every: segments between learns in the operation cycle.
    """

    m: int
    atom_lens: tuple[int, ...]
    signal_len: int
    encode_len: int
    segments: int
    block_len: int
    learn_every: int
    hidden_len: int = 0


FULL = {
    "encode-long-atoms": Sizes(32, (128, 256, 384, 512), 8 * 4096, 4096, 8, 2048, 1),
    "learn": Sizes(32, (), 262144, 16384, 8, 16384, 2, hidden_len=100),
}
# Same shapes at a size that runs in well under a second: the warm-up
# before the timed operations, and the benchmark's own tests.
TINY = {
    "encode-long-atoms": Sizes(8, (16, 32, 48, 64), 2 * 2048, 2048, 2, 256, 1),
    "learn": Sizes(8, (), 8192, 2048, 2, 512, 2, hidden_len=40),
}


@dataclass(frozen=True)
class Op:
    """One CLI call: its kind (a variant or "learn"), argv and input size."""

    kind: str
    argv: tuple[str, ...]
    samples: int
    out: str
    residual: str = ""
    segment: int = 0


@dataclass
class Case:
    """Files written for one workload, plus what the checks compare against."""

    sizes: Sizes
    x: list[np.ndarray]  # encode inputs as the program reads them (float32 WAV)
    dictionary: list[np.ndarray]  # the encodes' atoms
    ops: list[Op]


def _dictionary(sizes: Sizes, seed: int) -> Dictionary:
    per = sizes.m // len(sizes.atom_lens)
    atoms = [
        atom
        for g, length in enumerate(sizes.atom_lens)
        for atom in profile_dictionary(per, length, seed=seed * len(sizes.atom_lens) + g).atoms
    ]
    return Dictionary(atoms, sample_rate_hint=16000, provenance=f"perfbench seed={seed}")


def _planted(sizes: Sizes, seed: int) -> tuple[Signal, list[np.ndarray]]:
    cfg = {
        "length": sizes.signal_len,
        "seed": seed,
        "noise_sigma": 0.01,
        "atoms": {"kind": "gaussian", "count": sizes.m, "length": sizes.hidden_len},
        "placements": {"kind": "poisson", "rate": 0.0016},
    }
    return build_synth_signal(cfg)


def prepare(seed: int, sizes: Sizes, workdir: str) -> Case:
    """Generate and write the workload's files; return the operation cycle."""
    os.makedirs(workdir, exist_ok=True)

    def path(name: str) -> str:
        return os.path.join(workdir, name)

    seed = seed % 2**32
    n = sizes.encode_len
    if sizes.atom_lens:
        dictionary = _dictionary(sizes, seed)
        pieces = [
            profile_signal(dictionary, n, seed=seed * sizes.segments + k)
            for k in range(sizes.segments)
        ]
        signal = Signal(np.concatenate([p.samples for p in pieces]), pieces[0].sample_rate)
    else:
        signal, hidden = _planted(sizes, seed)
        dictionary = Dictionary([Atom(w) for w in hidden], sample_rate_hint=signal.sample_rate)
        pieces = [
            Signal(signal.samples[k * n : (k + 1) * n], signal.sample_rate)
            for k in range(sizes.segments)
        ]
    encode_dict = path("dict.json")
    save_dict(dictionary, encode_dict)
    save_wav(signal, path("signal.wav"))
    x, encodes = [], []
    for k, piece in enumerate(pieces):
        save_wav(piece, path(f"encode-{k}.wav"))
        x.append(piece.samples.astype(np.float32).astype(np.float64))
        encodes.append(
            [
                Op(
                    v,
                    ("encode", "--input", path(f"encode-{k}.wav"), "--dict", encode_dict,
                     "--variant", v, "--out", path(f"{v}-{k}.code"),
                     "--residual", path(f"{v}-{k}.res")),
                    n,
                    path(f"{v}-{k}.code"),
                    path(f"{v}-{k}.res"),
                    k,
                )
                for v in VARIANTS
            ]
        )
    learn = Op(
        "learn",
        ("learn", "--input", path("signal.wav"), "--eta", LEARN_ETA,
         "--blocks", str(LEARN_BLOCKS), "--atoms", str(sizes.m),
         "--block-len", str(sizes.block_len), "--seed", str(seed),
         "--out", path("learned.json")),
        LEARN_BLOCKS * sizes.block_len,
        path("learned.json"),
    )
    # Learns spread through the cycle, so that they sample the host's speed
    # phases as evenly as the encodes do.
    every = sizes.learn_every
    ops = [op for k, seg in enumerate(encodes) for op in seg + [learn] * (k % every == every - 1)]
    return Case(sizes, x, dictionary.waveforms, ops)
