"""Greedy shift-invariant pursuit engine.

One loop realizes four pursuits. Each iteration picks the (atom, offset)
whose correlation with the residual has the largest magnitude, re-solves
coefficients over a local neighborhood, and subtracts the combined
contribution:

  variant  selection constraint          neighborhood
  mp       any atom                      the new event only
  omp      any atom                      new event + prior events with
                                         overlapping support
  emp      atoms below their quota       the new event only
  eomp     atoms below their quota       as omp

Every variant takes M*Q steps, Q = floor(p*N/M), unless a selection falls
below the floor first, so all four are equally sparse. emp/eomp also cap
each atom at Q selections per window: every atom ends at quota, and the
empirical index distribution is exactly uniform.

Correlations of every atom at every offset live in one table, built once
per window and then updated incrementally. The build is exact: one matmul
over the residual's sliding windows while the longest atom is shorter than
_OVERLAP_SAVE_LMAX (200 samples, a measured crossover), and from there on
overlap-save FFTs from the atom spectra that the update's
cross-correlations are built from anyway. After the build, a step that
subtracts chi times atom a at offset tau changes each correlation by chi
times a precomputed cross-correlation of atom a with that atom, so only
the offsets within reach of tau are touched, without re-reading the
residual (the MPTK update). Those cross-correlations are kept only at the
lags a step reaches, 8 * M * sum_i(Lmax - 1 + L_i) bytes, so a short atom
costs less than the longest one. A flat index makes the argmax cheap: per
block of BLOCK offsets, the largest |correlation| over all atoms and its
first position; each step recomputes only the blocks it touched. Exact
ties go to the lowest offset, then the lowest atom: the index's own
row-major order, so the search reads the winner off the top block's
position. An atom that reaches its quota is deactivated in the table,
which is the only place the quota is enforced: it leaves the index
lazily, block by block, so select() searches the live atoms alone without
a pass over the table.

A lone event's coefficient (every mp and emp step, and an omp/eomp step
that overlaps no prior event) is its correlation recomputed from the
residual, so it carries no round-off from the table. An omp/eomp
neighbourhood of several events is solved from the table alone, the local
Gram of LocOMP (Mailhe, Gribonval, Bimbot & Vandergheynst, ICASSP 2009):
the Gram matrix is read from the cross-correlations the update uses and
the right-hand side from the correlations themselves, so no shifted
waveform is built, and those increments carry the table's round-off.

The table update (daxpy) and the neighbourhood solve (dposv) call scipy's
f2py modules scipy.linalg._fblas and scipy.linalg._flapack, the modules
that scipy.linalg.blas and scipy.linalg.lapack re-export. They are loaded
from their files, after a plain ``import scipy`` has set up scipy's bundled
OpenBLAS, because importing scipy.linalg itself pulls in scipy's array-API
layer (with numpy.f2py, numpy.testing and numpy.ma): about 0.3 s and 22 MB
of every CLI process, which mostly runs one short pursuit. If a scipy
release moves or renames either file, importing this module raises
ImportError naming that scipy version.
"""

from __future__ import annotations

import bisect
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy

from .dictionary import Dictionary, _non_unit_atom, dict_digest
from .errors import DataFormatError
from .signal_io import MAX_WAV_SAMPLES, Signal, synth_signal

__all__ = [
    "VARIANTS",
    "PursuitConfig",
    "SparseEvent",
    "SparseCode",
    "StepInfo",
    "CorrelationTable",
    "correlate_all",
    "select",
    "neighborhood",
    "solve_neighborhood",
    "update_residual",
    "match",
    "reconstruct",
    "save_code",
    "load_code",
]


def _scipy_linalg_extension(name: str):
    """Module scipy.linalg.<name>, loaded without scipy.linalg's package init."""
    qualname = f"scipy.linalg.{name}"
    if qualname in sys.modules:
        return sys.modules[qualname]
    stem = os.path.join(os.path.dirname(scipy.__file__), "linalg", name)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.exists(stem + suffix):
            loader = importlib.machinery.ExtensionFileLoader(qualname, stem + suffix)
            spec = importlib.util.spec_from_loader(qualname, loader)
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            sys.modules[qualname] = module
            return module
    raise ImportError(f"scipy {scipy.__version__} has no extension module {qualname}")


_blas = _scipy_linalg_extension("_fblas")
_lapack = _scipy_linalg_extension("_flapack")

VARIANTS = ("mp", "omp", "emp", "eomp")
_EQUIPROBABLE = frozenset(("emp", "eomp"))
_LOCAL_LSQ = frozenset(("omp", "eomp"))

# Selections below this fraction of the initial residual norm terminate the
# pursuit instead of filling quotas with noise-level events.
SELECTION_FLOOR_RATIO = 1e-12
# Ridge scale for rank-deficient neighborhood Gram matrices.
RIDGE_RATIO = 1e-10
# Offsets per block of the correlation table's search index. Smaller blocks
# make each step's upkeep of the index cheaper and the argmax over the
# blocks dearer; 16 and 32 sped up mp but slowed learning at 32 atoms of 100.
BLOCK = 64
# Entries of the sliding-window copy the matmul table build multiplies at a
# time: 512 KB, small enough to stay in L2. That build takes at least one
# block of offsets a time, so past Lmax = 1024 a copy would hold
# BLOCK * Lmax entries, but from _OVERLAP_SAVE_LMAX on the build is spectral.
_WINDOW_ENTRIES = 1 << 16
# Lmax from which the table build correlates by overlap-save FFT,
# from X's atom spectra, instead of one matmul over the atoms zero-padded
# to Lmax. The matmul costs N * Lmax * M multiply-adds, the FFTs about
# N * M * log(Lmax). Whole table builds, X included, at M=32 on 4096
# samples, one BLAS thread, 2-core Xeon, medians of 60 interleaved builds,
# matmul vs overlap-save: Lmax 128 2.8 vs 3.5 ms, 192 5.2 vs 5.2, 200 5.3
# vs 5.2, 256 4.3 vs 3.7, 384 6.5 vs 4.9, 512 8.6 vs 6.5; L=100 on 16384
# samples 4.9 vs 12.3. A segment yields at least Lmax offsets, so this must
# be at least BLOCK.
_OVERLAP_SAVE_LMAX = 200


@dataclass
class PursuitConfig:
    """Variant and average selection probability p. Every variant takes M*Q
    steps, Q = floor(p*N/M), on N samples and M atoms, or stops at the floor."""

    variant: str = "emp"
    p: float = 0.05

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must be in (0, 1)")

    @property
    def equiprobable(self) -> bool:
        return self.variant in _EQUIPROBABLE

    def quota(self, window_len: int, m: int) -> int:
        """Per-atom selection quota Q = floor(p * N / M), in exact integers.

        p counts as the decimal it prints as, the one a user typed, as
        --p-grid's values do: Q is 116 at p=0.29, N=1600, M=4, where the
        binary product 0.29 * 1600 / 4 is 115.99999999999999.
        """
        mantissa, _, exponent = repr(float(self.p)).partition("e")
        whole, _, fraction = mantissa.partition(".")
        # p = digits / 10**places, with places > 0 since p < 1.
        places = len(fraction) - int(exponent or 0)
        return int(whole + fraction) * window_len // (m * 10**places)


@dataclass
class SparseEvent:
    """One pursuit selection: atom index, integer offset, coefficient."""

    atom_index: int
    offset: int
    coefficient: float
    # Set on the new event of a step whose Gram matrix Cholesky rejected, so
    # that step was solved with a ridge term; its earlier events stay unset.
    # An ill-conditioned solve that Cholesky accepts sets nothing.
    flagged: bool = False


@dataclass
class SparseCode:
    """Event list plus final residual for one window."""

    events: list[SparseEvent]
    residual: np.ndarray | None
    window_len: int
    variant: str = "mp"
    p: float | None = None
    sample_rate: int | None = None
    dict_digest: str | None = None


@dataclass
class StepInfo:
    """One match() step; residual is a live view of the residual after it."""

    atom_index: int
    offset: int
    chi: np.ndarray
    neighborhood: list[SparseEvent]
    residual: np.ndarray


def _corr_rows(x: np.ndarray, W: np.ndarray, out: np.ndarray) -> None:
    """Write correlations of every row of W with x at offsets 0..len(x)-L to out.

    out is offset-major: out[t, i] = <x[t : t + L], W[i]>. Computed as one
    matmul against a contiguous copy of x's sliding windows.
    """
    L = W.shape[1]
    stride = x.strides[0]
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(len(x) - L + 1, L), strides=(stride, stride)
    )
    np.matmul(np.ascontiguousarray(windows), W.T, out=out)


def _fft_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n: a length of numpy's fast FFT radices."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:
            best = min(best, p << (-(-n // p) - 1).bit_length())
            p *= 3
        p5 *= 5
    return best


def _cross_correlations(
    F: np.ndarray, lengths: Sequence[int]
) -> tuple[np.ndarray, list[int]]:
    """X[start[a] + k, i] = sum_s W[i, s] * W[a, s + k - (Lmax - 1)], and start.

    Atom a's rows hold, for every lag k it reaches, how a unit of atom a
    placed at offset tau changes every atom's correlation at offset
    tau + k - (Lmax-1). A step reaches the offsets tau - Lmax + 1 up to
    tau + L_a - 1, so atom a keeps lags 0..Lmax + L_a - 2 of the 2 Lmax - 1,
    stacked atom after atom from row start[a]: 8 * M * sum_a(Lmax - 1 + L_a)
    bytes. start is a plain list, for refresh()'s per-event reads. Built
    from F = rfft(W, nfft) at nfft = _fft_len(2 Lmax - 1), which avoids
    circular wrap-around (144 at Lmax 70, 200 at 100, the power of two at
    128, 256 and 512).
    """
    m = len(F)
    lmax = max(lengths)
    nfft = _fft_len(2 * lmax - 1)
    Fc = F.conj()
    rows = [lmax - 1 + length for length in lengths]
    start = list(itertools.accumulate(rows[:-1], initial=0))
    X = np.empty((sum(rows), m))
    for a, (s, length) in enumerate(zip(start, lengths)):
        c = np.fft.irfft(F[a] * Fc, nfft)  # c[i, d mod nfft]
        X[s : s + lmax - 1] = c[:, nfft - lmax + 1 :].T
        X[s + lmax - 1 : s + lmax - 1 + length] = c[:, :length].T
    return X, start


class CorrelationTable:
    """Sliding correlations of every atom with the residual.

    T[t, i] = <residual[t : t + L_i], waveform_i> for t <= N - L_i, held at
    0 past that limit so the search never picks an offset that does not
    fit. T is offset-major, (N - Lmin + 1) x M. Atoms sit zero-padded in one
    M x Lmax matrix, so every atom length shares one build and one update.
    The build is the only exact computation of T from the residual, by one
    of two methods chosen by Lmax. Below _OVERLAP_SAVE_LMAX it is one matmul
    of W against the residual's sliding windows, N * Lmax * M multiply-adds.
    From there on it is overlap-save: each segment of nfft residual samples
    is rFFT'd once, multiplied by every atom's conjugate spectrum (the one X
    is built from) and inverse-transformed in one batch, and the
    nfft - Lmax + 1 offsets whose circular correlation does not wrap fill T.

    refresh() applies each step incrementally: a residual change of -chi at
    offset tau by atom a moves row t of T by
    -chi * X[start[a] + t - tau + Lmax-1], one contiguous daxpy per
    neighborhood event over the offsets the event can reach. X holds the
    atoms' cross-correlations at the Lmax - 1 + L_a lags atom a's steps
    reach, atom after atom, read by refresh() and solve_neighborhood(),
    whose Gram entries are the lags between overlapping events. It costs
    8 * M * sum_i(Lmax - 1 + L_i) bytes (6.8 MB for 32 atoms of 128 to
    512 samples, against 8.4 MB at every lag for every atom) and is built
    once per table, by rFFTs of the smallest 2^a 3^b 5^c length
    >= 2 Lmax - 1.

    The search index is flat: Bm[b] is the largest |T| over all atoms at
    offsets b*BLOCK..(b+1)*BLOCK-1 and Bp[b] its first row-major position
    in the block (row * M + atom). A block's BLOCK*M entries are contiguous,
    so the build and each refresh (the blocks it touched) take one |T| into
    a scratch and one argmax per block. The build does so a chunk of whole
    blocks at a time, still in cache: one segment's offsets rounded down to
    whole blocks, or the offsets whose window copy fits _WINDOW_ENTRIES.
    T is a view of a buffer padded with zero rows to whole blocks; the pad
    follows every real offset, so no search picks it.

    deactivate() drops an atom lazily: it sets the atom's column of a
    0/-inf penalty tile that later refreshes add to |T|, and best()
    re-evaluates over live atoms any block whose top entry is dead before
    accepting it. So Bm[b] lies between the block's live-atom and all-atom
    maxima, and equals the former when its top entry is live: atoms only
    die, so a live top was the first live maximum when the block was last
    evaluated, and still is. Dead atoms' columns must still be updated: an
    omp/eomp neighbourhood can hold events of atoms already at quota, and
    solve_neighborhood() reads their right-hand side from those columns.
    That rules out any refresh that skips, masks or compacts dead columns.

    best() breaks ties by lowest offset, then lowest atom: T's row-major
    order, in which argmax takes the first maximum both over the blocks
    and inside each block. So when the top block's entry at Bp[b] is live,
    it is the winner.
    """

    def __init__(self, residual: np.ndarray, waveforms: Sequence[np.ndarray]):
        self.residual = residual
        self.lengths = [len(w) for w in waveforms]
        self.n = len(residual)
        m = len(waveforms)
        self.lmax = max(self.lengths)
        self.W = np.zeros((m, self.lmax))
        for i, w in enumerate(waveforms):
            self.W[i, : len(w)] = w
        nrows = self.n - min(self.lengths) + 1
        # Offsets from here on are past some atom's limit; the mask zeroes them.
        self._tail = self.n - self.lmax + 1
        limits = self.n - np.array(self.lengths)
        tail_rows = np.arange(self._tail, nrows)[:, None]
        self._tail_mask = (tail_rows <= limits[None, :]).astype(np.float64)
        nblocks = (nrows + BLOCK - 1) // BLOCK
        self._m = m
        self._nrows = nrows
        self._padded = np.zeros((nblocks * BLOCK, m))
        self.T = self._padded[:nrows]
        self.Bm = np.empty(nblocks)
        self.Bp = np.empty(nblocks, dtype=np.intp)
        self.live = np.ones(m, dtype=bool)
        self._nfft = _fft_len(2 * self.lmax - 1)
        self._spectra: np.ndarray | None = np.fft.rfft(self.W, self._nfft)
        self.X, self._xstart = _cross_correlations(self._spectra, self.lengths)
        # Per atom, for solve_neighborhood()'s gathers: its length, and the
        # flat position in X of its zero-lag row.
        self._atom_len = np.array(self.lengths, dtype=np.intp)
        self._xzero = (np.array(self._xstart, dtype=np.intp) + self.lmax - 1) * m
        self._flat = self._padded.reshape(-1)  # T and its pad, for BLAS
        self._blocks = self._padded.reshape(nblocks, BLOCK * m)  # one row a block
        self._xflat = self.X.reshape(-1)
        # Flat position of each block's first entry in the scratch, to read
        # Bm at Bp.
        self._block_starts = np.arange(nblocks) * (BLOCK * m)
        self._abs = np.empty((0, BLOCK * m))  # grows to one chunk or step's blocks
        self._penalty: np.ndarray | None = None  # scratch-sized, once an atom is dead
        # Chunks of whole blocks, so each chunk's maxima are taken while it
        # is still in cache.
        if self.lmax >= _OVERLAP_SAVE_LMAX:
            # Overlap-save correlates by conj(rfft(W)), X's spectra conjugated.
            np.conjugate(self._spectra, out=self._spectra)
            chunk = (self._nfft - self.lmax + 1) // BLOCK * BLOCK
        else:
            self._spectra = None  # the matmul build does not read them
            chunk = max(1, _WINDOW_ENTRIES // (self.lmax * BLOCK)) * BLOCK
        for lo in range(0, nrows, chunk):
            hi = min(lo + chunk, nrows) - 1
            self._recompute(lo, hi)
            self._update_maxima(lo, hi)

    def _recompute(self, lo: int, hi: int) -> None:
        """Exact correlations at offsets lo..hi, zero past each atom's limit.

        On the overlap-save path lo..hi spans at most nfft - Lmax + 1
        offsets, the rows of one segment's circular correlation that do
        not wrap around.
        """
        x = self.residual[lo : hi + self.lmax]
        if self._spectra is None:
            short = hi + self.lmax - self.n
            if short > 0:
                x = np.concatenate([x, np.zeros(short)])
            _corr_rows(x, self.W, self.T[lo : hi + 1])
        else:
            nfft = self._nfft  # rfft zero-pads x past the residual's end
            c = np.fft.irfft(np.fft.rfft(x, nfft) * self._spectra, nfft)
            self.T[lo : hi + 1] = c[:, : hi + 1 - lo].T
        self._zero_tail(lo, hi)

    def _zero_tail(self, lo: int, hi: int) -> None:
        """Reset entries past their atom's limit among offsets lo..hi."""
        lo = max(lo, self._tail)
        if hi >= lo:
            tail = self._tail
            self.T[lo : hi + 1] *= self._tail_mask[lo - tail : hi + 1 - tail]

    def _live_abs(self, b0: int, b1: int) -> np.ndarray:
        """|T| of blocks b0..b1-1 in the scratch, one row per block, with
        -inf at dead atoms' entries."""
        nb = b1 - b0
        if nb > len(self._abs):
            self._abs = np.empty((nb, BLOCK * self._m))
            if self._penalty is not None:
                self._penalty = np.zeros_like(self._abs)
                self._penalty.reshape(-1, self._m)[:, ~self.live] = -np.inf
        seg = np.abs(self._blocks[b0:b1], out=self._abs[:nb])
        if self._penalty is not None:
            seg += self._penalty[:nb]
        return seg

    def _update_maxima(self, lo: int, hi: int) -> None:
        """Recompute Bm and Bp over the blocks covering offsets lo..hi."""
        b0 = lo // BLOCK
        b1 = hi // BLOCK + 1
        seg = self._live_abs(b0, b1)
        pos = seg.argmax(axis=1)
        self.Bp[b0:b1] = pos
        pos += self._block_starts[: b1 - b0]
        self.Bm[b0:b1] = seg.take(pos)

    def refresh(
        self,
        t0: int,
        t1: int,
        psi: Sequence[SparseEvent],
        chi: Sequence[float],
    ) -> None:
        """Apply a step that changed residual[t0:t1) to the correlations.

        The step subtracted chi[j] times the atom of psi[j] at its offset;
        each such change is applied from the cross-correlation table, and
        the maxima of the blocks it reached are recomputed.
        """
        lmax = self.lmax
        nrows = self._nrows
        lo = t0 - lmax + 1 if t0 >= lmax else 0
        hi = t1 - 1 if t1 <= nrows else nrows - 1
        if lo > hi:
            return
        m = self._m
        lengths, xstart = self.lengths, self._xstart
        xflat, flat = self._xflat, self._flat
        for ev, c in zip(psi, chi):
            if c == 0.0:
                continue
            tau = ev.offset
            a = ev.atom_index
            r0 = tau - lmax + 1 if tau >= lmax else 0
            r1 = tau + lengths[a]
            if r1 > nrows:
                r1 = nrows
            # Positional daxpy(x, y, n, a, offx, incx, offy): y += a * x.
            _blas.daxpy(
                xflat, flat, (r1 - r0) * m, -float(c),
                (xstart[a] + r0 - tau + lmax - 1) * m, 1, r0 * m,
            )
        if hi >= self._tail:
            self._zero_tail(lo, hi)
        self._update_maxima(lo, hi)

    def deactivate(self, atom_index: int) -> None:
        """Drop an atom from the search (quota reached)."""
        self.live[atom_index] = False
        if self._penalty is None:
            self._penalty = np.zeros_like(self._abs)
        self._penalty[:, atom_index :: self._m] = -np.inf

    def best(self) -> tuple[float, int, int] | None:
        """Largest |c| over live atoms; (value, atom, offset) or None.

        Ties go to the lowest offset, then the lowest atom: the first
        maximum in T's row-major order, which is the order argmax keeps
        over the blocks and inside each block.
        """
        Bm, Bp, live, m = self.Bm, self.Bp, self.live, self._m
        while True:
            b = int(Bm.argmax())
            row, i = divmod(int(Bp[b]), m)
            if live[i]:
                return float(Bm[b]), i, b * BLOCK + row
            if not live.any():
                return None
            self._update_maxima(b * BLOCK, b * BLOCK)


def correlate_all(
    residual: np.ndarray, waveforms: Sequence[np.ndarray]
) -> CorrelationTable:
    """Build the full correlation table of every atom at every valid offset."""
    waveforms = [np.asarray(w, dtype=np.float64) for w in waveforms]
    residual = np.asarray(residual, dtype=np.float64)
    if len(residual) < max(len(w) for w in waveforms):
        raise ValueError("residual shorter than the longest atom")
    finite = [np.isfinite(residual).all()] + [np.isfinite(w).all() for w in waveforms]
    if not all(finite):
        raise ValueError("residual or atoms contain non-finite samples")
    return CorrelationTable(residual, waveforms)


def select(table: CorrelationTable, floor: float = 0.0) -> tuple[int, int] | None:
    """Pick the live (atom, offset) with max |correlation|, or None.

    Atoms at quota are not live: match() deactivates them in the table.
    Gives up when the best magnitude falls below the numeric floor.
    """
    found = table.best()
    if found is None:
        return None
    val, i, off = found
    if val < floor:
        return None
    return i, off


def neighborhood(
    starts: Sequence[tuple[int, int, int]], offset: int, end: int, lmax: int
) -> list[int]:
    """omp/eomp's prior events to re-solve with a new event at [offset, end).

    Returns the positions, ascending (selection order), of every prior
    event whose sample support intersects [offset, end). starts is the
    index searched for them: (offset, position, end of support) of every
    prior event, sorted; no atom is longer than lmax.
    """
    j0 = bisect.bisect_left(starts, (offset - lmax + 1, -1))
    j1 = bisect.bisect_left(starts, (end, -1))
    return sorted(pos for _, pos, e in starts[j0:j1] if e > offset)


def solve_neighborhood(
    offsets: np.ndarray, atoms: np.ndarray, table: CorrelationTable
) -> tuple[np.ndarray, bool]:
    """Least-squares coefficient increments for a neighbourhood's events.

    Event j places atom atoms[j] at offsets[j] (equal-length intp arrays).
    Returns (chi, ridged). The solve reads only the table: the Gram entry
    G[j, l] = <phi_j(. - tau_j), phi_l(. - tau_l)> is
    X[start[a_l] + tau_j - tau_l + Lmax - 1, a_j], and is 0 where the two
    supports do not overlap (every lag outside X's kept rows is such a
    lag); the right-hand side b_j = T[tau_j, a_j] is the event's current
    correlation with the residual, a dead atom's column included. One
    LAPACK dposv call (Cholesky, lower triangle) solves G chi = b. A Gram
    matrix that is not positive definite (e.g. the same atom and offset
    selected twice) is solved with a small ridge term instead, and
    reported via the flag.
    """
    if not len(offsets):
        raise ValueError("neighborhood is empty")
    shifted = offsets * table._m
    rows = shifted + atoms  # flat position of T[tau_j, a_j]
    cols = table._xzero.take(atoms) - shifted
    # rows[j] + cols[l] is X's flat position of G[j, l]. For a pair that
    # does not overlap it can lie in another atom's rows or outside X, so
    # it is clipped into X and its entry zeroed.
    G = table._xflat.take(np.add.outer(rows, cols), mode="clip")
    ends = offsets + table._atom_len.take(atoms)
    before = offsets[:, None] < ends  # tau_j < tau_l + L_l
    G *= before & before.T
    b = table._flat.take(rows)
    _, chi, info = _lapack.dposv(G, b, lower=1)
    if info == 0:
        return chi, False
    lam = RIDGE_RATIO * np.trace(G) / len(offsets)
    return np.linalg.solve(G + lam * np.eye(len(offsets)), b), True


def update_residual(
    residual: np.ndarray,
    psi: Sequence[SparseEvent],
    chi: Sequence[float],
    waveforms: Sequence[np.ndarray],
) -> tuple[int, int]:
    """Subtract the neighborhood's combined contribution, in place.

    Returns the changed interval [t0, t1) so correlation caches can be
    invalidated locally. The interval is contiguous because every
    neighborhood event overlaps the newest one. Each event is one BLAS
    daxpy into the residual, which must be a writeable, C-contiguous
    float64 array: any other array would be updated as a copy.
    """
    if residual.dtype != np.float64 or not residual.flags.carray:
        raise ValueError("residual must be a writeable, contiguous float64 array")
    t0 = len(residual)
    t1 = 0
    for ev, c in zip(psi, chi):
        if c == 0.0:
            continue
        w = waveforms[ev.atom_index]
        tau = ev.offset
        # Positional daxpy(x, y, n, a, offx, incx, offy): y += a * x.
        _blas.daxpy(w, residual, len(w), -float(c), 0, 1, tau)
        if tau < t0:
            t0 = tau
        if tau + len(w) > t1:
            t1 = tau + len(w)
    if t1 <= t0:
        return 0, 0
    return t0, t1


def match(
    dictionary: Dictionary,
    x: Signal | np.ndarray,
    config: PursuitConfig,
    on_step: Callable[[StepInfo], None] | None = None,
) -> SparseCode:
    """Run the configured pursuit over one window and return its sparse code.

    The input is reproduced exactly as reconstruct(code) + code.residual.
    Selections of an already-used (atom, offset) accumulate onto the same
    coordinates but count once each toward quota. on_step gets a StepInfo
    after each step, whose residual is a live view of the residual after it.
    """
    sample_rate = x.sample_rate if isinstance(x, Signal) else None
    samples = np.asarray(x.samples if isinstance(x, Signal) else x, dtype=np.float64)
    if not np.all(np.isfinite(samples)):
        raise ValueError("input contains non-finite samples")
    n = len(samples)
    waveforms = dictionary.waveforms
    lengths = [len(w) for w in waveforms]
    m = len(waveforms)
    if n < max(lengths):
        raise ValueError(
            f"window of {n} samples is shorter than the longest atom ({max(lengths)})"
        )
    bad = _non_unit_atom(dictionary)
    if bad is not None:
        raise ValueError(f"atom {bad} is not unit norm")

    q = config.quota(n, m)
    if q < 1:
        raise ValueError(f"quota floor(p*N/M) = {q} < 1; raise p or the window length")
    code = SparseCode(
        events=[],
        residual=samples.copy(),
        window_len=n,
        variant=config.variant,
        p=config.p,
        sample_rate=sample_rate,
        dict_digest=dict_digest(dictionary),
    )
    norm0 = float(np.linalg.norm(samples))
    if norm0 == 0.0:
        return code

    equiprobable = config.equiprobable
    counts = [0] * m  # selections per atom, kept by emp/eomp

    residual = code.residual
    events = code.events
    floor = SELECTION_FLOOR_RATIO * norm0
    table = correlate_all(residual, waveforms)
    local = config.variant in _LOCAL_LSQ
    # Kept by omp/eomp: the index neighborhood() searches, and every
    # event's offset and atom by position, for solve_neighborhood().
    starts: list[tuple[int, int, int]] = []
    offsets = np.empty(m * q if local else 0, dtype=np.intp)
    atoms = np.empty_like(offsets)
    lmax = max(lengths)
    prior: list[int] = []  # positions of the step's overlapping priors

    for k in range(m * q):
        picked = select(table, floor)
        if picked is None:
            break
        i, off = picked
        new_event = SparseEvent(i, off, 0.0)
        if local:
            end = off + lengths[i]
            prior = neighborhood(starts, off, end, lmax)
            bisect.insort(starts, (off, k, end))
            offsets[k] = off
            atoms[k] = i

        if prior:
            psi = [events[pos] for pos in prior] + [new_event]
            prior.append(k)
            at = np.array(prior, dtype=np.intp)
            chi, ridged = solve_neighborhood(offsets.take(at), atoms.take(at), table)
            if ridged:
                new_event.flagged = True
        else:
            psi = [new_event]
            # Unit-norm atom: the increment is its correlation, recomputed
            # from the residual so it carries no table round-off.
            chi = [float(np.dot(residual[off : off + lengths[i]], waveforms[i]))]
        for ev, c in zip(psi, chi):
            ev.coefficient += float(c)

        t0, t1 = update_residual(residual, psi, chi, waveforms)
        if t1 > t0:
            table.refresh(t0, t1, psi, chi)

        events.append(new_event)
        if equiprobable:
            counts[i] += 1
            if counts[i] >= q:
                table.deactivate(i)

        if on_step is not None:
            on_step(
                StepInfo(
                    atom_index=i,
                    offset=off,
                    chi=np.asarray(chi, dtype=np.float64),
                    neighborhood=psi,
                    residual=residual,
                )
            )
    return code


def reconstruct(code: SparseCode, dictionary: Dictionary) -> np.ndarray:
    """Sum of every event's scaled, shifted atom waveform.

    The events are placed by synth_signal's rule. A code that records the
    digest of the dictionary it was made with is rejected when given a
    different dictionary.
    """
    if code.dict_digest is not None:
        digest = dict_digest(dictionary)
        if digest != code.dict_digest:
            raise ValueError(
                f"code was made with a different dictionary (code digest "
                f"{code.dict_digest[:12]}, dictionary digest {digest[:12]})"
            )
    events = [(ev.atom_index, ev.offset, ev.coefficient) for ev in code.events]
    return synth_signal(dictionary.waveforms, events, code.window_len).samples


def save_code(code: SparseCode, path, residual_path=None) -> None:
    """Write a sparse code as line-oriented text records with a header."""
    with open(path, "w") as fh:
        fh.write("#format=empursuit-code\n")
        fh.write("#format_version=1\n")
        fh.write(f"#window_len={code.window_len}\n")
        fh.write(f"#variant={code.variant}\n")
        fh.write(f"#p={code.p if code.p is not None else ''}\n")
        fh.write(f"#sample_rate={code.sample_rate if code.sample_rate else ''}\n")
        fh.write(f"#dict_digest={code.dict_digest or ''}\n")
        for ev in code.events:
            fh.write(f"{ev.atom_index} {ev.offset} {ev.coefficient!r}\n")
    if residual_path is not None:
        if code.residual is None:
            raise ValueError("code has no residual to save")
        code.residual.astype("<f8").tofile(residual_path)


def load_code(path, residual_path=None) -> SparseCode:
    """Read a sparse code written by save_code.

    A malformed file raises DataFormatError: a bad record, a negative atom
    index or offset, an offset at or past the window length, a non-finite
    coefficient or residual sample, a header value that does not parse, a
    window length below 1 or above MAX_WAV_SAMPLES, a p outside (0, 1), a
    sample rate below 1, an unknown variant, or a residual of the wrong
    length. An event that overruns the window by its atom's length needs
    the dictionary to see: reconstruct() rejects it.
    """
    header: dict[str, str] = {}
    events: list[SparseEvent] = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, value = line[1:].partition("=")
                    header[key] = value
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise DataFormatError(f"bad code record {line!r} in {path!r}")
                atom_index, offset = int(parts[0]), int(parts[1])
                if atom_index < 0 or offset < 0:
                    raise DataFormatError(
                        f"negative atom index or offset in {line!r} in {path!r}"
                    )
                coefficient = float(parts[2])
                if not math.isfinite(coefficient):
                    raise DataFormatError(
                        f"non-finite coefficient in {line!r} in {path!r}"
                    )
                events.append(SparseEvent(atom_index, offset, coefficient))
    except FileNotFoundError:
        raise
    except (ValueError, OSError) as exc:
        raise DataFormatError(f"cannot parse code file {path!r}: {exc}") from exc
    if header.get("format") != "empursuit-code":
        raise DataFormatError(f"{path!r} is not a sparse-code file")
    if header.get("format_version") != "1":
        raise DataFormatError(
            f"unsupported code format version {header.get('format_version')!r}"
        )
    try:
        window_len = int(header.get("window_len", "0"))
        p = float(header["p"]) if header.get("p") else None
        sample_rate = int(header["sample_rate"]) if header.get("sample_rate") else None
    except ValueError as exc:
        raise DataFormatError(f"bad header value in {path!r}: {exc}") from exc
    if not 1 <= window_len <= MAX_WAV_SAMPLES:
        raise DataFormatError(f"bad window_len {window_len} in {path!r}")
    if p is not None and not 0.0 < p < 1.0:
        raise DataFormatError(f"bad p {p!r} in {path!r}: must lie in (0, 1)")
    if sample_rate is not None and sample_rate <= 0:
        raise DataFormatError(f"bad sample_rate {sample_rate} in {path!r}")
    variant = header.get("variant", "mp")
    if variant not in VARIANTS:
        raise DataFormatError(f"unknown variant {variant!r} in {path!r}")
    if any(ev.offset >= window_len for ev in events):
        raise DataFormatError(f"event offset past window_len {window_len} in {path!r}")
    residual = None
    if residual_path is not None:
        residual = np.fromfile(residual_path, dtype="<f8")
        if len(residual) != window_len:
            raise DataFormatError("residual file length does not match window_len")
        if not np.all(np.isfinite(residual)):
            raise DataFormatError(f"residual file {residual_path!r} is not finite")
    return SparseCode(
        events=events,
        residual=residual,
        window_len=window_len,
        variant=variant,
        p=p,
        sample_rate=sample_rate,
        dict_digest=header.get("dict_digest") or None,
    )
