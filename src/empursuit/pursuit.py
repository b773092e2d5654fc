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

Equiprobable variants (emp/eomp) cap each atom at Q = floor(p*N/M)
selections per window and stop when every atom is at quota, so the
empirical index distribution is exactly uniform. mp/omp default to an
iteration budget of M*Q so all four variants are equally sparse.

Correlations of every atom at every offset live in one table, built once
per window and then updated incrementally: a step that subtracts chi times
atom a at offset tau changes each correlation by chi times a precomputed
cross-correlation of atom a with that atom, so only the offsets within
reach of tau are touched, without re-reading the residual (the MPTK
update). An atom-major index of per-block maxima (BLOCK offsets a block)
makes the argmax cheap; each step recomputes only the blocks it touched.
An atom that reaches its quota is deactivated in the table, which is the
only place the quota is enforced: select() then searches the live atoms
alone. The winner's coefficient is recomputed from the residual, so it
carries no round-off from the table.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import blas as _blas
from scipy.linalg import lapack as _lapack

from .dictionary import Dictionary, dict_digest
from .errors import DataFormatError
from .signal_io import Signal

__all__ = [
    "VARIANTS",
    "PursuitConfig",
    "QuotaState",
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

VARIANTS = ("mp", "omp", "emp", "eomp")
_EQUIPROBABLE = frozenset(("emp", "eomp"))
_LOCAL_LSQ = frozenset(("omp", "eomp"))

# Selections below this fraction of the initial residual norm terminate the
# pursuit instead of filling quotas with noise-level events.
SELECTION_FLOOR_RATIO = 1e-12
# Ridge scale for rank-deficient neighborhood Gram matrices.
RIDGE_RATIO = 1e-10
# Offsets per block of the correlation table's maxima index. Smaller blocks
# make each step's block upkeep cheaper and its reduction of B to best_val
# dearer. On emp encodes of 16384 samples with 32 atoms of 100, 64 and 128
# took 55 ms, 32 and 256 took 59 and 61 ms.
BLOCK = 64
# Rows per group in the first stage of the block-maxima reduction.
_FOLD = 8
# Entries of the sliding-window copy _corr_rows matmuls at a time: 512 KB,
# small enough to stay in L2.
_WINDOW_ENTRIES = 1 << 16


@dataclass
class PursuitConfig:
    """Variant, average selection probability, and optional iteration cap."""

    variant: str = "emp"
    p: float = 0.05
    iteration_budget: int | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must be in (0, 1)")
        if self.iteration_budget is not None and self.iteration_budget < 0:
            raise ValueError("iteration_budget must be >= 0")

    @property
    def equiprobable(self) -> bool:
        return self.variant in _EQUIPROBABLE

    def quota(self, window_len: int, m: int) -> int:
        """Per-atom selection quota Q = floor(p * N / M)."""
        return int(math.floor(self.p * window_len / m))


@dataclass
class QuotaState:
    """Per-atom selection counters against a common quota."""

    counts: np.ndarray
    quota: int

    @classmethod
    def fresh(cls, m: int, quota: int) -> "QuotaState":
        return cls(np.zeros(m, dtype=np.int64), quota)


@dataclass
class SparseEvent:
    """One pursuit selection: atom index, integer offset, coefficient."""

    atom_index: int
    offset: int
    coefficient: float
    flagged: bool = False  # set when a ridge-stabilized solve touched it


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
    """Per-iteration telemetry passed to a match() observer callback."""

    k: int
    atom_index: int
    offset: int
    corr: float
    chi: np.ndarray
    neighborhood: list[SparseEvent]
    r2_before: float
    r2_after: float
    residual: np.ndarray


def _corr_rows(x: np.ndarray, W: np.ndarray, out: np.ndarray) -> None:
    """Write correlations of every row of W with x at offsets 0..len(x)-L to out.

    out is offset-major: out[t, i] = <x[t : t + L], W[i]>.

    Computed as chunked matmuls against contiguous sliding-window copies of
    at most _WINDOW_ENTRIES entries each.
    """
    L = W.shape[1]
    rows = len(x) - L + 1
    chunk = max(1, _WINDOW_ENTRIES // L)
    stride = x.strides[0]
    for s in range(0, rows, chunk):
        e = min(s + chunk, rows)
        seg = np.ascontiguousarray(
            np.lib.stride_tricks.as_strided(
                x[s:], shape=(e - s, L), strides=(stride, stride)
            )
        )
        np.matmul(seg, W.T, out=out[s:e])


def _cross_correlations(W: np.ndarray) -> np.ndarray:
    """X[a, k, i] = sum_s W[i, s] * W[a, s + k - (Lmax - 1)], zero-padded rows.

    Row a of X holds, for every lag k, how a unit of atom a placed at
    offset tau changes every atom's correlation at offset tau + k - (Lmax-1).
    Built by rFFT; the transform length avoids circular wrap-around.
    """
    m, lmax = W.shape
    nfft = 1 << (2 * lmax - 2).bit_length()
    F = np.fft.rfft(W, nfft)
    Fc = F.conj()
    X = np.empty((m, 2 * lmax - 1, m))
    for a in range(m):
        c = np.fft.irfft(F[a] * Fc, nfft)  # c[i, d mod nfft]
        X[a, : lmax - 1] = c[:, nfft - lmax + 1 :].T
        X[a, lmax - 1 :] = c[:, :lmax].T
    return X


class CorrelationTable:
    """Sliding correlations of every atom with the residual.

    T[t, i] = <residual[t : t + L_i], waveform_i> for t <= N - L_i, held at
    0 past that limit so the search never picks an offset that does not
    fit. T is offset-major, (N - Lmin + 1) x M, and rows[i] is the strided
    view of column i cut to its valid offsets. Atoms sit zero-padded in one
    M x Lmax matrix, so every atom length shares one matmul and one update.

    refresh() applies a step incrementally: a residual change of -chi at
    offset tau by atom a moves row t of T by -chi * X[a, t - tau + Lmax-1],
    one contiguous daxpy per neighborhood event over the offsets the event
    can reach. X, the atoms' cross-correlations at every lag, costs
    M^2 * (2 Lmax - 1) * 8 bytes (8 MB at M=32, Lmax=512) and is built once
    per table.

    B[i, b] is the largest |T| of atom i over offsets b*BLOCK..(b+1)*BLOCK-1,
    atom-major so that best_val, each live atom's largest |T|, is one
    contiguous reduction per atom. The build fills T a chunk of whole blocks
    at a time and takes each chunk's block maxima while it is still in
    cache, through a chunk-sized |T| scratch, never a full-size copy of |T|;
    best_val is reduced once at the end. After each step only the blocks the
    step touched are recomputed, by reductions whose inner loops run along
    rows of T. best() breaks ties by first occurrence: lowest atom index, then
    lowest offset. deactivate() drops an atom from the search (best_val
    -inf); its column is still updated.
    """

    def __init__(self, residual: np.ndarray, waveforms: Sequence[np.ndarray]):
        self.residual = residual
        self.lengths = [len(w) for w in waveforms]
        self.n = len(residual)
        m = len(waveforms)
        if max(self.lengths) > self.n:
            raise ValueError("atom longer than the analysis window")
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
        self.T = np.empty((nrows, m))
        self.B = np.empty((m, (nrows + BLOCK - 1) // BLOCK))
        self.live = np.ones(m, dtype=bool)
        self.best_val = np.full(m, -np.inf)
        self.rows = [self.T[: limits[i] + 1, i] for i in range(m)]
        self.X = _cross_correlations(self.W)
        self._tflat = self.T.reshape(-1)
        self._xflat = self.X.reshape(-1)
        self._abs = np.empty((0, m))  # grows to one chunk or step, not to T's size
        # Whole blocks whose window copy fits _WINDOW_ENTRIES, so each chunk's
        # maxima are taken while the chunk is still in cache.
        chunk = max(1, _WINDOW_ENTRIES // (self.lmax * BLOCK)) * BLOCK
        for lo in range(0, nrows, chunk):
            hi = min(lo + chunk, nrows) - 1
            self._recompute(lo, hi)
            self._update_maxima(lo, hi)
        self._set_best()

    def _recompute(self, lo: int, hi: int) -> None:
        """Exact correlations at offsets lo..hi, zero past each atom's limit."""
        x = self.residual[lo : hi + self.lmax]
        short = hi + self.lmax - self.n
        if short > 0:
            x = np.concatenate([x, np.zeros(short)])
        _corr_rows(x, self.W, self.T[lo : hi + 1])
        self._zero_tail(lo, hi)

    def _zero_tail(self, lo: int, hi: int) -> None:
        """Reset entries past their atom's limit among offsets lo..hi."""
        lo = max(lo, self._tail)
        if hi >= lo:
            tail = self._tail
            self.T[lo : hi + 1] *= self._tail_mask[lo - tail : hi + 1 - tail]

    def _update_maxima(self, lo: int, hi: int) -> None:
        """Recompute B over the blocks covering offsets lo..hi, not best_val.

        |T| of those blocks goes into the _abs scratch. A full block's BLOCK
        rows are reduced in two stages whose inner loops run along rows of
        T: first across its groups of _FOLD rows, an elementwise max over
        _FOLD*M contiguous entries, then across the _FOLD rows that remain.
        """
        b0 = lo // BLOCK
        span = self.T[b0 * BLOCK : (hi // BLOCK + 1) * BLOCK]
        if len(span) > len(self._abs):
            self._abs = np.empty_like(span)
        seg = np.abs(span, out=self._abs[: len(span)])
        m = seg.shape[1]
        full = len(seg) // BLOCK
        if full:
            folded = seg[: full * BLOCK].reshape(full, BLOCK // _FOLD, _FOLD * m)
            folded = folded.max(axis=1).reshape(full, _FOLD, m).max(axis=1)
            self.B[:, b0 : b0 + full] = folded.T
        if len(seg) > full * BLOCK:
            self.B[:, b0 + full] = seg[full * BLOCK :].max(axis=0)

    def _set_best(self) -> None:
        """Reduce B to best_val, each live atom's largest |T|."""
        self.B.max(axis=1, out=self.best_val)
        np.copyto(self.best_val, -np.inf, where=~self.live)

    def refresh(
        self,
        t0: int,
        t1: int,
        psi: Sequence[SparseEvent] | None = None,
        chi: np.ndarray | None = None,
    ) -> None:
        """Bring correlations up to date after residual[t0:t1) changed.

        With the step's neighborhood psi and increments chi, the change is
        applied from the cross-correlation table; without them the affected
        offsets are recomputed exactly from the residual.
        """
        lo = max(0, t0 - self.lmax + 1)
        hi = min(len(self.T) - 1, t1 - 1)
        if lo > hi:
            return
        if psi is None:
            self._recompute(lo, hi)
        else:
            m = len(self.lengths)
            span = 2 * self.lmax - 1
            for ev, c in zip(psi, chi):
                if c == 0.0:
                    continue
                tau = ev.offset
                r0 = max(0, tau - self.lmax + 1)
                r1 = min(len(self.T), tau + self.lengths[ev.atom_index])
                k0 = r0 - tau + self.lmax - 1
                _blas.daxpy(
                    self._xflat,
                    self._tflat,
                    n=(r1 - r0) * m,
                    a=-float(c),
                    offx=(ev.atom_index * span + k0) * m,
                    offy=r0 * m,
                )
            self._zero_tail(lo, hi)
        self._update_maxima(lo, hi)
        self._set_best()

    def deactivate(self, atom_index: int) -> None:
        """Drop an atom from the search (quota reached)."""
        self.live[atom_index] = False
        self.best_val[atom_index] = -np.inf

    def value(self, atom_index: int, offset: int) -> float:
        return float(self.T[offset, atom_index])

    def best(self) -> tuple[float, int, int] | None:
        """Largest |c| over live atoms; (value, atom, offset) or None."""
        vals = self.best_val
        i = int(vals.argmax())
        if vals[i] == -np.inf:
            return None
        b = int(self.B[i].argmax())
        off = b * BLOCK + int(np.abs(self.T[b * BLOCK : (b + 1) * BLOCK, i]).argmax())
        return float(vals[i]), i, off


def correlate_all(
    residual: np.ndarray, dictionary: Dictionary | Sequence[np.ndarray]
) -> CorrelationTable:
    """Build the full correlation table of every atom at every valid offset."""
    waveforms = (
        dictionary.waveforms
        if isinstance(dictionary, Dictionary)
        else [np.asarray(w, dtype=np.float64) for w in dictionary]
    )
    residual = np.asarray(residual, dtype=np.float64)
    if len(residual) < max(len(w) for w in waveforms):
        raise ValueError("residual shorter than the longest atom")
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


def _support_end(ev: SparseEvent, lengths: Sequence[int]) -> int:
    return ev.offset + lengths[ev.atom_index]


def neighborhood(
    events: Sequence[SparseEvent],
    new_event: SparseEvent,
    variant: str,
    atom_lengths: Sequence[int],
) -> list[SparseEvent]:
    """Events to re-solve jointly this iteration, new event last.

    mp/emp: the new event alone. omp/eomp: also every prior event whose
    sample support intersects the new event's support.
    """
    if variant not in _LOCAL_LSQ:
        return [new_event]
    start = new_event.offset
    end = _support_end(new_event, atom_lengths)
    psi = [
        ev
        for ev in events
        if ev.offset < end and _support_end(ev, atom_lengths) > start
    ]
    psi.append(new_event)
    return psi


def _psi_matrix(
    psi: Sequence[SparseEvent], waveforms: Sequence[np.ndarray]
) -> tuple[np.ndarray, int, int]:
    """Stack the neighborhood's shifted waveforms over their union interval."""
    u0 = min(ev.offset for ev in psi)
    u1 = max(ev.offset + len(waveforms[ev.atom_index]) for ev in psi)
    A = np.zeros((len(psi), u1 - u0))
    for j, ev in enumerate(psi):
        w = waveforms[ev.atom_index]
        A[j, ev.offset - u0 : ev.offset - u0 + len(w)] = w
    return A, u0, u1


def solve_neighborhood(
    psi: Sequence[SparseEvent],
    residual: np.ndarray,
    dictionary: Dictionary | Sequence[np.ndarray],
) -> tuple[np.ndarray, bool]:
    """Least-squares coefficient increments for the neighborhood columns.

    Returns (chi, ridged). One LAPACK dposv call (Cholesky, lower triangle)
    solves A A^T chi = A r over the neighborhood's shifted waveforms A. A
    Gram matrix that is not positive definite (e.g. the same atom and
    offset selected twice) is solved with a small ridge term instead, and
    reported via the flag.
    """
    if not psi:
        raise ValueError("neighborhood is empty")
    waveforms = (
        dictionary.waveforms if isinstance(dictionary, Dictionary) else dictionary
    )
    if len(psi) == 1:
        ev = psi[0]
        w = waveforms[ev.atom_index]
        seg = residual[ev.offset : ev.offset + len(w)]
        return np.array([np.dot(seg, w)]), False
    A, u0, u1 = _psi_matrix(psi, waveforms)
    G = A @ A.T
    b = A @ residual[u0:u1]
    _, chi, info = _lapack.dposv(G, b, lower=1)
    if info == 0:
        return chi, False
    lam = RIDGE_RATIO * np.trace(G) / len(psi)
    return np.linalg.solve(G + lam * np.eye(len(psi)), b), True


def update_residual(
    residual: np.ndarray,
    psi: Sequence[SparseEvent],
    chi: np.ndarray,
    dictionary: Dictionary | Sequence[np.ndarray],
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
    waveforms = (
        dictionary.waveforms if isinstance(dictionary, Dictionary) else dictionary
    )
    t0 = len(residual)
    t1 = 0
    for ev, c in zip(psi, chi):
        if c == 0.0:
            continue
        w = waveforms[ev.atom_index]
        _blas.daxpy(w, residual, n=len(w), a=-float(c), offy=ev.offset)
        t0 = min(t0, ev.offset)
        t1 = max(t1, ev.offset + len(w))
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
    coordinates but count once each toward quota.
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

    q = config.quota(n, m)
    if config.equiprobable and q < 1:
        raise ValueError(
            f"equiprobable quota floor(p*N/M) = {q} < 1; "
            "raise p or use a longer window"
        )
    quota = QuotaState.fresh(m, q)
    budget = config.iteration_budget
    if budget is None and not config.equiprobable:
        budget = m * q  # sparsity parity with the equiprobable variants

    residual = code.residual
    floor = SELECTION_FLOOR_RATIO * norm0
    table = correlate_all(residual, dictionary)
    local = config.variant in _LOCAL_LSQ
    # Event starts kept sorted for the overlap query; values are
    # (offset, position in code.events).
    starts: list[tuple[int, int]] = []
    max_len = max(lengths)
    # Residual energy for on_step, kept up to date from the span each step
    # changes. It is recomputed exactly whenever it halves, so its round-off
    # stays relative to its own size, at O(N) per halving.
    r2 = r2_exact = float(np.dot(residual, residual)) if on_step else 0.0

    k = 0
    while budget is None or k < budget:
        picked = select(table, floor)
        if picked is None:
            break
        i, off = picked
        # Recomputed from the residual so coefficients carry no table round-off.
        c0 = float(np.dot(residual[off : off + lengths[i]], waveforms[i]))
        new_event = SparseEvent(i, off, 0.0)

        if local and starts:
            end = off + lengths[i]
            j0 = bisect.bisect_left(starts, (off - max_len + 1, -1))
            j1 = bisect.bisect_left(starts, (end, -1))
            idxs = sorted(
                pos
                for s, pos in starts[j0:j1]
                if s + lengths[code.events[pos].atom_index] > off
            )
            psi = [code.events[pos] for pos in idxs]
            psi.append(new_event)
        else:
            psi = [new_event]

        if len(psi) == 1:
            # Unit-norm atom: the increment is the correlation itself.
            chi = np.array([c0])
            ridged = False
        else:
            chi, ridged = solve_neighborhood(psi, residual, waveforms)
        if ridged:
            new_event.flagged = True
        for ev, c in zip(psi, chi):
            ev.coefficient += float(c)

        if on_step is not None:
            u0 = min(ev.offset for ev in psi)
            u1 = max(_support_end(ev, lengths) for ev in psi)
            seg = residual[u0:u1]  # a view: holds the updated span afterwards
            r2_before = r2
            r2 -= float(np.dot(seg, seg))
        t0, t1 = update_residual(residual, psi, chi, waveforms)
        if t1 > t0:
            table.refresh(t0, t1, psi, chi)

        if local:
            bisect.insort(starts, (off, len(code.events)))
        code.events.append(new_event)
        quota.counts[i] += 1
        if config.equiprobable and quota.counts[i] >= q:
            table.deactivate(i)
        k += 1

        if on_step is not None:
            r2 += float(np.dot(seg, seg))
            if r2 < 0.5 * r2_exact:
                r2 = r2_exact = float(np.dot(residual, residual))
            on_step(
                StepInfo(
                    k=k,
                    atom_index=i,
                    offset=off,
                    corr=float(abs(c0)),
                    chi=np.asarray(chi, dtype=np.float64),
                    neighborhood=psi,
                    r2_before=r2_before,
                    r2_after=r2,
                    residual=residual,
                )
            )
    return code


def reconstruct(code: SparseCode, dictionary: Dictionary) -> np.ndarray:
    """Sum of every event's scaled, shifted atom waveform.

    A code that records the digest of the dictionary it was made with is
    rejected when given a different dictionary.
    """
    if code.dict_digest is not None:
        digest = dict_digest(dictionary)
        if digest != code.dict_digest:
            raise ValueError(
                f"code was made with a different dictionary (code digest "
                f"{code.dict_digest[:12]}, dictionary digest {digest[:12]})"
            )
    waveforms = dictionary.waveforms
    out = np.zeros(code.window_len)
    for ev in code.events:
        if not 0 <= ev.atom_index < len(waveforms):
            raise ValueError(
                f"event references atom {ev.atom_index} outside the dictionary"
            )
        w = waveforms[ev.atom_index]
        if ev.offset < 0 or ev.offset + len(w) > code.window_len:
            raise ValueError(
                f"event at offset {ev.offset} does not fit the window; "
                "code is stale for this dictionary"
            )
        out[ev.offset : ev.offset + len(w)] += ev.coefficient * w
    return out


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
    """Read a sparse code written by save_code."""
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
                events.append(SparseEvent(atom_index, offset, float(parts[2])))
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
        window_len = int(header["window_len"])
    except (KeyError, ValueError) as exc:
        raise DataFormatError(f"missing window_len in {path!r}") from exc
    residual = None
    if residual_path is not None:
        residual = np.fromfile(residual_path, dtype="<f8")
        if len(residual) != window_len:
            raise DataFormatError("residual file length does not match window_len")
    return SparseCode(
        events=events,
        residual=residual,
        window_len=window_len,
        variant=header.get("variant", "mp"),
        p=float(header["p"]) if header.get("p") else None,
        sample_rate=int(header["sample_rate"]) if header.get("sample_rate") else None,
        dict_digest=header.get("dict_digest") or None,
    )
