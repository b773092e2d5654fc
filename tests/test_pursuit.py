"""Pursuit engine: selection, neighborhoods, local solves, caching, codes."""

from __future__ import annotations

import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empursuit import pursuit
from empursuit.dictionary import Atom, Dictionary, randdict
from empursuit.errors import DataFormatError
from empursuit.metrics import profile_dictionary, profile_signal
from empursuit.pursuit import (
    SELECTION_FLOOR_RATIO,
    VARIANTS,
    CorrelationTable,
    PursuitConfig,
    SparseCode,
    SparseEvent,
    correlate_all,
    load_code,
    match,
    neighborhood,
    reconstruct,
    save_code,
    solve_neighborhood,
    update_residual,
)
from empursuit.signal_io import MAX_WAV_SAMPLES
from reference_pursuit import naive_match


def unit_waveforms(rng: np.random.Generator, m: int, max_len: int = 8) -> list[np.ndarray]:
    out = []
    for _ in range(m):
        length = int(rng.integers(3, max_len + 1))
        w = rng.standard_normal(length)
        out.append(w / np.linalg.norm(w))
    return out


def as_dictionary(waveforms: list[np.ndarray]) -> Dictionary:
    return Dictionary([Atom(w) for w in waveforms], sample_rate_hint=8000)


def planted_signal(
    rng: np.random.Generator, waveforms: list[np.ndarray], n: int, n_events: int
) -> np.ndarray:
    x = np.zeros(n)
    for _ in range(n_events):
        i = int(rng.integers(len(waveforms)))
        w = waveforms[i]
        off = int(rng.integers(0, n - len(w) + 1))
        x[off : off + len(w)] += float(rng.uniform(0.5, 1.5)) * w
    return x


def brute_force_best(table: CorrelationTable) -> tuple[float, int, int] | None:
    """Largest live |T|, lowest offset then lowest atom, by a full scan."""
    if not table.live.any():
        return None
    A = np.abs(table.T)
    A[:, ~table.live] = -np.inf
    top = A.max()
    off, i = min((int(t), int(j)) for t, j in np.argwhere(A == top))
    return float(top), i, off


def assert_index_bounds(table: CorrelationTable) -> None:
    """Each Bm[b] is the |T| entry at Bp[b] and lies between the block's
    largest live-atom |T| and its largest |T| over all atoms."""
    A = np.abs(table.T)
    m = A.shape[1]
    for b in range(len(table.Bm)):
        blk = A[b * pursuit.BLOCK : (b + 1) * pursuit.BLOCK]
        t, i = divmod(int(table.Bp[b]), m)
        assert table.Bm[b] == blk[t, i]
        assert blk[:, table.live].max(initial=-np.inf) <= table.Bm[b] <= blk.max()


def check_chunked_build(lengths: tuple[int, ...], n: int, monkeypatch) -> None:
    """Build a table in at least 3 chunks; T must equal np.correlate to
    1e-12, zeros past each atom's limit, and Bm, Bp and best() a full scan."""
    rng = np.random.default_rng(3019)
    waveforms = [rng.standard_normal(L) for L in lengths]
    waveforms = [w / np.linalg.norm(w) for w in waveforms]
    residual = rng.standard_normal(n)
    chunks = []
    recompute = CorrelationTable._recompute

    def spy(self, lo, hi):
        chunks.append((lo, hi))
        recompute(self, lo, hi)

    monkeypatch.setattr(CorrelationTable, "_recompute", spy)
    table = correlate_all(residual, waveforms)
    spectral = max(lengths) >= pursuit._OVERLAP_SAVE_LMAX
    assert (table._spectra is not None) == spectral
    assert len(chunks) >= 3
    A = np.abs(table.T)
    assert len(A) % pursuit.BLOCK != 0
    for i, w in enumerate(waveforms):
        want = np.correlate(residual, w, mode="valid")
        got = table.T[: len(want), i]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert not table.T[len(want) :, i].any()
    blocks = [A[s : s + pursuit.BLOCK] for s in range(0, len(A), pursuit.BLOCK)]
    np.testing.assert_array_equal(table.Bm, [blk.max() for blk in blocks])
    np.testing.assert_array_equal(table.Bp, [blk.argmax() for blk in blocks])
    top = A.max()
    i, off = min((int(j), int(t)) for t, j in np.argwhere(A == top))
    assert table.best() == (top, i, off)


def deactivate_every_atom(length: int, n: int) -> bool:
    """Deactivate 4 atoms, atom 2 ten times louder than the rest, one a
    select; every select must agree with a full scan. Returns whether a
    refresh grew the build's scratch, and with it the penalty tile."""
    rng = np.random.default_rng(3021)
    atoms = [w / np.linalg.norm(w) for w in rng.standard_normal((4, length))]
    atoms[2] = 10.0 * atoms[2]
    residual = rng.standard_normal(n)
    table = correlate_all(residual, atoms)
    built = len(table._abs)
    assert np.count_nonzero(table.Bp % 4 == 2) >= len(table.Bm) - 1
    for _ in range(4):
        found = table.best()
        assert found == brute_force_best(table)
        assert_index_bounds(table)
        _, i, off = found
        table.deactivate(i)
        psi, chi = [SparseEvent(i, off, 0.0)], [rng.uniform(0.5, 1.0)]
        table.refresh(*update_residual(residual, psi, chi, atoms), psi, chi)
        assert table._penalty.shape == table._abs.shape
    assert table.best() is None
    return len(table._abs) > built


class TestLinalgModules:
    def test_blas_and_lapack_are_scipys_own_modules(self):
        code = (
            "import scipy.linalg as la; "
            "print(la._fblas.__file__); print(la._flapack.__file__)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout.split("\n")
        assert [pursuit._blas.__file__, pursuit._lapack.__file__] == out[:2]

    def test_routines_are_the_ones_scipy_linalg_exports(self):
        import scipy.linalg

        assert pursuit._blas.daxpy is scipy.linalg.blas.daxpy
        assert pursuit._lapack.dposv is scipy.linalg.lapack.dposv


class TestPursuitConfig:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            PursuitConfig(variant="gmp")

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_p_out_of_range_rejected(self, p):
        with pytest.raises(ValueError):
            PursuitConfig(p=p)

    def test_quota_formula(self):
        assert PursuitConfig(p=0.05).quota(200_000, 32) == 312
        assert PursuitConfig(p=0.05).quota(1000, 32) == 1
        assert PursuitConfig(p=0.1).quota(64, 4) == 1

    @pytest.mark.parametrize(
        "p, n, m, q",
        [
            (0.29, 1600, 4, 116),  # 0.29 * 1600 / 4 = 115.99999999999999 in binary
            (0.29, 3200, 4, 232),
            (0.57, 6400, 8, 456),
            (0.7, 5760, 64, 63),
            (0.94, 68800, 32, 2021),
            (0.41, 19200, 64, 123),
            (0.05, 4096, 32, 6),
            (1e-05, 400_000, 4, 1),
            (2.5e-07, 16_000_000, 1, 4),
            (0.123456789, 10**9, 7, 17_636_684),
        ],
    )
    def test_quota_is_exact_for_the_decimal_p_prints_as(self, p, n, m, q):
        assert PursuitConfig(p=p).quota(n, m) == q

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(1, 99), n=st.integers(1, 10**7), m=st.integers(1, 256)
    )
    def test_quota_at_hundredths_is_integer_floor(self, k, n, m):
        assert PursuitConfig(p=k / 100).quota(n, m) == k * n // (100 * m)

    def test_equiprobable_flag(self):
        assert PursuitConfig(variant="emp").equiprobable
        assert PursuitConfig(variant="eomp").equiprobable
        assert not PursuitConfig(variant="mp").equiprobable
        assert not PursuitConfig(variant="omp").equiprobable


class TestReferenceEquivalence:
    """The cached engine replicates a from-scratch pursuit event for event."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_event_sequences_match_reference(self, variant):
        instances = 0
        for seed in range(25):
            rng = np.random.default_rng((seed, 3001))
            m = int(rng.integers(1, 5))
            waveforms = unit_waveforms(rng, m)
            n = int(rng.integers(64, 257))
            if seed % 2:
                x = planted_signal(rng, waveforms, n, n_events=int(rng.integers(3, 9)))
                x += 0.01 * rng.standard_normal(n)
            else:
                x = rng.standard_normal(n)
            p = float(rng.uniform(m / n * 1.5, 0.15))
            d = as_dictionary(waveforms)
            cfg = PursuitConfig(variant=variant, p=p)
            if cfg.quota(n, m) < 1:
                p = 1.2 * m / n
                cfg = PursuitConfig(variant=variant, p=p)
            code = match(d, x, cfg)
            ref_events, ref_residual = naive_match(waveforms, x, variant, p)
            got = [(ev.atom_index, ev.offset) for ev in code.events]
            want = [(ev["atom"], ev["offset"]) for ev in ref_events]
            assert got == want, f"seed={seed} variant={variant}"
            np.testing.assert_allclose(
                [ev.coefficient for ev in code.events],
                [ev["coeff"] for ev in ref_events],
                rtol=1e-9,
                atol=1e-12,
            )
            np.testing.assert_allclose(
                code.residual, ref_residual, rtol=1e-9, atol=1e-12
            )
            instances += 1
        assert instances == 25

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_event_sequences_match_reference_with_long_atoms(self, variant):
        """Atoms up to n/2 long: many offsets are valid for some atoms only."""
        for seed in range(6):
            rng = np.random.default_rng((seed, 3015))
            n = int(rng.integers(48, 97))
            m = int(rng.integers(2, 5))
            waveforms = unit_waveforms(rng, m, max_len=n // 2)
            x = planted_signal(rng, waveforms, n, n_events=3)
            x += 0.01 * rng.standard_normal(n)
            p = 3.0 * m / n
            cfg = PursuitConfig(variant=variant, p=p)
            code = match(as_dictionary(waveforms), x, cfg)
            ref_events, ref_residual = naive_match(waveforms, x, variant, p)
            got = [(ev.atom_index, ev.offset) for ev in code.events]
            want = [(ev["atom"], ev["offset"]) for ev in ref_events]
            assert got == want, f"seed={seed} variant={variant}"
            np.testing.assert_allclose(
                [ev.coefficient for ev in code.events],
                [ev["coeff"] for ev in ref_events],
                rtol=1e-9,
                atol=1e-12,
            )
            np.testing.assert_allclose(
                code.residual, ref_residual, rtol=1e-9, atol=1e-12
            )

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_event_sequences_match_reference_with_overlap_save_build(self, variant):
        """Atoms of 200-300 samples, at or past the crossover, on about 900
        samples: the table is built by overlap-save FFT."""
        for seed in range(3):
            rng = np.random.default_rng((seed, 3024))
            n = int(rng.integers(850, 951))
            lengths = rng.integers(200, 301, 3)
            assert lengths.max() >= pursuit._OVERLAP_SAVE_LMAX
            waveforms = [rng.standard_normal(L) for L in lengths]
            waveforms = [w / np.linalg.norm(w) for w in waveforms]
            x = planted_signal(rng, waveforms, n, n_events=5)
            x += 0.01 * rng.standard_normal(n)
            p = 3.0 * len(waveforms) / n
            cfg = PursuitConfig(variant=variant, p=p)
            code = match(as_dictionary(waveforms), x, cfg)
            ref_events, ref_residual = naive_match(waveforms, x, variant, p)
            got = [(ev.atom_index, ev.offset) for ev in code.events]
            want = [(ev["atom"], ev["offset"]) for ev in ref_events]
            assert len(got) == 9
            assert got == want, f"seed={seed} variant={variant}"
            np.testing.assert_allclose(
                [ev.coefficient for ev in code.events],
                [ev["coeff"] for ev in ref_events],
                rtol=1e-9,
                atol=1e-12,
            )
            np.testing.assert_allclose(
                code.residual, ref_residual, rtol=1e-9, atol=1e-12
            )

    @pytest.mark.parametrize("variant", ["omp", "eomp"])
    def test_large_neighborhoods_match_reference(self, variant):
        """Dense, overlapping atoms of 24-96 samples: solves of 10+ columns."""
        lengths = (24, 96, 40, 72)
        for seed in range(3):
            rng = np.random.default_rng((seed, 3018))
            waveforms = [rng.standard_normal(L) for L in lengths]
            waveforms = [w / np.linalg.norm(w) for w in waveforms]
            n = 320
            x = planted_signal(rng, waveforms, n, n_events=30)
            x += 0.05 * rng.standard_normal(n)
            sizes = []
            code = match(
                as_dictionary(waveforms),
                x,
                PursuitConfig(variant=variant, p=0.15),
                on_step=lambda info: sizes.append(len(info.neighborhood)),
            )
            ref_events, ref_residual = naive_match(waveforms, x, variant, 0.15)
            assert max(sizes) >= 10, f"seed={seed}"
            got = [(ev.atom_index, ev.offset) for ev in code.events]
            want = [(ev["atom"], ev["offset"]) for ev in ref_events]
            assert got == want, f"seed={seed} variant={variant}"
            np.testing.assert_allclose(
                [ev.coefficient for ev in code.events],
                [ev["coeff"] for ev in ref_events],
                rtol=1e-9,
                atol=1e-12,
            )
            np.testing.assert_allclose(
                code.residual, ref_residual, rtol=1e-9, atol=1e-12
            )

    def test_eomp_neighborhoods_holding_dead_atoms_match_reference(self):
        """eomp re-solves events of atoms already at quota: their right-hand
        side comes from the dead atoms' columns of the table, which the
        refresh must keep current."""
        lengths = (24, 96, 40, 72)
        for seed in range(2):
            rng = np.random.default_rng((seed, 3027))
            waveforms = [rng.standard_normal(L) for L in lengths]
            waveforms = [w / np.linalg.norm(w) for w in waveforms]
            x = planted_signal(rng, waveforms, 320, n_events=30)
            x += 0.05 * rng.standard_normal(320)
            q = PursuitConfig(p=0.1).quota(320, 4)
            counts = [0] * 4
            dead_in_solve = 0

            def on_step(info):
                nonlocal dead_in_solve
                if len(info.neighborhood) > 1:
                    prior = info.neighborhood[:-1]
                    dead_in_solve += any(counts[ev.atom_index] >= q for ev in prior)
                counts[info.atom_index] += 1

            cfg = PursuitConfig(variant="eomp", p=0.1)
            code = match(as_dictionary(waveforms), x, cfg, on_step=on_step)
            ref_events, ref_residual = naive_match(waveforms, x, "eomp", 0.1)
            assert dead_in_solve >= 1, f"seed={seed}"
            got = [(ev.atom_index, ev.offset) for ev in code.events]
            want = [(ev["atom"], ev["offset"]) for ev in ref_events]
            assert got == want, f"seed={seed}"
            np.testing.assert_allclose(
                [ev.coefficient for ev in code.events],
                [ev["coeff"] for ev in ref_events],
                rtol=1e-9,
                atol=1e-12,
            )
            np.testing.assert_allclose(
                code.residual, ref_residual, rtol=1e-9, atol=1e-12
            )

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_first_step_on_a_planted_tie_matches_reference(self, variant):
        """Atom 1 copies the spike at 20 to offset 18, atom 0 to offset 20:
        the earlier offset wins, though its atom is higher."""
        waveforms = [np.eye(3)[0], np.eye(3)[2]]
        x = np.zeros(64)
        x[20] = 1.0
        cfg = PursuitConfig(variant=variant, p=0.25)
        code = match(as_dictionary(waveforms), x, cfg)
        ref_events, ref_residual = naive_match(waveforms, x, variant, 0.25)
        got = [(ev.atom_index, ev.offset, ev.coefficient) for ev in code.events]
        want = [(ev["atom"], ev["offset"], ev["coeff"]) for ev in ref_events]
        assert got == want == [(1, 18, 1.0)]
        np.testing.assert_array_equal(code.residual, ref_residual)


class TestEnergyIdentity:
    def test_mp_energy_bookkeeping_every_iteration(self):
        """||r_{k-1}||^2 - ||r_k||^2 == chi_k^2 for plain MP steps."""
        worst = 0.0
        total = 0
        for seed in range(5):
            rng = np.random.default_rng((seed, 3002))
            waveforms = unit_waveforms(rng, 8, max_len=16)
            d = as_dictionary(waveforms)
            x = planted_signal(rng, waveforms, 2048, 40) + 0.05 * rng.standard_normal(2048)
            checks = []
            r2 = [float(np.dot(x, x))]

            def on_step(info):
                r2.append(float(np.dot(info.residual, info.residual)))
                drop = r2[-2] - r2[-1]
                checks.append(abs(drop - float(info.chi[0]) ** 2) / r2[-2])

            match(d, x, PursuitConfig(variant="mp", p=0.1), on_step=on_step)
            total += len(checks)
            worst = max(worst, max(checks))
        assert total >= 1000
        assert worst <= 1e-9

    def test_emp_energy_bookkeeping(self):
        rng = np.random.default_rng(3003)
        waveforms = unit_waveforms(rng, 4, max_len=12)
        d = as_dictionary(waveforms)
        x = rng.standard_normal(1024)
        errs = []
        r2 = [float(np.dot(x, x))]

        def on_step(info):
            r2.append(float(np.dot(info.residual, info.residual)))
            drop = r2[-2] - r2[-1]
            errs.append(abs(drop - float(info.chi[0]) ** 2) / r2[-2])

        match(d, x, PursuitConfig(variant="emp", p=0.1), on_step=on_step)
        assert errs and max(errs) <= 1e-9

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_residual_energy_falls_by_orders(self, variant):
        """||residual||^2 falls by five orders on a noiseless planted signal.

        omp/eomp explain it to round-off, through neighbourhoods of several
        events.
        """
        rng = np.random.default_rng(3007)
        waveforms = unit_waveforms(rng, 4, max_len=12)
        x = planted_signal(rng, waveforms, 400, 20)
        r2 = [float(np.dot(x, x))]

        def on_step(info):
            r2.append(float(np.dot(info.residual, info.residual)))

        cfg = PursuitConfig(variant=variant, p=0.5)
        match(as_dictionary(waveforms), x, cfg, on_step=on_step)
        assert r2[-1] < 1e-5 * r2[0]


class TestLocalOrthogonality:
    @pytest.mark.parametrize("variant", ["omp", "eomp"])
    def test_residual_orthogonal_to_neighborhood(self, variant):
        rng = np.random.default_rng(3004)
        waveforms = unit_waveforms(rng, 6, max_len=16)
        d = as_dictionary(waveforms)
        x = planted_signal(rng, waveforms, 1500, 60) + 0.05 * rng.standard_normal(1500)
        worst = 0.0
        steps = 0

        def on_step(info):
            nonlocal worst, steps
            rnorm = float(np.linalg.norm(info.residual))
            for ev in info.neighborhood:
                w = waveforms[ev.atom_index]
                seg = info.residual[ev.offset : ev.offset + len(w)]
                worst = max(worst, abs(float(np.dot(seg, w))) / rnorm)
            steps += 1

        match(d, x, PursuitConfig(variant=variant, p=0.08), on_step=on_step)
        assert steps > 100
        assert worst <= 1e-8


class TestShiftEquivariance:
    """A pursuit of [0^s, x] is the pursuit of [x, 0^s] moved by s, bit for bit.

    This holds for mp and emp because a lone event's increment is
    recomputed from the residual, which shifts exactly. The table it is
    selected from does not: T's entries move by up to 4.4e-16 between the
    two placements, on the matmul build (L = 64) and on the overlap-save
    build (L = 256). omp and eomp solve each neighbourhood from the table
    (Gram from X, right-hand side from T), so their increments carry that
    round-off, and an ill-conditioned neighbourhood can amplify it until
    the events part: at L = 256 and s = 1000, omp's events differ from
    step 446 of 456 on. They are outside this contract.
    """

    SHIFTS = (1, 37, 64, 192, 1000, 1029)

    @pytest.mark.parametrize("variant", ["mp", "emp"])
    @pytest.mark.parametrize("atom_len", [64, 256])
    def test_events_coefficients_and_residual_shift_exactly(self, atom_len, variant):
        d = profile_dictionary(8, atom_len, seed=0)
        x = profile_signal(d, 8192, seed=0).samples
        cfg = PursuitConfig(variant=variant)
        for s in self.SHIFTS:
            pad = np.zeros(s)
            tail = match(d, np.concatenate([x, pad]), cfg)
            head = match(d, np.concatenate([pad, x]), cfg)
            assert len(tail.events) == 8 * cfg.quota(8192 + s, 8)
            assert [(e.atom_index, e.offset + s, e.coefficient) for e in tail.events] == [
                (e.atom_index, e.offset, e.coefficient) for e in head.events
            ]
            np.testing.assert_array_equal(head.residual, np.roll(tail.residual, s))


class TestScaleEquivariance:
    """A pursuit of 2^k x is the pursuit of x with every value scaled by 2^k.

    Exact for all four variants on both table builds: a power-of-two scale
    commutes with rounding (no value here underflows or overflows), so every
    correlation, comparison and increment scales exactly. The Gram matrix
    and the ridge term come from the atoms alone, and the selection floor
    scales with ||x||, so no decision depends on the scale.
    """

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("atom_len", [64, 256])
    def test_events_coefficients_and_residual_scale_exactly(self, atom_len, variant):
        d = profile_dictionary(8, atom_len, seed=0)
        x = profile_signal(d, 8192, seed=0).samples
        cfg = PursuitConfig(variant=variant)
        base = match(d, x, cfg)
        for k in (-20, 3, 30):
            scaled = match(d, np.ldexp(x, k), cfg)
            assert [(e.atom_index, e.offset, e.flagged) for e in scaled.events] == [
                (e.atom_index, e.offset, e.flagged) for e in base.events
            ]
            assert [e.coefficient for e in scaled.events] == [
                np.ldexp(e.coefficient, k) for e in base.events
            ]
            np.testing.assert_array_equal(scaled.residual, np.ldexp(base.residual, k))


class TestQuotaExactness:
    @pytest.mark.parametrize("variant", ["emp", "eomp"])
    def test_counts_exactly_quota(self, variant):
        rng = np.random.default_rng(3005)
        waveforms = unit_waveforms(rng, 5, max_len=10)
        d = as_dictionary(waveforms)
        x = rng.standard_normal(2000)
        cfg = PursuitConfig(variant=variant, p=0.05)
        q = cfg.quota(2000, 5)
        code = match(d, x, cfg)
        counts = np.bincount([ev.atom_index for ev in code.events], minlength=5)
        assert list(counts) == [q] * 5
        assert len(code.events) == 5 * q

    @pytest.mark.parametrize("variant", ["mp", "omp"])
    def test_plain_variants_match_equiprobable_sparsity(self, variant):
        rng = np.random.default_rng(3006)
        waveforms = unit_waveforms(rng, 5, max_len=10)
        d = as_dictionary(waveforms)
        x = rng.standard_normal(2000)
        cfg = PursuitConfig(variant=variant, p=0.05)
        code = match(d, x, cfg)
        assert len(code.events) == 5 * cfg.quota(2000, 5)

    def test_quota_below_one_rejected(self):
        d = randdict(4, seed=0)
        x = np.random.default_rng(0).standard_normal(100)
        with pytest.raises(ValueError, match="quota"):
            match(d, x, PursuitConfig(variant="emp", p=0.01))

    @pytest.mark.parametrize("variant", ["mp", "omp"])
    def test_plain_variants_reject_quota_below_one(self, variant):
        """M*Q = 0 steps would be an empty code; every variant rejects it."""
        d = randdict(4, seed=0)
        x = np.random.default_rng(0).standard_normal(100)
        with pytest.raises(ValueError, match=r"quota floor\(p\*N/M\) = 0 < 1"):
            match(d, x, PursuitConfig(variant=variant, p=0.01))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_quota_below_one_rejected_on_a_zero_signal(self, variant):
        """The quota is checked before the input is looked at."""
        with pytest.raises(ValueError, match="quota"):
            match(randdict(4, seed=0), np.zeros(100), PursuitConfig(variant, p=0.01))


class TestReconstruction:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), variant=st.sampled_from(VARIANTS))
    def test_reconstruct_plus_residual_is_input(self, seed, variant):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        waveforms = unit_waveforms(rng, m)
        d = as_dictionary(waveforms)
        n = int(rng.integers(64, 257))
        x = rng.standard_normal(n)
        cfg = PursuitConfig(variant=variant, p=1.5 * m / n)
        code = match(d, x, cfg)
        err = np.linalg.norm(x - reconstruct(code, d) - code.residual)
        assert err <= 1e-10 * np.linalg.norm(x)

    def test_zero_signal_short_circuits(self, tiny_dict):
        code = match(tiny_dict, np.zeros(300), PursuitConfig(variant="mp", p=0.05))
        assert code.events == []
        assert not code.residual.any()

    def test_event_beyond_dictionary_rejected(self, tiny_dict):
        code = SparseCode(
            events=[SparseEvent(99, 0, 1.0)], residual=None, window_len=50
        )
        with pytest.raises(ValueError):
            reconstruct(code, tiny_dict)

    def test_negative_atom_index_rejected(self, tiny_dict):
        code = SparseCode(
            events=[SparseEvent(-1, 0, 1.0)], residual=None, window_len=50
        )
        with pytest.raises(ValueError, match="atom -1"):
            reconstruct(code, tiny_dict)

    def test_event_outside_window_rejected(self, tiny_dict):
        code = SparseCode(
            events=[SparseEvent(0, 48, 1.0)], residual=None, window_len=50
        )
        with pytest.raises(ValueError):
            reconstruct(code, tiny_dict)

    def test_non_finite_coefficient_rejected(self, tiny_dict):
        code = SparseCode(
            events=[SparseEvent(0, 0, np.nan)], residual=None, window_len=50
        )
        with pytest.raises(ValueError, match="non-finite"):
            reconstruct(code, tiny_dict)

    def test_code_from_another_dictionary_rejected(self, noise_signal):
        cfg = PursuitConfig(variant="mp", p=0.1)
        code = match(randdict(4, seed=1), noise_signal, cfg)
        with pytest.raises(ValueError, match="different dictionary"):
            reconstruct(code, randdict(4, seed=2))

    def test_code_without_digest_is_not_checked(self, noise_signal):
        cfg = PursuitConfig(variant="mp", p=0.1)
        code = match(randdict(4, seed=1), noise_signal, cfg)
        code.dict_digest = None
        other = randdict(4, seed=2)
        want = np.zeros(len(noise_signal))
        for ev in code.events:
            w = other.waveforms[ev.atom_index]
            want[ev.offset : ev.offset + len(w)] += ev.coefficient * w
        np.testing.assert_array_equal(reconstruct(code, other), want)


class TestSelectionFloor:
    def test_fully_explained_signal_stops_early(self):
        w = np.zeros(8)
        w[2:6] = [0.5, -0.5, 0.5, -0.5]
        w /= np.linalg.norm(w)
        d = Dictionary([Atom(w)])
        x = np.zeros(256)
        x[100:108] = 2.0 * w
        code = match(d, x, PursuitConfig(variant="mp", p=0.2))
        assert [(ev.atom_index, ev.offset) for ev in code.events] == [(0, 100)]
        assert code.events[0].coefficient == pytest.approx(2.0)
        assert np.linalg.norm(code.residual) <= 1e-12


def start_index(events: list[SparseEvent], lengths: list[int]) -> list[tuple[int, int, int]]:
    """neighborhood()'s index as match() keeps it: sorted (offset, position, end)."""
    return sorted(
        (ev.offset, k, ev.offset + lengths[ev.atom_index]) for k, ev in enumerate(events)
    )


def solve(psi: list[SparseEvent], table: CorrelationTable) -> tuple[np.ndarray, bool]:
    """solve_neighborhood() on psi's offsets and atoms, as match() gathers them."""
    offsets = np.array([ev.offset for ev in psi], dtype=np.intp)
    atoms = np.array([ev.atom_index for ev in psi], dtype=np.intp)
    return solve_neighborhood(offsets, atoms, table)


def lstsq_increments(
    psi: list[SparseEvent], residual: np.ndarray, waveforms: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The neighbourhood's shifted waveforms' Gram matrix, and the least-squares
    fit of the residual by them."""
    u0 = min(ev.offset for ev in psi)
    u1 = max(ev.offset + len(waveforms[ev.atom_index]) for ev in psi)
    A = np.zeros((len(psi), u1 - u0))
    for j, ev in enumerate(psi):
        w = waveforms[ev.atom_index]
        A[j, ev.offset - u0 : ev.offset - u0 + len(w)] = w
    want, *_ = np.linalg.lstsq(A.T, residual[u0:u1], rcond=None)
    return A @ A.T, want


class TestNeighborhood:
    def test_local_variants_take_overlapping_priors(self):
        """Positions come back in selection order, not in offset order."""
        lengths = [5, 5]
        prior = [
            SparseEvent(1, 6, 1.0),  # support [6, 11) overlaps [4, 9)
            SparseEvent(1, 9, 1.0),  # support [9, 14) touches but no overlap
            SparseEvent(0, 0, 1.0),  # support [0, 5) overlaps
        ]
        assert neighborhood(start_index(prior, lengths), 4, 9, 5) == [0, 2]

    def test_adjacent_supports_do_not_overlap(self):
        prior = [SparseEvent(0, 0, 1.0)]
        assert neighborhood(start_index(prior, [5]), 5, 10, 5) == []


class TestSolveNeighborhood:
    def test_matches_lstsq(self):
        rng = np.random.default_rng(3007)
        waveforms = unit_waveforms(rng, 3, max_len=6)
        residual = rng.standard_normal(40)
        psi = [SparseEvent(0, 2, 0.0), SparseEvent(1, 4, 0.0), SparseEvent(2, 6, 0.0)]
        chi, ridged = solve(psi, correlate_all(residual, waveforms))
        assert not ridged
        _, want = lstsq_increments(psi, residual, waveforms)
        np.testing.assert_allclose(chi, want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize(
        "lengths, n", [((9, 40, 23, 40), 200), ((30, 260, 130, 260), 700)],
        ids=["matmul-build", "overlap-save-build"],
    )
    def test_matches_lstsq_with_mixed_lengths(self, lengths, n):
        """Every atom, the longest twice, at offsets on both sides of each
        other, on both table builds: lags of either sign, within reach."""
        rng = np.random.default_rng((3025, n))
        waveforms = [rng.standard_normal(L) for L in lengths]
        waveforms = [w / np.linalg.norm(w) for w in waveforms]
        residual = rng.standard_normal(n)
        table = correlate_all(residual, waveforms)
        assert (table._spectra is not None) == (max(lengths) >= pursuit._OVERLAP_SAVE_LMAX)
        mid = n // 3
        psi = [
            SparseEvent(1, mid, 0.0),
            SparseEvent(0, mid + lengths[1] - 2, 0.0),
            SparseEvent(2, mid - lengths[2] + 1, 0.0),
            SparseEvent(3, mid + 7, 0.0),
            SparseEvent(0, mid + 1, 0.0),
        ]
        chi, ridged = solve(psi, table)
        assert not ridged
        _, want = lstsq_increments(psi, residual, waveforms)
        np.testing.assert_allclose(chi, want, rtol=1e-9, atol=1e-12)

    def test_pair_beyond_each_others_reach_has_zero_gram(self, monkeypatch):
        """Two short events at either end of a long new event do not overlap
        each other, 44 samples apart: past the Lmax - 1 = 39 lags back and the
        L = 10 lags forward that X keeps, so their Gram entries are exactly 0
        and not read from a neighbouring atom's rows of X."""
        rng = np.random.default_rng(3026)
        waveforms = [rng.standard_normal(L) for L in (10, 40)]
        waveforms = [w / np.linalg.norm(w) for w in waveforms]
        residual = rng.standard_normal(200)
        table = correlate_all(residual, waveforms)
        psi = [SparseEvent(0, 95, 0.0), SparseEvent(0, 139, 0.0), SparseEvent(1, 100, 0.0)]
        grams = []
        dposv = pursuit._lapack.dposv

        def spy(G, b, lower):
            grams.append(G.copy())
            return dposv(G, b, lower=lower)

        monkeypatch.setattr(pursuit, "_lapack", SimpleNamespace(dposv=spy))
        chi, ridged = solve(psi, table)
        assert not ridged
        (G,) = grams
        assert G[0, 1] == 0.0 and G[1, 0] == 0.0
        gram, want = lstsq_increments(psi, residual, waveforms)
        np.testing.assert_allclose(G, gram, rtol=0, atol=1e-14)
        np.testing.assert_allclose(chi, want, rtol=1e-9, atol=1e-12)

    def test_duplicate_event_triggers_ridge(self):
        rng = np.random.default_rng(3008)
        w = rng.standard_normal(5)
        w /= np.linalg.norm(w)
        residual = rng.standard_normal(20)
        psi = [SparseEvent(0, 3, 0.0), SparseEvent(0, 3, 0.0)]
        chi, ridged = solve(psi, correlate_all(residual, [w]))
        assert ridged
        assert np.all(np.isfinite(chi))

    def test_empty_neighborhood_rejected(self):
        table = correlate_all(np.ones(10), [np.ones(2) / np.sqrt(2)])
        with pytest.raises(ValueError):
            solve([], table)

    def test_singleton_is_plain_correlation(self):
        rng = np.random.default_rng(3009)
        w = rng.standard_normal(6)
        w /= np.linalg.norm(w)
        residual = rng.standard_normal(30)
        chi, ridged = solve([SparseEvent(0, 7, 0.0)], correlate_all(residual, [w]))
        assert not ridged
        assert chi[0] == pytest.approx(float(np.dot(residual[7:13], w)), rel=1e-12)


class TestUpdateResidual:
    def test_subtracts_in_place_and_reports_interval(self):
        rng = np.random.default_rng(3010)
        w0 = rng.standard_normal(4)
        w1 = rng.standard_normal(6)
        residual = rng.standard_normal(30)
        want = residual.copy()
        psi = [SparseEvent(0, 5, 0.0), SparseEvent(1, 7, 0.0)]
        chi = np.array([1.5, -0.5])
        t0, t1 = update_residual(residual, psi, chi, [w0, w1])
        want[5:9] -= 1.5 * w0
        want[7:13] -= -0.5 * w1
        assert (t0, t1) == (5, 13)
        np.testing.assert_allclose(residual, want)

    def test_zero_coefficients_touch_nothing(self):
        residual = np.ones(10)
        psi = [SparseEvent(0, 2, 0.0)]
        t0, t1 = update_residual(residual, psi, np.array([0.0]), [np.ones(3)])
        assert (t0, t1) == (0, 0)
        np.testing.assert_array_equal(residual, np.ones(10))

    @pytest.mark.parametrize(
        "residual",
        [
            np.ones(20)[::2],
            np.ones(10, dtype=np.float32),
            np.frombuffer(np.ones(10).tobytes()),
        ],
        ids=["strided", "float32", "read-only"],
    )
    def test_residual_that_cannot_be_updated_in_place_rejected(self, residual):
        """A BLAS update of such an array would change a copy, not the array."""
        before = residual.copy()
        psi = [SparseEvent(0, 2, 0.0)]
        with pytest.raises(ValueError, match="contiguous float64"):
            update_residual(residual, psi, np.array([1.0]), [np.ones(3)])
        np.testing.assert_array_equal(residual, before)


class TestCorrelationTable:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_rows_match_direct_correlation(self, seed):
        rng = np.random.default_rng(seed)
        waveforms = unit_waveforms(rng, int(rng.integers(1, 5)))
        residual = rng.standard_normal(int(rng.integers(32, 129)))
        table = correlate_all(residual, waveforms)
        for i, w in enumerate(waveforms):
            want = np.correlate(residual, w, mode="valid")
            got = table.T[: len(residual) - len(w) + 1, i]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("lmax", [70, 130, 257])
    def test_cross_correlations_match_direct_correlation(self, lmax):
        """X at a transform length that is not a power of two (144, 270, 540).

        Atom a keeps the first Lmax + L_a - 1 lags of the full correlation,
        from row start[a], and the lags it drops are exactly 0 there.
        """
        nfft = pursuit._fft_len(2 * lmax - 1)
        assert nfft & (nfft - 1) != 0
        rng = np.random.default_rng((3020, lmax))
        lengths = [lmax // 2, lmax, 7]
        W = np.zeros((3, lmax))
        for i, length in enumerate(lengths):
            w = rng.standard_normal(length)
            W[i, :length] = w / np.linalg.norm(w)
        X, start = pursuit._cross_correlations(np.fft.rfft(W, nfft), lengths)
        kept = [lmax - 1 + length for length in lengths]
        assert X.nbytes == 8 * 3 * sum(kept)
        assert type(start) is list and start == [0, kept[0], kept[0] + kept[1]]
        for a in range(3):
            for i in range(3):
                want = np.correlate(W[a], W[i], mode="full")
                got = X[start[a] : start[a] + kept[a], i]
                np.testing.assert_allclose(got, want[: kept[a]], rtol=0, atol=1e-12)
                assert not want[kept[a] :].any()

    def test_fft_len_is_the_smallest_5_smooth_length(self):
        def smooth(k):
            for q in (2, 3, 5):
                while k % q == 0:
                    k //= q
            return k == 1

        want = 4096  # itself 2^12
        for n in range(4096, 0, -1):
            if smooth(n):
                want = n
            assert pursuit._fft_len(n) == want, n

    def test_refresh_tracks_local_edit(self):
        """Mixed lengths on the matmul build (Lmax 40) and the overlap-save
        build (Lmax 260): after each of two lone mp steps, by a long atom
        and a short one, and after an omp step whose neighbourhood holds
        both and the new event, by the shortest atom."""
        rng = np.random.default_rng(3011)
        for lengths, n in (((9, 40, 23, 40), 200), ((30, 260, 130, 260), 700)):
            waveforms = [rng.standard_normal(L) for L in lengths]
            waveforms = [w / np.linalg.norm(w) for w in waveforms]
            residual = rng.standard_normal(n)
            table = correlate_all(residual, waveforms)
            spectral = max(lengths) >= pursuit._OVERLAP_SAVE_LMAX
            assert (table._spectra is not None) == spectral
            mid = n // 2
            events = [SparseEvent(1, mid, 0.0), SparseEvent(2, mid + 3, 0.0)]
            new_event = SparseEvent(0, mid + 5, 0.0)
            starts = start_index(events, list(lengths))
            prior = neighborhood(starts, mid + 5, mid + 5 + lengths[0], max(lengths))
            assert prior == [0, 1]
            omp = [events[pos] for pos in prior] + [new_event]
            for psi in ([events[0]], [events[1]], omp):
                chi, _ = solve(psi, table)
                t0, t1 = update_residual(residual, psi, chi, waveforms)
                table.refresh(t0, t1, psi, chi)
                for i, w in enumerate(waveforms):
                    want = np.correlate(residual, w, mode="valid")
                    got = table.T[: len(want), i]
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
                    assert not table.T[len(want) :, i].any()

    def test_best_is_global_argmax(self):
        rng = np.random.default_rng(3012)
        waveforms = unit_waveforms(rng, 4)
        residual = rng.standard_normal(300)
        table = correlate_all(residual, waveforms)
        val, i, off = table.best()
        flat_best = max(
            (float(np.max(np.abs(np.correlate(residual, w, mode="valid")))), j)
            for j, w in enumerate(waveforms)
        )
        assert val == pytest.approx(flat_best[0], rel=1e-12)
        assert abs(table.T[off, i]) == pytest.approx(val, rel=1e-12)

    def test_deactivate_excludes_atom_and_keeps_others_fresh(self):
        rng = np.random.default_rng(3013)
        waveforms = [rng.standard_normal(5) for _ in range(3)]
        waveforms = [w / np.linalg.norm(w) for w in waveforms]
        residual = rng.standard_normal(150)
        table = correlate_all(residual, waveforms)
        _, first, _ = table.best()
        table.deactivate(first)
        val, second, off = table.best()
        assert second != first
        psi, chi = [SparseEvent(second, off, 0.0)], [table.T[off, second]]
        t0, t1 = update_residual(residual, psi, chi, waveforms)
        table.refresh(t0, t1, psi, chi)
        for i in range(3):
            if i == first:
                continue
            want = np.correlate(residual, waveforms[i], mode="valid")
            np.testing.assert_allclose(table.T[:, i], want, rtol=1e-12, atol=1e-12)
        for i in range(3):
            table.deactivate(i)
        assert table.best() is None

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_incremental_table_tracks_exact_recompute(self, variant, monkeypatch):
        """After every step the table equals a fresh build, tail zeros included.

        Lengths 6 and 30 on a 90-sample window: offsets 61..84 are valid for
        the short atoms only, and the planted short events sit there.
        """
        rng = np.random.default_rng(3016)
        waveforms = [rng.standard_normal(L) for L in (6, 30, 6, 30)]
        waveforms = [w / np.linalg.norm(w) for w in waveforms]
        n = 90
        x = 0.05 * rng.standard_normal(n)
        x[0:30] += 1.3 * waveforms[1]
        x[70:76] += 2.0 * waveforms[0]
        x[80:86] -= 1.7 * waveforms[2]
        tables = []
        build = pursuit.correlate_all

        def spy(*args, **kwargs):
            tables.append(build(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(pursuit, "correlate_all", spy)
        worst = 0.0
        picked = []

        def on_step(info):
            nonlocal worst
            exact = build(info.residual.copy(), waveforms)
            worst = max(worst, float(np.max(np.abs(tables[0].T - exact.T))))
            picked.append((info.atom_index, info.offset))

        cfg = PursuitConfig(variant=variant, p=0.15)
        match(as_dictionary(waveforms), x, cfg, on_step=on_step)
        assert len(tables) == 1 and len(picked) == 12
        assert worst <= 1e-12 * np.linalg.norm(x)
        assert all(off + len(waveforms[i]) <= n for i, off in picked)
        assert any(off > n - 30 for _, off in picked)
        assert not tables[0].T[n - 30 + 1 :, [1, 3]].any()

    def test_tie_break_lowest_offset_then_atom(self):
        w = np.array([1.0])
        residual = np.array([0.0, 1.0, 0.0, 1.0])
        table = correlate_all(residual, [w, w.copy()])
        val, i, off = table.best()
        assert (i, off) == (0, 1)
        assert val == pytest.approx(1.0)

    def test_tie_goes_to_the_earlier_offset_at_a_higher_atom(self):
        """Atom 1 reaches 1 at offset 1, before atom 0 does at offset 2."""
        residual = np.array([0.0, 0.0, 1.0, 0.0])
        table = correlate_all(residual, [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        val, i, off = table.best()
        assert (i, off) == (1, 1)
        assert val == pytest.approx(1.0)

    def test_tie_across_blocks_goes_to_the_earlier_block(self):
        """Atom 1 peaks at 2 in block 0, atom 0 at 2 in block 2 only."""
        late = 2 * pursuit.BLOCK + 10
        residual = np.zeros(3 * pursuit.BLOCK)
        residual[5:7] = [1.0, -1.0]
        residual[late : late + 2] = [1.0, 1.0]
        table = correlate_all(residual, [np.array([1.0, 1.0]), np.array([1.0, -1.0])])
        assert table.Bm[0] == table.Bm[2] == 2.0
        # Row-major positions in the block: atom 1 at row 5, atom 0 at row 10.
        assert table.Bp[0] == 5 * 2 + 1 and table.Bp[2] == 10 * 2
        assert table.best() == brute_force_best(table) == (2.0, 1, 5)

    def test_stale_block_before_a_live_tie_is_passed_over(self):
        """Dead atom 2 tops block 0 at 2 (row 5) and block 2 at 2 (row 140).
        Atom 1 holds 2 at row 74 in block 1, and atom 0 holds 2 at row 150
        in block 2: the earliest live tie wins."""
        residual = np.zeros(3 * pursuit.BLOCK + 1)
        residual[5] = 1.0
        residual[74:76] = [1.0, -1.0]
        residual[140] = 1.0
        residual[150:152] = [1.0, 1.0]
        atoms = [np.array([1.0, 1.0]), np.array([1.0, -1.0]), np.array([2.0, 0.0])]
        table = correlate_all(residual, atoms)
        np.testing.assert_array_equal(table.Bm, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(table.Bp % 3, [2, 1, 2])
        table.deactivate(2)
        assert table.best() == brute_force_best(table) == (2.0, 1, 74)
        assert_index_bounds(table)
        assert table.Bm[0] == 1.0
        assert table.Bm[2] == 2.0 and table.Bp[2] % 3 == 2

    def test_tie_at_a_lower_atom_in_a_later_row_of_the_winning_block(self):
        """Impulse atoms copy one spike into rows 10 (atom 2), 11 and 12
        (atom 0): the block's first maximum is the winner."""
        rng = np.random.default_rng(3022)
        residual = 0.1 * rng.uniform(-1.0, 1.0, 2 * pursuit.BLOCK)
        residual[12] = 2.0
        table = correlate_all(residual, [np.eye(3)[k] for k in range(3)])
        assert table.Bp[0] == 10 * 3 + 2 and table.Bm[0] == 2.0
        assert table.best() == brute_force_best(table) == (2.0, 2, 10)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_best_matches_brute_force_on_exact_ties(self, seed):
        """Small-integer residuals and impulse atoms make exact ties common,
        within and across blocks; integer steps keep them exact."""
        rng = np.random.default_rng((seed, 3023))
        m = int(rng.integers(2, 6))
        atoms = []
        for _ in range(m):
            w = np.zeros(int(rng.integers(1, 9)))
            w[rng.integers(len(w))] = 1.0
            atoms.append(w)
        n = int(rng.integers(pursuit.BLOCK, 4 * pursuit.BLOCK))
        residual = rng.integers(-3, 4, n).astype(np.float64)
        table = correlate_all(residual, atoms)
        for i in np.flatnonzero(rng.random(m) < 0.4):
            table.deactivate(int(i))
        for _ in range(6):
            found = table.best()
            assert found == brute_force_best(table)
            if found is None:
                break
            assert_index_bounds(table)
            _, i, off = found
            if rng.random() < 0.3:
                table.deactivate(i)
            psi, chi = [SparseEvent(i, off, 0.0)], [float(np.sign(table.T[off, i]))]
            table.refresh(*update_residual(residual, psi, chi, atoms), psi, chi)

    def test_dead_atoms_larger_entry_after_the_live_winner(self):
        """Atom 1 tops block 0 at 2 (row 5) once atom 0, holding 3 at row 30,
        is dead."""
        residual = np.zeros(2 * pursuit.BLOCK + 1)
        residual[5:7] = [1.0, -1.0]
        residual[30:32] = [1.5, 1.5]
        table = correlate_all(residual, [np.array([1.0, 1.0]), np.array([1.0, -1.0])])
        table.deactivate(0)
        assert table.best() == brute_force_best(table) == (2.0, 1, 5)
        assert table.Bp[0] == 5 * 2 + 1 and abs(table.T[30, 0]) > table.Bm[0]

    def test_winner_is_the_last_entry_of_its_block(self):
        """Atom 1 peaks at 2 at row BLOCK - 1, the block's last entry."""
        last = pursuit.BLOCK - 1
        residual = np.zeros(2 * pursuit.BLOCK + 1)
        residual[last : last + 2] = [1.0, -1.0]
        table = correlate_all(residual, [np.array([1.0, 1.0]), np.array([1.0, -1.0])])
        assert table.Bp[0] == pursuit.BLOCK * 2 - 1
        assert table.best() == brute_force_best(table) == (2.0, 1, last)

    @pytest.mark.parametrize("length, n", [(9, 6 * pursuit.BLOCK + 20), (1100, 1400)])
    def test_deactivating_an_atom_that_tops_many_blocks(self, length, n, monkeypatch):
        """The search skips a dead atom's stale block maxima until all are dead.

        At length 1100 the matmul build's scratch holds one block, so the
        first refresh after a deactivation grows it and its penalty tile.
        """
        monkeypatch.setattr(pursuit, "_OVERLAP_SAVE_LMAX", sys.maxsize)
        assert deactivate_every_atom(length, n) == (length == 1100)

    def test_deactivating_after_an_overlap_save_build(self):
        """At length 1100 the spectral build's scratch holds 17 blocks and a
        refresh reaches at least 18, so it grows after a deactivation."""
        assert 1100 >= pursuit._OVERLAP_SAVE_LMAX
        assert deactivate_every_atom(1100, 1100 + 40 * pursuit.BLOCK)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_maxima_index_matches_brute_force_every_step(self, variant, monkeypatch):
        """Bm, Bp and best() agree with a brute-force search before every select.

        Mixed lengths leave tail rows past the long atoms' limit, and the
        table's row count is not a multiple of the block size, so its last
        block is partial.
        """
        rng = np.random.default_rng(3017)
        lengths = (6, 40, 13, 40, 6)
        waveforms = [rng.standard_normal(L) for L in lengths]
        waveforms = [w / np.linalg.norm(w) for w in waveforms]
        m, n = len(waveforms), 3 * pursuit.BLOCK + 37 + min(lengths) - 1
        x = planted_signal(rng, waveforms, n, 12) + 0.05 * rng.standard_normal(n)
        cfg = PursuitConfig(variant=variant, p=0.2)
        q = cfg.quota(n, m)
        tables = []
        counts = np.zeros(m, dtype=np.int64)
        build = pursuit.correlate_all

        def check(built=False):
            table = tables[0]
            A = np.abs(table.T)
            size = pursuit.BLOCK
            assert len(A) % size != 0
            if built:
                blocks = [A[s : s + size] for s in range(0, len(A), size)]
                np.testing.assert_array_equal(table.Bm, [blk.max() for blk in blocks])
                np.testing.assert_array_equal(table.Bp, [blk.argmax() for blk in blocks])
            live = counts < q if cfg.equiprobable else np.ones(m, dtype=bool)
            np.testing.assert_array_equal(table.live, live)
            assert_index_bounds(table)
            A[:, ~live] = -np.inf
            if not live.any():
                assert table.best() is None
                return
            top = A.max()
            i, off = min((int(j), int(t)) for t, j in np.argwhere(A == top))
            assert table.best() == (top, i, off)

        def spy(*args, **kwargs):
            tables.append(build(*args, **kwargs))
            check(built=True)
            return tables[-1]

        def on_step(info):
            counts[info.atom_index] += 1
            check()

        monkeypatch.setattr(pursuit, "correlate_all", spy)
        code = match(as_dictionary(waveforms), x, cfg, on_step=on_step)
        assert len(tables) == 1 and len(code.events) == m * q

    @pytest.mark.parametrize(
        "lengths, n",
        [((7, 1100, 300, 1100), 1400), ((5, 100, 37, 100), 30 * pursuit.BLOCK + 90)],
    )
    def test_chunked_build_matches_brute_force(self, lengths, n, monkeypatch):
        """A matmul build over several chunks equals direct correlation and
        search; at Lmax 1100 each chunk is one block.

        Offsets past n - 1100 (or n - 100) lie beyond the long atoms' limit,
        and the row count is not a multiple of the block size.
        """
        monkeypatch.setattr(pursuit, "_OVERLAP_SAVE_LMAX", sys.maxsize)
        check_chunked_build(lengths, n, monkeypatch)

    @pytest.mark.parametrize(
        "lengths, n",
        [((7, 1100, 300, 1100), 3400), ((5, 100, 37, 100), 30 * pursuit.BLOCK + 90)],
    )
    def test_overlap_save_build_matches_brute_force(self, lengths, n, monkeypatch):
        """The same for the spectral build: 17-block chunks at Lmax 1100,
        and one-block chunks when Lmax 100 is sent down that path."""
        monkeypatch.setattr(pursuit, "_OVERLAP_SAVE_LMAX", pursuit.BLOCK)
        check_chunked_build(lengths, n, monkeypatch)

    def test_build_holds_no_full_size_copy(self):
        """Beyond T and X, building a table allocates less than half of T,
        by matmul (atoms of 100) and by overlap-save (atoms of 512)."""
        rng = np.random.default_rng(3020)
        for length, spectral in ((100, False), (512, True)):
            atoms = rng.standard_normal((32, length))
            waveforms = [w / np.linalg.norm(w) for w in atoms]
            x = rng.standard_normal(16384)
            tracemalloc.start()
            try:
                table = correlate_all(x, waveforms)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (table._spectra is not None) == spectral
            assert peak - table.T.nbytes - table.X.nbytes < table.T.nbytes / 2

    def test_atom_longer_than_window_rejected(self):
        with pytest.raises(ValueError):
            correlate_all(np.zeros(4), [np.ones(5)])

    @pytest.mark.parametrize("where", ["residual", "atom"])
    def test_non_finite_input_rejected(self, where):
        """A NaN table could leave a dead atom on top of the search for good."""
        residual, atom = np.zeros(8), np.ones(3)
        (residual if where == "residual" else atom)[1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            correlate_all(residual, [atom])


class TestMatchValidation:
    def test_window_shorter_than_atom_rejected(self, tiny_dict):
        with pytest.raises(ValueError, match="shorter"):
            match(tiny_dict, np.ones(5), PursuitConfig(variant="mp", p=0.5))

    def test_signal_metadata_propagates(self, tiny_dict):
        from empursuit.signal_io import Signal

        rng = np.random.default_rng(3014)
        sig = Signal(samples=rng.standard_normal(400), sample_rate=8000)
        code = match(tiny_dict, sig, PursuitConfig(variant="emp", p=0.1))
        assert code.sample_rate == 8000
        assert code.variant == "emp"
        assert code.p == 0.1
        assert code.window_len == 400
        assert code.dict_digest

    def test_same_inputs_bitwise_deterministic(self, tiny_dict, noise_signal):
        a = match(tiny_dict, noise_signal, PursuitConfig(variant="eomp", p=0.1))
        b = match(tiny_dict, noise_signal, PursuitConfig(variant="eomp", p=0.1))
        assert [(e.atom_index, e.offset, e.coefficient) for e in a.events] == [
            (e.atom_index, e.offset, e.coefficient) for e in b.events
        ]
        np.testing.assert_array_equal(a.residual, b.residual)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, tiny_dict, noise_signal, bad):
        x = noise_signal.copy()
        x[17] = bad
        with pytest.raises(ValueError, match="non-finite"):
            match(tiny_dict, x, PursuitConfig(variant="mp", p=0.1))

    @pytest.mark.parametrize("variant", ["omp", "eomp"])
    def test_duplicate_selection_is_ridged_and_flagged(self, variant, monkeypatch):
        """The same (atom, offset) twice makes the Gram matrix exactly singular."""
        d = as_dictionary([np.full(4, 0.5), np.array([0.5, -0.5, 0.5, -0.5])])
        x = np.random.default_rng(3019).standard_normal(64)
        picks = []
        select = pursuit.select

        def repeat_first(table, floor=0.0):
            picks.append(picks[0] if picks else select(table, floor))
            return picks[-1]

        monkeypatch.setattr(pursuit, "select", repeat_first)
        cfg = PursuitConfig(variant=variant, p=0.04)  # M*Q = 2*floor(1.28) = 2 steps
        code = match(d, x, cfg)
        first, second = code.events
        assert (second.atom_index, second.offset) == (first.atom_index, first.offset)
        assert second.flagged and not first.flagged
        assert np.isfinite(second.coefficient)
        np.testing.assert_allclose(reconstruct(code, d) + code.residual, x, atol=1e-12)

    def test_input_signal_not_mutated(self, tiny_dict, noise_signal):
        before = noise_signal.copy()
        match(tiny_dict, noise_signal, PursuitConfig(variant="mp", p=0.1))
        np.testing.assert_array_equal(noise_signal, before)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_non_unit_norm_atom_rejected(self, tiny_dict, noise_signal, variant):
        """A lone event's coefficient is its correlation only for unit norm."""
        cfg = PursuitConfig(variant=variant, p=0.1)
        atoms = [Atom(a.waveform) for a in tiny_dict.atoms]
        atoms[1] = Atom(2.0 * atoms[1].waveform)
        with pytest.raises(ValueError, match="atom 1 is not unit norm"):
            match(Dictionary(atoms), noise_signal, cfg)
        # Round-off well inside the tolerance is accepted.
        w = tiny_dict.atoms[1].waveform * (1.0 + 1e-12)
        atoms[1] = Atom(w)
        assert match(Dictionary(atoms), noise_signal, cfg).events


class TestCodeSerialization:
    def test_round_trip_with_residual(self, tiny_dict, noise_signal, tmp_path):
        code = match(tiny_dict, noise_signal, PursuitConfig(variant="eomp", p=0.1))
        cpath = tmp_path / "x.code"
        rpath = tmp_path / "x.res"
        save_code(code, cpath, residual_path=rpath)
        back = load_code(cpath, residual_path=rpath)
        assert back.window_len == code.window_len
        assert back.variant == "eomp"
        assert back.p == 0.1
        assert back.dict_digest == code.dict_digest
        assert [(e.atom_index, e.offset, e.coefficient) for e in back.events] == [
            (e.atom_index, e.offset, e.coefficient) for e in code.events
        ]
        np.testing.assert_array_equal(back.residual, code.residual)

    def test_round_trip_without_residual(self, tmp_path):
        code = SparseCode(
            events=[SparseEvent(1, 7, -0.123456789012345)],
            residual=np.zeros(3),
            window_len=64,
            variant="mp",
        )
        path = tmp_path / "bare.code"
        save_code(code, path)
        back = load_code(path)
        assert back.residual is None
        assert back.events[0].coefficient == -0.123456789012345
        assert back.p is None
        assert back.sample_rate is None

    def test_missing_residual_rejected_on_save(self, tmp_path):
        code = SparseCode(events=[], residual=None, window_len=10)
        with pytest.raises(ValueError):
            save_code(code, tmp_path / "x.code", residual_path=tmp_path / "x.res")

    def test_non_code_file_rejected(self, tmp_path):
        path = tmp_path / "junk.code"
        path.write_text("#format=something-else\n")
        with pytest.raises(DataFormatError):
            load_code(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "new.code"
        path.write_text("#format=empursuit-code\n#format_version=2\n#window_len=4\n")
        with pytest.raises(DataFormatError, match="version"):
            load_code(path)

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "bad.code"
        path.write_text(
            "#format=empursuit-code\n#format_version=1\n#window_len=4\n1 2\n"
        )
        with pytest.raises(DataFormatError):
            load_code(path)

    @pytest.mark.parametrize(
        "body",
        [b"0 x 0.5\n", b"0 5 0.5 \xff\xfe\n"],
        ids=["non-integer-field", "non-utf8"],
    )
    def test_unreadable_record_rejected(self, tmp_path, body):
        path = tmp_path / "bad.code"
        header = b"#format=empursuit-code\n#format_version=1\n#window_len=64\n"
        path.write_bytes(header + body)
        with pytest.raises(DataFormatError, match="cannot parse code file"):
            load_code(path)

    @pytest.mark.parametrize("record", ["-1 2 0.5", "1 -2 0.5"])
    def test_negative_index_or_offset_rejected(self, tmp_path, record):
        path = tmp_path / "neg.code"
        path.write_text(
            f"#format=empursuit-code\n#format_version=1\n#window_len=64\n{record}\n"
        )
        with pytest.raises(DataFormatError, match="negative"):
            load_code(path)

    @pytest.mark.parametrize("coefficient", ["nan", "inf", "-inf"])
    def test_non_finite_coefficient_rejected(self, tmp_path, coefficient):
        path = tmp_path / "nan.code"
        header = "#format=empursuit-code\n#format_version=1\n#window_len=64\n"
        path.write_text(f"{header}0 5 {coefficient}\n")
        with pytest.raises(DataFormatError, match="non-finite"):
            load_code(path)

    @pytest.mark.parametrize("line", ["#p=abc", "#sample_rate=x", "#window_len=4.5"])
    def test_unparsable_header_value_rejected(self, tmp_path, line):
        path = tmp_path / "hdr.code"
        header = "#format=empursuit-code\n#format_version=1\n#window_len=64\n"
        path.write_text(header + line + "\n0 5 0.5\n")
        with pytest.raises(DataFormatError, match="bad"):
            load_code(path)

    @pytest.mark.parametrize("window_len", ["0", "-5"])
    def test_non_positive_window_len_rejected(self, tmp_path, window_len):
        path = tmp_path / "w.code"
        path.write_text(
            f"#format=empursuit-code\n#format_version=1\n#window_len={window_len}\n"
        )
        with pytest.raises(DataFormatError, match="window_len"):
            load_code(path)

    def test_window_len_beyond_any_wav_rejected(self, tmp_path):
        """A window no WAV can hold is a data error at load, not an allocation."""
        path = tmp_path / "w.code"
        header = "#format=empursuit-code\n#format_version=1\n#window_len="
        path.write_text(f"{header}{MAX_WAV_SAMPLES}\n")
        assert load_code(path).window_len == MAX_WAV_SAMPLES
        for window_len in (MAX_WAV_SAMPLES + 1, 100000000000000):
            path.write_text(f"{header}{window_len}\n")
            with pytest.raises(DataFormatError, match="window_len"):
                load_code(path)

    def test_non_finite_residual_rejected(self, tmp_path):
        cpath = tmp_path / "x.code"
        rpath = tmp_path / "x.res"
        cpath.write_text("#format=empursuit-code\n#format_version=1\n#window_len=4\n")
        np.array([0.0, np.nan, 1.0, 2.0]).astype("<f8").tofile(rpath)
        with pytest.raises(DataFormatError, match="finite"):
            load_code(cpath, residual_path=rpath)

    def test_residual_length_mismatch_rejected(self, tmp_path):
        cpath = tmp_path / "x.code"
        rpath = tmp_path / "x.res"
        cpath.write_text("#format=empursuit-code\n#format_version=1\n#window_len=8\n")
        np.zeros(5).astype("<f8").tofile(rpath)
        with pytest.raises(DataFormatError, match="length"):
            load_code(cpath, residual_path=rpath)

    @pytest.mark.parametrize("p", ["nan", "inf", "0", "1", "7", "-0.5"])
    def test_p_outside_unit_interval_rejected(self, tmp_path, p):
        path = tmp_path / "p.code"
        header = "#format=empursuit-code\n#format_version=1\n#window_len=64\n"
        path.write_text(f"{header}#p={p}\n0 5 0.5\n")
        with pytest.raises(DataFormatError, match="bad p"):
            load_code(path)

    @pytest.mark.parametrize("rate", ["0", "-3"])
    def test_non_positive_sample_rate_rejected(self, tmp_path, rate):
        path = tmp_path / "sr.code"
        header = "#format=empursuit-code\n#format_version=1\n#window_len=64\n"
        path.write_text(f"{header}#sample_rate={rate}\n0 5 0.5\n")
        with pytest.raises(DataFormatError, match="sample_rate"):
            load_code(path)

    def test_unknown_variant_rejected(self, tmp_path):
        path = tmp_path / "v.code"
        header = "#format=empursuit-code\n#format_version=1\n#window_len=64\n"
        path.write_text(f"{header}#variant=zzz\n0 5 0.5\n")
        with pytest.raises(DataFormatError, match="variant"):
            load_code(path)

    @pytest.mark.parametrize("offset", [64, 600])
    def test_offset_past_window_rejected(self, tmp_path, offset):
        path = tmp_path / "o.code"
        header = "#format=empursuit-code\n#format_version=1\n#window_len=64\n"
        path.write_text(f"{header}0 63 0.5\n0 {offset} 0.5\n")
        with pytest.raises(DataFormatError, match="offset past window_len"):
            load_code(path)
