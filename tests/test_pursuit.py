"""Pursuit engine: selection, neighborhoods, local solves, caching, codes."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empursuit import pursuit
from empursuit.dictionary import Atom, Dictionary, randdict
from empursuit.errors import DataFormatError
from empursuit.pursuit import (
    SELECTION_FLOOR_RATIO,
    VARIANTS,
    CorrelationTable,
    PursuitConfig,
    QuotaState,
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


class TestPursuitConfig:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            PursuitConfig(variant="gmp")

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_p_out_of_range_rejected(self, p):
        with pytest.raises(ValueError):
            PursuitConfig(p=p)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            PursuitConfig(iteration_budget=-1)

    def test_quota_formula(self):
        assert PursuitConfig(p=0.05).quota(200_000, 32) == 312
        assert PursuitConfig(p=0.05).quota(1000, 32) == 1
        assert PursuitConfig(p=0.1).quota(64, 4) == 1

    def test_equiprobable_flag(self):
        assert PursuitConfig(variant="emp").equiprobable
        assert PursuitConfig(variant="eomp").equiprobable
        assert not PursuitConfig(variant="mp").equiprobable
        assert not PursuitConfig(variant="omp").equiprobable


class TestQuotaState:
    def test_fresh_counts_and_quota(self):
        q = QuotaState.fresh(3, 2)
        assert q.quota == 2
        assert q.counts.dtype == np.int64
        np.testing.assert_array_equal(q.counts, [0, 0, 0])


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

            def on_step(info):
                drop = info.r2_before - info.r2_after
                checks.append(abs(drop - float(info.chi[0]) ** 2) / info.r2_before)

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

        def on_step(info):
            drop = info.r2_before - info.r2_after
            errs.append(abs(drop - float(info.chi[0]) ** 2) / info.r2_before)

        match(d, x, PursuitConfig(variant="emp", p=0.1), on_step=on_step)
        assert errs and max(errs) <= 1e-9


    @pytest.mark.parametrize("variant", VARIANTS)
    def test_tracked_energy_is_residual_energy(self, variant):
        """r2_before/r2_after equal ||residual||^2 as it falls by orders.

        A noiseless planted signal: omp/eomp explain it to round-off, through
        neighbourhoods of several events.
        """
        rng = np.random.default_rng(3007)
        waveforms = unit_waveforms(rng, 4, max_len=12)
        x = planted_signal(rng, waveforms, 400, 20)
        r2 = [float(np.dot(x, x))]
        errs = []

        def on_step(info):
            exact = float(np.dot(info.residual, info.residual))
            assert info.r2_before == r2[-1]
            errs.append(abs(info.r2_after - exact) / exact)
            r2.append(info.r2_after)

        cfg = PursuitConfig(variant=variant, p=0.5)
        match(as_dictionary(waveforms), x, cfg, on_step=on_step)
        assert r2[-1] < 1e-5 * r2[0]
        assert max(errs) <= 1e-9


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
            rnorm = np.sqrt(info.r2_after)
            for ev in info.neighborhood:
                w = waveforms[ev.atom_index]
                seg = info.residual[ev.offset : ev.offset + len(w)]
                worst = max(worst, abs(float(np.dot(seg, w))) / rnorm)
            steps += 1

        match(d, x, PursuitConfig(variant=variant, p=0.08), on_step=on_step)
        assert steps > 100
        assert worst <= 1e-8


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

    def test_zero_budget_yields_empty_code(self, tiny_dict, noise_signal):
        cfg = PursuitConfig(variant="mp", p=0.05, iteration_budget=0)
        code = match(tiny_dict, noise_signal, cfg)
        assert code.events == []
        np.testing.assert_array_equal(code.residual, noise_signal)

    def test_explicit_budget_caps_equiprobable(self, tiny_dict, noise_signal):
        cfg = PursuitConfig(variant="emp", p=0.2, iteration_budget=3)
        code = match(tiny_dict, noise_signal, cfg)
        assert len(code.events) == 3


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


class TestNeighborhood:
    def test_plain_variants_use_new_event_only(self):
        prior = [SparseEvent(0, 0, 1.0), SparseEvent(1, 3, 1.0)]
        new = SparseEvent(0, 2, 0.0)
        assert neighborhood(prior, new, "mp", [5, 5]) == [new]
        assert neighborhood(prior, new, "emp", [5, 5]) == [new]

    def test_local_variants_take_overlapping_priors(self):
        lengths = [5, 5]
        prior = [
            SparseEvent(0, 0, 1.0),  # support [0, 5) overlaps [4, 9)
            SparseEvent(1, 9, 1.0),  # support [9, 14) touches but no overlap
            SparseEvent(1, 6, 1.0),  # support [6, 11) overlaps
        ]
        new = SparseEvent(0, 4, 0.0)
        psi = neighborhood(prior, new, "omp", lengths)
        assert psi == [prior[0], prior[2], new]

    def test_adjacent_supports_do_not_overlap(self):
        prior = [SparseEvent(0, 0, 1.0)]
        new = SparseEvent(0, 5, 0.0)
        assert neighborhood(prior, new, "eomp", [5]) == [new]


class TestSolveNeighborhood:
    def test_matches_lstsq(self):
        rng = np.random.default_rng(3007)
        waveforms = unit_waveforms(rng, 3, max_len=6)
        residual = rng.standard_normal(40)
        psi = [SparseEvent(0, 2, 0.0), SparseEvent(1, 4, 0.0), SparseEvent(2, 6, 0.0)]
        chi, ridged = solve_neighborhood(psi, residual, waveforms)
        assert not ridged
        u0 = min(ev.offset for ev in psi)
        u1 = max(ev.offset + len(waveforms[ev.atom_index]) for ev in psi)
        A = np.zeros((3, u1 - u0))
        for j, ev in enumerate(psi):
            w = waveforms[ev.atom_index]
            A[j, ev.offset - u0 : ev.offset - u0 + len(w)] = w
        want, *_ = np.linalg.lstsq(A.T, residual[u0:u1], rcond=None)
        np.testing.assert_allclose(chi, want, rtol=1e-9, atol=1e-12)

    def test_duplicate_event_triggers_ridge(self):
        rng = np.random.default_rng(3008)
        w = rng.standard_normal(5)
        w /= np.linalg.norm(w)
        residual = rng.standard_normal(20)
        psi = [SparseEvent(0, 3, 0.0), SparseEvent(0, 3, 0.0)]
        chi, ridged = solve_neighborhood(psi, residual, [w])
        assert ridged
        assert np.all(np.isfinite(chi))

    def test_empty_neighborhood_rejected(self):
        with pytest.raises(ValueError):
            solve_neighborhood([], np.zeros(10), [np.ones(2)])

    def test_singleton_is_plain_correlation(self):
        rng = np.random.default_rng(3009)
        w = rng.standard_normal(6)
        w /= np.linalg.norm(w)
        residual = rng.standard_normal(30)
        chi, ridged = solve_neighborhood([SparseEvent(0, 7, 0.0)], residual, [w])
        assert not ridged
        assert chi[0] == pytest.approx(float(np.dot(residual[7:13], w)))


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
            np.testing.assert_allclose(table.rows[i], want, rtol=1e-12, atol=1e-12)

    def test_refresh_tracks_local_edit(self):
        rng = np.random.default_rng(3011)
        waveforms = unit_waveforms(rng, 3)
        residual = rng.standard_normal(200)
        table = correlate_all(residual, waveforms)
        residual[90:110] = rng.standard_normal(20)
        table.refresh(90, 110)
        for i, w in enumerate(waveforms):
            want = np.correlate(residual, w, mode="valid")
            np.testing.assert_allclose(table.rows[i], want, rtol=1e-12, atol=1e-12)

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
        assert abs(table.value(i, off)) == pytest.approx(val, rel=1e-12)

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
        residual[40:80] = rng.standard_normal(40)
        table.refresh(40, 80)
        for i in range(3):
            if i == first:
                continue
            want = np.correlate(residual, waveforms[i], mode="valid")
            np.testing.assert_allclose(table.rows[i], want, rtol=1e-12, atol=1e-12)
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

    def test_tie_break_lowest_atom_then_offset(self):
        w = np.array([1.0])
        residual = np.array([0.0, 1.0, 0.0, 1.0])
        table = correlate_all(residual, [w, w.copy()])
        val, i, off = table.best()
        assert (i, off) == (0, 1)
        assert val == pytest.approx(1.0)

    def test_tie_across_blocks_goes_to_lowest_atom(self):
        """Atom 1 peaks at 2 in block 0, atom 0 at 2 in block 2 only."""
        late = 2 * pursuit.BLOCK + 10
        residual = np.zeros(3 * pursuit.BLOCK)
        residual[5:7] = [1.0, -1.0]
        residual[late : late + 2] = [1.0, 1.0]
        table = correlate_all(residual, [np.array([1.0, 1.0]), np.array([1.0, -1.0])])
        assert np.argmax(table.B[1]) == 0 and np.argmax(table.B[0]) == 2
        assert table.best() == (2.0, 0, late)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_maxima_index_matches_brute_force_every_step(self, variant, monkeypatch):
        """B and best() agree with a brute-force search before every select.

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

        def check():
            table = tables[0]
            A = np.abs(table.T)
            size = pursuit.BLOCK
            assert len(A) % size != 0
            want_B = np.array(
                [
                    [A[s : s + size, i].max() for s in range(0, len(A), size)]
                    for i in range(m)
                ]
            )
            np.testing.assert_array_equal(table.B, want_B)
            live = counts < q if cfg.equiprobable else np.ones(m, dtype=bool)
            A[:, ~live] = -np.inf
            if not live.any():
                assert table.best() is None
                return
            top = A.max()
            i, off = min((int(j), int(t)) for t, j in np.argwhere(A == top))
            assert table.best() == (top, i, off)

        def spy(*args, **kwargs):
            tables.append(build(*args, **kwargs))
            check()
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
        """A build over several chunks equals direct correlation and search.

        Offsets past n - 1100 (or n - 100) lie beyond the long atoms' limit,
        and the row count is not a multiple of the block size.
        """
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
        assert len(chunks) >= 3
        A = np.abs(table.T)
        assert len(A) % pursuit.BLOCK != 0
        for i, w in enumerate(waveforms):
            want = np.correlate(residual, w, mode="valid")
            got = table.T[: len(want), i]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            assert not table.T[len(want) :, i].any()
        size = pursuit.BLOCK
        want_B = np.array(
            [[col[s : s + size].max() for s in range(0, len(A), size)] for col in A.T]
        )
        np.testing.assert_array_equal(table.B, want_B)
        top = A.max()
        i, off = min((int(j), int(t)) for t, j in np.argwhere(A == top))
        assert table.best() == (top, i, off)

    def test_build_holds_no_full_size_copy(self):
        """Beyond T and X, building a table allocates less than half of T."""
        rng = np.random.default_rng(3020)
        waveforms = [w / np.linalg.norm(w) for w in rng.standard_normal((32, 100))]
        x = rng.standard_normal(16384)
        tracemalloc.start()
        try:
            table = correlate_all(x, waveforms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - table.T.nbytes - table.X.nbytes < table.T.nbytes / 2

    def test_atom_longer_than_window_rejected(self):
        with pytest.raises(ValueError):
            correlate_all(np.zeros(4), [np.ones(5)])


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
        cfg = PursuitConfig(variant=variant, p=0.1, iteration_budget=2)
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

    @pytest.mark.parametrize("record", ["-1 2 0.5", "1 -2 0.5"])
    def test_negative_index_or_offset_rejected(self, tmp_path, record):
        path = tmp_path / "neg.code"
        path.write_text(
            f"#format=empursuit-code\n#format_version=1\n#window_len=64\n{record}\n"
        )
        with pytest.raises(DataFormatError, match="negative"):
            load_code(path)

    def test_residual_length_mismatch_rejected(self, tmp_path):
        cpath = tmp_path / "x.code"
        rpath = tmp_path / "x.res"
        cpath.write_text("#format=empursuit-code\n#format_version=1\n#window_len=8\n")
        np.zeros(5).astype("<f8").tofile(rpath)
        with pytest.raises(DataFormatError, match="length"):
            load_code(cpath, residual_path=rpath)
