"""Gradient updates, block-alternating learning, and trace output."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from empursuit import learner
from empursuit.dictionary import Atom, Dictionary, load_dict, randdict, save_dict
from empursuit.learner import (
    BlockRecord,
    LearnConfig,
    apply_update,
    atom_gradient,
    dlearn,
    write_trace,
)
from empursuit.pursuit import PursuitConfig, SparseCode, SparseEvent
from empursuit.signal_io import Signal, next_block, synth_signal
from reference_learner import loop_gradient, loop_update


def random_instance(seed: int, n: int = 80, m: int = 3, max_len: int = 10):
    """Random waveforms plus a fixed event list and its residual."""
    rng = np.random.default_rng((seed, 4001))
    waveforms = []
    for _ in range(m):
        length = int(rng.integers(4, max_len + 1))
        w = rng.standard_normal(length)
        waveforms.append(w / np.linalg.norm(w))
    x = rng.standard_normal(n)
    events = []
    for _ in range(int(rng.integers(2, 7))):
        i = int(rng.integers(m))
        off = int(rng.integers(0, n - len(waveforms[i]) + 1))
        events.append(SparseEvent(i, off, float(rng.normal())))
    recon = np.zeros(n)
    for ev in events:
        w = waveforms[ev.atom_index]
        recon[ev.offset : ev.offset + len(w)] += ev.coefficient * w
    residual = x - recon
    code = SparseCode(events=events, residual=residual, window_len=n)
    return waveforms, x, code


def residual_for(waveforms, x, code) -> np.ndarray:
    recon = np.zeros(len(x))
    for ev in code.events:
        w = waveforms[ev.atom_index]
        recon[ev.offset : ev.offset + len(w)] += ev.coefficient * w
    return x - recon


class TestLearnConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0},
            {"p": 0.0},
            {"p": 1.0},
            {"eta": 0.0},
            {"eta": -1e-6},
            {"variant": "ksvd"},
            {"n_blocks": -1},
            {"block_len": -1},
            {"max_atom_len": 0},
            {"max_atom_len": -5},
            {"block_len": 0},
            {"max_atom_len": 69},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LearnConfig(**kwargs)

    def test_pursuit_conversion(self):
        cfg = LearnConfig(variant="eomp", p=0.02)
        pcfg = cfg.pursuit()
        assert pcfg == PursuitConfig(variant="eomp", p=0.02)


class TestAtomGradient:
    def test_matches_central_finite_differences(self):
        """d(-0.5||x - sum a_j phi(tau_j)||^2)/d phi == event-weighted residual."""
        worst = 0.0
        for seed in range(10):
            waveforms, x, code = random_instance(seed)
            grads = atom_gradient(code, [len(w) for w in waveforms])
            for i, w in enumerate(waveforms):
                g = grads[i]
                h = 1e-6
                fd = np.zeros_like(g)
                for s in range(len(w)):
                    for sign in (+1.0, -1.0):
                        pert = [wv.copy() for wv in waveforms]
                        pert[i][s] += sign * h
                        r = residual_for(pert, x, code)
                        fd[s] += sign * (-0.5) * float(np.dot(r, r))
                    fd[s] /= 2.0 * h
                scale = max(np.abs(g).max(), np.abs(fd).max(), 1e-12)
                worst = max(worst, float(np.abs(g - fd).max() / scale))
        assert worst <= 1e-5

    def test_zero_for_unselected_atom(self):
        waveforms, _, code = random_instance(3)
        unused = len(waveforms)  # index past every event
        g = atom_gradient(code, [len(w) for w in waveforms] + [6])[unused]
        np.testing.assert_array_equal(g, np.zeros(6))

    def test_zero_extends_past_residual_end(self):
        residual = np.arange(1.0, 6.0)
        code = SparseCode(
            events=[SparseEvent(0, 3, 2.0)], residual=residual, window_len=5
        )
        g = atom_gradient(code, [4])[0]
        np.testing.assert_allclose(g, [8.0, 10.0, 0.0, 0.0])

    def test_requires_residual(self):
        code = SparseCode(events=[], residual=None, window_len=4)
        with pytest.raises(ValueError):
            atom_gradient(code, [4])


class TestApplyUpdate:
    def test_untouched_atoms_are_the_same_objects(self):
        d = randdict(4, seed=5)
        rng = np.random.default_rng(4002)
        residual = rng.standard_normal(500)
        code = SparseCode(
            events=[SparseEvent(1, 10, 0.5)], residual=residual, window_len=500
        )
        out = apply_update(d, code, eta=1e-4, rng=np.random.default_rng(0))
        for i in (0, 2, 3):
            assert out.atoms[i] is d.atoms[i]
        assert out.atoms[1] is not d.atoms[1]

    def test_eta_zero_only_renormalizes(self):
        d = randdict(3, seed=6)
        rng = np.random.default_rng(4003)
        residual = rng.standard_normal(400)
        code = SparseCode(
            events=[SparseEvent(0, 5, 1.0), SparseEvent(2, 50, -0.3)],
            residual=residual,
            window_len=400,
        )
        out = apply_update(d, code, eta=0.0, rng=np.random.default_rng(0))
        for before, after in zip(d.atoms, out.atoms):
            np.testing.assert_allclose(after.waveform, before.waveform, atol=1e-12)
            assert np.linalg.norm(after.waveform) == pytest.approx(1.0, abs=1e-12)

    def test_negative_eta_rejected(self):
        d = randdict(2, seed=0)
        code = SparseCode(events=[], residual=np.zeros(100), window_len=100)
        with pytest.raises(ValueError):
            apply_update(d, code, eta=-1e-6, rng=np.random.default_rng(0))

    def test_requires_residual(self):
        d = randdict(2, seed=0)
        code = SparseCode(events=[], residual=None, window_len=100)
        with pytest.raises(ValueError):
            apply_update(d, code, eta=1e-6, rng=np.random.default_rng(0))

    def test_small_step_descends_fixed_code_objective(self):
        """A small exact-gradient step must not increase ||x - reconstruct||."""
        improved = 0
        for seed in range(25):
            waveforms, x, code = random_instance(seed, n=120, m=2, max_len=8)
            d = Dictionary([Atom(w) for w in waveforms])
            out = apply_update(d, code, eta=1e-4, rng=np.random.default_rng(0))
            before = float(np.linalg.norm(residual_for(waveforms, x, code)))
            after = float(
                np.linalg.norm(residual_for([a.waveform for a in out.atoms], x, code))
            )
            if after <= before + 1e-12:
                improved += 1
        assert improved >= 23

    def test_metadata_carried_through(self):
        d = randdict(2, seed=7, sample_rate_hint=44100)
        rng = np.random.default_rng(4004)
        code = SparseCode(
            events=[SparseEvent(0, 0, 1.0)],
            residual=rng.standard_normal(300),
            window_len=300,
        )
        out = apply_update(d, code, eta=1e-5, rng=np.random.default_rng(0))
        assert out.sample_rate_hint == 44100
        assert out.provenance == d.provenance

    def test_atom_driven_to_zero_rerandomized_with_rng(self):
        rng = np.random.default_rng(4005)
        w = rng.standard_normal(12)
        w /= np.linalg.norm(w)
        d = Dictionary([Atom(w)])
        residual = np.zeros(64)
        residual[20:32] = -w  # gradient of the single unit event is -w
        var = float(np.var(residual))
        code = SparseCode(
            events=[SparseEvent(0, 20, 1.0)], residual=residual, window_len=64
        )
        out = apply_update(d, code, eta=var, rng=np.random.default_rng(1))
        assert len(out.atoms) == 1
        assert np.linalg.norm(out.atoms[0].waveform) == pytest.approx(1.0, abs=1e-12)
        assert not np.array_equal(out.atoms[0].waveform, w)

    def test_updated_atoms_stay_unit_norm(self):
        d = randdict(3, seed=8)
        rng = np.random.default_rng(4007)
        residual = rng.standard_normal(600)
        code = SparseCode(
            events=[SparseEvent(i, 40 * i, float(rng.normal())) for i in range(3)],
            residual=residual,
            window_len=600,
        )
        out = apply_update(d, code, eta=1e-3, rng=np.random.default_rng(0))
        for atom in out.atoms:
            assert np.linalg.norm(atom.waveform) == pytest.approx(1.0, abs=1e-12)


def unit_atoms(rng, lengths) -> list[Atom]:
    atoms = []
    for length in lengths:
        w = rng.standard_normal(length)
        atoms.append(Atom(w / np.linalg.norm(w)))
    return atoms


def assert_update_matches_loop(d, code, eta, max_atom_len=None, rng_seed=0):
    """apply_update and the per-event reference give byte-equal waveforms."""

    def rng():
        return np.random.default_rng(rng_seed)

    out = apply_update(d, code, eta, max_atom_len=max_atom_len, rng=rng())
    ref = loop_update(d, code, eta, max_atom_len=max_atom_len, rng=rng())
    assert len(out.atoms) == len(ref.atoms)
    for a, b in zip(out.atoms, ref.atoms):
        assert np.array_equal(a.waveform, b.waveform)
    return out


class TestBatchedUpdateMatchesLoop:
    def test_mixed_lengths_many_events(self):
        # Length 1 and 2 atoms with dozens of events each: numpy would sum a
        # lone column pairwise, out of event order.
        lengths = (1, 2, 7, 30, 70, 95)
        for seed in range(8):
            rng = np.random.default_rng((seed, 4010))
            atoms = unit_atoms(rng, lengths)
            n = 400
            events = [
                SparseEvent(i, int(rng.integers(0, n - lengths[i] + 1)),
                            float(rng.normal()))
                for i in rng.integers(len(lengths), size=240)
            ]
            code = SparseCode(events, rng.standard_normal(n), n)
            grads = atom_gradient(code, list(lengths))
            for i, length in enumerate(lengths):
                assert np.array_equal(grads[i], loop_gradient(code, i, length))
            var = float(np.var(code.residual))
            for eta in (1e-4 * var, 0.5 * var):
                assert_update_matches_loop(Dictionary(atoms), code, eta)
                assert_update_matches_loop(Dictionary(atoms), code, eta, max_atom_len=80)

    def test_repeated_atom_offset_event(self):
        rng = np.random.default_rng(4011)
        d = Dictionary(unit_atoms(rng, (12, 20)))
        events = [
            SparseEvent(0, 5, 0.7), SparseEvent(1, 5, 0.3), SparseEvent(0, 5, -0.2),
            SparseEvent(0, 5, 1.1), SparseEvent(1, 5, 0.3),
        ]
        code = SparseCode(events, rng.standard_normal(60), 60)
        assert_update_matches_loop(d, code, eta=0.3)

    def test_events_past_the_residual_end(self):
        rng = np.random.default_rng(4012)
        d = Dictionary(unit_atoms(rng, (30, 50)))
        n = 100
        events = [
            SparseEvent(0, n - 3, -0.8), SparseEvent(1, n - 49, 0.4),
            SparseEvent(1, n - 1, 1.3), SparseEvent(0, 10, 0.2),
        ]
        code = SparseCode(events, rng.standard_normal(n), n)
        grads = atom_gradient(code, [30, 50])
        assert np.array_equal(grads[0], loop_gradient(code, 0, 30))
        assert np.array_equal(grads[1], loop_gradient(code, 1, 50))
        assert_update_matches_loop(d, code, eta=0.5)

    def test_atom_without_events_stays_the_same_object(self):
        rng = np.random.default_rng(4013)
        d = Dictionary(unit_atoms(rng, (10, 15, 10)))
        code = SparseCode(
            [SparseEvent(0, 4, 0.5), SparseEvent(2, 30, -0.6)],
            rng.standard_normal(80),
            80,
        )
        out = assert_update_matches_loop(d, code, eta=0.1)
        assert out.atoms[1] is d.atoms[1]
        assert out.atoms[0] is not d.atoms[0]

    def test_zero_atom_rerandomized_like_the_loop(self):
        rng = np.random.default_rng(4014)
        w, other = (a.waveform for a in unit_atoms(rng, (12, 12)))
        d = Dictionary([Atom(other), Atom(w), Atom(other)])
        residual = np.zeros(64)
        residual[20:32] = -w  # gradient of the single unit event is -w
        code = SparseCode(
            [SparseEvent(0, 40, 0.5), SparseEvent(1, 20, 1.0), SparseEvent(2, 2, 0.1)],
            residual,
            64,
        )
        out = assert_update_matches_loop(
            d, code, eta=float(np.var(residual)), rng_seed=9
        )
        assert len(out.atoms[1].waveform) == 70  # a fresh random atom


def training_source(seed: int, length: int = 12000) -> Signal:
    rng = np.random.default_rng((seed, 4008))
    waveforms = []
    for _ in range(3):
        w = rng.standard_normal(16)
        waveforms.append(w / np.linalg.norm(w))
    placements = []
    for _ in range(int(0.01 * length)):
        i = int(rng.integers(3))
        off = int(rng.integers(0, length - 16))
        placements.append((i, off, float(rng.uniform(0.8, 1.2))))
    return synth_signal(waveforms, placements, length, noise_sigma=0.01,
                        seed=(seed, 4009), sample_rate=8000)


class TestDlearn:
    def test_zero_block_budget_returns_initial_dictionary(self):
        src = training_source(0)
        cfg = LearnConfig(m=4, n_blocks=0, seed=3, block_len=1500)
        d, trace = dlearn(src, cfg)
        assert len(trace) == 0
        assert d == randdict(4, seed=3, sample_rate_hint=8000)

    def test_deterministic_given_seeds(self):
        cfg = LearnConfig(m=4, p=0.04, eta=1e-4, variant="emp", n_blocks=6, seed=9,
                          block_len=1500)
        d1, t1 = dlearn(training_source(1), cfg)
        d2, t2 = dlearn(training_source(1), cfg)
        assert len(t1) == len(t2) == 6
        for a, b in zip(d1.atoms, d2.atoms):
            assert np.array_equal(a.waveform, b.waveform)
        for r1, r2 in zip(t1, t2):
            assert r1.snr_db == r2.snr_db
            assert np.array_equal(r1.event_counts, r2.event_counts)

    def test_trace_records_shape(self):
        src = training_source(2)
        cfg = LearnConfig(m=3, p=0.04, eta=1e-4, variant="eomp", n_blocks=4, seed=1,
                          block_len=1500)
        d, trace = dlearn(src, cfg)
        q = cfg.pursuit().quota(cfg.block_len, 3)
        for step, rec in enumerate(trace):
            assert rec.block == step
            assert rec.signal_seconds == pytest.approx((step + 1) * 1500 / 8000)
            assert np.isfinite(rec.snr_db)
            assert rec.residual_var > 0
            assert rec.event_counts.sum() == 3 * q
            assert len(rec.atom_lengths) == 3

    def test_equiprobable_touches_every_atom_each_block(self):
        src = training_source(3)
        cfg = LearnConfig(m=3, p=0.04, eta=1e-4, variant="emp", n_blocks=3, seed=2,
                          block_len=1500)
        _, trace = dlearn(src, cfg)
        for rec in trace:
            assert (rec.event_counts > 0).all()

    def test_plain_mp_leaves_zero_event_atoms_bit_identical(self):
        src = training_source(4)
        cfg = LearnConfig(m=6, p=0.01, eta=1e-3, variant="mp", n_blocks=5, seed=4,
                          block_len=1500)
        d, trace = dlearn(src, cfg)
        init = randdict(6, seed=4, sample_rate_hint=8000)
        totals = np.zeros(6, dtype=int)
        for rec in trace:
            totals += rec.event_counts
        for i in range(6):
            if totals[i] == 0:
                assert np.array_equal(d.atoms[i].waveform, init.atoms[i].waveform)

    def test_atom_lengths_capped_by_default(self):
        src = training_source(5)
        cfg = LearnConfig(m=3, p=0.05, eta=5e-3, variant="emp", n_blocks=8, seed=5,
                          block_len=800)
        d, _ = dlearn(src, cfg)
        for atom in d.atoms:
            assert len(atom.waveform) <= 800 // 4

    @pytest.mark.parametrize("variant", ["mp", "omp", "emp", "eomp"])
    def test_first_blocks_of_a_run_are_the_shorter_run(self, variant):
        """A run's first k records are the run with n_blocks = k."""
        src = training_source(6)
        cfg = LearnConfig(
            m=3, p=0.04, eta=1e-2, variant=variant, n_blocks=6, seed=6, block_len=1500,
        )
        _, long = dlearn(src, cfg)
        _, short = dlearn(src, dataclasses.replace(cfg, n_blocks=3))
        assert len(short) == 3
        for a, b in zip(short, long):
            assert (a.snr_db, a.residual_var) == (b.snr_db, b.residual_var)
            assert np.array_equal(a.event_counts, b.event_counts)
            assert a.atom_lengths == b.atom_lengths

    def test_float_sample_rate_gives_a_loadable_dictionary(self, tmp_path):
        src = training_source(6)
        sig = Signal(src.samples, float(src.sample_rate))
        d, _ = dlearn(sig, LearnConfig(m=2, n_blocks=1, seed=6, block_len=1500))
        save_dict(d, tmp_path / "d.json")
        assert load_dict(tmp_path / "d.json").sample_rate_hint == 8000

    @pytest.mark.parametrize(
        "block_len, max_atom_len", [(1500, 1510), (60, None)], ids=["cap", "default-cap"]
    )
    def test_cap_above_the_block_rejected_before_the_first_block(
        self, monkeypatch, block_len, max_atom_len
    ):
        """An atom allowed to outgrow the block would stop the run part way."""
        def no_block(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(learner, "next_block", no_block)
        cfg = LearnConfig(m=2, n_blocks=4, block_len=block_len, max_atom_len=max_atom_len)
        with pytest.raises(ValueError, match=f"exceeds block_len {block_len}"):
            dlearn(training_source(9), cfg)

    def test_block_len_must_fit(self):
        sig = Signal(np.zeros(50), 8000)
        with pytest.raises(ValueError, match="exceeds signal length"):
            dlearn(sig, LearnConfig(m=2, n_blocks=1, block_len=51))

    def test_silent_blocks_record_nan_snr(self):
        sig = Signal(np.zeros(2000), 8000)
        _, trace = dlearn(sig, LearnConfig(m=2, n_blocks=3, block_len=1500))
        assert len(trace) == 3
        assert all(np.isnan(rec.snr_db) for rec in trace)

    def test_block_len_defaults_to_signal_length_up_to_16384(self):
        for length, expected in ((12000, 12000), (20000, 16384)):
            _, trace = dlearn(
                training_source(10, length), LearnConfig(m=2, n_blocks=1, seed=1)
            )
            assert trace[0].signal_seconds == expected / 8000

    def test_blocks_seeded_by_cfg_seed(self, monkeypatch):
        """dlearn draws block k as next_block(signal, block_len, cfg.seed, k)."""
        calls = []

        def record_block(*args):
            calls.append(args)
            return next_block(*args)

        monkeypatch.setattr(learner, "next_block", record_block)
        src = training_source(11)
        cfg = LearnConfig(m=2, p=0.04, eta=1e-4, n_blocks=3, seed=12, block_len=1500)
        dlearn(src, cfg)
        assert all(args[0] is src for args in calls)
        assert [args[1:] for args in calls] == [(1500, 12, k) for k in range(3)]


class TestWriteTrace:
    def test_csv_rows_and_snr_clamp(self, tmp_path):
        trace = [
            BlockRecord(
                block=0,
                signal_seconds=0.25,
                snr_db=float("inf"),
                residual_var=1.5e-3,
                event_counts=np.array([2, 3]),
                atom_lengths=[70, 72],
            ),
            BlockRecord(
                block=1,
                signal_seconds=0.5,
                snr_db=-500.0,
                residual_var=2.5e-3,
                event_counts=np.array([4, 1]),
                atom_lengths=[70, 74],
            ),
        ]
        path = tmp_path / "trace.csv"
        write_trace(trace, path, header={"variant": "emp"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# variant=emp"
        assert lines[1].split(",")[0] == "block"
        first = lines[2].split(",")
        second = lines[3].split(",")
        assert first[2] == "120.00"
        assert second[2] == "-120.00"
        assert first[6] == "2 3"
        assert second[4:6] == ["70", "74"]
