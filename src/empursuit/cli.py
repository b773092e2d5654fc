"""Command-line surface: learn, encode, reconstruct, eval, profile.

Every run writes a fully resolved config JSON next to its primary output
(`<out>.run.json`) so results can be traced back to exact parameters.
Exit codes: 0 success, 2 usage/parameter error, 3 data error, 4 numerical
degeneracy.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

import numpy as np
import scipy

from . import __version__
from .dictionary import dict_digest, load_dict, randdict, save_dict
from .errors import DataFormatError, DegenerateSignalError, ZeroAtomError
from .learner import LearnConfig, dlearn, write_trace
from .metrics import (
    HISTOGRAM_BIN_COUNTS,
    clamp_db,
    denoise_sweep,
    event_stats,
    index_entropy,
    coeff_entropy,
    p_sweep,
    profile_dictionary,
    profile_signal,
    rates_table,
    timing_profile,
    write_table,
)
from .pursuit import (
    VARIANTS,
    PursuitConfig,
    load_code,
    match,
    reconstruct,
    save_code,
)
from .signal_io import (
    BlockSource,
    Signal,
    build_synth_signal,
    load_wav,
    save_wav,
    snr_db,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _add_input_group(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="input WAV file")
    group.add_argument("--synth", help="synthetic-signal config file (JSON)")


def _load_input(args) -> Signal:
    if args.synth:
        with open(args.synth) as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"bad synth config {args.synth!r}: {exc}") from exc
        sig, _ = build_synth_signal(cfg)
        return sig
    return load_wav(args.input)


def _resolved_config(args) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg["argv_command"] = args.command
    return cfg


@functools.cache
def _environment() -> dict:
    """Package, numpy, scipy and BLAS versions, BLAS thread settings and CPU.

    Timings depend on the BLAS the correlation updates run on, so every
    run records it. The result is constant for a process.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "empursuit": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "cpu_model": _cpu_model(),
    }


def _emit_run_config(primary_out: str, args) -> str:
    """Write <out>.run.json and return the config digest.

    The digest covers the resolved parameters only, not the environment,
    so the same parameters give the same digest on any machine.
    """
    cfg = _resolved_config(args)
    blob = json.dumps(cfg, indent=2, sort_keys=True, default=str)
    record = json.dumps(
        {**cfg, "environment": _environment()}, indent=2, sort_keys=True, default=str
    )
    with open(primary_out + ".run.json", "w") as fh:
        fh.write(record + "\n")
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad number list {text!r}") from exc


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad integer list {text!r}") from exc


def _parse_grid(text: str) -> list[float]:
    """start:step:stop inclusive, e.g. 0.01:0.01:0.10."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:step:stop, got {text!r}")
    start, step, stop = (float(t) for t in parts)
    if step <= 0 or stop < start:
        raise ValueError(f"bad grid {text!r}")
    n = int(round((stop - start) / step)) + 1
    return [start + i * step for i in range(n)]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cmd_learn(args) -> int:
    sig = _load_input(args)
    block_len = args.block_len or min(len(sig), 16384)
    cfg = LearnConfig(
        m=args.atoms,
        p=args.p,
        eta=args.eta,
        variant=args.variant,
        n_blocks=args.blocks,
        time_budget_s=args.time_budget,
        seed=args.seed,
        max_atom_len=args.max_atom_len,
        checkpoint_every=args.checkpoint_every,
    )
    source = BlockSource(
        source=sig,
        block_len=block_len,
        rng_seed=args.seed,
        carry_residual=args.carry_residual,
    )
    digest = _emit_run_config(args.out, args)
    dictionary, trace = dlearn(source, cfg, checkpoint_dir=args.checkpoint_dir)
    save_dict(dictionary, args.out)
    trace_path = args.trace or args.out + ".trace.csv"
    write_trace(
        trace,
        trace_path,
        header={
            "config_digest": digest,
            "seed": args.seed,
            "dict_digest": dict_digest(dictionary),
        },
    )
    print(f"dictionary={args.out}")
    print(f"trace={trace_path}")
    print(f"blocks={len(trace)}")
    return EXIT_OK


def cmd_encode(args) -> int:
    dictionary = load_dict(args.dict)
    sig = _load_input(args)
    cfg = PursuitConfig(variant=args.variant, p=args.p, iteration_budget=args.iters)
    _emit_run_config(args.out, args)
    code = match(dictionary, sig, cfg)
    save_code(code, args.out, residual_path=args.residual)
    print(f"code={args.out}")
    print(f"events={len(code.events)}")
    energy = float(np.dot(sig.samples, sig.samples))
    if energy == 0.0:
        print("snr_db=degenerate (zero-energy input)")
    else:
        approx = reconstruct(code, dictionary)
        print(f"snr_db={clamp_db(snr_db(sig.samples, approx)):.2f}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    dictionary = load_dict(args.dict)
    code = load_code(args.code)
    rate = args.sample_rate or code.sample_rate or dictionary.sample_rate_hint
    if not rate:
        raise ValueError(
            "no sample rate available; pass --sample-rate or use a code/dictionary "
            "that records one"
        )
    _emit_run_config(args.out, args)
    approx = reconstruct(code, dictionary)
    save_wav(Signal(approx, int(rate)), args.out, encoding=args.encoding)
    print(f"wav={args.out}")
    print(f"samples={len(approx)}")
    return EXIT_OK


def cmd_eval(args) -> int:
    dictionary = load_dict(args.dict)
    sig = _load_input(args)
    m = len(dictionary.atoms)
    digest = _emit_run_config(args.out, args)
    header = {
        "config_digest": digest,
        "dict_digest": dict_digest(dictionary),
        "analysis": args.analysis,
        "p": args.p,
    }

    if args.analysis == "entropy":
        variants = args.variants.split(",") if args.variants else list(VARIANTS)
        rows = []
        for variant in variants:
            code = match(dictionary, sig, PursuitConfig(variant=variant, p=args.p))
            row = [
                variant,
                len(code.events),
                f"{index_entropy(code, m):.6f}",
            ]
            row += [
                f"{coeff_entropy(code, bins):.6f}" for bins in HISTOGRAM_BIN_COUNTS
            ]
            rows.append(row)
        columns = ["variant", "events", "index_entropy_bits"] + [
            f"coeff_entropy_{b}" for b in HISTOGRAM_BIN_COUNTS
        ]
        write_table(args.out, columns, rows, header)
    elif args.analysis == "rates":
        cfg = PursuitConfig(variant=args.variant, p=args.p, iteration_budget=args.iters)
        code = match(dictionary, sig, cfg)
        stats = event_stats(code, sig.sample_rate, m)
        rows = [(i, f"{r:.6f}") for i, r in rates_table(stats.rates)]
        write_table(args.out, ["atom_index", "events_per_second"], rows, header)
    elif args.analysis == "histograms":
        cfg = PursuitConfig(variant=args.variant, p=args.p, iteration_budget=args.iters)
        code = match(dictionary, sig, cfg)
        stats = event_stats(code, sig.sample_rate, m)
        rows = []
        for bins, hist in stats.coeff_histograms.items():
            for b, count in enumerate(hist):
                rows.append((bins, b, int(count)))
        header["index_entropy_bits"] = f"{stats.index_entropy_bits:.6f}"
        for bins, bits in stats.coeff_entropy_bits.items():
            header[f"coeff_entropy_{bins}"] = f"{bits:.6f}"
        write_table(args.out, ["bins", "bin_index", "count"], rows, header)
    elif args.analysis == "denoise":
        ratios = _csv_floats(args.ratios)
        variants = args.variants.split(",") if args.variants else list(VARIANTS)
        rows = []
        for variant in variants:
            cfg = PursuitConfig(variant=variant, p=args.p)
            for ratio, snr in denoise_sweep(
                dictionary, sig, ratios, cfg, noise_seed=args.noise_seed
            ):
                rows.append((variant, ratio, f"{clamp_db(snr):.2f}"))
        header["noise_seed"] = args.noise_seed
        write_table(args.out, ["variant", "noise_ratio", "snr_db"], rows, header)
    elif args.analysis == "psweep":
        p_values = _parse_grid(args.p_grid)
        rows = [
            (f"{p:.4f}", f"{clamp_db(snr):.2f}")
            for p, snr in p_sweep(dictionary, sig, p_values, variant=args.variant)
        ]
        write_table(args.out, ["p", "snr_db"], rows, header)
    else:
        raise ValueError(f"unknown analysis {args.analysis!r}")
    print(f"csv={args.out}")
    return EXIT_OK


def cmd_profile(args) -> int:
    if args.dict:
        dictionary = load_dict(args.dict)
    else:
        dictionary = profile_dictionary(args.atoms, args.atom_len, seed=args.seed)
    windows = _csv_ints(args.windows)
    sig = profile_signal(dictionary, max(windows), seed=args.seed)
    digest = _emit_run_config(args.out, args)
    rows = timing_profile(
        dictionary,
        sig,
        windows,
        p=args.p,
        repeats=args.repeats,
        warmup=args.warmup,
    )
    header = {
        "config_digest": digest,
        "dict_digest": dict_digest(dictionary),
        "cpu_model": _cpu_model(),
        "p": args.p,
        "repeats": args.repeats,
    }
    write_table(
        args.out,
        ["variant", "window_len", "seconds_per_sample_per_iteration"],
        [(v, n, f"{t:.3e}") for v, n, t in rows],
        header,
    )
    print(f"csv={args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="empursuit",
        description="Shift-invariant dictionary learning and greedy pursuit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_learn = sub.add_parser("learn", help="train a dictionary on a signal")
    _add_input_group(p_learn)
    p_learn.add_argument("--atoms", type=int, default=32, help="dictionary size M")
    p_learn.add_argument("--p", type=float, default=0.05)
    p_learn.add_argument("--eta", type=float, default=1e-6)
    p_learn.add_argument("--variant", choices=VARIANTS, default="emp")
    p_learn.add_argument("--blocks", type=int, default=100)
    p_learn.add_argument("--time-budget", type=float, default=None)
    p_learn.add_argument("--seed", type=int, default=0)
    p_learn.add_argument("--block-len", type=int, default=None)
    p_learn.add_argument("--max-atom-len", type=int, default=None)
    p_learn.add_argument("--carry-residual", action="store_true")
    p_learn.add_argument("--checkpoint-every", type=int, default=0)
    p_learn.add_argument("--checkpoint-dir", default=".")
    p_learn.add_argument("--trace", default=None)
    p_learn.add_argument("--out", required=True, help="dictionary file to write")
    p_learn.set_defaults(func=cmd_learn)

    p_enc = sub.add_parser("encode", help="sparse-code a signal with a dictionary")
    _add_input_group(p_enc)
    p_enc.add_argument("--dict", required=True)
    p_enc.add_argument("--variant", choices=VARIANTS, default="emp")
    p_enc.add_argument("--p", type=float, default=0.05)
    p_enc.add_argument("--iters", type=int, help="mp/omp default: M*floor(p*N/M)")
    p_enc.add_argument("--residual", default=None, help="raw float64 residual output")
    p_enc.add_argument("--out", required=True, help="sparse-code file to write")
    p_enc.set_defaults(func=cmd_encode)

    p_rec = sub.add_parser("reconstruct", help="render a sparse code back to WAV")
    p_rec.add_argument("--dict", required=True)
    p_rec.add_argument("--code", required=True)
    p_rec.add_argument("--sample-rate", type=int, default=None)
    p_rec.add_argument(
        "--encoding", choices=("float32", "pcm16", "pcm24"), default="float32"
    )
    p_rec.add_argument("--out", required=True)
    p_rec.set_defaults(func=cmd_reconstruct)

    p_eval = sub.add_parser("eval", help="run an analysis and write a CSV")
    _add_input_group(p_eval)
    p_eval.add_argument("--dict", required=True)
    p_eval.add_argument(
        "--analysis",
        required=True,
        choices=("entropy", "rates", "histograms", "denoise", "psweep"),
    )
    p_eval.add_argument("--variant", choices=VARIANTS, default="emp")
    p_eval.add_argument("--variants", default=None, help="comma list for entropy/denoise")
    p_eval.add_argument("--p", type=float, default=0.05)
    p_eval.add_argument("--iters", type=int, default=None)
    p_eval.add_argument("--ratios", default="0.05,0.1,0.2,0.3")
    p_eval.add_argument("--noise-seed", type=int, default=0)
    p_eval.add_argument("--p-grid", default="0.01:0.01:0.10")
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_prof = sub.add_parser("profile", help="time the pursuit across window lengths")
    p_prof.add_argument("--dict", default=None)
    p_prof.add_argument("--atoms", type=int, default=32)
    p_prof.add_argument("--atom-len", type=int, default=128)
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument("--windows", default="8192,32768,131072")
    p_prof.add_argument("--p", type=float, default=0.05)
    p_prof.add_argument("--repeats", type=int, default=3)
    p_prof.add_argument("--warmup", type=int, default=1)
    p_prof.add_argument("--out", required=True)
    p_prof.set_defaults(func=cmd_profile)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except (DegenerateSignalError, ZeroAtomError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataFormatError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
