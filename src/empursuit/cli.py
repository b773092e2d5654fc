"""Command-line surface: learn, encode, reconstruct, eval, profile.

Every successful run writes a fully resolved config JSON next to its
primary output (`<out>.run.json`) so results can be traced back to exact
parameters; a rejected run writes none.
Exit codes: 0 success, 2 usage/parameter error, 3 data error (including
data too large for memory), 4 numerical degeneracy.
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
from .dictionary import dict_digest, load_dict, save_dict
from .errors import DataFormatError, DegenerateSignalError, ZeroAtomError
from .learner import MIN_ATOM_LEN_CAP, LearnConfig, dlearn, write_trace
from .metrics import (
    HISTOGRAM_BIN_COUNTS,
    clamp_db,
    coeff_entropy,
    coeff_histogram,
    denoise_sweep,
    event_rates,
    index_entropy,
    p_sweep,
    profile_dictionary,
    profile_signal,
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
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise DataFormatError(f"bad synth config {args.synth!r}: {exc}") from exc
        sig, _ = build_synth_signal(cfg)
        return sig
    return load_wav(args.input)


def _blas_version(show_config) -> str:
    """Name and version of the BLAS that numpy's or scipy's build links."""
    try:
        blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


@functools.cache
def _environment() -> dict:
    """Package, numpy, scipy and BLAS versions, BLAS thread settings and CPU.

    Timings depend on the BLAS the pursuit runs on, so every run records
    it: ``blas`` is numpy's (the matmul table build and the lone-event dot
    products), ``scipy_blas`` is scipy's own (the table updates, residual
    updates and neighbourhood solves). The result is constant for a process.
    """
    return {
        "empursuit": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(np.show_config),
        "scipy_blas": _blas_version(scipy.show_config),
        "threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "cpu_model": _cpu_model(),
    }


def _run_config(args, **extra) -> str:
    """JSON of a run's resolved parameters, plus any extra keys."""
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg.update(argv_command=args.command, **extra)
    return json.dumps(cfg, indent=2, sort_keys=True, default=str)


def _config_digest(args) -> str:
    """Digest of the resolved parameters only, not the environment, so the
    same parameters give the same digest on any machine."""
    return hashlib.sha256(_run_config(args).encode()).hexdigest()[:16]


def _check_outputs(args, *others: str | None) -> None:
    """Reject, before any work, a run whose outputs (with `<out>.run.json`) name
    one file twice, name one of its inputs, or lie in no directory."""
    outputs = [args.out, args.out + ".run.json", *filter(None, others)]
    written = {os.path.realpath(p) for p in outputs}
    if len(written) < len(outputs):
        raise ValueError(f"two of the outputs {outputs} are one file")
    for path in filter(None, map(vars(args).get, ("input", "synth", "dict", "code"))):
        if os.path.realpath(path) in written:
            raise ValueError(f"an output would overwrite the input {path!r}")
    for path in outputs:
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(f"no directory to write {path!r} in")


def _write_csv(args, dictionary, columns, rows, **header) -> None:
    """Write a table under the run's digests and then the command's own keys."""
    digest = dict_digest(dictionary)
    header = {"config_digest": _config_digest(args), "dict_digest": digest, **header}
    write_table(args.out, columns, rows, header)
    print(f"csv={args.out}")


def _csv_list(text: str, kind: type) -> list:
    """Comma-separated numbers of one kind (int or float)."""
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad {kind.__name__} list {text!r}") from exc


def _parse_grid(text: str) -> list[float]:
    """start:step:stop inclusive, e.g. 0.01:0.01:0.10, stepped in exact fractions
    so that each value is the decimal it names (0.07, not 0.06999999999999999)."""
    from fractions import Fraction  # imports decimal (~4 ms); only psweep needs it
    parts = text.split(":")
    if len(parts) != 3 or "/" in text:  # Fraction would also read 1/3, or 1/0
        raise ValueError(f"grid must be start:step:stop, got {text!r}")
    start, step, stop = (Fraction(t) for t in parts)
    if step <= 0 or stop < start:
        raise ValueError(f"bad grid {text!r}")
    return [float(start + i * step) for i in range((stop - start) // step + 1)]


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
    cfg = LearnConfig(
        m=args.atoms,
        p=args.p,
        eta=args.eta,
        variant=args.variant,
        n_blocks=args.blocks,
        seed=args.seed,
        block_len=args.block_len,
        max_atom_len=args.max_atom_len,
    )
    trace_path = args.trace or args.out + ".trace.csv"
    _check_outputs(args, trace_path)
    dictionary, trace = dlearn(sig, cfg)
    save_dict(dictionary, args.out)
    write_trace(
        trace,
        trace_path,
        header={
            "config_digest": _config_digest(args),
            "seed": args.seed,
            "dict_digest": dict_digest(dictionary),
        },
    )
    print(f"dictionary={args.out}")
    print(f"trace={trace_path}")
    print(f"blocks={len(trace)}")
    return EXIT_OK


def cmd_encode(args) -> int:
    _check_outputs(args, args.residual)
    dictionary = load_dict(args.dict)
    sig = _load_input(args)
    cfg = PursuitConfig(variant=args.variant, p=args.p)
    code = match(dictionary, sig, cfg)
    save_code(code, args.out, residual_path=args.residual)
    print(f"code={args.out}")
    print(f"events={len(code.events)}")
    try:
        snr = f"{clamp_db(snr_db(sig.samples, reconstruct(code, dictionary))):.2f}"
    except DegenerateSignalError:
        snr = "degenerate (zero-energy input)"
    print(f"snr_db={snr}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    _check_outputs(args)
    dictionary = load_dict(args.dict)
    code = load_code(args.code)
    rate = args.sample_rate
    if rate is None:
        rate = code.sample_rate or dictionary.sample_rate_hint
        if not rate:
            raise ValueError(
                "no sample rate available; pass --sample-rate or use a "
                "code/dictionary that records one"
            )
    approx = reconstruct(code, dictionary)
    save_wav(Signal(approx, int(rate)), args.out, encoding=args.encoding)
    print(f"wav={args.out}")
    print(f"samples={len(approx)}")
    return EXIT_OK


def _entropy_rows(args, dictionary, sig, cfg) -> list:
    code = match(dictionary, sig, cfg)
    bits = [index_entropy(code, len(dictionary.atoms))]
    bits += [coeff_entropy(code, bins) for bins in HISTOGRAM_BIN_COUNTS]
    return [(len(code.events), *(f"{b:.6f}" for b in bits))]


def _rates_rows(args, dictionary, sig, cfg) -> list:
    code = match(dictionary, sig, cfg)
    rates = event_rates(code, sig.sample_rate, len(dictionary.atoms))
    return [(i, f"{r:.6f}") for i, r in enumerate(rates)]


def _histogram_rows(args, dictionary, sig, cfg) -> list:
    code = match(dictionary, sig, cfg)
    hists = [(bins, coeff_histogram(code, bins)) for bins in HISTOGRAM_BIN_COUNTS]
    return [(bins, b, int(n)) for bins, hist in hists for b, n in enumerate(hist)]


def _denoise_rows(args, dictionary, sig, cfg) -> list:
    ratios = _csv_list(args.ratios, float)
    sweep = denoise_sweep(dictionary, sig, ratios, cfg, noise_seed=args.noise_seed)
    return [(ratio, f"{clamp_db(snr):.2f}") for ratio, snr in sweep]


def _psweep_rows(args, dictionary, sig, cfg) -> list:
    sweep = p_sweep(dictionary, sig, _parse_grid(args.p_grid), cfg)
    return [(f"{p:.4f}", f"{clamp_db(snr):.2f}") for p, snr in sweep]


# Each analysis `eval` runs: its columns after `variant`, its rows for one
# pursuit configuration, and the flags its CSV header records after `p`.
_ANALYSES = {
    "entropy": (
        ["events", "index_entropy_bits"]
        + [f"coeff_entropy_{b}" for b in HISTOGRAM_BIN_COUNTS],
        _entropy_rows, (),
    ),
    "rates": (["atom_index", "events_per_second"], _rates_rows, ()),
    "histograms": (["bins", "bin_index", "count"], _histogram_rows, ()),
    "denoise": (["noise_ratio", "snr_db"], _denoise_rows, ("noise_seed",)),
    "psweep": (["p", "snr_db"], _psweep_rows, ()),
}


def cmd_eval(args) -> int:
    _check_outputs(args)
    dictionary = load_dict(args.dict)
    sig = _load_input(args)
    columns, rows_for, flags = _ANALYSES[args.analysis]
    # Every variant is checked before the first pursuit runs.
    cfgs = [PursuitConfig(variant=v, p=args.p) for v in args.variants.split(",")]
    rows = [
        (cfg.variant, *r) for cfg in cfgs for r in rows_for(args, dictionary, sig, cfg)
    ]
    _write_csv(
        args, dictionary, ["variant", *columns], rows,
        analysis=args.analysis, p=args.p, **{f: getattr(args, f) for f in flags},
    )
    return EXIT_OK


def cmd_profile(args) -> int:
    _check_outputs(args)
    windows = _csv_list(args.windows, int)
    if not windows or min(windows) < 1:
        raise ValueError(f"--windows must list lengths >= 1, got {args.windows!r}")
    if args.dict:
        dictionary = load_dict(args.dict)
    else:
        dictionary = profile_dictionary(args.atoms, args.atom_len, seed=args.seed)
    sig = profile_signal(dictionary, max(windows), seed=args.seed)
    rows = timing_profile(dictionary, sig, windows, p=args.p, repeats=args.repeats)
    _write_csv(
        args, dictionary,
        ["variant", "window_len", "seconds_per_sample_per_iteration"],
        [(v, n, f"{t:.3e}") for v, n, t in rows],
        cpu_model=_cpu_model(), p=args.p, repeats=args.repeats,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="empursuit",
        description="Shift-invariant dictionary learning and greedy pursuit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_learn = sub.add_parser("learn", help="train a dictionary on a signal")
    _add_input_group(p_learn)
    learn = LearnConfig()  # the defaults
    p_learn.add_argument("--atoms", type=int, default=learn.m, help="dictionary size M")
    p_learn.add_argument("--p", type=float, default=learn.p)
    p_learn.add_argument("--eta", type=float, default=learn.eta)
    p_learn.add_argument("--variant", choices=VARIANTS, default=learn.variant)
    p_learn.add_argument(
        "--blocks", type=int, default=learn.n_blocks,
        help="default %(default)s; a run's first k blocks are the run with --blocks k",
    )
    p_learn.add_argument("--seed", type=int, default=learn.seed)
    p_learn.add_argument(
        "--block-len", type=int, help="N = signal length; default min(N, 16384), max N"
    )
    p_learn.add_argument(
        "--max-atom-len", type=int,
        help=f"at least {MIN_ATOM_LEN_CAP}, at most block-len, default "
        f"max(block-len // 4, {MIN_ATOM_LEN_CAP}); extnorm never trims, so without "
        "a cap an atom's tails can grow with every block",
    )
    p_learn.add_argument("--trace")
    p_learn.add_argument("--out", required=True, help="dictionary file to write")
    p_learn.set_defaults(func=cmd_learn)

    p_enc = sub.add_parser("encode", help="sparse-code a signal with a dictionary")
    _add_input_group(p_enc)
    p_enc.add_argument("--dict", required=True)
    p_enc.add_argument("--variant", choices=VARIANTS, default=PursuitConfig.variant)
    p_enc.add_argument(
        "--p", type=float, default=PursuitConfig.p,
        help="default %(default)s; every variant takes M*floor(p*N/M) steps",
    )
    p_enc.add_argument("--residual", help="raw float64 residual output")
    p_enc.add_argument("--out", required=True, help="sparse-code file to write")
    p_enc.set_defaults(func=cmd_encode)

    p_rec = sub.add_parser("reconstruct", help="render a sparse code back to WAV")
    p_rec.add_argument("--dict", required=True)
    p_rec.add_argument("--code", required=True)
    p_rec.add_argument("--sample-rate", type=int)
    p_rec.add_argument(
        "--encoding", choices=("float32", "pcm16", "pcm24"), default="float32"
    )
    p_rec.add_argument("--out", required=True)
    p_rec.set_defaults(func=cmd_reconstruct)

    p_eval = sub.add_parser("eval", help="run an analysis and write a CSV")
    _add_input_group(p_eval)
    p_eval.add_argument("--dict", required=True)
    p_eval.add_argument("--analysis", required=True, choices=_ANALYSES)
    p_eval.add_argument(
        "--variants", default=",".join(VARIANTS),
        help="comma list, default %(default)s; every analysis runs each",
    )
    p_eval.add_argument(
        "--p", type=float, default=PursuitConfig.p,
        help="default %(default)s; every variant takes M*floor(p*N/M) steps; "
        "psweep replaces it with each --p-grid value",
    )
    p_eval.add_argument("--ratios", default="0.05,0.1,0.2,0.3")
    p_eval.add_argument("--noise-seed", type=int, default=0)
    p_eval.add_argument("--p-grid", default="0.01:0.01:0.10")
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_prof = sub.add_parser("profile", help="time the pursuit across window lengths")
    p_prof.add_argument("--dict")
    p_prof.add_argument("--atoms", type=int, default=32)
    p_prof.add_argument("--atom-len", type=int, default=128)
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument("--windows", default="8192,32768,131072")
    p_prof.add_argument("--p", type=float, default=PursuitConfig.p)
    p_prof.add_argument("--repeats", type=int, default=3)
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
        status = args.func(args)
        if status == EXIT_OK:
            with open(args.out + ".run.json", "w") as fh:
                fh.write(_run_config(args, environment=_environment()) + "\n")
        return status
    except (DegenerateSignalError, ZeroAtomError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataFormatError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
