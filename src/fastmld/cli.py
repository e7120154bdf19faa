"""Command-line front end.

One subcommand per decoding mode plus simulation, benchmarking, code
generation, and inspection.  Results print as line-oriented records; exit
status is 0 on success, 1 for decode-domain failures (malformed files,
out-of-range values, oracle mismatches), and 2 for usage errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .channels import ErasureChannel, IsiChannel
from .codes import (
    Code,
    LinearCode,
    build_bipolar_codebook,
    build_codebook_matrix,
    build_codebook_matrix_isi,
    build_syndrome_matrix,
    enumerate_codewords,
    parity_check_from_generator,
    random_linear_code,
)
from .decoder import (
    erasure_decode,
    isi_ml_decode,
    list_decode,
    ml_decode,
    syndrome_decode,
)
from .errors import FastmldError, InvalidParams
from .fileio import (
    parse_channel_spec,
    parse_received_word,
    read_code_file,
    read_linear_code_file,
    read_observations,
    write_linear_code_file,
)
from .oracle import esd_decode, esd_decode_isi, min_distance_decode, ranking_equivalent
from .simulate import RandomCodeSpec, SimConfig, bench_multiply, run_monte_carlo


def _add_code_arguments(parser: argparse.ArgumentParser, generator_only: bool = False) -> None:
    if not generator_only:
        parser.add_argument("--code", metavar="FILE", help="codebook file (q n S header)")
    parser.add_argument(
        "--gen", metavar="FILE", help="generator file (q n k header); codewords are enumerated"
    )


def _add_received_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--rx", metavar="WORD", help="one received word")
    group.add_argument("--rx-file", metavar="FILE", help="received words, one per line")


def _resolve_code(args, parser) -> Code:
    picked = [flag for flag in ("code", "gen") if getattr(args, flag, None)]
    if len(picked) != 1:
        parser.error("exactly one of --code or --gen is required")
    if picked[0] == "code":
        return read_code_file(args.code)
    return enumerate_codewords(read_linear_code_file(args.gen))


def _received_words(args, channel, q: int) -> list:
    if args.rx is not None:
        return [parse_received_word(args.rx, channel, q)]
    return read_observations(args.rx_file, channel, q)


def _word_text(received, q: int) -> str:
    if isinstance(received, np.ndarray) and received.dtype == np.float64:
        return ",".join(repr(float(v)) for v in received)
    if isinstance(received, np.ndarray):
        return _symbols_text(received, q)
    return str(received)


def _symbols_text(symbols: np.ndarray, q: int | None) -> str:
    if q == 2:
        return "".join(str(int(s) - 1) for s in symbols)
    return " ".join(str(int(s)) for s in symbols)


def _print_result(received, result, q: int) -> None:
    print(f"word {_word_text(received, q)}")
    print(f"best_index {result.best_index}")
    print(f"best_score {result.best_score!r}")
    print("ties " + " ".join(str(t) for t in result.ties))
    print("scores " + " ".join(repr(float(s)) for s in result.scores))
    print(f"codeword {_symbols_text(result.best_codeword, q)}")
    if result.implausible:
        print("implausible 1")


def _check_oracle(fast_ties, reference_ties) -> int:
    print("oracle_ties " + " ".join(str(t) for t in reference_ties))
    match = tuple(fast_ties) == tuple(reference_ties)
    print(f"oracle_match {int(match)}")
    return 0 if match else 1


def _cmd_decode(args, parser) -> int:
    code = _resolve_code(args, parser)
    channel = parse_channel_spec(args.channel)
    codebook = build_codebook_matrix(code)
    status = 0
    for i, received in enumerate(_received_words(args, channel, code.q)):
        if i:
            print()
        result = ml_decode(codebook, code, channel, received, args.tie_tol)
        _print_result(received, result, code.q)
        if args.oracle:
            reference = esd_decode(code, channel, received, args.tie_tol)
            status |= _check_oracle(result.ties, reference.ties)
    return status


def _cmd_list_decode(args, parser) -> int:
    code = _resolve_code(args, parser)
    channel = parse_channel_spec(args.channel)
    codebook = build_codebook_matrix(code)
    status = 0
    for i, received in enumerate(_received_words(args, channel, code.q)):
        if i:
            print()
        listed = list_decode(codebook, code, channel, received, args.list_size)
        print(f"word {_word_text(received, code.q)}")
        for rank, (index, score) in enumerate(listed.entries, start=1):
            print(f"rank {rank} index {index} score {score!r}")
        if args.oracle:
            reference = esd_decode(code, channel, received)
            order = np.lexsort((np.arange(code.size), -reference.scores))
            expected = tuple(int(j) + 1 for j in order[: args.list_size])
            print("oracle_indices " + " ".join(str(t) for t in expected))
            match = ranking_equivalent(reference.scores, listed.indices, expected)
            print(f"oracle_match {int(match)}")
            status |= 0 if match else 1
    return status


def _cmd_erasure_decode(args, parser) -> int:
    code = _resolve_code(args, parser)
    bipolar = build_bipolar_codebook(code)
    status = 0
    parse_channel = ErasureChannel(erasure_probability=0.0)
    for i, received in enumerate(_received_words(args, parse_channel, code.q)):
        if i:
            print()
        result = erasure_decode(bipolar, code, received, args.tie_tol)
        _print_result(received, result, code.q)
        print(f"erasures {received.erasure_count}")
        if args.oracle:
            _, reference_ties, _ = min_distance_decode(code, received)
            status |= _check_oracle(result.ties, reference_ties)
    return status


def _cmd_syndrome_decode(args, parser) -> int:
    linear = read_linear_code_file(args.gen)
    parity_check = parity_check_from_generator(linear)
    syndrome_matrix, leaders = build_syndrome_matrix(linear, parity_check)
    status = 0
    words = _received_words(args, None, 2)
    full = enumerate_codewords(linear) if args.oracle else None
    for i, received in enumerate(words):
        if i:
            print()
        bits = np.asarray(received, dtype=np.int64) - 1
        outcome = syndrome_decode(linear, leaders, syndrome_matrix, bits, parity_check=parity_check)
        print(f"word {_symbols_text(received, 2)}")
        print(f"leader_index {outcome.leader_index}")
        print(f"leader {_symbols_text(leaders[outcome.leader_index] + 1, 2)}")
        print(f"codeword {_symbols_text(outcome.codeword + 1, 2)}")
        if full is not None:
            _, reference_ties, _ = min_distance_decode(full, outcome.codeword + 1)
            match = (full.codewords == (outcome.codeword + 1)[None, :]).all(axis=1)
            decoded_index = int(np.flatnonzero(match)[0]) + 1
            print("oracle_ties " + " ".join(str(t) for t in reference_ties))
            print(f"oracle_match {int(decoded_index in reference_ties)}")
            status |= 0 if decoded_index in reference_ties else 1
    return status


def _cmd_isi_decode(args, parser) -> int:
    code = _resolve_code(args, parser)
    channel = parse_channel_spec(args.channel)
    if not isinstance(channel, IsiChannel):
        msg = "isi-decode needs an isi-dmc channel file"
        raise InvalidParams(msg)
    codebook = build_codebook_matrix_isi(code, channel.memory, channel.initial_symbol)
    status = 0
    for i, received in enumerate(_received_words(args, channel, code.q)):
        if i:
            print()
        result = isi_ml_decode(codebook, code, channel, received, args.tie_tol)
        _print_result(received, result, code.q)
        if args.oracle:
            reference = esd_decode_isi(code, channel, received, args.tie_tol)
            status |= _check_oracle(result.ties, reference.ties)
    return status


def _parse_random_code(text: str) -> RandomCodeSpec:
    parts = text.split(",")
    if len(parts) != 4:
        msg = f"--random-code takes q,n,k,seed, got {text!r}"
        raise InvalidParams(msg)
    try:
        q, n, k, seed = (int(p) for p in parts)
    except ValueError:
        msg = f"--random-code takes integers q,n,k,seed, got {text!r}"
        raise InvalidParams(msg) from None
    return RandomCodeSpec(q=q, n=n, k=k, seed=seed)


def _cmd_simulate(args, parser) -> int:
    picked = [flag for flag in ("code", "gen", "random_code") if getattr(args, flag, None)]
    if len(picked) != 1:
        parser.error("exactly one of --code, --gen, or --random-code is required")
    if args.random_code:
        source: Code | LinearCode | RandomCodeSpec = _parse_random_code(args.random_code)
    elif args.gen:
        source = read_linear_code_file(args.gen)
    else:
        source = read_code_file(args.code)
    channel = parse_channel_spec(args.channel)
    config = SimConfig(
        code_source=source,
        channel=channel,
        trials=args.trials,
        seed=args.seed,
        variant=args.variant,
        list_size=args.list_size,
        tie_tolerance=args.tie_tol,
        oracle_check=args.oracle,
        analytic_fer=args.analytic_fer,
        workers=args.workers,
    )
    report = run_monte_carlo(config)
    if args.json:
        print(report.to_json())
    elif args.csv:
        print(report.csv_header())
        print(report.csv_row())
    else:
        sys.stdout.write(report.render())
    if args.oracle and report.oracle_disagreements:
        return 1
    return 0


def _cmd_bench(args, parser) -> int:
    rows_list = [int(p) for p in args.rows.split(",")]
    cols_list = [int(p) for p in args.cols.split(",")]
    rows = bench_multiply(rows_list, cols_list, repetitions=args.reps, seed=args.seed)
    print("rows cols naive_ops mailman_additions ratio naive_us mailman_us")
    for row in rows:
        print(
            f"{row.rows} {row.cols} {row.naive_ops} {row.mailman_additions}"
            f" {row.ratio:.3f} {1e6 * row.naive_seconds:.1f} {1e6 * row.mailman_seconds:.1f}"
        )
    return 0


def _cmd_gen_code(args, parser) -> int:
    linear = random_linear_code(args.q, args.n, args.k, args.seed)
    write_linear_code_file(args.out, linear)
    print(f"wrote {args.out} (q={args.q} n={args.n} k={args.k} seed={args.seed})")
    return 0


def _cmd_inspect(args, parser) -> int:
    code = _resolve_code(args, parser)
    codebook = build_codebook_matrix(code)
    blocks = len(codebook.factorization.blocks)
    print(f"q={code.q} n={code.n} S={code.size}, M: {codebook.rows}x{codebook.cols}, blocks={blocks}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastmld",
        description="Exact maximum-likelihood block decoding via one binary vector-matrix product.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    decode = sub.add_parser("decode", help="maximum-likelihood decode")
    _add_code_arguments(decode)
    decode.add_argument("--channel", required=True, help="channel spec or file")
    _add_received_arguments(decode)
    decode.add_argument("--tie-tol", type=float, default=0.0, help="tie tolerance (default 0)")
    decode.add_argument("--oracle", action="store_true", help="cross-check by brute force")
    decode.set_defaults(handler=_cmd_decode)

    listdec = sub.add_parser("list-decode", help="top-L most likely codewords")
    _add_code_arguments(listdec)
    listdec.add_argument("--channel", required=True, help="channel spec or file")
    _add_received_arguments(listdec)
    listdec.add_argument("--list-size", type=int, required=True, help="entries to return")
    listdec.add_argument("--oracle", action="store_true", help="cross-check by brute force")
    listdec.set_defaults(handler=_cmd_list_decode)

    erasure = sub.add_parser("erasure-decode", help="decode a word with erasures")
    _add_code_arguments(erasure)
    _add_received_arguments(erasure)
    erasure.add_argument("--tie-tol", type=float, default=0.0, help="tie tolerance (default 0)")
    erasure.add_argument("--oracle", action="store_true", help="cross-check by brute force")
    erasure.set_defaults(handler=_cmd_erasure_decode)

    synd = sub.add_parser("syndrome-decode", help="coset-leader decode of a binary word")
    synd.add_argument("--gen", metavar="FILE", required=True, help="generator file")
    _add_received_arguments(synd)
    synd.add_argument("--oracle", action="store_true", help="cross-check by brute force")
    synd.set_defaults(handler=_cmd_syndrome_decode)

    isi = sub.add_parser("isi-decode", help="ML decode over a channel with memory")
    _add_code_arguments(isi)
    isi.add_argument("--channel", required=True, help="isi-dmc channel file")
    _add_received_arguments(isi)
    isi.add_argument("--tie-tol", type=float, default=0.0, help="tie tolerance (default 0)")
    isi.add_argument("--oracle", action="store_true", help="cross-check by brute force")
    isi.set_defaults(handler=_cmd_isi_decode)

    sim = sub.add_parser("simulate", help="Monte Carlo frame-error simulation")
    _add_code_arguments(sim)
    sim.add_argument("--random-code", metavar="Q,N,K,SEED", help="random linear code")
    sim.add_argument("--channel", required=True, help="channel spec or file")
    sim.add_argument("--trials", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--variant", choices=("ml", "list", "erasure", "syndrome", "isi"), default="ml"
    )
    sim.add_argument("--list-size", type=int, default=1)
    sim.add_argument("--tie-tol", type=float, default=0.0)
    sim.add_argument("--oracle", action="store_true", help="cross-check every trial")
    sim.add_argument("--analytic-fer", type=float, default=None, help="known reference FER")
    sim.add_argument("--workers", type=int, default=1, help="logical trial partitions")
    style = sim.add_mutually_exclusive_group()
    style.add_argument("--json", action="store_true", help="machine-readable report")
    style.add_argument("--csv", action="store_true", help="comma-separated report row")
    sim.set_defaults(handler=_cmd_simulate)

    bench = sub.add_parser("bench", help="compare fast and naive product paths")
    bench.add_argument("--rows", required=True, help="comma-separated row counts")
    bench.add_argument("--cols", required=True, help="comma-separated column counts")
    bench.add_argument("--reps", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(handler=_cmd_bench)

    gen = sub.add_parser("gen-code", help="write a random linear code file")
    gen.add_argument("--q", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output generator file")
    gen.set_defaults(handler=_cmd_gen_code)

    inspect = sub.add_parser("inspect", help="print code and matrix dimensions")
    _add_code_arguments(inspect)
    inspect.set_defaults(handler=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except FastmldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
