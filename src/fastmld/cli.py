"""Command-line front end.

One subcommand per decoding mode plus simulation, benchmarking, code
generation, and inspection.  The four decode commands share one handler
that runs the simulation's variant path: ``simulate._prepare`` builds the
variant's structure once, the received words decode a chunk at a time
through ``simulate._decode_chunk`` (chunks sized by
``simulate._chunk_trials``), and ``--oracle`` checks each chunk with
``simulate._oracle_agreement``.  Results print as one line-oriented record
per word; exit status is 0 on success, 1 for decode-domain failures
(malformed files, out-of-range values, oracle mismatches), and 2 for usage
errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import simulate
from .channels import DiscreteChannel, ErasureChannel, ErasureObservation
from .codes import Code, LinearCode, build_codebook_matrix, random_linear_code
from .errors import DimensionMismatch, FastmldError
from .fileio import (
    _ints,
    parse_channel_spec,
    parse_received_word,
    read_code_file,
    read_linear_code_file,
    read_observations,
    write_linear_code_file,
)
from .simulate import RandomCodeSpec, SimConfig, bench_multiply, run_monte_carlo

#: The channel that erasure and syndrome decoding read words through, as
#: those commands take no --channel.
_WORD_CHANNELS = {
    "erasure": ErasureChannel(erasure_probability=0.0),
    "syndrome": DiscreteChannel.bsc(0.0),
}


def _add_code_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--code", metavar="FILE", help="codebook file (q n S header)")
    parser.add_argument(
        "--gen", metavar="FILE", help="generator file (q n k header); codewords are enumerated"
    )


def _add_received_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--rx", metavar="WORD", help="one received word")
    group.add_argument("--rx-file", metavar="FILE", help="received words, one per line")


def _code_source(args, parser) -> Code | LinearCode | RandomCodeSpec:
    """The code named by the one code flag given: --code, --gen or --random-code."""
    offered = [flag for flag in ("code", "gen", "random_code") if hasattr(args, flag)]
    picked = [flag for flag in offered if getattr(args, flag)]
    if len(picked) != 1:
        names = [f"--{flag.replace('_', '-')}" for flag in offered]
        comma = "," if len(names) > 2 else ""
        parser.error(f"exactly one of {', '.join(names[:-1])}{comma} or {names[-1]} is required")
    if picked == ["random_code"]:
        return RandomCodeSpec(*_ints(args.random_code.replace(",", " "), 4, "--random-code q,n,k,seed"))
    if picked == ["gen"]:
        return read_linear_code_file(args.gen)
    return read_code_file(args.code)


def _received_words(args, channel) -> list:
    if args.rx is not None:
        return [parse_received_word(args.rx, channel)]
    return read_observations(args.rx_file, channel)


def _word_text(received, channel) -> str:
    """A received word as typed: reals, a 0/1/e string, or by the channel's output alphabet."""
    if isinstance(received, np.ndarray) and received.dtype == np.float64:
        return ",".join(repr(float(v)) for v in received)
    if isinstance(received, np.ndarray):
        return _symbols_text(received, channel.output_alphabet_size)
    return str(received)


def _symbols_text(symbols: np.ndarray, alphabet: int) -> str:
    """Symbols 1..alphabet: as bits when there are two, else space-separated."""
    if alphabet == 2:
        return "".join(str(int(s) - 1) for s in symbols)
    return " ".join(str(int(s)) for s in symbols)


def _indices_text(mask: np.ndarray) -> str:
    return " ".join(str(j + 1) for j in np.flatnonzero(mask))


def _record(variant: str, result, row: int, structure, q: int) -> list[str]:
    """Lines of word ``row``'s record, from a chunk's batched result."""
    if variant == "list":
        ranked = enumerate(zip(result.indices[row], result.scores[row]), start=1)
        return [f"rank {rank} index {index} score {float(score)!r}" for rank, (index, score) in ranked]
    if variant == "syndrome":
        leader = result.leader_index[row]
        return [
            f"leader_index {leader}",
            f"leader {_symbols_text(structure[1][leader] + 1, 2)}",
            f"codeword {_symbols_text(result.codeword[row] + 1, 2)}",
        ]
    lines = [
        f"best_index {result.best_index[row]}",
        f"best_score {float(result.best_score[row])!r}",
        "ties " + _indices_text(result.ties[row]),
        "scores " + " ".join(repr(float(s)) for s in result.scores[row]),
        f"codeword {_symbols_text(result.best_codeword[row], q)}",
    ]
    if result.implausible[row]:
        lines.append("implausible 1")
    return lines


def _stack(words: list, n: int):
    """A chunk of received words as one ``(B, n)`` batch."""
    rows = [getattr(word, "values", word) for word in words]
    for row in rows:
        if row.shape != (n,):
            msg = f"observation of length {row.shape[0]} does not match n={n}"
            raise DimensionMismatch(msg)
    if isinstance(words[0], ErasureObservation):
        return ErasureObservation(values=np.stack(rows))
    return np.stack(rows)


def _cmd_decode(args, parser) -> int:
    """Every decode command: its words decode a chunk at a time through the simulation's path."""
    variant = args.variant
    source = _code_source(args, parser)
    # Syndrome decoding needs only the generator; its oracle needs the codewords.
    if variant == "syndrome" and not args.oracle:
        code, linear = None, source
    else:
        code, linear = simulate._resolve_code(source)
    shape = linear if code is None else code
    channel = _WORD_CHANNELS.get(variant) or parse_channel_spec(args.channel)
    structure = simulate._prepare(variant, code, linear, channel)
    words = _received_words(args, channel)
    config = SimConfig(
        code_source=source,
        channel=channel,
        trials=len(words),
        seed=0,
        variant=variant,
        list_size=getattr(args, "list_size", 1),
        tie_tolerance=getattr(args, "tie_tol", 0.0),
        oracle_check=args.oracle,
    )
    chunk = simulate._chunk_trials(structure)
    status = 0
    for start in range(0, len(words), chunk):
        batch = words[start : start + chunk]
        observation = _stack(batch, shape.n)
        result = simulate._decode_chunk(config, code, linear, structure, observation, None)
        if args.oracle:
            agree, reference = simulate._oracle_agreement(
                config, code, structure, observation, result
            )
            status |= int(not agree.all())
        for row, received in enumerate(batch):
            if start + row:
                print()
            print(f"word {_word_text(received, channel)}")
            for line in _record(variant, result, row, structure, shape.q):
                print(line)
            if variant == "erasure":
                print(f"erasures {received.erasure_count}")
            if args.oracle:
                if variant == "list":
                    print("oracle_indices " + " ".join(str(j) for j in reference[row]))
                else:
                    print("oracle_ties " + _indices_text(reference[row]))
                print(f"oracle_match {int(agree[row])}")
    return status


def _cmd_simulate(args, parser) -> int:
    source = _code_source(args, parser)
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
    rows_list = _ints(args.rows.replace(",", " "), None, "--rows")
    cols_list = _ints(args.cols.replace(",", " "), None, "--cols")
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
    code, _ = simulate._resolve_code(_code_source(args, parser))
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
    decode.set_defaults(handler=_cmd_decode, variant="ml")

    listdec = sub.add_parser("list-decode", help="top-L most likely codewords")
    _add_code_arguments(listdec)
    listdec.add_argument("--channel", required=True, help="channel spec or file")
    _add_received_arguments(listdec)
    listdec.add_argument("--list-size", type=int, required=True, help="entries to return")
    listdec.add_argument("--oracle", action="store_true", help="cross-check by brute force")
    listdec.set_defaults(handler=_cmd_decode, variant="list")

    erasure = sub.add_parser("erasure-decode", help="decode a word with erasures")
    _add_code_arguments(erasure)
    _add_received_arguments(erasure)
    erasure.add_argument("--tie-tol", type=float, default=0.0, help="tie tolerance (default 0)")
    erasure.add_argument("--oracle", action="store_true", help="cross-check by brute force")
    erasure.set_defaults(handler=_cmd_decode, variant="erasure")

    synd = sub.add_parser("syndrome-decode", help="coset-leader decode of a binary word")
    synd.add_argument("--gen", metavar="FILE", required=True, help="generator file")
    _add_received_arguments(synd)
    synd.add_argument("--oracle", action="store_true", help="cross-check by brute force")
    synd.set_defaults(handler=_cmd_decode, variant="syndrome")

    sim = sub.add_parser("simulate", help="Monte Carlo frame-error simulation")
    _add_code_arguments(sim)
    sim.add_argument("--random-code", metavar="Q,N,K,SEED", help="random linear code")
    sim.add_argument("--channel", required=True, help="channel spec or file")
    sim.add_argument("--trials", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--variant", choices=simulate.VARIANTS, default="ml")
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
