"""Monte Carlo frame-error simulation and kernel benchmarking.

A simulation draws codewords uniformly, pushes them through the channel,
decodes, and counts a trial as an error when the transmitted codeword is
not in the decoder's tie set (for syndrome decoding: when the corrected
word differs).  Trials partition across logical workers, each with a seed
derived from the master seed, and tallies merge by plain addition, so a
config reproduces its report byte for byte; wall-clock timing is reported
separately and excluded from that contract.

Each worker runs its trials in chunks: it draws a chunk's codewords and
channel outputs in one call each, decodes the whole chunk through one
batched product, and tallies with array operations.  With the oracle check
on, one brute-force oracle call per chunk re-decodes the whole chunk.
Codewords and noise come from two streams drawn in trial order, so the
report does not depend on the chunk size.

Each variant's decisions live here once, in three steps that the command
line's decode commands share with ``run_monte_carlo``: ``_prepare`` builds
the variant's structure, ``_decode_chunk`` decodes a batch with it, and
``_oracle_agreement`` checks every row of a decoded batch by brute force.
ml, list and isi score on the codebook of the channel's memory, by
position blocks (memoryless ml alone keeps row blocks), and check against
one ``esd_decode`` call; isi refuses a memoryless channel that is not an
IsiChannel.  erasure scores on the memoryless one-hot codebook by position
blocks and checks against ``min_distance_decode``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from statistics import median

import numpy as np

from .channels import (
    DiscreteChannel,
    ErasureChannel,
    IsiChannel,
    sample_channel,
)
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
    syndrome,
)
from .decoder import (
    erasure_decode,
    isi_ml_decode,
    list_decode,
    ml_decode,
    syndrome_decode,
)
from .errors import InvalidParams
from .mailman import (
    BinaryMatrix,
    OpCount,
    addition_bound,
    factorize,
    vec_times_matrix,
    vec_times_matrix_naive,
)
from .oracle import esd_decode, min_distance_decode, ranking_equivalent

VARIANTS = ("ml", "list", "erasure", "syndrome", "isi")

#: Byte budget for a chunk's largest per-trial array (see ``_chunk_trials``):
#: 32 trials at S = 4096 and 8 at S = 2^14.  ``vec_times_matrix`` tiles a
#: batch by the same 1 MiB of scores, so a chunk is one tile; where a tile
#: would be too narrow to batch, the product runs one trial at a time.
_CHUNK_BYTES = 1 << 20

_ERROR_RULES = {
    "ml": "transmitted_not_in_ties",
    "list": "transmitted_not_in_list",
    "erasure": "transmitted_not_in_ties",
    "syndrome": "corrected_word_differs",
    "isi": "transmitted_not_in_ties",
}


@dataclass(frozen=True)
class RandomCodeSpec:
    """Recipe for a reproducible random linear code."""

    q: int
    n: int
    k: int
    seed: int


@dataclass(frozen=True)
class SimConfig:
    """Everything a Monte Carlo run depends on.

    ``code_source`` is a Code, a LinearCode, or a RandomCodeSpec; the
    syndrome variant needs one of the latter two.  ``analytic_fer`` is an
    optional externally known reference echoed into the report.
    """

    code_source: Code | LinearCode | RandomCodeSpec
    channel: object
    trials: int
    seed: int
    variant: str = "ml"
    list_size: int = 1
    tie_tolerance: float = 0.0
    oracle_check: bool = False
    analytic_fer: float | None = None
    workers: int = 1


@dataclass(frozen=True)
class SimReport:
    """Simulation outcome; ``canonical_text`` is the reproducible part."""

    variant: str
    trials: int
    seed: int
    workers: int
    error_rule: str
    word_errors: int
    frame_error_rate: float
    symbol_error_rate: float
    tie_events: int
    analytic_fer: float | None
    oracle_checked: bool
    oracle_disagreements: int
    mean_decode_additions: float
    wall_time_per_decode: float

    def _values(self) -> list[tuple[str, object]]:
        """The deterministic fields in report order: all but the wall-clock time."""
        names = [f.name for f in fields(self) if f.name != "wall_time_per_decode"]
        return [(name, getattr(self, name)) for name in names]

    def _fields(self) -> list[tuple[str, str]]:
        return [(name, _field_text(value)) for name, value in self._values()]

    def canonical_text(self) -> str:
        """Deterministic report body: identical configs give identical bytes."""
        return "".join(f"{name} {value}\n" for name, value in self._fields())

    def render(self) -> str:
        """Canonical body plus an informational (non-reproducible) timing line."""
        timing = f"# wall_time_per_decode_us {1e6 * self.wall_time_per_decode:.3f} (informational)\n"
        return self.canonical_text() + timing

    def csv_header(self) -> str:
        return ",".join(name for name, _ in self._fields())

    def csv_row(self) -> str:
        return ",".join(value for _, value in self._fields())

    def to_json(self) -> str:
        """Machine-readable form of the deterministic fields."""
        return json.dumps(dict(self._values()))


def _field_text(value) -> str:
    """A report value as canonical text: floats by repr, flags as 0/1, no value as none."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class BenchRow:
    """One benchmark point comparing the fast product to the naive one."""

    rows: int
    cols: int
    naive_ops: int
    mailman_additions: int
    ratio: float
    naive_seconds: float
    mailman_seconds: float


@dataclass
class _Tally:
    """Per-worker counters; merge is plain addition, so order never matters."""

    word_errors: int = 0
    symbol_errors: int = 0
    tie_events: int = 0
    disagreements: int = 0
    decode_seconds: float = 0.0

    def __post_init__(self):
        self.ops = OpCount()

    def merge(self, other: _Tally) -> None:
        self.word_errors += other.word_errors
        self.symbol_errors += other.symbol_errors
        self.tie_events += other.tie_events
        self.disagreements += other.disagreements
        self.decode_seconds += other.decode_seconds
        self.ops.merge(other.ops)


def _resolve_code(source) -> tuple[Code, LinearCode | None]:
    if isinstance(source, Code):
        return source, None
    if isinstance(source, RandomCodeSpec):
        source = random_linear_code(source.q, source.n, source.k, source.seed)
    if isinstance(source, LinearCode):
        return enumerate_codewords(source), source
    msg = f"cannot build a code from {type(source).__name__}"
    raise InvalidParams(msg)


def run_monte_carlo(config: SimConfig) -> SimReport:
    """Run ``config.trials`` decode trials and tally error rates.

    With ``oracle_check`` every trial is re-decoded by brute force and tie
    sets are compared (for syndrome decoding, membership of the corrected
    word in the minimum-distance tie set).
    """
    if config.variant not in VARIANTS:
        msg = f"variant must be one of {VARIANTS}, got {config.variant!r}"
        raise InvalidParams(msg)
    if config.trials < 1:
        msg = f"need at least one trial, got {config.trials}"
        raise InvalidParams(msg)
    if config.workers < 1:
        msg = f"need at least one worker, got {config.workers}"
        raise InvalidParams(msg)
    code, linear = _resolve_code(config.code_source)
    structure = _prepare(config.variant, code, linear, config.channel)

    # Each worker owns a contiguous trial share and an independent child
    # seed; results merge by addition, so the split count only changes the
    # sample stream, never the accounting.
    children = np.random.SeedSequence(config.seed).spawn(config.workers)
    base, extra = divmod(config.trials, config.workers)
    total = _Tally()
    for worker, child in enumerate(children):
        share = base + (1 if worker < extra else 0)
        if share == 0:
            continue
        picks, noise = (np.random.default_rng(seed) for seed in child.spawn(2))
        total.merge(_run_trials(config, code, linear, structure, share, picks, noise))

    return SimReport(
        variant=config.variant,
        trials=config.trials,
        seed=config.seed,
        workers=config.workers,
        error_rule=_ERROR_RULES[config.variant],
        word_errors=total.word_errors,
        frame_error_rate=total.word_errors / config.trials,
        symbol_error_rate=total.symbol_errors / (config.trials * code.n),
        tie_events=total.tie_events,
        analytic_fer=config.analytic_fer,
        oracle_checked=config.oracle_check,
        oracle_disagreements=total.disagreements,
        mean_decode_additions=total.ops.additions / config.trials,
        wall_time_per_decode=total.decode_seconds / config.trials,
    )


def _prepare(variant: str, code, linear, channel):
    """The structure ``variant`` decodes with, once its code and channel are checked.

    ml, list and isi score on the codebook of the channel's memory, by
    position blocks (``build_codebook_matrix_isi``, at memory 0 for a
    memoryless channel); only ml over a memoryless channel that is not an
    IsiChannel scores on ``build_codebook_matrix``'s row blocks.  erasure
    scores on ``build_bipolar_codebook``'s position-block one-hot
    codebook; syndrome gets the syndrome codebook, its coset leaders and
    the parity checks both came from.
    """
    if variant == "erasure":
        if not isinstance(channel, ErasureChannel):
            msg = "erasure simulation needs an ErasureChannel"
            raise InvalidParams(msg)
        return build_bipolar_codebook(code)
    if variant == "syndrome":
        if linear is None:
            msg = "syndrome simulation needs a linear code"
            raise InvalidParams(msg)
        if not isinstance(channel, DiscreteChannel) or channel.q != 2 or channel.memory != 0:
            msg = "syndrome simulation needs a memoryless binary discrete channel"
            raise InvalidParams(msg)
        # One row reduction serves the leader scan and every chunk's decode.
        parity_check = parity_check_from_generator(linear)
        return build_syndrome_matrix(linear, parity_check) + (parity_check,)
    memory = getattr(channel, "memory", 0)
    memoryless = memory == 0 and not isinstance(channel, IsiChannel)
    if variant == "isi" and memoryless:
        msg = "isi decoding needs a channel with memory or an IsiChannel (an isi-dmc channel file)"
        raise InvalidParams(msg)
    # Memoryless ml stays on row blocks only while perfbench pins them: its
    # op-count check and the mc.ml product span read that layout (ROADMAP
    # items 1-2).
    if variant == "ml" and memoryless:
        return build_codebook_matrix(code)
    return build_codebook_matrix_isi(code, memory, getattr(channel, "initial_symbol", 1))


def _run_trials(config: SimConfig, code, linear, structure, trials: int, picks, noise) -> _Tally:
    """One worker's share of the trials, a chunk at a time.

    ``picks`` draws the transmitted codewords and ``noise`` the channel
    outputs.  Each is drawn in trial order, a chunk taking the next values
    of both, so any chunk size gives the same trials.  Each chunk makes one
    decoder call and, with ``oracle_check``, one oracle call.
    """
    variant = config.variant
    channel = config.channel
    chunk = _chunk_trials(structure)
    tally = _Tally()
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        # For S <= 2^32 each index takes one 32-bit draw, and the generator
        # keeps the spare half of a 64-bit word in its state, so split calls
        # continue one call's stream.
        tx = picks.integers(code.size, size=count)
        words = code.codewords[tx]
        observation = sample_channel(channel, words, noise)
        start_time = time.perf_counter()
        result = _decode_chunk(config, code, linear, structure, observation, tally.ops)
        tally.decode_seconds += time.perf_counter() - start_time
        if variant == "syndrome":
            decoded = result.codeword + 1
            hit = (decoded == words).all(axis=1)
        elif variant == "list":
            decoded = code.codewords[result.indices[:, 0] - 1]
            hit = (result.indices == tx[:, None] + 1).any(axis=1)
        else:
            decoded = result.best_codeword
            hit = result.ties[np.arange(count), tx]
            tally.tie_events += int((result.ties.sum(axis=1) > 1).sum())
        tally.word_errors += count - int(hit.sum())
        tally.symbol_errors += int((decoded != words).sum())
        if config.oracle_check:
            agree, _ = _oracle_agreement(config, code, structure, observation, result)
            tally.disagreements += count - int(agree.sum())
    return tally


def _chunk_trials(structure) -> int:
    """How many trials (or received words) a chunk holds within ``_CHUNK_BYTES``.

    Each trial of a chunk keeps two arrays of 8-byte entries: its S scores
    (the product's tables and gathers are no larger) and its likelihood row
    of ``codebook.rows`` >= 2n entries; sampling keeps only length-n rows.
    The larger of the two sets the chunk, so a long code with few codewords
    gets small chunks too, and a chunk holds at least one trial.
    ``structure`` is what ``_prepare`` built, whose codebook is its first
    entry for syndrome decoding.
    """
    codebook = structure[0] if isinstance(structure, tuple) else structure
    return max(1, _CHUNK_BYTES // (8 * max(codebook.cols, codebook.rows)))


def _decode_chunk(config: SimConfig, code, linear, structure, observation, ops):
    """Decode a chunk of observations with the configured variant."""
    variant = config.variant
    channel = config.channel
    if variant == "list":
        return list_decode(structure, code, channel, observation, config.list_size, ops)
    if variant == "erasure":
        return erasure_decode(structure, code, observation, config.tie_tolerance, ops)
    if variant == "syndrome":
        syndrome_matrix, leaders, parity_check = structure
        return syndrome_decode(linear, leaders, syndrome_matrix, observation - 1, ops, parity_check)
    # isi_ml_decode is ml_decode, called by its own name to keep the variants apart in a trace.
    decode = isi_ml_decode if variant == "isi" else ml_decode
    return decode(structure, code, channel, observation, config.tie_tolerance, ops)


def _oracle_agreement(config: SimConfig, code, structure, observation, result):
    """Which rows of a decoded chunk agree with the brute-force reference, and that reference.

    One oracle call scores the whole chunk.  ml and isi compare tie sets,
    erasure compares them with the minimum-distance ties, and syndrome
    checks that the corrected word is one of the received word's
    minimum-distance ties; these return the reference tie mask ``(B, S)``.
    list checks the ranking against the reference's and returns the
    expected 1-based indices ``(B, L)``.  The agreement is a ``(B,)`` mask.
    Syndrome reads the parity checks in ``structure``, what ``_prepare`` built.
    """
    variant = config.variant
    if variant in ("erasure", "syndrome"):
        _, reference, distances = min_distance_decode(code, observation)
        if variant == "erasure":
            return (reference == result.ties).all(axis=1), reference
        # A corrected word is one of the nearest codewords when it is a
        # codeword (H c = 0) at the received word's minimum distance.
        codeword = ~syndrome(structure[2], result.codeword, 2).any(axis=1)
        nearest = (result.codeword + 1 != observation).sum(axis=1) == distances.min(axis=1)
        return codeword & nearest, reference
    reference = esd_decode(code, config.channel, observation, config.tie_tolerance)
    if variant == "list":
        scores = reference.scores
        index = np.broadcast_to(np.arange(code.size), scores.shape)
        expected = np.lexsort((index, -scores), axis=-1)[:, : config.list_size] + 1
        return ranking_equivalent(scores, result.indices, expected), expected
    return (reference.ties == result.ties).all(axis=1), reference.ties


def bench_multiply(
    rows_list,
    cols_list,
    repetitions: int = 3,
    seed: int = 0,
    density: float = 0.5,
) -> list[BenchRow]:
    """Time and count both product paths on random matrices.

    For every (rows, cols) pair: draws a random binary matrix and a normal
    vector, checks the two products agree to 1e-12 relative, and records
    instrumented operation counts plus median wall times.  The fast path's
    additions are verified against their guaranteed budget.
    """
    if repetitions < 1:
        msg = f"need at least one repetition, got {repetitions}"
        raise InvalidParams(msg)
    rows_list, cols_list = list(rows_list), list(cols_list)
    if not rows_list or not cols_list or min(rows_list) < 1 or min(cols_list) < 2:
        msg = f"need row counts >= 1 and column counts >= 2, got {rows_list} and {cols_list}"
        raise InvalidParams(msg)
    rng = np.random.default_rng(seed)
    out: list[BenchRow] = []
    for rows in rows_list:
        for cols in cols_list:
            dense = (rng.random((rows, cols)) < density).astype(np.uint8)
            matrix = BinaryMatrix.from_dense(dense)
            vector = rng.standard_normal(rows)
            fact = factorize(matrix)

            naive_ops = OpCount()
            fast_ops = OpCount()
            reference = vec_times_matrix_naive(vector, matrix, ops=naive_ops)
            fast = vec_times_matrix(vector, fact, ops=fast_ops)
            scale = np.maximum(np.abs(reference), 1.0)
            if (np.abs(fast - reference) > 1e-12 * scale).any():
                msg = f"product paths disagree beyond 1e-12 at {rows}x{cols}"
                raise AssertionError(msg)
            if fast_ops.additions > addition_bound(rows, cols):
                msg = f"addition budget exceeded at {rows}x{cols}"
                raise AssertionError(msg)

            naive_times = []
            fast_times = []
            for _ in range(repetitions):
                start = time.perf_counter()
                vec_times_matrix_naive(vector, matrix)
                naive_times.append(time.perf_counter() - start)
                start = time.perf_counter()
                vec_times_matrix(vector, fact)
                fast_times.append(time.perf_counter() - start)

            out.append(
                BenchRow(
                    rows=rows,
                    cols=cols,
                    naive_ops=naive_ops.total,
                    mailman_additions=fast_ops.additions,
                    ratio=naive_ops.total / fast_ops.additions,
                    naive_seconds=median(naive_times),
                    mailman_seconds=median(fast_times),
                )
            )
    return out
