"""Decoding pipelines built on the fast vector-matrix product.

Every decoder follows the same three steps: build the observation's
per-position score vector, multiply it by a ``CodebookMatrix`` in one
``vec_times_matrix`` call on its factorization, and scan the resulting
score vector for the argmax (or the top of the ranking).  Decoders differ
only in the vector they build: log-likelihoods for ``ml_decode`` and
``list_decode``, the one-hot rows (-b_i, +b_i) of a +1/-1/0 bipolar word
for ``erasure_decode``, and syndrome bits for ``syndrome_decode``.
A list decode is the same product plus its ranking: a stable sort up to
``_SORT_MAX_COLS`` codewords, and above that an O(S) top-L selection.
A channel with memory is priced per (symbol, predecessors) tuple, so ISI
decoding is ``ml_decode`` on ``build_codebook_matrix_isi``, whose
position blocks cost about what memoryless decoding does, and
``isi_ml_decode`` is a second name for it.  Codeword indices in results
are 1-based and stable: index i always refers to row i-1 of
``code.codewords``.

Ties are exact by default.  With tolerance 0 the tie set of a likelihood
score (ml, isi and the oracle) holds the codewords whose ``math.fsum`` of
the stored float64 log entries they read is the largest, so it does not
depend on the order a kernel summed in; a decimal coincidence of
probabilities ties only where those fsums are equal.  Only scores within
the float error bound of a row's max are rescored, and a row with one
such candidate needs none.  Erasure and distance scores are small
integers and exact already.  A positive ``tie_tolerance`` ties every
index whose score is ``>= max - tie_tolerance``.  The reported best index
is the smallest tied.

Every decoder also takes a batch: observations stacked along a leading
axis decode through one batched product, and each result field gains that
axis (see ``DecodeResult``).  Row b of a batched result equals the result
of decoding observation b alone.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    ContinuousChannel,
    DiscreteChannel,
    ErasureObservation,
    bipolar_received_vector,
    conditional_probability_vector,
)
from .codes import (
    Code,
    CodebookMatrix,
    LinearCode,
    _tuple_digits,
    parity_check_from_generator,
    syndrome,
    whole_numbers,
)
from .errors import (
    DimensionMismatch,
    InvalidParams,
    ListSizeOutOfRange,
    NonBinaryCode,
    NoZeroDistanceCoset,
    ObservationOutOfAlphabet,
)
from .mailman import OpCount, vec_times_matrix

#: Widest score row that ``list_decode`` ranks by a full stable sort; wider
#: rows take the O(S) selection of ``_top``, whose dozen numpy calls cost
#: about 30 us per call whatever S is.  Timed on a 2-core Xeon host with
#: L = 4 and tied BSC scores, best of 9: a single row sorts faster up to
#: S = 1024 (23-25 us against 38-40 us) and selects faster from S = 2048
#: (47-49 us against 68-71 us; 58-64 against 167-178 us at S = 4096).
#: Batches of 8 rows select faster from S = 256 and 1 MiB batches from
#: S = 128, but no benchmark workload ranks batches that narrow, so they
#: keep the sort until one does.
_SORT_MAX_COLS = 1024

#: Unit roundoff of float64, and its largest finite value (a slack's cap).
_UNIT_ROUNDOFF = 2.0**-53
_LARGEST = sys.float_info.max


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of a decode.

    ``implausible`` is set when every codeword scored -inf (the observation
    has probability zero under the whole code); the result then reports
    index 1 with all indices tied, carrying no information.

    For a batch of B observations every field is a per-row array:
    ``best_index``, ``best_score`` and ``implausible`` are ``(B,)``,
    ``best_codeword`` is ``(B, n)``, ``scores`` is ``(B, S)``, and ``ties``
    is a ``(B, S)`` boolean mask whose row b marks the tie set of row b.
    """

    best_index: int | np.ndarray
    best_codeword: np.ndarray = field(repr=False)
    best_score: float | np.ndarray
    ties: tuple[int, ...] | np.ndarray
    scores: np.ndarray = field(repr=False)
    implausible: bool | np.ndarray = False


@dataclass(frozen=True)
class ListDecodeResult:
    """Top of the ranking, best first: 1-based indices and their scores.

    For one observation both are tuples of length L; for a batch of B they
    are ``(B, L)`` arrays, row b ranking observation b.
    """

    indices: tuple[int, ...] | np.ndarray
    scores: tuple[float, ...] | np.ndarray = field(repr=False)

    @property
    def entries(self) -> tuple[tuple[int, float], ...]:
        """(index, score) pairs of a single observation's list."""
        return tuple(zip(self.indices, self.scores))


@dataclass(frozen=True)
class SyndromeResult:
    """Syndrome decode outcome: corrected bits plus the coset-leader row used.

    For a batch of B words: ``codeword`` is ``(B, n)``, ``leader_index``
    ``(B,)`` and ``distances`` ``(B, 2^(n-k))``.
    """

    codeword: np.ndarray = field(repr=False)
    leader_index: int | np.ndarray
    distances: np.ndarray = field(repr=False)


def argmax_scan(scores: np.ndarray, tie_tolerance: float = 0.0) -> tuple[int, tuple[int, ...]]:
    """Best 1-based index and the ascending tie set within tolerance of the max."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.shape[0] < 1:
        msg = "scores must be a non-empty 1-d vector"
        raise InvalidParams(msg)
    ties = tuple(j + 1 for j in _tie_mask(scores, tie_tolerance).nonzero()[0].tolist())
    if not ties:  # the max is NaN, and nothing compares >= NaN
        msg = "scores must not hold NaN"
        raise InvalidParams(msg)
    return ties[0], ties


def _tie_mask(scores: np.ndarray, tie_tolerance: float, slack: float | np.ndarray = 0.0) -> np.ndarray:
    """Marks, per row of ``scores``, every entry within tolerance (plus ``slack``) of the row's max.

    ``slack`` is a scalar or one value per row, ``(B, 1)``.
    """
    if not (math.isfinite(tie_tolerance) and tie_tolerance >= 0.0):
        msg = f"tie tolerance must be finite and >= 0, got {tie_tolerance}"
        raise InvalidParams(msg)
    # A row's max read at its argmax: ``max`` over (1000, 16) scores is 1.9x slower.
    best = scores.argmax(axis=-1)
    if scores.ndim == 1:
        return scores >= scores[best] - (tie_tolerance + slack)
    return scores >= scores[np.arange(len(scores)), best][:, None] - (tie_tolerance + slack)


def _slack(channel, vector: np.ndarray, n: int) -> float | np.ndarray:
    """2*gamma: twice how far a float sum of a codeword's n likelihood terms can be from their exact sum.

    A float sum of n terms in any order is within gamma_(n-1) =
    (n-1)u / (1 - (n-1)u) times the sum of their magnitudes of the exact
    sum (u = 2^-53), and the magnitudes sum to at most
    sum_i max_s |v_is| over finite entries: n times the channel's
    ``log_magnitude`` for a discrete channel, read from the vector
    otherwise (one value per row, ``(B, 1)``, for a batch).  Three more
    units of u cover the rounding of the exact sum itself and of the
    candidate test, so every codeword whose exact sum rounds to the
    largest one is a candidate.
    """
    k = (n + 2) * _UNIT_ROUNDOFF
    factor = 2.0 * k / (1.0 - k)
    if not isinstance(channel, ContinuousChannel):
        return min(factor * n * channel.log_magnitude, _LARGEST)
    magnitudes = np.abs(vector.reshape(vector.shape[:-1] + (n, vector.shape[-1] // n)))
    magnitudes[np.isinf(magnitudes)] = 0.0
    slack = np.minimum(factor * magnitudes.max(axis=-1).sum(axis=-1), _LARGEST)
    return slack[:, None] if vector.ndim == 2 else float(slack)


def _exact_sums(code: Code, terms: tuple, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``math.fsum`` of the terms codeword ``cols[k]`` sums in vector row ``rows[k]``, for every k."""
    vector, memory, initial, _ = terms
    n, width = code.n, code.q ** (memory + 1)
    entries = _tuple_digits(code.q, memory, code.codewords[cols], initial) + np.arange(n) * width
    return np.array(list(map(math.fsum, vector.reshape(-1, n * width)[rows[:, None], entries].tolist())))


def _exact_ties(code: Code, scores: np.ndarray, ties: np.ndarray, terms: tuple) -> None:
    """Keep, in each row of the candidate mask ``ties`` with two or more, those of largest exact sum.

    A row whose best score is -inf scores -inf everywhere, so all its
    entries tie exactly and it is left as it is.
    """
    # Flat indices run row by row: a row with two candidates repeats.
    row = np.flatnonzero(ties) // ties.shape[1]
    rows = np.unique(row[1:][row[1:] == row[:-1]])
    rows = rows[scores[rows].max(axis=1) > -math.inf]
    candidates = ties[rows]
    picks, cols = np.nonzero(candidates)
    sums = np.full(candidates.shape, -math.inf)
    sums[picks, cols] = _exact_sums(code, terms, rows[picks], cols)
    ties[rows] = sums == sums.max(axis=1, keepdims=True)


def _finish(code: Code, scores: np.ndarray, tie_tolerance: float, terms: tuple | None = None) -> DecodeResult:
    """The result of scores whose row maxima decide; ``terms`` makes tolerance-0 ties exact.

    ``terms`` is ``(vector, memory, initial, slack)`` for likelihood
    scores: codeword c's score in row b sums the entries of ``vector``
    (``(..., n*width)``, width = q^(memory+1)) at
    ``tuple_indices(c) + i*width``, and ``slack`` is ``_slack``'s bound.
    With tolerance 0 the candidates are every score within the slack of
    the row's max, and a row with two or more of them keeps those whose
    exact sums (``math.fsum``) are largest: the tie set then holds
    exactly the codewords whose fsum is the largest, whatever order the
    scores were summed in.
    """
    exact = terms is not None and tie_tolerance == 0.0
    slack = terms[3] if exact else 0.0
    if scores.ndim == 1:
        best, ties = argmax_scan(scores, tie_tolerance + slack)
        if exact and len(ties) > 1:
            mask = np.zeros((1, scores.shape[0]), dtype=bool)
            mask[0, np.array(ties) - 1] = True
            _exact_ties(code, scores[None], mask, terms)
            ties = tuple((np.flatnonzero(mask) + 1).tolist())
            best = ties[0]
        best_score = float(scores[best - 1])
        implausible = best_score == -math.inf
    else:
        ties = _tie_mask(scores, tie_tolerance, slack)
        if exact and np.count_nonzero(ties) > len(ties):
            _exact_ties(code, scores, ties, terms)
        best = ties.argmax(axis=1) + 1
        best_score = scores[np.arange(scores.shape[0]), best - 1]
        implausible = np.isneginf(best_score)
    return DecodeResult(
        best_index=best,
        best_codeword=code.codewords[best - 1],
        best_score=best_score,
        ties=ties,
        scores=scores,
        implausible=implausible,
    )


def _likelihoods(codebook: CodebookMatrix, code: Code, channel, received, ops) -> tuple:
    """Every codeword's log-likelihood, in one product, then the vector, memory and initial symbol.

    First checks that the code, the channel and the one-hot codebook were
    made for each other: a channel with memory needs the codebook of its
    memory and initial symbol.
    """
    if channel.q != code.q:
        msg = f"channel input alphabet {channel.q} does not match code q={code.q}"
        raise DimensionMismatch(msg)
    memory = channel.memory if isinstance(channel, DiscreteChannel) else 0
    # A memoryless channel never reads an initial symbol.
    initial = channel.initial_symbol if memory else codebook.initial_symbol
    if (codebook.memory, codebook.initial_symbol) != (memory, initial):
        msg = (
            f"codebook (memory={codebook.memory}, initial={codebook.initial_symbol})"
            f" does not match channel (memory={memory}, initial={initial})"
        )
        raise DimensionMismatch(msg)
    width = code.q ** (memory + 1)
    if (codebook.block_size, codebook.rows, codebook.cols) != (width, code.n * width, code.size):
        msg = (
            f"codebook of {codebook.rows}x{codebook.cols} does not match a"
            f" {code.size}-codeword code with n={code.n} over {width} symbol tuples"
        )
        raise DimensionMismatch(msg)
    vector = conditional_probability_vector(channel, received)
    if vector.shape[-1] != codebook.rows:
        msg = f"observation of length {np.shape(received)[-1]} does not match n={code.n}"
        raise DimensionMismatch(msg)
    scores = vec_times_matrix(vector, codebook.factorization, ops=ops)
    return scores, vector, memory, initial


def ml_decode(
    codebook: CodebookMatrix,
    code: Code,
    channel,
    received: np.ndarray,
    tie_tolerance: float = 0.0,
    ops: OpCount | None = None,
) -> DecodeResult:
    """Exact maximum-likelihood decode of one observation ``(n,)`` or a batch ``(B, n)``.

    Scores every codeword's log-likelihood in one vector-matrix product and
    returns the argmax; works for any code and any discrete, Gaussian or ISI
    channel.  A channel with memory needs ``build_codebook_matrix_isi``,
    which prices each position's (symbol, predecessors) tuple.
    """
    scores, vector, memory, initial = _likelihoods(codebook, code, channel, received, ops)
    return _finish(code, scores, tie_tolerance, (vector, memory, initial, _slack(channel, vector, code.n)))


def _top(scores: np.ndarray, size: int) -> np.ndarray:
    """0-based indices of the ``size`` best scores of each row, best first.

    Ranks by score descending with ascending index breaking ties, ``-inf``
    last: a prefix of ``np.lexsort((index, -scores))``, for ``(S,)`` or
    ``(B, S)`` scores.  Rows of at most ``_SORT_MAX_COLS`` scores take a
    stable sort of the negated scores (negation is exact).  Wider rows find
    their ``size``-th best score by partition, keep every better score and
    the lowest-indexed scores equal to it until ``size`` are kept, and sort
    only those: O(S) per row, and the same indices, because the kept set is
    exactly the sort's prefix.  Exact rescoring of near-ties belongs here
    too, on the kept candidates and the scores tied with them.
    """
    width = scores.shape[-1]
    if width <= _SORT_MAX_COLS:
        return np.argsort(-scores, axis=-1, kind="stable")[..., :size]
    rows = scores.reshape(-1, width)
    count = rows.shape[0]
    bound = np.partition(rows, width - size, axis=-1)[:, width - size, None]
    better = np.flatnonzero(rows > bound)
    tied = np.flatnonzero(rows == bound)
    # Flat indices run row by row, so a tied entry's rank within its row is
    # its position past the row's first tied entry.
    tied_row = tied // width
    room = size - np.bincount(better // width, minlength=count)
    rank = np.arange(tied.size) - np.searchsorted(tied, np.arange(count) * width)[tied_row]
    kept = np.concatenate((better, tied[rank < room[tied_row]]))
    order = np.lexsort((kept, -rows.ravel()[kept], kept // width))
    return (kept[order] % width).reshape(scores.shape[:-1] + (size,))


def list_decode(
    codebook: CodebookMatrix,
    code: Code,
    channel,
    received: np.ndarray,
    list_size: int,
    ops: OpCount | None = None,
) -> ListDecodeResult:
    """The ``list_size`` most likely codewords, best first.

    Ranking is by score descending with ascending index breaking ties, so
    the result is always a prefix of the full sorted ranking; a ``(B, n)``
    batch ranks each row.  ``list_size`` is an integer in 1..S (a numpy
    integer will do); anything else raises ``ListSizeOutOfRange``.
    """
    try:
        size = operator.index(list_size)
    except TypeError:
        msg = f"list size {list_size!r} is not an integer"
        raise ListSizeOutOfRange(msg) from None
    if not 1 <= size <= code.size:
        msg = f"list size {size} outside 1..{code.size}"
        raise ListSizeOutOfRange(msg)
    scores = _likelihoods(codebook, code, channel, received, ops)[0]
    order = _top(scores, size)
    if scores.ndim == 2:
        return ListDecodeResult(indices=order + 1, scores=np.take_along_axis(scores, order, axis=-1))
    return ListDecodeResult(
        indices=tuple(j + 1 for j in order.tolist()), scores=tuple(scores.take(order).tolist())
    )


def erasure_decode(
    codebook: CodebookMatrix,
    code: Code,
    observation: ErasureObservation,
    tie_tolerance: float = 0.0,
    ops: OpCount | None = None,
) -> DecodeResult:
    """Decode a binary word with erasures, or a ``(B, n)`` batch of them, by match counting.

    ``codebook`` is any memoryless one-hot codebook of the code (2n x S):
    ``build_bipolar_codebook``'s, or ``build_codebook_matrix``'s.  With b
    the +1/-1/0 bipolar word, position i scores -b_i in row 2i (bit 0) and
    +b_i in row 2i+1 (bit 1), so one product scores each codeword as
    (unerased matches) - (unerased mismatches).  A codeword consistent
    with every surviving position scores exactly n minus the number of
    erasures, and is unique whenever fewer than d_min positions were erased.
    """
    if code.q != 2:
        msg = f"erasure decoding is defined for binary codes, got q={code.q}"
        raise NonBinaryCode(msg)
    if not isinstance(observation, ErasureObservation):
        msg = "erasure decoding needs an ErasureObservation"
        raise InvalidParams(msg)
    if (observation.n, codebook.block_size, codebook.memory, codebook.rows, codebook.cols) != (
        code.n, 2, 0, 2 * code.n, code.size
    ):
        msg = (
            f"observation length {observation.n} and codebook {codebook.rows}x{codebook.cols}"
            f" (block size {codebook.block_size}, memory {codebook.memory}) must match the"
            f" memoryless one-hot codebook of n={code.n}, S={code.size}"
        )
        raise DimensionMismatch(msg)
    bipolar = bipolar_received_vector(observation)
    vector = np.empty(bipolar.shape[:-1] + (2 * code.n,))
    # 0 - b rather than -b: an erased entry stays +0.0, so no score reads -0.0.
    np.subtract(0.0, bipolar, out=vector[..., 0::2])
    vector[..., 1::2] = bipolar
    return _finish(code, vec_times_matrix(vector, codebook.factorization, ops=ops), tie_tolerance)


def syndrome_decode(
    linear: LinearCode,
    leaders: np.ndarray,
    syndrome_matrix: CodebookMatrix,
    received_bits: np.ndarray,
    ops: OpCount | None = None,
    parity_check: np.ndarray | None = None,
) -> SyndromeResult:
    """Classical syndrome decode with distances through the fast product.

    Encodes the received word's syndrome, multiplies it by the syndrome
    codebook to get its Hamming distance to every coset's syndrome, picks the
    (necessarily unique) zero, and subtracts that coset's leader.  Takes one
    word ``(n,)`` or a batch ``(B, n)``.  ``parity_check`` is the code's
    ``parity_check_from_generator``; a caller that decodes many times
    passes it to skip the row reduction.
    """
    if linear.q != 2:
        msg = f"syndrome decoding is defined for binary codes, got q={linear.q}"
        raise NonBinaryCode(msg)
    bits = np.asarray(received_bits)
    if bits.ndim not in (1, 2) or bits.shape[-1] != linear.n:
        msg = f"received word must hold {linear.n} bits"
        raise DimensionMismatch(msg)
    bits = whole_numbers(bits, 0, 1)
    if bits is None:
        msg = "received word must be binary (0/1)"
        raise ObservationOutOfAlphabet(msg)
    r = linear.n - linear.k
    if parity_check is None:
        parity_check = parity_check_from_generator(linear)
    if (
        leaders.shape != (2**r, linear.n)
        or syndrome_matrix.cols != 2**r
        or parity_check.shape != (r, linear.n)
    ):
        msg = "leader table, syndrome matrix and parity checks do not match the code"
        raise DimensionMismatch(msg)
    s = syndrome(parity_check, bits, 2)
    vector = np.empty(s.shape[:-1] + (2 * r,), dtype=np.float64)
    # Row 2i of the codebook marks coset syndromes with bit i = 0, row
    # 2i+1 those with bit i = 1: score 1 where the bit differs from s_i.
    vector[..., 0::2] = s
    vector[..., 1::2] = 1.0 - s
    distances = vec_times_matrix(vector, syndrome_matrix.factorization, ops=ops)
    leader_index = np.argmin(distances, axis=-1)
    if (np.take_along_axis(distances, leader_index[..., None], axis=-1) != 0.0).any():
        msg = "no coset syndrome matched the received syndrome exactly"
        raise NoZeroDistanceCoset(msg)
    corrected = (bits + leaders[leader_index]) % 2
    if bits.ndim == 1:
        leader_index = int(leader_index)
    return SyndromeResult(
        codeword=corrected, leader_index=leader_index, distances=distances
    )


#: ISI decoding is ML decoding on the codebook of the channel's memory.
isi_ml_decode = ml_decode
