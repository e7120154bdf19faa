"""Brute-force reference decoders.

Every function here scores every codeword directly, with no matrix
factorization anywhere on the path.  They exist to cross-check the fast
decoders and to anchor tests, so they are kept deliberately plain: a
gather of per-position log-likelihoods (or symbol mismatches) and a sum.
``esd_decode`` checks ml, list and isi alike, as all three score each
codeword by its (symbol, predecessors) tuples, L = 0 for a memoryless
channel: it gathers each position's likelihood by symbol at memory 0, and
by tuple otherwise.  Its tie sets go through the decoders' exact step
(``decoder._finish``), so they hold the codewords of largest ``fsum``
however its own sums rounded.

Each takes one observation ``(n,)`` or a batch ``(B, n)`` and scores a
block of codewords at a time: one C-contiguous ``(B, block, n)`` gather,
summed over its last axis.  numpy sums a contiguous last axis row by row
in the same pairwise order as the 1-d ``sum`` of that row, so a score is
bitwise the same whatever the batch or the block.  Row b of a batched
result equals the result for observation b alone.
"""

from __future__ import annotations

import numpy as np

from .channels import ErasureObservation, IsiChannel, conditional_probability_vector
from .codes import Code, tuple_indices, whole_numbers
from .decoder import DecodeResult, _finish, _slack
from .errors import DimensionMismatch, ObservationOutOfAlphabet

#: Byte budget for one block's ``(B, block, n)`` gather of 8-byte entries.
_GATHER_BYTES = 1 << 20


def _blocks(batch: int, code: Code):
    """Codeword ranges ``(lo, hi)`` whose gather for ``batch`` rows fits ``_GATHER_BYTES``."""
    step = max(1, _GATHER_BYTES // (8 * max(batch, 1) * code.n))
    return ((lo, min(lo + step, code.size)) for lo in range(0, code.size, step))


def esd_decode(
    code: Code, channel, received: np.ndarray, tie_tolerance: float = 0.0
) -> DecodeResult:
    """Exhaustive-search decode: sum log P(y_i | c_i) for every codeword.

    Over a channel with memory, position i reads the row of its
    (symbol, predecessors) tuple, ``tuple_indices``, in place of symbol
    ``c_i``.  Takes one observation ``(n,)`` or a batch ``(B, n)``.
    """
    memory = channel.memory if isinstance(channel, IsiChannel) else 0
    width = code.q ** (memory + 1)
    vector = conditional_probability_vector(channel, received)
    if vector.shape[-1] != code.n * width:
        msg = f"observation of length {vector.shape[-1] // width} does not match n={code.n}"
        raise DimensionMismatch(msg)
    table = vector.reshape(-1, vector.shape[-1])
    offsets = np.arange(code.n) * width
    scores = np.empty((table.shape[0], code.size), dtype=np.float64)
    for lo, hi in _blocks(table.shape[0], code):
        words = code.codewords[lo:hi]
        if memory:
            rows = tuple_indices(code.q, memory, words, channel.initial_symbol) + offsets
        else:
            rows = words + (offsets - 1)  # int64 offsets first: no x - 1 on the narrow table
        scores[:, lo:hi] = np.take(table, rows, axis=1).sum(axis=-1)
    terms = (vector, memory, channel.initial_symbol if memory else 1, _slack(channel, vector, code.n))
    return _finish(code, scores.reshape(vector.shape[:-1] + (code.size,)), tie_tolerance, terms)


def min_distance_decode(
    code: Code, received
) -> tuple[int | np.ndarray, tuple[int, ...] | np.ndarray, np.ndarray]:
    """Hamming-distance argmin over the codebook.

    Accepts 1-based symbols, one word ``(n,)`` or a batch ``(B, n)``, or an
    ErasureObservation of either shape (erased positions are skipped).
    Returns (best 1-based index, ascending tie set, per-codeword distances).
    For a batch they are ``(B,)``, a ``(B, S)`` tie mask and ``(B, S)``.
    """
    if isinstance(received, ErasureObservation):
        keep = received.values >= 0
        word = received.values + 1
    else:
        word = whole_numbers(np.asarray(received), 1, code.q)
        if word is None:
            msg = f"received symbols must lie in 1..{code.q} and be whole numbers"
            raise ObservationOutOfAlphabet(msg)
        keep = np.ones(word.shape, dtype=bool)
    if word.ndim not in (1, 2) or word.shape[-1] != code.n:
        msg = f"received words of shape {word.shape} do not match n={code.n}"
        raise DimensionMismatch(msg)
    words = word.reshape(-1, code.n)[:, None, :]
    keeps = keep.reshape(-1, code.n)[:, None, :]
    distances = np.empty((words.shape[0], code.size), dtype=np.int64)
    for lo, hi in _blocks(words.shape[0], code):
        distances[:, lo:hi] = ((code.codewords[lo:hi] != words) & keeps).sum(axis=-1)
    distances = distances.reshape(word.shape[:-1] + (code.size,))
    result = _finish(code, -distances, 0.0)
    return result.best_index, result.ties, distances


def ranking_equivalent(
    scores: np.ndarray, first, second, tolerance: float = 1e-9
) -> bool | np.ndarray:
    """Whether two index rankings are interchangeable under ``scores``.

    Rank for rank, both entries must carry the same score (within a
    relative tolerance).  Exact index equality is too strict a comparison
    between independently computed rankings: inside an exact tie class the
    order is an arbitrary choice, and rounding in either scorer can permute
    it.  Equal score profiles are what maximum-likelihood ranking actually
    pins down.  With ``(B, S)`` scores and ``(B, L)`` rankings the answer is
    a ``(B,)`` boolean array, one per row.
    """
    values = np.asarray(scores, dtype=np.float64)
    first = np.asarray(first, dtype=np.int64)
    second = np.asarray(second, dtype=np.int64)
    if first.shape != second.shape:
        agree = np.zeros(values.shape[:-1], dtype=bool)
    else:
        a = np.take_along_axis(values, first - 1, axis=-1)
        b = np.take_along_axis(values, second - 1, axis=-1)
        with np.errstate(invalid="ignore"):
            apart = np.abs(a - b) > tolerance * np.maximum(1.0, np.abs(b))
        agree = ~(apart & ~(np.isneginf(a) & np.isneginf(b))).any(axis=-1)
    return bool(agree) if values.ndim == 1 else agree
