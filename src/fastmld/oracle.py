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

Each takes one observation ``(n,)`` or a batch ``(B, n)`` and sums left
to right, one position at a time, per codeword tile.  The per-position
terms sit in one ``(n * width, B)`` table, row ``i * width + s`` holding
every observation's term for symbol (or tuple) s at position i: the
likelihood vector transposed, or 0/1 symbol mismatches.  A tile's
``(tile, B)`` accumulator takes position 0's rows, then adds each next
position's rows in turn, so a score is the same chain of float additions
whatever the batch or the tile.  Row b of a batched result equals the
result for observation b alone, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .channels import ErasureObservation, IsiChannel, conditional_probability_vector
from .codes import Code, tuple_indices, whole_numbers
from .decoder import DecodeResult, _finish, _slack
from .errors import DimensionMismatch, ObservationOutOfAlphabet

#: Byte budget for one tile's ``(tile, B)`` accumulator and its ``(tile, n)`` digits.
_GATHER_BYTES = 1 << 20


def _position_sums(code: Code, table: np.ndarray, memory: int = 0, initial_symbol: int = 1) -> np.ndarray:
    """``(B, S)`` sums of the rows of an ``(n * width, B)`` table that each codeword reads.

    Position i reads row ``i * width + d`` of the table, width =
    q^(memory+1), where d is its symbol less one at memory 0 and its
    tuple's digit otherwise.  Positions are added left to right, a tile
    of codewords at a time.
    """
    width = code.q ** (memory + 1)
    sums = np.empty((table.shape[1], code.size), dtype=table.dtype)
    tile = max(1, _GATHER_BYTES // (8 * max(table.shape[1], code.n)))
    for lo in range(0, code.size, tile):
        words = code.codewords[lo : lo + tile]
        digits = tuple_indices(code.q, memory, words, initial_symbol) if memory else words - 1
        acc = np.take(table[:width], digits[:, 0], axis=0)
        for i in range(1, code.n):
            acc += np.take(table[i * width : (i + 1) * width], digits[:, i], axis=0)
        sums[:, lo : lo + tile] = acc.T
    return sums


def esd_decode(
    code: Code, channel, received: np.ndarray, tie_tolerance: float = 0.0
) -> DecodeResult:
    """Exhaustive-search decode: sum log P(y_i | c_i) for every codeword.

    Over a channel with memory, position i reads the row of its
    (symbol, predecessors) tuple, ``tuple_indices``, in place of symbol
    ``c_i``.  Takes one observation ``(n,)`` or a batch ``(B, n)``, and
    sums left to right, one position at a time, per codeword tile.
    """
    memory = channel.memory if isinstance(channel, IsiChannel) else 0
    width = code.q ** (memory + 1)
    vector = conditional_probability_vector(channel, received)
    if vector.shape[-1] != code.n * width:
        msg = f"observation of length {vector.shape[-1] // width} does not match n={code.n}"
        raise DimensionMismatch(msg)
    initial = channel.initial_symbol if memory else 1
    table = np.ascontiguousarray(vector.reshape(-1, vector.shape[-1]).T)
    scores = _position_sums(code, table, memory, initial)
    terms = (vector, memory, initial, _slack(channel, vector, code.n))
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
    # Row i*q + s, column b: 1 where symbol s + 1 at position i mismatches an unerased y_bi.
    words, keeps = word.reshape(-1, code.n).T[:, None], keep.reshape(-1, code.n).T[:, None]
    symbols = np.arange(1, code.q + 1)[:, None]
    mismatches = ((words != symbols) & keeps).reshape(code.n * code.q, -1).astype(np.int64)
    distances = _position_sums(code, mismatches).reshape(word.shape[:-1] + (code.size,))
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
