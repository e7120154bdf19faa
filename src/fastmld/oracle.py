"""Brute-force reference decoders.

Every function here walks the codebook and evaluates each codeword's score
directly, with no matrix factorization anywhere on the path.  They exist
to cross-check the fast decoders and to anchor tests, so they are kept
deliberately plain: a gather of per-position log-likelihoods and a sum.
"""

from __future__ import annotations

import numpy as np

from .channels import ErasureObservation, IsiChannel, conditional_probability_vector
from .codes import Code, tuple_indices
from .decoder import DecodeResult, _finish
from .errors import DimensionMismatch, InvalidParams


def esd_decode(
    code: Code, channel, received: np.ndarray, tie_tolerance: float = 0.0
) -> DecodeResult:
    """Exhaustive-search decode: sum log P(y_i | c_i) codeword by codeword."""
    if isinstance(channel, IsiChannel):
        msg = "esd_decode takes a memoryless channel; use esd_decode_isi"
        raise InvalidParams(msg)
    table = conditional_probability_vector(channel, received).reshape(-1, code.q)
    if table.shape[0] != code.n:
        msg = f"observation of length {table.shape[0]} does not match n={code.n}"
        raise DimensionMismatch(msg)
    positions = np.arange(code.n)
    scores = np.empty(code.size, dtype=np.float64)
    for j in range(code.size):
        scores[j] = table[positions, code.codewords[j] - 1].sum()
    return _finish(code, scores, tie_tolerance)


def esd_decode_isi(
    code: Code, channel: IsiChannel, received: np.ndarray, tie_tolerance: float = 0.0
) -> DecodeResult:
    """Exhaustive-search decode over a channel with memory."""
    if not isinstance(channel, IsiChannel):
        msg = f"expected an IsiChannel, got {type(channel).__name__}"
        raise InvalidParams(msg)
    table = conditional_probability_vector(channel, received).reshape(
        -1, channel.tuple_count
    )
    if table.shape[0] != code.n:
        msg = f"observation of length {table.shape[0]} does not match n={code.n}"
        raise DimensionMismatch(msg)
    positions = np.arange(code.n)
    scores = np.empty(code.size, dtype=np.float64)
    for j in range(code.size):
        idx = tuple_indices(code.q, channel.memory, code.codewords[j], channel.initial_symbol)
        scores[j] = table[positions, idx].sum()
    return _finish(code, scores, tie_tolerance)


def min_distance_decode(
    code: Code, received
) -> tuple[int, tuple[int, ...], np.ndarray]:
    """Hamming-distance argmin over the codebook.

    Accepts a 1-based symbol word or an ErasureObservation (erased
    positions are skipped).  Returns (best 1-based index, ascending tie
    set, per-codeword distances).
    """
    if isinstance(received, ErasureObservation):
        keep = received.values >= 0
        word = received.values[keep] + 1
    else:
        word = np.asarray(received, dtype=np.int64)
        keep = np.ones(word.shape[0], dtype=bool)
        if word.shape[0] != code.n:
            msg = f"received word of length {word.shape[0]} does not match n={code.n}"
            raise DimensionMismatch(msg)
    if keep.shape[0] != code.n:
        msg = f"observation of length {keep.shape[0]} does not match n={code.n}"
        raise DimensionMismatch(msg)
    distances = (code.codewords[:, keep] != word[None, :]).sum(axis=1)
    best = distances.min()
    ties = tuple(int(j) + 1 for j in np.flatnonzero(distances == best))
    return ties[0], ties, distances


def ranking_equivalent(
    scores: np.ndarray, first, second, tolerance: float = 1e-9
) -> bool:
    """Whether two index rankings are interchangeable under ``scores``.

    Rank for rank, both entries must carry the same score (within a
    relative tolerance).  Exact index equality is too strict a comparison
    between independently computed rankings: inside an exact tie class the
    order is an arbitrary choice, and rounding in either scorer can permute
    it.  Equal score profiles are what maximum-likelihood ranking actually
    pins down.
    """
    if len(first) != len(second):
        return False
    values = np.asarray(scores, dtype=np.float64)
    for i, j in zip(first, second):
        a, b = values[int(i) - 1], values[int(j) - 1]
        if np.isneginf(a) and np.isneginf(b):
            continue
        if abs(a - b) > tolerance * max(1.0, abs(b)):
            return False
    return True
