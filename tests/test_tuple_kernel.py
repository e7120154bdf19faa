"""Position-block tuple codebooks, and tie sets that do not depend on summation order.

ISI codebooks (``build_codebook_matrix_isi``, any memory L) factorize by
blocks of consecutive positions, so their products sum each score in
another order than the dense product or the oracle.  With tolerance 0 the
tie sets are exact: the codewords whose ``math.fsum`` of the channel's
stored log entries is largest, on the fast path and in the oracle alike.
Kept apart from ``test_decoder.py`` because it needs ``hypothesis``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fastmld import (
    ContinuousChannel,
    InvalidParams,
    IsiChannel,
    OpCount,
    TupleFactorization,
    build_codebook_matrix,
    build_codebook_matrix_isi,
    conditional_probability_vector,
    enumerate_codewords,
    esd_decode,
    isi_ml_decode,
    ml_decode,
    op_count,
    sample_channel,
    tuple_indices,
    vec_times_matrix,
    vec_times_matrix_naive,
)

from helpers import golay_code, hamming_code, random_code

#: Rows whose logs sum to near-ties: 0.9 * 0.1 = 0.3 * 0.3 in decimals but
#: not in float64, and repeated rows that tie exactly.
_ROWS = ([0.9, 0.1], [0.7, 0.3], [0.3, 0.7], [0.1, 0.9], [0.5, 0.5], [1.0, 0.0])

ISI_CHANNEL = IsiChannel.from_probabilities(2, 1, [[0.9, 0.1], [0.7, 0.3], [0.3, 0.7], [0.1, 0.9]])


def _gamma(vector: np.ndarray, n: int) -> np.ndarray:
    """(n-1)u / (1-(n-1)u) times the sum over positions of the largest finite |entry|, per row."""
    k = (n - 1) * 2.0**-53
    magnitudes = np.abs(vector.reshape(vector.shape[:-1] + (n, -1)))
    magnitudes[np.isinf(magnitudes)] = 0.0
    return k / (1.0 - k) * magnitudes.max(axis=-1).sum(axis=-1)


def _fsum_ties(code, channel, received: np.ndarray) -> np.ndarray:
    """The exact tie mask, (B, S): every codeword whose fsum of log entries is the row's largest."""
    memory = channel.memory if isinstance(channel, IsiChannel) else 0
    width = code.q ** (memory + 1)
    initial = channel.initial_symbol if memory else 1
    entries = tuple_indices(code.q, memory, code.codewords, initial) + np.arange(code.n) * width
    vectors = conditional_probability_vector(channel, received).reshape(-1, code.n * width)
    sums = np.array([[math.fsum(terms) for terms in vector[entries].tolist()] for vector in vectors])
    return sums == sums.max(axis=1, keepdims=True)


def _assert_rows_match(batched, singles):
    for row, single in enumerate(singles):
        assert batched.best_index[row] == single.best_index
        assert tuple(int(j) + 1 for j in np.flatnonzero(batched.ties[row])) == single.ties
        assert np.array_equal(batched.scores[row].view(np.uint64), single.scores.view(np.uint64))
        assert batched.best_score[row] == single.best_score
        assert batched.implausible[row] == single.implausible


@settings(max_examples=120, deadline=None)
@given(
    q=st.integers(2, 3),
    memory=st.integers(0, 2),
    n=st.integers(2, 12),
    size=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
)
@example(q=2, memory=1, n=7, size=16, seed=3)
@example(q=3, memory=2, n=12, size=600, seed=4)
def test_tuple_kernel_scores_batches_and_exact_ties(q, memory, n, size, seed):
    rng = np.random.default_rng(seed)
    code = random_code(rng, q, n, min(size, q**n))
    width = q ** (memory + 1)
    table = np.array(_ROWS)[rng.integers(len(_ROWS), size=width)]
    initial = int(rng.integers(1, q + 1))
    channel = IsiChannel.from_probabilities(q, memory, table, initial_symbol=initial)
    codebook = build_codebook_matrix_isi(code, memory, initial)
    received = sample_channel(channel, code.codewords[rng.integers(code.size, size=6)], rng)
    received[0] = rng.integers(1, 3, size=n)  # a word the code may not explain: -inf scores too

    # Scores: within 2 gamma of the dense tuple codebook's product, and -inf where it is.
    vectors = conditional_probability_vector(channel, received)
    fast = vec_times_matrix(vectors, codebook.factorization)
    dense = vec_times_matrix_naive(vectors, codebook.matrix)
    assert np.array_equal(np.isneginf(fast), np.isneginf(dense))
    finite = np.isfinite(dense)
    gap = np.abs(np.where(finite, fast, 0.0) - np.where(finite, dense, 0.0))
    assert (gap <= 2.0 * _gamma(vectors, n)[:, None]).all()

    # Batched rows equal single words bit for bit, additions included.
    batch_ops, word_ops = OpCount(), OpCount()
    batched = isi_ml_decode(codebook, code, channel, received, ops=batch_ops)
    _assert_rows_match(batched, [isi_ml_decode(codebook, code, channel, y, ops=word_ops) for y in received])
    assert batch_ops == word_ops
    assert batch_ops.additions == len(received) * op_count(codebook.factorization).additions

    # Fast ties == oracle ties == fsum ties.
    exact = _fsum_ties(code, channel, received)
    np.testing.assert_array_equal(batched.ties, exact)
    np.testing.assert_array_equal(esd_decode(code, channel, received).ties, exact)


def test_hamming_isi_ties_are_exact_in_every_word():
    # 8192 words over the tests' ISI channel.  Summed in their own orders,
    # the fast product and the oracle agreed with each other but split or
    # merged ties against the fsum sets in 70 of these words.
    code = enumerate_codewords(hamming_code())
    codebook = build_codebook_matrix_isi(code, 1)
    rng = np.random.default_rng(0)
    received = sample_channel(ISI_CHANNEL, code.codewords[rng.integers(code.size, size=8192)], rng)
    exact = _fsum_ties(code, ISI_CHANNEL, received)
    np.testing.assert_array_equal(isi_ml_decode(codebook, code, ISI_CHANNEL, received).ties, exact)
    np.testing.assert_array_equal(esd_decode(code, ISI_CHANNEL, received).ties, exact)


def test_golay_isi_ties_are_exact_and_cost_below_memoryless_ml():
    code = enumerate_codewords(golay_code())
    counts = [op_count(build_codebook_matrix_isi(code, memory).factorization).additions for memory in (0, 1, 2)]
    # Row blocks of the memoryless codebook take 29,692 additions.
    assert all(count < 29_692 for count in counts)
    codebook = build_codebook_matrix_isi(code, 1)
    rng = np.random.default_rng(1)
    received = sample_channel(ISI_CHANNEL, code.codewords[rng.integers(code.size, size=64)], rng)
    exact = _fsum_ties(code, ISI_CHANNEL, received)
    np.testing.assert_array_equal(isi_ml_decode(codebook, code, ISI_CHANNEL, received).ties, exact)
    np.testing.assert_array_equal(esd_decode(code, ISI_CHANNEL, received).ties, exact)


def test_awgn_ties_are_exact():
    # Received values on a coarse grid give equal and nearly equal sums.
    rng = np.random.default_rng(2)
    code = random_code(rng, 2, 9, 120)
    channel = ContinuousChannel.awgn(0.7)
    codebook = build_codebook_matrix(code)
    received = rng.choice([-1.5, -0.5, -0.1, 0.1, 0.5, 1.5], size=(40, code.n))
    exact = _fsum_ties(code, channel, received)
    batched = ml_decode(codebook, code, channel, received)
    np.testing.assert_array_equal(batched.ties, exact)
    np.testing.assert_array_equal(esd_decode(code, channel, received).ties, exact)
    _assert_rows_match(batched, [ml_decode(codebook, code, channel, y) for y in received])


def test_tuple_factorization_refuses_patterns_out_of_range():
    fact = build_codebook_matrix_isi(random_code(np.random.default_rng(3), 2, 5, 20), 1).factorization
    with pytest.raises(ValueError, match="read-only"):
        fact.patterns[0, 0] = 0
    again = TupleFactorization(fact.q, fact.memory, fact.positions, fact.span, fact.patterns.copy())
    vector = np.random.default_rng(4).standard_normal(fact.rows)
    assert np.array_equal(vec_times_matrix(vector, again), vec_times_matrix(vector, fact))
    digits = fact.memory + min(fact.span, fact.positions)
    for value in (-1, fact.q**digits):
        patterns = fact.patterns.copy()
        patterns[0, 0] = value
        with pytest.raises(InvalidParams):
            TupleFactorization(fact.q, fact.memory, fact.positions, fact.span, patterns)
    with pytest.raises(InvalidParams):
        TupleFactorization(fact.q, fact.memory, fact.positions, fact.span, fact.patterns[:-1].copy())
    with pytest.raises(InvalidParams):
        TupleFactorization(fact.q, fact.memory, fact.positions, fact.span, fact.patterns.astype(np.float64))
