"""Erasure decoding on position blocks scores matches minus mismatches exactly.

``build_bipolar_codebook`` returns a binary code's memoryless one-hot
codebook (2n x S) as a ``TupleFactorization``, and ``erasure_decode``
scores position i of the +1/-1/0 bipolar word b as (-b_i, +b_i) against
it.  Scores are small integers, which every summation order adds exactly,
so they must equal the unerased positions minus twice the mismatches,
counted directly, bit for bit, single and batched, and decode the same way
through ``build_codebook_matrix`` (row blocks of the same matrix).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fastmld import (
    ERASED,
    Code,
    DimensionMismatch,
    ErasureObservation,
    NonBinaryCode,
    OpCount,
    TupleFactorization,
    build_bipolar_codebook,
    build_codebook_matrix,
    build_codebook_matrix_isi,
    erasure_decode,
    min_distance_decode,
    op_count,
)

from helpers import random_code


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _words(rng, code: Code, count: int) -> np.ndarray:
    """Codewords and random words, each row erased with probability 0, 1/3 or 1."""
    bits = code.codewords[rng.integers(0, code.size, count)].astype(np.int64) - 1
    noisy = rng.random(count) < 0.5
    bits[noisy] = rng.integers(0, 2, size=(int(noisy.sum()), code.n))
    share = rng.choice([0.0, 1 / 3, 1.0], size=(count, 1))
    return np.where(rng.random(bits.shape) < share, ERASED, bits)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 14), size=st.integers(1, 600), count=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
@example(n=14, size=4096, count=70, seed=0)  # two 32-word tiles and a short one
@example(n=1, size=2, count=3, seed=1)
@example(n=3, size=1, count=2, seed=2)
def test_erasure_scores_are_matches_minus_mismatches(n, size, count, seed):
    rng = np.random.default_rng(seed)
    code = random_code(rng, 2, n, min(size, 2**n))
    codebook = build_bipolar_codebook(code)
    assert isinstance(codebook.factorization, TupleFactorization)
    values = _words(rng, code, count)
    values[0] = ERASED  # an all-erased word ties every codeword at 0
    values[-1] = code.codewords[-1] - 1  # an unerased codeword scores n
    observation = ErasureObservation(values=values)
    ops = OpCount()
    batched = erasure_decode(codebook, code, observation, ops=ops)
    assert ops.additions == count * op_count(codebook.factorization).additions

    kept = (values != ERASED)[:, None, :]
    mismatches = (kept & (values[:, None, :] != code.codewords[None].astype(np.int64) - 1)).sum(axis=-1)
    expected = (kept.sum(axis=-1) - 2 * mismatches).astype(np.float64)
    assert _same_bits(batched.scores, expected)
    assert (batched.scores[0] == 0.0).all() and batched.ties[0].all()
    assert batched.best_score[-1] == n

    distances = min_distance_decode(code, observation)
    np.testing.assert_array_equal(batched.ties, distances[1])
    np.testing.assert_array_equal(batched.best_index, distances[0])

    rows = erasure_decode(build_codebook_matrix(code), code, observation)
    assert _same_bits(rows.scores, batched.scores)
    np.testing.assert_array_equal(rows.ties, batched.ties)
    np.testing.assert_array_equal(rows.best_index, batched.best_index)

    for row, word in enumerate(values):
        single = erasure_decode(codebook, code, ErasureObservation(values=word))
        assert _same_bits(single.scores, batched.scores[row])
        assert single.ties == tuple(np.flatnonzero(batched.ties[row]) + 1)
        assert single.best_index == batched.best_index[row]
        assert _same_bits(np.float64(single.best_score), batched.best_score[row])
        np.testing.assert_array_equal(single.best_codeword, batched.best_codeword[row])


def test_erasure_decoding_refuses_what_is_not_a_memoryless_binary_codebook():
    ternary = Code(q=3, n=2, codewords=np.array([[1, 2], [3, 1]]))
    with pytest.raises(NonBinaryCode):
        build_bipolar_codebook(ternary)
    with pytest.raises(NonBinaryCode):
        erasure_decode(build_codebook_matrix(ternary), ternary, ErasureObservation.from_string("1e"))
    code = Code(q=2, n=3, codewords=np.array([[1, 1, 1], [2, 1, 2], [2, 2, 1]]))
    observation = ErasureObservation.from_string("1e0")
    with pytest.raises(DimensionMismatch):
        erasure_decode(build_codebook_matrix_isi(code, 1), code, observation)
    with pytest.raises(DimensionMismatch):
        erasure_decode(build_bipolar_codebook(code), code, ErasureObservation.from_string("1e"))
    # A memory-0 tuple codebook is the memoryless codebook, whatever its initial symbol.
    result = erasure_decode(build_codebook_matrix_isi(code, 0, 2), code, observation)
    np.testing.assert_array_equal(result.scores, [0.0, 0.0, 2.0])
