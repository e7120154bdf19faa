"""Syndrome decoding on position blocks equals the row-block int64 reference.

``build_syndrome_matrix`` returns the one-hot codebook of all 2^(n-k)
binary words as a memoryless ``TupleFactorization``.  Syndrome distances
are small integers, which every summation order adds exactly, so the
distances, leaders and corrected words must equal those decoded on
``helpers.reference_codebook`` (row blocks, int64 pattern indices) bit for
bit, single and batched.  A code with k == n has no syndrome bits: its
codebook has no rows, and every word decodes as itself.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fastmld import (
    DiscreteChannel,
    LinearCode,
    SimConfig,
    TupleFactorization,
    build_syndrome_matrix,
    op_count,
    random_linear_code,
    run_monte_carlo,
    syndrome_decode,
    vec_times_matrix,
)

from helpers import all_words, reference_codebook, syndrome_words


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=40, deadline=None)
@given(r=st.integers(1, 12), k=st.integers(1, 4), count=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
@example(r=12, k=1, count=70, seed=0)  # S = 4096: two 32-word tiles and a short one
@example(r=1, k=1, count=1, seed=1)
def test_syndrome_decode_equals_the_row_block_reference(r, k, count, seed):
    rng = np.random.default_rng(seed)
    linear = random_linear_code(2, r + k, k, seed % 1000)
    syndromes, leaders = build_syndrome_matrix(linear)
    assert isinstance(syndromes.factorization, TupleFactorization)
    reference = reference_codebook(syndrome_words(r).codewords.T - 1, 2)
    words = rng.integers(0, 2, size=(count, linear.n))
    batched = syndrome_decode(linear, leaders, syndromes, words)
    expected = syndrome_decode(linear, leaders, reference, words)
    assert _same_bits(batched.distances, expected.distances)
    np.testing.assert_array_equal(batched.leader_index, expected.leader_index)
    np.testing.assert_array_equal(batched.codeword, expected.codeword)
    for row, word in enumerate(words):
        single = syndrome_decode(linear, leaders, syndromes, word)
        assert _same_bits(single.distances, batched.distances[row])
        assert single.leader_index == batched.leader_index[row]
        np.testing.assert_array_equal(single.codeword, batched.codeword[row])


def test_a_code_without_syndrome_bits_decodes_every_word_as_itself():
    linear = LinearCode(q=2, n=5, k=5, generator=np.eye(5, dtype=np.int64))
    syndromes, leaders = build_syndrome_matrix(linear)
    assert (syndromes.rows, syndromes.cols) == (0, 1)
    assert op_count(syndromes.factorization).additions == 0
    np.testing.assert_array_equal(leaders, np.zeros((1, 5)))
    words = all_words(2, 5) - 1
    batched = syndrome_decode(linear, leaders, syndromes, words)
    assert _same_bits(batched.distances, np.zeros((32, 1)))
    np.testing.assert_array_equal(batched.leader_index, np.zeros(32))
    np.testing.assert_array_equal(batched.codeword, words)
    single = syndrome_decode(linear, leaders, syndromes, words[5])
    assert _same_bits(single.distances, np.zeros(1))
    assert single.leader_index == 0
    np.testing.assert_array_equal(single.codeword, words[5])
    # Every received word is a codeword, so the frame errors are the words
    # the channel changed, as ML decoding counts them.
    reports = [
        run_monte_carlo(SimConfig(
            code_source=linear, channel=DiscreteChannel.bsc(0.1), trials=50, seed=2, variant=variant,
            oracle_check=True,
        ))
        for variant in ("syndrome", "ml")
    ]
    assert [report.oracle_disagreements for report in reports] == [0, 0]
    assert reports[0].mean_decode_additions == 0.0
    assert reports[0].word_errors == reports[1].word_errors > 0


def test_a_factorization_without_positions_multiplies_to_zeros():
    empty = TupleFactorization(2, 0, 0, 1, np.zeros((0, 3), dtype=np.intp))
    assert (empty.rows, empty.cols) == (0, 3)
    assert _same_bits(vec_times_matrix(np.zeros(0), empty), np.zeros(3))
    assert _same_bits(vec_times_matrix(np.zeros((4, 0)), empty), np.zeros((4, 3)))
    assert empty.reconstruct().to_dense().shape == (0, 3)
