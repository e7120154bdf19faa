import math

import numpy as np
import pytest

from fastmld import decoder
from fastmld import (
    Code,
    ContinuousChannel,
    DimensionMismatch,
    DiscreteChannel,
    ErasureObservation,
    InvalidParams,
    IsiChannel,
    LinearCode,
    ListSizeOutOfRange,
    NonBinaryCode,
    NoZeroDistanceCoset,
    OpCount,
    argmax_scan,
    build_bipolar_codebook,
    build_codebook_matrix,
    build_codebook_matrix_isi,
    build_syndrome_matrix,
    enumerate_codewords,
    erasure_decode,
    esd_decode,
    isi_ml_decode,
    list_decode,
    ml_decode,
    op_count,
    parity_check_from_generator,
    random_linear_code,
    syndrome,
    syndrome_decode,
)

from helpers import all_words, hamming_code, random_code, rep3_code, toy_code, toy_channel


def test_argmax_scan_basics():
    best, ties = argmax_scan(np.array([1.0, 3.0, 3.0, 2.0]))
    assert best == 2
    assert ties == (2, 3)


def test_argmax_scan_all_equal():
    best, ties = argmax_scan(np.zeros(5))
    assert best == 1
    assert ties == (1, 2, 3, 4, 5)


def test_argmax_scan_tolerance_widens_ties():
    scores = np.array([0.0, -0.5, -1.5])
    assert argmax_scan(scores)[1] == (1,)
    assert argmax_scan(scores, tie_tolerance=0.5)[1] == (1, 2)
    assert argmax_scan(scores, tie_tolerance=2.0)[1] == (1, 2, 3)


def test_argmax_scan_validation():
    with pytest.raises(InvalidParams):
        argmax_scan(np.zeros(0))
    with pytest.raises(InvalidParams):
        argmax_scan(np.zeros((2, 2)))
    with pytest.raises(InvalidParams):
        argmax_scan(np.zeros(3), tie_tolerance=-1.0)


def test_ml_decode_toy_case_exact():
    code = toy_code()
    result = ml_decode(build_codebook_matrix(code), code, toy_channel(), np.array([1, 1, 1]))
    a, b = math.log(0.9), math.log(0.1)
    np.testing.assert_array_equal(result.scores, [2 * a + b, 2 * a + b, 2 * a + b, 3 * b])
    assert result.best_index == 1
    assert result.ties == (1, 2, 3)
    np.testing.assert_array_equal(result.best_codeword, [1, 1, 2])
    assert result.best_score == 2 * a + b
    assert not result.implausible


def test_ml_decode_counts_operations():
    code = toy_code()
    codebook = build_codebook_matrix(code)
    ops = OpCount()
    ml_decode(codebook, code, toy_channel(), np.array([2, 1, 2]), ops=ops)
    assert ops.additions == op_count(codebook.factorization).additions
    assert ops.multiplications == 0


def test_ml_decode_channel_code_mismatch():
    code = toy_code()
    codebook = build_codebook_matrix(code)
    with pytest.raises(DimensionMismatch):
        ml_decode(codebook, code, DiscreteChannel.symmetric(3, 0.1), np.array([1, 1, 1]))
    with pytest.raises(DimensionMismatch):
        ml_decode(codebook, code, toy_channel(), np.array([1, 1]))


def test_ml_decode_impossible_observation_flagged():
    # A channel that never outputs symbol 2 from any input makes every
    # codeword score -inf for an observation containing 2.
    probs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    chan = DiscreteChannel.from_probabilities(probs)
    code = Code(q=2, n=2, codewords=np.array([[1, 1], [2, 2]]))
    codebook = build_codebook_matrix(code)
    result = ml_decode(codebook, code, chan, np.array([2, 2]))
    assert result.implausible
    assert result.best_index == 1
    assert np.isneginf(result.scores).all()


def test_ml_decode_partial_minus_infinity():
    probs = np.array([[0.9, 0.1, 0.0], [0.0, 0.1, 0.9]])
    chan = DiscreteChannel.from_probabilities(probs)
    code = Code(q=2, n=2, codewords=np.array([[1, 1], [1, 2], [2, 2]]))
    codebook = build_codebook_matrix(code)
    result = ml_decode(codebook, code, chan, np.array([1, 3]))
    # Only codeword (1,2) explains "clean 1 then strong 2".
    assert result.ties == (2,)
    assert np.isneginf(result.scores[0])
    assert np.isneginf(result.scores[2])
    assert not result.implausible
    reference = esd_decode(code, chan, np.array([1, 3]))
    np.testing.assert_array_equal(result.scores, reference.scores)


def test_ml_decode_soft_channel():
    code = toy_code()
    codebook = build_codebook_matrix(code)
    chan = ContinuousChannel.awgn(0.8)
    rng = np.random.default_rng(21)
    for _ in range(50):
        y = rng.standard_normal(3)
        fast = ml_decode(codebook, code, chan, y)
        slow = esd_decode(code, chan, y)
        assert fast.ties == slow.ties


def test_list_decode_full_ranking():
    code = toy_code()
    codebook = build_codebook_matrix(code)
    y = np.array([1, 2, 1])
    listed = list_decode(codebook, code, toy_channel(), y, list_size=4)
    scores = esd_decode(code, toy_channel(), y).scores
    order = np.lexsort((np.arange(4), -scores))
    assert listed.indices == tuple(int(j) + 1 for j in order)
    # Scores ride along with their index.
    for index, score in listed.entries:
        assert score == scores[index - 1]


def test_list_decode_prefix_property():
    code = toy_code()
    codebook = build_codebook_matrix(code)
    chan = ContinuousChannel.awgn(1.0)
    rng = np.random.default_rng(22)
    for _ in range(25):
        y = rng.standard_normal(3)
        lists = {ell: list_decode(codebook, code, chan, y, ell).indices for ell in (1, 2, 4)}
        assert lists[2][:1] == lists[1]
        assert lists[4][:2] == lists[2]


def test_list_decode_tie_rule_prefers_low_index():
    code = toy_code()
    codebook = build_codebook_matrix(code)
    listed = list_decode(codebook, code, toy_channel(), np.array([1, 1, 1]), list_size=3)
    # Three equal scores: ranking must come out 1, 2, 3.
    assert listed.indices == (1, 2, 3)


def test_list_decode_size_range():
    code = toy_code()
    codebook = build_codebook_matrix(code)
    for bad in (0, 5, -1):
        with pytest.raises(ListSizeOutOfRange):
            list_decode(codebook, code, toy_channel(), np.array([1, 1, 1]), bad)


def test_list_size_must_be_an_integer():
    code = toy_code()
    codebook = build_codebook_matrix(code)
    y = np.array([1, 2, 1])
    for bad in (2.0, 2.5, np.float64(2.0), "2", None):
        with pytest.raises(ListSizeOutOfRange):
            list_decode(codebook, code, toy_channel(), y, bad)
    expected = list_decode(codebook, code, toy_channel(), y, 2)
    for size in (np.int64(2), np.int32(2), np.uint8(2)):
        assert list_decode(codebook, code, toy_channel(), y, size) == expected


def test_erasure_decode_unique_recovery():
    code = enumerate_codewords(rep3_code())
    bipolar = build_bipolar_codebook(code)
    obs = ErasureObservation.from_string("1e1")
    result = erasure_decode(bipolar, code, obs)
    assert result.ties == (2,)
    assert result.best_score == 2.0  # unerased positions minus twice the mismatches
    np.testing.assert_array_equal(result.best_codeword, [2, 2, 2])


def test_erasure_decode_all_erased_ties_everything():
    code = enumerate_codewords(rep3_code())
    bipolar = build_bipolar_codebook(code)
    result = erasure_decode(bipolar, code, ErasureObservation.from_string("eee"))
    assert result.ties == (1, 2)
    assert result.best_score == 0.0


def test_erasure_decode_score_identity():
    """Score equals unerased count minus twice the unerased mismatches."""
    code = enumerate_codewords(hamming_code())
    bipolar = build_bipolar_codebook(code)
    rng = np.random.default_rng(23)
    for _ in range(40):
        values = rng.integers(0, 2, size=7)
        values[rng.random(7) < 0.4] = -1
        obs = ErasureObservation(values=values)
        result = erasure_decode(bipolar, code, obs)
        keep = values >= 0
        bits = code.codewords - 1
        mismatches = ((bits[:, keep] != values[keep][None, :])).sum(axis=1)
        expected = keep.sum() - 2.0 * mismatches
        np.testing.assert_array_equal(result.scores, expected)


def test_erasure_decode_requires_binary_code():
    code = Code(q=3, n=2, codewords=np.array([[1, 1], [2, 3]]))
    with pytest.raises(NonBinaryCode):
        build_bipolar_codebook(code)


def test_single_codeword_code_decodes_like_the_oracle():
    from fastmld import min_distance_decode

    code = Code(q=2, n=3, codewords=np.array([[2, 1, 2]]))
    chan = toy_channel()
    codebook = build_codebook_matrix(code)
    assert op_count(codebook.factorization).additions == 2 * code.n * code.q
    y = np.array([1, 1, 2])
    reference = esd_decode(code, chan, y)
    ops = OpCount()
    result = ml_decode(codebook, code, chan, y, ops=ops)
    assert (result.best_index, result.ties) == (1, reference.ties)
    np.testing.assert_allclose(result.scores, reference.scores, rtol=1e-12)
    listed = list_decode(codebook, code, chan, y, 1, ops)
    assert listed.indices == (1,)
    np.testing.assert_allclose(listed.scores, reference.scores, rtol=1e-12)
    assert ops.additions == 2 * op_count(codebook.factorization).additions

    bits = build_bipolar_codebook(code)
    observation = ErasureObservation.from_string("1e0")
    ops = OpCount()
    result = erasure_decode(bits, code, observation, ops=ops)
    assert result.ties == min_distance_decode(code, observation)[1]
    assert result.best_score == 0.0  # one match, one mismatch, one erasure
    assert ops.additions == op_count(bits.factorization).additions

    table = np.array([[0.9, 0.1], [0.6, 0.4], [0.3, 0.7], [0.2, 0.8]])
    chan = IsiChannel.from_probabilities(2, 1, table)
    codebook = build_codebook_matrix_isi(code, 1)
    reference = esd_decode(code, chan, y)
    ops = OpCount()
    result = isi_ml_decode(codebook, code, chan, y, ops=ops)
    assert result.ties == reference.ties
    np.testing.assert_allclose(result.scores, reference.scores, rtol=1e-12)
    # At S = 1 each position is a block of its own: its table copies the
    # vector's entries, and every gather after the first adds S.
    assert codebook.factorization.span == 1
    assert ops.additions == op_count(codebook.factorization).additions == (code.n - 1) * code.size


def test_erasure_decode_checks_length():
    code = enumerate_codewords(rep3_code())
    bipolar = build_bipolar_codebook(code)
    with pytest.raises(DimensionMismatch):
        erasure_decode(bipolar, code, ErasureObservation.from_string("1e"))


def test_syndrome_matrix_repetition_code():
    linear = rep3_code()
    syndrome_matrix, leaders = build_syndrome_matrix(linear)
    assert (syndrome_matrix.rows, syndrome_matrix.cols) == (4, 4)
    # The one-hot codebook of all 2-bit words: rows 2i and 2i+1 mark bit i
    # equal to 0 and to 1.
    expected = np.array(
        [
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [1, 0, 1, 0],
            [0, 1, 0, 1],
        ],
        dtype=np.uint8,
    )
    np.testing.assert_array_equal(syndrome_matrix.matrix.to_dense(), expected)
    np.testing.assert_array_equal(leaders, [[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]])


def test_syndrome_product_is_hamming_distance_between_syndromes():
    rng = np.random.default_rng(27)
    for linear in (hamming_code(), random_linear_code(2, 15, 7, 5)):
        r = linear.n - linear.k
        syndrome_matrix, leaders = build_syndrome_matrix(linear)
        assert (syndrome_matrix.rows, syndrome_matrix.cols) == (2 * r, 2**r)
        words = rng.integers(0, 2, size=(64, linear.n))
        distances = syndrome_decode(linear, leaders, syndrome_matrix, words).distances
        checks = parity_check_from_generator(linear)
        for bits, row in zip(words, distances):
            # Coset j's syndrome is the base-2 expansion of j.
            index = int("".join(str(b) for b in syndrome(checks, bits, 2)), 2)
            expected = [bin(index ^ j).count("1") for j in range(2**r)]
            np.testing.assert_array_equal(row, expected)


def test_syndrome_decode_repetition_code():
    linear = rep3_code()
    syndrome_matrix, leaders = build_syndrome_matrix(linear)
    outcome = syndrome_decode(linear, leaders, syndrome_matrix, np.array([1, 1, 0]))
    np.testing.assert_array_equal(outcome.codeword, [1, 1, 1])
    assert outcome.leader_index == 1  # error pattern 001
    assert outcome.distances[outcome.leader_index] == 0.0
    checks = parity_check_from_generator(linear)
    given = syndrome_decode(linear, leaders, syndrome_matrix, np.array([1, 1, 0]), parity_check=checks)
    np.testing.assert_array_equal(given.codeword, outcome.codeword)
    with pytest.raises(DimensionMismatch):
        syndrome_decode(linear, leaders, syndrome_matrix, np.array([1, 1, 0]), parity_check=checks[:1])


def test_syndrome_decode_flags_missing_zero_coset():
    import dataclasses

    from fastmld import BinaryMatrix, factorize

    linear = rep3_code()
    syndrome_matrix, leaders = build_syndrome_matrix(linear)
    # Corrupt the matrix column the received syndrome should match exactly;
    # the zero-distance assertion must turn that into a loud error.
    dense = syndrome_matrix.matrix.to_dense()
    dense[1, 1] ^= 1  # column 1 (syndrome 01) now also marks bit 0 = 1
    broken = dataclasses.replace(
        syndrome_matrix, factorization=factorize(BinaryMatrix.from_dense(dense))
    )
    with pytest.raises(NoZeroDistanceCoset):
        syndrome_decode(linear, leaders, broken, np.array([1, 1, 0]))


def test_syndrome_decode_corrects_single_errors():
    linear = hamming_code()
    code = enumerate_codewords(linear)
    syndrome_matrix, leaders = build_syndrome_matrix(linear)
    rng = np.random.default_rng(24)
    for _ in range(60):
        word = code.codewords[rng.integers(16)] - 1
        received = word.copy()
        received[rng.integers(7)] ^= 1
        outcome = syndrome_decode(linear, leaders, syndrome_matrix, received)
        np.testing.assert_array_equal(outcome.codeword, word)


def test_syndrome_decode_rejects_non_bits():
    linear = rep3_code()
    syndrome_matrix, leaders = build_syndrome_matrix(linear)
    with pytest.raises(Exception):
        syndrome_decode(linear, leaders, syndrome_matrix, np.array([1, 2, 0]))


def test_isi_decode_matches_oracle_brute_force():
    rng = np.random.default_rng(25)
    code = Code(
        q=2,
        n=4,
        codewords=np.array([[1, 1, 1, 1], [1, 2, 1, 2], [2, 1, 2, 1], [2, 2, 2, 2]]),
    )
    probs = rng.dirichlet(np.ones(3), size=4)
    chan = IsiChannel.from_probabilities(2, 1, probs)
    codebook = build_codebook_matrix_isi(code, 1)
    for _ in range(100):
        y = rng.integers(1, 4, size=4)
        fast = isi_ml_decode(codebook, code, chan, y)
        slow = esd_decode(code, chan, y)
        assert fast.ties == slow.ties
        np.testing.assert_allclose(fast.scores, slow.scores, rtol=1e-12, atol=1e-12)


def test_ml_and_list_decode_need_the_codebook_of_the_channels_memory():
    assert isi_ml_decode is ml_decode
    code = toy_code()
    chan = IsiChannel.from_probabilities(2, 1, np.full((4, 2), 0.5))
    memoryless = build_codebook_matrix(code)
    with pytest.raises(DimensionMismatch):
        ml_decode(memoryless, code, chan, np.array([1, 2, 1]))
    with pytest.raises(DimensionMismatch):
        list_decode(memoryless, code, chan, np.array([1, 2, 1]), 2)
    # The codebook of the channel's memory decodes.
    codebook = build_codebook_matrix_isi(code, 1)
    assert list_decode(codebook, code, chan, np.array([1, 2, 1]), 2).indices == (1, 2)


@pytest.mark.parametrize("memory", [1, 2])
def test_list_decode_over_isi_agrees_with_the_oracle_ranking(memory):
    from fastmld import ranking_equivalent

    rng = np.random.default_rng(60 + memory)
    code = random_code(rng, 2, 8, 40)
    table = rng.dirichlet(np.ones(3), size=2 ** (memory + 1))
    chan = IsiChannel.from_probabilities(2, memory, table, initial_symbol=2)
    codebook = build_codebook_matrix_isi(code, memory, initial_symbol=2)
    received = rng.integers(1, 4, size=(30, code.n))
    listed = list_decode(codebook, code, chan, received, 6)
    scores = esd_decode(code, chan, received).scores
    index = np.broadcast_to(np.arange(code.size), scores.shape)
    expected = np.lexsort((index, -scores), axis=-1)[:, :6] + 1
    assert ranking_equivalent(scores, listed.indices, expected).all()
    for b, y in enumerate(received):
        single = list_decode(codebook, code, chan, y, 6)
        assert single.indices == tuple(listed.indices[b])
        assert ranking_equivalent(scores[b], single.indices, expected[b])


def test_isi_decode_validates_memory_match():
    code = Code(q=2, n=2, codewords=np.array([[1, 1], [2, 2]]))
    table = np.log(np.full((4, 2), 0.5))
    chan = IsiChannel(q=2, memory=1, output_alphabet_size=2, log_transition=table)
    wrong = build_codebook_matrix_isi(code, 2)
    with pytest.raises(DimensionMismatch):
        isi_ml_decode(wrong, code, chan, np.array([1, 1]))


def test_scale_invariance_of_argmax():
    # Positive scaling of the log-likelihood vector cannot change winners.
    code = toy_code()
    codebook = build_codebook_matrix(code)
    chan = ContinuousChannel.awgn(0.6)
    rng = np.random.default_rng(26)
    from fastmld import conditional_probability_vector, vec_times_matrix

    for _ in range(20):
        y = rng.standard_normal(3)
        vec = conditional_probability_vector(chan, y)
        base = argmax_scan(vec_times_matrix(vec, codebook.factorization))
        scaled = argmax_scan(vec_times_matrix(7.5 * vec, codebook.factorization))
        assert base == scaled


def _assert_rows_match(batched, singles):
    """Row b of a batched DecodeResult equals the single-word result b."""
    assert len(singles) == batched.scores.shape[0]
    for row, single in enumerate(singles):
        assert batched.best_index[row] == single.best_index
        assert tuple(int(j) + 1 for j in np.flatnonzero(batched.ties[row])) == single.ties
        assert np.array_equal(batched.scores[row], single.scores)
        assert batched.best_score[row] == single.best_score
        assert batched.implausible[row] == single.implausible
        np.testing.assert_array_equal(batched.best_codeword[row], single.best_codeword)


def test_batched_ml_decode_matches_single_words():
    rng = np.random.default_rng(30)
    cases = [
        (enumerate_codewords(hamming_code()), DiscreteChannel.bsc(0.2), 0.0),
        # Zero probabilities: -inf scores, and implausible rows among the words.
        (random_code(rng, 3, 5, 6), DiscreteChannel.from_probabilities(
            [[0.7, 0.3, 0.0], [0.0, 0.6, 0.4], [0.5, 0.0, 0.5]]), 0.0),
        (random_code(rng, 2, 9, 300), ContinuousChannel.awgn(0.9), 1e-9),
    ]
    implausible = 0
    for code, chan, tolerance in cases:
        codebook = build_codebook_matrix(code)
        if isinstance(chan, ContinuousChannel):
            received = rng.standard_normal((25, code.n))
        else:
            received = rng.integers(1, chan.output_alphabet_size + 1, size=(25, code.n))
        batch_ops, word_ops = OpCount(), OpCount()
        batched = ml_decode(codebook, code, chan, received, tolerance, batch_ops)
        singles = [ml_decode(codebook, code, chan, y, tolerance, word_ops) for y in received]
        _assert_rows_match(batched, singles)
        assert batch_ops == word_ops
        implausible += int(batched.implausible.sum())
    assert implausible > 0


def test_batched_erasure_decode_matches_single_words():
    code = enumerate_codewords(hamming_code())
    bipolar = build_bipolar_codebook(code)
    rng = np.random.default_rng(31)
    values = np.where(rng.random((40, 7)) < 0.3, -1, rng.integers(0, 2, size=(40, 7)))
    batched = erasure_decode(bipolar, code, ErasureObservation(values=values))
    singles = [erasure_decode(bipolar, code, ErasureObservation(values=v)) for v in values]
    _assert_rows_match(batched, singles)


def test_batched_isi_decode_matches_single_words():
    rng = np.random.default_rng(32)
    for memory in (0, 1, 2):
        code = random_code(rng, 2, 6, 20)
        table = rng.dirichlet(np.ones(3), size=2 ** (memory + 1))
        chan = IsiChannel.from_probabilities(2, memory, table)
        codebook = build_codebook_matrix_isi(code, memory)
        received = rng.integers(1, 4, size=(30, 6))
        batched = isi_ml_decode(codebook, code, chan, received)
        _assert_rows_match(batched, [isi_ml_decode(codebook, code, chan, y) for y in received])


def test_batched_syndrome_decode_matches_single_words():
    linear = hamming_code()
    syndrome_matrix, leaders = build_syndrome_matrix(linear)
    words = all_words(2, 7) - 1
    batch_ops, word_ops = OpCount(), OpCount()
    batched = syndrome_decode(linear, leaders, syndrome_matrix, words, batch_ops)
    for row, bits in enumerate(words):
        single = syndrome_decode(linear, leaders, syndrome_matrix, bits, word_ops)
        np.testing.assert_array_equal(batched.codeword[row], single.codeword)
        assert batched.leader_index[row] == single.leader_index
        assert np.array_equal(batched.distances[row], single.distances)
    assert batch_ops == word_ops


def test_batched_list_decode_matches_single_words():
    rng = np.random.default_rng(33)
    code = random_code(rng, 2, 8, 64)
    codebook = build_codebook_matrix(code)
    chan = ContinuousChannel.awgn(1.0)
    received = rng.standard_normal((20, 8))
    for size in (1, 5, 64):
        batched = list_decode(codebook, code, chan, received, size)
        assert batched.indices.shape == batched.scores.shape == (20, size)
        for row, y in enumerate(received):
            single = list_decode(codebook, code, chan, y, size)
            assert tuple(batched.indices[row]) == single.indices
            assert tuple(batched.scores[row]) == single.scores


def test_list_ranking_matches_lexsort_with_exact_ties_and_minus_infinity():
    # Every output is either a clean bit or an erasure-like symbol 3, each
    # with probability 1/2: consistent words tie exactly (equal summands in
    # equal block order, as every block holds whole positions) and the rest
    # score -inf.
    chan = DiscreteChannel.from_probabilities([[0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    rng = np.random.default_rng(34)
    ties_seen = minus_inf_seen = 0
    # n = 12 (S = 4096) ranks by selection, the shorter codes by the sort.
    assert 2**8 <= decoder._SORT_MAX_COLS < 2**12
    for n in (4, 6, 8, 12):
        code = Code(q=2, n=n, codewords=all_words(2, n))
        codebook = build_codebook_matrix(code)
        received = np.where(rng.random((12, n)) < 0.4, 3, rng.integers(1, 3, size=(12, n)))
        scores = ml_decode(codebook, code, chan, received).scores
        for size in (1, 5, code.size // 2, code.size):
            batched = list_decode(codebook, code, chan, received, size)
            for row, y in enumerate(received):
                expected = np.lexsort((np.arange(code.size), -scores[row]))[:size] + 1
                np.testing.assert_array_equal(batched.indices[row], expected)
                assert list_decode(codebook, code, chan, y, size).indices == tuple(expected)
        for row in range(len(received)):
            finite = scores[row][np.isfinite(scores[row])]
            ties_seen += finite.size - np.unique(finite).size
            minus_inf_seen += int(np.isneginf(scores[row]).sum())
    assert ties_seen > 0 and minus_inf_seen > 0
