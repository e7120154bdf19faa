import math

import numpy as np
import pytest

from fastmld import (
    ERASED,
    ContinuousChannel,
    DiscreteChannel,
    ErasureChannel,
    ErasureObservation,
    InvalidParams,
    IsiChannel,
    ObservationOutOfAlphabet,
    SymbolOutOfRange,
    bipolar_received_vector,
    conditional_probability_vector,
    sample_channel,
)

from helpers import random_code, toy_code


def test_bsc_table():
    chan = DiscreteChannel.bsc(0.1)
    assert chan.q == 2
    assert chan.output_alphabet_size == 2
    expected = np.log([[0.9, 0.1], [0.1, 0.9]])
    np.testing.assert_allclose(chan.log_transition, expected, rtol=0, atol=0)


def test_symmetric_channel_splits_error_mass():
    chan = DiscreteChannel.symmetric(3, 0.3)
    probs = np.exp(chan.log_transition)
    np.testing.assert_allclose(np.diag(probs), [0.7, 0.7, 0.7])
    np.testing.assert_allclose(probs[0, 1:], [0.15, 0.15])


def test_from_probabilities_validates_rows():
    with pytest.raises(InvalidParams):
        DiscreteChannel.from_probabilities(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(InvalidParams):
        DiscreteChannel.from_probabilities(np.array([[1.1, -0.1], [0.5, 0.5]]))


def test_zero_probability_becomes_minus_infinity():
    chan = DiscreteChannel.from_probabilities(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.isneginf(chan.log_transition[0, 1])
    assert chan.log_transition[0, 0] == 0.0


def _malformed_log_tables(rows: int) -> list[np.ndarray]:
    """``rows`` x 2 log tables that no channel takes.

    One row short, a NaN, a +inf, and a first row summing to 1.4.
    """
    half = np.log(np.full((rows, 2), 0.5))
    nan, inf, heavy = half.copy(), half.copy(), half.copy()
    nan[0, 0] = np.nan
    inf[-1, 1] = np.inf
    heavy[0, 0] = np.log(0.9)
    return [half[:-1], nan, inf, heavy]


def test_direct_construction_still_checks_normalization():
    bad = np.log(np.array([[0.9, 0.9], [0.1, 0.9]]))
    with pytest.raises(InvalidParams):
        DiscreteChannel(q=2, output_alphabet_size=2, log_transition=bad)
    # ISI channels at memory 0 and 1 reject the same rows.
    for memory in (0, 1):
        table = np.vstack([bad] * 2**memory)
        with pytest.raises(InvalidParams):
            IsiChannel(q=2, memory=memory, output_alphabet_size=2, log_transition=table)


def test_channels_freeze_a_copy_not_the_callers_array():
    logs = np.log(np.full((2, 2), 0.5))
    points = np.array([1.0, -1.0])
    discrete = DiscreteChannel(2, 2, logs)
    continuous = ContinuousChannel(sigma=1.0, constellation=points)
    assert logs.flags.writeable and points.flags.writeable
    logs[0] = [0.0, -np.inf]
    points[0] = 5.0
    np.testing.assert_array_equal(discrete.log_transition, np.log(np.full((2, 2), 0.5)))
    np.testing.assert_array_equal(continuous.constellation, [1.0, -1.0])
    assert not discrete.log_transition.flags.writeable
    assert not continuous.constellation.flags.writeable


def test_awgn_log_density():
    chan = ContinuousChannel.awgn(0.5)
    assert chan.q == 2
    y = np.array([0.2, -1.3])
    dens = chan.log_density(y)
    assert dens.shape == (2, 2)
    expect = -math.log(0.5) - 0.5 * math.log(2 * math.pi) - (0.2 - 1.0) ** 2 / (2 * 0.25)
    assert math.isclose(dens[0, 0], expect, rel_tol=1e-15)


def test_awgn_custom_constellation():
    chan = ContinuousChannel.awgn(1.0, constellation=(0.0, 1.0, 2.0))
    assert chan.q == 3
    with pytest.raises(InvalidParams):
        ContinuousChannel.awgn(0.0)


def test_erasure_observation_from_string():
    obs = ErasureObservation.from_string("10e1E")
    np.testing.assert_array_equal(obs.values, [1, 0, ERASED, 1, ERASED])
    assert obs.n == 5
    assert obs.erasure_count == 2
    assert str(obs) == "10e1e"
    with pytest.raises(ObservationOutOfAlphabet):
        ErasureObservation.from_string("102")


def test_a_batch_of_erasure_words_prints_one_line_per_word():
    words = ["10e1e", "eeeee", "01100"]
    singles = [ErasureObservation.from_string(word) for word in words]
    batch = ErasureObservation(values=np.stack([single.values for single in singles]))
    assert str(batch).splitlines() == words
    for word, single in zip(words, singles):
        assert str(single) == word
        np.testing.assert_array_equal(ErasureObservation.from_string(str(single)).values, single.values)


def test_an_erasure_observation_freezes_a_copy_not_the_callers_array():
    for values in (np.array([0, 1, ERASED, 1]), np.array([[0.0, 1.0, -1.0, 1.0]])):
        obs = ErasureObservation(values=values)
        assert values.flags.writeable and not np.shares_memory(values, obs.values)
        assert not obs.values.flags.writeable and obs.values.dtype == np.int64
        kept = values.copy()
        values[..., 0] = 1
        np.testing.assert_array_equal(obs.values, kept)


def test_bipolar_received_vector():
    obs = ErasureObservation.from_string("1e0")
    np.testing.assert_array_equal(bipolar_received_vector(obs), [1.0, 0.0, -1.0])


def test_erasure_channel_probability_range():
    with pytest.raises(InvalidParams):
        ErasureChannel(erasure_probability=1.5)


def test_conditional_probability_vector_toy_case():
    chan = DiscreteChannel.bsc(0.1)
    vec = conditional_probability_vector(chan, np.array([1, 1, 1]))
    a, b = math.log(0.9), math.log(0.1)
    np.testing.assert_array_equal(vec, [a, b, a, b, a, b])


def test_conditional_probability_vector_rejects_bad_output():
    chan = DiscreteChannel.bsc(0.1)
    with pytest.raises(ObservationOutOfAlphabet):
        conditional_probability_vector(chan, np.array([1, 3, 1]))


def test_conditional_probability_vector_continuous():
    chan = ContinuousChannel.awgn(1.0)
    y = np.array([0.4, -0.2])
    vec = conditional_probability_vector(chan, y)
    dens = chan.log_density(y)
    np.testing.assert_array_equal(vec, dens.ravel())


def test_isi_channel_validation():
    table = np.log(np.full((4, 2), 0.5))
    chan = IsiChannel(q=2, memory=1, output_alphabet_size=2, log_transition=table)
    assert chan.tuple_count == 4
    with pytest.raises(InvalidParams):
        IsiChannel(q=2, memory=1, output_alphabet_size=2, log_transition=table[:3])
    with pytest.raises(SymbolOutOfRange):
        IsiChannel(q=2, memory=1, output_alphabet_size=2, log_transition=table, initial_symbol=3)
    for memory in (0, 1):
        for malformed in _malformed_log_tables(2 ** (memory + 1)):
            with pytest.raises(InvalidParams):
                IsiChannel(q=2, memory=memory, output_alphabet_size=2, log_transition=malformed)
    # A memoryless channel rejects the same tables.
    for malformed in _malformed_log_tables(2):
        with pytest.raises(InvalidParams):
            DiscreteChannel(q=2, output_alphabet_size=2, log_transition=malformed)


def test_isi_memoryless_degenerate_case():
    table = np.log(np.array([[0.8, 0.2], [0.3, 0.7]]))
    chan = IsiChannel(q=2, memory=0, output_alphabet_size=2, log_transition=table)
    vec = conditional_probability_vector(chan, np.array([1, 2]))
    np.testing.assert_array_equal(vec.reshape(2, 2), [table[:, 0], table[:, 1]])


def test_isi_probability_vector_layout():
    # Rows indexed by tuple (current digit high): vec stacks one
    # tuple_count block per position, holding log P(y_i | tuple).
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(3), size=4)
    chan = IsiChannel.from_probabilities(2, 1, probs)
    y = np.array([2, 3])
    vec = conditional_probability_vector(chan, y)
    assert vec.shape == (8,)
    np.testing.assert_array_equal(vec[:4], chan.log_transition[:, 1])
    np.testing.assert_array_equal(vec[4:], chan.log_transition[:, 2])


def test_sample_discrete_channel_is_deterministic():
    chan = DiscreteChannel.bsc(0.2)
    word = np.array([1, 2, 1, 2, 1])
    a = sample_channel(chan, word, np.random.default_rng(9))
    b = sample_channel(chan, word, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)
    assert a.min() >= 1 and a.max() <= 2


def test_sample_discrete_channel_frequencies():
    chan = DiscreteChannel.bsc(0.25)
    rng = np.random.default_rng(10)
    word = np.ones(20000, dtype=np.int64)
    out = sample_channel(chan, word, rng)
    flips = (out == 2).mean()
    assert abs(flips - 0.25) < 0.01


def test_sample_rejects_bad_codeword():
    chan = DiscreteChannel.bsc(0.2)
    with pytest.raises(SymbolOutOfRange):
        sample_channel(chan, np.array([1, 3]), np.random.default_rng(0))


def test_sample_continuous_channel():
    chan = ContinuousChannel.awgn(0.1)
    rng = np.random.default_rng(11)
    out = sample_channel(chan, np.array([1, 2, 1]), rng)
    assert out.dtype == np.float64
    np.testing.assert_allclose(out, [1.0, -1.0, 1.0], atol=0.6)


def test_sample_erasure_channel():
    chan = ErasureChannel(erasure_probability=0.5)
    rng = np.random.default_rng(12)
    word = np.ones(10000, dtype=np.int64)
    obs = sample_channel(chan, word, rng)
    assert isinstance(obs, ErasureObservation)
    rate = obs.erasure_count / obs.n
    assert abs(rate - 0.5) < 0.02
    unerased = obs.values[obs.values != ERASED]
    assert (unerased == 0).all()  # bit value of symbol 1 survives intact


def test_sample_isi_channel_depends_on_history():
    # Tuple rows are ordered by index = cur*2 + prev; give "repeat" tuples
    # (rows 0 and 3) a 0.9 chance of emitting output 1.
    probs = np.array([[0.9, 0.1], [0.1, 0.9], [0.1, 0.9], [0.9, 0.1]])
    chan = IsiChannel.from_probabilities(2, 1, probs)
    rng = np.random.default_rng(13)
    word = np.ones(5000, dtype=np.int64)  # all-zero bits: tuples stay (0,0)
    out = sample_channel(chan, word, rng)
    assert abs((out == 1).mean() - 0.9) < 0.02


def test_batched_sampling_draws_what_single_calls_draw():
    rng = np.random.default_rng(60)
    code = random_code(rng, 2, 7, 30)
    channels = [
        DiscreteChannel.bsc(0.2),
        ContinuousChannel.awgn(0.7),
        ErasureChannel(erasure_probability=0.4),
        IsiChannel.from_probabilities(2, 2, rng.dirichlet(np.ones(3), size=8), initial_symbol=2),
    ]
    for chan in channels:
        batched = sample_channel(chan, code.codewords, np.random.default_rng(61))
        stream = np.random.default_rng(61)
        # Two calls split at an odd row still continue one stream.
        split = [sample_channel(chan, code.codewords[:13], stream),
                 sample_channel(chan, code.codewords[13:], stream)]
        stream = np.random.default_rng(61)
        singles = [sample_channel(chan, word, stream) for word in code.codewords]
        if isinstance(chan, ErasureChannel):
            batched, singles = batched.values, [s.values for s in singles]
            split = [s.values for s in split]
        np.testing.assert_array_equal(batched, np.stack(singles))
        np.testing.assert_array_equal(batched, np.concatenate(split))


def test_batched_likelihood_rows_equal_single_vectors():
    rng = np.random.default_rng(62)
    discrete = DiscreteChannel.symmetric(3, 0.2)
    received = rng.integers(1, 4, size=(9, 5))
    rows = conditional_probability_vector(discrete, received)
    assert rows.shape == (9, 15)
    for y, row in zip(received, rows):
        np.testing.assert_array_equal(row, conditional_probability_vector(discrete, y))
    gaussian = ContinuousChannel.awgn(0.5, constellation=(1.0, -1.0, 3.0))
    soft = rng.standard_normal((9, 5))
    rows = conditional_probability_vector(gaussian, soft)
    for y, row in zip(soft, rows):
        np.testing.assert_array_equal(row, conditional_probability_vector(gaussian, y))
    isi = IsiChannel.from_probabilities(3, 1, rng.dirichlet(np.ones(4), size=9))
    outputs = rng.integers(1, 5, size=(9, 5))
    rows = conditional_probability_vector(isi, outputs)
    for y, row in zip(outputs, rows):
        np.testing.assert_array_equal(row, conditional_probability_vector(isi, y))
