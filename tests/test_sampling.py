"""Channel outputs drawn and checked by whole-array passes, against references.

Every draw must equal the gathered-cumulative-table sampler in
``helpers.sample_categorical_by_table``, and an erasure observation must
accept exactly the words that hold only 0, 1 and the erasure marker.  Kept
apart from ``test_channels.py`` because it needs ``hypothesis``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fastmld import (
    DiscreteChannel,
    ErasureChannel,
    ErasureObservation,
    IsiChannel,
    ObservationOutOfAlphabet,
    SimConfig,
    run_monte_carlo,
    sample_channel,
)
from fastmld import channels

from helpers import hamming_code, sample_categorical_by_table

ISI_CHANNEL = IsiChannel.from_probabilities(2, 1, [[0.9, 0.1], [0.7, 0.3], [0.3, 0.7], [0.1, 0.9]])


def _transition_rows(rng, rows: int, outputs: int, zero_share: float) -> np.ndarray:
    """Random transition rows with some zero entries.

    Every other row's cumulative sum ends 3e-10 below 1.0, and the rest end
    wherever rounding puts them, often one ulp below.
    """
    table = rng.random((rows, outputs))
    table[rng.random((rows, outputs)) < zero_share] = 0.0
    table[np.arange(rows), rng.integers(outputs, size=rows)] += 0.5
    table /= table.sum(axis=1, keepdims=True)
    # Taking 3e-10 off a row's largest entry keeps it valid (rows sum to 1
    # within 1e-9) and ends its cumulative sum below 1.0.
    largest = table.argmax(axis=1)[::2]
    table[np.arange(0, rows, 2), largest] -= 3e-10
    return table


class _FixedDraws:
    """Stands in for a Generator: ``random(shape)`` hands out preset doubles in order."""

    def __init__(self, values: np.ndarray):
        self.values = values

    def random(self, shape) -> np.ndarray:
        return self.values[: int(np.prod(shape))].reshape(shape)


@settings(max_examples=150, deadline=None)
@given(
    q=st.integers(2, 5),
    memory=st.integers(0, 2),
    outputs=st.integers(1, 8),
    zero_share=st.sampled_from([0.0, 0.3, 0.7]),
    shape=st.one_of(
        st.tuples(st.integers(1, 12)),
        st.tuples(st.integers(1, 30), st.integers(1, 12)),
    ),
    isi=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampling_draws_what_the_cumulative_table_draws(
    q, memory, outputs, zero_share, shape, isi, seed
):
    rng = np.random.default_rng(seed)
    if isi or memory:
        table = _transition_rows(rng, q ** (memory + 1), outputs, zero_share)
        initial = int(rng.integers(1, q + 1))
        channel = IsiChannel.from_probabilities(q, memory, table, initial_symbol=initial)
    else:
        channel = DiscreteChannel.from_probabilities(_transition_rows(rng, q, outputs, zero_share))
    codeword = rng.integers(1, q + 1, size=shape)
    got = sample_channel(channel, codeword, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(channels, "_sample_categorical", sample_categorical_by_table)
        expected = sample_channel(channel, codeword, np.random.default_rng(seed))
    assert got.dtype == expected.dtype and got.shape == expected.shape == shape
    np.testing.assert_array_equal(got, expected)

    # Draws on and just above every cumulative sum, and above a row's last
    # sum where it rounds below 1.0, pick what the table picks.
    log_rows = channel.log_transition
    cumulative = np.cumsum(np.exp(log_rows), axis=1)
    row_index = rng.integers(log_rows.shape[0], size=shape)
    sums = cumulative.ravel()
    edges = np.concatenate([sums, np.nextafter(sums, 2.0), [1.0 - 2.0**-53, 0.0]])
    draws = rng.choice(edges[edges < 1.0], size=row_index.size)
    got = channels._sample_categorical(log_rows, row_index, _FixedDraws(draws))
    expected = sample_categorical_by_table(log_rows, row_index, _FixedDraws(draws))
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize(
    "variant, channel",
    [
        ("ml", DiscreteChannel.from_probabilities([[0.8, 0.15, 0.05], [0.1, 0.0, 0.9]])),
        ("list", DiscreteChannel.bsc(0.1)),
        ("erasure", ErasureChannel(erasure_probability=0.3)),
        ("syndrome", DiscreteChannel.bsc(0.1)),
        ("isi", ISI_CHANNEL),
    ],
)
def test_reports_equal_those_of_the_reference_sampler(monkeypatch, variant, channel):
    config = SimConfig(
        code_source=hamming_code(),
        channel=channel,
        trials=401,
        seed=19,
        variant=variant,
        list_size=3,
        oracle_check=True,
        workers=2,
    )
    report = run_monte_carlo(config).canonical_text()
    monkeypatch.setattr(channels, "_sample_categorical", sample_categorical_by_table)
    assert run_monte_carlo(config).canonical_text() == report


def test_sampling_allocates_no_per_output_table():
    # 16 outputs on a (256, 64) batch: the gathered (B, n, 16) cumulative
    # table alone would take 2 MiB; the draws and picks take 128 KiB each.
    channel = DiscreteChannel.from_probabilities(np.full((2, 16), 1.0 / 16))
    words = np.random.default_rng(5).integers(1, 3, size=(256, 64))
    noise = np.random.default_rng(6)
    sample_channel(channel, words, noise)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        sample_channel(channel, words, noise)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 1 << 20


@settings(max_examples=200, deadline=None)
@given(
    shape=st.one_of(st.tuples(st.integers(1, 6)), st.tuples(st.integers(0, 5), st.integers(1, 6))),
    floats=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(0, 7), floats=False, seed=0)  # an empty batch is accepted
def test_erasure_observation_accepts_exactly_zero_one_and_erased(shape, floats, seed):
    rng = np.random.default_rng(seed)
    # Mostly valid words, so that both outcomes are common.
    valid, wide = rng.integers(-1, 2, size=shape), rng.integers(-3, 4, size=shape)
    values = np.where(rng.random(shape) < 0.9, valid, wide)
    if floats:
        # Whole floats are accepted; a fraction, which an integer cast would
        # truncate toward zero, is refused.
        values = np.where(rng.random(shape) < 0.9, values, rng.uniform(-2.5, 2.5, size=shape))
    if np.isin(values, (0, 1, -1)).all():
        checked = ErasureObservation(values=values).values
        assert checked.dtype == np.int64
        np.testing.assert_array_equal(checked, values)
    else:
        with pytest.raises(ObservationOutOfAlphabet):
            ErasureObservation(values=values)

