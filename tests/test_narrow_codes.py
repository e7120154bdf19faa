"""Codewords held in their narrowest unsigned type, against int64 references.

``Code`` keeps its table in ``np.min_scalar_type(q)`` (uint8 up to q = 255),
and ``factorize`` sums in narrow unsigned integers.  Every result must equal
what the int64 formulas give: enumeration by matmul, pattern indices by
``patterns_by_matmul``, and the decoders, the oracle and the simulation run
on ``helpers.wide_code`` (the int64 table) with ``helpers.reference_codebook``.
Symbols are >= 1, so ``x - 1`` on the narrow table never wraps; q = 131
enumerates in uint16 (sums reach 2(q - 1) = 260) and stores uint8.  Every
integer input, codeword, received word or field element alike, refuses a
value that a cast to its integer type would change.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fastmld import (
    Code,
    DiscreteChannel,
    ErasureChannel,
    ErasureObservation,
    IsiChannel,
    LinearCode,
    ObservationOutOfAlphabet,
    RankDeficient,
    SimConfig,
    SymbolOutOfRange,
    build_bipolar_codebook,
    build_codebook_matrix,
    build_codebook_matrix_isi,
    build_syndrome_matrix,
    conditional_probability_vector,
    enumerate_codewords,
    erasure_decode,
    esd_decode,
    list_decode,
    min_distance_decode,
    ml_decode,
    parity_check_from_generator,
    random_linear_code,
    run_monte_carlo,
    sample_channel,
    syndrome,
    syndrome_decode,
    tuple_indices,
)
from fastmld import simulate
from fastmld.codes import validate_symbols

from helpers import (
    assert_factorization_of,
    bit_row_blocks,
    codewords_by_matmul,
    dense_codebook,
    hamming_code,
    reference_codebook,
    reference_tuple_codebook,
    syndrome_words,
    wide_code,
)

_SYMBOLS = st.one_of(
    st.integers(-1, 260).map(float),
    st.floats(-2.0, 260.0),
    st.sampled_from([np.nan, np.inf, -np.inf, 1.0 + 2**-40, 2.0 - 2**-40]),
)


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from([2, 3, 7, 131, 255, 256, 300]),
    values=st.lists(_SYMBOLS, min_size=1, max_size=6),
)
@example(q=3, values=[1.5, 2.0, 3.9])
@example(q=2, values=[1.7, 2.2, 2.9, 1.0])
@example(q=3, values=[1.0, 2.0, 3.0])
def test_symbols_an_integer_cast_would_change_are_refused(q, values):
    word = np.array(values)
    whole = all(np.isfinite(v) and v == int(v) and 1 <= v <= q for v in values)
    if whole:
        checked = validate_symbols(q, word)
        assert checked.dtype == np.int64
        np.testing.assert_array_equal(checked, word)
        code = Code(q=q, n=word.size, codewords=word[None])
        assert code.codewords.dtype == np.min_scalar_type(q)
        np.testing.assert_array_equal(code.codewords, word[None])
    else:
        with pytest.raises(SymbolOutOfRange):
            validate_symbols(q, word)
        with pytest.raises(SymbolOutOfRange):
            Code(q=q, n=word.size, codewords=word[None])


def test_fractional_codewords_are_refused():
    # A cast would truncate these to [[1, 2], [2, 1]] and [1, 2, 3].
    with pytest.raises(SymbolOutOfRange):
        Code(q=2, n=2, codewords=[[1.7, 2.2], [2.9, 1.0]])
    with pytest.raises(SymbolOutOfRange):
        validate_symbols(3, [1.5, 2.0, 3.9])
    # Inside 1..q too.
    with pytest.raises(SymbolOutOfRange):
        Code(q=3, n=2, codewords=[[1.5, 2.0], [2.0, 1.0]])
    with pytest.raises(SymbolOutOfRange):
        validate_symbols(3, [1.0, 2.5])
    code = Code(q=2, n=2, codewords=[[1.0, 2.0], [2.0, 1.0]])
    assert code.codewords.dtype == np.uint8
    np.testing.assert_array_equal(code.codewords, [[1, 2], [2, 1]])


def _whole(values, low: int, high: int) -> bool:
    return all(np.isfinite(v) and v == int(v) and low <= v <= high for v in values)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_SYMBOLS, min_size=7, max_size=7))
@example(values=[1.5, 2.9, 1.0, 1.0, 2.0, 2.0, 1.0])  # a cast scored it as [1, 2, 1, 1, 2, 2, 1]
@example(values=[1.0, 2.0, 1.0, 1.0, 2.0, 2.0, 1.0])
@example(values=[2.0, 3.0, 1.0, 2.0, 2.0, 3.0, 2.7])  # a generator row ending in 1.7
def test_received_words_and_field_elements_a_cast_would_change_are_refused(values):
    # Each input is checked in its own range: received symbols 1..2 of a
    # BSC or of the brute-force minimum-distance reference, erasure words -1..1, field elements 0..1 of a received word or
    # a syndrome, and 0..2 of a generator row over F_3.  Whole floats
    # are accepted as the integers they equal.
    word = np.array(values)
    channel = DiscreteChannel.bsc(0.1)
    linear = hamming_code()
    syndrome_matrix, leaders = build_syndrome_matrix(linear)
    code = enumerate_codewords(linear)
    checks = [  # (shift, low, high, error, call)
        (0, 1, 2, ObservationOutOfAlphabet, lambda w: conditional_probability_vector(channel, w)),
        (0, 1, 2, ObservationOutOfAlphabet, lambda w: min_distance_decode(code, w)[2]),
        (2, -1, 1, ObservationOutOfAlphabet, lambda w: ErasureObservation(values=w).values),
        (1, 0, 1, SymbolOutOfRange, lambda w: syndrome(parity_check_from_generator(linear), w, 2)),
        (1, 0, 1, ObservationOutOfAlphabet, lambda w: syndrome_decode(linear, leaders, syndrome_matrix, w).codeword),
        (1, 0, 2, SymbolOutOfRange, lambda w: LinearCode(q=3, n=7, k=1, generator=w[None]).generator),
    ]
    for shift, low, high, error, call in checks:
        shifted = word - shift
        if not _whole(shifted.tolist(), low, high):
            with pytest.raises(error):
                call(shifted)
        elif high == 2 and not shifted.any():
            with pytest.raises(RankDeficient):  # a zero generator row
                call(shifted)
        else:
            accepted = call(shifted)
            assert accepted.dtype == call(shifted.astype(np.int64)).dtype
            np.testing.assert_array_equal(accepted, call(shifted.astype(np.int64)))


def test_enumeration_sums_past_the_stored_type():
    # At q = 131 a symbol plus a generator entry reaches 2(q - 1) = 260,
    # past uint8: enumeration sums in uint16 and the code stores uint8.
    linear = LinearCode(q=131, n=3, k=2, generator=np.array([[130, 129, 1], [127, 130, 128]]))
    code = enumerate_codewords(linear)
    assert code.codewords.dtype == np.uint8
    np.testing.assert_array_equal(code.codewords, codewords_by_matmul(linear))


@st.composite
def _cases(draw):
    """A random linear code, ISI memory and seed, small enough for dense references."""
    q = draw(st.sampled_from([2, 3, 5, 7, 131]))
    if q == 131:
        # An ISI codebook at q = 131 has 17161 rows per position: too big here.
        n, memory = draw(st.integers(1, 3)), 0
        k = draw(st.integers(1, min(n, 2)))
    else:
        n = draw(st.integers(1, 9 if q == 2 else 5))
        k = draw(st.integers(1, min(n, {2: 8, 3: 4, 5: 3, 7: 2}[q])))
        memory = draw(st.integers(0, 2))
    return q, n, k, memory, draw(st.integers(0, 2**32 - 1))


def _random_rows(rng, rows: int, outputs: int) -> np.ndarray:
    table = rng.random((rows, outputs)) + 0.05
    return table / table.sum(axis=1, keepdims=True)


def _assert_same_decode(got, expected):
    np.testing.assert_array_equal(got.best_index, expected.best_index)
    np.testing.assert_array_equal(got.best_codeword, expected.best_codeword)
    np.testing.assert_array_equal(got.best_score, expected.best_score)
    np.testing.assert_array_equal(got.ties, expected.ties)
    np.testing.assert_array_equal(got.scores, expected.scores)
    np.testing.assert_array_equal(got.implausible, expected.implausible)


@settings(max_examples=40, deadline=None)
@given(case=_cases())
@example(case=(131, 3, 2, 0, 5))
@example(case=(7, 4, 2, 2, 6))
@example(case=(2, 9, 8, 1, 7))
@example(case=(2, 4, 4, 0, 8))  # k == n: no syndrome bits
def test_narrow_codes_decode_as_the_int64_references(case):
    q, n, k, memory, seed = case
    rng = np.random.default_rng(seed)
    linear = random_linear_code(q, n, k, seed)
    code = enumerate_codewords(linear)
    wide = wide_code(code)
    # Codeword j encodes message j, in the narrowest type.
    assert code.codewords.dtype == np.min_scalar_type(q) == np.uint8
    np.testing.assert_array_equal(wide.codewords, codewords_by_matmul(linear))

    onehot = build_codebook_matrix(code)
    assert_factorization_of(onehot.factorization, dense_codebook(wide.codewords.T - 1, q))
    reference = reference_codebook(wide.codewords.T - 1, q)
    channel = DiscreteChannel.from_probabilities(_random_rows(rng, q, int(rng.integers(1, 5))))
    if memory:
        initial = int(rng.integers(1, q + 1))
        onehot = build_codebook_matrix_isi(code, memory, initial)
        tuples = tuple_indices(q, memory, wide.codewords, initial).T
        np.testing.assert_array_equal(onehot.matrix.to_dense(), dense_codebook(tuples, q ** (memory + 1)))
        reference = reference_tuple_codebook(wide, memory, initial)
        rows = _random_rows(rng, q ** (memory + 1), int(rng.integers(1, 5)))
        channel = IsiChannel.from_probabilities(q, memory, rows, initial_symbol=initial)

    sent = rng.integers(code.size, size=6)
    received = sample_channel(channel, code.codewords[sent], seed)
    np.testing.assert_array_equal(received, sample_channel(channel, wide.codewords[sent], seed))
    for word in (received, received[0]):
        _assert_same_decode(
            ml_decode(onehot, code, channel, word), ml_decode(reference, wide, channel, word)
        )
        _assert_same_decode(esd_decode(code, channel, word), esd_decode(wide, channel, word))
        size = min(3, code.size)
        got = list_decode(onehot, code, channel, word, size)
        expected = list_decode(reference, wide, channel, word, size)
        np.testing.assert_array_equal(got.indices, expected.indices)
        np.testing.assert_array_equal(got.scores, expected.scores)
    if q != 2:
        return

    # The row-block bit layout sums the narrow bits as the int64 formula does.
    assert_factorization_of(bit_row_blocks(code.codewords.T - 1), dense_codebook(wide.codewords.T - 1, 1))
    bits = build_bipolar_codebook(code)
    reference_bits = reference_tuple_codebook(wide, 0)
    np.testing.assert_array_equal(bits.factorization.patterns, reference_bits.factorization.patterns)
    erasures = sample_channel(ErasureChannel(0.3), code.codewords[sent], seed)
    _assert_same_decode(
        erasure_decode(bits, code, erasures), erasure_decode(reference_bits, wide, erasures)
    )
    for got, expected in zip(min_distance_decode(code, erasures), min_distance_decode(wide, erasures)):
        np.testing.assert_array_equal(got, expected)
    flips = sample_channel(DiscreteChannel.bsc(0.2), code.codewords[sent], seed)
    syndromes, leaders = build_syndrome_matrix(linear)
    index_bits = syndrome_words(n - k).codewords.T - 1  # no rows when k == n
    got = syndrome_decode(linear, leaders, syndromes, flips - 1)
    expected = syndrome_decode(linear, leaders, reference_codebook(index_bits, 2), flips - 1)
    np.testing.assert_array_equal(got.codeword, expected.codeword)
    np.testing.assert_array_equal(got.leader_index, expected.leader_index)
    np.testing.assert_array_equal(got.distances, expected.distances)
    # Each corrected word is a codeword of the narrow table, at minimum distance.
    rows = (code.codewords[None] == got.codeword[:, None] + 1).all(axis=-1)
    assert rows.sum(axis=1).tolist() == [1] * len(sent)
    _, _, distances = min_distance_decode(code, flips)
    np.testing.assert_array_equal(distances[rows], distances.min(axis=1))


_ISI_ROWS = [[0.9, 0.1], [0.7, 0.3], [0.3, 0.7], [0.1, 0.9]]


@pytest.mark.parametrize(
    "variant,q,n,k,channel",
    [
        ("ml", 2, 9, 5, DiscreteChannel.bsc(0.1)),
        ("ml", 3, 5, 3, DiscreteChannel.symmetric(3, 0.2)),
        ("ml", 131, 3, 2, DiscreteChannel.symmetric(131, 0.3)),
        ("list", 131, 2, 1, DiscreteChannel.symmetric(131, 0.5)),
        ("list", 5, 4, 2, DiscreteChannel.symmetric(5, 0.3)),
        ("isi", 2, 8, 4, IsiChannel.from_probabilities(2, 1, _ISI_ROWS, initial_symbol=2)),
        ("isi", 3, 4, 2, IsiChannel.from_probabilities(3, 2, np.full((27, 2), 0.5))),
        ("erasure", 2, 9, 4, ErasureChannel(0.3)),
        ("syndrome", 2, 9, 4, DiscreteChannel.bsc(0.1)),
    ],
)
def test_monte_carlo_reports_equal_the_int64_references(monkeypatch, variant, q, n, k, channel):
    config = SimConfig(
        code_source=random_linear_code(q, n, k, seed=11),
        channel=channel,
        trials=60,
        seed=13,
        variant=variant,
        list_size=2,
        oracle_check=True,
    )
    report = run_monte_carlo(config)
    narrow = simulate.enumerate_codewords
    monkeypatch.setattr(simulate, "enumerate_codewords", lambda linear: wide_code(narrow(linear)))
    monkeypatch.setattr(
        simulate,
        "build_codebook_matrix",
        lambda code: reference_codebook(code.codewords.T - 1, code.q),
    )
    monkeypatch.setattr(simulate, "build_bipolar_codebook", lambda code: reference_tuple_codebook(code, 0))
    monkeypatch.setattr(simulate, "build_codebook_matrix_isi", reference_tuple_codebook)
    wide = run_monte_carlo(config)
    assert report.canonical_text() == wide.canonical_text()


def test_setup_peaks_far_below_an_int64_codeword_table():
    # S = 2^16, n = 32: an int64 table alone is 16 MiB (18.6 MiB peak in
    # all when ``Code`` widened to it); uint8 is 2 MiB, about 4.2 MiB in all.
    linear = random_linear_code(2, 32, 16, seed=3)
    tracemalloc.start()
    try:
        build_codebook_matrix(enumerate_codewords(linear))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20
