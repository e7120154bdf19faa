import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fastmld.mailman as mailman
import fastmld.oracle as oracle
from fastmld import (
    ERASED,
    Code,
    ContinuousChannel,
    DiscreteChannel,
    ErasureObservation,
    IsiChannel,
    esd_decode,
    min_distance_decode,
    tuple_indices,
)

from helpers import all_words, hamming_code, peak_beyond_start, random_code, toy_code, toy_channel
from fastmld import enumerate_codewords, random_linear_code


def tie_set_of(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(int(j) + 1 for j in np.flatnonzero(mask))


def test_esd_toy_case():
    result = esd_decode(toy_code(), toy_channel(), np.array([1, 1, 1]))
    a, b = math.log(0.9), math.log(0.1)
    np.testing.assert_array_equal(result.scores, [2 * a + b, 2 * a + b, 2 * a + b, 3 * b])
    assert result.best_index == 1
    assert result.ties == (1, 2, 3)


def test_esd_never_touches_the_fast_kernels(monkeypatch):
    """The reference decoder must not share arithmetic with the fast path."""

    def explode(*args, **kwargs):
        raise AssertionError("oracle called a fast kernel")

    for name in ("vec_times_matrix", "vec_times_matrix_naive", "vec_times_universal", "factorize"):
        monkeypatch.setattr(mailman, name, explode)
    result = esd_decode(toy_code(), toy_channel(), np.array([2, 1, 1]))
    assert result.best_index == 3
    _, ties, _ = min_distance_decode(toy_code(), np.array([2, 1, 1]))
    assert ties == (3,)
    table = np.log(np.array([[0.8, 0.2], [0.3, 0.7], [0.5, 0.5], [0.9, 0.1]]))
    chan = IsiChannel(q=2, memory=1, output_alphabet_size=2, log_transition=table)
    code = Code(q=2, n=2, codewords=np.array([[1, 1], [2, 2]]))
    esd_decode(code, chan, np.array([1, 2]))
    batch = np.array([[2, 1, 1], [2, 2, 2]])
    np.testing.assert_array_equal(esd_decode(toy_code(), toy_channel(), batch).best_index, [3, 4])
    min_distance_decode(toy_code(), batch)
    min_distance_decode(toy_code(), ErasureObservation(values=batch - 1))
    esd_decode(code, chan, np.array([[1, 2], [2, 2]]))


def test_oracle_module_never_mentions_the_kernel():
    import pathlib

    import fastmld.oracle as oracle

    source = pathlib.Path(oracle.__file__).read_text()
    assert "mailman" not in source


def test_min_distance_toy_case():
    best, ties, distances = min_distance_decode(toy_code(), np.array([1, 1, 1]))
    assert best == 1
    assert ties == (1, 2, 3)
    np.testing.assert_array_equal(distances, [1, 1, 1, 3])


def test_min_distance_with_erasures_ignores_erased_positions():
    code = enumerate_codewords(hamming_code())
    obs = ErasureObservation.from_string("e0e0e0e")
    best, ties, distances = min_distance_decode(code, obs)
    # Distances count only the four unerased positions.
    assert distances.min() == 0
    assert 1 in ties  # the all-zero codeword matches everywhere it can


def test_esd_and_min_distance_agree_on_bsc():
    """On a BSC with p < 1/2, likelihood order is Hamming-distance order."""
    code = toy_code()
    chan = DiscreteChannel.bsc(0.2)
    for word in all_words(2, 3):
        likelihood_ties = esd_decode(code, chan, word).ties
        _, distance_ties, _ = min_distance_decode(code, word)
        assert likelihood_ties == distance_ties


def test_ranking_equivalent_checks_score_profiles():
    from fastmld import ranking_equivalent

    scores = np.array([5.0, 3.0, 3.0, 1.0, -np.inf, -np.inf])
    assert ranking_equivalent(scores, (1, 2, 3), (1, 3, 2))  # tie class permuted
    assert ranking_equivalent(scores, (1, 2), (1, 2))
    assert not ranking_equivalent(scores, (1, 4), (1, 2))  # different score at rank 2
    assert not ranking_equivalent(scores, (1,), (1, 2))  # length mismatch
    assert ranking_equivalent(scores, (5,), (6,))  # both impossible


def test_esd_isi_scores_by_direct_computation():
    rng = np.random.default_rng(30)
    probs = rng.dirichlet(np.ones(2), size=8)
    chan = IsiChannel.from_probabilities(2, 2, probs)
    code = Code(q=2, n=3, codewords=np.array([[1, 2, 1], [2, 1, 2]]))
    y = np.array([2, 1, 2])
    result = esd_decode(code, chan, y)
    # Hand-rolled: walk the tuple stream for each codeword.
    expected = []
    for codeword in code.codewords:
        bits = (codeword - 1).tolist()
        history = [0, 0]
        total = 0.0
        for i, bit in enumerate(bits):
            idx = bit * 4 + history[-1] * 2 + history[-2]
            total += chan.log_transition[idx, y[i] - 1]
            history.append(bit)
        expected.append(total)
    np.testing.assert_allclose(result.scores, expected, rtol=1e-15)


@pytest.mark.parametrize("q, memory, initial", [(2, 0, 1), (2, 1, 2), (2, 2, 1), (3, 1, 3)])
def test_esd_isi_scores_equal_the_tuple_stream_loop_bitwise(q, memory, initial):
    rng = np.random.default_rng(31 + memory)
    n = 6
    code = Code(q=q, n=n, codewords=np.unique(rng.integers(1, q + 1, size=(25, n)), axis=0))
    chan = IsiChannel.from_probabilities(
        q, memory, rng.dirichlet(np.ones(3), size=q ** (memory + 1)), initial_symbol=initial
    )
    outputs = rng.integers(1, 4, size=(5, n))
    result = esd_decode(code, chan, outputs)
    for b, y in enumerate(outputs):
        expected = []
        for codeword in code.codewords:
            # Walk the stream: each symbol, then its predecessors, newest first.
            history = [initial - 1] * memory
            terms = []
            for i, symbol in enumerate((codeword - 1).tolist()):
                row = symbol
                for previous in reversed(history[len(history) - memory :]):
                    row = row * q + previous
                terms.append(chan.log_transition[row, y[i] - 1])
                history.append(symbol)
            expected.append(np.array(terms).sum())
        np.testing.assert_array_equal(result.scores[b], expected)
        np.testing.assert_array_equal(esd_decode(code, chan, y).scores, expected)


def _scores_by_loop(table: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Reference: one codeword at a time, its ``table[positions, c]`` added left to right."""
    positions = np.arange(table.shape[0])
    return np.array([np.add.accumulate(table[positions, c])[-1] for c in columns])


@pytest.mark.parametrize("n", [7, 23, 150])
def test_batched_esd_scores_equal_the_per_codeword_loop_bitwise(monkeypatch, n):
    # 150 positions would cross numpy's pairwise-summation block of 128, and
    # a small gather budget splits the codebook into many tiles.
    monkeypatch.setattr(oracle, "_GATHER_BYTES", 8 * 3 * n * 5)
    rng = np.random.default_rng(n)
    code = Code(q=3, n=n, codewords=np.unique(rng.integers(1, 4, size=(40, n)), axis=0))
    chan = ContinuousChannel.awgn(0.7, (-1.0, 0.2, 1.3))
    y = 3.0 * rng.standard_normal((4, n))
    result = esd_decode(code, chan, y)
    for b in range(4):
        table = chan.log_density(y[b])
        expected = _scores_by_loop(table, code.codewords - 1)
        np.testing.assert_array_equal(result.scores[b], expected)
        np.testing.assert_array_equal(esd_decode(code, chan, y[b]).scores, expected)

    isi = IsiChannel.from_probabilities(3, 1, rng.dirichlet(np.ones(4), size=9))
    outputs = rng.integers(1, 5, size=(4, n))
    result = esd_decode(code, isi, outputs)
    columns = tuple_indices(3, 1, code.codewords)
    for b in range(4):
        table = isi.log_transition.T[outputs[b] - 1]
        expected = _scores_by_loop(table, columns)
        np.testing.assert_array_equal(result.scores[b], expected)
        np.testing.assert_array_equal(esd_decode(code, isi, outputs[b]).scores, expected)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([2, 3]),
    memory=st.integers(0, 2),
    n=st.integers(1, 10),
    size=st.integers(1, 80),
    budgets=st.lists(st.integers(1, 1 << 13), min_size=2, max_size=2),
    batch=st.integers(1, 6),
    split=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_oracle_sums_one_left_to_right_fold_whatever_the_tiles_and_batches(
    q, memory, n, size, budgets, batch, split, seed
):
    rng = np.random.default_rng(seed)
    code = random_code(rng, q, n, min(size, q**n))
    # Few distinct rows, so that equal multisets of entries tie exactly.
    rows = np.array([[0.9, 0.1], [0.3, 0.7], [0.5, 0.5], [0.2, 0.8]])
    isi = IsiChannel.from_probabilities(
        q, memory, rows[rng.integers(0, 4, size=q ** (memory + 1))], initial_symbol=int(rng.integers(1, q + 1))
    )
    outputs = rng.integers(1, 3, size=(batch, n))
    # Erasure observations are binary; q = 3 words go in whole.
    values = np.where(rng.random((batch, n)) < 0.3 * (q == 2), ERASED, rng.integers(0, q, size=(batch, n)))
    observed = ErasureObservation if q == 2 else (lambda values: values + 1)
    columns = tuple_indices(q, memory, code.codewords, isi.initial_symbol)
    split = min(split, batch)
    with mock.patch.object(oracle, "_GATHER_BYTES", budgets[0]):
        whole = esd_decode(code, isi, outputs)
        _, _, distances = min_distance_decode(code, observed(values))
    with mock.patch.object(oracle, "_GATHER_BYTES", budgets[1]):
        parts = [esd_decode(code, isi, part) for part in (outputs[:split], outputs[split:]) if len(part)]
        singles = [esd_decode(code, isi, y) for y in outputs]
        split_distances = [
            min_distance_decode(code, observed(part))[2]
            for part in (values[:split], values[split:])
            if len(part)
        ]
    assert _same_bits(np.vstack([part.scores for part in parts]), whole.scores)
    for b, y in enumerate(outputs):
        table = isi.log_transition.T[y - 1]
        assert _same_bits(whole.scores[b], _scores_by_loop(table, columns))
        assert _same_bits(singles[b].scores, whole.scores[b])
        exact = [math.fsum(table[np.arange(n), c]) for c in columns]
        assert tie_set_of(whole.ties[b]) == tie_set_of(np.array(exact) == max(exact)) == singles[b].ties
    expected = ((code.codewords != values[:, None] + 1) & (values[:, None] >= 0)).sum(axis=-1)
    np.testing.assert_array_equal(distances, expected)
    np.testing.assert_array_equal(np.vstack(split_distances), expected)


@pytest.mark.parametrize("budget", [oracle._GATHER_BYTES, 1 << 16])
def test_batched_esd_holds_a_few_tiles_beyond_its_result(monkeypatch, budget):
    # S = 2^14 codewords of n = 20 take three tiles at the default budget.
    monkeypatch.setattr(oracle, "_GATHER_BYTES", budget)
    code = enumerate_codewords(random_linear_code(2, 20, 14, 3))
    chan = ContinuousChannel.awgn(0.8)
    y = np.random.default_rng(5).standard_normal((8, 20)) + 1.0
    result = esd_decode(code, chan, y)
    held = peak_beyond_start(lambda: esd_decode(code, chan, y))
    assert held <= result.scores.nbytes + result.ties.nbytes + 2 * budget


def test_batched_oracle_rows_equal_single_words(monkeypatch):
    monkeypatch.setattr(oracle, "_GATHER_BYTES", 8 * 5 * 7 * 3)
    code = enumerate_codewords(hamming_code())
    rng = np.random.default_rng(8)
    words = np.vstack([all_words(2, 7)[::9], code.codewords[:2]])
    bsc = DiscreteChannel.bsc(0.2)
    result = esd_decode(code, bsc, words, tie_tolerance=1e-12)
    isi = IsiChannel.from_probabilities(2, 1, rng.dirichlet(np.ones(2), size=4))
    isi_result = esd_decode(code, isi, words)
    best, ties, distances = min_distance_decode(code, words)
    values = np.where(rng.random(words.shape) < 0.4, ERASED, words - 1)
    erased_best, erased_ties, erased_distances = min_distance_decode(
        code, ErasureObservation(values=values)
    )
    for b, word in enumerate(words):
        for batched, single in (
            (result, esd_decode(code, bsc, word, tie_tolerance=1e-12)),
            (isi_result, esd_decode(code, isi, word)),
        ):
            assert batched.best_index[b] == single.best_index
            np.testing.assert_array_equal(batched.best_codeword[b], single.best_codeword)
            assert batched.best_score[b] == single.best_score
            assert tie_set_of(batched.ties[b]) == single.ties
            np.testing.assert_array_equal(batched.scores[b], single.scores)
            assert batched.implausible[b] == single.implausible
        for batched, single in (
            ((best, ties, distances), min_distance_decode(code, word)),
            (
                (erased_best, erased_ties, erased_distances),
                min_distance_decode(code, ErasureObservation(values=values[b])),
            ),
        ):
            assert batched[0][b] == single[0]
            assert tie_set_of(batched[1][b]) == single[1]
            np.testing.assert_array_equal(batched[2][b], single[2])


def test_ranking_equivalent_row_by_row():
    from fastmld import ranking_equivalent

    scores = np.array([[5.0, 3.0, 3.0, 1.0], [5.0, 3.0, -np.inf, -np.inf]])
    first = np.array([[1, 2, 3], [1, 3, 4]])
    second = np.array([[1, 3, 2], [1, 4, 3]])
    np.testing.assert_array_equal(ranking_equivalent(scores, first, second), [True, True])
    np.testing.assert_array_equal(
        ranking_equivalent(scores, first, np.array([[1, 4, 2], [2, 3, 4]])), [False, False]
    )
    for b in range(2):
        assert ranking_equivalent(scores[b], first[b], second[b])
