import math

import numpy as np
import pytest

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

from helpers import all_words, hamming_code, toy_code, toy_channel
from fastmld import enumerate_codewords


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
    """Reference: one codeword at a time, ``table[positions, c].sum()`` of an (n, width) table."""
    positions = np.arange(table.shape[0])
    return np.array([table[positions, c].sum() for c in columns])


@pytest.mark.parametrize("n", [7, 23, 150])
def test_batched_esd_scores_equal_the_per_codeword_loop_bitwise(monkeypatch, n):
    # 150 positions cross numpy's pairwise-summation block of 128, and a
    # small gather budget splits the codebook into many blocks.
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
