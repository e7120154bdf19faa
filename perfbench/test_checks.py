"""Each benchmark check accepts a correct result and rejects a corrupted one.

Run with ``python3 -m pytest perfbench/test_checks.py``.  Correct results
are computed here by brute force; fastmld is not imported.
"""

import math

import numpy as np
import pytest

import checks
import workloads as wl

HAMMING = np.array(wl.HAMMING_GENERATOR)


@pytest.fixture(scope="module")
def hamming():
    return checks.codeword_ints(HAMMING)


@pytest.fixture(scope="module")
def golay():
    return checks.codeword_ints(wl.golay_generator())


def test_code_parameters(hamming, golay):
    assert checks.minimum_distance(hamming) == 3
    assert checks.minimum_distance(golay) == 7


def test_enumeration_rejects_permuted_codewords(hamming):
    program = checks.word_bits(hamming, 7).astype(np.int64) + 1
    assert checks.enumeration_mismatches(program, hamming, 7) == 0
    program[[3, 5]] = program[[5, 3]]
    assert checks.enumeration_mismatches(program, hamming, 7) == 2
    assert checks.enumeration_mismatches(program[:-1], hamming, 7) == 16


def test_fer_rejects_a_wrong_error_rate():
    p = 0.05
    expected = checks.perfect_code_fer(7, 1, p)
    assert expected == pytest.approx(1 - (1 - p) ** 7 - 7 * p * (1 - p) ** 6)
    trials = 20000
    assert checks.fer_within(round(expected * trials), trials, expected)
    assert not checks.fer_within(round(1.2 * expected * trials), trials, expected)
    assert not checks.fer_within(0, 0, expected)


def test_bsc_ml_rejects_permuted_index_and_dropped_tie(golay):
    rng = np.random.default_rng(0)
    _, bits = wl.draw_codewords(rng, golay, 23, 20)
    for rx in wl.bsc_words(rng, bits, 0.1):
        _, nearest = checks.nearest_codewords(golay, rx)
        best = int(nearest[0])
        assert checks.bsc_ml_ok(golay, rx, best, (best,))
        other = best % golay.shape[0] + 1
        assert not checks.bsc_ml_ok(golay, rx, other, (other,))
    # 0011 is at distance 2 from both words of the length-4 repetition code.
    repetition = checks.codeword_ints(np.array([[1, 1, 1, 1]]))
    rx = np.array([0, 0, 1, 1])
    assert checks.bsc_ml_ok(repetition, rx, 1, (1, 2))
    assert not checks.bsc_ml_ok(repetition, rx, 1, (1,))
    assert not checks.bsc_ml_ok(repetition, rx, 2, (1, 2))


def test_list_rejects_wrong_order_and_far_codewords(golay):
    rng = np.random.default_rng(1)
    _, bits = wl.draw_codewords(rng, golay, 23, 1)
    rx = wl.bsc_words(rng, bits, 0.1)[0]
    distances, _ = checks.nearest_codewords(golay, rx)
    order = np.lexsort((np.arange(golay.shape[0]), distances))
    top = [int(j) + 1 for j in order[:4]]
    assert checks.list_distances_ok(golay, rx, top)
    assert not checks.list_distances_ok(golay, rx, top[::-1])
    assert not checks.list_distances_ok(golay, rx, top[:3] + [int(order[-1]) + 1])
    assert not checks.list_distances_ok(golay, rx, top[:3] + top[:1])


def test_awgn_rejects_permuted_best_and_list(hamming):
    rng = np.random.default_rng(2)
    signs = 1.0 - 2.0 * checks.word_bits(hamming, 7)
    _, bits = wl.draw_codewords(rng, hamming, 7, 1)
    y = wl.awgn_words(rng, bits)[0]
    correlation = signs @ y
    tol = checks.correlation_tolerance(y)
    order = [int(j) + 1 for j in np.lexsort((np.arange(16), -correlation))]
    assert checks.awgn_ml_ok(correlation, order[0], tol)
    assert not checks.awgn_ml_ok(correlation, order[1], tol)
    assert checks.awgn_list_ok(correlation, order[:8], tol)
    swapped = order[:8]
    swapped[2], swapped[5] = swapped[5], swapped[2]
    assert not checks.awgn_list_ok(correlation, swapped, tol)
    assert not checks.awgn_list_ok(correlation, order[:7] + [order[9]], tol)
    # A tie within rounding may be listed in either order.
    tied = np.array([1.0, 2.0, 2.0 + 1e-13, 0.5])
    assert checks.awgn_list_ok(tied, [2, 3], 1e-9)
    assert checks.awgn_ml_ok(tied, 2, 1e-9)


def test_erasure_rejects_dropped_and_extra_ties(golay):
    rng = np.random.default_rng(3)
    _, bits = wl.draw_codewords(rng, golay, 23, 1)
    values = bits[0].copy()
    values[:8] = -1
    consistent = tuple(int(j) for j in checks.erasure_consistent(golay, values))
    assert checks.erasure_ok(golay, values, consistent, 7)
    values_few = bits[0].copy()
    values_few[:6] = -1
    unique = tuple(int(j) for j in checks.erasure_consistent(golay, values_few))
    assert len(unique) == 1
    assert checks.erasure_ok(golay, values_few, unique, 7)
    assert not checks.erasure_ok(golay, values_few, (), 7)
    assert not checks.erasure_ok(golay, values_few, unique + (unique[0] % 4096 + 1,), 7)
    if len(consistent) > 1:
        assert not checks.erasure_ok(golay, values, consistent[1:], 7)


def test_isi_rejects_non_maximizer_and_extra_tie():
    log_table = np.log(np.array(wl.ISI_TABLE))
    # Codewords 1 and 2 score the same terms in a different order: an exact tie.
    rows = np.array([[0, 1, 3, 2, 0], [3, 0, 0, 1, 2], [3, 3, 3, 3, 3]])
    received = np.array([1, 1, 1, 1, 1])
    terms = log_table[rows, received - 1]
    assert math.fsum(terms[0]) == math.fsum(terms[1]) > math.fsum(terms[2])
    exact = checks.exact_isi_ties(log_table, rows, received)
    assert exact == (1, 2)
    assert checks.isi_ok(exact, 1, (1, 2))
    assert checks.isi_ok(exact, 2, (2,))
    assert not checks.isi_ok(exact, 3, (3,))
    assert not checks.isi_ok(exact, 1, (1, 2, 3))


def test_op_count_rejects_a_wrong_tally():
    assert checks.additions_per_product(14, 16) == 3 * (15 + 16) + (3 + 16)
    own = checks.additions_per_product(46, 4096)
    assert checks.op_count_ok(own, 46, 4096)
    assert not checks.op_count_ok(own - 1, 46, 4096)
    assert own <= checks.addition_bound(46, 4096)


def test_tail_latency_leaves_ten_samples_beyond():
    assert checks.tail_latency(range(1, 101)) == (90, 90.0)
    assert checks.tail_latency(range(1, 1001)) == (990, 99.0)
    assert checks.tail_latency(range(1, 9001)) == (8910, 99.0)
    assert checks.tail_latency(range(1, 10001)) == (9990, 99.9)
    with pytest.raises(ValueError):
        checks.tail_latency(range(99))
