"""Correctness checks that share no arithmetic with fastmld.

Every function here works from the benchmark's own representation of a
binary linear code: each codeword as one integer whose bit ``n - 1 - i``
is the codeword's bit at position ``i``, enumerated in the same message
order as ``fastmld.enumerate_codewords`` (codeword ``j`` encodes the
binary expansion of ``j``, first generator row most significant).  Program
results enter only as indices, index tuples and tallies; each check
returns True when the result is acceptable.  Codeword indices are 1-based,
as in fastmld's results.
"""

from __future__ import annotations

import math

import numpy as np

#: Unit roundoff of float64.
UNIT_ROUNDOFF = 2.0**-53


def codeword_ints(generator) -> np.ndarray:
    """All 2^k codewords of a binary [n, k] code as integers, in message order."""
    g = np.asarray(generator, dtype=np.int64) % 2
    k, n = g.shape
    if n > 63:
        msg = f"codeword integers hold at most 63 bits, got n={n}"
        raise ValueError(msg)
    place = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    rows = (g * place).sum(axis=1)
    index = np.arange(1 << k, dtype=np.int64)
    words = np.zeros(1 << k, dtype=np.int64)
    for i, row in enumerate(rows):
        words ^= ((index >> (k - 1 - i)) & 1) * row
    return words


def word_bits(words, n: int) -> np.ndarray:
    """Expand codeword integers into an (S, n) array of 0/1 bits."""
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((np.asarray(words, dtype=np.int64)[..., None] >> shifts) & 1).astype(np.uint8)


def bits_to_int(bits) -> int:
    """Pack a 0/1 vector (position 0 first) into a codeword integer."""
    value = 0
    for bit in np.asarray(bits, dtype=np.int64):
        value = (value << 1) | int(bit)
    return value


def minimum_distance(words: np.ndarray) -> int:
    """Minimum Hamming weight over the nonzero codewords of a linear code."""
    weights = np.bitwise_count(words[words != 0])
    return int(weights.min())


def enumeration_mismatches(program_codewords, words, n: int) -> int:
    """Rows where the program's 1-based codewords differ from our enumeration."""
    program = np.asarray(program_codewords, dtype=np.int64) - 1
    place = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    if program.shape != (words.shape[0], n):
        return int(words.shape[0])
    return int(((program * place).sum(axis=1) != words).sum())


def perfect_code_fer(n: int, t: int, p: float) -> float:
    """Word error rate of bounded-distance (= ML) decoding of a perfect code on BSC(p)."""
    correct = sum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(t + 1))
    return 1.0 - correct


def fer_within(word_errors: int, trials: int, expected: float, sigmas: float = 5.0) -> bool:
    """Observed word error rate within ``sigmas`` binomial deviations of ``expected``."""
    if trials < 1:
        return False
    spread = math.sqrt(expected * (1.0 - expected) / trials)
    return abs(word_errors / trials - expected) <= sigmas * spread


def nearest_codewords(words: np.ndarray, received_bits) -> tuple[np.ndarray, np.ndarray]:
    """Hamming distance to every codeword and the 1-based indices at the minimum."""
    distances = np.bitwise_count(words ^ bits_to_int(received_bits))
    return distances, np.flatnonzero(distances == distances.min()) + 1


def bsc_ml_ok(words, received_bits, best: int, ties) -> bool:
    """On a BSC with p < 1/2, ML ties are exactly the nearest codewords."""
    _, nearest = nearest_codewords(words, received_bits)
    return tuple(int(j) for j in ties) == tuple(int(j) for j in nearest) and best == nearest[0]


def list_distances_ok(words, received_bits, listed) -> bool:
    """A BSC list holds codewords at the smallest distances, nearest first."""
    listed = [int(j) for j in listed]
    if len(set(listed)) != len(listed) or not listed:
        return False
    if min(listed) < 1 or max(listed) > words.shape[0]:
        return False
    distances, _ = nearest_codewords(words, received_bits)
    got = distances[np.asarray(listed) - 1]
    smallest = np.sort(distances)[: len(listed)]
    return bool((got == smallest).all())


def correlation_tolerance(received) -> float:
    """Slack for comparing two float64 correlation-type scores of one word."""
    y = np.asarray(received, dtype=np.float64)
    return 1e-9 * (float(np.abs(y).sum()) + y.shape[0])


def awgn_ml_ok(correlation, best: int, tol: float) -> bool:
    """With antipodal signalling ML maximizes the correlation X @ y."""
    top = int(np.argmax(correlation)) + 1
    if best == top:
        return True
    return 1 <= best <= correlation.shape[0] and correlation[best - 1] >= correlation[top - 1] - tol


def awgn_list_ok(correlation, listed, tol: float) -> bool:
    """The list is the top of the correlation ranking (index order breaks ties)."""
    listed = [int(j) for j in listed]
    size = len(listed)
    if not listed or len(set(listed)) != size or min(listed) < 1 or max(listed) > correlation.shape[0]:
        return False
    order = np.lexsort((np.arange(correlation.shape[0]), -correlation))[:size] + 1
    if listed == [int(j) for j in order]:
        return True
    got = correlation[np.asarray(listed) - 1]
    want = correlation[order - 1]
    return bool((np.abs(got - want) <= tol).all())


def erasure_consistent(words, values) -> np.ndarray:
    """1-based indices of codewords agreeing with every unerased position."""
    values = np.asarray(values, dtype=np.int64)
    mask = bits_to_int(values >= 0)
    received = bits_to_int(np.where(values >= 0, values, 0))
    return np.flatnonzero(((words ^ received) & mask) == 0) + 1


def erasure_ok(words, values, ties, dmin: int) -> bool:
    """Ties are the consistent codewords; unique when fewer than dmin positions are erased."""
    consistent = tuple(int(j) for j in erasure_consistent(words, values))
    got = tuple(int(j) for j in ties)
    erased = int((np.asarray(values) < 0).sum())
    return got == consistent and (erased >= dmin or len(got) == 1)


def isi_rows(bits: np.ndarray) -> np.ndarray:
    """Memory-1 tuple row of each position: 2 * current bit + previous bit.

    The current symbol is the most significant digit; the symbol before
    position 0 is symbol 1 (bit 0).
    """
    previous = np.concatenate([np.zeros((bits.shape[0], 1), dtype=np.int64), bits[:, :-1]], axis=1)
    return 2 * bits.astype(np.int64) + previous


def exact_isi_ties(log_table, rows: np.ndarray, received) -> tuple[int, ...]:
    """The ML tie set of a memory-1 channel, scored with correctly rounded sums.

    A float64 sum of n terms is within (n - 1) * u * sum|terms| of the
    exact sum, so every true maximizer scores within twice that bound of
    the largest float sum.  Only those candidates are re-scored with
    ``math.fsum``, whose result does not depend on the summation order.
    """
    y = np.asarray(received, dtype=np.int64) - 1
    terms = np.asarray(log_table, dtype=np.float64)[rows, y[None, :]]
    estimate = terms.sum(axis=1)
    n = rows.shape[1]
    slack = 2.0 * n * UNIT_ROUNDOFF * float(np.abs(terms).sum(axis=1).max())
    candidates = np.flatnonzero(estimate >= estimate.max() - slack)
    exact = np.array([math.fsum(terms[j]) for j in candidates])
    return tuple(int(j) + 1 for j in candidates[exact == exact.max()])


def isi_ok(exact_ties, best: int, fast_ties) -> bool:
    """Best index is an exact ML maximizer and no non-maximizer is reported as tied."""
    exact = set(exact_ties)
    return best in exact and set(int(j) for j in fast_ties) <= exact


def additions_per_product(rows: int, cols: int) -> int:
    """Additions of one block-factorized product: per block 2^h - 1 plus one per column."""
    height = min(30, max(1, int(math.floor(math.log2(cols)))))
    blocks = [height] * (rows // height) + ([rows % height] if rows % height else [])
    return sum((1 << h) - 1 + cols for h in blocks)


def addition_bound(rows: int, cols: int) -> float:
    """The paper's budget 4 m S / log2 S + 2 S + m."""
    return 4.0 * rows * cols / math.log2(cols) + 2.0 * cols + rows


def op_count_ok(counted: int, rows: int, cols: int) -> bool:
    """The program's addition tally equals our block count and respects the bound."""
    own = additions_per_product(rows, cols)
    return counted == own and counted <= addition_bound(rows, cols)


#: Percentiles a tail is reported at; a tail needs ten samples beyond it.
TAIL_PERCENTILES = (90.0, 99.0, 99.9)


def tail_latency(samples) -> tuple[float, float]:
    """The highest of ``TAIL_PERCENTILES`` with at least ten samples beyond it.

    Returns the order statistic at that percentile and the percentile.
    Fixed percentiles keep the tail comparable between runs whose sample
    counts differ a little.
    """
    ordered = sorted(samples)
    count = len(ordered)
    usable = [p for p in TAIL_PERCENTILES if count - math.ceil(count * p / 100.0) >= 10]
    if not usable:
        msg = f"a tail needs at least 100 samples, got {count}"
        raise ValueError(msg)
    percentile = usable[-1]
    return ordered[math.ceil(count * percentile / 100.0) - 1], percentile
