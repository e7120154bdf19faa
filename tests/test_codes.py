import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fastmld.codes as codes_mod
from fastmld import (
    CapacityExceeded,
    Code,
    DiscreteChannel,
    InvalidParams,
    IsiChannel,
    LinearCode,
    NonBinaryCode,
    RankDeficient,
    SymbolOutOfRange,
    build_bipolar_codebook,
    build_codebook_matrix,
    build_codebook_matrix_isi,
    coset_leaders,
    enumerate_codewords,
    parity_check_from_generator,
    random_linear_code,
    syndrome,
    tuple_indices,
)

from helpers import (
    HAMMING_G,
    assert_factorization_of,
    codewords_by_matmul,
    dense_codebook,
    golay_code,
    hamming_code,
    incidence_vector,
    random_code,
    rep3_code,
    toy_code,
    tuple_row_blocks,
)


def test_code_validation():
    with pytest.raises(InvalidParams):
        Code(q=1, n=3, codewords=np.array([[1, 1, 1]]))
    with pytest.raises(SymbolOutOfRange):
        Code(q=2, n=2, codewords=np.array([[1, 3]]))
    with pytest.raises(SymbolOutOfRange):
        Code(q=2, n=2, codewords=np.array([[0, 1]]))
    with pytest.raises(InvalidParams):
        Code(q=2, n=2, codewords=np.array([[1, 1], [1, 1]]))  # duplicate rows
    with pytest.raises(InvalidParams):
        Code(q=2, n=2, codewords=np.array([[1, 2], [2, 1], [1, 2]]))  # not adjacent
    # Rows that differ only in their last symbol are distinct.
    Code(q=3, n=3, codewords=np.array([[2, 1, 3], [2, 1, 1], [2, 1, 2]]))


def test_code_is_read_only():
    code = toy_code()
    with pytest.raises(ValueError):
        code.codewords[0, 0] = 2


def test_codeword_cap(monkeypatch):
    monkeypatch.setattr(codes_mod, "MAX_CODEWORDS", 8)
    with pytest.raises(CapacityExceeded):
        enumerate_codewords(LinearCode(q=2, n=4, k=4, generator=np.eye(4, dtype=np.int64)))


def test_linear_code_validation():
    with pytest.raises(InvalidParams):
        LinearCode(q=4, n=3, k=1, generator=np.array([[1, 1, 1]]))  # q must be prime
    with pytest.raises(RankDeficient):
        LinearCode(q=2, n=3, k=2, generator=np.array([[1, 1, 0], [1, 1, 0]]))
    with pytest.raises(SymbolOutOfRange):
        LinearCode(q=2, n=3, k=1, generator=np.array([[2, 1, 0]]))  # entries mod q


def test_enumerate_repetition_code():
    code = enumerate_codewords(rep3_code())
    assert code.size == 2
    np.testing.assert_array_equal(code.codewords, [[1, 1, 1], [2, 2, 2]])


def test_enumerate_hamming_code():
    code = enumerate_codewords(hamming_code())
    assert code.size == 16
    assert code.n == 7
    # Message order is the base-2 expansion of the row index, high bit first.
    np.testing.assert_array_equal(code.codewords[0] - 1, np.zeros(7))
    np.testing.assert_array_equal(code.codewords[1] - 1, np.array([0, 0, 0, 1, 1, 1, 1]))
    np.testing.assert_array_equal(code.codewords[8] - 1, HAMMING_G[0])
    # Linear: sum of two codewords is a codeword.
    rows = {tuple(word) for word in (code.codewords - 1).tolist()}
    a, b = code.codewords[3] - 1, code.codewords[13] - 1
    assert tuple((a + b) % 2) in rows


def test_enumerate_ternary_code():
    linear = LinearCode(q=3, n=3, k=2, generator=np.array([[1, 0, 2], [0, 1, 1]]))
    code = enumerate_codewords(linear)
    assert code.size == 9
    # c = m @ G mod 3 for m = (1, 2)
    np.testing.assert_array_equal(code.codewords[5] - 1, np.array([1, 2, 1]))


def test_random_linear_code_is_deterministic_and_full_rank():
    a = random_linear_code(2, 10, 5, seed=42)
    b = random_linear_code(2, 10, 5, seed=42)
    np.testing.assert_array_equal(a.generator, b.generator)
    assert codes_mod._rank_mod_q(a.generator, 2) == 5
    c = random_linear_code(3, 8, 4, seed=7)
    assert codes_mod._rank_mod_q(c.generator, 3) == 4


@pytest.mark.parametrize(
    "q,n,k,seed",
    [(2, 7, 4, 0), (2, 9, 1, 1), (2, 6, 6, 2), (2, 23, 12, 3), (3, 6, 1, 4), (3, 5, 5, 5),
     (3, 12, 7, 6), (5, 4, 1, 7), (5, 4, 4, 8), (5, 8, 4, 9), (7, 3, 2, 10)],
)
def test_enumeration_matches_the_matmul_reference(q, n, k, seed):
    linear = random_linear_code(q, n, k, seed)
    code = enumerate_codewords(linear)
    assert (code.q, code.n, code.size) == (q, n, q**k)
    assert code.codewords.dtype == np.min_scalar_type(q) and not code.codewords.flags.writeable
    np.testing.assert_array_equal(code.codewords, codewords_by_matmul(linear))


def _row_reduce_by_rows(matrix, q):
    """Reference: Gauss-Jordan elimination one row at a time."""
    m = matrix.astype(np.int64) % q
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if m[i, c] % q), None)
        if pivot is None:
            continue
        m[[r, pivot]] = m[[pivot, r]]
        m[r] = (m[r] * pow(int(m[r, c]), q - 2, q)) % q
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % q
        pivots.append(c)
        r += 1
    return m, pivots


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_row_reduction_matches_the_row_by_row_reference(q):
    rng = np.random.default_rng(q)
    for shape in ((4, 7), (7, 4), (6, 6), (1, 5), (5, 1), (10, 23), (23, 10)):
        for trial in range(12):
            matrix = rng.integers(0, q, size=shape)
            if trial % 3 == 1 and shape[0] > 1:
                # Rank-deficient: one row a combination of two others.
                matrix[-1] = (2 * matrix[0] + matrix[min(1, shape[0] - 1)]) % q
            if trial == 11:
                matrix[:] = 0
            rref, pivots = codes_mod._row_reduce_mod_q(matrix, q)
            expected_rref, expected_pivots = _row_reduce_by_rows(matrix, q)
            np.testing.assert_array_equal(rref, expected_rref)
            assert pivots == expected_pivots


def test_incidence_vector_stacks_one_hot_symbols():
    vec = incidence_vector(2, np.array([1, 1, 2]))
    np.testing.assert_array_equal(vec, [1, 0, 1, 0, 0, 1])
    vec = incidence_vector(3, np.array([2, 3]))
    np.testing.assert_array_equal(vec, [0, 1, 0, 0, 0, 1])


def test_codebook_matrix_toy_code():
    codebook = build_codebook_matrix(toy_code())
    assert (codebook.rows, codebook.cols) == (6, 4)
    expected = np.array(
        [
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [1, 0, 1, 0],
            [0, 1, 0, 1],
            [0, 1, 1, 0],
            [1, 0, 0, 1],
        ],
        dtype=np.uint8,
    )
    np.testing.assert_array_equal(codebook.matrix.to_dense(), expected)
    assert codebook.block_size == 2
    assert len(codebook.factorization.blocks) == 3


def test_codebook_columns_have_weight_n():
    code = enumerate_codewords(hamming_code())
    codebook = build_codebook_matrix(code)
    dense = codebook.matrix.to_dense()
    np.testing.assert_array_equal(dense.sum(axis=0), np.full(16, 7))


def test_tuple_indices_memoryless_degenerates_to_symbols():
    idx = tuple_indices(3, 0, np.array([2, 1, 3]))
    np.testing.assert_array_equal(idx, [1, 0, 2])


def test_tuple_indices_single_tap():
    # Current symbol is the high-order digit; boundary pads the initial
    # symbol (default 1, i.e. internal 0).
    idx = tuple_indices(2, 1, np.array([1, 2]))
    np.testing.assert_array_equal(idx, [0, 2])


def test_tuple_indices_two_taps():
    idx = tuple_indices(2, 2, np.array([2, 2]))
    np.testing.assert_array_equal(idx, [4, 6])


def test_tuple_indices_initial_symbol():
    idx = tuple_indices(2, 1, np.array([1, 2]), initial_symbol=2)
    np.testing.assert_array_equal(idx, [1, 2])


def test_tuple_indices_of_stacked_words_match_per_word_stack():
    rng = np.random.default_rng(12)
    for _ in range(20):
        q = int(rng.integers(2, 4))
        n = int(rng.integers(1, 7))
        code = random_code(rng, q, n, min(12, q**n))
        for memory in (0, 1, 2):
            initial = int(rng.integers(1, q + 1))
            per_word = np.stack([tuple_indices(q, memory, w, initial) for w in code.codewords])
            np.testing.assert_array_equal(tuple_indices(q, memory, code.codewords, initial), per_word)
            stacked = code.codewords.reshape(2, -1, n) if code.size % 2 == 0 else code.codewords[None]
            np.testing.assert_array_equal(
                tuple_indices(q, memory, stacked, initial), per_word.reshape(stacked.shape)
            )
            # Reference: each tuple's base-q digits times their place values.
            padded = np.concatenate([np.full((code.size, memory), initial - 1), code.codewords - 1], axis=1)
            windows = np.lib.stride_tricks.sliding_window_view(padded, memory + 1, axis=1)
            np.testing.assert_array_equal(per_word, windows @ q ** np.arange(memory + 1))
            codebook = build_codebook_matrix_isi(code, memory, initial)
            dense = dense_codebook(per_word.T, q ** (memory + 1))
            np.testing.assert_array_equal(codebook.matrix.to_dense(), dense)
            assert_factorization_of(tuple_row_blocks(code, memory, initial), dense)


def test_isi_codebook_columns():
    code = Code(q=2, n=2, codewords=np.array([[1, 2], [2, 2]]))
    codebook = build_codebook_matrix_isi(code, memory=1)
    assert (codebook.rows, codebook.cols) == (8, 2)
    dense = codebook.matrix.to_dense()
    # First codeword (bits 01): tuple indices 0 and 2 -> rows 0 and 6.
    np.testing.assert_array_equal(np.flatnonzero(dense[:, 0]), [0, 6])
    # Second codeword (bits 11): tuple indices 2 and 3 -> rows 2 and 7.
    np.testing.assert_array_equal(np.flatnonzero(dense[:, 1]), [2, 7])
    assert codebook.memory == 1
    assert codebook.block_size == 4


def test_bipolar_codebook():
    code = enumerate_codewords(rep3_code())
    codebook = build_bipolar_codebook(code)
    dense = codebook.matrix.to_dense()
    # The memoryless one-hot codebook: row 2i marks bit i = 0, row 2i+1 bit i = 1.
    np.testing.assert_array_equal(dense, [[1, 0], [0, 1], [1, 0], [0, 1], [1, 0], [0, 1]])
    assert (codebook.block_size, codebook.memory) == (2, 0)
    np.testing.assert_array_equal(
        codebook.factorization.patterns, build_codebook_matrix_isi(code, 0).factorization.patterns
    )
    with pytest.raises(NonBinaryCode):
        build_bipolar_codebook(Code(q=3, n=1, codewords=np.array([[1], [3]])))


@pytest.mark.parametrize("q,n,k,seed", [(2, 7, 4, 0), (2, 9, 3, 1), (3, 6, 3, 2), (5, 5, 2, 3)])
def test_parity_check_annihilates_generator(q, n, k, seed):
    linear = random_linear_code(q, n, k, seed)
    h = parity_check_from_generator(linear)
    assert h.shape == (n - k, n)
    np.testing.assert_array_equal((linear.generator @ h.T) % q, np.zeros((k, n - k)))


def test_syndrome_zero_exactly_on_codewords():
    linear = hamming_code()
    h = parity_check_from_generator(linear)
    code = enumerate_codewords(linear)
    members = {tuple(row) for row in (code.codewords - 1).tolist()}
    for value in range(2**7):
        bits = np.array([(value >> (6 - i)) & 1 for i in range(7)])
        s = syndrome(h, bits, 2)
        assert (not s.any()) == (tuple(bits.tolist()) in members)


def test_coset_leaders_repetition_code():
    leaders = coset_leaders(rep3_code())
    np.testing.assert_array_equal(
        leaders, [[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]]
    )


def test_coset_leaders_are_minimum_weight():
    linear = random_linear_code(2, 6, 3, seed=11)
    h = parity_check_from_generator(linear)
    leaders = coset_leaders(linear)
    assert leaders.shape == (8, 6)
    # Brute force: group all 64 words by syndrome, take the minimum weight.
    best = {}
    for value in range(64):
        word = np.array([(value >> (5 - i)) & 1 for i in range(6)])
        s = syndrome(h, word, 2)
        index = int(s @ (2 ** np.arange(len(s) - 1, -1, -1)))
        best[index] = min(best.get(index, 7), int(word.sum()))
    for index in range(8):
        assert int(leaders[index].sum()) == best[index]
        s = syndrome(h, leaders[index], 2)
        assert int(s @ (2 ** np.arange(len(s) - 1, -1, -1))) == index


def test_coset_leader_ties_break_lexicographically():
    # [2,1] repetition: syndrome of 01 and 10 under H=[1 1] are both 1;
    # the leader must be the lexicographically smaller 01.
    linear = LinearCode(q=2, n=2, k=1, generator=np.array([[1, 1]]))
    leaders = coset_leaders(linear)
    np.testing.assert_array_equal(leaders, [[0, 0], [0, 1]])


def _coset_leaders_by_scan(linear):
    """Reference: try error patterns one at a time, lowest weight and lexicographically first wins."""
    q, n, r = linear.q, linear.n, linear.n - linear.k
    h = parity_check_from_generator(linear)
    powers = q ** np.arange(r - 1, -1, -1, dtype=np.int64)
    leaders = np.zeros((q**r, n), dtype=np.int64)
    seen = set()
    for weight in range(n + 1):
        patterns = []
        for support in itertools.combinations(range(n), weight):
            for values in itertools.product(range(1, q), repeat=weight):
                word = [0] * n
                for pos, val in zip(support, values):
                    word[pos] = val
                patterns.append(tuple(word))
        for word in sorted(patterns):
            index = int(powers @ ((h @ np.array(word, dtype=np.int64)) % q))
            if index not in seen:
                seen.add(index)
                leaders[index] = word
                if len(seen) == q**r:
                    return leaders
    return leaders


@pytest.mark.parametrize(
    "linear",
    [
        hamming_code(),
        golay_code(),
        random_linear_code(2, 15, 7, seed=5),
        random_linear_code(2, 12, 12, seed=6),
        random_linear_code(3, 8, 4, seed=7),
        random_linear_code(5, 6, 3, seed=8),
        # Found by search: in the coset of syndrome 41 the two smallest
        # minimum-weight patterns, 12200 and 20021, share their first
        # nonzero position and differ in its value.
        LinearCode(q=3, n=5, k=1, generator=np.array([[2, 2, 2, 1, 2]])),
    ],
    ids=["hamming", "golay", "random-15-7", "full-12-12", "ternary-8-4", "q5-6-3", "ternary-5-1"],
)
def test_coset_leaders_match_the_pattern_by_pattern_scan(linear):
    leaders = coset_leaders(linear)
    np.testing.assert_array_equal(leaders, _coset_leaders_by_scan(linear))
    assert leaders.dtype == np.int64
    checks = parity_check_from_generator(linear)
    np.testing.assert_array_equal(coset_leaders(linear, checks), leaders)
    with pytest.raises(InvalidParams):
        coset_leaders(linear, checks[:, 1:])


@settings(max_examples=150, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5, 7]),
    n=st.integers(1, 12),
    redundancy=st.integers(0, 11),
    seed=st.integers(0, 2**32 - 1),
)
@example(q=2, n=12, redundancy=0, seed=1)
@example(q=3, n=7, redundancy=1, seed=2)
@example(q=5, n=5, redundancy=0, seed=3)
@example(q=7, n=4, redundancy=1, seed=4)
def test_coset_leaders_match_the_scan_on_random_codes(q, n, redundancy, seed):
    n = min(n, {2: 12, 3: 7, 5: 5, 7: 4}[q])  # q^n <= 4096 patterns to scan
    linear = random_linear_code(q, n, max(1, n - redundancy), seed)
    np.testing.assert_array_equal(coset_leaders(linear), _coset_leaders_by_scan(linear))


def test_coset_leaders_peak_memory_stays_under_the_dense_scan():
    # A dense scan, one (patterns, n) table per weight class sorted by
    # lexsort, peaked at 17.9 MiB of Python allocations on this code.
    linear = random_linear_code(2, 24, 10, seed=3)
    tracemalloc.start()
    try:
        coset_leaders(linear)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17.9 * 2**20


def test_integer_parameters_must_be_integers():
    words = np.array([[1, 2], [2, 1]])
    generator = np.array([[1, 1, 1]])
    logs, tuple_logs = np.log(np.full((2, 2), 0.5)), np.log(np.full((4, 2), 0.5))
    for build in (
        lambda: Code(q=2.5, n=2, codewords=words),
        lambda: Code(q=2, n=2.0, codewords=words),
        lambda: LinearCode(q=2.0, n=3, k=1, generator=generator),
        lambda: LinearCode(q=2, n=3, k=1.0, generator=generator),
        lambda: DiscreteChannel(q=2.0, output_alphabet_size=2, log_transition=logs),
        lambda: DiscreteChannel(q=2, output_alphabet_size=2.0, log_transition=logs),
        lambda: DiscreteChannel(2, 2, logs, initial_symbol=1.0),
        lambda: IsiChannel(q=2, output_alphabet_size=2, log_transition=tuple_logs, memory=1.0),
        lambda: IsiChannel.from_probabilities(2, 1.0, np.full((4, 2), 0.5)),
    ):
        with pytest.raises(InvalidParams):
            build()
    # numpy integers pass, stored as Python ints.
    code = Code(q=np.int64(2), n=np.uint8(2), codewords=words)
    linear = LinearCode(q=np.int32(2), n=np.int64(3), k=np.uint8(1), generator=generator)
    channel = IsiChannel(np.int64(2), np.int16(2), tuple_logs, np.uint8(1), np.int64(2))
    assert {type(v) for v in (code.q, code.n, linear.q, linear.n, linear.k)} == {int}
    fields = (channel.q, channel.output_alphabet_size, channel.memory, channel.initial_symbol)
    assert {type(v) for v in fields} == {int}
    assert channel.tuple_count == 4
