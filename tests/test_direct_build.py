"""Codebooks factorized straight from symbols equal the dense construction.

Every ``build_*`` factorizes from the codewords' per-position symbols and
a row map, with no dense or packed matrix.  These tests rebuild each
layout densely (``helpers.dense_codebook``) and check that the direct
factorization has the same blocks, offsets and pattern indices as
factorizing that dense matrix, and as bit weights times its bits.  The
tuple, syndrome and erasure codebooks are position blocks: their patterns
are checked against int64 digits times place values, and their row
blocks, built in the test, against the dense matrix, as is the row-block
bit layout of a binary code (one row per position, set by bit 1).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fastmld.codes as codes_mod
import fastmld.mailman as mailman
from fastmld import (
    BinaryMatrix,
    CapacityExceeded,
    Code,
    DiscreteChannel,
    ErasureChannel,
    InvalidParams,
    IsiChannel,
    SimConfig,
    build_bipolar_codebook,
    build_codebook_matrix,
    build_codebook_matrix_isi,
    build_syndrome_matrix,
    enumerate_codewords,
    factorize,
    random_linear_code,
    run_monte_carlo,
    tuple_indices,
)

from helpers import (
    assert_factorization_of,
    bit_row_blocks,
    dense_codebook,
    hamming_code,
    random_code,
    reference_tuple_codebook,
    syndrome_words,
    tuple_row_blocks,
)


@settings(max_examples=150, deadline=None)
@given(
    layout=st.sampled_from(["one-hot", "isi", "bits", "syndrome"]),
    q=st.sampled_from([2, 3, 5]),
    n=st.integers(1, 8),
    size=st.integers(1, 80),
    memory=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
@example(layout="one-hot", q=2, n=3, size=1, memory=0, seed=1)
@example(layout="one-hot", q=3, n=4, size=2, memory=0, seed=2)
@example(layout="isi", q=2, n=5, size=3, memory=2, seed=3)
@example(layout="bits", q=2, n=6, size=3, memory=0, seed=4)
@example(layout="syndrome", q=2, n=4, size=1, memory=0, seed=5)
def test_direct_factorization_equals_the_dense_one(layout, q, n, size, memory, seed):
    rng = np.random.default_rng(seed)
    if layout == "syndrome":
        # Syndrome codebooks are binary; ``size`` picks n - k, so S = 2^(n-k).
        linear = random_linear_code(2, n, n - min(n - 1, size % 4), seed % 1000)
        codebook, _ = build_syndrome_matrix(linear)
        words, memory, initial = syndrome_words(linear.n - linear.k), 0, 1
    else:
        q = 2 if layout == "bits" else q
        words = code = random_code(rng, q, n, min(size, q**n))
        if layout == "one-hot":
            codebook = build_codebook_matrix(code)
            dense = dense_codebook(code.codewords.T - 1, q)
        elif layout == "isi":
            initial = int(rng.integers(1, q + 1))
            codebook = build_codebook_matrix_isi(code, memory, initial)
        else:
            codebook = build_bipolar_codebook(code)
            memory, initial = 0, 1
            bits = code.codewords.T - 1
            assert_factorization_of(bit_row_blocks(bits), dense_codebook(bits, 1))
    if layout in ("isi", "syndrome", "bits"):
        idx = tuple_indices(words.q, memory, words.codewords, initial).T
        dense = dense_codebook(idx, words.q ** (memory + 1))
        # Decoding takes position blocks; the row blocks are built here.
        assert_factorization_of(tuple_row_blocks(words, memory, initial), dense)
        reference = reference_tuple_codebook(words, memory, initial).factorization
        assert codebook.factorization.span == reference.span
        np.testing.assert_array_equal(codebook.factorization.patterns, reference.patterns)
    else:
        assert_factorization_of(codebook.factorization, dense)
    assert (codebook.rows, codebook.cols) == dense.shape
    np.testing.assert_array_equal(codebook.matrix.to_dense(), dense)


def test_last_block_can_start_inside_a_position():
    # q = 5 [8,4]: 40 rows and S = 625, so blocks are 9 rows high.  The
    # last block (rows 36..39) holds only the tail of position 7 (rows
    # 35..39), which started in the block before.
    code = enumerate_codewords(random_linear_code(5, 8, 4, seed=3))
    codebook = build_codebook_matrix(code)
    blocks = codebook.factorization.blocks
    assert [b.height for b in blocks] == [9, 9, 9, 9, 4]
    assert blocks[-1].row_offset == 36 and blocks[-1].row_offset % 5 != 0
    assert_factorization_of(codebook.factorization, dense_codebook(code.codewords.T - 1, 5))


def test_factorize_takes_symbols_and_a_row_map():
    # Position 0 holds value 0 or 1 and sets rows 0 or 1; position 1's
    # value 1 sets row 2 and its value 0 sets none.
    symbols = np.array([[0, 1, 1], [1, 0, 1]])
    row_map = np.array([[0, 1], [-1, 2]])
    fact = factorize(symbols, row_map)
    dense = np.array([[1, 0, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    assert_factorization_of(fact, dense)
    np.testing.assert_array_equal(fact.reconstruct().to_dense(), dense)
    # A packed matrix is the bit layout of its own rows; raw bits need a row map.
    assert_factorization_of(factorize(BinaryMatrix.from_dense(dense)), dense)
    for bad in (symbols[0], symbols[0, 0], symbols[:, :0], symbols + 1, symbols - 1):
        with pytest.raises(InvalidParams):
            factorize(bad, row_map)
    for bad_map in (None, row_map[:1], row_map[:, 0], [[1, 0], [-1, 2]], [[0, 2], [-1, 3]]):
        with pytest.raises(InvalidParams):
            factorize(symbols, bad_map)
    # Position 0 sets no row, so the first block's table starts at position 1.
    dense = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    assert_factorization_of(factorize(np.array([[0, 1], [1, 0]]), [[-1, -1], [0, 1]]), dense)


def test_a_long_code_with_few_codewords_factorizes_in_little_memory():
    # n = 2000, S = 2: row blocks are one row high, so there are as many
    # blocks as rows (4000 one-hot, 2000 in the bit layout).  Each block's
    # table covers only its own position, so the build stays far below
    # rows x blocks entries.  The erasure codebook takes one position per block.
    n = 2000
    code = Code(q=2, n=n, codewords=np.array([[1] * n, [2] * n]))
    tracemalloc.start()
    try:
        one_hot = build_codebook_matrix(code)
        bits = bit_row_blocks(code.codewords.T - 1)
        erasure = build_bipolar_codebook(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert len(one_hot.factorization.blocks) == 2 * n
    assert_factorization_of(one_hot.factorization, dense_codebook(code.codewords.T - 1, 2))
    assert_factorization_of(bits, dense_codebook(code.codewords.T - 1, 1))
    assert erasure.factorization.patterns.shape == (n, 2)
    np.testing.assert_array_equal(
        erasure.factorization.patterns, reference_tuple_codebook(code, 0).factorization.patterns
    )


def test_a_packed_matrix_is_unpacked_a_column_chunk_at_a_time(monkeypatch):
    rng = np.random.default_rng(7)
    dense = (rng.random((37, 300)) < 0.5).astype(np.uint8)
    matrix = BinaryMatrix.from_dense(dense)
    widths = []
    unpack = np.unpackbits

    def counting(bits, *args, **kwargs):
        widths.append(bits.shape[1])
        return unpack(bits, *args, **kwargs)

    monkeypatch.setattr(mailman, "_INDEX_CELLS", 37 * 64)
    monkeypatch.setattr(np, "unpackbits", counting)
    fact = factorize(matrix)
    assert widths == [64, 64, 64, 64, 44]
    monkeypatch.undo()
    assert_factorization_of(fact, dense)


@pytest.mark.parametrize(
    "build",
    [
        lambda code: build_codebook_matrix(code),
        lambda code: build_codebook_matrix_isi(code, 1),
        lambda code: build_bipolar_codebook(code),
        lambda code: build_syndrome_matrix(hamming_code()),
    ],
    ids=["one-hot", "isi", "bits", "syndrome"],
)
def test_capacity_cap_is_checked_before_factorizing(monkeypatch, build):
    def refuse(*args, **kwargs):
        raise AssertionError("factorized a codebook above the cap")

    code = enumerate_codewords(hamming_code())
    monkeypatch.setattr(codes_mod, "MAX_MATRIX_BITS", 40)
    monkeypatch.setattr(codes_mod, "factorize", refuse)
    with pytest.raises(CapacityExceeded):
        build(code)


def test_builds_and_simulations_never_make_a_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense or packed matrix was built")

    monkeypatch.setattr(mailman.BinaryMatrix, "from_dense", refuse)
    monkeypatch.setattr(np, "packbits", refuse)
    with pytest.raises(AssertionError):
        BinaryMatrix.from_dense(np.eye(2))
    linear = hamming_code()
    code = enumerate_codewords(linear)
    build_codebook_matrix(code)
    build_codebook_matrix_isi(code, 2, 2)
    build_bipolar_codebook(code)
    build_syndrome_matrix(linear)
    isi = IsiChannel.from_probabilities(2, 1, np.array([[0.9, 0.1], [0.7, 0.3], [0.2, 0.8], [0.1, 0.9]]))
    channels = {
        "ml": DiscreteChannel.bsc(0.1),
        "list": DiscreteChannel.bsc(0.1),
        "erasure": ErasureChannel(0.2),
        "syndrome": DiscreteChannel.bsc(0.1),
        "isi": isi,
    }
    for variant, channel in channels.items():
        config = SimConfig(
            code_source=linear, channel=channel, trials=40, seed=1, variant=variant,
            list_size=2, oracle_check=True,
        )
        assert run_monte_carlo(config).oracle_disagreements == 0
