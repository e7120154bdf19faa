import math

import numpy as np
import pytest

import fastmld.mailman as mailman
from fastmld import (
    BinaryMatrix,
    CapacityExceeded,
    HeightOutOfRange,
    OpCount,
    addition_bound,
    build_codebook_matrix_isi,
    enumerate_codewords,
    factorize,
    op_count,
    vec_times_matrix,
    vec_times_matrix_naive,
    vec_times_universal,
)
from helpers import golay_code


def test_universal_product_height_one():
    out = vec_times_universal(np.array([5.0]))
    assert out.tolist() == [0.0, 5.0]


def test_universal_product_height_two():
    # First weight is the high-order bit of the column index.
    out = vec_times_universal(np.array([1.0, 2.0]))
    assert out.tolist() == [0.0, 2.0, 1.0, 3.0]


def test_universal_product_matches_explicit_matrix():
    rng = np.random.default_rng(0)
    for h in (1, 2, 3, 5, 8):
        w = rng.standard_normal(h)
        cols = np.arange(2**h)
        bits = (cols[None, :] >> np.arange(h - 1, -1, -1)[:, None]) & 1
        expected = w @ bits
        # The doubling recursion associates sums differently than matmul,
        # so agreement is to rounding, not bit-exact.
        np.testing.assert_allclose(vec_times_universal(w), expected, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("height", [0, 31, 40])
def test_universal_product_rejects_bad_heights(height):
    with pytest.raises(HeightOutOfRange):
        vec_times_universal(np.zeros(height))


def test_binary_matrix_round_trip():
    rng = np.random.default_rng(1)
    dense = (rng.random((13, 37)) < 0.4).astype(np.uint8)
    matrix = BinaryMatrix.from_dense(dense)
    assert matrix.rows == 13
    assert matrix.cols == 37
    np.testing.assert_array_equal(matrix.to_dense(), dense)
    assert matrix.count_ones() == int(dense.sum())


def test_binary_matrix_rejects_non_binary_entries():
    with pytest.raises(Exception):
        BinaryMatrix.from_dense(np.array([[0, 2], [1, 0]]))


def test_binary_matrix_capacity_cap(monkeypatch):
    monkeypatch.setattr(mailman, "MAX_MATRIX_BITS", 64)
    with pytest.raises(CapacityExceeded):
        BinaryMatrix.from_dense(np.zeros((9, 9), dtype=np.uint8))


def test_factorize_single_column():
    # One column: blocks one row high, two additions per row.
    dense = np.array([[1], [0], [1], [1]], dtype=np.uint8)
    fact = factorize(BinaryMatrix.from_dense(dense))
    assert [b.height for b in fact.blocks] == [1, 1, 1, 1]
    np.testing.assert_array_equal(fact.reconstruct().to_dense(), dense)
    ops = OpCount()
    vector = np.array([0.5, -2.0, 1.25, -np.inf])
    np.testing.assert_array_equal(vec_times_matrix(vector, fact, ops), [-np.inf])
    assert ops.additions == op_count(fact).additions == 8


def test_block_heights_follow_log2_of_columns():
    # 6 rows, 4 columns: three blocks of height 2.
    dense = np.zeros((6, 4), dtype=np.uint8)
    fact = factorize(BinaryMatrix.from_dense(dense))
    assert [blk.height for blk in fact.blocks] == [2, 2, 2]
    assert [blk.row_offset for blk in fact.blocks] == [0, 2, 4]
    # Remainder rows become one short block.
    dense = np.zeros((7, 8), dtype=np.uint8)
    fact = factorize(BinaryMatrix.from_dense(dense))
    assert [blk.height for blk in fact.blocks] == [3, 3, 1]


def test_block_height_is_capped():
    # Column counts beyond 2^30 would ask for blocks taller than the cap;
    # the planner clamps instead.
    assert mailman._block_heights(60, 2**40)[0] == mailman.MAX_BLOCK_HEIGHT


def test_toy_codebook_correspondences():
    """The worked 6x4 matrix splits into three height-2 blocks."""
    dense = np.array(
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
    fact = factorize(BinaryMatrix.from_dense(dense))
    assert fact.blocks[0].correspondence.tolist() == [2, 2, 1, 1]
    assert fact.blocks[1].correspondence.tolist() == [2, 1, 2, 1]
    assert fact.blocks[2].correspondence.tolist() == [1, 2, 2, 1]


def test_factorization_reconstructs_original():
    rng = np.random.default_rng(2)
    for _ in range(25):
        rows = int(rng.integers(1, 120))
        cols = int(rng.integers(2, 300))
        dense = (rng.random((rows, cols)) < rng.random()).astype(np.uint8)
        fact = factorize(BinaryMatrix.from_dense(dense))
        np.testing.assert_array_equal(fact.reconstruct().to_dense(), dense)


def test_fast_product_matches_naive():
    rng = np.random.default_rng(3)
    for _ in range(40):
        rows = int(rng.integers(1, 150))
        cols = int(rng.integers(2, 400))
        dense = (rng.random((rows, cols)) < 0.5).astype(np.uint8)
        matrix = BinaryMatrix.from_dense(dense)
        vector = rng.standard_normal(rows)
        fast = vec_times_matrix(vector, factorize(matrix))
        naive = vec_times_matrix_naive(vector, matrix)
        # atol covers entries that cancel to ~0, where no relative bound helps
        np.testing.assert_allclose(fast, naive, rtol=1e-12, atol=1e-12)


def test_fast_product_with_minus_infinity_entries():
    """-inf entries pass through the doubling tables and the gather unchanged."""
    rng = np.random.default_rng(4)
    for _ in range(20):
        rows = int(rng.integers(2, 60))
        cols = int(rng.integers(2, 100))
        dense = (rng.random((rows, cols)) < 0.5).astype(np.uint8)
        vector = rng.standard_normal(rows)
        hits = rng.random(rows) < 0.2
        vector[hits] = -np.inf
        fast = vec_times_matrix(vector, factorize(BinaryMatrix.from_dense(dense)))
        # Reference: -inf contributes only where the matrix bit is set.
        expected = np.where(dense.astype(bool), vector[:, None], 0.0).sum(axis=0)
        finite_fast = np.isfinite(fast)
        np.testing.assert_array_equal(finite_fast, np.isfinite(expected))
        np.testing.assert_allclose(fast[finite_fast], expected[finite_fast], rtol=1e-12, atol=1e-12)


def test_zero_weight_never_multiplies_minus_infinity():
    # A column with no set bits must score exactly 0 even when the whole
    # vector is -inf.
    dense = np.array([[1, 0], [1, 0]], dtype=np.uint8)
    vector = np.array([-np.inf, -np.inf])
    out = vec_times_matrix(vector, factorize(BinaryMatrix.from_dense(dense)))
    assert np.isneginf(out[0])
    assert out[1] == 0.0


def test_naive_product_zero_rows():
    matrix = BinaryMatrix.from_dense(np.zeros((0, 5), dtype=np.uint8))
    out = vec_times_matrix_naive(np.zeros(0), matrix)
    np.testing.assert_array_equal(out, np.zeros(5))


def test_op_count_instrumentation_matches_prediction():
    rng = np.random.default_rng(5)
    for _ in range(15):
        rows = int(rng.integers(1, 100))
        cols = int(rng.integers(2, 300))
        dense = (rng.random((rows, cols)) < 0.5).astype(np.uint8)
        fact = factorize(BinaryMatrix.from_dense(dense))
        ops = OpCount()
        vec_times_matrix(rng.standard_normal(rows), fact, ops)
        predicted = op_count(fact)
        assert ops.additions == predicted.additions
        assert ops.multiplications == predicted.multiplications == 0


def test_op_count_is_the_formula_and_each_call_a_fresh_tally():
    # Golay's memoryless one-hot codebook on position blocks: spans 8, 8, 7
    # add 2^(s+1) entries at steps s = 1..g-1, then two gathers add S each.
    code = enumerate_codewords(golay_code())
    tables = [sum(2 ** (s + 1) for s in range(1, g)) for g in (8, 8, 7)]
    by_positions = build_codebook_matrix_isi(code, 0).factorization
    dense = (np.random.default_rng(7).random((46, 300)) < 0.5).astype(np.uint8)
    by_rows = factorize(BinaryMatrix.from_dense(dense))
    heights = [block.height for block in by_rows.blocks]
    for fact, additions in (
        (by_positions, sum(tables) + 2 * code.size),
        (by_rows, sum((1 << h) - 1 + 300 for h in heights)),
    ):
        first = op_count(fact)
        assert first == OpCount(multiplications=0, additions=additions)
        first.merge(OpCount(multiplications=1, additions=5))
        first.additions += 1
        assert op_count(fact) == OpCount(multiplications=0, additions=additions)
        ops = OpCount()
        vec_times_matrix(np.ones(fact.rows), fact, ops)
        assert ops == OpCount(multiplications=0, additions=additions)


def test_addition_bound_holds():
    rng = np.random.default_rng(6)
    for _ in range(30):
        rows = int(rng.integers(4, 512))
        cols = int(rng.integers(4, 2048))
        dense = (rng.random((rows, cols)) < 0.5).astype(np.uint8)
        fact = factorize(BinaryMatrix.from_dense(dense))
        assert op_count(fact).additions <= addition_bound(rows, cols)


def test_addition_bound_formula():
    assert addition_bound(64, 4096) == 4.0 * 64 * 4096 / 12 + 2 * 4096 + 64


def test_naive_ops_count_set_bits():
    dense = np.array([[1, 0, 1], [1, 1, 0]], dtype=np.uint8)
    ops = OpCount()
    vec_times_matrix_naive(np.array([2.0, 3.0]), BinaryMatrix.from_dense(dense), ops)
    assert ops.total == 4


def test_op_counter_merge():
    a = OpCount(multiplications=2, additions=3)
    a.merge(OpCount(multiplications=5, additions=7))
    assert (a.multiplications, a.additions, a.total) == (7, 10, 17)


def test_universal_product_batch_is_column_wise():
    weights = np.array([[1.0, -np.inf], [2.0, 3.0]])
    out = vec_times_universal(weights)
    assert out.shape == (4, 2)
    for column in range(2):
        np.testing.assert_array_equal(out[:, column], vec_times_universal(weights[:, column]))
