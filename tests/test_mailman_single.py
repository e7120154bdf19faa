"""One vector's row blocks tabulated in one doubling sweep, against the per-block formula.

``mailman._product`` stacks a single vector's block segments as the rows
of one table and runs the doubling steps once for all of them, as many
rows per sweep as a ``_TILE_BYTES`` table holds.  Every table entry and
every sum must be formed as ``helpers.product_per_block`` forms it, so a
single product equals that formula and the vector's row of a batched
product bit for bit (signed zeros included), and tallies ``op_count``.
Kept apart from ``test_mailman.py`` because it needs ``hypothesis``.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fastmld.mailman as mailman
from fastmld import (
    BinaryMatrix,
    HeightOutOfRange,
    MailmanFactorization,
    OpCount,
    build_bipolar_codebook,
    build_codebook_matrix,
    build_codebook_matrix_isi,
    build_syndrome_matrix,
    enumerate_codewords,
    factorize,
    op_count,
    random_linear_code,
    vec_times_matrix,
    vec_times_universal,
)
from fastmld.mailman import MailmanBlock

from helpers import peak_beyond_start, product_per_block, random_code

LAYOUTS = ("one-hot", "isi", "bit", "syndrome", "dense")


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _factorization(layout: str, q: int, n: int, size: int, rng) -> MailmanFactorization:
    if layout == "dense":  # any shape: fewer rows than h, a short last block, whole blocks
        bits = rng.integers(0, 2, size=(rng.integers(1, 25), size), dtype=np.uint8)
        return factorize(BinaryMatrix.from_dense(bits))
    if layout == "syndrome":
        n = max(n, 2)
        linear = random_linear_code(2, n, int(rng.integers(max(1, n - 10), n)), int(rng.integers(99)))
        return build_syndrome_matrix(linear)[0].factorization
    q = 2 if layout == "bit" else q
    code = random_code(rng, q, n, min(size, q**n))
    if layout == "bit":
        return build_bipolar_codebook(code).factorization
    if layout == "isi":
        return build_codebook_matrix_isi(code, 1, int(rng.integers(1, q + 1))).factorization
    return build_codebook_matrix(code).factorization


def _vectors(rng, count: int, rows: int, special: float) -> np.ndarray:
    """Normal weights with a share of exact zeros, negative zeros and ``-inf``."""
    vectors = rng.standard_normal((count, rows))
    picks = rng.random(vectors.shape)
    vectors[picks < special] = -np.inf
    vectors[(picks >= special) & (picks < 2 * special)] = -0.0
    vectors[(picks >= 2 * special) & (picks < 3 * special)] = 0.0
    return vectors


@settings(max_examples=150, deadline=None)
@given(
    layout=st.sampled_from(LAYOUTS),
    q=st.integers(2, 3),
    n=st.integers(1, 10),
    size=st.one_of(st.integers(1, 3), st.integers(1, 4096)),
    special=st.sampled_from([0.0, 0.1, 0.3]),
    sweep_rows=st.sampled_from([None, 1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(layout="one-hot", q=2, n=1, size=1, special=0.0, sweep_rows=None, seed=0)  # S = 1
@example(layout="one-hot", q=3, n=1, size=3, special=0.0, sweep_rows=None, seed=0)  # S = 3, h = 1
@example(layout="one-hot", q=2, n=7, size=16, special=0.1, sweep_rows=None, seed=1)  # rows 4, 4, 4, 2
@example(layout="one-hot", q=2, n=6, size=64, special=0.1, sweep_rows=2, seed=2)  # rows 6 x 2
def test_single_product_equals_the_per_block_formula(layout, q, n, size, special, sweep_rows, seed):
    rng = np.random.default_rng(seed)
    fact = _factorization(layout, q, n, size, rng)
    vectors = _vectors(rng, 3, fact.rows, special)
    batched = vec_times_matrix(vectors, fact)
    widest = max(block.height for block in fact.blocks)
    sweeps = []

    def recorded(segments, table):
        sweeps.append((len(segments), table.nbytes))
        return tabulate(segments, table)

    tabulate = mailman._tabulate_rows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mailman, "_tabulate_rows", recorded)
        if sweep_rows is not None:
            patch.setattr(mailman, "_TILE_BYTES", 8 * (1 << widest) * sweep_rows)
        budget = mailman._TILE_BYTES
        for vector, row in zip(vectors, batched):
            ops, reference_ops = OpCount(), OpCount()
            single = vec_times_matrix(vector, fact, ops)
            assert _same_bits(single, product_per_block(vector, fact, reference_ops))
            assert _same_bits(single, row)
            assert ops == reference_ops == op_count(fact)
    # Blocks go as many to a sweep as the budget holds (one at least), and
    # no sweep's table outgrows the budget unless a single row does.
    per = max(1, budget // (8 << widest))
    count = len(fact.blocks)
    assert [rows for rows, _ in sweeps] == 3 * [min(per, count - b) for b in range(0, count, per)]
    assert all(nbytes <= max(budget, 8 << widest) for _, nbytes in sweeps)


@settings(max_examples=150, deadline=None)
@given(
    heights=st.lists(st.integers(1, 6), min_size=1, max_size=6),
    extra_rows=st.integers(0, 4),
    cols=st.integers(1, 40),
    fault=st.sampled_from([None, "above", "below"]),
    truncate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_hand_made_blocks_keep_the_per_block_results_and_errors(
    heights, extra_rows, cols, fault, truncate, seed
):
    # Blocks of any height in any order, overlapping or not, with indices
    # anywhere in [-2^height, 2^height) that take wraps; a fault puts one
    # index just outside.  A truncated block's segment runs past the last
    # row, or starts there and is refused as empty.  Errors must come from
    # the same block, with the same type and message.
    rng = np.random.default_rng(seed)
    rows = max(heights) + extra_rows
    blocks = []
    for height in heights:
        offset = int(rng.integers(0, rows + 1 if truncate else rows - height + 1))
        correspondence = rng.integers(-(1 << height), 1 << height, size=cols)
        blocks.append(MailmanBlock(height, offset, correspondence))
    if fault is not None:
        at = int(rng.integers(len(blocks)))
        bound = 1 << blocks[at].height
        blocks[at].correspondence[int(rng.integers(cols))] = bound if fault == "above" else -bound - 1
    fact = MailmanFactorization(rows=rows, cols=cols, blocks=tuple(blocks))
    vectors = _vectors(rng, 2, rows, 0.1)
    for vector in vectors:
        try:
            expected = product_per_block(vector, fact)
        except (IndexError, HeightOutOfRange) as error:
            with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
                vec_times_matrix(vector, fact)
            continue
        assert _same_bits(vec_times_matrix(vector, fact), expected)
    if not truncate:
        try:
            rows_alone = np.stack([product_per_block(v, fact) for v in vectors])
        except IndexError:
            with pytest.raises(IndexError):
                vec_times_matrix(vectors, fact)
        else:
            assert _same_bits(vec_times_matrix(vectors, fact), rows_alone)


def test_blocks_past_the_last_row_are_refused_as_before():
    past = MailmanBlock(2, 5, np.array([0, 1, 3]))
    fact = MailmanFactorization(rows=5, cols=3, blocks=(past,))
    for product in (product_per_block, vec_times_matrix):
        with pytest.raises(HeightOutOfRange, match="universal height 0 outside"):
            product(np.ones(5), fact)
    # An earlier block's bad index is refused first, as its gather comes
    # before the later block is tabulated.
    bad_index = MailmanBlock(2, 0, np.array([0, 4, 1]))
    fact = MailmanFactorization(rows=5, cols=3, blocks=(bad_index, past))
    for product in (product_per_block, vec_times_matrix):
        with pytest.raises(IndexError):
            product(np.ones(5), fact)


def test_a_correspondence_of_another_length_adds_in_as_before():
    # One index broadcasts over every column; three do not fit two.
    for correspondence, cols in (([3], 2), ([0, 1, 2], 2)):
        block = MailmanBlock(2, 0, np.array(correspondence))
        fact = MailmanFactorization(rows=2, cols=cols, blocks=(block,))
        try:
            expected = product_per_block(np.array([1.0, 2.0]), fact)
        except ValueError as error:
            with pytest.raises(ValueError, match=re.escape(str(error))):
                vec_times_matrix(np.array([1.0, 2.0]), fact)
        else:
            assert _same_bits(vec_times_matrix(np.array([1.0, 2.0]), fact), expected)


@settings(max_examples=100, deadline=None)
@given(
    heights=st.lists(st.integers(1, 9), min_size=1, max_size=5).map(lambda h: sorted(h, reverse=True)),
    seed=st.integers(0, 2**32 - 1),
)
@example(heights=[4, 4, 4, 2], seed=0)
def test_rows_leave_the_sweep_after_their_own_height(heights, seed):
    rng = np.random.default_rng(seed)
    segments = np.split(_vectors(rng, 1, sum(heights), 0.2)[0], np.cumsum(heights)[:-1])
    table = np.full((len(heights) + 1, 1 << heights[0]), np.nan)
    table[:, 0] = 0.0
    mailman._tabulate_rows(segments, table)
    for row, segment in zip(table, segments):
        assert _same_bits(row[: 1 << segment.size], vec_times_universal(segment))
        assert np.isnan(row[1 << segment.size :]).all()
    assert np.isnan(table[-1, 1:]).all()  # a row past the sweep's is not touched


def test_single_product_holds_at_most_one_tile_of_tables():
    # S = 2^16: five blocks of 16 rows, whose 512 KiB tables go two to a
    # 1 MiB sweep.  Beyond the 512 KiB result, the product holds that
    # table, one block's gather while it is added in, and small arrays;
    # tabulating all five blocks at once would hold 2.5 MiB of tables.
    code = enumerate_codewords(random_linear_code(2, 40, 16, 3))
    fact = build_codebook_matrix(code).factorization
    assert [block.height for block in fact.blocks] == [16] * 5
    vector = np.random.default_rng(76).standard_normal(fact.rows)
    vec_times_matrix(vector, fact)
    result = 8 * code.size
    peak = peak_beyond_start(lambda: vec_times_matrix(vector, fact))
    assert peak <= result + mailman._TILE_BYTES + result + 64 * 1024
