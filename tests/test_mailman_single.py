"""One vector's row blocks tabulated in one doubling sweep, against the per-block formula.

``mailman._product`` stacks a single vector's block segments as the rows
of one table and runs the doubling steps once for all of them, as many
rows per sweep as a ``_TILE_BYTES`` table holds.  Every table entry and
every sum must be formed as ``helpers.product_per_block`` forms it, so a
single product equals that formula and the vector's row of a batched
product bit for bit (signed zeros included), and tallies ``op_count``.
The sweep checks no block, so the factorization contract is pinned here
too: what ``factorize`` builds passes the public constructor, and every
block it would not build is refused when the factorization is made.
Kept apart from ``test_mailman.py`` because it needs ``hypothesis``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fastmld.mailman as mailman
from fastmld import (
    BinaryMatrix,
    InvalidParams,
    MailmanFactorization,
    OpCount,
    build_codebook_matrix,
    enumerate_codewords,
    factorize,
    op_count,
    random_linear_code,
    vec_times_matrix,
    vec_times_universal,
)
from fastmld.mailman import MailmanBlock

from helpers import (
    bit_row_blocks,
    peak_beyond_start,
    product_per_block,
    random_code,
    syndrome_words,
    tuple_row_blocks,
)

LAYOUTS = ("one-hot", "isi", "bit", "syndrome", "dense")


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _factorization(layout: str, q: int, n: int, size: int, rng) -> MailmanFactorization:
    if layout == "dense":  # any shape: fewer rows than h, a short last block, whole blocks
        bits = rng.integers(0, 2, size=(rng.integers(1, 25), size), dtype=np.uint8)
        return factorize(BinaryMatrix.from_dense(bits))
    if layout == "syndrome":  # by row blocks, r = n - k in 1..10; syndrome decoding takes position blocks
        return tuple_row_blocks(syndrome_words(int(rng.integers(1, min(max(n, 2), 11)))), 0)
    q = 2 if layout == "bit" else q
    code = random_code(rng, q, n, min(size, q**n))
    if layout == "bit":  # one row per position, set by bit 1; erasure decoding takes position blocks
        return bit_row_blocks(code.codewords.T - 1)
    if layout == "isi":  # the tuple codebook by row blocks; ISI decoding takes position blocks
        return tuple_row_blocks(code, 1, int(rng.integers(1, q + 1)))
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


@settings(max_examples=60, deadline=None)
@given(
    layout=st.sampled_from(LAYOUTS),
    q=st.integers(2, 3),
    n=st.integers(1, 10),
    size=st.one_of(st.integers(1, 3), st.integers(1, 4096)),
    seed=st.integers(0, 2**32 - 1),
)
def test_factorize_builds_what_the_public_constructor_takes(layout, q, n, size, seed):
    rng = np.random.default_rng(seed)
    fact = _factorization(layout, q, n, size, rng)
    for block in fact.blocks:
        with pytest.raises(ValueError, match="read-only"):
            block.correspondence[0] = 0
    again = MailmanFactorization(fact.rows, fact.cols, fact.blocks)
    assert again == fact == dataclasses.replace(fact)
    vectors = _vectors(rng, 2, fact.rows, 0.1)
    assert _same_bits(vec_times_matrix(vectors[0], again), vec_times_matrix(vectors[0], fact))
    assert _same_bits(vec_times_matrix(vectors, again), vec_times_matrix(vectors, fact))


BREAKS = ("height", "offset", "missing", "rows", "float", "2-d", "short", "long", "-1", "2^h", "-2^h")


@settings(max_examples=150, deadline=None)
@given(
    layout=st.sampled_from(LAYOUTS),
    n=st.integers(1, 10),
    size=st.integers(1, 4096),
    fault=st.sampled_from(BREAKS),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocks_factorize_would_not_build_are_refused(layout, n, size, fault, seed):
    # Each fault breaks one block of a factorization ``factorize`` built;
    # the public constructor and ``dataclasses.replace`` must refuse it.
    rng = np.random.default_rng(seed)
    fact = _factorization(layout, 2, n, size, rng)
    blocks, rows = list(fact.blocks), fact.rows
    at = int(rng.integers(len(blocks)))
    block, index = blocks[at], blocks[at].correspondence.copy()
    column = int(rng.integers(fact.cols))
    if fault == "height":
        blocks[at] = dataclasses.replace(block, height=block.height + int(rng.choice([-1, 1])))
    elif fault == "offset":
        blocks[at] = dataclasses.replace(block, row_offset=block.row_offset + 1)
    elif fault == "missing":
        del blocks[at]
    elif fault == "rows":
        rows += 1
    elif fault == "float":
        blocks[at] = dataclasses.replace(block, correspondence=index.astype(np.float64))
    elif fault == "2-d":
        blocks[at] = dataclasses.replace(block, correspondence=index[None, :])
    elif fault in ("short", "long"):
        changed = index[:-1] if fault == "short" else np.append(index, 0)
        blocks[at] = dataclasses.replace(block, correspondence=changed)
    else:
        index[column] = {"-1": -1, "2^h": 1 << block.height, "-2^h": -(1 << block.height)}[fault]
        blocks[at] = dataclasses.replace(block, correspondence=index)
    with pytest.raises(InvalidParams):
        MailmanFactorization(rows, fact.cols, tuple(blocks))
    with pytest.raises(InvalidParams):
        dataclasses.replace(fact, rows=rows, blocks=tuple(blocks))


def test_a_factorization_needs_a_column_and_no_blocks_without_rows():
    with pytest.raises(InvalidParams):
        MailmanFactorization(0, 0, ())
    with pytest.raises(InvalidParams):
        MailmanFactorization(0, 3, (MailmanBlock(1, 0, np.array([0, 1, 0])),))
    empty = MailmanFactorization(0, 3, ())
    assert _same_bits(vec_times_matrix(np.zeros(0), empty), np.zeros(3))
    # The caller's pattern indices become read-only, as a code's codewords
    # do, but only once every block has passed.
    good, bad = np.array([0, 3, 1, 2]), np.array([0, 4, 0, 0])
    with pytest.raises(InvalidParams):
        MailmanFactorization(4, 4, (MailmanBlock(2, 0, good), MailmanBlock(2, 2, bad)))
    good[0], bad[1] = 1, 3  # both still writeable
    MailmanFactorization(4, 4, (MailmanBlock(2, 0, good), MailmanBlock(2, 2, bad)))
    for index in (good, bad):
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 0


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
