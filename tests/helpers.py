"""Shared fixtures-by-hand for the test suite."""

import tracemalloc
from types import SimpleNamespace

import numpy as np

from fastmld import (
    BinaryMatrix,
    Code,
    CodebookMatrix,
    DiscreteChannel,
    LinearCode,
    MailmanFactorization,
    OpCount,
    factorize,
    tuple_indices,
    vec_times_universal,
)
from fastmld.mailman import MailmanBlock, TupleFactorization, _block_heights, position_span

# Systematic [7,4] single-error-correcting generator.
HAMMING_G = np.array(
    [
        [1, 0, 0, 0, 1, 1, 0],
        [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 1],
    ]
)

REP3_G = np.array([[1, 1, 1]])

# Coefficients of the generator polynomial of the cyclic [23,12] Golay code.
GOLAY_POLYNOMIAL = (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)


def hamming_code() -> LinearCode:
    return LinearCode(q=2, n=7, k=4, generator=HAMMING_G)


def rep3_code() -> LinearCode:
    return LinearCode(q=2, n=3, k=1, generator=REP3_G)


def golay_code() -> LinearCode:
    """The perfect [23,12] Golay code: its generator rows are shifts of g(x)."""
    generator = np.zeros((12, 23), dtype=np.int64)
    for i in range(12):
        generator[i, i : i + 12] = GOLAY_POLYNOMIAL
    return LinearCode(q=2, n=23, k=12, generator=generator)


def toy_code() -> Code:
    """The four-codeword binary toy code used across the worked checks."""
    return Code(
        q=2,
        n=3,
        codewords=np.array([[1, 1, 2], [1, 2, 1], [2, 1, 1], [2, 2, 2]]),
    )


def toy_channel() -> DiscreteChannel:
    return DiscreteChannel.bsc(0.1)


def all_words(q: int, n: int) -> np.ndarray:
    """Every length-n word over symbols 1..q, one per row, ascending."""
    grids = np.meshgrid(*[np.arange(1, q + 1)] * n, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def random_code(rng, q: int, n: int, size: int) -> Code:
    """``size`` distinct random words of length n over symbols 1..q."""
    picks = rng.choice(q**n, size=size, replace=False)
    digits = picks[:, None] // q ** np.arange(n - 1, -1, -1) % q
    return Code(q=q, n=n, codewords=digits + 1)


def codewords_by_matmul(linear: LinearCode) -> np.ndarray:
    """Reference enumeration in int64: every message, in lexicographic order, times the generator."""
    q, k = linear.q, linear.k
    powers = q ** np.arange(k - 1, -1, -1, dtype=np.int64)
    messages = (np.arange(q**k, dtype=np.int64)[:, None] // powers) % q
    return (messages @ linear.generator) % q + 1


def wide_code(code: Code) -> SimpleNamespace:
    """The code with int64 codewords, as ``Code`` held them before it kept the narrowest type.

    It has what the decoders, the oracle and the simulation read of a code
    (q, n, size, codewords); ``Code`` itself would narrow the table again.
    """
    return SimpleNamespace(
        q=code.q, n=code.n, size=code.size, codewords=code.codewords.astype(np.int64)
    )


def reference_codebook(
    per_position: np.ndarray, block_size: int, memory: int = 0, initial: int = 1
) -> CodebookMatrix:
    """Codebook whose pattern indices are int64 bit weights times the dense bits.

    ``per_position`` and ``block_size`` are as for ``dense_codebook``; the
    blocks are ``patterns_by_matmul`` of that matrix.
    """
    dense = dense_codebook(per_position, block_size)
    blocks = tuple(MailmanBlock(*block) for block in patterns_by_matmul(dense))
    rows, cols = dense.shape
    return CodebookMatrix(
        factorization=MailmanFactorization(rows=rows, cols=cols, blocks=blocks),
        block_size=block_size,
        memory=memory,
        initial_symbol=initial,
    )


def tuple_row_blocks(code, memory: int, initial: int = 1) -> MailmanFactorization:
    """Row-block factorization of the one-hot tuple codebook: ``factorize`` on the tuple indices."""
    width = code.q ** (memory + 1)
    row_map = np.arange(code.n * width).reshape(code.n, width)
    return factorize(tuple_indices(code.q, memory, code.codewords, initial).T, row_map)


def bit_row_blocks(bits: np.ndarray) -> MailmanFactorization:
    """Row-block factorization of the bit layout of (n, S) 0/1 ``bits``: row i is set where bit i is 1."""
    n = len(bits)
    return factorize(bits, np.column_stack((np.full(n, -1), np.arange(n))))


def syndrome_words(r: int) -> SimpleNamespace:
    """Every r-bit word as a code: word j holds j's base-2 digits, most significant first, plus 1.

    It has what ``tuple_row_blocks`` and ``reference_tuple_codebook`` read of
    a code, and unlike ``Code`` it may have no positions (r = 0).  Its
    codewords minus 1, transposed, are the syndrome codebook's per-position bits.
    """
    bits = (np.arange(2**r)[:, None] >> np.arange(r - 1, -1, -1)) & 1
    return SimpleNamespace(q=2, n=r, size=2**r, codewords=bits + 1)


def reference_tuple_codebook(code, memory: int, initial: int = 1) -> CodebookMatrix:
    """Tuple codebook whose position-block indices are int64 digits times their place values.

    Block b's index of codeword c is the dot product of the 0-based symbols
    c_(lo-L) .. c_(hi-1) (the initial symbol before position 0) with
    q^0, q^1, ...; the blocks span ``position_span`` positions.
    """
    q, n = code.q, code.n
    span = position_span(q, memory, code.size)
    padded = np.concatenate(
        [np.full((code.size, memory), initial - 1), code.codewords.astype(np.int64) - 1], axis=1
    )
    patterns = [
        padded[:, lo : min(lo + span, n) + memory] @ q ** np.arange(min(span, n - lo) + memory)
        for lo in range(0, n, span)
    ]
    patterns = np.array(patterns, dtype=np.intp).reshape(-1, code.size)  # (0, S) with no positions
    return CodebookMatrix(
        factorization=TupleFactorization(q, memory, n, span, patterns),
        block_size=q ** (memory + 1),
        memory=memory,
        initial_symbol=initial,
    )


def incidence_vector(q: int, codeword: np.ndarray) -> np.ndarray:
    """Stacked one-hot encoding of a codeword: rows i*q + (c_i - 1) are 1."""
    word = np.asarray(codeword)
    out = np.zeros(word.shape[0] * q, dtype=np.uint8)
    out[np.arange(word.shape[0]) * q + (word - 1)] = 1
    return out


def dense_codebook(per_position: np.ndarray, block_size: int) -> np.ndarray:
    """Reference codebook as a dense 0/1 matrix.

    ``per_position[i, j]`` is column j's 0-based value at position i.  With
    ``block_size`` 1 the values are the bits themselves (the bit layout);
    otherwise value v at position i sets row i*block_size + v.
    """
    per_position = np.asarray(per_position)
    if block_size == 1:
        return per_position.astype(np.uint8)
    n, size = per_position.shape
    dense = np.zeros((n * block_size, size), dtype=np.uint8)
    dense[np.arange(n)[:, None] * block_size + per_position, np.arange(size)[None, :]] = 1
    return dense


def patterns_by_matmul(dense: np.ndarray) -> list[tuple[int, int, np.ndarray]]:
    """Reference (height, row offset, pattern indices) per row block: bit weights times the bits."""
    rows, cols = dense.shape
    blocks, offset = [], 0
    for height in _block_heights(rows, cols) if rows else []:
        weights = 1 << np.arange(height - 1, -1, -1, dtype=np.int64)
        blocks.append((height, offset, weights @ dense[offset : offset + height].astype(np.int64)))
        offset += height
    return blocks


def assert_factorization_of(fact, dense: np.ndarray) -> None:
    """``fact`` factorizes ``dense``: it equals the packed matrix's factorization and bit weights @ bits."""
    packed = factorize(BinaryMatrix.from_dense(dense))
    assert (fact.rows, fact.cols) == (packed.rows, packed.cols) == dense.shape
    expected = patterns_by_matmul(dense)
    assert len(fact.blocks) == len(packed.blocks) == len(expected)
    for got, via_bits, (height, offset, patterns) in zip(fact.blocks, packed.blocks, expected):
        assert (got.height, got.row_offset) == (via_bits.height, via_bits.row_offset) == (height, offset)
        assert got.correspondence.dtype == via_bits.correspondence.dtype == np.int64
        np.testing.assert_array_equal(got.correspondence, via_bits.correspondence)
        np.testing.assert_array_equal(got.correspondence, patterns)


def sample_categorical_by_table(log_rows: np.ndarray, row_index: np.ndarray, rng) -> np.ndarray:
    """Reference sampler: each draw against its row of a gathered ``(..., outputs)`` cumulative table."""
    cumulative = np.cumsum(np.exp(log_rows), axis=1)[row_index]
    draws = rng.random(row_index.shape + (1,))
    picks = (draws > cumulative).sum(axis=-1)
    return np.minimum(picks, log_rows.shape[1] - 1) + 1


def product_per_block(vector: np.ndarray, factorization, ops: OpCount | None = None) -> np.ndarray:
    """Reference single-vector product: each block tabulated on its own, gathers summed in block order.

    Every block makes its own ``vec_times_universal`` table of its segment
    and adds ``np.take`` of it into a zero-initialized sum.
    """
    out = np.zeros(factorization.cols)
    for block in factorization.blocks:
        table = vec_times_universal(vector[block.row_offset : block.row_offset + block.height])
        out += np.take(table, block.correspondence)
        if ops is not None:
            ops.additions += (1 << block.height) - 1 + factorization.cols
    return out


def peak_beyond_start(fn) -> int:
    """Bytes ``fn`` holds at its peak beyond what was traced at its start."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start
