"""Binary vector-matrix products via the Mailman decomposition.

A binary matrix with S columns is cut into row blocks of height
``h = max(1, floor(log2 S))``, so every matrix factorizes, a single column
included.  Inside one block every column is one of the 2^h possible bit
patterns, so the block equals ``U_h @ P`` where the universal matrix
``U_h`` holds all 2^h patterns as columns and ``P`` merely records which
pattern each column carries.  A row vector times the block therefore costs
one sweep that tabulates the vector against every pattern of ``U_h``
(2^h - 1 additions, by a doubling recursion) plus one table lookup per
column -- no multiplications at all.  Summed over ``ceil(m/h)`` blocks the
additions stay below ``4*m*S/log2(S) + 2*S + m`` for S >= 2, against
``m*S`` multiply-adds for the dense product.  Every block shares ``U_h``,
so one vector's segments are themselves a batch against it: they stack as
the rows of a ``(blocks, 2^h)`` table (as many as ``_TILE_BYTES`` holds)
and run the doubling steps once, a shorter last block leaving after its
own height; each block then gathers from the first 2^height of its row.

A one-hot codebook over (symbol, predecessors) tuples (the syndrome and
erasure codebooks are ones at L = 0) has a cheaper form, ``TupleFactorization``:
blocks of g consecutive positions, each indexed by the base-q digits of
the g symbols and the L before them, so its table holds only the q^(g+L)
patterns that can occur.  Its tables are built position by position,
every block's at once, and its gathers number ceil(n/g), as many as
memoryless decoding needs.

``factorize`` reads each column's pattern indices straight off the symbols
the column holds, so a codebook is never built as bits; ``reconstruct``
rebuilds them on demand.  ``vec_times_matrix`` is the one product every
decoder runs; ``vec_times_matrix_naive`` is the reference it is checked against.

Inputs may contain ``-inf`` (log of a zero probability).  The doubling
recursion and the column gather only ever add, and no input holds ``+inf``,
so ``-inf`` passes through exactly and no ``NaN`` can arise; a pattern that
leaves a ``-inf`` position unselected never touches it.

The products also take a batch: B vectors at once, stored as a ``(B, m)``
array.  Each block then tabulates all B segments against every pattern in
one ``(2^h, B)`` table (patterns along the first axis, so a column's gather
copies B contiguous values) -- the Four Russians idea applied to many
vectors.  Every vector goes through the same additions in the same order as
it would alone, so batched results equal the per-vector ones bit for bit.
Each product allocates what it needs per call: a tile's ``(2^h, B)``
table, its ``(S, B)`` sum and one ``(S, B)`` gather, each within
``_TILE_BYTES`` (1 MiB), and a fresh result.  Every product ends in one
gather-sum (``_gather_sum``) over its blocks' tables.  Importing the
module frees an untouched 16 MiB block; glibc then raises its mmap and
trim thresholds to 16 and 32 MiB, so those buffers, results and other
transients reuse resident memory rather than fault in fresh pages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapacityExceeded,
    DimensionMismatch,
    HeightOutOfRange,
    InvalidParams,
)

#: Largest supported universal-matrix height; 2^30 pattern sums is already
#: far past the point where the naive product would be cheaper.
MAX_BLOCK_HEIGHT = 30

#: Cap on rows*cols of a stored binary matrix (bits, not bytes).
MAX_MATRIX_BITS = 2**31

#: Bytes of one product tile's ``(S, B)`` gather, which bounds its ``(2^h, B)``
#: table; a wider batch runs in tiles.  ``simulate`` sizes its chunks by the
#: same 1 MiB of S scores, so a Monte Carlo chunk is one tile (32 vectors
#: at S = 4096).
_TILE_BYTES = 1 << 20

#: Narrowest tile worth batching.  A table only a few vectors wide runs
#: numpy's doubling and gathers in inner loops of that width: on a random
#: [40, 16] code (S = 2^16, where a tile holds 2 vectors), batches of 2, 4
#: and 8 cost 1.3-2.5 ms per row against 0.6-1.0 ms for single vectors.
_MIN_TILE = 8

# Column chunk budget (dense cells) used when unpacking big matrices.
_DENSE_CHUNK_CELLS = 1 << 26

#: Most entries of a ``TupleFactorization`` block's table, which sets how many
#: positions a block spans (``position_span``).  On Golay ISI (L = 1, B = 32)
#: tables of 2^6 to 2^10 entries ran within noise of each other, and 2^12
#: about 1.4x slower: fewer gathers stop paying once the tables leave L1.
_POSITION_TABLE = 1 << 8

# Positions x columns of one chunk in ``factorize`` (64-128 KiB of narrow
# gather index).  On Golay and random [40, 16..18] builds, 2^15 was 8-10%
# slower and 2^17 5-7% faster in warm loops, but no faster in cold set-ups
# between Monte Carlo calls.  Near the cap this is 2^14 chunks.
_INDEX_CELLS = 1 << 16


@dataclass
class OpCount:
    """Running tally of scalar-equivalent arithmetic.

    The kernels are vectorized, so counts are the scalar operations the
    algorithm defines, not numpy internals: every ``x += y`` on a length-k
    array tallies k additions, and masked sums tally one addition per
    selected entry.
    """

    multiplications: int = 0
    additions: int = 0

    @property
    def total(self) -> int:
        return self.multiplications + self.additions

    def merge(self, other: "OpCount") -> None:
        self.multiplications += other.multiplications
        self.additions += other.additions


@dataclass(frozen=True)
class BinaryMatrix:
    """Bit-packed 0/1 matrix; ``bits`` packs each column's rows MSB-first."""

    rows: int
    cols: int
    bits: np.ndarray = field(repr=False)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BinaryMatrix":
        dense = np.asarray(dense)
        if dense.ndim != 2:
            msg = f"expected a 2-d array, got ndim={dense.ndim}"
            raise InvalidParams(msg)
        rows, cols = dense.shape
        if cols < 1:
            msg = "a binary matrix needs at least one column"
            raise InvalidParams(msg)
        if rows * cols > MAX_MATRIX_BITS:
            msg = f"matrix of {rows}x{cols} bits exceeds the cap of {MAX_MATRIX_BITS}"
            raise CapacityExceeded(msg)
        if dense.size and not ((dense == 0) | (dense == 1)).all():
            msg = "matrix entries must be 0 or 1"
            raise InvalidParams(msg)
        packed = np.packbits(dense.astype(np.uint8, copy=False), axis=0)
        return cls(rows=rows, cols=cols, bits=packed)

    def to_dense(self) -> np.ndarray:
        if self.rows == 0:
            return np.zeros((0, self.cols), dtype=np.uint8)
        return np.unpackbits(self.bits, axis=0, count=self.rows)

    def count_ones(self) -> int:
        return int(self.to_dense().sum())


@dataclass(frozen=True)
class MailmanBlock:
    """One row block: its height, first row, and each column's pattern index.

    The pattern index of a column is the integer whose binary expansion
    (most-significant bit = first row of the block) equals the column's bits
    within the block.
    """

    height: int
    row_offset: int
    correspondence: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class MailmanFactorization:
    """Block decomposition of a binary matrix for the fast product.

    It takes only the blocks ``factorize`` makes, so the products check none
    (else ``InvalidParams``): heights ``_block_heights(rows, cols)``, block b
    at row b*h, and per column one pattern index in [0, 2^height), read-only.
    """

    rows: int
    cols: int
    blocks: tuple[MailmanBlock, ...]
    # Writeable views of the pattern indices: np.take copies a read-only index.
    _indices: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.cols < 1 or self.rows < 0:
            msg = f"a factorization needs rows >= 0 and cols >= 1, got {self.rows}x{self.cols}"
            raise InvalidParams(msg)
        heights = _block_heights(self.rows, self.cols)
        layout = [(height, b * heights[0]) for b, height in enumerate(heights)]
        if [(block.height, block.row_offset) for block in self.blocks] != layout:
            msg = f"a {self.rows}x{self.cols} factorization has blocks (height, offset) {layout}"
            raise InvalidParams(msg)
        for block in self.blocks:
            index = block.correspondence
            if not isinstance(index, np.ndarray) or index.dtype.kind not in "iu" or index.shape != (self.cols,):
                msg = f"each block's pattern indices must be a ({self.cols},) integer array"
                raise InvalidParams(msg)
            if not 0 <= index.min() <= index.max() < 1 << block.height:
                msg = f"pattern indices of a block of height {block.height} must lie in [0, 2^{block.height})"
                raise InvalidParams(msg)
        indices = tuple(block.correspondence for block in self.blocks)
        object.__setattr__(self, "_indices", tuple(i.view() if i.flags.writeable else i.copy() for i in indices))
        for index in indices:  # only once every block passed
            index.setflags(write=False)

    @classmethod
    def _built(cls, rows: int, cols: int, blocks: tuple, indices: tuple) -> "MailmanFactorization":
        """A factorization ``factorize`` built, whose construction already meets every check."""
        fact = object.__new__(cls)
        fact.__dict__.update(rows=rows, cols=cols, blocks=blocks, _indices=indices)
        return fact

    def reconstruct(self) -> BinaryMatrix:
        """Rebuild the exact matrix from the pattern indices."""
        dense = np.zeros((self.rows, self.cols), dtype=np.uint8)
        for block in self.blocks:
            shifts = np.arange(block.height - 1, -1, -1)[:, None]
            bits = (block.correspondence >> shifts) & 1
            dense[block.row_offset : block.row_offset + block.height] = bits
        return BinaryMatrix.from_dense(dense)


@dataclass(frozen=True)
class TupleFactorization:
    """Position blocks of the one-hot codebook over (symbol, predecessors) tuples.

    Row ``i*q^(L+1) + t`` of the codebook is set in column j when codeword
    j's tuple at position i is t (current symbol most significant, as in
    ``codes.tuple_indices``).  Block b covers the ``span`` positions from
    lo = b*span on (the last block fewer), and column j's index in it is
    the base-q number whose digit m (place q^m) is the 0-based symbol
    c_(lo-L+m), for m below L + span, reading the initial symbol before
    position 0.  So position lo + s reads its tuple from digits s..s+L of
    the index, and the block's table has q^(L+span) entries.  ``patterns``
    holds one row of indices per block, read-only (none with no positions).
    """

    q: int
    memory: int
    positions: int
    span: int
    patterns: np.ndarray = field(repr=False)
    # A writeable view of the patterns: np.take copies a read-only index.
    _index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.q < 2 or self.memory < 0 or self.positions < 0 or self.span < 1:
            msg = "a tuple factorization needs q >= 2, memory >= 0, positions >= 0 and span >= 1"
            raise InvalidParams(msg)
        index = self.patterns
        blocks = -(-self.positions // self.span)
        if not isinstance(index, np.ndarray) or index.dtype != np.intp or index.ndim != 2 or (
            index.shape[0] != blocks or index.shape[1] < 1
        ):
            msg = f"patterns must be a ({blocks}, S >= 1) array of intp"
            raise InvalidParams(msg)
        digits = self.memory + np.minimum(self.span, self.positions - self.span * np.arange(blocks))
        if (index.min(axis=1) < 0).any() or (index.max(axis=1) >= self.q ** digits).any():
            msg = "each block's pattern indices must lie below q^(L + its positions)"
            raise InvalidParams(msg)
        object.__setattr__(self, "_index", index if index.flags.writeable else index.copy())
        index.setflags(write=False)

    @classmethod
    def _built(cls, q: int, memory: int, positions: int, span: int, index: np.ndarray) -> "TupleFactorization":
        """A factorization whose ``index`` was built in range; it turns read-only here."""
        fact = object.__new__(cls)
        fact.__dict__.update(q=q, memory=memory, positions=positions, span=span, patterns=index.view(), _index=index)
        fact.patterns.setflags(write=False)
        return fact

    @property
    def rows(self) -> int:
        return self.positions * self.q ** (self.memory + 1)

    @property
    def cols(self) -> int:
        return int(self.patterns.shape[1])

    def reconstruct(self) -> BinaryMatrix:
        """Rebuild the one-hot tuple codebook from the pattern indices."""
        width = self.q ** (self.memory + 1)
        dense = np.zeros((self.positions, width, self.cols), dtype=np.uint8)
        for position in range(self.positions):
            block, step = divmod(position, self.span)
            dense[position, self.patterns[block] // self.q**step % width, np.arange(self.cols)] = 1
        return BinaryMatrix.from_dense(dense.reshape(self.rows, self.cols))


def position_span(q: int, memory: int, cols: int) -> int:
    """Positions per block of a ``TupleFactorization``: the most whose table fits.

    A block of g positions has q^(g+L) entries, at most ``_POSITION_TABLE``
    and at most S (as a row block's 2^h <= S), but g is at least 1.
    """
    entries = min(_POSITION_TABLE, cols)
    span = 1
    while q ** (memory + span + 1) <= entries:
        span += 1
    return span


def _block_heights(rows: int, cols: int) -> list[int]:
    h = max(1, int(math.floor(math.log2(cols))))
    h = min(h, MAX_BLOCK_HEIGHT)
    heights = [h] * (rows // h)
    if rows % h:
        heights.append(rows % h)
    return heights


def factorize(
    source: BinaryMatrix | np.ndarray, row_map: np.ndarray | None = None
) -> MailmanFactorization:
    """Split a binary matrix into row blocks and record each column's pattern.

    Column j holds value ``source[i, j]`` at position i, which sets row
    ``row_map[i, value]`` (none where -1); rows are numbered 0, 1, 2, ...
    in (position, value) order.  A ``BinaryMatrix`` is the bit layout of
    its own rows, unpacked a column chunk at a time.  Each block sums a
    gather of the bits its own positions' values set (a position that
    straddles a boundary adds its part to both blocks).  Below four
    columns blocks are one row high.
    """
    if isinstance(source, BinaryMatrix):
        cols = source.cols
        row_map = np.column_stack((np.full(source.rows, -1), np.arange(source.rows)))

        def columns(start: int, stop: int) -> np.ndarray:
            return np.unpackbits(source.bits[:, start:stop], axis=0, count=source.rows)
    else:
        symbols = np.asarray(source)
        row_map = np.asarray(() if row_map is None else row_map, dtype=np.int64)
        if symbols.ndim != 2 or row_map.ndim != 2 or len(row_map) != len(symbols) or (
            symbols.shape[1] < 1
            or symbols.size and not 0 <= symbols.min() <= symbols.max() < row_map.shape[1]
        ):
            msg = (
                f"need (n, S >= 1) symbols, each below the width of an (n, width) row map;"
                f" got {symbols.shape} and {row_map.shape}"
            )
            raise InvalidParams(msg)
        cols = symbols.shape[1]

        def columns(start: int, stop: int) -> np.ndarray:
            return symbols[:, start:stop]
    positions, width = row_map.shape
    layout = row_map.ravel().tolist()
    entry = [at for at, row in enumerate(layout) if row >= 0]  # row r is set by entry i*width + v
    if [row for row in layout if row >= 0] != list(range(len(entry))):
        msg = "the row map must number its rows 0, 1, 2, ... in (position, value) order"
        raise InvalidParams(msg)
    heights = _block_heights(len(entry), cols)
    h = heights[0] if heights else 1
    # Block b's rows lie in positions lo[b]..hi[b]-1.  Its table holds, for
    # each (i, v) there, the bit v sets in the pattern index (first row on
    # top), or 0 where that bit is another block's.  The tables sit back to
    # back in ``flat``; block b reads its own through a view that starts
    # width*lo[b] entries early, so entry i*width + v addresses it directly
    # (``pad`` keeps every start >= 0).
    lo, hi, starts, flat = [], [], [], []
    for b, height in enumerate(heights):
        block_entries = entry[b * h : b * h + height]
        lo.append(block_entries[0] // width)
        hi.append(block_entries[-1] // width + 1)
        starts.append(len(flat) - width * lo[b])
        table = [0] * (width * (hi[b] - lo[b]))
        for j, at in enumerate(block_entries, 1):
            table[at - width * lo[b]] = 1 << (height - j)
        flat += table
    pad = max(0, -min(starts, default=0))
    # Pattern indices (distinct bits below 2^h) and entry indices (below
    # positions * width) are summed in narrow unsigned integers.
    flat = np.array([0] * pad + flat, dtype=np.uint16 if h <= 16 else np.uint32)
    tables = [flat[pad + start :] for start in starts]
    offsets = np.arange(positions, dtype=np.min_scalar_type(positions * width))[:, None] * width
    step = max(1, _INDEX_CELLS // max(1, positions))  # bounds each chunk's temporaries
    patterns = np.empty((len(heights), cols), dtype=np.int64)
    for start in range(0, cols if heights else 0, step):
        index = np.add(columns(start, start + step), offsets)
        sums = np.empty((len(heights), index.shape[1]), dtype=flat.dtype)
        for b, table in enumerate(tables):
            np.add.reduce(table.take(index[lo[b] : hi[b]]), axis=0, out=sums[b])
        patterns[:, start : start + step] = sums
    indices = tuple(patterns)  # views made before the rows turn read-only stay writeable
    patterns.setflags(write=False)
    blocks = tuple(MailmanBlock(height, b * h, patterns[b]) for b, height in enumerate(heights))
    return MailmanFactorization._built(len(entry), cols, blocks, indices)


def vec_times_universal(weights: np.ndarray) -> np.ndarray:
    """Row vector(s) times the universal matrix of height ``h``.

    ``weights`` is one vector ``(h,)`` or B vectors stored column-wise,
    ``(h, B)``; the result is ``(2^h,)`` or ``(2^h, B)``.  Column j of the
    universal matrix is the binary expansion of j with the most-significant
    bit in the first row, so output[j] is the sum of the weights at j's set
    bits.  Built by doubling in place: 2^h - 1 additions per vector.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim not in (1, 2):
        msg = "weights must be an (h,) vector or an (h, B) batch"
        raise InvalidParams(msg)
    h = weights.shape[0]
    if not 1 <= h <= MAX_BLOCK_HEIGHT:
        msg = f"universal height {h} outside [1, {MAX_BLOCK_HEIGHT}]"
        raise HeightOutOfRange(msg)
    out = np.empty((1 << h,) + weights.shape[1:], dtype=np.float64)
    out[0] = 0.0
    size = 1
    for w in weights[::-1]:
        np.add(out[:size], w, out=out[size : 2 * size])
        size *= 2
    return out


def _tabulate_rows(segments: list, table: np.ndarray) -> None:
    """Row r of ``table`` starts with segment r times the universal matrix of its height.

    Segments come in non-increasing length, h = len(segments[0]), and
    column 0 of ``table`` holds 0.0.  Step j adds each row's j-th weight
    from the end to its first 2^j entries, so entry i of row r is formed
    as entry i of ``vec_times_universal(segments[r])``; a row leaves the
    sweep after its own height, and the rest of it is never written.
    """
    h = len(segments[0])
    weights = np.empty((len(segments), h))  # right-aligned: step j adds column h - 1 - j
    for row, segment in enumerate(segments):
        weights[row, h - len(segment) :] = segment
    rows, size = len(segments), 1
    for step in range(h):
        while len(segments[rows - 1]) <= step:
            rows -= 1
        np.add(table[:rows, :size], weights[:rows, h - 1 - step, None], out=table[:rows, size : 2 * size])
        size *= 2


def _check_vectors(vector: np.ndarray, rows: int) -> tuple[np.ndarray, int]:
    """The ``(m,)`` vector or ``(B, m)`` batch as float64, and its vector count."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.ndim not in (1, 2) or vector.shape[-1] != rows:
        msg = f"vector(s) of shape {vector.shape} do not match {rows} matrix rows"
        raise DimensionMismatch(msg)
    return vector, 1 if vector.ndim == 1 else vector.shape[0]


def vec_times_matrix(
    vector: np.ndarray,
    factorization: MailmanFactorization | TupleFactorization,
    ops: OpCount | None = None,
) -> np.ndarray:
    """Compute ``vector @ M`` from the factorization of M, without multiplying.

    ``vector`` is one row ``(m,)`` or a batch ``(B, m)``; the result is
    ``(S,)`` or ``(B, S)``.  Per block and vector: tabulate the segment
    against every pattern (2^h - 1 additions), then add each column's
    tabulated entry into the output (S additions).  A batch runs in tiles
    whose ``(S, tile)`` gather, and so their ``(2^h, tile)`` table
    (2^h <= S), fits ``_TILE_BYTES``, or one vector at a time where such a
    tile would be narrower than ``_MIN_TILE``.  A ``TupleFactorization``
    runs by position blocks (``_tuple_product``), in tiles whose two tables
    of every block's q^(g+L) entries per vector fit ``_TILE_BYTES`` too.
    """
    vector, count = _check_vectors(vector, factorization.rows)
    if ops is not None:
        ops.additions += count * op_count(factorization).additions
    if not vector.shape[-1]:  # no rows, so no blocks: every score is an empty sum
        return np.zeros(vector.shape[:-1] + (factorization.cols,))
    product, cells = _product, factorization.cols
    if isinstance(factorization, TupleFactorization):
        fact = factorization
        tables = 2 * fact.patterns.shape[0] * fact.q ** (fact.memory + fact.span)
        product, cells = _tuple_product, max(cells, tables)
    tile = _TILE_BYTES // (8 * cells)
    step = tile if tile >= _MIN_TILE else 1
    if count <= step:
        return product(vector, factorization)
    # A single vector's (S,) result stacks as one row of the batch.
    return np.vstack([
        product(vector[start] if step == 1 else vector[start : start + step], factorization)
        for start in range(0, count, step)
    ])


def _gather_sum(pairs) -> np.ndarray:
    """The sum over ``(table, index)`` pairs of each table gathered at its index.

    ``(size,)`` tables give ``(S,)``; ``(size, B)`` tables, one column per
    vector, give a fresh row-major ``(B, S)`` for per-row scans.  The first
    gather is the sum so far (0.0 + x == x, as no table entry is -0.0).  A
    ``(size, B)`` table is dropped before the next pair is drawn, so a
    generator of them holds one at a time.
    """
    pairs = iter(pairs)
    table, index = next(pairs)
    if table.ndim == 1:
        total = table.take(index)
        for table, index in pairs:
            total += table.take(index)
        return total
    total, gather = table.take(index, axis=0), None
    del table
    for table, index in pairs:
        # np.take copies whole rows, where fancy indexing of a narrow table runs
        # element by element.  Every index is in range; "raise" would copy ``out``.
        gather = np.take(table, index, axis=0, out=gather, mode="wrap")
        total += gather
        del table
    return total.T.copy()


def _tuple_product(vector: np.ndarray, factorization: TupleFactorization) -> np.ndarray:
    """``vec_times_matrix`` on one vector or one tile of a batch, by position blocks.

    Every block's table is built in one sweep over its positions, all
    blocks at once, alternating between two tables: step s appends
    position lo + s as the top digit, so entry d*q^(L+s) + i is entry i
    plus the vector's entry for tuple (d, top L digits of i).  A shorter
    last block leaves the sweep after its own positions.  Then each block
    gathers one entry per column into the sum.
    """
    q, memory, span = factorization.q, factorization.memory, factorization.span
    context = q**memory
    index = factorization._index
    blocks = index.shape[0]
    batch = vector.shape[:-1]
    last = factorization.positions - span * (blocks - 1)  # the last block's positions
    # Position p's entries as [p, current symbol, predecessors(, vector)].
    entries = np.ascontiguousarray(vector.T).reshape((factorization.positions, q, context) + batch)
    tables = np.empty((2, blocks, context * q**span) + batch)
    tables[0, :, : q * context] = entries[::span].reshape((blocks, q * context) + batch)
    for step in range(1, span):
        rows = blocks if step < last else blocks - 1
        width = context * q**step
        old = tables[(step - 1) % 2, :rows, :width].reshape((rows, 1, context, q**step) + batch)
        new = tables[step % 2, :rows, : q * width].reshape((rows, q, context, q**step) + batch)
        np.add(old, entries[step::span][:rows, :, :, None], out=new)
    final = [tables[(span - 1) % 2, b] for b in range(blocks - 1)] + [tables[(last - 1) % 2, blocks - 1]]
    return _gather_sum(zip(final, index))


def _product(vector: np.ndarray, factorization: MailmanFactorization) -> np.ndarray:
    """``vec_times_matrix`` on one vector or one tile of a batch."""
    blocks = factorization.blocks
    if vector.ndim == 2:
        # One column per vector, so tables and sums keep patterns on axis 0.
        return _gather_sum(
            (vec_times_universal(vector[:, block.row_offset : block.row_offset + block.height].T), index)
            for block, index in zip(blocks, factorization._indices)
        )
    return _gather_sum(_swept_rows(vector, factorization))


def _swept_rows(vector: np.ndarray, factorization: MailmanFactorization):
    """Each block's table, the first 2^height entries of its sweep row, and its pattern indices."""
    blocks = factorization.blocks
    per = max(1, _TILE_BYTES // (8 << blocks[0].height))  # rows of a table that fits _TILE_BYTES
    table = np.empty((min(per, len(blocks)), 1 << blocks[0].height))
    table[:, 0] = 0.0
    for start in range(0, len(blocks), per):
        sweep = blocks[start : start + per]
        _tabulate_rows([vector[block.row_offset : block.row_offset + block.height] for block in sweep], table)
        for row, block, index in zip(table, sweep, factorization._indices[start : start + per]):
            yield row[: 1 << block.height], index


# Raises glibc's malloc thresholds (module docstring); never written, so never resident.
np.empty(16 * _TILE_BYTES, dtype=np.uint8)


def vec_times_matrix_naive(
    vector: np.ndarray,
    matrix: BinaryMatrix,
    ops: OpCount | None = None,
) -> np.ndarray:
    """Reference product: per column, sum the vector entries at set bits.

    Takes one vector ``(m,)`` or a batch ``(B, m)`` like ``vec_times_matrix``.
    Zero-weight positions are skipped outright, so ``-inf`` entries there
    are never touched.  Tallies one addition per set bit and vector.
    """
    vector, count = _check_vectors(vector, matrix.rows)
    out = np.zeros(vector.shape[:-1] + (matrix.cols,), dtype=np.float64)
    if matrix.rows == 0:
        return out
    chunk = max(1, _DENSE_CHUNK_CELLS // (matrix.rows * max(1, count)))
    for start in range(0, matrix.cols, chunk):
        stop = min(start + chunk, matrix.cols)
        dense = np.unpackbits(matrix.bits[:, start:stop], axis=0, count=matrix.rows)
        mask = dense.astype(bool)
        out[..., start:stop] = np.where(mask, vector[..., :, None], 0.0).sum(axis=-2)
        if ops is not None:
            ops.additions += count * int(dense.sum())
    return out


def op_count(factorization: MailmanFactorization | TupleFactorization) -> OpCount:
    """Exact operation count of ``vec_times_matrix`` for one vector.

    A ``TupleFactorization`` block of g positions adds q^(L+s+1) table
    entries at each step s = 1..g-1 (step 0 copies the vector's entries),
    and every gather after the first adds S.
    """
    if isinstance(factorization, TupleFactorization):
        q, memory, span = factorization.q, factorization.memory, factorization.span
        blocks = factorization.patterns.shape[0]
        steps = [min(span, factorization.positions - span * b) for b in range(blocks)]
        additions = sum(q ** (memory + s + 1) for g in steps for s in range(1, g))
        return OpCount(multiplications=0, additions=additions + max(0, blocks - 1) * factorization.cols)
    additions = 0
    for block in factorization.blocks:
        additions += (1 << block.height) - 1 + factorization.cols
    return OpCount(multiplications=0, additions=additions)


def addition_bound(rows: int, cols: int) -> float:
    """Addition budget the fast product is guaranteed to stay under."""
    if cols < 2:
        msg = "the bound is defined for at least two columns"
        raise InvalidParams(msg)
    return 4.0 * rows * cols / math.log2(cols) + 2.0 * cols + rows
