"""Block codes and their binary codebook matrices.

A length-n code over the alphabet {1..q} is scored against a received word
through its codebook matrix: column j stacks, for every position, the
one-hot encoding of codeword j's symbol there, giving an (n*q) x S binary
matrix with exactly one 1 per position block.  The same construction over
symbol tuples (a sliding window of the current symbol plus L predecessors)
extends the matrix to channels with memory; at L = 0 over all binary
words of length n-k it scores syndromes, and over a binary code's own
codewords it scores erasures.  Every codebook is a ``CodebookMatrix``
with a factorization.

Codebooks are factorized straight from the codewords' symbols: the
memoryless codebook by row blocks, every other one (tuple, syndrome and
erasure codebooks) by blocks of consecutive positions whose indices are
the symbols' base-q digits.  The matrix itself is rebuilt only when read.

Symbols are 1-based at every public boundary; all internal index
arithmetic shifts to 0-based immediately on entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapacityExceeded,
    InvalidParams,
    NonBinaryCode,
    RankDeficient,
    SymbolOutOfRange,
)
from .mailman import (
    MAX_MATRIX_BITS,
    BinaryMatrix,
    MailmanFactorization,
    TupleFactorization,
    factorize,
    position_span,
)

#: Cap on the number of codewords an enumeration may materialize.
MAX_CODEWORDS = 2**24


@dataclass(frozen=True)
class Code:
    """S distinct codewords of n symbols in {1..q}, read-only in ``np.min_scalar_type(q)``."""

    q: int
    n: int
    codewords: np.ndarray = field(repr=False)

    def __post_init__(self, known_distinct: bool = False) -> None:
        if self.q < 2:
            msg = f"alphabet size q={self.q} must be at least 2"
            raise InvalidParams(msg)
        if self.n < 1:
            msg = f"block length n={self.n} must be at least 1"
            raise InvalidParams(msg)
        words = np.asarray(self.codewords)
        if words.ndim != 2 or words.shape[1] != self.n:
            msg = f"codewords must be a (S, {self.n}) array"
            raise InvalidParams(msg)
        if words.shape[0] < 1:
            msg = "a code needs at least one codeword"
            raise InvalidParams(msg)
        if words.shape[0] > MAX_CODEWORDS:
            msg = f"{words.shape[0]} codewords exceed the cap of {MAX_CODEWORDS}"
            raise CapacityExceeded(msg)
        words = validate_symbols(self.q, words, np.min_scalar_type(self.q))
        if not known_distinct:
            # Sorting on every column puts equal rows next to each other.
            ordered = words[np.lexsort(words.T)]
            if (ordered[1:] == ordered[:-1]).all(axis=1).any():
                msg = "codewords must be distinct"
                raise InvalidParams(msg)
        words.setflags(write=False)
        object.__setattr__(self, "codewords", words)

    @property
    def size(self) -> int:
        """Number of codewords S."""
        return int(self.codewords.shape[0])

    @classmethod
    def _distinct(cls, q: int, n: int, codewords: np.ndarray) -> "Code":
        """A code whose codewords are known to be distinct: every check but that one."""
        code = object.__new__(cls)
        code.__dict__.update(q=q, n=n, codewords=codewords)
        code.__post_init__(known_distinct=True)
        return code


@dataclass(frozen=True)
class LinearCode:
    """A [n, k] linear code over the prime field F_q, given by its generator.

    Generator entries are field elements 0..q-1 (not 1-based symbols); the
    rows must be linearly independent.
    """

    q: int
    n: int
    k: int
    generator: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not _is_prime(self.q):
            msg = f"q={self.q} is not prime; linear codes need a prime field"
            raise InvalidParams(msg)
        if not 1 <= self.k <= self.n:
            msg = f"need 1 <= k <= n, got k={self.k}, n={self.n}"
            raise InvalidParams(msg)
        gen = np.asarray(self.generator)
        if gen.shape != (self.k, self.n):
            msg = f"generator must be ({self.k}, {self.n}), got {gen.shape}"
            raise InvalidParams(msg)
        gen = whole_numbers(gen, 0, self.q - 1)
        if gen is None:
            msg = f"generator entries must lie in 0..{self.q - 1} and be whole numbers"
            raise SymbolOutOfRange(msg)
        if _rank_mod_q(gen, self.q) != self.k:
            msg = "generator rows are linearly dependent"
            raise RankDeficient(msg)
        gen.setflags(write=False)
        object.__setattr__(self, "generator", gen)


@dataclass(frozen=True)
class CodebookMatrix:
    """A code's binary scoring matrix, held as its block factorization.

    Column j holds codeword j.  ``block_size`` is the width of each
    position's one-hot block (q, or q^(L+1) when L memory taps are baked
    in) and the column sets one row per block.  The memoryless codebook of
    ``build_codebook_matrix`` holds a ``MailmanFactorization``, every other
    one (tuple, syndrome and erasure codebooks) a ``TupleFactorization``.
    ``rows`` and ``cols`` are the factorization's.
    """

    factorization: MailmanFactorization | TupleFactorization
    block_size: int
    memory: int = 0
    initial_symbol: int = 1

    @property
    def rows(self) -> int:
        return self.factorization.rows

    @property
    def cols(self) -> int:
        return self.factorization.cols

    @property
    def matrix(self) -> BinaryMatrix:
        """The packed matrix, rebuilt from the factorization on every read."""
        return self.factorization.reconstruct()


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    return all(q % d for d in range(2, int(q**0.5) + 1))


def _row_reduce_mod_q(matrix: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_q; returns (rref, pivot columns)."""
    m = matrix.astype(np.int64) % q
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        below = m[r:, c].tolist()
        if not any(below):
            continue
        pivot = r + next(i for i, value in enumerate(below) if value)
        m[[r, pivot]] = m[[pivot, r]]
        m[r] = (m[r] * pow(below[pivot - r], q - 2, q)) % q
        # Clear the column in every other row at once.
        factors = m[:, c].copy()
        factors[r] = 0
        m = (m - factors[:, None] * m[r]) % q
        pivots.append(c)
        r += 1
    return m, pivots


def _rank_mod_q(matrix: np.ndarray, q: int) -> int:
    return len(_row_reduce_mod_q(matrix, q)[1])


def validate_symbols(q: int, word: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Check 1-based symbols of a word ``(n,)`` or words ``(..., n)``: whole, in 1..q; as ``dtype``."""
    word = np.asarray(word)
    if word.ndim < 1:
        msg = "a word must hold its symbols along a last axis"
        raise InvalidParams(msg)
    cast = whole_numbers(word, 1, q, dtype)
    if cast is None:
        msg = f"symbols must lie in 1..{q} and be whole numbers"
        raise SymbolOutOfRange(msg)
    return cast


def whole_numbers(values: np.ndarray, low: int, high: int, dtype=np.int64) -> np.ndarray | None:
    """``values`` as ``dtype`` if each is a whole number in low..high, else None.

    In range a cast could change only a fraction, so integers are not tested further.
    """
    if values.size and not low <= values.min() <= values.max() <= high:
        return None
    cast = values if values.dtype == dtype else values.astype(dtype)
    return cast if values.dtype.kind in "biu" or (cast == values).all() else None


def enumerate_codewords(linear: LinearCode) -> Code:
    """All q^k codewords of a linear code, as 1-based symbols.

    Messages run in lexicographic order (first coordinate most
    significant), so codeword j encodes the base-q expansion of j.  From the
    last generator row up, each row g multiplies the table q-fold with no
    multiplication: block a is block a - 1 plus g (mod q).  A full-rank
    generator gives distinct codewords, so that check is skipped.
    """
    q, n, k = linear.q, linear.n, linear.k
    size = q**k
    if size > MAX_CODEWORDS:
        msg = f"q^k = {size} codewords exceed the cap of {MAX_CODEWORDS}"
        raise CapacityExceeded(msg)
    # Unsigned, and wide enough for a sum of two field elements, 2(q-1).
    words = np.zeros((size, n), dtype=np.min_scalar_type(2 * q - 2))
    s = 1
    for g in linear.generator[::-1].astype(words.dtype):
        for a in range(1, q):
            block = words[a * s : (a + 1) * s]
            np.add(words[(a - 1) * s : a * s], g, out=block)
            # Unsigned x - q wraps below zero, so min(x, x - q) = x mod q.
            np.minimum(block, block - q, out=block)
        s *= q
    words += 1
    return Code._distinct(q, n, words)


def random_linear_code(q: int, n: int, k: int, seed: int) -> LinearCode:
    """Draw generator rows uniformly until they are linearly independent."""
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        gen = rng.integers(0, q, size=(k, n), dtype=np.int64)
        if _rank_mod_q(gen, q) == k:
            return LinearCode(q=q, n=n, k=k, generator=gen)
    msg = f"no full-rank {k}x{n} generator over F_{q} found"
    raise InvalidParams(msg)


def tuple_indices(
    q: int, memory: int, codeword: np.ndarray, initial_symbol: int = 1
) -> np.ndarray:
    """Base-q index of each position's (current symbol, L predecessors) tuple.

    The current symbol is the most significant digit; positions before the
    start of the word read the initial symbol.  ``codeword`` is one word
    ``(n,)`` or words stacked along leading axes ``(..., n)``; the indices
    take the same shape.
    """
    _check_memory(q, memory, initial_symbol)
    # Checked in the narrow type, shifted straight into the int64 tuple digits.
    return _tuple_digits(q, memory, validate_symbols(q, codeword, np.min_scalar_type(q)), initial_symbol)


def _check_memory(q: int, memory: int, initial_symbol: int) -> None:
    if memory < 0:
        msg = f"memory must be >= 0, got {memory}"
        raise InvalidParams(msg)
    if not 1 <= initial_symbol <= q:
        msg = f"initial symbol {initial_symbol} must lie in 1..{q}"
        raise SymbolOutOfRange(msg)


def _tuple_digits(q: int, memory: int, word: np.ndarray, initial_symbol: int) -> np.ndarray:
    """``tuple_indices`` of symbols already checked, such as a ``Code``'s codewords."""
    padded = np.full(word.shape[:-1] + (memory + word.shape[-1],), initial_symbol - 1, dtype=np.int64)
    index = np.subtract(word, 1, out=padded[..., memory:])
    for lag in range(1, memory + 1):  # Horner, down to the oldest predecessor
        index = index * q + padded[..., memory - lag : padded.shape[-1] - lag]
    return index


def _check_cap(n: int, block_size: int, cols: int) -> None:
    if n * block_size * cols > MAX_MATRIX_BITS:
        msg = f"codebook of {n * block_size}x{cols} bits exceeds the cap of {MAX_MATRIX_BITS}"
        raise CapacityExceeded(msg)


def build_codebook_matrix(code: Code) -> CodebookMatrix:
    """Codebook matrix for memoryless scoring: (n*q) x S, one 1 per position, by row blocks.

    Symbol 1 + v at position i sets row i*q + v.
    """
    n, q = code.n, code.q
    _check_cap(n, q, code.size)
    row_map = np.full((n, 1 + q), -1)
    row_map[:, 1:] = np.arange(n * q).reshape(n, q)
    return CodebookMatrix(factorization=factorize(code.codewords.T, row_map), block_size=q)


def build_codebook_matrix_isi(
    code: Code, memory: int, initial_symbol: int = 1
) -> CodebookMatrix:
    """Codebook matrix over symbol tuples for channels with ``memory`` taps.

    It is factorized by position blocks (``TupleFactorization``), whose
    pattern indices are read by Horner's rule straight off the codewords,
    a digit for all blocks at a time.  ``memory`` 0 is the memoryless
    codebook in the same form.
    """
    _check_memory(code.q, memory, initial_symbol)
    return _tuple_codebook(code.q, memory, code.codewords.T, initial_symbol)


def _tuple_codebook(q: int, memory: int, symbols: np.ndarray, initial_symbol: int = 1) -> CodebookMatrix:
    """Position-block tuple codebook of 1-based ``(positions, S)`` symbols (no positions: no rows)."""
    n, cols = symbols.shape
    width = q ** (memory + 1)
    _check_cap(n, width, cols)
    span = position_span(q, memory, cols)
    blocks = -(-n // span)
    digits = memory + span
    # Block b's digit m is row b*span + m of the 1-based symbols, padded with
    # the initial symbol in front and symbol 1 (digit 0) past the end; the
    # sum of symbol * q^m exceeds the index by the sum of q^m.
    padded = np.ones((memory + blocks * span, cols), dtype=np.min_scalar_type(q * (q**digits - 1) // (q - 1)))
    padded[:memory] = initial_symbol
    padded[memory : memory + n] = symbols
    index = padded[digits - 1 :: span].copy()
    for m in range(digits - 2, -1, -1):
        index *= q
        index += padded[m :: span][:blocks]
    index -= (q**digits - 1) // (q - 1)
    return CodebookMatrix(
        factorization=TupleFactorization._built(q, memory, n, span, index.astype(np.intp)),
        block_size=width,
        memory=memory,
        initial_symbol=initial_symbol,
    )


def build_bipolar_codebook(code: Code) -> CodebookMatrix:
    """Erasure codebook of a binary code: its 2n x S one-hot codebook, by position blocks.

    The same matrix as ``build_codebook_matrix_isi(code, 0)``: row 2i marks
    the codewords whose bit i is 0, row 2i+1 those whose bit i is 1.
    ``erasure_decode`` scores position i of a +1/-1/0 bipolar word b as
    (-b_i, +b_i) against it.
    """
    if code.q != 2:
        msg = f"bipolar codebooks are defined for binary codes, got q={code.q}"
        raise NonBinaryCode(msg)
    return _tuple_codebook(2, 0, code.codewords.T)


def parity_check_from_generator(linear: LinearCode) -> np.ndarray:
    """An (n-k) x n parity-check matrix H with G @ H.T = 0 over F_q.

    Row-reduces the generator (permuting columns where pivots are missing),
    reads off the standard-form check matrix, and undoes the permutation.
    """
    q, n, k = linear.q, linear.n, linear.k
    rref, pivots = _row_reduce_mod_q(linear.generator, q)  # k pivots: LinearCode checked the rank
    others = [c for c in range(n) if c not in pivots]
    h = np.zeros((n - k, n), dtype=np.int64)
    h[:, pivots] = (-rref[:, others].T) % q
    h[:, others] = np.eye(n - k, dtype=np.int64)
    return h


def syndrome(parity_check: np.ndarray, word: np.ndarray, q: int) -> np.ndarray:
    """Syndrome H @ word over F_q; ``word`` holds field elements 0..q-1.

    A ``(B, n)`` batch of words gives ``(B, n-k)`` syndromes, one per row.
    """
    word = np.asarray(word)
    if word.ndim not in (1, 2) or word.shape[-1] != parity_check.shape[1]:
        msg = f"word length {word.shape} does not match H columns {parity_check.shape[1]}"
        raise InvalidParams(msg)
    word = whole_numbers(word, 0, q - 1)
    if word is None:
        msg = f"field elements must lie in 0..{q - 1} and be whole numbers"
        raise SymbolOutOfRange(msg)
    return (word @ parity_check.T) % q


def coset_leaders(linear: LinearCode, parity_check: np.ndarray | None = None) -> np.ndarray:
    """Minimum-weight error pattern for every syndrome, indexed by syndrome.

    Row j is the leader whose syndrome, read as a base-q integer (first
    syndrome coordinate most significant), equals j: the lexicographically
    smallest among the minimum-weight patterns of its coset.
    ``parity_check`` is the code's ``parity_check_from_generator``, for a
    caller that already has it.

    Weight classes are scanned in ascending weight, each grown from the
    leaders of the class below and already in ascending lexicographic
    order, with no sort.  A word with support s_1 < ... < s_w and values
    v_1..v_w sorts by (-s_1, v_1, -s_2, v_2, ...).  So when parents come in
    ascending order and each is followed by its children, one per later
    position taken in descending order and per nonzero value taken in
    ascending order, the children come in ascending order too, and
    ``np.unique``'s first occurrence of a syndrome not seen at a lower
    weight is that coset's leader.  Only leaders need children: a leader
    without its last nonzero symbol leads its own coset, since a lighter
    or smaller pattern there would, with that symbol added back, be a
    lighter or smaller pattern in the leader's coset.  A child's syndrome
    digits are its parent's plus one column of value * H, mod q, in the
    smallest unsigned type that holds 2(q - 1).
    """
    q, n, k = linear.q, linear.n, linear.k
    r = n - k
    count = q**r
    if count > MAX_CODEWORDS:
        msg = f"q^(n-k) = {count} cosets exceed the cap of {MAX_CODEWORDS}"
        raise CapacityExceeded(msg)
    h = parity_check_from_generator(linear) if parity_check is None else parity_check
    if h.shape != (r, n):
        msg = f"parity checks of shape {h.shape} do not match an [{n}, {k}] code"
        raise InvalidParams(msg)
    digit = np.min_scalar_type(2 * q - 2)
    powers = q ** np.arange(r - 1, -1, -1, dtype=np.min_scalar_type(count - 1))
    # Step s sets value 1 + s % (q - 1) at position n - 1 - s // (q - 1).
    positions, values = np.divmod(np.arange(n * (q - 1)), q - 1)
    positions = n - 1 - positions
    values += 1
    columns = (h[:, positions] * values % q).astype(digit)
    leaders = np.zeros((count, n), dtype=np.min_scalar_type(q - 1))
    seen = np.zeros(count, dtype=bool)
    # The one parent of weight 1 is the zero pattern, which leads the code.
    seen[0] = True
    parents = np.zeros(1, dtype=powers.dtype)
    last = np.array([-1])
    parent_digits = np.zeros((r, 1), dtype=digit)
    found = 1
    while found < count and parents.size:
        # A parent's children take the steps at positions after its last one.
        parent, step = np.nonzero(positions > last[:, None])
        digits = parent_digits[:, parent] + columns[:, step]
        # Unsigned x - q wraps below zero, so min(x, x - q) = x mod q.
        np.minimum(digits, digits - q, out=digits)
        keys = np.einsum("i,ic->c", powers, digits)
        syndromes, first = np.unique(keys, return_index=True)
        # Back in scan order, the new leaders are the next class's parents.
        fresh = np.sort(first[~seen[syndromes]])
        children, step = keys[fresh], step[fresh]
        last = positions[step]
        leaders[children] = leaders[parents[parent[fresh]]]
        leaders[children, last] = values[step]
        seen[children] = True
        found += fresh.size
        parents = children
        parent_digits = digits[:, fresh]
    return leaders.astype(np.int64)


def build_syndrome_matrix(
    linear: LinearCode, parity_check: np.ndarray | None = None
) -> tuple[CodebookMatrix, np.ndarray]:
    """Syndrome codebook and coset-leader table for a binary code.

    The codebook is the one-hot codebook, 2(n-k) x 2^(n-k), of all binary
    words of length n-k, column j holding the word with base-2 index j: row
    2i marks the words whose bit i is 0, row 2i+1 those whose bit i is 1,
    by position blocks as the tuple codebook at L = 0.  A received syndrome
    s scored s_i in row 2i and 1 - s_i in row 2i+1 gets, from the product,
    its Hamming distance to every coset's syndrome.  Returns the codebook
    and the leader table aligned to the same index.  ``parity_check`` is
    passed on to ``coset_leaders``.
    """
    if linear.q != 2:
        msg = f"syndrome decoding is defined for binary codes, got q={linear.q}"
        raise NonBinaryCode(msg)
    leaders = coset_leaders(linear, parity_check)
    r = linear.n - linear.k
    bits = (np.arange(2**r)[None, :] >> np.arange(r - 1, -1, -1)[:, None]) & 1
    return _tuple_codebook(2, 0, bits + 1), leaders
