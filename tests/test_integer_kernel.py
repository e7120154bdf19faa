"""Integer vectors sum in the narrowest signed integer type that holds them.

``vec_times_matrix`` sums a vector of integer dtype in the narrowest of
int8, int16, int32 and int64 whose largest value is at least (entries a
column sums) x (largest |entry| in the call): ``positions`` entries on a
``TupleFactorization``, ``rows`` on row blocks.  The products must equal
the int64 dense product exactly, whatever the input type, for entries that
put that bound on either side of 127/128 and 32767/32768, single and
batched.  Erasure decoding takes this path and still returns float64
scores, equal bit for bit to the float64 product of the same vector.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fastmld import (
    ERASED,
    ErasureObservation,
    TupleFactorization,
    build_bipolar_codebook,
    build_codebook_matrix,
    build_codebook_matrix_isi,
    decoder,
    enumerate_codewords,
    erasure_decode,
    vec_times_matrix,
    vec_times_matrix_naive,
    vec_times_universal,
)

from helpers import golay_code, random_code, reference_tuple_codebook, syndrome_words

_INPUT_TYPES = (np.int8, np.int16, np.int64, np.uint8)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    same_form = a.dtype == b.dtype == np.float64 and a.shape == b.shape
    return same_form and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _rule(terms: int, vector: np.ndarray) -> np.dtype:
    """The narrowest signed type whose largest value is at least ``terms`` x the largest |entry|."""
    largest = int(np.abs(vector.astype(np.int64)).max()) if vector.size else 0
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if terms * largest <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.float64)


def _vector(rng, dtype, shape, largest: int) -> np.ndarray:
    """Entries of ``dtype`` within +-largest (0..largest unsigned), one of magnitude ``largest``."""
    info = np.iinfo(dtype)
    low, high = max(info.min, -largest), min(info.max, largest)
    vector = rng.integers(low, high + 1, size=shape).astype(dtype)
    # int8 holds -128 but not +128; otherwise either sign will do.
    extreme = low if high < largest or (low == -largest and rng.random() < 0.5) else high
    vector.flat[rng.integers(vector.size)] = extreme
    return vector


@settings(max_examples=150, deadline=None)
@given(
    layout=st.sampled_from(["tuple", "rows"]),
    q=st.integers(2, 3),
    memory=st.integers(0, 2),
    n=st.integers(1, 9),
    size=st.integers(1, 300),
    dtype=st.sampled_from(_INPUT_TYPES),
    target=st.sampled_from([127, 128, 32767, 32768]) | st.integers(1, 2**40),
    batch=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
# The bound lands exactly on each limit: terms x largest = 127, 128, 32767, 32768.
@example(layout="tuple", q=2, memory=0, n=1, size=2, dtype=np.int8, target=127, batch=3, seed=0)
@example(layout="tuple", q=2, memory=0, n=1, size=2, dtype=np.int8, target=128, batch=3, seed=0)
@example(layout="tuple", q=2, memory=0, n=1, size=2, dtype=np.uint8, target=127, batch=0, seed=1)
@example(layout="tuple", q=2, memory=0, n=7, size=100, dtype=np.int16, target=32767, batch=5, seed=2)
@example(layout="tuple", q=2, memory=1, n=8, size=200, dtype=np.int64, target=32768, batch=5, seed=3)
@example(layout="rows", q=2, memory=0, n=4, size=16, dtype=np.uint8, target=128, batch=4, seed=4)
@example(layout="rows", q=2, memory=0, n=4, size=16, dtype=np.int16, target=32768, batch=0, seed=5)
@example(layout="rows", q=2, memory=0, n=8, size=256, dtype=np.int8, target=127, batch=6, seed=6)
@example(layout="tuple", q=2, memory=0, n=12, size=4096, dtype=np.int8, target=127, batch=70, seed=7)  # 3 tiles
def test_integer_products_equal_the_int64_dense_product(layout, q, memory, n, size, dtype, target, batch, seed):
    rng = np.random.default_rng(seed)
    code = random_code(rng, q, n, min(size, q**n))
    if layout == "tuple":
        codebook = build_codebook_matrix_isi(code, memory, int(rng.integers(1, q + 1)))
        assert isinstance(codebook.factorization, TupleFactorization)
        terms = n
    else:
        codebook = build_codebook_matrix(code)
        terms = codebook.rows
    info = np.iinfo(dtype)
    largest = min(max(1, target // terms), max(info.max, -info.min))
    vector = _vector(rng, dtype, (batch, codebook.rows) if batch else (codebook.rows,), largest)
    dense = codebook.matrix.to_dense().astype(np.int64)
    expected = vector.astype(np.int64) @ dense

    product = vec_times_matrix(vector, codebook.factorization)
    assert product.dtype == _rule(terms, vector)
    np.testing.assert_array_equal(product, expected)
    naive = vec_times_matrix_naive(vector, codebook.matrix)
    assert naive.dtype == _rule(codebook.rows, vector)
    np.testing.assert_array_equal(naive, expected)
    # Each row alone gives the same values, in the type its own entries need.
    for row, single_vector in enumerate(vector if batch else ()):
        single = vec_times_matrix(single_vector, codebook.factorization)
        assert single.dtype == _rule(terms, single_vector)
        np.testing.assert_array_equal(single, product[row])


def test_integer_edges():
    # No rows: every score is an empty sum, in the narrowest type.
    empty = reference_tuple_codebook(syndrome_words(0), 0).factorization
    zeros = vec_times_matrix(np.zeros((3, 0), dtype=np.int64), empty)
    assert zeros.dtype == np.int8 and zeros.shape == (3, 1) and not zeros.any()
    # Past int64 the sum falls back to float64, as any non-integer vector does.
    code = random_code(np.random.default_rng(0), 2, 2, 4)
    codebook = build_codebook_matrix_isi(code, 0)
    huge = np.full(4, 2**62, dtype=np.int64)
    assert vec_times_matrix(huge, codebook.factorization).dtype == np.float64
    for vector in (np.ones(4, dtype=bool), np.ones(4, dtype=np.float32), [1.0, 0.0, 2.0, 0.0]):
        assert vec_times_matrix(vector, codebook.factorization).dtype == np.float64
    # vec_times_universal widens unsigned or too-narrow weights, and keeps a wider signed type.
    wide = vec_times_universal(np.array([100, 100], dtype=np.uint8))
    assert wide.dtype == np.int16
    np.testing.assert_array_equal(wide, [0, 100, 100, 200])
    assert vec_times_universal(np.array([1, 2], dtype=np.int64)).dtype == np.int64
    assert vec_times_universal(np.array([[1], [-2]], dtype=np.int8)).dtype == np.int8


def test_erasure_decode_takes_the_integer_path(monkeypatch):
    linear = golay_code()
    code = enumerate_codewords(linear)
    bipolar = build_bipolar_codebook(code)
    seen = []

    def recording(vector, factorization, ops=None):
        seen.append(np.asarray(vector))
        return vec_times_matrix(vector, factorization, ops=ops)

    monkeypatch.setattr(decoder, "vec_times_matrix", recording)
    rng = np.random.default_rng(25)
    bits = code.codewords[rng.integers(code.size, size=40)].astype(np.int64) - 1

    # The float64 product of the same vector is what the scores were before.
    values = np.where(rng.random(bits.shape) < 0.2, ERASED, bits)
    values[0] = ERASED
    batched = erasure_decode(bipolar, code, ErasureObservation(values=values))
    vector = seen.pop()
    assert vector.dtype.kind == "i"
    assert _same_bits(batched.scores, vec_times_matrix(vector.astype(np.float64), bipolar.factorization))
    assert batched.best_score.dtype == np.float64
    for row in range(4):
        single = erasure_decode(bipolar, code, ErasureObservation(values=values[row]))
        assert seen.pop().dtype.kind == "i"
        assert _same_bits(single.scores, batched.scores[row])
        assert single.ties == tuple((np.flatnonzero(batched.ties[row]) + 1).tolist())
        assert isinstance(single.best_score, float) and single.best_score == batched.best_score[row]
