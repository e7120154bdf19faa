"""A batched product equals the per-row products bit for bit, in one table or in tiles.

Kept apart from ``test_mailman.py`` because it needs ``hypothesis`` (the
``test`` extra), which the kernel's other tests do not.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fastmld.mailman as mailman
from fastmld import (
    OpCount,
    build_codebook_matrix,
    op_count,
    vec_times_matrix,
    vec_times_matrix_naive,
)

from helpers import random_code


@settings(max_examples=80, deadline=None)
@given(
    q=st.integers(2, 3),
    n=st.integers(1, 12),
    log2_size=st.integers(0, 12),
    batch=st.integers(1, 6),
    with_inf=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_product_equals_per_row_bitwise(q, n, log2_size, batch, with_inf, seed):
    rng = np.random.default_rng(seed)
    codebook = build_codebook_matrix(random_code(rng, q, n, min(2**log2_size, q**n)))
    vectors = rng.standard_normal((batch, codebook.rows))
    if with_inf:
        vectors[rng.random(vectors.shape) < 0.2] = -np.inf
    products = [(vec_times_matrix_naive, codebook.matrix)]
    if codebook.factorization is not None:
        products.append((vec_times_matrix, codebook.factorization))
    for product, operand in products:
        batch_ops, row_ops = OpCount(), OpCount()
        batched = product(vectors, operand, batch_ops)
        rows = np.stack([product(v, operand, row_ops) for v in vectors])
        assert batched.shape == (batch, codebook.cols)
        assert np.array_equal(batched, rows)
        assert batch_ops == row_ops
    if codebook.factorization is not None:
        assert batch_ops.additions == batch * op_count(codebook.factorization).additions


@pytest.mark.parametrize(
    "tile, widths", [(8, [8] * 5 + [5]), (3, [1] * 45), (20, [20, 20, 5])]
)
def test_tiled_batch_equals_per_row_bitwise(monkeypatch, tile, widths):
    # At S = 4096 each vector of a tile gathers 2^12 scores.  A budget of 3
    # such columns is too narrow to batch, so those vectors run one at a time.
    rng = np.random.default_rng(35)
    codebook = build_codebook_matrix(random_code(rng, 2, 14, 4096))
    vectors = rng.standard_normal((45, codebook.rows))
    vectors[rng.random(vectors.shape) < 0.05] = -np.inf
    row_ops = OpCount()
    rows = np.stack([vec_times_matrix(v, codebook.factorization, row_ops) for v in vectors])
    tiles = []
    monkeypatch.setattr(mailman, "_product", _recording(mailman._product, tiles))
    monkeypatch.setattr(mailman, "_TILE_BYTES", 8 * 2**12 * tile)
    batch_ops = OpCount()
    batched = vec_times_matrix(vectors, codebook.factorization, batch_ops)
    assert np.array_equal(batched, rows)
    assert batch_ops == row_ops
    assert tiles == widths


def _recording(product, tiles):
    def recorded(vector, factorization):
        tiles.append(1 if vector.ndim == 1 else vector.shape[0])
        return product(vector, factorization)

    return recorded
