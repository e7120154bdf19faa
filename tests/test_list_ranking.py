"""Property tests: the list ranking is a prefix of the lexsort by (-score, index),
and the tie set holds every score within tolerance of its row's max.

The ranking tests cover the three ranking regimes of ``decoder._top``: the stable
sort up to ``_SORT_MAX_COLS`` scores a row and, beyond, the argmax passes
(L <= log2 S) and the O(S) partition, with exact ties and ``-inf`` forced
in.  Kept apart from ``test_decoder.py`` because it needs ``hypothesis``.
"""

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fastmld import decoder

CROSSOVER = decoder._SORT_MAX_COLS


@settings(max_examples=200, deadline=None)
@given(
    width=st.one_of(
        st.integers(1, 40),
        st.integers(CROSSOVER - 1, CROSSOVER + 1),
        st.integers(CROSSOVER + 2, 3 * CROSSOVER),
    ),
    batch=st.integers(0, 4),
    levels=st.sampled_from([1, 2, 3, 8, 4096]),
    inf_share=st.sampled_from([0.0, 0.2, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_ranking_is_the_lexsort_prefix(width, batch, levels, inf_share, seed, data):
    # batch 0 stands for one (S,) row.  Few levels force ties at every rank;
    # 0.0 and -0.0 are one level, as the sort treats them.
    rng = np.random.default_rng(seed)
    shape = (width,) if batch == 0 else (batch, width)
    values = np.concatenate(([0.0, -0.0], -rng.exponential(size=levels)))
    scores = values[rng.integers(values.size, size=shape)]
    scores[rng.random(shape) < inf_share] = -np.inf
    size = data.draw(st.integers(1, width), label="size")
    ranking = decoder._top(scores, size)
    expected = [np.lexsort((np.arange(width), -row))[:size] for row in scores.reshape(-1, width)]
    assert ranking.shape == shape[:-1] + (size,)
    assert np.array_equal(ranking.reshape(-1, size), np.stack(expected))


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(CROSSOVER + 1, 3 * CROSSOVER),
    batch=st.integers(0, 4),
    levels=st.sampled_from([1, 2, 3, 8]),
    inf_share=st.sampled_from([0.0, 0.2, 0.9, 1.0]),
    short_share=st.sampled_from([0.0, 0.5, 1.0]),
    crowded=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_short_lists_of_wide_rows_are_the_lexsort_prefix(
    width, batch, levels, inf_share, short_share, crowded, seed, data
):
    # L runs to floor(log2 S) + 1, so the argmax passes and the partition
    # both run.  A short row holds fewer finite scores than L: its passes
    # run out of finite scores and must not re-pick one they masked.  The
    # argmax of an all -inf row is index 0, so a crowded row holds its
    # finite scores at the first indices, where such a re-pick lands on a
    # masked finite score.
    size = data.draw(st.integers(1, int(math.log2(width)) + 1), label="size")
    rng = np.random.default_rng(seed)
    shape = (width,) if batch == 0 else (batch, width)
    values = np.concatenate(([0.0, -0.0], -rng.exponential(size=levels)))
    scores = values[rng.integers(values.size, size=shape)]
    scores[rng.random(shape) < inf_share] = -np.inf
    rows = scores.reshape(-1, width)
    for row in np.flatnonzero(rng.random(len(rows)) < short_share):
        count = rng.integers(size)
        finite = np.arange(count) if crowded else rng.choice(width, size=count, replace=False)
        rows[row, np.setdiff1d(np.arange(width), finite)] = -np.inf
    ranking = decoder._top(scores, size)
    expected = [np.lexsort((np.arange(width), -row))[:size] for row in rows]
    assert ranking.shape == shape[:-1] + (size,)
    assert np.array_equal(ranking.reshape(-1, size), np.stack(expected))
    for row, ranked in zip(rows, ranking.reshape(-1, size)):
        assert np.array_equal(decoder._top(row, size), ranked)


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 40),
    batch=st.integers(0, 4),
    levels=st.sampled_from([1, 2, 3, 8, 4096]),
    inf_share=st.sampled_from([0.0, 0.2, 0.9, 1.0]),
    tolerance=st.sampled_from([0.0, 1e-300, 0.25, 1.0, 1e300]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ties_are_marked_against_the_row_max(width, batch, levels, inf_share, tolerance, seed):
    # _tie_mask reads each row's max at its argmax; ties, the best index
    # (the first tie), the best score and implausible (an all -inf row)
    # must be what the max over the row gives.
    rng = np.random.default_rng(seed)
    shape = (width,) if batch == 0 else (batch, width)
    values = np.concatenate(([0.0, -0.0], -rng.exponential(size=levels)))
    scores = values[rng.integers(values.size, size=shape)]
    scores[rng.random(shape) < inf_share] = -np.inf
    top = scores.max(axis=-1, keepdims=True)
    expected = scores >= top - tolerance
    assert np.array_equal(decoder._tie_mask(scores, tolerance), expected)
    code = SimpleNamespace(codewords=np.arange(width)[:, None])
    result = decoder._finish(code, scores, tolerance)
    first = expected.argmax(axis=-1)
    assert np.array_equal(result.best_index, first + 1)
    assert np.array_equal(result.best_score, np.take_along_axis(scores, first[..., None], -1)[..., 0])
    assert np.array_equal(result.implausible, top[..., 0] == -np.inf)
    if batch == 0:
        assert result.ties == tuple(np.flatnonzero(expected) + 1)
        assert isinstance(result.implausible, bool) and isinstance(result.best_score, float)
    else:
        assert np.array_equal(result.ties, expected)
