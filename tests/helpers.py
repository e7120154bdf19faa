"""Shared fixtures-by-hand for the test suite."""

import numpy as np

from fastmld import Code, DiscreteChannel, LinearCode

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
