"""The benchmark's inputs: codes, channels and each workload's operation mix.

Codes are fixed; ``--seed`` drives only the received words (drawn here)
and the Monte Carlo seeds handed to the program.  Nothing in this module
imports fastmld.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from checks import isi_rows

#: Systematic generator of the [7,4] Hamming code.
HAMMING_GENERATOR = (
    (1, 0, 0, 0, 1, 1, 0),
    (0, 1, 0, 0, 1, 0, 1),
    (0, 0, 1, 0, 0, 1, 1),
    (0, 0, 0, 1, 1, 1, 1),
)

#: Coefficients of g(x) = 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11, constant first.
GOLAY_POLYNOMIAL = (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)

BSC_CROSSOVER = 0.05
BEC_ERASURE = 0.2
AWGN_SIGMA = 0.8

#: Binary memory-1 channel: row 2*current + previous (0-based bits, current
#: most significant), columns P(y = 1), P(y = 2).  The output tends to
#: repeat the current bit, less reliably right after a transition.
ISI_TABLE = ((0.95, 0.05), (0.8, 0.2), (0.2, 0.8), (0.05, 0.95))

#: Received words per run for the checks made after the timed window.
ERASURE_SAMPLE = 100
ISI_SAMPLE = 50
AWGN_SAMPLE = 50
AWGN_LIST_SIZE = 8


def golay_generator() -> np.ndarray:
    """Cyclic generator of the perfect [23,12] Golay code: shifts of g(x)."""
    gen = np.zeros((12, 23), dtype=np.int64)
    for i in range(12):
        gen[i, i : i + 12] = GOLAY_POLYNOMIAL
    return gen


@dataclass(frozen=True)
class McOp:
    """One ``run_monte_carlo`` call in each round.

    ``variant`` names the metric (``oracle`` is the ml variant with the
    oracle cross-check).
    """

    variant: str
    trials: int


@dataclass(frozen=True)
class Workload:
    name: str
    code: str
    list_size: int
    setups: int  # per round
    ml_words: int
    list_words: int
    mc: tuple[McOp, ...]


WORKLOADS = {
    w.name: w
    for w in (
        # S = 16: per-call overhead dominates and the kernel does almost no work.
        Workload(
            name="mc-hamming7-bsc",
            code="hamming",
            list_size=4,
            setups=20,
            ml_words=50,
            list_words=50,
            mc=(
                McOp("ml", 1000),
                McOp("oracle", 300),
                McOp("list", 300),
                McOp("erasure", 300),
                McOp("syndrome", 300),
                McOp("isi", 300),
            ),
        ),
        # S = 4096: every decoder variant and scoring structure on one perfect code.
        Workload(
            name="mc-golay23-mixed",
            code="golay",
            list_size=4,
            setups=4,
            ml_words=100,
            list_words=30,
            mc=(
                McOp("ml", 250),
                McOp("list", 50),
                McOp("erasure", 250),
                McOp("syndrome", 150),
                McOp("isi", 150),
                McOp("oracle", 10),
            ),
        ),
    )
}


def draw_codewords(rng, words: np.ndarray, n: int, count: int):
    """Uniform transmitted codewords: 0-based indices and their (count, n) bits."""
    tx = rng.integers(words.shape[0], size=count)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    bits = ((words[tx][:, None] >> shifts) & 1).astype(np.int64)
    return tx, bits


def bsc_words(rng, bits: np.ndarray, p: float = BSC_CROSSOVER) -> np.ndarray:
    """Received bits after independent flips with probability p."""
    return bits ^ (rng.random(bits.shape) < p)


def awgn_words(rng, bits: np.ndarray, sigma: float = AWGN_SIGMA) -> np.ndarray:
    """Bit 0 (symbol 1) sent as +1, bit 1 as -1, plus N(0, sigma^2) noise."""
    return 1.0 - 2.0 * bits + sigma * rng.standard_normal(bits.shape)


def erasure_words(rng, bits: np.ndarray, p: float = BEC_ERASURE) -> np.ndarray:
    """Received 0/1 values with each position erased (-1) with probability p."""
    return np.where(rng.random(bits.shape) < p, -1, bits)


def isi_words(rng, bits: np.ndarray) -> np.ndarray:
    """1-based outputs of the memory-1 channel ``ISI_TABLE``."""
    p_second = np.asarray(ISI_TABLE)[isi_rows(bits), 1]
    return 1 + (rng.random(bits.shape) < p_second)
