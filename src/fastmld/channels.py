"""Channel models and their per-observation log-likelihood vectors.

Decoding needs, for a received word y, the length n*q vector whose block i
lists log P(y_i | x = 1..q).  Multiplying it by the codebook matrix yields
every codeword's log-likelihood at once, so everything a channel must
provide is that vector plus (for simulation) a sampler.

A ``DiscreteChannel`` with ``memory`` L > 0 prices y_i by the tuple of
c_i and the L symbols before it, so block i lists all q^(L+1) tuples.

Zero transition probabilities are legal and become -inf log entries; the
product kernels only ever add, and no log entry is +inf, so -inf is
propagated exactly and never multiplied.

Observations may come as a batch, one word per row of an ``(B, n)`` array;
the sampler then draws B words in one call and the likelihood vectors come
back as ``(B, n*q)`` rows, each equal to the vector of its word alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .codes import _check_memory, _integer_fields, tuple_indices, validate_symbols, whole_numbers
from .errors import InvalidParams, ObservationOutOfAlphabet

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

#: Marker for an erased position inside an ErasureObservation.
ERASED = -1


def _log_table(probabilities: np.ndarray) -> np.ndarray:
    """Log of a 2-d transition table; the channel checks its shape and its row sums."""
    table = np.asarray(probabilities, dtype=np.float64)
    if table.ndim != 2:
        msg = "transition table must be 2-d"
        raise InvalidParams(msg)
    if np.isnan(table).any() or (table < 0).any():
        msg = "transition probabilities must be non-negative and not NaN"
        raise InvalidParams(msg)
    with np.errstate(divide="ignore"):
        return np.log(table)


def _checked_log_transition(log_transition, rows: int, cols: int) -> np.ndarray:
    """A read-only copy of a ``(rows, cols)`` table of log P(y|x), each row exponentiating to 1."""
    table = np.array(log_transition, dtype=np.float64)
    if table.shape != (rows, cols):
        msg = f"log_transition must be ({rows}, {cols}), got {table.shape}"
        raise InvalidParams(msg)
    if np.isnan(table).any() or (table == np.inf).any():
        msg = "log probabilities must be real or -inf"
        raise InvalidParams(msg)
    if not np.allclose(np.exp(table).sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
        msg = "each transition row's probabilities must sum to 1 within 1e-9"
        raise InvalidParams(msg)
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class DiscreteChannel:
    """Channel over finite alphabets with ``memory`` L >= 0, stored as log P(y | x).

    ``log_transition`` has one row per (current symbol, L predecessors)
    tuple, indexed base-q with the current symbol most significant, and
    rows exponentiate to probability 1.  Positions before the first symbol
    read ``initial_symbol``.  At memory 0, the default,
    ``log_transition[s - 1, y - 1]`` is the log-probability of receiving y
    when symbol s was sent, and the initial symbol is never read.
    """

    q: int
    output_alphabet_size: int
    log_transition: np.ndarray = field(repr=False)
    memory: int = 0
    initial_symbol: int = 1

    def __post_init__(self) -> None:
        _integer_fields(self, "q", "output_alphabet_size", "memory", "initial_symbol")
        if self.q < 2 or self.output_alphabet_size < 1:
            msg = "need q >= 2 input symbols and at least one output symbol"
            raise InvalidParams(msg)
        _check_memory(self.q, self.memory, self.initial_symbol)
        table = _checked_log_transition(self.log_transition, self.tuple_count, self.output_alphabet_size)
        object.__setattr__(self, "log_transition", table)

    @property
    def tuple_count(self) -> int:
        """Rows of the table: q^(L+1) symbol tuples."""
        return self.q ** (self.memory + 1)

    @cached_property
    def log_magnitude(self) -> float:
        """Largest magnitude of a finite log table entry (0.0 if none): no likelihood entry exceeds it."""
        finite = self.log_transition[np.isfinite(self.log_transition)]
        return float(np.abs(finite).max()) if finite.size else 0.0

    @classmethod
    def from_probabilities(cls, probabilities: np.ndarray) -> "DiscreteChannel":
        logs = _log_table(probabilities)
        return cls(*logs.shape, logs)

    @staticmethod
    def bsc(crossover: float) -> "DiscreteChannel":
        """Binary symmetric channel with flip probability ``crossover``."""
        if not 0.0 <= crossover <= 1.0:
            msg = f"crossover probability {crossover} outside [0, 1]"
            raise InvalidParams(msg)
        p = float(crossover)
        return DiscreteChannel.from_probabilities([[1.0 - p, p], [p, 1.0 - p]])

    @staticmethod
    def symmetric(q: int, error: float) -> "DiscreteChannel":
        """q-ary symmetric channel: wrong symbols share probability ``error``."""
        if q < 2:
            msg = f"q={q} must be at least 2"
            raise InvalidParams(msg)
        if not 0.0 <= error <= 1.0:
            msg = f"error probability {error} outside [0, 1]"
            raise InvalidParams(msg)
        table = np.full((q, q), error / (q - 1), dtype=np.float64)
        np.fill_diagonal(table, 1.0 - error)
        return DiscreteChannel.from_probabilities(table)


@dataclass(frozen=True)
class IsiChannel(DiscreteChannel):
    """A ``DiscreteChannel`` built from its tuple table with the memory named up front."""

    @classmethod
    def from_probabilities(
        cls, q: int, memory: int, probabilities: np.ndarray, initial_symbol: int = 1
    ) -> "IsiChannel":
        logs = _log_table(probabilities)
        return cls(q, logs.shape[1], logs, memory, initial_symbol)


@dataclass(frozen=True)
class ContinuousChannel:
    """Additive white Gaussian noise around a real constellation point.

    Symbol s is transmitted as ``constellation[s - 1]`` and received as that
    value plus N(0, sigma^2) noise.
    """

    sigma: float
    constellation: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            msg = f"sigma must be positive and finite, got {self.sigma}"
            raise InvalidParams(msg)
        # A private copy: freezing the caller's own array would make it read-only.
        points = np.array(self.constellation, dtype=np.float64)
        if points.ndim != 1 or points.shape[0] < 2:
            msg = "constellation must map at least two symbols to real points"
            raise InvalidParams(msg)
        if not np.isfinite(points).all():
            msg = "constellation points must be finite"
            raise InvalidParams(msg)
        points.setflags(write=False)
        object.__setattr__(self, "constellation", points)

    @property
    def q(self) -> int:
        return int(self.constellation.shape[0])

    @classmethod
    def awgn(cls, sigma: float, constellation=None) -> "ContinuousChannel":
        """Gaussian channel; defaults to the antipodal map {1 -> +1, 2 -> -1}."""
        if constellation is None:
            constellation = (1.0, -1.0)
        return cls(sigma=float(sigma), constellation=np.asarray(constellation))

    def log_density(self, received: np.ndarray) -> np.ndarray:
        """Per-position densities: entry (..., i, s-1) is log f(y_i | symbol s)."""
        y = np.asarray(received, dtype=np.float64)
        if y.ndim not in (1, 2) or y.shape[-1] < 1:
            msg = "received values must be a non-empty (n,) vector or a (B, n) batch"
            raise InvalidParams(msg)
        if not np.isfinite(y).all():
            msg = "received values must be finite"
            raise ObservationOutOfAlphabet(msg)
        diff = y[..., None] - self.constellation
        return -math.log(self.sigma) - _LOG_SQRT_2PI - diff**2 / (2.0 * self.sigma**2)


@dataclass(frozen=True)
class ErasureChannel:
    """Binary erasure channel: each bit survives or is erased independently."""

    erasure_probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.erasure_probability <= 1.0:
            msg = f"erasure probability {self.erasure_probability} outside [0, 1]"
            raise InvalidParams(msg)

    @property
    def q(self) -> int:
        return 2


@dataclass(frozen=True)
class ErasureObservation:
    """Received binary word with erasures: entries 0, 1, or ERASED (-1).

    ``values`` is one word ``(n,)`` or a batch of words ``(B, n)``, kept
    as a read-only int64 copy: the caller's array stays its own.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        values = np.array(self.values)
        if values.ndim not in (1, 2) or values.shape[-1] < 1:
            msg = "an observation must be a non-empty (n,) vector or a (B, n) batch"
            raise InvalidParams(msg)
        values = whole_numbers(values, ERASED, 1)
        if values is None:
            msg = "erasure observations hold only 0, 1, or the erasure marker"
            raise ObservationOutOfAlphabet(msg)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return int(self.values.shape[-1])

    @property
    def erasure_count(self) -> int:
        return int((self.values == ERASED).sum())

    @classmethod
    def from_string(cls, text: str) -> "ErasureObservation":
        mapping = {"0": 0, "1": 1, "e": ERASED, "E": ERASED}
        try:
            values = [mapping[ch] for ch in text.strip()]
        except KeyError as exc:
            msg = f"erasure words use characters 0/1/e, got {exc.args[0]!r}"
            raise ObservationOutOfAlphabet(msg) from None
        return cls(values=np.array(values, dtype=np.int64))

    def __str__(self) -> str:
        """The word as a 0/1/e string; a batch gives one such line per word."""
        return "\n".join("".join("e" if v == ERASED else str(int(v)) for v in w) for w in np.atleast_2d(self.values))


def conditional_probability_vector(channel, received: np.ndarray) -> np.ndarray:
    """Length n*q log-likelihood vector: block i holds log P(y_i | x = 1..q).

    Over a channel with memory L block i holds log P(y_i | every symbol
    tuple), so the vector has length n*q^(L+1).  A ``(B, n)`` batch of
    observations gives one such row per word, and a ``(0, n)`` batch none.
    """
    if isinstance(channel, DiscreteChannel):
        y = np.asarray(received)
        if y.ndim not in (1, 2) or y.shape[-1] < 1:
            msg = "an observation must be a non-empty (n,) vector or a (B, n) batch"
            raise InvalidParams(msg)
        y = whole_numbers(y, 1, channel.output_alphabet_size)
        if y is None:
            msg = f"received symbols must lie in 1..{channel.output_alphabet_size} and be whole numbers"
            raise ObservationOutOfAlphabet(msg)
        table = channel.log_transition
        return table.T.take(y - 1, axis=0).reshape(y.shape[:-1] + (y.shape[-1] * table.shape[0],))
    if isinstance(channel, ContinuousChannel):
        density = channel.log_density(received)
        return density.reshape(density.shape[:-2] + (density.shape[-2] * channel.q,))
    msg = f"no likelihood vector for channel type {type(channel).__name__}"
    raise InvalidParams(msg)


def bipolar_received_vector(observation: ErasureObservation) -> np.ndarray:
    """Map a received word with erasures to +1/-1/0 (1 -> +1, 0 -> -1, e -> 0)."""
    values = observation.values
    return np.where(values == ERASED, 0.0, 2.0 * values - 1.0)


def _sample_categorical(
    log_rows: np.ndarray, row_index: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Inversion by sequential search, one output per entry of ``row_index``.

    An output is 1 plus the number of its row's cumulative sums that its
    draw exceeds, counted a column at a time.  The sums never decrease, so a
    draw above the last one (which may round below 1.0) exceeds them all:
    skipping that column caps the output at ``outputs``.
    """
    cumulative = np.cumsum(np.exp(log_rows), axis=1)
    draws = rng.random(row_index.shape)
    picks = np.ones(row_index.shape, dtype=np.int64)
    for column in cumulative.T[:-1]:
        picks += draws > column.take(row_index)
    return picks


def sample_channel(channel, codeword: np.ndarray, rng) -> np.ndarray | ErasureObservation:
    """Draw one received word for ``codeword``; deterministic per generator state.

    ``rng`` may be a seed or a numpy Generator.  Returns 1-based output
    symbols for discrete channels, floats for continuous ones, and an
    ErasureObservation for the erasure channel.  A ``(B, n)`` batch of
    codewords gives B received words in one call, drawing exactly what B
    single-word calls would draw in turn.
    """
    rng = np.random.default_rng(rng)
    if isinstance(channel, DiscreteChannel):
        idx = tuple_indices(channel.q, channel.memory, codeword, channel.initial_symbol)
        return _sample_categorical(channel.log_transition, idx, rng)
    if isinstance(channel, ContinuousChannel):
        word = validate_symbols(channel.q, codeword)
        points = channel.constellation[word - 1]
        return points + channel.sigma * rng.standard_normal(word.shape)
    if isinstance(channel, ErasureChannel):
        word = validate_symbols(2, codeword)
        erased = rng.random(word.shape) < channel.erasure_probability
        return ErasureObservation(values=np.where(erased, ERASED, word - 1))
    msg = f"cannot sample from channel type {type(channel).__name__}"
    raise InvalidParams(msg)
