"""Channel models and their per-observation log-likelihood vectors.

Decoding needs, for a received word y, the length n*q vector whose block i
lists log P(y_i | x = 1..q).  Multiplying it by the codebook matrix yields
every codeword's log-likelihood at once, so everything a channel must
provide is that vector plus (for simulation) a sampler.

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

from .codes import tuple_indices, validate_symbols, whole_numbers
from .errors import (
    InvalidParams,
    ObservationOutOfAlphabet,
    SymbolOutOfRange,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

#: Marker for an erased position inside an ErasureObservation.
ERASED = -1


def _log_table(probabilities: np.ndarray) -> np.ndarray:
    """Read-only log of a 2-d transition table; the channel checks its shape."""
    table = np.asarray(probabilities, dtype=np.float64)
    if table.ndim != 2:
        msg = "transition table must be 2-d"
        raise InvalidParams(msg)
    if np.isnan(table).any() or (table < 0).any():
        msg = "transition probabilities must be non-negative and not NaN"
        raise InvalidParams(msg)
    sums = table.sum(axis=1)
    if not np.allclose(sums, 1.0, rtol=0.0, atol=1e-9):
        msg = "each transition row must sum to 1 within 1e-9"
        raise InvalidParams(msg)
    with np.errstate(divide="ignore"):
        logs = np.log(table)
    logs.setflags(write=False)
    return logs


def _checked_log_transition(log_transition, rows: int, cols: int) -> np.ndarray:
    """A read-only ``(rows, cols)`` table of log P(y|x), each row exponentiating to 1."""
    table = np.asarray(log_transition, dtype=np.float64)
    if table.shape != (rows, cols):
        msg = f"log_transition must be ({rows}, {cols}), got {table.shape}"
        raise InvalidParams(msg)
    if np.isnan(table).any() or (table == np.inf).any():
        msg = "log probabilities must be real or -inf"
        raise InvalidParams(msg)
    if not np.allclose(np.exp(table).sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
        msg = "each transition row must exponentiate to probability 1"
        raise InvalidParams(msg)
    table.setflags(write=False)
    return table


def _log_magnitude(channel) -> float:
    """Largest magnitude of a finite entry of the channel's log table (0.0 if none).

    Each position's entry of a likelihood vector is at most this far from
    zero, or -inf.
    """
    table = channel.log_transition
    finite = table[np.isfinite(table)]
    return float(np.abs(finite).max()) if finite.size else 0.0


@dataclass(frozen=True)
class DiscreteChannel:
    """Memoryless channel over finite alphabets, stored as log P(y|x).

    ``log_transition[s - 1, y - 1]`` is the log-probability of receiving y
    when symbol s was sent; rows exponentiate to probability 1.
    """

    q: int
    output_alphabet_size: int
    log_transition: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.q < 2 or self.output_alphabet_size < 1:
            msg = "need q >= 2 input symbols and at least one output symbol"
            raise InvalidParams(msg)
        table = _checked_log_transition(self.log_transition, self.q, self.output_alphabet_size)
        object.__setattr__(self, "log_transition", table)

    log_magnitude = cached_property(_log_magnitude)

    @classmethod
    def from_probabilities(cls, probabilities: np.ndarray) -> "DiscreteChannel":
        logs = _log_table(probabilities)
        q, out = logs.shape
        return cls(q=q, output_alphabet_size=out, log_transition=logs)

    @classmethod
    def bsc(cls, crossover: float) -> "DiscreteChannel":
        """Binary symmetric channel with flip probability ``crossover``."""
        if not 0.0 <= crossover <= 1.0:
            msg = f"crossover probability {crossover} outside [0, 1]"
            raise InvalidParams(msg)
        p = float(crossover)
        return cls.from_probabilities([[1.0 - p, p], [p, 1.0 - p]])

    @classmethod
    def symmetric(cls, q: int, error: float) -> "DiscreteChannel":
        """q-ary symmetric channel: wrong symbols share probability ``error``."""
        if q < 2:
            msg = f"q={q} must be at least 2"
            raise InvalidParams(msg)
        if not 0.0 <= error <= 1.0:
            msg = f"error probability {error} outside [0, 1]"
            raise InvalidParams(msg)
        table = np.full((q, q), error / (q - 1), dtype=np.float64)
        np.fill_diagonal(table, 1.0 - error)
        return cls.from_probabilities(table)


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
        points = np.asarray(self.constellation, dtype=np.float64)
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
        if y.ndim not in (1, 2):
            msg = "received values must be an (n,) vector or a (B, n) batch"
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

    ``values`` is one word ``(n,)`` or a batch of words ``(B, n)``.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
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


@dataclass(frozen=True)
class IsiChannel:
    """Discrete channel whose output depends on the last ``memory`` symbols too.

    ``log_transition`` has one row per (current symbol, predecessors) tuple,
    indexed base-q with the current symbol most significant; positions
    before the first symbol read ``initial_symbol``.  ``memory=0`` reduces
    to a memoryless channel.
    """

    q: int
    memory: int
    output_alphabet_size: int
    log_transition: np.ndarray = field(repr=False)
    initial_symbol: int = 1

    def __post_init__(self) -> None:
        if self.q < 2 or self.output_alphabet_size < 1:
            msg = "need q >= 2 input symbols and at least one output symbol"
            raise InvalidParams(msg)
        if self.memory < 0:
            msg = f"memory must be >= 0, got {self.memory}"
            raise InvalidParams(msg)
        if not 1 <= self.initial_symbol <= self.q:
            msg = f"initial symbol {self.initial_symbol} must lie in 1..{self.q}"
            raise SymbolOutOfRange(msg)
        rows = self.q ** (self.memory + 1)
        table = _checked_log_transition(self.log_transition, rows, self.output_alphabet_size)
        object.__setattr__(self, "log_transition", table)

    log_magnitude = cached_property(_log_magnitude)

    @property
    def tuple_count(self) -> int:
        return int(self.q ** (self.memory + 1))

    @classmethod
    def from_probabilities(
        cls, q: int, memory: int, probabilities: np.ndarray, initial_symbol: int = 1
    ) -> "IsiChannel":
        logs = _log_table(probabilities)
        return cls(
            q=q,
            memory=memory,
            output_alphabet_size=logs.shape[1],
            log_transition=logs,
            initial_symbol=initial_symbol,
        )


def _check_discrete_observation(out_size: int, received: np.ndarray) -> np.ndarray:
    y = np.asarray(received)
    if y.ndim not in (1, 2) or y.size < 1:
        msg = "an observation must be a non-empty (n,) vector or a (B, n) batch"
        raise InvalidParams(msg)
    y = whole_numbers(y, 1, out_size)
    if y is None:
        msg = f"received symbols must lie in 1..{out_size} and be whole numbers"
        raise ObservationOutOfAlphabet(msg)
    return y


def conditional_probability_vector(channel, received: np.ndarray) -> np.ndarray:
    """Length n*q log-likelihood vector: block i holds log P(y_i | x = 1..q).

    For an IsiChannel block i holds log P(y_i | every symbol tuple), so the
    vector has length n*q^(L+1).  A ``(B, n)`` batch of observations gives
    one such row per word.
    """
    if isinstance(channel, (DiscreteChannel, IsiChannel)):
        y = _check_discrete_observation(channel.output_alphabet_size, received)
        return channel.log_transition.T.take(y - 1, axis=0).reshape(y.shape[:-1] + (-1,))
    if isinstance(channel, ContinuousChannel):
        density = channel.log_density(received)
        return density.reshape(density.shape[:-2] + (-1,))
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
    if isinstance(channel, (DiscreteChannel, IsiChannel)):
        memory = channel.memory if isinstance(channel, IsiChannel) else 0
        # At memory 0 the tuple index is symbol - 1, whatever the initial symbol.
        idx = tuple_indices(channel.q, memory, codeword, channel.initial_symbol if memory else 1)
        return _sample_categorical(channel.log_transition, idx, rng)
    if isinstance(channel, ContinuousChannel):
        word = validate_symbols(channel.q, codeword)
        points = channel.constellation[word - 1]
        return points + channel.sigma * rng.standard_normal(word.shape)
    if isinstance(channel, ErasureChannel):
        word = validate_symbols(2, codeword)
        bits = word - 1
        erased = rng.random(word.shape) < channel.erasure_probability
        return ErasureObservation(values=np.where(erased, ERASED, bits))
    msg = f"cannot sample from channel type {type(channel).__name__}"
    raise InvalidParams(msg)
