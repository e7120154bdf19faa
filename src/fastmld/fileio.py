"""Text file formats and command-line value parsing.

Codebook files: a ``q n S`` header line, then S lines of n space-separated
symbols in {1..q}.  Generator files: a ``q n k`` header, then k rows of
field elements in {0..q-1}.  Channel files hold ``key value`` lines (with
``row`` lines for transition tables); the common kinds also have a compact
``kind:param,...`` command-line form.  Blank lines and ``#`` comments are
ignored everywhere.
"""

from __future__ import annotations

import os

import numpy as np

from .channels import (
    ContinuousChannel,
    DiscreteChannel,
    ErasureChannel,
    ErasureObservation,
    IsiChannel,
)
from .codes import Code, LinearCode
from .errors import InvalidParams, ObservationOutOfAlphabet

def _content_lines(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = handle.readlines()
    except OSError as exc:
        msg = f"cannot read {path}: {exc}"
        raise InvalidParams(msg) from None
    lines = []
    for line in raw:
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    if not lines:
        msg = f"{path}: file holds no content"
        raise InvalidParams(msg)
    return lines


def _ints(text: str, count: int | None, where: str) -> list[int]:
    parts = text.split()
    if count is not None and len(parts) != count:
        msg = f"{where}: expected {count} integers, got {len(parts)}"
        raise InvalidParams(msg)
    try:
        return [int(p) for p in parts]
    except ValueError:
        msg = f"{where}: expected integers, got {text!r}"
        raise InvalidParams(msg) from None


def _floats(text: str, where: str, count: int | None = None) -> list[float]:
    parts = text.replace(",", " ").split()
    if count is not None and len(parts) != count:
        msg = f"{where}: expected {count} numbers, got {len(parts)}"
        raise InvalidParams(msg)
    try:
        return [float(p) for p in parts]
    except ValueError:
        msg = f"{where}: expected numbers, got {text!r}"
        raise InvalidParams(msg) from None


def read_code_file(path: str) -> Code:
    """Load an explicit codebook: ``q n S`` then S rows of symbols."""
    lines = _content_lines(path)
    q, n, size = _ints(lines[0], 3, f"{path} header")
    if len(lines) - 1 != size:
        msg = f"{path}: header promises {size} codewords, file holds {len(lines) - 1}"
        raise InvalidParams(msg)
    words = [_ints(line, n, f"{path} codeword {i + 1}") for i, line in enumerate(lines[1:])]
    return Code(q=q, n=n, codewords=words)


def write_code_file(path: str, code: Code) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{code.q} {code.n} {code.size}\n")
        for word in code.codewords:
            handle.write(" ".join(str(int(s)) for s in word) + "\n")


def read_linear_code_file(path: str) -> LinearCode:
    """Load a generator matrix: ``q n k`` then k rows of field elements."""
    lines = _content_lines(path)
    q, n, k = _ints(lines[0], 3, f"{path} header")
    if len(lines) - 1 != k:
        msg = f"{path}: header promises {k} generator rows, file holds {len(lines) - 1}"
        raise InvalidParams(msg)
    rows = [_ints(line, n, f"{path} generator row {i + 1}") for i, line in enumerate(lines[1:])]
    return LinearCode(q=q, n=n, k=k, generator=np.array(rows, dtype=np.int64))


def write_linear_code_file(path: str, linear: LinearCode) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{linear.q} {linear.n} {linear.k}\n")
        for row in linear.generator:
            handle.write(" ".join(str(int(s)) for s in row) + "\n")


def _parse_keyed(lines: list[str], path: str) -> tuple[dict[str, str], list[list[float]]]:
    values: dict[str, str] = {}
    rows: list[list[float]] = []
    for line in lines:
        key, _, rest = line.partition(" ")
        if key == "row":
            rows.append(_floats(rest, f"{path} table row {len(rows) + 1}"))
        elif not rest.strip():
            msg = f"{path}: line {line!r} holds a key with no value"
            raise InvalidParams(msg)
        else:
            values[key] = rest.strip()
    return values, rows


def _require(values: dict[str, str], key: str, path: str) -> str:
    if key not in values:
        msg = f"{path}: missing required field {key!r}"
        raise InvalidParams(msg)
    return values[key]


#: Each channel kind's constructor, then its parameters in order, which
#: are also its channel-file keys: ``row`` lines hold a transition table,
#: and awgn's ``map`` (its constellation) is optional and takes any count.
#: Kinds without a table also have a ``kind:params`` form.
_CHANNELS = {
    "bsc": (DiscreteChannel.bsc, "p"),
    "qsc": (DiscreteChannel.symmetric, "q", "p"),
    "dmc": (DiscreteChannel.from_probabilities, "row"),
    "awgn": (ContinuousChannel.awgn, "sigma", "map"),
    "erasure": (ErasureChannel, "p"),
    "isi-dmc": (IsiChannel.from_probabilities, "q", "memory", "row", "initial_symbol"),
}
CHANNEL_KINDS = tuple(_CHANNELS)


def _parameter(values: dict[str, str], rows: list, key: str, where: str):
    """Channel parameter ``key``: whole for q, memory and initial_symbol (1 if absent), else real."""
    if key == "row":
        if not rows:
            msg = f"{where}: the channel needs transition table 'row' lines"
            raise InvalidParams(msg)
        return np.array(rows, dtype=np.float64)
    if key == "map":
        return _floats(values["map"], f"{where} map") if "map" in values else None
    text, where = _require({"initial_symbol": "1"} | values, key, where), f"{where} {key}"
    return _ints(text, 1, where)[0] if key in ("q", "memory", "initial_symbol") else _floats(text, where, 1)[0]


def read_channel_file(path: str):
    """Load a channel description from ``key value`` lines."""
    values, rows = _parse_keyed(_content_lines(path), path)
    kind = _require(values, "kind", path)
    if kind not in CHANNEL_KINDS:
        msg = f"{path}: unknown channel kind {kind!r} (expected one of {CHANNEL_KINDS})"
        raise InvalidParams(msg)
    make, *keys = _CHANNELS[kind]
    return make(*(_parameter(values, rows, key, path) for key in keys))


def parse_channel_spec(spec: str):
    """Resolve ``kind:params`` shorthand, or fall back to a channel file.

    Shorthands: ``bsc:P``, ``qsc:Q,P``, ``awgn:SIGMA[,POINT,...]``,
    ``erasure:P``.  Table-driven kinds (dmc, isi-dmc) need a file.
    """
    kind, sep, rest = spec.partition(":")
    if sep and kind in CHANNEL_KINDS and not os.path.exists(spec):
        make, *keys = _CHANNELS[kind]
        fields = rest.replace(",", " ").split()
        if kind == "awgn":  # sigma, then any number of map values
            fields[1:] = [" ".join(fields[1:])] if len(fields) > 1 else []
        if "row" not in keys and len(keys) - (kind == "awgn") <= len(fields) <= len(keys):
            values, where = dict(zip(keys, fields)), f"channel spec {spec!r}"
            return make(*(_parameter(values, [], key, where) for key in keys))
        msg = f"channel spec {spec!r} is malformed; {kind} tables need a channel file"
        raise InvalidParams(msg)
    return read_channel_file(spec)


def parse_received_word(text: str, channel):
    """Parse one received word as typed on the command line or per file line.

    Continuous channels take comma/space-separated reals; the erasure
    channel takes a 0/1/e string; discrete channels take either a compact
    digit string or space-separated digits, read by the channel's output
    alphabet.  A channel with two outputs takes bits 0/1, mapped to output
    symbols 1/2; any other takes its 1-based output symbols as typed.
    """
    text = text.strip()
    if not text:
        msg = "empty received word"
        raise InvalidParams(msg)
    if isinstance(channel, ContinuousChannel):
        return np.array(_floats(text, f"received word {text!r}"), dtype=np.float64)
    if isinstance(channel, ErasureChannel):
        return ErasureObservation.from_string(text.replace(" ", ""))
    compact = text.replace(" ", "").replace(",", "")
    if not compact.isdigit():
        msg = f"received word {text!r} must hold digits"
        raise ObservationOutOfAlphabet(msg)
    # Separated words hold one symbol per field, compact ones one per digit.
    fields = text.replace(",", " ") if " " in text or "," in text else " ".join(compact)
    symbols = np.array(_ints(fields, None, f"received word {text!r}"), dtype=np.int64)
    if channel.output_alphabet_size == 2:
        if symbols.max() > 1:
            msg = f"received word {text!r} must hold bits 0/1 for a channel with two outputs"
            raise ObservationOutOfAlphabet(msg)
        symbols = symbols + 1
    return symbols


def read_observations(path: str, channel) -> list:
    """One received word per content line of ``path``."""
    return [parse_received_word(line, channel) for line in _content_lines(path)]
