"""Exception taxonomy shared by every module in the package."""


class FastmldError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(FastmldError):
    """A parameter is outside its documented domain."""


class SymbolOutOfRange(FastmldError):
    """A codeword symbol is not in {1..q} (or a field element not in {0..q-1})."""


class ObservationOutOfAlphabet(FastmldError):
    """A received symbol is not in the channel's output alphabet."""


class DimensionMismatch(FastmldError):
    """Vector/matrix shapes passed together do not agree."""


class CapacityExceeded(FastmldError):
    """An enumeration or matrix build would exceed the configured memory cap."""


class RankDeficient(FastmldError):
    """A generator matrix does not have full row rank."""


class HeightOutOfRange(FastmldError):
    """A universal-matrix height is outside the supported range."""


class ListSizeOutOfRange(FastmldError):
    """A list size is not in {1..S}."""


class NonBinaryCode(FastmldError):
    """An operation defined only for binary codes was given q > 2."""


class NoZeroDistanceCoset(FastmldError):
    """No coset leader reproduced the received syndrome exactly."""
