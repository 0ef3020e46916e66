"""Domain exceptions.

Every exception carries a stable short ``code`` so the command line tool
can print one-line machine-parseable messages (``error: <code>: <detail>``).
The type check every config runs when it is built lives here too, and so
does the count rule, :func:`check_count`. It and ``seeding.check_seed``
are the only count and seed rules of the package.
"""

import dataclasses
import numbers

import numpy as np


class SndmError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"


class MissingFileError(SndmError):
    code = "MissingFile"


class MalformedHeaderError(SndmError):
    code = "MalformedHeader"


class TruncatedPayloadError(SndmError):
    code = "TruncatedPayload"


class NonFiniteError(SndmError):
    code = "NonFinite"


class OutOfRangeError(SndmError):
    code = "OutOfRange"


class IoFailureError(SndmError):
    code = "IoFailure"


class EmptyForegroundError(SndmError):
    code = "EmptyForeground"


class DegenerateMaskError(SndmError):
    code = "DegenerateMask"


class ShapeMismatchError(SndmError):
    code = "ShapeMismatch"


class NoForwardPassError(SndmError):
    code = "NoForwardPass"


class InvalidConfigError(SndmError):
    code = "InvalidConfig"


class DatasetEmptyError(SndmError):
    code = "DatasetEmpty"


class CheckpointCorruptError(SndmError):
    code = "CheckpointCorrupt"


class OracleMismatchError(SndmError):
    code = "OracleMismatch"


def is_integer(value) -> bool:
    """The integer rule of every config field and count: an integral number, and no bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(name: str, value) -> None:
    """Raise ``InvalidConfig`` unless the count ``value`` passes :func:`is_integer` and is at least 1."""
    if not is_integer(value):
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise InvalidConfigError(f"{name} must be >= 1, got {value}")


# annotation -> (test, what a value must be); every module defers annotations to strings, and a bool is no number
_FIELD_TYPES = {
    "int": (is_integer, "an integer"),
    "float": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool), "a real number"),
    "bool": (lambda v: isinstance(v, (bool, np.bool_)), "a bool"),
    "str": (lambda v: isinstance(v, str), "a str"),
    "tuple": (lambda v: isinstance(v, tuple) and all(map(is_integer, v)), "a tuple of integers"),
}


def require_field_types(config) -> None:
    """Raise ``InvalidConfig`` unless each field of the dataclass ``config`` holds a value of its annotated type.

    A float such as 2.0 fails here, not later in a ``range``, and so does a
    list, which would leave the frozen config unhashable.
    """
    for item in dataclasses.fields(config):
        value = getattr(config, item.name)
        test, kind = _FIELD_TYPES[item.type]
        if not test(value):
            raise InvalidConfigError(f"{item.name}: {value!r} is not {kind}")
