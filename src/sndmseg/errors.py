"""Domain exceptions.

Every exception carries a stable short ``code`` so the command line tool
can print one-line machine-parseable messages (``error: <code>: <detail>``).
The integer checks every config runs when it is built live here too.
"""

import dataclasses
import numbers


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


def require_integer_fields(config) -> None:
    """Raise ``InvalidConfig`` unless each ``int`` field of the dataclass ``config``, and each item of a ``tuple`` field, is a Python or numpy integer.

    A float such as 2.0 fails here, not later in a ``range`` or an array shape.
    """
    for item in dataclasses.fields(config):
        value = getattr(config, item.name)
        for number in {"int": (value,), "tuple": value}.get(item.type, ()):  # every module defers annotations to strings
            if not isinstance(number, numbers.Integral):
                raise InvalidConfigError(f"{item.name}: {number!r} is not an integer")
