"""Domain exceptions.

Every exception carries a stable short ``code`` so the command line tool
can print one-line machine-parseable messages (``error: <code>: <detail>``).
"""


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
