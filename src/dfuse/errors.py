"""Exception taxonomy.

Two families matter for the CLI exit codes: ``UsageError`` (caller misuse,
exit 1) and everything else under ``DfuseError`` (runtime or validation
failure, exit 2).
"""


class DfuseError(Exception):
    """Base class for all package errors."""


class UsageError(DfuseError, ValueError):
    """An API or CLI was invoked with invalid arguments."""


class ValidationError(DfuseError, RuntimeError):
    """Data or state violated a contract at runtime."""


class DegenerateEmbeddingError(ValidationError):
    """A vector with (near-)zero norm cannot be normalized."""


class TrainingDivergedError(ValidationError):
    """The training loss became non-finite."""


class CorpusFormatError(ValidationError):
    """A corpus file is malformed; the message names the file and section."""


class CorpusRecordError(ValidationError):
    """A corpus record violated an invariant; the message names the id."""


class CheckpointFormatError(ValidationError):
    """A checkpoint file is malformed or truncated."""


class CheckpointMagicError(CheckpointFormatError):
    """The checkpoint magic tag did not match."""


class CheckpointChecksumError(CheckpointFormatError):
    """The stored checksum does not match the value bytes."""


class CheckpointLayoutError(CheckpointFormatError):
    """Declared tensor layout is inconsistent with the stored values."""
