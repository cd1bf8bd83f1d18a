"""Exception hierarchy shared across the package.

The CLI maps these, and an OSError, onto exit codes (see cli.main), so
raise the most specific class that applies.
"""


class GroupcastError(Exception):
    """Base class for all package errors."""


class ShapeError(GroupcastError):
    """Tensor shapes do not conform; message names both shapes."""


class ContractError(GroupcastError):
    """An operation precondition was violated (e.g. non-scalar loss)."""


class ConfigError(GroupcastError):
    """Invalid configuration value or malformed config file."""


class DataError(GroupcastError):
    """Malformed or inconsistent data (bad dates, unparseable cells)."""


class SchemaError(DataError):
    """A file does not match its expected column schema."""


class DegenerateInputError(GroupcastError):
    """Input is structurally valid but has no usable content
    (all-missing series, zero included metric cells)."""


class StabilityError(ConfigError):
    """A generator spec violates its stability requirement. A spec is
    config, so this is a config error wherever the spec came from."""


class CheckpointError(GroupcastError):
    """Checkpoint file corrupt or version-incompatible."""


class TrainingAbort(GroupcastError):
    """Training stopped on a non-finite loss; message carries diagnostics."""
