"""Exception hierarchy.

Every exception carries the CLI exit code it maps to:

    1  configuration / usage problems (bad flags, bad config file, ill-typed
       expressions, mismatched benchmark reports)
    2  data problems (corrupt or inconsistent files, schema violations)
    3  I/O failures (unreadable or unwritable paths)
"""


class SkimflowError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


# -- configuration and usage (exit 1) ----------------------------------------

class ConfigError(SkimflowError):
    exit_code = 1


class UsageError(ConfigError):
    pass


class ParseError(ConfigError):
    """Cut/projection expression text could not be parsed."""


class UnknownField(ConfigError):
    """An expression references a path that does not exist in the schema."""


class TypeMismatch(ConfigError):
    """An expression combines operands of incompatible types."""


class NonScalarProjection(ConfigError):
    """A projection column expression is not scalar-valued."""


class KindMismatch(ConfigError):
    """An operation restricted to mc (or data) datasets got the other kind."""


class IncomparableConfigs(ConfigError):
    """Two benchmark reports do not describe the same dataset and analysis."""


# -- data (exit 2) ------------------------------------------------------------

class DataError(SkimflowError):
    exit_code = 2


class SchemaError(DataError):
    """A schema violates its structural invariants."""


class SchemaViolation(DataError):
    """An event does not conform to the schema it is written under."""


class SchemaMismatch(DataError):
    """Files of one dataset carry different schemas."""


class BadMagic(DataError):
    pass


class CorruptHeader(DataError):
    pass


class CrcMismatch(DataError):
    pass


class TruncatedBlock(DataError):
    pass


class FooterMismatch(DataError):
    pass


class UnknownColumn(DataError):
    pass


class ArityMismatch(DataError):
    """A row does not match the column schema in arity or kinds."""


class LengthMismatch(DataError):
    pass


class NameCollision(DataError):
    """Two schema paths flatten to the same column name."""


class SpecMismatch(DataError):
    """Histograms with different binning specs were combined."""


class ZeroSumOfWeights(DataError):
    pass


class NoFilesMatched(DataError):
    pass


# -- I/O (exit 3) -------------------------------------------------------------

class IoFailure(SkimflowError):
    exit_code = 3


class UnreadableFile(IoFailure):
    pass
