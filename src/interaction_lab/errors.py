"""Exception types shared across the library, and its one check of a field's type.

The CLI maps these onto exit codes: ValidationError (and subclasses) -> 1,
VerificationError -> 2, NumericError -> 3.
"""
import sys
from numbers import Integral, Real


class InteractionLabError(Exception):
    """Base class for all library errors."""


class ValidationError(InteractionLabError):
    """Bad inputs: dimension mismatches, out-of-range arguments, malformed specs."""


class DimensionError(ValidationError):
    """Vector/matrix length does not match the declared player count."""


class DomainError(ValidationError):
    """Argument outside its mathematical domain (order, index, fraction)."""


class GuardError(ValidationError):
    """Exact-enumeration path requested beyond its size guard."""


class SchemaError(ValidationError):
    """Config or serialized-file schema violation."""


class VerificationError(InteractionLabError):
    """A verification suite exceeded its residual threshold."""


class NumericError(InteractionLabError):
    """Non-finite value where a finite one is required (diverged training, bad loss)."""


def require(name: str, value, kind) -> None:
    """Raise SchemaError unless value is an integer (kind Integral) or a finite number (Real)."""
    # bool is an Integral too, but a flag is never a count or a rate; nan compares false
    if (isinstance(value, bool) or not isinstance(value, kind)
            or kind is Real and not -sys.float_info.max <= value <= sys.float_info.max):
        noun = "an integer" if kind is Integral else "a finite number"
        raise SchemaError(f"{name} must be {noun}, got {value!r}")
