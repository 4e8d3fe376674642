"""Exception types shared across the library, and the integer and flag
checks the configs share."""

from numbers import Integral

import numpy as np


class EndiffError(Exception):
    """Base class for all library errors."""


class DimensionError(EndiffError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ContractError(EndiffError, ValueError):
    """A caller violated a documented precondition."""


class ParameterError(EndiffError, ValueError):
    """A configuration value is outside its valid range."""


class DomainError(EndiffError, ValueError):
    """A numeric argument lies outside the function's domain."""


class FormatError(EndiffError, ValueError):
    """An input file failed to parse; message names the file and line."""


class UndefinedMetricError(EndiffError, ValueError):
    """The requested metric is undefined for the given labels."""


def check_integer(name: str, value, least: int) -> None:
    """Raise ParameterError unless value is an integer (a bool is not one)
    of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ParameterError(f"{name} must be >= {least}")


def check_flag(name: str, value) -> None:
    """Raise ParameterError unless value is a bool (numpy's included)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ParameterError(f"{name} must be true or false, got {value!r}")
