"""Exception types and the integer-argument check shared across the package."""

import numpy as np


class NetchangeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidWeight(NetchangeError):
    """An edge weight or matrix entry is not finite, or a weight is negative."""


class EmptyGraph(NetchangeError):
    """A snapshot carries no edges, so there is no structure to embed."""


class NotConverged(NetchangeError):
    """An iterative solver ran out of steps before meeting its tolerance."""


class NotSymmetric(NetchangeError):
    """A matrix required to be symmetric is not."""


class DegenerateShape(NetchangeError):
    """A configuration collapses after centering (zero Frobenius norm)."""


class InvalidProbability(NetchangeError):
    """A block probability falls outside [0, 1]."""


class EmptyPartition(NetchangeError):
    """A score partition needed for resampling is empty."""


class FormatError(NetchangeError):
    """An input file does not conform to the documented edge-list format."""


def checked_int(name: str, value, least: int | None = None) -> int:
    """`value` as an int: the one check of every count and seed (a bool or float is no integer)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)
