"""Exception types shared across the package."""


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


class UndefinedTest(NetchangeError):
    """A statistical test has no informative observations (all ties)."""


class FormatError(NetchangeError):
    """An input file does not conform to the documented edge-list format."""
