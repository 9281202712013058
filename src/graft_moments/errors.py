"""Exception taxonomy for graft_moments.

Every error raised by this package derives from :class:`GraftMomentsError`,
so callers can catch one base class.  :class:`GraphFormatError` marks
malformed input (bad JSON shape, unparsable rationals, non-simple edge
lists); everything else marks a domain violation on well-formed input.
"""

from __future__ import annotations


class GraftMomentsError(Exception):
    """Base class for all errors raised by graft_moments."""


class GraphFormatError(GraftMomentsError):
    """Input could not be parsed into a valid graph, weight, or spec."""


class EmptyGraph(GraftMomentsError):
    """Operation needs at least one vertex."""


class UnknownVertex(GraftMomentsError):
    """A vertex id is not present in the graph (or weight map) it refers to."""


class DisconnectedGraph(GraftMomentsError):
    """Operation is only defined for connected graphs."""


class TooLarge(GraftMomentsError):
    """Graph exceeds a size cap (isomorphism search or order limit)."""


class NegativeWeight(GraftMomentsError):
    """Vertex weights must be nonnegative."""


class ArityMismatch(GraftMomentsError):
    """A per-vertex argument list has the wrong length."""


class OrderMismatch(GraftMomentsError):
    """Two graphs that must have equal order do not."""


class DuplicateReceptor(GraftMomentsError):
    """Receptor vertices must be pairwise distinct here."""


class NotATree(GraftMomentsError):
    """Branch must be a tree (connected, |E| = |V| - 1)."""


class InvalidExtendedCycle(GraftMomentsError):
    """Cycle order outside the supported range for this formula."""
