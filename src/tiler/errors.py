"""Exception hierarchy shared by all modules."""


class TilerError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TilerError):
    """Malformed figure text (bad character, ragged rows, oversized grid)."""


class Empty(ParseError):
    """Figure text contains no cells."""


class NotConnected(ParseError):
    """Cells do not form a single 4-connected component."""


class Overlap(TilerError):
    """Two dominoes cover the same cell."""


class Gap(TilerError):
    """Some cell of the figure is left uncovered."""


class DominoOutsideFigure(TilerError):
    """A domino uses a cell that is not part of the figure."""


class NotADomino(TilerError, ValueError):
    """The two cells of a domino are not adjacent (or are the same cell)."""


class InconsistentCycle(TilerError):
    """Height integration found a cycle with nonzero sum (internal bug)."""


class NotAHeightFunction(TilerError):
    """Vertex potential violates the admissible-difference condition."""


class DifferentFigures(TilerError):
    """Operands belong to different figures."""


class FlipNotAvailable(TilerError):
    """Requested flip is not applicable to this height function."""


class Untileable(TilerError):
    """The figure admits no domino tiling."""


class TooLarge(TilerError):
    """A resource limit is exceeded: the brute-force oracle's cell cap or the
    sampler's window cap."""
