"""Exact computation of the center of the Leavitt path algebra of a finite graph."""

from . import algebra, center, graph, hereditary
from .graph import *  # noqa: F401,F403
from .hereditary import *  # noqa: F401,F403
from .algebra import *  # noqa: F401,F403
from .center import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*graph.__all__, *hereditary.__all__, *algebra.__all__, *center.__all__, "__version__"]
