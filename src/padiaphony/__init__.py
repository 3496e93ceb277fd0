"""Exact Halton sequences and the diaphony of point sets over p-adic
function systems: closed-form kernel evaluation, truncated spectral sums
with rigorous tails, worst-case integration error, and sequence bounds."""

# Each module's __all__ is its public API and is not repeated here;
# errors has no __all__, so its exception classes are what it exports.
from .diaphony import *  # noqa: F403
from .errors import *  # noqa: F403
from .halton import *  # noqa: F403
from .kernel import *  # noqa: F403
from .padic import *  # noqa: F403
from .weights import *  # noqa: F403

__version__ = "0.1.0"
