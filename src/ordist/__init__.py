"""Order distances of finite distance matrices and the split systems
behind them, in exact rational arithmetic.

The package computes the order distance of a distance matrix (three
engines: the defining double sum, a penalized Kendall formulation over the
induced rankings, and a fast path for circular input), extracts midpath
split systems, and analyzes split systems for compatibility, circularity,
linear independence, flatness, closedness and orderliness.
"""

from . import circular, compat, core, flatlab, formats, generators, order, rankings
from .circular import *
from .compat import *
from .core import *
from .flatlab import *
from .formats import *
from .generators import *
from .order import *
from .rankings import *

__version__ = "0.1.0"

# every public name once: the __all__ of each library module
__all__ = ["__version__"] + [
    name
    for module in (core, formats, rankings, order, compat, circular, flatlab, generators)
    for name in module.__all__
]
