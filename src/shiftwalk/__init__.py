"""shiftwalk: verification lab for a shift-register random walk on {0,1}^n.

The walk adds a random bit at a chosen coordinate and then applies the
linear shift map (drop the leading bit, shift, append the word parity).
The package computes exact distance-to-uniform profiles for small n,
spectral upper bounds and weight-statistic lower bounds for large n, and
exposes the middle-coordinate variant as an exact uniform sampler.
"""

__version__ = "0.1.0"

# Each module's ``__all__`` is its public API; the package re-exports them.
from . import chains, distribution, exact_sampler, gf2, rng, spectral, weight_stats
from .chains import *
from .distribution import *
from .exact_sampler import *
from .gf2 import *
from .rng import *
from .spectral import *
from .weight_stats import *

__all__ = ["__version__", *gf2.__all__, *chains.__all__, *distribution.__all__,
           *spectral.__all__, *weight_stats.__all__, *exact_sampler.__all__,
           *rng.__all__]
