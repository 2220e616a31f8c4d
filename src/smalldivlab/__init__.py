"""Small-divisor laboratory.

Exact continued-fraction arithmetic, arithmetic classification of
frequencies, weighted convergent series with certified tails, partitioned
small-divisor sums, and a Fourier-space solver for the one-frequency
cohomological equation on the 2-torus with two-sided strip-norm bounds.
"""

__version__ = "0.1.0"

from .contfrac import (
    ContinuedFraction,
    DepthExhausted,
    ExpansionError,
    FrequencySpec,
    expand,
    legendre_astar,
    verify_nint_lemma,
)

__all__ = [
    "ContinuedFraction",
    "DepthExhausted",
    "ExpansionError",
    "FrequencySpec",
    "expand",
    "legendre_astar",
    "verify_nint_lemma",
    "__version__",
]
