"""Standard normal cdf and pdf.

Every probit evaluation in the package routes through these two functions so
that link probabilities, moments and influence terms are computed with one
bit-identical routine.  The cdf is scipy's ``ndtr`` (Cephes erf/erfc rational
approximations, absolute error below 1e-15 in double precision), which is far
inside the 1e-14 budget the estimators assume.
"""

import numpy as np
from scipy.special import ndtr

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def norm_cdf(x, out=None):
    """Standard normal cdf, elementwise on arrays; into ``out`` when given
    (``x`` itself for an in-place update)."""
    return ndtr(x, out=out)


def norm_pdf(x):
    """Standard normal density, elementwise on arrays."""
    x = np.asarray(x, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)
