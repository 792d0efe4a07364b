"""Primitive types: covariate support, pair covariates, parameters, networks.

A directed network on n agents is formed pairwise: agent i links to j when
the marginal utility index plus a pair-specific shock is non-negative.  The
index is linear in three expected network statistics (reciprocity, target
in-degree, common in-neighbors) and in the pair covariate vector.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidRates

__all__ = [
    "CovariateSupport",
    "PairCovariates",
    "Theta",
    "theta_coordinates",
    "Network",
]


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class CovariateSupport:
    """Discrete support of the pair covariate: J distinct points in R^d.

    The points must be supplied in strictly increasing lexicographic order;
    that order defines the cell indexing used by every estimator and by the
    indicator vectors of the moment conditions.
    """

    points: np.ndarray  # (J, d)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("support must be a non-empty (J, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("support points must be finite")
        for a, b in zip(pts[:-1], pts[1:]):
            if tuple(a) >= tuple(b):
                raise ValueError(
                    "support points must be distinct and lexicographically increasing"
                )
        object.__setattr__(self, "points", _frozen_array(pts))

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def homophily_index(self, homophily) -> np.ndarray:
        """x'hom per point, (J,) for weights (d,) or (..., J) for rows (..., d):
        the one product of points and weights, which the solver and the
        estimator share.  It runs over the points plus a spare copy of the
        first, dropped after: numpy takes a one-row product through its dot
        kernel, whose last bit can differ from the matrix-vector kernel."""
        hom = np.asarray(homophily, dtype=float)
        return (np.concatenate([self.points, self.points[:1]]) @ hom[..., None])[..., :-1, 0]


@dataclass(frozen=True)
class PairCovariates:
    """Assignment of every ordered pair (i, j) to a support cell index.

    Diagonal entries are carried for array regularity but never enter any
    model computation.  The labels are held in the smallest unsigned dtype
    that holds the largest of them (``np.min_scalar_type``): uint8 for up to
    256 cells, so the (n, n) array takes n^2 bytes.
    """

    assignment: np.ndarray  # (n, n) unsigned integer cell indices

    def __post_init__(self):
        arr = np.asarray(self.assignment)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("assignment must be a square (n, n) array")
        if arr.size == 0:
            raise ValueError("assignment must hold at least one agent")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("assignment must hold integer cell indices")
        if arr.min() < 0:
            raise ValueError("cell indices must be non-negative")
        object.__setattr__(self, "assignment", _frozen_array(arr, dtype=np.min_scalar_type(arr.max())))

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    def check_cells(self, support: CovariateSupport) -> None:
        """Raise ValueError unless every cell index names a point of ``support``."""
        if self.assignment.max() >= support.n_points:
            raise ValueError("assignment references a cell outside the support")


@dataclass(frozen=True, eq=False)
class Theta:
    """Structural parameter point.

    externality: weights on (reciprocity, in-degree, common in-neighbors)
    homophily:   weights on the pair covariate vector
    fp_rate:     probability a non-link is recorded as a link
    fn_rate:     probability a link is recorded as a non-link
    """

    externality: np.ndarray  # (3,)
    homophily: np.ndarray  # (d,)
    fp_rate: float
    fn_rate: float

    def __eq__(self, other):
        if not isinstance(other, Theta):
            return NotImplemented
        return (
            np.array_equal(self.externality, other.externality)
            and np.array_equal(self.homophily, other.homophily)
            and self.fp_rate == other.fp_rate
            and self.fn_rate == other.fn_rate
        )

    def __post_init__(self):
        # flatten always copies: the caller's array can change, this one cannot
        ext = np.asarray(self.externality, dtype=float).flatten()
        hom = np.asarray(self.homophily, dtype=float).flatten()
        if ext.shape != (3,):
            raise ValueError("externality must have exactly 3 components")
        if hom.size < 1:
            raise ValueError("homophily must have at least one component")
        if not all(map(math.isfinite, ext.tolist() + hom.tolist())):
            raise ValueError("parameters must be finite")
        validate_rates(self.fp_rate, self.fn_rate)
        ext.setflags(write=False)
        hom.setflags(write=False)
        object.__setattr__(self, "externality", ext)
        object.__setattr__(self, "homophily", hom)
        object.__setattr__(self, "fp_rate", float(self.fp_rate))
        object.__setattr__(self, "fn_rate", float(self.fn_rate))


def theta_coordinates(theta: Theta) -> list:
    """The row layout of a parameter point: externality, homophily, fp, fn."""
    return [*theta.externality.tolist(), *theta.homophily.tolist(), theta.fp_rate, theta.fn_rate]


def validate_rates(fp_rate: float, fn_rate: float) -> None:
    """Reject rates outside {r0, r1 >= 0, r0 + r1 < 1}."""
    if not (math.isfinite(fp_rate) and math.isfinite(fn_rate)):
        raise InvalidRates("rates must be finite")
    if fp_rate < 0 or fn_rate < 0:
        raise InvalidRates(f"rates must be non-negative, got ({fp_rate}, {fn_rate})")
    if fp_rate + fn_rate >= 1:
        raise InvalidRates(
            f"rates must satisfy fp + fn < 1, got {fp_rate} + {fn_rate} = {fp_rate + fn_rate}"
        )


@dataclass(frozen=True)
class Network:
    """Directed binary adjacency matrix with zero diagonal."""

    adj: np.ndarray  # (n, n) of {0, 1}

    def __post_init__(self):
        arr = np.asarray(self.adj)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("adjacency must be a square (n, n) array")
        if arr.dtype.kind in "biu" and arr.dtype.itemsize == 1:  # one pass; int8 -1 reads as 255
            binary = arr.view(np.uint8).max(initial=0) <= 1
        else:
            binary = ((arr == 0) | (arr == 1)).all()
        if not binary:
            raise ValueError("adjacency entries must be 0 or 1")
        if np.any(np.diagonal(arr) != 0):
            raise ValueError("diagonal must be zero")
        object.__setattr__(self, "adj", _frozen_array(arr, dtype=np.int8))

    @property
    def n(self) -> int:
        return self.adj.shape[0]

