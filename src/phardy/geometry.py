"""Model manifolds with a one-dimensional radial/axial reduction.

Every inequality in the toolkit is evaluated on one of four models:
rotationally symmetric Euclidean or hyperbolic space (coordinate r),
the Poincare upper half-plane for functions of the height y alone
(per unit horizontal length), and a flat interval.  Each model supplies
the 1D volume density s(t), the factor converting a coordinate
derivative u' into the Riemannian gradient norm |grad u|, and the
distance Laplacian where it has a closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidArgumentError, UnsupportedModelError

EUCLIDEAN = "euclidean"
HYPERBOLIC = "hyperbolic"
HALF_PLANE = "half_plane"
INTERVAL = "interval"


def sphere_area(n: int) -> float:
    """Surface area of the unit (n-1)-sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class CoordinateRange:
    """Interval of the reduction coordinate: the truncated domain, whose
    two ends are Dirichlet."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise InvalidArgumentError(f"need lo < hi, got ({self.lo}, {self.hi})")
        if self.lo < 0:
            raise InvalidArgumentError("coordinate ranges start at lo >= 0")


@dataclass(frozen=True)
class ModelManifold:
    """Radial model descriptor.

    kind is one of "euclidean", "hyperbolic" (with dimension ``dim``),
    "half_plane" or "interval" (with endpoints ``a``, ``b``).
    """

    kind: str
    dim: int = 0
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if self.kind in (EUCLIDEAN, HYPERBOLIC):
            if self.dim < 2:
                raise InvalidArgumentError("radial models need dimension N >= 2")
        elif self.kind == INTERVAL:
            if not (self.a < self.b):
                raise InvalidArgumentError("interval needs a < b")
        elif self.kind != HALF_PLANE:
            raise InvalidArgumentError(f"unknown model kind {self.kind!r}")

    @property
    def is_radial(self) -> bool:
        return self.kind in (EUCLIDEAN, HYPERBOLIC)

    def check_domain(self, t) -> np.ndarray:
        """t as a float array; a DomainError if a value leaves the model's
        coordinate range ([a, b] on an interval, t > 0 otherwise)."""
        t = np.asarray(t, dtype=float)
        if self.kind == INTERVAL:
            bad = (t < self.a) | (t > self.b)
        else:
            bad = t <= 0.0
        if np.any(bad):
            raise DomainError(
                f"coordinate {t[bad].flat[0]} outside range of {self.kind} model"
            )
        return t

    def volume_density(self, t):
        """1D density s(t) so that integrals against s(t) dt realize dv_g."""
        t = self.check_domain(t)
        if self.kind == EUCLIDEAN:
            return sphere_area(self.dim) * t ** (self.dim - 1)
        if self.kind == HYPERBOLIC:
            return sphere_area(self.dim) * np.sinh(t) ** (self.dim - 1)
        if self.kind == HALF_PLANE:
            return t ** -2.0
        return np.ones_like(t)

    def log_volume_density(self, t):
        """log s(t), overflow-safe for large hyperbolic radii."""
        t = self.check_domain(t)
        if self.kind == EUCLIDEAN:
            return math.log(sphere_area(self.dim)) + (self.dim - 1) * np.log(t)
        if self.kind == HYPERBOLIC:
            # log sinh(t) = t + log1p(-exp(-2t)) - log 2
            log_sinh = t + np.log1p(-np.exp(-2.0 * t)) - math.log(2.0)
            return math.log(sphere_area(self.dim)) + (self.dim - 1) * log_sinh
        if self.kind == HALF_PLANE:
            return -2.0 * np.log(t)
        return np.zeros_like(t)

    def gradient_factor(self, t):
        """Factor g(t) with |grad u| = g(t) |u'(t)| for u depending on t only:
        t on the half-plane, else the scalar 1.0, which multiplies exactly."""
        t = self.check_domain(t)
        if self.kind == HALF_PLANE:
            return t
        return 1.0

    def laplacian_of_distance(self, t):
        """Delta r on the radial models ((N-1)/r Euclidean, (N-1) coth r hyperbolic)."""
        t = self.check_domain(t)
        if self.kind == EUCLIDEAN:
            return (self.dim - 1) / t
        if self.kind == HYPERBOLIC:
            return (self.dim - 1) / np.tanh(t)
        raise UnsupportedModelError(f"distance Laplacian undefined for {self.kind}")


def euclidean_radial(n: int) -> ModelManifold:
    return ModelManifold(EUCLIDEAN, dim=n)


def hyperbolic_radial(n: int) -> ModelManifold:
    return ModelManifold(HYPERBOLIC, dim=n)


def interval(a: float, b: float) -> ModelManifold:
    return ModelManifold(INTERVAL, a=a, b=b)


def model_from_config(spec: dict) -> ModelManifold:
    """The model whose fields a config mapping gives, like {"kind": "euclidean", "dim": 3}."""
    return ModelManifold(**spec)
