"""Uniform-grid helpers: finite differences, Simpson weights, mask utilities.

Everything here assumes an equally spaced grid. Derivatives use five-point
central stencils (fourth order), which is what the residual checks elsewhere
in the package are calibrated against.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InsufficientSupportError


def simpson_weights(n_points: int, h: float) -> np.ndarray:
    """Composite Simpson weights for an odd number of uniform nodes."""
    if n_points < 3 or n_points % 2 == 0:
        raise DomainError("Simpson weights need an odd node count >= 3, got %d" % n_points)
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return w * (h / 3.0)


def deriv1(f: np.ndarray, h: float) -> np.ndarray:
    """Five-point first derivative along the last axis; the two points at
    each end come back NaN."""
    out = np.full_like(np.asarray(f, dtype=float), np.nan)
    out[..., 2:-2] = (f[..., :-4] - 8.0 * f[..., 1:-3] + 8.0 * f[..., 3:-1] - f[..., 4:]) / (12.0 * h)
    return out


def deriv2(f: np.ndarray, h: float) -> np.ndarray:
    """Five-point second derivative, NaN on the two-point boundary bands."""
    out = np.full_like(np.asarray(f, dtype=float), np.nan)
    out[2:-2] = (-f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]) / (12.0 * h * h)
    return out


def largest_run(mask: np.ndarray) -> tuple[int, int]:
    """The longest range [a, b) where mask is True, the first of equal ones;
    none is an InsufficientSupportError."""
    # the padded mask changes value at every run's start and one past its end
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    if edges.size == 0:
        raise InsufficientSupportError("mask has no True entries")
    starts, ends = edges[::2], edges[1::2]
    i = int(np.argmax(ends - starts))
    return int(starts[i]), int(ends[i])
