"""Painleve IV transcendents read off from extremal states.

Every partner system carries three natural "extremal" energies: the old
ground level 1/2, the lowest created level eps_0, and eps_{k-1} + 1. Choosing
one of the two the system stores a state for as e1, g_for_system reads that
state phi_{e1} and its analytic derivative off the built system and forms

    g(x) = -x - d/dx ln phi_{e1}(x),

which solves the Painleve IV equation

    g'' = g'^2 / (2 g) + (3/2) g^3 + 4 x g^2 + 2 (x^2 - a) g + b / g

with a = e2 + e3 - 2 e1 - 1 and b = -2 (e2 - e3)^2. The transcendents of
the two stored extremal states are one Backlund step apart
(backlund_check); the command line judges g by its equation residual
(`susyosc painleve`), and `susyosc verify` by that Backlund edge and by
the ladder stencil built from g.

States with nodes still produce valid transcendents away from the nodes; the
extraction therefore masks a guard band around every detected node plus the
far tails where the state has no support, and all residual statistics are
taken over the surviving points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientSupportError, UsageError
from .gridops import deriv1, deriv2
from .susy import SystemSpec, SusySystem

DEFAULT_PHI_FLOOR = 1e-5
DEFAULT_GUARD_X = 0.35
DEFAULT_G_FLOOR = 1e-6
DEFAULT_MIN_FRACTION = 0.5


@dataclass(frozen=True)
class Assignment:
    """One labelling (e1, e2, e3) of the three extremal energies."""
    e1: float
    e2: float
    e3: float

    @property
    def a(self) -> float:
        return self.e2 + self.e3 - 2.0 * self.e1 - 1.0

    @property
    def b(self) -> float:
        return -2.0 * (self.e2 - self.e3) ** 2


_ASSIGN_KEYS = ("half", "eps0")


def assignment_for(spec: SystemSpec, which: str) -> Assignment:
    """Assignment with e1 picked by name; e2 >= e3 fixes the remaining order.

    which = "half" uses the old ground state, "eps0" the lowest created
    state; the third extremal energy eps_{k-1} + 1 belongs to a
    non-normalizable state the system does not store, so it is never e1.
    """
    if which not in _ASSIGN_KEYS:
        raise UsageError("unknown assignment %r (choose from %s)" % (which, list(_ASSIGN_KEYS)))
    e1, other = (0.5, spec.eps0) if which == "half" else (spec.eps0, 0.5)
    e2, e3 = sorted((other, spec.eps_top + 1.0), reverse=True)
    return Assignment(e1=e1, e2=e2, e3=e3)


@dataclass
class GSolution:
    """Sampled transcendent with its validity bookkeeping.

    g is NaN wherever masked, so its NaNs are the mask: valid is the derived
    isfinite(g), never stored beside it. window is the coarser support mask
    (state above its relative floor) before node guards were carved out.
    """
    x: np.ndarray
    g: np.ndarray
    window: np.ndarray
    assignment: Assignment

    @property
    def valid(self) -> np.ndarray:
        return np.isfinite(self.g)

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def masked_fraction(self) -> float:
        return 1.0 - float(np.count_nonzero(self.valid)) / max(1, int(np.count_nonzero(self.window)))


def g_for_system(system: SusySystem, which: str,
                 phi_rel_floor: float = DEFAULT_PHI_FLOOR) -> GSolution:
    """g = -x - phi'/phi from the named extremal state of a built system.

    The state's analytic derivative is used (every stored state carries
    one), so the logarithmic derivative is exact up to rounding; a stencil
    derivative would amplify the point-to-point noise of phi by 1/h and
    pollute the transcendent in the tails.

    Points where |phi| falls below phi_rel_floor * max|phi| are outside the
    window (a floor outside [0, 1) is a DomainError); detected nodes (sign
    changes next to the window) mask everything within DEFAULT_GUARD_X of
    the crossing, since 1/phi makes every downstream stencil untrustworthy
    there.
    """
    assignment = assignment_for(system.spec, which)
    if not 0.0 <= phi_rel_floor < 1.0:
        raise DomainError("phi_rel_floor must lie in [0, 1), got %r" % (phi_rel_floor,))
    state = system.state("iso" if which == "half" else "new", 0)
    x, phi = system.x, state.values
    window = np.abs(phi) >= phi_rel_floor * float(np.max(np.abs(phi)))
    with np.errstate(divide="ignore", invalid="ignore"):
        g = -x - state.derivs / phi
    valid = window & np.isfinite(g)

    # nodes: sign changes with at least one bracketing point inside the
    # window; the sample nearest a node may sit below the floor
    for x0 in _zero_crossings(x, phi, window[:-1] | window[1:]):
        valid &= np.abs(x - x0) > DEFAULT_GUARD_X
    g = np.where(valid, g, np.nan)
    return GSolution(x=x, g=g, window=window, assignment=assignment)


def _zero_crossings(x, y, pairs) -> np.ndarray:
    """x of each node of y: a sign change from i to i + 1 where pairs[i],
    interpolated linearly, or a sample y[i] == 0 between opposite signs
    where pairs[i - 1] or pairs[i] (an odd state at x = 0, say)."""
    i = np.flatnonzero((y[:-1] * y[1:] < 0.0) & pairs)
    on = 1 + np.flatnonzero((y[1:-1] == 0.0) & (y[:-2] * y[2:] < 0.0) & (pairs[:-1] | pairs[1:]))
    return np.concatenate((x[i] - y[i] * (x[i + 1] - x[i]) / (y[i + 1] - y[i]), x[on]))


@dataclass
class ResidualStats:
    max: float
    mean: float
    n_evaluated: int
    n_skipped_floor: int
    per_point: np.ndarray   # relative residual on the grid, NaN where not evaluated


def piv_residual(gsol: GSolution, a: float, b: float) -> ResidualStats:
    """Pointwise relative residual of the Painleve IV equation.

    At each usable point the residual |g'' - rhs| is normalized by the
    largest participating term, which keeps the statistic meaningful both
    near zeros of g (where b/g blows up) and in flat stretches. Points with
    |g| below DEFAULT_G_FLOOR are skipped and counted. If fewer than
    DEFAULT_MIN_FRACTION of the window survives for evaluation, the sample
    is declared too thin. A stencil derivative that reaches a masked point
    is NaN, so no point next to the mask is evaluated.
    """
    x, g, h = gsol.x, gsol.g, gsol.h
    d1 = deriv1(g, h)
    d2 = deriv2(g, h)
    usable = gsol.valid & np.isfinite(d1) & np.isfinite(d2)
    skipped = usable & (np.abs(g) < DEFAULT_G_FLOOR)
    usable &= ~skipped

    n_window = int(np.count_nonzero(gsol.window[2:-2]))
    if n_window == 0 or np.count_nonzero(usable) < DEFAULT_MIN_FRACTION * n_window:
        raise InsufficientSupportError(
            "only %d of %d window points evaluable" % (int(np.count_nonzero(usable)), n_window))

    gg = g[usable]
    xx = x[usable]
    terms = np.stack([
        d1[usable] ** 2 / (2.0 * gg),
        1.5 * gg ** 3,
        4.0 * xx * gg ** 2,
        2.0 * (xx * xx - a) * gg,
        b / gg,
    ])
    rhs = terms.sum(axis=0)
    lhs = d2[usable]
    scale = np.maximum(np.max(np.abs(terms), axis=0), np.abs(lhs))
    rel = np.abs(lhs - rhs) / scale
    per_point = np.full_like(g, np.nan)
    per_point[usable] = rel
    return ResidualStats(max=float(np.max(rel)), mean=float(np.mean(rel)),
                         n_evaluated=int(np.count_nonzero(usable)),
                         n_skipped_floor=int(np.count_nonzero(skipped)),
                         per_point=per_point)


def potential_from_g(gsol: GSolution, e1: float) -> np.ndarray:
    """Rebuild the partner potential from the transcendent alone:

        V = x^2/2 - g'/2 + g^2/2 + x g + e1 - 1/2.

    Returns NaN wherever g is masked or its stencil derivative reaches a
    masked point: within 2 points of the mask, and on runs under 5 points.
    """
    x, g = gsol.x, gsol.g
    with np.errstate(invalid="ignore"):
        return x * x / 2.0 - deriv1(g, gsol.h) / 2.0 + g * g / 2.0 + x * g + e1 - 0.5


def backlund_check(system: SusySystem) -> float:
    """Largest relative miss of the Backlund edge W_-(g_half) = W_+(g_eps0).

    With the analytic g' = -1 - 2 (V - e1) + (g + x)^2 on the stored potential V,
    the edge (Bassom, Clarkson & Hicks 1995) is, free of any sign for sqrt(-2b),

        g_eps0 (x^2 - 2V + 2k) = g_half (x^2 - 2V + 2 (eps_0 + eps_top)).

    The figure is the largest |lhs - rhs| / max(|lhs|, |rhs|) on the default-floor
    g_for_system solutions, over the points where both sides are finite and, as in
    piv_residual, both |g| reach DEFAULT_G_FLOOR (an odd g is 0 at x = 0, both sides
    rounding residue there); with no such point, an InsufficientSupportError.
    """
    spec, q = system.spec, system.x ** 2 - 2.0 * system.potential
    g_eps0, g_half = (g_for_system(system, which).g for which in ("eps0", "half"))
    lhs = g_eps0 * (q + 2.0 * spec.k)
    rhs = g_half * (q + 2.0 * (spec.eps0 + spec.eps_top))
    small = np.minimum(np.abs(g_eps0), np.abs(g_half)) < DEFAULT_G_FLOOR
    both = np.isfinite(lhs) & np.isfinite(rhs) & ~small
    if not np.any(both):
        raise InsufficientSupportError("the half and eps0 transcendents share no usable point")
    lhs, rhs = lhs[both], rhs[both]
    return float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))))
