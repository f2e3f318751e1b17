"""Painleve IV transcendents read off from extremal states.

Every partner system carries three natural "extremal" energies: the old
ground level 1/2, the lowest created level eps_0, and eps_{k-1} + 1. Choosing
one of them as e1 (with a state phi_{e1} to differentiate) gives

    g(x) = -x - d/dx ln phi_{e1}(x),

which solves the Painleve IV equation

    g'' = g'^2 / (2 g) + (3/2) g^3 + 4 x g^2 + 2 (x^2 - a) g + b / g

with a = e2 + e3 - 2 e1 - 1 and b = -2 (e2 - e3)^2. The other two extremal
states can be rebuilt from g alone, which is the consistency handle the
verification suite leans on.

States with nodes still produce valid transcendents away from the nodes; the
extraction therefore masks a guard band around every detected node plus the
far tails where the state has no support, and all residual statistics are
taken over the surviving points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InsufficientSupportError, UsageError
from .gridops import contiguous_runs, cumtrapz, deriv1, deriv2, largest_run
from .susy import SystemSpec, SusySystem

DEFAULT_PHI_FLOOR = 1e-5
DEFAULT_GUARD_X = 0.35
DEFAULT_G_FLOOR = 1e-6


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


def extremal_roots(spec: SystemSpec) -> tuple:
    """The three distinguished energies of the system, in a fixed order."""
    return (0.5, spec.eps0, spec.eps_top + 1.0)


_ASSIGN_KEYS = ("half", "eps0", "top1")


def assignment_for(spec: SystemSpec, which: str = "half") -> Assignment:
    """Assignment with e1 picked by name; e2 >= e3 fixes the remaining order.

    which = "half" uses the old ground state (the default), "eps0" the lowest
    created state. "top1" would need the non-normalizable state at
    eps_{k-1} + 1, which the system does not store, so it is refused here.
    """
    roots = extremal_roots(spec)
    named = dict(zip(_ASSIGN_KEYS, roots))
    if which not in named:
        raise UsageError("unknown assignment %r (choose from %s)" % (which, list(_ASSIGN_KEYS)))
    if which == "top1":
        raise UsageError("assignment e1 = eps_top + 1 has no normalizable state to differentiate")
    e1 = named[which]
    rest = sorted((r for key, r in named.items() if key != which), reverse=True)
    return Assignment(e1=e1, e2=rest[0], e3=rest[1])


@dataclass
class GSolution:
    """Sampled transcendent with its validity bookkeeping.

    g is NaN wherever masked. valid marks points where g and its stencil
    derivatives may be used; window is the coarser support mask (state above
    its relative floor) before node guards were carved out.
    """
    x: np.ndarray
    g: np.ndarray
    valid: np.ndarray
    window: np.ndarray
    nodes: list = field(default_factory=list)
    assignment: Assignment | None = None

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def masked_fraction(self) -> float:
        return 1.0 - float(np.count_nonzero(self.valid)) / max(1, int(np.count_nonzero(self.window)))


def g_from_extremal(state_values, x, *, dstate_values=None,
                    phi_rel_floor: float = DEFAULT_PHI_FLOOR,
                    guard_x: float = DEFAULT_GUARD_X,
                    assignment: Assignment | None = None) -> GSolution:
    """Extract g = -x - phi'/phi from a sampled extremal state.

    When the caller owns an analytic derivative of the state (every state a
    built system stores does), pass it as dstate_values: the logarithmic
    derivative is then exact up to rounding. For bare samples the five-point
    stencil is used instead; that path amplifies any point-to-point noise in
    phi by 1/h, which for higher-order systems (Wronskian cancellation grows
    like x^{k(k-1)} eps) visibly pollutes the transcendent in the tails, so
    prefer the analytic route whenever it exists.

    Points where |phi| falls below phi_rel_floor * max|phi| are outside the
    window; detected nodes (sign changes next to the window) mask everything
    within guard_x of the crossing, since 1/phi makes every downstream
    stencil untrustworthy there.
    """
    phi = np.asarray(state_values, dtype=float)
    x = np.asarray(x, dtype=float)
    if phi.shape != x.shape:
        raise DomainError("state and grid shapes differ")
    amax = float(np.max(np.abs(phi)))
    if amax == 0.0:
        raise DomainError("state is identically zero")
    window = np.abs(phi) >= phi_rel_floor * amax
    h = x[1] - x[0]
    if dstate_values is not None:
        dphi = np.asarray(dstate_values, dtype=float)
        if dphi.shape != phi.shape:
            raise DomainError("state and derivative shapes differ")
    else:
        dphi = deriv1(phi, h)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = -x - dphi / phi
    valid = window & np.isfinite(g)
    if dstate_values is None:
        valid[:2] = False
        valid[-2:] = False

    # nodes: sign changes with at least one bracketing point inside the
    # window; the sample nearest a node may sit below the floor
    nodes = []
    sign_change = (phi[:-1] * phi[1:] < 0.0) & (window[:-1] | window[1:])
    for i in np.flatnonzero(sign_change):
        # linear interpolation of the crossing
        x0 = x[i] - phi[i] * (x[i + 1] - x[i]) / (phi[i + 1] - phi[i])
        nodes.append(float(x0))
        valid &= np.abs(x - x0) > guard_x
    g = np.where(valid, g, np.nan)
    return GSolution(x=x, g=g, valid=valid, window=window, nodes=nodes,
                     assignment=assignment)


def g_for_system(system: SusySystem, which: str = "half", **kwargs) -> GSolution:
    """Convenience: pick the extremal state of a built system and extract g."""
    assign = assignment_for(system.spec, which)
    if which == "half":
        state = system.state("iso", 0)
    else:
        state = system.state("new", 0)
    kwargs.setdefault("dstate_values", state.derivs)
    return g_from_extremal(state.values, system.x, assignment=assign, **kwargs)


@dataclass
class ResidualStats:
    max: float
    mean: float
    n_evaluated: int
    n_skipped_floor: int
    per_point: np.ndarray | None = None


def piv_residual(gsol: GSolution, a: float, b: float, *,
                 g_floor: float = DEFAULT_G_FLOOR,
                 min_fraction: float = 0.5,
                 keep_per_point: bool = False) -> ResidualStats:
    """Pointwise relative residual of the Painleve IV equation.

    At each usable point the residual |g'' - rhs| is normalized by the
    largest participating term, which keeps the statistic meaningful both
    near zeros of g (where b/g blows up) and in flat stretches. Points with
    |g| below g_floor are skipped and counted. If fewer than min_fraction of
    the window survives for evaluation, the sample is declared too thin.
    """
    x, g, h = gsol.x, gsol.g, gsol.h
    d1 = _masked_deriv(g, gsol.valid, h, order=1)
    d2 = _masked_deriv(g, gsol.valid, h, order=2)
    usable = gsol.valid & np.isfinite(d1) & np.isfinite(d2)
    skipped = usable & (np.abs(g) < g_floor)
    usable &= ~skipped

    n_window = int(np.count_nonzero(gsol.window[2:-2]))
    if n_window == 0 or np.count_nonzero(usable) < min_fraction * n_window:
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
    per_point = None
    if keep_per_point:
        per_point = np.full_like(g, np.nan)
        per_point[usable] = rel
    return ResidualStats(max=float(np.max(rel)), mean=float(np.mean(rel)),
                         n_evaluated=int(np.count_nonzero(usable)),
                         n_skipped_floor=int(np.count_nonzero(skipped)),
                         per_point=per_point)


def _masked_deriv(f, valid, h, order):
    """Stencil derivative that refuses to reach across masked points."""
    out = np.full_like(np.asarray(f, dtype=float), np.nan)
    fn = deriv1 if order == 1 else deriv2
    for a, b in contiguous_runs(valid):
        if b - a >= 5:
            seg = fn(f[a:b], h)
            out[a:b] = seg
    return out


def potential_from_g(gsol: GSolution, e1: float) -> np.ndarray:
    """Rebuild the partner potential from the transcendent alone:

        V = x^2/2 - g'/2 + g^2/2 + x g + e1 - 1/2.

    Returns NaN wherever g or its stencil derivative is unavailable.
    """
    x, g, h = gsol.x, gsol.g, gsol.h
    d1 = _masked_deriv(g, gsol.valid, h, order=1)
    with np.errstate(invalid="ignore"):
        return x * x / 2.0 - d1 / 2.0 + g * g / 2.0 + x * g + e1 - 0.5


def companion_extremal_states(gsol: GSolution, *, g_floor: float = DEFAULT_G_FLOOR,
                              guard_x: float = 0.1):
    """Rebuild the extremal states at e2 and e3 from g on one segment.

    phi_{e2} ~ (g'/(2g) - g/2 - d/g - x) * sqrt|g| * exp( int (g/2 - d/g) ),
    phi_{e3} the same with d -> -d, where d = e2 - e3. The log-derivative
    part of the exponent integrates in closed form to (1/2) ln|g|; only the
    regular part is accumulated by trapezoid. Zeros of g split the domain, so
    everything is built on the largest usable segment, and both outputs are
    L2-normalized there.

    Returns (x_segment, phi_e2, phi_e3, slice).
    """
    if gsol.assignment is None:
        raise DomainError("companion states need the assignment stored on the solution")
    d = gsol.assignment.e2 - gsol.assignment.e3
    x, g, h = gsol.x, gsol.g, gsol.h
    ok = gsol.valid & (np.abs(np.where(np.isfinite(g), g, 0.0)) > g_floor)
    # widen the exclusion around zeros of g slightly; 1/g integrands are the
    # worst behaved objects in the package
    zero_x = []
    for a, b in contiguous_runs(gsol.valid):
        seg = g[a:b]
        cross = np.flatnonzero(seg[:-1] * seg[1:] < 0.0)
        for i in cross:
            x0 = x[a + i] - seg[i] * h / (seg[i + 1] - seg[i])
            zero_x.append(float(x0))
    for x0 in zero_x:
        ok &= np.abs(x - x0) > guard_x
    a, b = largest_run(ok)
    if b - a < 24:
        raise InsufficientSupportError("largest zero-free segment has only %d points" % (b - a))
    xs, gs = x[a:b], g[a:b]
    d1 = deriv1(gs, h)
    # trapezoid part of the exponent, anchored mid-segment; the g'/2g piece
    # integrates exactly to (1/2) ln|g| and is added in closed form
    reg_e2 = cumtrapz(gs / 2.0 - d / gs, h)
    reg_e3 = cumtrapz(gs / 2.0 + d / gs, h)
    mid = (b - a) // 2
    log_amp = 0.5 * np.log(np.abs(gs))
    expo_2 = log_amp - log_amp[mid] + reg_e2 - reg_e2[mid]
    expo_3 = log_amp - log_amp[mid] + reg_e3 - reg_e3[mid]
    with np.errstate(invalid="ignore", over="ignore"):
        pref_2 = d1 / (2.0 * gs) - gs / 2.0 - d / gs - xs
        pref_3 = d1 / (2.0 * gs) - gs / 2.0 + d / gs - xs
        phi2 = pref_2 * np.exp(expo_2)
        phi3 = pref_3 * np.exp(expo_3)
    # the g' stencil leaves the two points at each segment end undefined;
    # hand back only the interior
    sl = slice(a + 2, b - 2)
    xs, phi2, phi3 = xs[2:-2], phi2[2:-2], phi3[2:-2]

    def norm(p):
        s = math.sqrt(float(np.sum(p * p) * h))
        return p / s if s > 0 else p
    return xs, norm(phi2), norm(phi3), sl
