"""Ladder operators of the partner systems, in two interchangeable forms.

Each lowering operator has one coefficient table over the eigenbasis, and
its raising partner is the adjoint: the same table one level higher. The
third-order l^- (natural_down_coeff) steps down each ladder with a
coefficient fixed by the product rule

    l^+ l^- = (H - 1/2)(H - eps_0)(H - eps_0 - k),

which annihilates both ladder bottoms; the linearized ell^-
(linearized_coeff) steps with sqrt(E - E_0).

The differential realization rebuilds l^+ = L_a^+ L_b^+ from a sampled
Painleve IV solution g(x),

    L_a^+ = (-d/dx + f)/sqrt(2),  L_b^+ = (d^2/dx^2 + g d/dx + h)/2,
    f = g + x,  h = g'/2 - g^2/2 - 2xg - x^2 + a,

and applies l^-, the formal adjoint composition. Applying the stencil to an
eigenfunction never takes more than one numerical derivative of the state:
phi'' and phi''' reduce through the eigenvalue equation, and phi' is stored
analytically on GridState anyway. The two routes are deliberately
independent so quadrature matrix elements of the stencil can be checked
against the tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstructionError,
    DomainError,
    InsufficientSupportError,
    InvalidSpecError,
)
from .gridops import deriv1, largest_run
from .painleve import GSolution, potential_from_g
from .specfun import _finite_number, _is_whole
from .susy import GridState, _level

_SQRT2 = math.sqrt(2.0)


# ----------------------------------------------------------------------
# Coefficient tables
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LadderCoeffs:
    """Spectral data (gap, k) that fixes both coefficient tables.

    gap is E_0 - eps_0, the distance from the old ground energy down to the
    bottom of the new ladder; the spectrum is E_n = n + 1/2 on the iso ladder
    and eps_j = eps_0 + j, j = 0..k-1, on the new one. A finite gap > k - 1,
    a float by SystemSpec's number rule, keeps every radicand of the tables
    (natural_down_coeff, linearized_coeff) non-negative. The coherent-state
    layer calls this type CSParams.
    """
    gap: float
    k: int

    def __post_init__(self):
        if not _is_whole(self.k) or self.k < 1:
            raise InvalidSpecError("k must be an integer >= 1, got %r" % (self.k,))
        object.__setattr__(self, "gap", _finite_number("gap", self.gap, InvalidSpecError))
        if not self.gap > self.k - 1:
            raise InvalidSpecError(
                "gap must exceed k-1 = %d, got %g" % (self.k - 1, self.gap))

    @classmethod
    def from_spec(cls, spec) -> "LadderCoeffs":
        return cls(gap=spec.e_gap, k=int(spec.k))

    @property
    def eps0(self) -> float:
        return 0.5 - self.gap


def _position(level, subspace: str, params: LadderCoeffs) -> int:
    """level as an int, refused unless it is a level of the named ladder."""
    if subspace == "iso":
        return _level(level, "iso level")
    if subspace != "new":
        raise DomainError("subspace must be 'iso' or 'new', got %r" % (subspace,))
    j = _level(level, "new level")
    if j >= params.k:
        raise DomainError("new level must be an integer in 0..k-1, got %d" % j)
    return j


def natural_down_coeff(level: int, subspace: str, params: LadderCoeffs) -> float:
    """d with l^- |level> = d |level - 1>, the one table of the third-order step.

    iso: d_n = sqrt(n (n + gap)(n + gap - k)), so d_0 = 0.
    new: e_j = sqrt((gap - j) j (k - j)) for j = 0..k-1, so e_0 = 0. The raw
    product (eps_j - E_0)(eps_j - eps_0)(eps_j - eps_0 - k) has two negative
    factors, so it is computed in that manifestly non-negative arrangement.
    """
    n = _position(level, subspace, params)
    if subspace == "iso":
        return math.sqrt(n * (n + params.gap) * (n + params.gap - params.k))
    return math.sqrt((params.gap - n) * n * (params.k - n))


def pha_product_check(params: LadderCoeffs, level: int, subspace: str):
    """(computed, expected) for the product rule at one ladder position.

    computed is the square of the down coefficient; expected evaluates
    (E - 1/2)(E - eps_0)(E - eps_0 - k) at the level's energy. The two are
    the same polynomial arranged differently, so they must agree to rounding.
    """
    d = natural_down_coeff(level, subspace, params)
    eps0 = params.eps0
    energy = level + 0.5 if subspace == "iso" else eps0 + level
    expected = (energy - 0.5) * (energy - eps0) * (energy - eps0 - params.k)
    return d * d, expected


def nilpotent_matrix(params: LadderCoeffs) -> np.ndarray:
    """Matrix of l^- restricted to the new subspace, in the |eps_j> basis.

    Strictly superdiagonal, so its k-th power vanishes identically; the only
    eigenvalue is zero, which is the obstruction to annihilation-operator
    coherent states living in this subspace.
    """
    k = params.k
    m = np.zeros((k, k))
    for j in range(1, k):
        m[j - 1, j] = natural_down_coeff(j, "new", params)
    return m


def linearized_coeff(level: int, subspace: str, params: LadderCoeffs) -> complex:
    """c with ell^- |level> = c |level - 1>, the one table of the linearized step.

    iso: c_n = sqrt(n). new: c_j = sqrt(eps_j - E_0) for j = 1..k-1 and
    c_0 = 0. Its adjoint raises with the same table one level higher,
    ell^+ |n> = c_{n+1} |n+1>, with c = 0 past the top of the new ladder.
    The new-subspace radicands eps_j - E_0 are negative, so those steps
    carry phase i; probabilities and energies never see it, and the i^j in
    the displaced-state coefficients is exactly this phase accumulating.
    """
    n = _position(level, subspace, params)
    if subspace == "iso":
        return complex(math.sqrt(n))
    return 0j if n == 0 else math.sqrt(params.gap - n) * 1j


def commutator_check(params: LadderCoeffs):
    """[ell^-, ell^+] on each basis vector: c_{n+1}^2 - c_n^2 on level n, from
    the ell^- table with c_k = 0 past the top of the new ladder.

    Returns (iso_values, new_values), the iso ladder on levels 0..8 and the
    whole new ladder. On the iso ladder every value is 1; on the new ladder
    the bottom and top states break the Heisenberg-Weyl algebra, giving
    eps_0 + 1 - E_0 and E_0 + 1 - eps_0 - k respectively, with 1 in between.
    """
    iso = [linearized_coeff(n, "iso", params) for n in range(10)]
    new = [linearized_coeff(j, "new", params) for j in range(params.k)] + [0j]
    return tuple(np.array([(hi * hi - lo * lo).real for lo, hi in zip(c, c[1:])])
                 for c in (iso, new))


# ----------------------------------------------------------------------
# Differential realization
# ----------------------------------------------------------------------

@dataclass
class OperatorStencil:
    """Sampled coefficients of l^+ = L_a^+ L_b^+, applied as its adjoint l^-.

    Arrays live on x[sl], the largest contiguous unmasked run of the g
    solution less 4 points at each end (the stencil derivative g' is
    undefined on the outer 2). dg is the transcendent's deriv1 and v its
    potential_from_g, cut to sl, so painleve and the stencil share one g'
    and one V(g); v makes applying the operator independent of the
    Wronskian route.
    """
    x: np.ndarray
    sl: slice
    g: np.ndarray
    dg: np.ndarray
    f: np.ndarray
    h: np.ndarray
    v: np.ndarray

    @property
    def h_step(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def xs(self) -> np.ndarray:
        return self.x[self.sl]

    @property
    def image_sl(self) -> slice:
        """Where apply_stencil's images are finite: sl less the 4 points at
        each end that its two derivative passes cannot reach."""
        return slice(self.sl.start + 4, self.sl.stop - 4)


def build_operator_stencil(gsol: GSolution) -> OperatorStencil:
    """Sample the third-order operator coefficients from a g solution.

    The solution brings its grid, mask and assignment. The support is the
    largest contiguous unmasked run; none at all, less than half of the
    unmasked points, or fewer than 12 points inside its 4-point edge bands
    is too little to represent the operator (InsufficientSupportError).

    Two practical notes. A nodeless extremal state (the eps0 assignment)
    gives a pole-free g and hence one support run covering the whole window;
    the e1 = 1/2 state has k nodes and splits the line. And for quadrature
    work it pays to extract g with a deeper phi_rel_floor (1e-8 or so): the
    eps0 state is evaluated in extended precision (the iso states in float64)
    with an analytic derivative, so the transcendent stays clean well below
    the default display floor, and the wider window keeps state tails inside
    the integrals.
    """
    asg = gsol.assignment
    x, g, valid = gsol.x, gsol.g, gsol.valid
    lo, hi = largest_run(valid)
    n_valid = int(np.count_nonzero(valid))
    if (hi - lo) < 0.5 * n_valid:
        raise InsufficientSupportError(
            "largest contiguous g run holds %d of %d unmasked points"
            % (hi - lo, n_valid))
    # deriv1 cannot reach the run's outer 2 points; 2 more at each end are a
    # margin from the run's edge (the state's floor, a node guard or the grid end)
    sl = slice(lo + 4, hi - 4)
    if sl.stop - sl.start < 12:
        raise InsufficientSupportError("g support too narrow for the stencil")
    gs, xs = g[sl], x[sl]
    dg = deriv1(g, gsol.h)[sl]
    st = OperatorStencil(
        x=x, sl=sl, g=gs, dg=dg, f=gs + xs,
        h=0.5 * dg - 0.5 * gs * gs - 2.0 * xs * gs - xs * xs + asg.a,
        v=potential_from_g(gsol, asg.e1)[sl])
    for name, arr in (("g", st.g), ("g'", st.dg), ("f", st.f), ("h", st.h), ("V", st.v)):
        if not np.all(np.isfinite(arr)):
            raise ConstructionError("non-finite %s coefficient on the support" % name)
    return st


def _pair_derivative(op: OperatorStencil, c: np.ndarray, energy: float) -> np.ndarray:
    """d/dx on c0 phi + c1 phi', the pair (c0, c1) stacked as c, shape (2, n).

    phi'' reduces through the eigenvalue equation to 2 (V - E) phi, so the
    derivative only ever differentiates the smooth coefficient arrays; the
    two edge points a stencil cannot reach turn NaN and stay NaN.
    """
    return deriv1(c, op.h_step) + np.stack((2.0 * c[1] * (op.v - energy), c[0]))


def apply_stencil(op: OperatorStencil, state: GridState):
    """Image of an eigenfunction under the stencil's l^-, on the full grid.

    The state's analytic derivative and its energy are used. Points the
    composed stencils cannot reach are NaN; the image is exactly linear in
    the state.
    """
    energy = _finite_number("apply_stencil state energy", state.energy)
    # L_a^- = (d/dx + f)/sqrt(2), then L_b^- = (d^2 - g d + (h - g'))/2
    c = np.stack((op.f, np.ones(op.xs.size))) / _SQRT2
    dc = _pair_derivative(op, c, energy)
    ddc = _pair_derivative(op, dc, energy)
    out = 0.5 * (ddc - op.g * dc + (op.h - op.dg) * c)
    image = np.full(op.x.size, np.nan)
    image[op.sl] = out[0] * state.values[op.sl] + out[1] * state.derivs[op.sl]
    return image


def stencil_projection(op: OperatorStencil, bra: GridState, ket: GridState, weights) -> float:
    """Projection coefficient <bra | l^- ket>_W / <bra | bra>_W.

    Numerator and denominator share the support window W, so if the image is
    proportional to bra pointwise the result is the proportionality constant
    independent of how much of either state the window cuts off. The
    composed stencil erodes a few points at each support edge and the
    residual error concentrates there, so a band of 5 more points is
    excluded beyond the NaN region.
    """
    image = apply_stencil(op, ket)
    bv = bra.values
    sl = slice(op.image_sl.start + 5, op.image_sl.stop - 5)
    if sl.stop - sl.start < 3:
        raise InsufficientSupportError("stencil support too narrow after edge bands")
    den = float(np.sum(weights[sl] * bv[sl] * bv[sl]))
    if den == 0.0:
        raise DomainError("bra state vanishes on the stencil support")
    return float(np.sum(weights[sl] * bv[sl] * image[sl])) / den
