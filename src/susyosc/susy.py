"""Higher-order SUSY partners of the harmonic oscillator.

Units are fixed so H0 = -(1/2) d^2/dx^2 + x^2/2 with spectrum E_n = n + 1/2.
A k-th order partner is generated by k Schrodinger seed solutions at
factorization energies eps_j = eps_top - (k - 1 - j), j = 0..k-1, all derived
from a single nodeless top seed by repeated application of the oscillator
lowering operator. The partner potential and its bound states are Wronskian
ratios of those seeds.

Wronskian derivatives are taken analytically: every derivative of a seed (or
of an oscillator eigenstate) is a polynomial combination

    u^(m) = alpha_m(x; eps) u + beta_m(x; eps) u'

with alpha/beta generated by the recurrence alpha_{m+1} = alpha_m' +
(x^2 - 2 eps) beta_m, beta_{m+1} = alpha_m + beta_m', which follows from the
Schrodinger equation itself.

Seeds, eigenstates and determinants are evaluated in extended precision
(x86 long double) and cast to float64 only after the final Wronskian ratios.
The determinants cancel heavily in the far tails, amplifying entry rounding
by several orders of magnitude; double-precision entries leave visible
point-to-point jitter in the states there, extended-precision entries do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Polynomial

from .errors import ConstructionError, DomainError, InvalidSpecError, SingularPotentialError
from .gridops import deriv2, simpson_weights
from .specfun import gamma_fn, hyp1f1

_SQRT2 = math.sqrt(2.0)

# work dtype for seed chains and Wronskian entries; float64 everywhere else
_WORK_DTYPE = np.longdouble

DEFAULT_X_MAX = 10.5
DEFAULT_N_POINTS = 2101
DEFAULT_N_MAX = 32


@dataclass(frozen=True)
class SystemSpec:
    """Parameters of one partner system.

    k        order of the transformation (number of seeds)
    eps_top  factorization energy of the top seed, must sit below E_0 = 1/2
    nu       asymmetry of the top seed, |nu| < 1 keeps it nodeless
    """
    k: int
    eps_top: float
    nu: float
    x_min: float = -DEFAULT_X_MAX
    x_max: float = DEFAULT_X_MAX
    n_points: int = DEFAULT_N_POINTS

    def __post_init__(self):
        self.validate()

    def validate(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise InvalidSpecError("k must be an integer >= 1, got %r" % (self.k,))
        if not self.eps_top < 0.5:
            raise InvalidSpecError(
                "eps_top must lie below the ground energy 1/2, got %g" % self.eps_top)
        if not abs(self.nu) < 1.0:
            raise InvalidSpecError("|nu| < 1 required for a nodeless seed, got %g" % self.nu)
        if not self.x_min < self.x_max:
            raise InvalidSpecError("empty grid: x_min >= x_max")
        if self.n_points < 401 or self.n_points % 2 == 0:
            raise InvalidSpecError("n_points must be odd and >= 401, got %d" % self.n_points)

    @property
    def energies(self) -> np.ndarray:
        """Factorization energies eps_j, ascending (j = 0 lowest)."""
        return self.eps_top - (self.k - 1 - np.arange(self.k, dtype=float))

    @property
    def eps0(self) -> float:
        return float(self.eps_top - (self.k - 1))

    @property
    def e_gap(self) -> float:
        """E_0 - eps_0, the gap the new levels sit below the old ground state."""
        return 0.5 - self.eps0

    def grid(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------

def seed_solution(x, eps: float, nu: float):
    """Even/odd mixed Schrodinger solution at energy eps, and its derivative.

    u(x) = e^{-x^2/2} [ 1F1(a1, 1/2; x^2)
                        + 2 nu x Gamma(a3)/Gamma(a1) 1F1(a3, 3/2; x^2) ],
    a1 = (1 - 2 eps)/4, a3 = a1 + 1/2. Normalized so u(0) = 1. The derivative
    uses d/dw 1F1(a, c; w) = (a/c) 1F1(a+1, c+1; w) with w = x^2, so no
    numerical differentiation enters anywhere.
    """
    a1 = (1.0 - 2.0 * eps) / 4.0
    a3 = a1 + 0.5
    for a in (a1, a3):
        if a <= 0.0 and a == math.floor(a):
            raise DomainError(
                "seed mixing coefficient hits a Gamma pole (eps=%g)" % eps)
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(float)
    w = x * x
    cnu = 2.0 * nu * gamma_fn(a3) / gamma_fn(a1)
    m1 = hyp1f1(a1, 0.5, w)
    m3 = hyp1f1(a3, 1.5, w)
    dm1 = 4.0 * a1 * hyp1f1(a1 + 1.0, 1.5, w)          # (1/x) dM1/dx
    dm3 = (4.0 / 3.0) * a3 * hyp1f1(a3 + 1.0, 2.5, w)  # (1/x) dM3/dx
    gauss = np.exp(-w / 2.0)
    u = gauss * (m1 + cnu * x * m3)
    du = gauss * (-x * (m1 + cnu * x * m3) + x * dm1 + cnu * (m3 + w * dm3))
    return u, du


@dataclass
class SeedFamily:
    """The k chained seeds evaluated on a grid, energies ascending."""
    x: np.ndarray
    energies: np.ndarray
    values: np.ndarray   # shape (k, n_points)
    derivs: np.ndarray   # shape (k, n_points)

    @property
    def k(self) -> int:
        return len(self.energies)


def build_seed_chain(spec: SystemSpec, x=None) -> SeedFamily:
    """Top seed from the closed form, the rest by the lowering operator.

    a^- = (d/dx + x)/sqrt(2) drops the factorization energy by one per step,
    so a single (eps_top, nu) pair fixes the whole family. The top seed must
    be nodeless on the grid; a sign change means the spec escaped its
    constraints and the construction would be singular.
    """
    if x is None:
        x = spec.grid()
    x = np.asarray(x, dtype=float).astype(_WORK_DTYPE)
    u, du = seed_solution(x, spec.eps_top, spec.nu)
    if np.any(u[:-1] * u[1:] < 0.0) or np.any(u == 0.0):
        raise InvalidSpecError("top seed changes sign on the grid; chain would be singular")
    k = spec.k
    vals = np.empty((k, x.size), dtype=_WORK_DTYPE)
    ders = np.empty((k, x.size), dtype=_WORK_DTYPE)
    vals[k - 1] = u
    ders[k - 1] = du
    eps = spec.eps_top
    for j in range(k - 2, -1, -1):
        v = (du + x * u) / _SQRT2
        dv = ((x * x - 2.0 * eps + 1.0) * u + x * du) / _SQRT2
        u, du = v, dv
        eps -= 1.0
        vals[j] = u
        ders[j] = du
    return SeedFamily(x=x, energies=spec.energies, values=vals, derivs=ders)


# ----------------------------------------------------------------------
# Oscillator eigenstates
# ----------------------------------------------------------------------

def oscillator_eigenstate(n: int, x):
    """Normalized harmonic oscillator state psi_n via the stable recurrence."""
    psi, _ = oscillator_eigenstate_pair(n, x)
    return psi


def oscillator_eigenstate_pair(n: int, x):
    """(psi_n, psi_n') using psi_n' = -x psi_n + sqrt(2n) psi_{n-1}."""
    if n < 0 or n != int(n):
        raise DomainError("oscillator level must be a non-negative integer")
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(float)
    p_prev = np.zeros_like(x)
    p = math.pi ** (-0.25) * np.exp(-x * x / 2.0)
    for m in range(int(n)):
        p_next = x * math.sqrt(2.0 / (m + 1.0)) * p - math.sqrt(m / (m + 1.0)) * p_prev
        p_prev, p = p, p_next
    dp = -x * p + math.sqrt(2.0 * n) * p_prev
    return p, dp


# ----------------------------------------------------------------------
# Wronskians with analytic derivatives
# ----------------------------------------------------------------------

def _alpha_beta_rows(eps: float, max_order: int):
    """Polynomials (alpha_m, beta_m) with u^(m) = alpha_m u + beta_m u'."""
    alpha = Polynomial([1.0])
    beta = Polynomial([0.0])
    pot = Polynomial([-2.0 * eps, 0.0, 1.0])   # x^2 - 2 eps
    rows = [(alpha, beta)]
    for _ in range(max_order):
        alpha, beta = alpha.deriv() + pot * beta, alpha + beta.deriv()
        rows.append((alpha, beta))
    return rows


def _batched_det(mat: np.ndarray) -> np.ndarray:
    """Determinant of a stack of small square matrices, shape (n, r, r).

    numpy's LAPACK path only handles float64, so extended-precision stacks go
    through a plain Gaussian elimination with partial pivoting. The matrices
    here are at most 6x6, the loop is over matrix size, not over the stack.
    """
    if mat.dtype == np.float64:
        return np.linalg.det(mat)
    m = np.array(mat, copy=True)
    npts, r, _ = m.shape
    det = np.ones(npts, dtype=m.dtype)
    idx = np.arange(npts)
    for c in range(r - 1):
        piv = np.argmax(np.abs(m[:, c:, c]), axis=1) + c
        swap = piv != c
        if np.any(swap):
            row_c = m[:, c].copy()
            row_p = m[idx, piv].copy()
            m[idx, piv] = row_c
            m[:, c] = row_p
            det[swap] = -det[swap]
        p = m[:, c, c]
        det = det * p
        safe = np.where(p == 0.0, 1.0, p)
        factors = m[:, c + 1:, c] / safe[:, None]
        factors[p == 0.0] = 0.0
        m[:, c + 1:, c + 1:] -= factors[:, :, None] * m[:, c, c + 1:][:, None, :]
    return det * m[:, r - 1, r - 1]


class _WronskianEngine:
    """Determinants of derivative-row matrices for a fixed column family.

    Columns are (values, derivs, energy) triples on a common grid; row m of
    the matrix is the m-th derivative of each column, expressed through the
    alpha/beta polynomials. Row-set derivatives follow from shifting one row
    index up wherever the shift does not collide with an existing row.
    Entries inherit the column dtype, so extended-precision seeds keep their
    extra digits through the determinant.
    """

    def __init__(self, x, columns, max_order):
        self.x = np.asarray(x)
        self.n_cols = len(columns)
        dtype = np.result_type(self.x, *(np.asarray(c[0]) for c in columns))
        self._entry = np.empty((max_order + 1, self.n_cols, self.x.size), dtype=dtype)
        for c, (val, der, eps) in enumerate(columns):
            for m, (al, be) in enumerate(_alpha_beta_rows(eps, max_order)):
                self._entry[m, c] = al(self.x) * val + be(self.x) * der

    def det(self, rows) -> np.ndarray:
        rows = list(rows)
        if len(rows) != self.n_cols:
            raise DomainError("row count must match column count")
        if self.n_cols == 1:
            return self._entry[rows[0], 0].copy()
        mat = self._entry[rows]                      # (r, c, n)
        return _batched_det(np.moveaxis(mat, 2, 0))  # (n, r, c) -> (n,)

    @staticmethod
    def shifted_rowsets(rows):
        rows = list(rows)
        present = set(rows)
        out = []
        for i, m in enumerate(rows):
            if m + 1 not in present:
                out.append(rows[:i] + [m + 1] + rows[i + 1:])
        return out

    def det_derivative(self, rows) -> np.ndarray:
        out = np.zeros(self.x.size, dtype=self._entry.dtype)
        for rs in self.shifted_rowsets(rows):
            out += self.det(rs)
        return out

    def det_second_derivative(self, rows) -> np.ndarray:
        out = np.zeros(self.x.size, dtype=self._entry.dtype)
        for rs in self.shifted_rowsets(rows):
            for rs2 in self.shifted_rowsets(rs):
                out += self.det(rs2)
        return out


def _seed_columns(seeds: SeedFamily):
    return [(seeds.values[j], seeds.derivs[j], seeds.energies[j])
            for j in range(seeds.k)]


def _denominator_data(seeds: SeedFamily):
    """(W, W'/W) for the seed Wronskian, shared by every state of a system."""
    eng = _WronskianEngine(seeds.x, _seed_columns(seeds), seeds.k)
    rows = list(range(seeds.k))
    denom = eng.det(rows)
    dlog_den = eng.det_derivative(rows) / denom
    return denom, dlog_den


def wronskian(seeds: SeedFamily, x=None) -> np.ndarray:
    """W(u_0, ..., u_{k-1}) sampled on the seeds' grid.

    If x is given it must be the grid the family was built on; to evaluate
    elsewhere, rebuild the chain on the desired points first
    (build_seed_chain(spec, x)).
    """
    if x is not None and not np.array_equal(np.asarray(x, dtype=float),
                                            np.asarray(seeds.x, dtype=float)):
        raise DomainError("seed family was built on a different grid; rebuild the chain")
    eng = _WronskianEngine(seeds.x, _seed_columns(seeds), seeds.k - 1)
    return np.asarray(eng.det(list(range(seeds.k))), dtype=float)


def potential(seeds: SeedFamily):
    """Partner potential V_k = x^2/2 - (ln W)'' with analytic W, W', W''.

    Raises SingularPotentialError if W crosses or touches zero anywhere on
    the grid, since the partner then has a singularity.
    """
    k = seeds.k
    eng = _WronskianEngine(seeds.x, _seed_columns(seeds), k + 1)
    rows = list(range(k))
    w = eng.det(rows)
    if np.any(w[:-1] * w[1:] <= 0.0) or np.any(np.abs(w) < 1e-280):
        raise SingularPotentialError("seed Wronskian vanishes inside the grid")
    w1 = eng.det_derivative(rows)
    w2 = eng.det_second_derivative(rows)
    # (ln W)'' = W''/W - (W'/W)^2, formed from ratios to keep the dynamic
    # range of W itself out of the subtraction
    r1 = w1 / w
    r2 = w2 / w
    x = seeds.x
    return np.asarray(x * x / 2.0 - (r2 - r1 * r1), dtype=float)


# ----------------------------------------------------------------------
# States of the partner system
# ----------------------------------------------------------------------

@dataclass
class GridState:
    """One normalized bound state of the partner Hamiltonian on the grid.

    derivs holds the analytic first derivative (from row-shifted Wronskians,
    not finite differences); the eigen-equation residual check is the one
    place second derivatives are taken numerically, on purpose, so it stays
    an independent test of the construction.
    """
    values: np.ndarray
    derivs: np.ndarray
    energy: float
    label: str
    subspace: str          # "iso" or "new"
    index: int
    sign_flip: int = 1     # stored = sign_flip * (state in its raw Crum gauge)
    norm_agreement: float = float("nan")   # |grid norm / closed form - 1| (iso only)
    residual_check: float = float("nan")   # eigen-equation residual (new only)


def _normalize_with_convention(raw: np.ndarray, raw_deriv: np.ndarray, weights: np.ndarray):
    nrm = math.sqrt(float(np.sum(weights * raw * raw)))
    if nrm == 0.0 or not np.isfinite(nrm):
        raise ConstructionError("state has zero or non-finite norm")
    # the ratio work is done; stored states are plain float64
    vals = np.asarray(raw / nrm, dtype=float)
    ders = np.asarray(raw_deriv / nrm, dtype=float)
    amax = np.max(np.abs(vals))
    # sign convention: the leftmost interior local maximum of |phi| (above a
    # noise floor) is positive
    mag = np.abs(vals)
    floor = 1e-8 * amax
    flip = 1
    interior = np.arange(1, len(vals) - 1)
    is_max = (mag[interior] >= mag[interior - 1]) & (mag[interior] >= mag[interior + 1]) \
        & (mag[interior] > floor)
    cand = interior[is_max]
    if cand.size and vals[cand[0]] < 0.0:
        flip = -1
        vals = -vals
        ders = -ders
    return vals, ders, nrm, flip


def iso_state(seeds: SeedFamily, n: int, weights=None, den=None) -> GridState:
    """Partner state at energy E_n = n + 1/2, image of oscillator level n.

    The raw Crum map is W(u_0..u_{k-1}, psi_n) / W(u_0..u_{k-1}); its L2 norm
    must match the closed form 2^{k/2} prod_j sqrt(E_n - eps_j) or the
    construction is rejected. den is the optional (W, W'/W) pair from
    _denominator_data, shared when many states are built at once.
    """
    if n < 0 or n != int(n):
        raise DomainError("iso_state level must be a non-negative integer")
    n = int(n)
    k = seeds.k
    x = seeds.x
    if weights is None:
        weights = simpson_weights(x.size, float(x[1] - x[0]))
    energy = n + 0.5
    psi, dpsi = oscillator_eigenstate_pair(n, x)
    cols = _seed_columns(seeds) + [(psi, dpsi, energy)]
    eng = _WronskianEngine(x, cols, k + 1)
    rows = list(range(k + 1))
    numer = eng.det(rows)
    dnumer = eng.det_derivative(rows)
    denom, dlog_den = den if den is not None else _denominator_data(seeds)
    raw = numer / denom
    draw = dnumer / denom - dlog_den * raw
    vals, ders, nrm, flip = _normalize_with_convention(raw, draw, weights)
    analytic = 2.0 ** (k / 2.0) * math.sqrt(float(np.prod(energy - seeds.energies)))
    agreement = abs(nrm / analytic - 1.0)
    if agreement > 1e-6:
        raise ConstructionError(
            "iso state n=%d: grid norm disagrees with closed form by %.3g" % (n, agreement))
    return GridState(values=vals, derivs=ders, energy=energy, label="n=%d" % n,
                     subspace="iso", index=n, sign_flip=flip, norm_agreement=agreement)


def new_state(seeds: SeedFamily, j: int, weights=None, potential_values=None,
              den=None) -> GridState:
    """Bound state created at eps_j, absent from the oscillator spectrum.

    For k = 1 this is 1/u_0; in general the numerator is the Wronskian of the
    seeds with u_j omitted. The result must satisfy the partner Schrodinger
    equation: its relative Hamiltonian residual above 1e-4 is treated as a
    construction failure rather than a warning.
    """
    k = seeds.k
    if j < 0 or j >= k:
        raise DomainError("new_state index out of range 0..k-1")
    x = seeds.x
    if weights is None:
        weights = simpson_weights(x.size, float(x[1] - x[0]))
    denom, dlog_den = den if den is not None else _denominator_data(seeds)
    if k == 1:
        raw = 1.0 / denom
        draw = -dlog_den * raw
    else:
        cols = [(seeds.values[i], seeds.derivs[i], seeds.energies[i])
                for i in range(k) if i != j]
        eng = _WronskianEngine(x, cols, k - 1)
        rows = list(range(k - 1))
        numer = eng.det(rows)
        dnumer = eng.det_derivative(rows)
        raw = numer / denom
        draw = dnumer / denom - dlog_den * raw
    vals, ders, _, flip = _normalize_with_convention(raw, draw, weights)
    energy = float(seeds.energies[j])
    if potential_values is None:
        potential_values = potential(seeds)
    res = hamiltonian_residual(vals, energy, potential_values, x[1] - x[0], weights)
    if res > 1e-4:
        raise ConstructionError(
            "new state j=%d fails the eigenvalue equation (residual %.3g)" % (j, res))
    return GridState(values=vals, derivs=ders, energy=energy, label="eps_%d" % j,
                     subspace="new", index=j, sign_flip=flip, residual_check=res)


def hamiltonian_residual(values, energy, potential_values, h, weights, trim: int = 5) -> float:
    """Relative L2 residual of (-1/2 phi'' + V phi - E phi) over the interior."""
    d2 = deriv2(np.asarray(values, dtype=float), h)
    sl = slice(trim, -trim)
    res = -0.5 * d2[sl] + (potential_values[sl] - energy) * values[sl]
    num = float(np.sum(weights[sl] * res * res))
    den = float(np.sum(weights[sl] * values[sl] * values[sl]))
    return math.sqrt(num / den)


# ----------------------------------------------------------------------
# Assembled system
# ----------------------------------------------------------------------

@dataclass
class SusySystem:
    spec: SystemSpec
    x: np.ndarray
    weights: np.ndarray
    potential: np.ndarray
    iso_states: list = field(default_factory=list)
    new_states: list = field(default_factory=list)
    n_max: int = DEFAULT_N_MAX

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    def state(self, subspace: str, index: int) -> GridState:
        pool = self.iso_states if subspace == "iso" else self.new_states
        for st in pool:
            if st.index == index:
                return st
        raise DomainError("no stored %s state with index %d" % (subspace, index))

    def inner(self, a, b) -> float:
        av = a.values if isinstance(a, GridState) else a
        bv = b.values if isinstance(b, GridState) else b
        return float(np.sum(self.weights * av * bv))

    def residual(self, state: GridState) -> float:
        return hamiltonian_residual(state.values, state.energy, self.potential,
                                    self.h, self.weights)

    @property
    def all_states(self):
        return list(self.new_states) + list(self.iso_states)

    def orthonormality_deviation(self) -> float:
        """max |<a|b> - delta_ab| over every pair of stored states."""
        states = self.all_states
        worst = 0.0
        for i, si in enumerate(states):
            for sj in states[i:]:
                want = 1.0 if sj is si else 0.0
                worst = max(worst, abs(self.inner(si, sj) - want))
        return worst


def build_system(spec: SystemSpec, n_max: int = DEFAULT_N_MAX) -> SusySystem:
    """Seeds, potential, and the full stored state family in one pass."""
    if n_max < 0:
        raise InvalidSpecError("n_max must be non-negative")
    seeds = build_seed_chain(spec)
    x = np.asarray(seeds.x, dtype=float)
    weights = simpson_weights(x.size, spec.h)
    v = potential(seeds)
    den = _denominator_data(seeds)
    iso = [iso_state(seeds, n, weights, den=den) for n in range(n_max + 1)]
    new = [new_state(seeds, j, weights, potential_values=v, den=den)
           for j in range(spec.k)]
    return SusySystem(spec=spec, x=x, weights=weights, potential=v,
                      iso_states=iso, new_states=new, n_max=n_max)
