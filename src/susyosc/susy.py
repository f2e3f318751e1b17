"""Higher-order SUSY partners of the harmonic oscillator.

Units are fixed so H0 = -(1/2) d^2/dx^2 + x^2/2 with spectrum E_n = n + 1/2.
A k-th order partner is generated by k Schrodinger seed solutions at
factorization energies eps_j = eps_top - (k - 1 - j), j = 0..k-1, all derived
from a single nodeless top seed by repeated application of the oscillator
lowering operator. The partner potential and its bound states are Wronskian
ratios of those seeds.

Wronskian derivatives are taken analytically. Every column (seed or
oscillator eigenstate) solves u'' = (x^2 - 2 eps) u, so Leibniz's rule gives
its derivative rows u^(m+2) = (x^2 - 2 eps) u^(m) + 2 m x u^(m-1) +
m (m - 1) u^(m-2) straight on the grid. A system keeps one table of rows
m = 0..k+1 and of the seed-block minors over them, each computed once: W, W'
and W'' are minors, an iso numerator W(u_0..u_{k-1}, psi_n) and its
derivative are Laplace expansions along the psi_n column with the same
minors as cofactors for every n, and a new state's numerator is a
(k-1)-column determinant of the same rows.

Seeds, eigenstates and determinants are evaluated in extended precision
(x86 long double) and cast to float64 only after the final Wronskian ratios.
The determinants cancel heavily in the far tails, amplifying entry rounding
by several orders of magnitude; double-precision entries leave visible
point-to-point jitter in the states there, extended-precision entries do not.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

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

    @functools.cached_property
    def _table(self) -> "_RowTable":
        # shared by potential and every state; the family is read-only once built
        return _RowTable(self)


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

def _oscillator_ladder(x):
    """(psi_n, psi_n') for n = 0, 1, 2, ... by the stable recurrence."""
    p_prev = np.zeros_like(x)
    p = math.pi ** (-0.25) * np.exp(-x * x / 2.0)
    n = 0
    while True:
        yield p, -x * p + math.sqrt(2.0 * n) * p_prev
        p_next = x * math.sqrt(2.0 / (n + 1.0)) * p - math.sqrt(n / (n + 1.0)) * p_prev
        p_prev, p = p, p_next
        n += 1


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
    return next(itertools.islice(_oscillator_ladder(x), int(n), None))


# ----------------------------------------------------------------------
# Wronskians from Leibniz rows and shared seed minors
# ----------------------------------------------------------------------

def _leibniz_rows(values, derivs, energies, x, max_order: int) -> np.ndarray:
    """Rows u^(m), m = 0..max_order >= 1, of (c, n) columns at energies (c,).

    u^(m+2) = (x^2 - 2 eps) u^(m) + 2 m x u^(m-1) + m (m - 1) u^(m-2).
    """
    q = x * x - 2.0 * np.asarray(energies, dtype=float)[:, None]
    # two zero rows below u^(0) stand in for the terms that m = 0, 1 drop
    out = np.zeros((max_order + 3,) + np.shape(values), dtype=np.result_type(x, values))
    out[2], out[3] = values, derivs
    for m in range(max_order - 1):
        out[m + 4] = q * out[m + 2] + (2.0 * m) * x * out[m + 1] + (m * (m - 1.0)) * out[m]
    return out[2:]


def _derivative_rowsets(rows, order: int) -> list:
    """Row sets whose determinants sum to the order-th derivative of det(rows).

    Each derivative raises one row index; raising onto a present index
    repeats a row and drops out. Raised sets stay ascending.
    """
    sets = [tuple(rows)]
    for _ in range(order):
        sets = [rs[:i] + (m + 1,) + rs[i + 1:] for rs in sets
                for i, m in enumerate(rs) if m + 1 not in rs]
    return sets


def _batched_det(mat: np.ndarray) -> np.ndarray:
    """Determinant of a stack of small square matrices, shape (n, r, r).

    numpy's LAPACK path only handles float64, so extended-precision stacks go
    through a plain Gaussian elimination with partial pivoting. The matrices
    here are at most k x k, the loop is over matrix size, not over the stack.
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


class _RowTable:
    """Leibniz rows u_j^(m), m = 0..k+1, and the determinants of one system.

    Determinants are memoized: the seed Wronskian and its derivatives, and
    every cofactor of the Laplace expansion along the psi_n column (seed
    minors, at most 2k+1 of the C(k+2, k)), are computed once and shared by
    all n. psi_n comes from one oscillator ladder that steps forward as n
    grows.
    """

    def __init__(self, seeds: "SeedFamily"):
        self.x = seeds.x
        self.k = seeds.k
        self.rows = _leibniz_rows(seeds.values, seeds.derivs, seeds.energies,
                                  self.x, self.k + 1)
        self._dets = {}
        self._ladder, self._psi_n, self._psi = _oscillator_ladder(self.x), -1, None

    def det(self, rows, cols=None, order: int = 0) -> np.ndarray:
        """order-th derivative of det over ascending rows and seed cols (default all)."""
        cols = tuple(range(self.k) if cols is None else cols)
        out = 0
        for rs in _derivative_rowsets(rows, order):
            if (rs, cols) not in self._dets:
                mat = self.rows[np.ix_(rs, cols)]   # (r, c, n)
                self._dets[rs, cols] = _batched_det(np.moveaxis(mat, 2, 0))
            out = out + self._dets[rs, cols]
        return out

    def psi_rows(self, n: int) -> np.ndarray:
        """Leibniz rows psi_n^(m), m = 0..k+1, shape (k+2, n_points)."""
        if n < self._psi_n:
            self._ladder, self._psi_n = _oscillator_ladder(self.x), -1
        while self._psi_n < n:
            self._psi = next(self._ladder)
            self._psi_n += 1
        psi, dpsi = self._psi
        return _leibniz_rows(psi[None], dpsi[None], [n + 0.5], self.x, self.k + 1)[:, 0]

    def iso_numerator(self, n: int):
        """W(u_0..u_{k-1}, psi_n) and its derivative, expanded along psi_n."""
        psi = self.psi_rows(n)
        return [sum((-1.0) ** (p + self.k) * psi[r] * self.det(rs[:p] + rs[p + 1:])
                    for rs in _derivative_rowsets(range(self.k + 1), order)
                    for p, r in enumerate(rs))
                for order in (0, 1)]


def _denominator_data(seeds: SeedFamily):
    """(W, W'/W) for the seed Wronskian, shared by every state of a system."""
    rows = tuple(range(seeds.k))
    denom = seeds._table.det(rows)
    return denom, seeds._table.det(rows, order=1) / denom


def wronskian(seeds: SeedFamily) -> np.ndarray:
    """W(u_0, ..., u_{k-1}) sampled on the seeds' grid; to evaluate elsewhere,
    rebuild the chain on the desired points first (build_seed_chain(spec, x)).
    """
    return np.asarray(seeds._table.det(tuple(range(seeds.k))), dtype=float)


def potential(seeds: SeedFamily):
    """Partner potential V_k = x^2/2 - (ln W)'' with analytic W, W', W''.

    Raises SingularPotentialError if W crosses or touches zero anywhere on
    the grid, since the partner then has a singularity.
    """
    table = seeds._table
    rows = tuple(range(seeds.k))
    w = table.det(rows)
    if np.any(w[:-1] * w[1:] <= 0.0) or np.any(np.abs(w) < 1e-280):
        raise SingularPotentialError("seed Wronskian vanishes inside the grid")
    # (ln W)'' = W''/W - (W'/W)^2, formed from ratios to keep the dynamic
    # range of W itself out of the subtraction
    r1 = table.det(rows, order=1) / w
    r2 = table.det(rows, order=2) / w
    return np.asarray(seeds.x * seeds.x / 2.0 - (r2 - r1 * r1), dtype=float)


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


def _normalize_with_convention(seeds: SeedFamily, numer, dnumer, weights: np.ndarray):
    """numer/W and its derivative, normalized and in the sign convention."""
    denom, dlog_den = _denominator_data(seeds)
    raw = numer / denom
    raw_deriv = dnumer / denom - dlog_den * raw
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


def iso_state(seeds: SeedFamily, n: int, weights: np.ndarray) -> GridState:
    """Partner state at energy E_n = n + 1/2, image of oscillator level n.

    The raw Crum map is W(u_0..u_{k-1}, psi_n) / W(u_0..u_{k-1}); its L2 norm
    must match the closed form 2^{k/2} prod_j sqrt(E_n - eps_j) or the
    construction is rejected. Numerator and W both come from the seeds'
    shared table.
    """
    if n < 0 or n != int(n):
        raise DomainError("iso_state level must be a non-negative integer")
    n = int(n)
    k = seeds.k
    energy = n + 0.5
    numer, dnumer = seeds._table.iso_numerator(n)
    vals, ders, nrm, flip = _normalize_with_convention(seeds, numer, dnumer, weights)
    analytic = 2.0 ** (k / 2.0) * math.sqrt(float(np.prod(energy - seeds.energies)))
    agreement = abs(nrm / analytic - 1.0)
    if agreement > 1e-6:
        raise ConstructionError(
            "iso state n=%d: grid norm disagrees with closed form by %.3g" % (n, agreement))
    return GridState(values=vals, derivs=ders, energy=energy, label="n=%d" % n,
                     subspace="iso", index=n, sign_flip=flip, norm_agreement=agreement)


def new_state(seeds: SeedFamily, j: int, weights: np.ndarray,
              potential_values: np.ndarray) -> GridState:
    """Bound state created at eps_j, absent from the oscillator spectrum.

    For k = 1 this is 1/u_0; in general the numerator is the Wronskian of the
    seeds with u_j omitted. The result must satisfy the partner Schrodinger
    equation: its relative Hamiltonian residual above 1e-4 is treated as a
    construction failure rather than a warning.
    """
    k = seeds.k
    if j < 0 or j >= k:
        raise DomainError("new_state index out of range 0..k-1")
    rows, cols = tuple(range(k - 1)), [i for i in range(k) if i != j]
    # k = 1 leaves the empty determinant, 1
    numer, dnumer = (seeds._table.det(rows, cols), seeds._table.det(rows, cols, 1)) \
        if k > 1 else (1.0, 0.0)
    vals, ders, _, flip = _normalize_with_convention(seeds, numer, dnumer, weights)
    energy = float(seeds.energies[j])
    res = hamiltonian_residual(vals, energy, potential_values, seeds.x[1] - seeds.x[0], weights)
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
    iso = [iso_state(seeds, n, weights) for n in range(n_max + 1)]
    new = [new_state(seeds, j, weights, v) for j in range(spec.k)]
    return SusySystem(spec=spec, x=x, weights=weights, potential=v,
                      iso_states=iso, new_states=new, n_max=n_max)
