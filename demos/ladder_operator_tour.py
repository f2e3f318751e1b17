#!/usr/bin/env python3
"""Third-order ladder operators: tables, algebra, and the grid stencil.

The lowering operator acts on two ladders at once. On the oscillator-like
one it behaves like a deformed annihilation operator; restricted to the
finite new ladder it is nilpotent, which is ultimately why one of the four
coherent-state constructions has no states there. The script prints the
coefficient tables, verifies the product rule and commutators, shows the
nilpotent collapse, and cross-checks the abstract tables against the
sampled differential stencil acting on actual grid states.

Run:  python3 demos/ladder_operator_tour.py
"""

import numpy as np

from susyosc import (
    LadderCoeffs,
    SystemSpec,
    build_system,
    commutator_check,
    g_for_system,
    natural_down_coeff,
    nilpotent_matrix,
    pha_product_check,
)
from susyosc.ladder import build_operator_stencil, stencil_projection

spec = SystemSpec(k=4, eps_top=-2.8, nu=-0.9)
params = LadderCoeffs.from_spec(spec)

print("coefficient tables (lowering direction)")
print("  iso  n=1..6 :", ", ".join("%.4f" % natural_down_coeff(n, "iso", params)
                                   for n in range(1, 7)))
print("  new  j=1..%d:" % (spec.k - 1),
      ", ".join("%.4f" % natural_down_coeff(j, "new", params)
                for j in range(1, spec.k)))
print()

worst = max(abs(a - b) for level in range(6)
            for a, b in [pha_product_check(params, level, "iso")])
print("product rule l+ l- = prod(H - shifts), worst deviation %.2e" % worst)

iso_c, new_c = commutator_check(params)
print("linearized [ell-, ell+] diags: iso ->", np.round(iso_c, 12))
print("                               new ->", np.round(new_c, 12))
print()

m = nilpotent_matrix(params)
power = np.eye(spec.k)
print("restricted lowering operator on the new subspace (k=%d):" % spec.k)
for p in range(1, spec.k + 1):
    power = power @ m
    print("  ||m^%d||_F = %g" % (p, np.linalg.norm(power)))
print("the k-th power vanishes exactly: the matrix is strictly triangular")
print("with integer-structured zeros, not merely small entries.")
print()

print("grid cross-check (independent route: quadrature vs bookkeeping)")
system = build_system(spec, n_max=8)
gsol = g_for_system(system, "eps0", phi_rel_floor=1e-8)
op = build_operator_stencil(gsol)
w = system.weights
for n in (1, 2, 3):
    got = stencil_projection(op, system.state("iso", n - 1),
                             system.state("iso", n), w)
    ref = natural_down_coeff(n, "iso", params)
    print("  <iso %d| l- |iso %d> : stencil %.6f, table %.6f  (rel %.1e)"
          % (n - 1, n, got, ref, abs(got / ref - 1.0)))
for j in (1, 2, 3):
    got = stencil_projection(op, system.state("new", j - 1),
                             system.state("new", j), w)
    ref = natural_down_coeff(j, "new", params)
    print("  <new %d| l- |new %d> : stencil %.6f, table %.6f  (rel %.1e)"
          % (j - 1, j, got, ref, abs(got / ref - 1.0)))
