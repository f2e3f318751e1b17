#!/usr/bin/env python3
"""The four coherent-state families, their no-go twins, and the measures.

Two constructions (annihilation-operator eigenstates, displacement with
the factorized operators) meet two ladders (infinite oscillator-like,
finite new). Only four of the six combinations exist; the script builds
all four at fixed labels, evolves one in time, shows the divergence and
nilpotency witnesses for the missing two, and finishes with the Mellin
moment check that backs the identity resolutions.

Run:  python3 demos/coherent_family_tour.py
"""

import cmath

import numpy as np

from susyosc import (
    CSParams,
    Family,
    MeasureFamily,
    construct_cs,
    divergence_witness,
    evolve,
    kernel,
    mean_energy,
    measure_fn,
    moment_check,
    moment_strip,
    nilpotent_matrix,
    probabilities,
)

params = CSParams(gap=6.3, k=4)
print("spectral data: gap=%g, k=%d (new ladder at %g..%g)"
      % (params.gap, params.k, params.eps0, params.eps0 + params.k - 1))
print()

labels = {
    Family.AOCS_ISO: 2.0 + 1.0j,
    Family.DOCS_NEW: 1.0 - 2.0j,
    Family.LIN_ISO: 1.2 * cmath.exp(-2.78j),
    Family.LIN_NEW: 1.5 * cmath.exp(-4.93j),
}
for fam, z in labels.items():
    cs = construct_cs(fam, z, params)
    probs = probabilities(cs)
    print("%-9s z=%.2f@%+.2f: %2d levels, <H>=%+.6f, top weight %.3f at %s"
          % (fam, abs(z), cmath.phase(z), cs.coeffs.size, mean_energy(cs),
             probs.max(), "level %d" % int(np.argmax(probs))))
print()

cs = construct_cs(Family.LIN_NEW, labels[Family.LIN_NEW], params)
moved, phase = evolve(cs, 0.8)
print("time evolution only rotates the label: z -> %.3f@%+.3f, global phase %+.3f rad"
      % (abs(moved.z), cmath.phase(moved.z), cmath.phase(phase)))
print("overlap with the start: |<z(0)|z(t)>| = %.4f"
      % abs(kernel(Family.LIN_NEW, cs.z, moved.z, params)))
print()

print("the two missing combinations:")
sums = divergence_witness(1.0, params)
print("  displacement on the iso ladder: norm series partial sums reach %.1e"
      " after %d terms (diverges for every nonzero label)"
      % (sums[-1], sums.size - 1))
m = nilpotent_matrix(params)
print("  annihilation states on the new ladder: ||m^%d||=%g, ||m^%d||=%g"
      % (params.k - 1, np.linalg.norm(np.linalg.matrix_power(m, params.k - 1)),
         params.k, np.linalg.norm(np.linalg.matrix_power(m, params.k))))
print()

print("identity resolutions reduce to Mellin moments == Gamma products:")
for fam in MeasureFamily.ALL:
    meas = measure_fn(fam, params)
    lo, hi = moment_strip(meas)
    hi = min(hi, lo + 4.0)
    worst = 0.0
    for f in (0.25, 0.5, 0.75):
        got, want = moment_check(meas, lo + f * (hi - lo))
        worst = max(worst, abs(got / want - 1.0))
    print("  %s: strip (%g, %s), worst relative moment error %.2e"
          % (fam, lo, "inf" if hi > 1e30 else "%g" % moment_strip(meas)[1], worst))
