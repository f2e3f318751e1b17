"""The package's public surface: which settable values each function has.

Every function exported from susyosc is listed with the names of its
parameters that carry a default. A new keyword, or a default on an
existing one, has to be added here on purpose.
"""

import inspect

import susyosc

EXPECTED_DEFAULTS = {
    "annihilation_check": [],
    "apply_stencil": ["direction"],
    "assignment_for": [],
    "bessel_k": [],
    "build_operator_stencil": [],
    "build_seed_chain": [],
    "build_system": ["n_max"],
    "commutator_check": [],
    "companion_extremal_states": [],
    "construct_cs": [],
    "digamma": [],
    "divergence_witness": [],
    "evolve": [],
    "g_for_system": ["phi_rel_floor"],
    "g_from_extremal": ["phi_rel_floor"],
    "gamma_fn": [],
    "hyp0f2": [],
    "hyp1f1": [],
    "identity_resolution_check": [],
    "integral_zero_inf": ["rtol"],
    "iso_state": [],
    "kernel": [],
    "linearized_coeff": [],
    "mean_energy": [],
    "measure_fn": [],
    "mellin_moment": ["rtol"],
    "moment_check": [],
    "moment_strip": [],
    "natural_down_coeff": [],
    "new_state": [],
    "nilpotent_matrix": [],
    "pha_product_check": [],
    "piv_residual": [],
    "potential": [],
    "potential_from_g": [],
    "probabilities": [],
    "stencil_projection": ["direction"],
    "tricomi_u": ["rtol"],
    "wavefunction": [],
}


def test_exported_functions_and_their_defaults():
    got = {}
    for name, obj in vars(susyosc).items():
        if inspect.isfunction(obj):
            got[name] = [p.name for p in inspect.signature(obj).parameters.values()
                         if p.default is not p.empty]
    assert got == EXPECTED_DEFAULTS
