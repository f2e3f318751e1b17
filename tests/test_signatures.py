"""The package's public surface: which settable values each function and
class has.

Every function exported from susyosc, and the constructor of every exported
class, is listed with the names of its parameters that carry a default. A
new keyword, or a default on an existing one, has to be added here on
purpose; so does a dataclass field that is settable at construction. Classes
with no signature of their own (the plain error types) are skipped.
"""

import inspect

import susyosc

EXPECTED_DEFAULTS = {
    "annihilation_check": [],
    "apply_stencil": [],
    "assignment_for": [],
    "backlund_check": [],
    "bessel_k": [],
    "build_operator_stencil": [],
    "build_seed_chain": [],
    "build_system": ["n_max"],
    "commutator_check": [],
    "construct_cs": [],
    "digamma": [],
    "divergence_witness": [],
    "evolve": [],
    "g_for_system": ["phi_rel_floor"],
    "gamma_fn": [],
    "hyp0f2": [],
    "hyp1f1": [],
    "identity_resolution_check": [],
    "integral_zero_inf": ["rtol"],
    "kernel": [],
    "linearized_coeff": [],
    "mean_energy": [],
    "measure_fn": [],
    "mellin_moment": ["rtol"],
    "moment_check": [],
    "moment_strip": [],
    "natural_down_coeff": [],
    "nilpotent_matrix": [],
    "pha_product_check": [],
    "piv_residual": [],
    "potential": [],
    "potential_from_g": [],
    "probabilities": [],
    "stencil_projection": [],
    "tricomi_u": ["rtol"],
    "wavefunction": [],
}

EXPECTED_CLASS_DEFAULTS = {
    "Assignment": [],
    "CSParams": [],
    "CoherentState": [],
    "Family": [],
    "GSolution": [],
    "GridState": [],
    "LadderCoeffs": [],
    "MeasureFamily": [],
    "MeasureFn": [],
    "OperatorStencil": [],
    "QuadratureError": ["nodes_used", "last_estimate", "last_change"],
    "ResidualStats": [],
    "SeedFamily": [],
    "SeriesError": ["terms_used", "partial_sum"],
    "SusySystem": [],
    "SystemSpec": ["x_min", "x_max", "n_points"],
    "TruncationError": ["required", "cap"],
}


def _defaults(obj):
    return [p.name for p in inspect.signature(obj).parameters.values()
            if p.default is not p.empty]


def test_exported_functions_and_their_defaults():
    got = {name: _defaults(obj) for name, obj in vars(susyosc).items()
           if inspect.isfunction(obj)}
    assert got == EXPECTED_DEFAULTS


def test_exported_classes_and_their_constructor_defaults():
    got = {}
    for name, obj in vars(susyosc).items():
        if inspect.isclass(obj):
            try:
                got[name] = _defaults(obj)
            except ValueError:   # a builtin-derived error type with no signature
                pass
    assert got == EXPECTED_CLASS_DEFAULTS
    assert list(inspect.signature(susyosc.MeasureFn).parameters) == ["family", "params"]
