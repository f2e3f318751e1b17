"""Transcendent extraction and the nonlinear-ODE residual machinery.

The central claim is that g = -x - (ln phi_e1)' built from an extremal state
of a partner system satisfies the quartic Painleve equation with parameters
fixed by the three extremal energies. The tests check the residual directly,
shrink it under grid refinement at the stencil's order, and rebuild both the
potential and the companion extremal states from g alone.
"""

import numpy as np
import pytest

from susyosc.errors import DomainError, InsufficientSupportError, UsageError
from susyosc.painleve import (
    Assignment,
    GSolution,
    assignment_for,
    companion_extremal_states,
    extremal_roots,
    g_for_system,
    g_from_extremal,
    piv_residual,
    potential_from_g,
)
from susyosc.susy import SystemSpec, build_system


def test_extremal_roots(k4_spec, k1_spec):
    assert np.allclose(extremal_roots(k4_spec), (0.5, -5.8, -1.8))
    assert np.allclose(extremal_roots(k1_spec), (0.5, -1.0, 0.0))


def test_assignment_parameters(k4_spec):
    half = assignment_for(k4_spec, "half")
    assert np.allclose((half.e1, half.e2, half.e3), (0.5, -1.8, -5.8))
    assert abs(half.a - (-9.6)) < 1e-12
    assert abs(half.b - (-32.0)) < 1e-12
    eps0 = assignment_for(k4_spec, "eps0")
    assert np.allclose((eps0.e1, eps0.e2, eps0.e3), (-5.8, 0.5, -1.8))
    assert abs(eps0.a - 9.3) < 1e-12
    assert abs(eps0.b - (-10.58)) < 1e-12


def test_assignment_refusals(k4_spec):
    with pytest.raises(UsageError):
        assignment_for(k4_spec, "top1")
    with pytest.raises(UsageError):
        assignment_for(k4_spec, "bogus")


def test_residual_small_for_both_systems(k4_system, k1_system):
    for system in (k4_system, k1_system):
        for which in ("half", "eps0"):
            gs = g_for_system(system, which)
            asg = gs.assignment
            stats = piv_residual(gs, asg.a, asg.b)
            assert stats.max < 1e-5
            assert stats.mean < 1e-6
            assert stats.n_evaluated > 500


def test_residual_detects_wrong_parameters(k1_system):
    """Shifting a by 0.05 must blow the residual far past the pass band."""
    gs = g_for_system(k1_system, "half")
    asg = gs.assignment
    good = piv_residual(gs, asg.a, asg.b).max
    bad = piv_residual(gs, asg.a + 0.05, asg.b).max
    assert bad > 1e-3
    assert bad > 100.0 * good


def test_residual_shrinks_with_grid_refinement(k1_system):
    """Fourth-order stencils: doubling the grid should shrink by about 16."""
    gs = g_for_system(k1_system, "half")
    asg = gs.assignment
    coarse = piv_residual(gs, asg.a, asg.b).max
    fine_spec = SystemSpec(k=1, eps_top=-1.0, nu=0.5, n_points=4201)
    fine_sys = build_system(fine_spec, n_max=0)
    fine = piv_residual(g_for_system(fine_sys, "half"), asg.a, asg.b).max
    assert coarse / fine > 8.0


def test_half_assignment_masks_state_nodes(k4_system):
    """The ground-image state of a fourth-order system has four nodes; the
    extraction must find them and still leave a large evaluable sample."""
    gs = g_for_system(k4_system, "half")
    assert len(gs.nodes) == 4
    assert 0.1 < gs.masked_fraction < 0.5
    assert np.all(np.isnan(gs.g[~gs.valid]))


def test_node_next_to_window_floor_is_guarded():
    """A node whose nearest sample sits below phi_rel_floor must still be
    found: at this spec the outer node at x ~ -1.53 has one bracketing
    sample under the floor, and leaving it unguarded puts a pole of g
    inside the residual and round-trip samples."""
    spec = SystemSpec(k=3, eps_top=-1.8092494830396715, nu=0.786189938131377,
                      n_points=4201)
    system = build_system(spec, n_max=0)
    gs = g_for_system(system, "half")
    assert len(gs.nodes) == 3
    assert min(gs.nodes) == pytest.approx(-1.53, abs=0.01)
    asg = gs.assignment
    assert piv_residual(gs, asg.a, asg.b).max < 1e-5
    v = potential_from_g(gs, asg.e1)
    m = np.isfinite(v)
    assert np.max(np.abs(v[m] - system.potential[m])) < 1e-5


def test_eps0_assignment_is_nodeless(k4_system):
    gs = g_for_system(k4_system, "eps0")
    assert gs.nodes == []
    assert gs.masked_fraction == 0.0


def test_potential_rebuilt_from_transcendent(k4_system, k1_system):
    """V recomputed from g alone matches the Wronskian potential pointwise."""
    for system in (k4_system, k1_system):
        for which, tol in (("half", 1e-5), ("eps0", 1e-5)):
            gs = g_for_system(system, which)
            v = potential_from_g(gs, gs.assignment.e1)
            m = np.isfinite(v)
            assert np.count_nonzero(m) > 500
            assert np.max(np.abs(v[m] - system.potential[m])) < tol


def test_companion_states_rebuilt_from_g(k4_system, k1_system):
    """Both non-differentiated extremal states come back from g; where the
    system stores the matching bound state the rebuild must agree with it."""
    for system, which, pick, subspace in (
            (k1_system, "half", "e3", "new"),
            (k4_system, "half", "e3", "new"),
            (k4_system, "eps0", "e2", "iso")):
        gs = g_for_system(system, which)
        xs, phi2, phi3, sl = companion_extremal_states(gs)
        rebuilt = phi3 if pick == "e3" else phi2
        stored = system.state(subspace, 0).values[sl]
        stored = stored / np.sqrt(np.sum(stored ** 2) * gs.h)
        dev = min(np.max(np.abs(rebuilt - stored)), np.max(np.abs(rebuilt + stored)))
        assert dev < 1e-3
        assert xs.size > 200


def test_companion_needs_assignment(k1_system):
    st = k1_system.state("iso", 0)
    gs = g_from_extremal(st.values, k1_system.x, dstate_values=st.derivs)
    with pytest.raises(DomainError):
        companion_extremal_states(gs)


def test_companion_refuses_thin_segment():
    x = np.linspace(-1.0, 1.0, 201)
    valid = np.zeros(x.size, dtype=bool)
    valid[90:100] = True
    g = np.where(valid, 1.0, np.nan)
    gs = GSolution(x=x, g=g, valid=valid, window=valid,
                   assignment=Assignment(0.5, 0.0, -1.0))
    with pytest.raises(InsufficientSupportError):
        companion_extremal_states(gs)


def test_residual_support_guard(k4_system):
    gs = g_for_system(k4_system, "half")
    asg = gs.assignment
    with pytest.raises(InsufficientSupportError):
        piv_residual(gs, asg.a, asg.b, min_fraction=0.999)


def test_residual_floor_skip_bookkeeping():
    """Points with |g| under the floor are skipped and counted, not divided by."""
    x = np.linspace(-1.0, 1.0, 201)
    g = x.copy()
    valid = np.ones(x.size, dtype=bool)
    gs = GSolution(x=x, g=g, valid=valid, window=valid)
    stats = piv_residual(gs, 0.0, 0.0, g_floor=1e-2, min_fraction=0.1)
    assert stats.n_skipped_floor >= 1
    assert stats.n_evaluated + stats.n_skipped_floor <= x.size


def test_extraction_input_validation(k1_system):
    st = k1_system.state("iso", 0)
    with pytest.raises(DomainError):
        g_from_extremal(st.values[:-1], k1_system.x)
    with pytest.raises(DomainError):
        g_from_extremal(np.zeros_like(k1_system.x), k1_system.x)
    with pytest.raises(DomainError):
        g_from_extremal(st.values, k1_system.x, dstate_values=st.derivs[:-1])


def test_stencil_extraction_from_bare_samples(k1_system):
    """Without an analytic derivative the five-point stencil path is used;
    the transcendent still passes the equation, just with a softer ceiling."""
    st = k1_system.state("iso", 0)
    gs = g_from_extremal(st.values, k1_system.x,
                         assignment=assignment_for(k1_system.spec, "half"))
    assert not gs.valid[0] and not gs.valid[-1]
    stats = piv_residual(gs, gs.assignment.a, gs.assignment.b)
    assert stats.max < 1e-3


def test_node_positions_interpolated(k1_system):
    """Node bookkeeping on a deliberately noded (non-extremal) state."""
    st = k1_system.state("iso", 1)
    gs = g_from_extremal(st.values, k1_system.x, dstate_values=st.derivs)
    assert len(gs.nodes) == 2
    for x0 in gs.nodes:
        i = np.argmin(np.abs(k1_system.x - x0))
        assert abs(st.values[i]) < 0.05 * np.max(np.abs(st.values))
        assert not gs.valid[i]
