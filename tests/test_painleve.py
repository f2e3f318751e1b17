"""Transcendent extraction and the nonlinear-ODE residual machinery.

The central claim is that g = -x - (ln phi_e1)' built from an extremal state
of a partner system satisfies the quartic Painleve equation with parameters
fixed by the three extremal energies. The tests check the residual directly,
shrink it under grid refinement at the stencil's order, and rebuild both the
potential and the companion extremal states from g alone.
"""

import dataclasses
import re

import numpy as np
import pytest

from susyosc.errors import DomainError, InsufficientSupportError, UsageError
from susyosc.painleve import (
    DEFAULT_GUARD_X,
    Assignment,
    GSolution,
    _zero_crossings,
    assignment_for,
    companion_extremal_states,
    g_for_system,
    g_from_extremal,
    piv_residual,
    potential_from_g,
)
from susyosc.susy import SystemSpec, build_system


def test_extremal_roots(k4_spec, k1_spec):
    """Both assignments label the same three energies 1/2, eps_0, eps_top + 1."""
    for spec, roots in ((k4_spec, (0.5, -5.8, -1.8)), (k1_spec, (0.5, -1.0, 0.0))):
        for which in ("half", "eps0"):
            asg = assignment_for(spec, which)
            assert np.allclose(sorted((asg.e1, asg.e2, asg.e3)), sorted(roots))


def test_assignment_parameters(k4_spec):
    half = assignment_for(k4_spec, "half")
    assert np.allclose((half.e1, half.e2, half.e3), (0.5, -1.8, -5.8))
    assert abs(half.a - (-9.6)) < 1e-12
    assert abs(half.b - (-32.0)) < 1e-12
    eps0 = assignment_for(k4_spec, "eps0")
    assert np.allclose((eps0.e1, eps0.e2, eps0.e3), (-5.8, 0.5, -1.8))
    assert abs(eps0.a - 9.3) < 1e-12
    assert abs(eps0.b - (-10.58)) < 1e-12


@pytest.mark.parametrize("eps_top, half, eps0", [
    (-0.3, (0.5, 0.7, -1.3), (-1.3, 0.7, 0.5)),       # eps_top + 1 above 1/2
    (-0.7, (0.5, 0.3, -1.7), (-1.7, 0.5, 0.3)),       # eps_top + 1 below 1/2
])
def test_assignment_order_flips_at_eps_top_minus_half(eps_top, half, eps0):
    """e2 >= e3: eps_top + 1 overtakes 1/2 as e2 once eps_top > -1/2 (k 2)."""
    spec = SystemSpec(k=2, eps_top=eps_top, nu=0.0)
    for which, expected in (("half", half), ("eps0", eps0)):
        asg = assignment_for(spec, which)
        assert (asg.e1, asg.e2, asg.e3) == pytest.approx(expected, abs=1e-15)


def test_assignment_refusals(k4_spec):
    for which in ("top1", "bogus"):
        msg = "unknown assignment '%s' (choose from ['half', 'eps0'])" % which
        with pytest.raises(UsageError, match=re.escape(msg)):
            assignment_for(k4_spec, which)


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


def _masked_runs(gs) -> int:
    """Number of masked runs of g between the window's first and last points."""
    lo, hi = np.flatnonzero(gs.window)[[0, -1]]
    masked = np.concatenate(([False], ~gs.valid[lo:hi + 1]))
    return int(np.count_nonzero(masked[1:] & ~masked[:-1]))


def test_half_assignment_masks_state_nodes(k4_system):
    """The ground-image state of a fourth-order system has four nodes; the
    extraction must mask each and still leave a large evaluable sample."""
    gs = g_for_system(k4_system, "half")
    assert _masked_runs(gs) == 4
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
    assert _masked_runs(gs) == 3
    assert not np.all(gs.window[np.abs(system.x + 1.53) < 0.01])
    assert np.all(np.isnan(gs.g[np.abs(system.x + 1.53) < DEFAULT_GUARD_X - 0.01]))
    asg = gs.assignment
    assert piv_residual(gs, asg.a, asg.b).max < 1e-5
    v = potential_from_g(gs, asg.e1)
    m = np.isfinite(v)
    assert np.max(np.abs(v[m] - system.potential[m])) < 1e-5


def test_node_on_a_grid_sample_is_found():
    """A node that falls exactly on a sample, between samples of opposite
    sign, counts as a node, as the sign changes between samples do."""
    x = np.linspace(-2.0, 2.0, 9)
    y = x * (x * x - 2.0)   # nodes at -sqrt(2), sqrt(2) and 0.0, a sample
    assert y[4] == 0.0
    nodes = np.sort(_zero_crossings(x, y, np.ones(8, dtype=bool)))
    assert nodes[1] == 0.0 and np.allclose(np.abs(nodes[[0, 2]]), 1.4, atol=0.1)
    # pairs still select: neither step beside the sample is wanted
    pairs = np.ones(8, dtype=bool)
    pairs[3:5] = False
    assert 0.0 not in _zero_crossings(x, y, pairs)


def test_odd_state_node_at_the_centre_is_guarded():
    """With nu = 0 and odd k the half-assignment state is odd, so it is 0.0
    at x = 0, a sample of the symmetric grid: the node must still get its
    guard band, or g ~ -1/x beside it spoils the residual."""
    system = build_system(SystemSpec(k=1, eps_top=-1.0, nu=0.0), n_max=0)
    x, phi = system.x, system.state("iso", 0).values
    assert phi[x == 0.0] == 0.0 and np.all(phi[:-1] * phi[1:] >= 0.0)
    gs = g_for_system(system, "half")
    assert _masked_runs(gs) == 1
    assert np.all(np.isnan(gs.g[np.abs(x) <= DEFAULT_GUARD_X]))
    asg = gs.assignment
    assert piv_residual(gs, asg.a, asg.b).max < 1e-5


def test_eps0_assignment_is_nodeless(k4_system):
    gs = g_for_system(k4_system, "eps0")
    assert _masked_runs(gs) == 0
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


def test_companion_refuses_thin_segment():
    x = np.linspace(-1.0, 1.0, 201)
    window = np.zeros(x.size, dtype=bool)
    window[90:100] = True
    gs = GSolution(x=x, g=np.where(window, 1.0, np.nan), window=window,
                   assignment=Assignment(0.5, 0.0, -1.0))
    with pytest.raises(InsufficientSupportError):
        companion_extremal_states(gs)


def test_residual_support_guard(k4_system):
    """A sample whose usable points cover less than half its window is too
    thin to judge; the full sample is judged."""
    gs = g_for_system(k4_system, "half")
    asg = gs.assignment
    piv_residual(gs, asg.a, asg.b)
    keep = np.flatnonzero(gs.valid)
    thin = gs.valid.copy()
    thin[keep[2 * keep.size // 5:]] = False
    thin_gs = dataclasses.replace(gs, g=np.where(thin, gs.g, np.nan))
    with pytest.raises(InsufficientSupportError, match="window points evaluable"):
        piv_residual(thin_gs, asg.a, asg.b)


def test_residual_floor_skip_bookkeeping():
    """Points with |g| under the floor are skipped and counted, not divided by."""
    x = np.linspace(-1.0, 1.0, 201)
    gs = GSolution(x=x, g=x.copy(), window=np.ones(x.size, dtype=bool),
                   assignment=Assignment(0.5, 0.0, -1.0))
    stats = piv_residual(gs, 0.0, 0.0)
    assert stats.n_skipped_floor >= 1
    assert np.isnan(stats.per_point[100])        # g(0) = 0 sits under the floor
    assert stats.n_evaluated + stats.n_skipped_floor <= x.size


def test_nan_mask_reaches_every_stencil():
    """g's NaNs are its mask: one isolated NaN point and a 4-point run.

    valid is isfinite(g); V(g) is NaN at the NaN point, within 2 points of
    it and on the whole short run, where g' would reach across the mask;
    the residual evaluates none of those points.
    """
    x = np.linspace(-1.0, 1.0, 201)
    g = 2.0 + x
    g[50] = np.nan
    g[96:100] = np.nan
    g[104:108] = np.nan                          # leaves the run 100..103
    gs = GSolution(x=x, g=g, window=np.ones(x.size, dtype=bool),
                   assignment=Assignment(0.5, 0.0, -1.0))
    assert np.array_equal(gs.valid, np.isfinite(g))

    unreachable = np.zeros(x.size, dtype=bool)
    unreachable[[0, 1, -2, -1]] = True           # the stencil's grid-end bands
    unreachable[48:53] = True
    unreachable[94:110] = True
    v = potential_from_g(gs, 0.5)
    assert np.array_equal(np.isnan(v), unreachable)
    stats = piv_residual(gs, 0.0, 0.0)
    assert np.array_equal(np.isnan(stats.per_point), unreachable)
    assert stats.n_evaluated == x.size - np.count_nonzero(unreachable)


def test_extraction_input_validation(k1_system):
    st = k1_system.state("iso", 0)
    asg = assignment_for(k1_system.spec, "half")
    with pytest.raises(DomainError):
        g_from_extremal(st.values[:-1], k1_system.x, dstate_values=st.derivs[:-1],
                        assignment=asg)
    with pytest.raises(DomainError):
        g_from_extremal(np.zeros_like(k1_system.x), k1_system.x, dstate_values=st.derivs,
                        assignment=asg)
    with pytest.raises(DomainError):
        g_from_extremal(st.values, k1_system.x, dstate_values=st.derivs[:-1],
                        assignment=asg)


@pytest.mark.parametrize("floor", [float("nan"), float("inf"), 2.0, 1.0, -1e-5])
def test_meaningless_phi_floor_is_bad_input(k1_system, floor):
    """A relative floor outside [0, 1) is refused by name as bad input, not
    reported as a window with too few usable points."""
    with pytest.raises(DomainError, match="phi_rel_floor"):
        g_for_system(k1_system, "half", phi_rel_floor=floor)


def test_node_positions_interpolated(k1_system):
    """Node masking on a deliberately noded (non-extremal) state: each
    interpolated sign change is guarded by DEFAULT_GUARD_X on both sides."""
    st = k1_system.state("iso", 1)
    x, phi = k1_system.x, st.values
    gs = g_from_extremal(phi, x, dstate_values=st.derivs,
                         assignment=assignment_for(k1_system.spec, "half"))
    assert _masked_runs(gs) == 2
    i = np.flatnonzero((phi[:-1] * phi[1:] < 0.0) & gs.window[:-1])
    nodes = x[i] - phi[i] * (x[i + 1] - x[i]) / (phi[i + 1] - phi[i])
    assert nodes.size == 2
    for x0 in nodes:
        near = np.abs(x - x0)
        assert abs(phi[np.argmin(near)]) < 0.05 * np.max(np.abs(phi))
        assert np.all(np.isnan(gs.g[near <= DEFAULT_GUARD_X]))
        assert np.all(np.isfinite(gs.g[(near > DEFAULT_GUARD_X) & (near < 0.5)]))
