import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from edsim import (
    EvolutionConfig,
    Grid1D,
    HydroState,
    NodeError,
    PhysicalParams,
    TraceFields,
    WaveFunction,
    coherent_state,
    evolve,
    free_gaussian,
    plane_wave,
    to_hydro,
)


def grid():
    return Grid1D(-8.0, 8.0, 128)


def test_grid_geometry():
    g = grid()
    assert g.dx == pytest.approx(0.125)
    assert g.length == pytest.approx(16.0)
    assert len(g.cells) == g.n
    # cell centers: first at x_min + dx/2
    assert g.cells[0] == pytest.approx(-8.0 + 0.0625)
    assert np.allclose(np.diff(g.cells), g.dx)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        Grid1D(1.0, 1.0, 64)


def test_grid_unknown_boundary():
    """The grid carries the boundary, periodic by default, and refuses an
    unknown name, "open" or "absorbing" alike."""
    assert Grid1D(-1.0, 1.0, 8).boundary == "periodic"
    for name in ("open", "absorbing"):
        with pytest.raises(ValueError, match="boundary must be one of"):
            Grid1D(-1.0, 1.0, 8, boundary=name)


def test_wavefunction_normalization():
    g = grid()
    psi = WaveFunction(g, 3.0 * free_gaussian(g.cells))
    assert psi.norm() == pytest.approx(3.0)
    normed = psi.normalized()
    assert normed.norm() == pytest.approx(1.0, abs=1e-12)
    assert_allclose(normed.density(), np.abs(normed.amplitudes) ** 2)


def test_hydrostate_validation():
    g = grid()
    rho = np.abs(free_gaussian(g.cells)) ** 2
    rho /= rho.sum() * g.dx
    HydroState(g, rho, np.zeros(g.n))
    with pytest.raises(ValueError):
        HydroState(g, -rho, np.zeros(g.n))
    with pytest.raises(ValueError):
        HydroState(g, 2.0 * rho, np.zeros(g.n))
    # NaN fails every comparison, so each check is written to refuse it
    with pytest.raises(ValueError, match="rho must be non-negative"):
        HydroState(Grid1D(0.0, 1.0, 8), np.full(8, np.nan), np.zeros(8))
    with pytest.raises(ValueError, match="rho must integrate to 1"):
        HydroState(g, np.where(np.arange(g.n) == 3, np.inf, rho), np.zeros(g.n))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="phi must be finite"):
            HydroState(g, rho, np.where(np.arange(g.n) == 5, bad, 0.0))


def test_hydro_round_trip_preserves_state():
    """to_hydro keeps the global phase, so sqrt(rho) exp(i phi) rebuilds the
    state exactly."""
    g = grid()
    psi = WaveFunction(g, coherent_state(g.cells, x0=1.0, k0=2.0)).normalized()
    h = to_hydro(psi, node_floor=0.0)
    back = WaveFunction(g, np.sqrt(h.rho) * np.exp(1j * h.phi)).normalized()
    assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-12


@st.composite
def smooth_states(draw):
    """Smooth states with |psi| bounded away from 0: a modulus 1 + sum of
    cosines whose amplitudes sum to at most 0.9, times exp(i phase) with a
    global phase, a plane-wave slope and cosine modes, kept below 3 rad from
    cell to cell so the unwrapped phase is the drawn one."""
    n = draw(st.integers(8, 256))
    x_min = draw(st.floats(-20.0, 0.0))
    g = Grid1D(x_min, x_min + draw(st.floats(1.0, 40.0)), n)
    u = 2.0 * np.pi * (g.cells - g.x_min) / g.length

    def modes(total):
        terms = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.integers(1, 4),
                                        st.floats(-np.pi, np.pi)), max_size=3))
        scale = total / max(1.0, sum(abs(c) for c, _, _ in terms))
        return sum((scale * c * np.cos(m * u + d) for c, m, d in terms), np.zeros(n))

    modulus = 1.0 + modes(0.9)
    phase = (draw(st.floats(-np.pi, np.pi)) + draw(st.floats(-2.0, 2.0)) * np.arange(n)
             + modes(draw(st.floats(0.0, 3.0))))
    assume(np.max(np.abs(np.diff(phase)), initial=0.0) < 3.0)
    return WaveFunction(g, modulus * np.exp(1j * phase))


@settings(max_examples=300, deadline=None)
@given(smooth_states())
def test_hydro_round_trip_on_smooth_states(psi):
    """Away from nodes, sqrt(rho) exp(i phi) rebuilds the normalized state,
    global phase included."""
    h = to_hydro(psi, node_floor=0.0)
    back = WaveFunction(psi.grid, np.sqrt(h.rho) * np.exp(1j * h.phi))
    ref = psi.normalized().amplitudes
    assert np.max(np.abs(back.amplitudes - ref)) < 1e-12


def test_to_hydro_unwraps_phase():
    g = Grid1D(0.0, 10.0, 64)
    psi = plane_wave(g, 2)
    h = to_hydro(psi)
    k = 4.0 * np.pi / 10.0
    # cumulative unwrapping recovers the linear phase, no 2 pi jumps
    slope = np.diff(h.phi) / g.dx
    assert_allclose(slope, k, atol=1e-9)


def test_to_hydro_node_floor():
    g = grid()
    amps = free_gaussian(g.cells).astype(complex)
    amps[5] = 1e-13
    psi = WaveFunction(g, amps).normalized()
    with pytest.raises(NodeError):
        to_hydro(psi, node_floor=1e-12)
    to_hydro(psi, node_floor=0.0)  # disabled floor admits the near-node


def test_current_velocity_plane_wave():
    """The drift tables' current velocity (hbar/m) dphi/dx is hbar k/m."""
    g = Grid1D(0.0, 10.0, 64)
    p = PhysicalParams(hbar=1.0, m=2.0)
    trace = evolve(plane_wave(g, 3), p, EvolutionConfig(dt=1e-3, t_final=0.0))
    k = 6.0 * np.pi / 10.0
    assert_allclose(TraceFields.from_trace(trace).v_tab[0], k / 2.0, atol=1e-9)


def test_physical_params_potential():
    g = grid()
    p = PhysicalParams(potential=lambda x: x**2)
    assert_allclose(p.potential_on(g), g.cells**2)
    free = PhysicalParams()
    assert_allclose(free.potential_on(g), 0.0)
    with pytest.raises(ValueError):
        PhysicalParams(potential=lambda x: np.full_like(x, np.inf)).potential_on(g)
