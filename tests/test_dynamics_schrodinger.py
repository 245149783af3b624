import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from edsim import (
    EvolutionConfig,
    Grid1D,
    PhysicalParams,
    SolverError,
    WaveFunction,
    evolve,
    free_gaussian,
    l1_distance,
    schrodinger_step,
)
from edsim import dynamics
from oracles import dense_hamiltonian, discrete_ground_state


def packet(grid):
    return WaveFunction(
        grid, free_gaussian(grid.cells, sigma0=1.0, k0=1.0, x0=-1.0)
    ).normalized()


def test_norm_preserved():
    g = Grid1D(-15.0, 15.0, 256)
    p = PhysicalParams()
    psi = packet(g)
    for _ in range(500):
        psi = schrodinger_step(psi, p, 1e-3)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)


def test_matches_closed_form_free_packet():
    g = Grid1D(-20.0, 20.0, 1024)
    p = PhysicalParams()
    tr = evolve(
        packet(g),
        p,
        EvolutionConfig(dt=1e-3, t_final=1.0, engine="schrodinger", snapshot_stride=1000),
    )
    num = tr.snapshots[-1][1].rho
    exact = np.abs(free_gaussian(g.cells, t=1.0, sigma0=1.0, k0=1.0, x0=-1.0)) ** 2
    assert l1_distance(num, exact, g.dx) < 1e-3


@st.composite
def cn_cases(draw):
    """(psi, p, dt): a random normalized state and a random finite potential
    on n cells, dt log-uniform in [1e-5, 1e-1], either boundary on psi's grid."""
    n = draw(st.integers(8, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = draw(st.floats(0.0, 100.0)) * rng.standard_normal(n)
    dt = 10.0 ** draw(st.floats(-5.0, -1.0))
    g = Grid1D(-5.0, 5.0, n, draw(st.sampled_from(["periodic", "hardwall"])))
    psi = WaveFunction(g, rng.standard_normal(n) + 1j * rng.standard_normal(n)).normalized()
    return psi, PhysicalParams(potential=lambda x: V), dt


# a packet in a harmonic well, the case the time-reversal check was pinned on
PINNED = (packet(Grid1D(-15.0, 15.0, 512)), PhysicalParams(potential=lambda x: 0.1 * x**2),
          1e-3)


@settings(max_examples=60, deadline=None)
@given(case=cn_cases())
@example(case=PINNED)
def test_step_is_the_unitary_time_symmetric_cn_solve(case):
    """One step keeps the norm, is undone by conjugate, step, conjugate, and
    equals a dense solve of (I + aH) psi' = (I - aH) psi, a = i dt/2hbar."""
    psi, p, dt = case
    g = psi.grid
    fwd = schrodinger_step(psi, p, dt)
    assert abs(fwd.norm() - psi.norm()) <= 1e-13
    back = schrodinger_step(WaveFunction(g, fwd.amplitudes.conj()), p, dt)
    assert np.max(np.abs(back.amplitudes.conj() - psi.amplitudes)) <= 1e-12
    aH = 0.5j * dt / p.hbar * dense_hamiltonian(g, p)
    eye = np.eye(g.n)
    ref = np.linalg.solve(eye + aH, (eye - aH) @ psi.amplitudes)
    assert np.max(np.abs(fwd.amplitudes - ref)) <= 1e-13


def test_hardwall_discrete_ground_state_stationary():
    g = Grid1D(-3.5, 3.5, 256, "hardwall")
    p = PhysicalParams(potential=lambda x: 0.5 * x**2)
    e0, psi0 = discrete_ground_state(g, p)
    tr = evolve(
        psi0,
        p,
        EvolutionConfig(dt=1e-3, t_final=1.0, engine="schrodinger",
                        snapshot_stride=1000),
    )
    h = tr.snapshots[-1][1]
    assert np.max(np.abs(h.rho - psi0.density())) < 1e-10
    # evolution only rotates the global phase, by -e0 t / hbar; the snapshot
    # keeps rho and phi, and to_hydro anchors that phase in the first cell
    psi_t = np.sqrt(h.rho) * np.exp(1j * h.phi)
    overlap = np.vdot(psi0.amplitudes, psi_t) * g.dx
    assert abs(overlap) == pytest.approx(1.0, abs=1e-10)
    assert np.angle(overlap) == pytest.approx(-e0, abs=1e-6)  # e0 t/hbar < pi here


def test_snapshot_schedule():
    g = Grid1D(-15.0, 15.0, 256)
    tr = evolve(
        packet(g),
        PhysicalParams(),
        EvolutionConfig(dt=1e-3, t_final=0.01, engine="schrodinger", snapshot_stride=4),
    )
    assert_allclose(tr.field_arrays()[0], [0.0, 0.004, 0.008, 0.01], atol=1e-12)
    assert len(tr.diagnostics) == 4
    assert all(d.norm == pytest.approx(1.0, abs=1e-12) for d in tr.diagnostics)


@pytest.mark.parametrize("dt, t_final, stride", [
    (1e-3, 0.01, 5), (1e-3, 0.01, 3), (1e-3, 0.01, 20), (0.1, 0.7, 2), (1e-3, 0.0, 1),
    (2.0 / 14000.0, 2.0, 700), (1.25e-4, 1.0, 800), (2e-3, 0.4, 2)])
def test_snapshot_times_are_evolves_bit_for_bit(dt, t_final, stride):
    """snapshot_times, worked out from the config alone (trajectories checks
    the sampler dt against it before evolving), gives the times evolve
    records, with their stride count."""
    g = Grid1D(-8.0, 8.0, 16)
    cfg = EvolutionConfig(dt=dt, t_final=t_final, snapshot_stride=stride)
    ts = evolve(packet(g), PhysicalParams(), cfg).field_arrays()[0]
    assert np.array(cfg.snapshot_times()).tobytes() == ts.tobytes()
    assert len(ts) == cfg.n_snapshots()


@pytest.mark.parametrize("floor", [np.nan, np.inf, -np.inf])
def test_node_floor_must_be_finite(floor):
    """A NaN floor would fail every "density < floor" check and switch the
    node checks off."""
    with pytest.raises(ValueError, match="node_floor must be finite"):
        EvolutionConfig(dt=1e-3, t_final=1.0, node_floor=floor)


def test_solver_error_reports_the_step_it_was_taking(monkeypatch):
    """A step failing mid-run names the t that step was heading for."""
    calls = []
    real = dynamics.schrodinger_step

    def third_fails(*args):
        calls.append(1)
        if len(calls) == 3:
            raise SolverError("linear solve returned non-finite amplitudes")
        return real(*args)

    monkeypatch.setattr(dynamics, "schrodinger_step", third_fails)
    g = Grid1D(-15.0, 15.0, 256)
    cfg = EvolutionConfig(dt=1e-3, t_final=0.01, engine="schrodinger")
    with pytest.raises(SolverError, match=r"^linear solve returned non-finite amplitudes "
                                          r"\(t=0\.003\)$"):
        evolve(packet(g), PhysicalParams(), cfg)
    assert len(calls) == 3


def _all_nan(b):
    return np.full(b.shape, np.nan, dtype=complex)


def _one_infinite_imaginary_part(b):
    out = b.copy()
    out[3] = complex(out[3].real, np.inf)
    return out


@pytest.mark.parametrize("solver", [_all_nan, _one_infinite_imaginary_part])
def test_non_finite_solve_raises(solver):
    """A solve that returns a NaN, or an inf in one imaginary part while
    every real part stays finite, fails the step with SolverError and with
    no numpy warning first (pytest turns a RuntimeWarning into an error):
    the step doubles the solve as a sum, so x + inf i never meets 0 * inf."""
    psi = packet(Grid1D(-5.0, 5.0, 16))
    with pytest.raises(SolverError, match=r"^linear solve returned non-finite amplitudes$"):
        schrodinger_step(psi, PhysicalParams(), 1e-3, solver)


def test_non_integer_steps_rejected():
    g = Grid1D(-15.0, 15.0, 256)
    with pytest.raises(ValueError):
        evolve(
            packet(g),
            PhysicalParams(),
            EvolutionConfig(dt=3e-3, t_final=0.01, engine="schrodinger"),
        )


def test_config_validation():
    for dt in (-1e-3, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            EvolutionConfig(dt=dt, t_final=1.0)
    with pytest.raises(ValueError):
        EvolutionConfig(dt=1e-3, t_final=1.0, engine="spectral")
    with pytest.raises(ValueError):
        EvolutionConfig(dt=1e-3, t_final=1.0, snapshot_stride=0)
