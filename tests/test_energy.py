import numpy as np
import pytest

from edsim import (
    EvolutionConfig,
    Grid1D,
    PhysicalParams,
    WaveFunction,
    coherent_state,
    energy,
    evolve,
    harmonic_eigenstate,
    plane_wave,
    to_hydro,
)

HARMONIC = PhysicalParams(potential=lambda x: 0.5 * x**2)


def test_ground_state_energy():
    g = Grid1D(-12.0, 12.0, 1024)
    psi = WaveFunction(g, harmonic_eigenstate(g.cells, 0).astype(complex)).normalized()
    e = energy(to_hydro(psi, node_floor=0.0), HARMONIC)
    assert e == pytest.approx(0.5, abs=1e-10)


def test_coherent_state_energy():
    # hbar w / 2 plus the classical displacement energy m w^2 x0^2 / 2
    g = Grid1D(-12.0, 12.0, 1024)
    psi = WaveFunction(g, coherent_state(g.cells, x0=1.0)).normalized()
    e = energy(to_hydro(psi, node_floor=0.0), HARMONIC)
    assert e == pytest.approx(1.0, abs=1e-8)


def test_plane_wave_energy():
    g = Grid1D(0.0, 10.0, 128)
    k = 6.0 * np.pi / 10.0
    e = energy(to_hydro(plane_wave(g, 3)), PhysicalParams())
    assert e == pytest.approx(0.5 * k**2, abs=1e-12)


def test_energy_shifts_with_potential_offset():
    g = Grid1D(-12.0, 12.0, 512)
    psi = WaveFunction(g, coherent_state(g.cells, x0=0.5)).normalized()
    h = to_hydro(psi, node_floor=0.0)
    e0 = energy(h, HARMONIC)
    shifted = PhysicalParams(potential=lambda x: 0.5 * x**2 + 2.0)
    assert energy(h, shifted) == pytest.approx(e0 + 2.0, abs=1e-12)


def test_energy_conserved_one_period():
    """Functional evaluated on snapshots drifts only at the spatial
    discretization level over a full oscillation."""
    g = Grid1D(-12.0, 12.0, 1024)
    psi = WaveFunction(g, coherent_state(g.cells, x0=1.0)).normalized()
    t_final = 2.0 * np.pi
    steps = 6284
    tr = evolve(
        psi,
        HARMONIC,
        EvolutionConfig(dt=t_final / steps, t_final=t_final, engine="schrodinger",
                        snapshot_stride=200),
    )
    es = np.array([d.energy for d in tr.diagnostics])
    assert es[0] == pytest.approx(1.0, abs=1e-8)
    assert float(np.max(np.abs(es - es[0]) / es[0])) < 2e-4
