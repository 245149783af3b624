import numpy as np
import pytest
from numpy.testing import assert_allclose

from edsim import (
    Grid1D,
    PhysicalParams,
    box_eigenstate,
    coherent_state,
    free_gaussian,
    free_gaussian_variance,
    harmonic_eigenstate,
    plane_wave,
)
from oracles import dense_hamiltonian, discrete_ground_state

X = np.linspace(-25.0, 25.0, 4001)
DX = X[1] - X[0]


def test_free_gaussian_is_normalized():
    for t in (0.0, 0.7, 2.0):
        psi = free_gaussian(X, t=t, sigma0=1.0, k0=1.5, x0=-1.0)
        assert np.sum(np.abs(psi) ** 2) * DX == pytest.approx(1.0, abs=1e-10)


def test_free_gaussian_moments():
    t, s0, k0, x0 = 1.3, 0.8, 1.5, -1.0
    rho = np.abs(free_gaussian(X, t=t, sigma0=s0, k0=k0, x0=x0)) ** 2
    mean = np.sum(rho * X) * DX
    var = np.sum(rho * (X - mean) ** 2) * DX
    assert mean == pytest.approx(x0 + k0 * t, abs=1e-9)
    assert var == pytest.approx(free_gaussian_variance(t, sigma0=s0), rel=1e-9)


def test_free_gaussian_variance_formula():
    assert free_gaussian_variance(0.0, sigma0=2.0) == pytest.approx(4.0)
    # hbar t / (2 m sigma0^2) = 1 doubles the variance
    assert free_gaussian_variance(2.0, sigma0=1.0) == pytest.approx(2.0)


def test_plane_wave_commensurate():
    g = Grid1D(0.0, 5.0, 64)
    psi = plane_wave(g, 4)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    assert_allclose(np.abs(psi.amplitudes), np.sqrt(1.0 / 5.0), atol=1e-12)
    # uniform winding: dividing out e^{ikx} leaves a constant
    k = 2.0 * np.pi * 4 / 5.0
    flat = psi.amplitudes * np.exp(-1j * k * g.cells)
    assert np.max(np.abs(flat - flat[0])) < 1e-12


def test_harmonic_eigenstates_orthonormal():
    vecs = [harmonic_eigenstate(X, lv) for lv in range(4)]
    gram = np.array([[np.sum(a * b) * DX for b in vecs] for a in vecs])
    assert_allclose(gram, np.eye(4), atol=1e-8)


def test_harmonic_eigenstate_solves_discrete_problem():
    g = Grid1D(-10.0, 10.0, 1024, "hardwall")
    H = dense_hamiltonian(g, PhysicalParams(potential=lambda x: 0.5 * x**2))
    for lv in (0, 2):
        u = harmonic_eigenstate(g.cells, lv).astype(complex)
        u /= np.sqrt(np.sum(np.abs(u) ** 2) * g.dx)
        e_num = np.real(np.vdot(u, H @ u) * g.dx)
        assert e_num == pytest.approx(lv + 0.5, rel=1e-4)


def test_coherent_state_is_displaced_ground():
    shifted = coherent_state(X, x0=1.5)
    ground = harmonic_eigenstate(X - 1.5, 0)
    assert_allclose(shifted, ground.astype(complex), atol=1e-12)


def test_coherent_state_boost():
    boosted = coherent_state(X, x0=0.0, k0=3.0)
    assert_allclose(np.abs(boosted), harmonic_eigenstate(X, 0), atol=1e-12)
    mom = np.angle(boosted[2001] / boosted[2000]) / DX
    assert mom == pytest.approx(3.0, abs=1e-9)


def test_box_eigenstate():
    x = np.linspace(0.0, 4.0, 801)
    dx = x[1] - x[0]
    for lv in (0, 1, 3):
        u = box_eigenstate(x, lv, 0.0, 4.0)
        assert np.sum(u**2) * dx == pytest.approx(1.0, rel=1e-6)
        assert u[0] == pytest.approx(0.0, abs=1e-12)
        assert u[-1] == pytest.approx(0.0, abs=1e-12)


def test_discrete_ground_state_hardwall_box():
    g = Grid1D(0.0, 4.0, 512, "hardwall")
    e0, psi0 = discrete_ground_state(g, PhysicalParams())
    # continuum value pi^2 hbar^2 / (2 m L^2); discrete is O(dx^2) below
    assert e0 == pytest.approx(np.pi**2 / 32.0, rel=1e-5)
    overlap = abs(np.vdot(psi0.amplitudes, box_eigenstate(g.cells, 0, 0.0, 4.0)) * g.dx)
    assert overlap == pytest.approx(1.0, abs=1e-6)
    assert psi0.norm() == pytest.approx(1.0, abs=1e-10)


def test_discrete_ground_state_periodic_harmonic():
    g = Grid1D(-3.5, 3.5, 256)
    p = PhysicalParams(potential=lambda x: 0.5 * x**2)
    e0, psi0 = discrete_ground_state(g, p)
    assert e0 == pytest.approx(0.5, rel=1e-3)
    H = dense_hamiltonian(g, p)
    resid = np.max(np.abs(H @ psi0.amplitudes - e0 * psi0.amplitudes))
    assert resid < 1e-8  # it is the eigenvector of this exact matrix
    assert float(np.min(psi0.density())) > 1e-6  # no spurious node at the seam
