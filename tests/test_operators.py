import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from edsim import Grid1D, PhysicalParams, gradient
from oracles import dense_hamiltonian


def test_gradient_exact_on_quadratic():
    # centered interior and one-sided edges are both exact for quadratics
    x = np.linspace(0.0, 3.0, 41)
    dx = x[1] - x[0]
    f = 2.0 * x**2 - x + 0.5
    assert_allclose(gradient(f, dx), 4.0 * x - 1.0, atol=1e-12)


def test_gradient_second_order_convergence():
    errs = []
    for n in (64, 128, 256):
        x = np.linspace(0.0, 1.0, n)
        dx = x[1] - x[0]
        g = gradient(np.exp(x), dx)
        errs.append(np.max(np.abs(g - np.exp(x))))
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


@settings(max_examples=100, deadline=None)
@given(
    f=arrays(float, st.tuples(st.integers(1, 5), st.integers(3, 40)),
             elements=st.floats(-1e6, 1e6)),
    dx=st.floats(1e-3, 10.0),
)
def test_stacked_gradient_is_per_row_bitwise(f, dx):
    """A stack of rows differentiates along its last axis, each row exactly
    as on its own."""
    rows = np.array([gradient(row, dx) for row in f])
    assert gradient(f, dx).tobytes() == rows.tobytes()


@pytest.mark.parametrize("boundary", ["periodic", "hardwall"])
def test_hamiltonian_hermitian(boundary):
    g = Grid1D(-2.0, 2.0, 32, boundary)
    H = dense_hamiltonian(g, PhysicalParams(potential=lambda x: 0.3 * x**2))
    assert_allclose(H, H.conj().T, atol=1e-14)


def test_hamiltonian_plane_wave_eigenvector():
    # periodic Laplacian eigenvalue: (2 - 2 cos(k dx)) / dx^2
    g = Grid1D(0.0, 2.0 * np.pi, 64)
    k = 3.0
    H = dense_hamiltonian(g, PhysicalParams(hbar=1.0, m=1.0))
    v = np.exp(1j * k * g.cells)
    expect = (1.0 - np.cos(k * g.dx)) / g.dx**2
    assert_allclose(H @ v, expect * v, atol=1e-12)


def test_hamiltonian_hardwall_corner():
    # wall sits half a cell outside the last center: odd reflection adds one
    # unit to the corner diagonal
    H = dense_hamiltonian(Grid1D(0.0, 4.0, 8, "hardwall"), PhysicalParams())  # dx = 0.5
    scale = 1.0 / (2.0 * 0.25)
    assert_allclose(H[0, 0], 3.0 * scale)
    assert_allclose(H[4, 4], 2.0 * scale)
    assert H[0, -1] == 0.0
