import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats as sps

from edsim import (
    BasisError,
    CellError,
    ContinuumDevice,
    Grid1D,
    MonotonicityError,
    WaveFunction,
    apply_device,
    born_probabilities,
    build_device,
    check_normal,
    collapse_update,
    continuum_pdf,
    device_state,
    draw_outcomes,
    fourier_device,
    free_gaussian,
    identity_device,
    observable_matrix,
)
from edsim.measurement import ORTHO_TOL
from edsim.seeding import stream_rng


def random_state(dim, seed=0):
    rng = stream_rng(seed, "state")
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def test_identity_device():
    dev = identity_device(4)
    psi = random_state(4)
    assert_allclose(apply_device(dev, psi), psi, atol=1e-14)
    assert_allclose(born_probabilities(dev, psi), np.abs(psi) ** 2, atol=1e-14)


def test_fourier_device_maps_modes_to_cells():
    dev = fourier_device(8)
    for k in (0, 3, 7):
        out = apply_device(dev, dev.basis[k])
        expect = np.zeros(8, dtype=complex)
        expect[k] = 1.0
        # up to the mode's global phase
        assert abs(abs(out[k]) - 1.0) < 1e-12
        assert np.max(np.abs(np.abs(out) - np.abs(expect))) < 1e-12


def test_fourier_born_is_fft():
    dev = fourier_device(16)
    psi = random_state(16, seed=3)
    probs = born_probabilities(dev, psi)
    ref = np.abs(np.fft.fft(psi) / 4.0) ** 2
    assert_allclose(probs, ref, atol=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def phase_table_basis(n):
    """The definition the preset states: entry (j, k) is table[jk mod n],
    with table[m] = exp(2 pi i m/n) / sqrt(n)."""
    table = np.exp(2j * np.pi * np.arange(n) / n) / np.sqrt(n)
    return np.array([[table[(j * k) % n] for k in range(n)] for j in range(n)])


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 96))
def test_fourier_device_is_the_phase_table(n):
    dev = fourier_device(n)
    assert dev.basis.tobytes() == phase_table_basis(n).tobytes()
    assert len(np.unique(dev.basis)) == n
    assert np.array_equal(dev.target_cells, np.arange(n))
    assert np.array_equal(dev.eigenvalues, np.arange(n))


@pytest.mark.parametrize("n", [512, 2048])
def test_fourier_born_is_fft_to_roundoff(n):
    """The phase table keeps every phase exact to one rounding, so the Born
    vector matches |fft(psi)|^2 / n to 5e-16; exp(2 pi i jk/n) evaluated at
    each jk misses that bound by its lost digits."""
    psi = random_state(n, seed=1)
    probs = born_probabilities(fourier_device(n), psi)
    assert np.max(np.abs(probs - np.abs(np.fft.fft(psi)) ** 2 / n)) < 5e-16


def _random_unitary_device(dim, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return build_device(q, np.arange(dim))


@pytest.mark.parametrize("dev", [
    fourier_device(8), fourier_device(64), identity_device(16),
    _random_unitary_device(12, 5), _random_unitary_device(40, 9),
], ids=["fourier8", "fourier64", "identity16", "random12", "random40"])
def test_born_probabilities_read_the_unitary_bitwise(dev):
    """born_probabilities computes |B conj(psi)|^2 from the stored basis B:
    the same bits as projecting with the device unitary U = conj(B), which
    apply_device computes as conj(B conj(psi))."""
    psi = random_state(dev.dim, seed=4)
    ref = np.abs(dev.basis.conj() @ psi) ** 2
    assert born_probabilities(dev, psi).tobytes() == ref.tobytes()
    assert apply_device(dev, psi).tobytes() == (dev.basis.conj() @ psi).tobytes()


def test_born_probabilities_allocate_no_matrix():
    """The projection allocates O(n): an n x n conjugate copy of the basis
    would show as 16 n^2 bytes in the traced peak."""
    import tracemalloc

    dev = fourier_device(256)
    psi = random_state(256)
    tracemalloc.start()
    try:
        born_probabilities(dev, psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 256 * 256 // 4


def test_fourier_device_frees_its_index_matrix():
    """The preset's traced peak is build_device's own peak plus the 16 n^2
    bytes of the basis: the 8 n^2-byte index matrix is freed before the
    n x n products are formed."""
    import tracemalloc

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    n = 256
    basis = fourier_device(n).basis
    checks = peak(lambda: build_device(basis, np.arange(n)))
    assert peak(lambda: fourier_device(n)) < checks + 16 * n * n + 2 * n * n


def test_build_device_frees_gram_before_completeness_check():
    """build_device's traced peak is one n x n product and the conjugate
    copy it is formed from, 32 n^2 bytes: the 16 n^2-byte Gram matrix is
    freed once checked, before B^H B is formed (48 n^2 with it alive)."""
    import tracemalloc

    n = 256
    basis = fourier_device(n).basis
    tracemalloc.start()
    try:
        build_device(basis, np.arange(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * n * n


def test_build_device_rejects_bad_basis():
    rows = np.eye(4, dtype=complex)
    rows[0, 0] = 2.0  # not unit norm
    with pytest.raises(BasisError):
        build_device(rows, np.arange(4))
    dep = np.ones((4, 4), dtype=complex) / 2.0  # rank one
    with pytest.raises(BasisError):
        build_device(dep, np.arange(4))


def test_build_device_rejects_bad_cells():
    rows = np.eye(4, dtype=complex)
    with pytest.raises(CellError):
        build_device(rows, np.array([0, 1, 2]))
    with pytest.raises(CellError):
        build_device(rows, np.array([0, 1, 2, 2]))
    for cells in ([0, 1, 2, 99], [0, 1, 2, -1], [1, 2, 3, 4]):
        with pytest.raises(CellError, match=r"must lie in \[0, 4\)"):
            build_device(rows, np.array(cells))


def test_default_eigenvalues_are_indices():
    dev = build_device(np.eye(3, dtype=complex), np.arange(3))
    assert_allclose(dev.eigenvalues, np.arange(3).astype(complex))


def test_observable_matrix_identity_basis():
    lam = np.array([2.0, -1.0, 0.5j])
    dev = build_device(np.eye(3, dtype=complex), np.arange(3), lam)
    assert_allclose(observable_matrix(dev), np.diag(lam), atol=1e-14)


def test_observable_matrix_normal_for_any_device():
    dev = fourier_device(6)
    assert check_normal(observable_matrix(dev))


def test_check_normal():
    herm = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, -1.0]])
    assert check_normal(herm)
    assert not check_normal(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        check_normal(np.zeros((2, 3)))


def test_device_state_embeds_grid_state():
    g = Grid1D(-8.0, 8.0, 64)
    psi = WaveFunction(g, free_gaussian(g.cells)).normalized()
    vec = device_state(psi)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    assert_allclose(np.abs(vec) ** 2, psi.density() * g.dx, atol=1e-14)


def test_draw_outcomes_reproducible():
    probs = born_probabilities(fourier_device(8), random_state(8, seed=1))
    a = draw_outcomes(probs, 1000, seed=5)
    b = draw_outcomes(probs, 1000, seed=5)
    c = draw_outcomes(probs, 1000, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_draw_outcomes_follow_born():
    dev = fourier_device(8)
    psi = random_state(8, seed=2)
    probs = born_probabilities(dev, psi)
    outcomes = draw_outcomes(probs, 50000, seed=11)
    counts = np.bincount(outcomes, minlength=8)
    ref = sps.chisquare(counts, probs * 50000)
    assert ref.pvalue > 1e-3


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0)), min_size=1, max_size=24)
    .filter(any),
    norm=st.one_of(st.just(1.0), st.floats(1e-3, 1e3)),
    seed=st.integers(0, 2**64 - 1),
    n_trials=st.integers(1, 500),
)
def test_draw_outcomes_is_the_categorical_cell_draw(weights, norm, seed, n_trials):
    """Outcomes are the inverse-CDF cell draw on the "measurement" stream,
    byte for byte, also where cells carry zero Born weight and for states
    of any norm."""
    dim = len(weights)
    dev = identity_device(dim)
    psi = norm * np.sqrt(weights) / np.sqrt(np.sum(weights))
    probs = born_probabilities(dev, psi)
    cdf = np.cumsum(probs)
    u = stream_rng(seed, "measurement").random(n_trials)
    expected = np.minimum(np.searchsorted(cdf, u * cdf[-1], "left"), dim - 1)
    got = draw_outcomes(probs, n_trials, seed)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    # a zero-weight cell is drawn only by u = 0, and then only cell 0
    assert np.all(probs[got[u > 0]] > 0)


def test_collapse_update():
    dev = fourier_device(8)
    idx, post = collapse_update(dev, observed_cell=3)
    assert idx == 3
    assert_allclose(post, dev.basis[3])
    with pytest.raises(CellError):
        collapse_update(dev, observed_cell=12)


def test_continuum_pdf_linear_map():
    g = Grid1D(0.0, 2.0, 256)
    psi = WaveFunction(g, free_gaussian(g.cells, sigma0=0.2, x0=1.0)).normalized()
    dev = ContinuumDevice(lambda x: 2.0 * x + 1.0, lambda x: np.full_like(x, 2.0))
    a, rho_a = continuum_pdf(dev, psi)
    assert_allclose(a, 2.0 * g.cells + 1.0)
    assert_allclose(rho_a, psi.density() / 2.0, rtol=1e-9)


def test_continuum_pdf_rejects_folds():
    g = Grid1D(-1.0, 1.0, 128)
    psi = WaveFunction(g, free_gaussian(g.cells, sigma0=0.3)).normalized()
    with pytest.raises(MonotonicityError):
        continuum_pdf(psi=psi, cdev=ContinuumDevice(lambda x: x**2, lambda x: 2.0 * x))
    flat = ContinuumDevice(lambda x: np.ones_like(x), lambda x: np.zeros_like(x))
    with pytest.raises(MonotonicityError):
        continuum_pdf(flat, psi)


def test_continuum_pdf_decreasing_map_allowed():
    g = Grid1D(0.5, 2.5, 256)
    psi = WaveFunction(g, free_gaussian(g.cells, sigma0=0.2, x0=1.5)).normalized()
    dev = ContinuumDevice(lambda x: -x, lambda x: np.full_like(x, -1.0))
    a, rho_a = continuum_pdf(dev, psi)
    assert_allclose(rho_a, psi.density(), rtol=1e-9)


def four_product_verdict(basis):
    """build_device's basis checks, each with its own product, as they were
    first written: the message of the first failing check, or None."""
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        return "basis must be a square matrix of row vectors"
    eye = np.eye(basis.shape[0])
    gram = basis @ basis.conj().T
    if np.max(np.abs(gram - eye)) > ORTHO_TOL:
        return f"basis not orthonormal: max Gram deviation {np.max(np.abs(gram - eye)):.2e}"
    if np.max(np.abs(basis.conj().T @ basis - eye)) > ORTHO_TOL:
        return "basis not complete"
    unitary = basis.conj()
    if np.max(np.abs(unitary.conj().T @ unitary - eye)) > ORTHO_TOL:
        return "assembled matrix is not unitary"
    if np.max(np.abs(unitary @ basis.T - eye)) > ORTHO_TOL:
        return "unitary does not map each a_i to its target indicator"
    return None


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    perturbation=st.sampled_from([0.0, 1e-12, 3e-11, 1e-9, 1e-3]),
    shape=st.sampled_from(["square", "wide", "tall", "vector"]),
)
def test_build_device_matches_four_product_checks(dim, seed, perturbation, shape):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    basis = q + perturbation * (rng.normal(size=q.shape) + 1j * rng.normal(size=q.shape))
    if shape == "wide":
        basis = np.hstack([basis, basis[:, :1]])
    elif shape == "tall":
        basis = np.vstack([basis, basis[:1]])
    elif shape == "vector":
        basis = basis[0]
    want = four_product_verdict(basis)
    if want is None:
        dev = build_device(basis, np.arange(dim))
        assert np.array_equal(dev.basis.view(np.uint64), basis.view(np.uint64))
    else:
        with pytest.raises(BasisError) as err:
            build_device(basis, np.arange(dim))
        assert str(err.value) == want


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_build_device_rejects_non_finite(value):
    basis = np.eye(4, dtype=complex)
    basis[1, 2] = value
    with pytest.raises(BasisError):
        build_device(basis, np.arange(4))
    eigenvalues = np.arange(4, dtype=complex)
    eigenvalues[3] = complex(0.0, value)
    with pytest.raises(BasisError):
        build_device(np.eye(4), np.arange(4), eigenvalues)
