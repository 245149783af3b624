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


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["identity", "fourier", "random"]), dim=st.integers(1, 200),
       seed=st.integers(0, 2**32 - 1))
def test_born_probabilities_sum_to_one(kind, dim, seed):
    """Completeness makes the Born vector of any unit state sum to 1, within
    the discrete_born tolerance of 1e-12, on either preset and on a random
    QR unitary whose target cells are permuted."""
    rng = np.random.default_rng(seed)
    if kind == "identity":
        dev = identity_device(dim)
    elif kind == "fourier":
        dev = fourier_device(dim)
    else:
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        dev = build_device(q, rng.permutation(dim))
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi = v / np.linalg.norm(v)
    assert abs(born_probabilities(dev, psi).sum() - 1.0) <= 1e-12


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
    """The preset's Born vector, |fft(psi)|^2 with the orthonormal DFT,
    matches the projection onto its phase-table basis, built on demand by
    dev.basis, to 5e-16: the table keeps every phase exact to one rounding,
    where exp(2 pi i jk/n) evaluated at each jk misses that bound by its
    lost digits."""
    psi = random_state(n, seed=1)
    dev = fourier_device(n)
    dense = np.abs(dev.basis @ np.conj(psi)) ** 2
    probs = born_probabilities(dev, psi)
    assert np.max(np.abs(probs - dense)) < 5e-16


def _random_unitary_device(dim, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return build_device(q, np.arange(dim))


@pytest.mark.parametrize("dev", [
    fourier_device(8), fourier_device(64), identity_device(16),
    _random_unitary_device(12, 5), _random_unitary_device(40, 9),
], ids=["fourier8", "fourier64", "identity16", "random12", "random40"])
def test_born_probabilities_read_the_unitary_bitwise(dev):
    """born_probabilities is |U psi|^2 for the device unitary U, the same
    bits as apply_device: the orthonormal DFT for the Fourier preset and
    psi itself for the identity preset, which store no basis, and
    conj(B conj(psi)), the product with U = conj(B), for a stored basis B."""
    psi = random_state(dev.dim, seed=4)
    if dev.preset == "fourier":
        ref = np.fft.fft(psi, norm="ortho")
    elif dev.preset == "identity":
        ref = psi
    else:
        ref = dev.basis.conj() @ psi
    assert born_probabilities(dev, psi).tobytes() == (np.abs(ref) ** 2).tobytes()
    assert apply_device(dev, psi).tobytes() == ref.tobytes()


def test_born_probabilities_allocate_no_matrix():
    """The projection allocates O(n): an n x n conjugate copy of the basis
    would show as 16 n^2 bytes in the traced peak."""
    import tracemalloc

    dev = identity_device(256)
    psi = random_state(256)
    tracemalloc.start()
    try:
        born_probabilities(dev, psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 256 * 256 // 4


def test_fourier_preset_and_its_born_vector_hold_no_matrix():
    """fourier_device stores no basis, and its Born vector is an FFT: the
    two together peak below n^2 bytes, where the n x n complex basis alone
    is 16 n^2."""
    import tracemalloc

    n = 1024
    psi = random_state(n)
    tracemalloc.start()
    try:
        born_probabilities(fourier_device(n), psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n


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


@pytest.mark.parametrize("dev", [
    fourier_device(12), identity_device(12),
    build_device(_random_unitary_device(12, 7).basis, np.roll(np.arange(12), 5)),
], ids=["fourier", "identity", "file"])
def test_collapse_update_returns_the_basis_row_bitwise(dev):
    for cell in range(dev.dim):
        i, post = collapse_update(dev, cell)
        assert dev.target_cells[i] == cell
        assert post.dtype == complex and post.tobytes() == dev.basis[i].tobytes()


def test_collapse_update_forms_one_row_of_a_preset():
    """The Fourier preset's a_i comes from its closed form: the n x n basis
    would show as 16 n^2 traced bytes."""
    import tracemalloc

    n = 1024
    dev = fourier_device(n)
    tracemalloc.start()
    try:
        collapse_update(dev, 700)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n


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


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    perturbation=st.sampled_from([0.0, 1e-12, 3e-11, 1e-9, 1e-3]),
    symmetric=st.booleans(),
)
def test_build_device_matches_four_product_checks_on_symmetric_bases(dim, seed, perturbation,
                                                                     symmetric):
    """Q D Q^T, with Q real orthogonal and D unit-modulus diagonal, is a
    symmetric unitary, with or without a symmetric perturbation: its
    verdicts are the four products', as any other basis's are."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    u = (q * np.exp(2j * np.pi * rng.random(dim))) @ q.T
    u = (u + u.T) / 2  # symmetric bit for bit
    e = perturbation * (rng.normal(size=u.shape) + 1j * rng.normal(size=u.shape))
    basis = u + ((e + e.T) / 2 if symmetric else e)
    assert np.array_equal(basis, basis.T) == (symmetric or perturbation == 0.0 or dim == 1)
    want = four_product_verdict(basis)
    if want is None:
        dev = build_device(basis, np.arange(dim))
        assert np.array_equal(dev.basis.view(np.uint64), basis.view(np.uint64))
    else:
        with pytest.raises(BasisError) as err:
            build_device(basis, np.arange(dim))
        assert str(err.value) == want


@pytest.mark.parametrize("n", [8, 9, 64, 255, 512])
@pytest.mark.parametrize("preset", [fourier_device, identity_device])
def test_presets_pass_the_four_product_checks(preset, n):
    """The presets do not go through build_device: their bases are closed
    forms, and the four products pass them."""
    assert four_product_verdict(preset(n).basis) is None


@pytest.mark.parametrize("preset", [fourier_device, identity_device])
def test_presets_refuse_an_empty_dimension(preset):
    for dim in (0, -1):
        with pytest.raises(ValueError):
            preset(dim)


@pytest.mark.parametrize("preset", [fourier_device, identity_device])
def test_presets_pass_build_device_at_the_served_size(preset):
    """At n = 2048, a size the CLI serves, the bases that the presets build
    on demand pass both of build_device's Gram checks."""
    n = 2048
    dev = preset(n)
    built = build_device(dev.basis, dev.target_cells, dev.eigenvalues)
    assert np.array_equal(built.target_cells, dev.target_cells)
    assert np.array_equal(built.eigenvalues, dev.eigenvalues)


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
