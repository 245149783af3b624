import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import edsim.io as iomod
from edsim import (
    LikelihoodModel,
    RangeError,
    ZeroEvidenceError,
    bayes_update,
    born_probabilities,
    build_device,
    end_to_end,
    fourier_device,
    ideal_likelihood,
    identity_device,
    noisy_likelihood,
)
from edsim.amplification import _posterior_rows, draw_by_column
from edsim.seeding import stream_rng
from oracles import ref_likelihood


def random_state(dim, seed=0):
    rng = stream_rng(seed, "state")
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def test_ideal_likelihood_is_identity():
    assert_allclose(ideal_likelihood(5).matrix, np.eye(5))


def test_noisy_likelihood_columns():
    like = noisy_likelihood(4, 0.3)
    assert_allclose(like.matrix.sum(axis=0), np.ones(4), atol=1e-12)
    assert like.matrix[2, 2] == pytest.approx(0.7)
    assert like.matrix[0, 2] == pytest.approx(0.1)
    with pytest.raises(RangeError):
        noisy_likelihood(4, 1.0)
    with pytest.raises(RangeError):
        noisy_likelihood(4, -0.1)
    with pytest.raises(RangeError):
        noisy_likelihood(1, 0.1)


def test_likelihood_model_validation():
    with pytest.raises(RangeError):
        LikelihoodModel(np.array([[0.5, 1.2], [0.5, -0.2]]))
    with pytest.raises(RangeError):
        LikelihoodModel(np.array([[0.5, 0.5], [0.4, 0.5]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(RangeError):
            LikelihoodModel(np.array([[bad, 0.5], [0.5, 0.5]]))
    m = LikelihoodModel(np.array([[0.9, 0.2], [0.1, 0.8]]))
    assert m.n_pointers == 2 and m.n_cells == 2


def test_bayes_update_hand_case():
    # prior (0.5, 0.5), symmetric 10% confusion, pointer says 0:
    # posterior ~ (0.9, 0.1)
    like = noisy_likelihood(2, 0.1)
    post = bayes_update(np.array([0.5, 0.5]), like, 0)
    assert_allclose(post, [0.9, 0.1], atol=1e-12)
    skewed = bayes_update(np.array([0.8, 0.2]), like, 1)
    expect = np.array([0.8 * 0.1, 0.2 * 0.9])
    assert_allclose(skewed, expect / expect.sum(), atol=1e-12)


def test_bayes_update_validates_prior():
    like = ideal_likelihood(3)
    with pytest.raises(ValueError):
        bayes_update(np.array([0.5, 0.5, 0.5]), like, 0)


@pytest.mark.parametrize("prior", [
    [np.nan, 0.5, 0.25, 0.25],
    [-0.5, 1.0, 0.25, 0.25],
    [np.inf, 0.5, 0.25, 0.25],
], ids=["nan", "negative", "inf"])
def test_bayes_update_rejects_non_probability_prior(prior):
    """A nan sum passes the normalization check, and a negative entry that
    the others balance sums to 1: both need the entrywise check."""
    with pytest.raises(ValueError, match="finite and >= 0"):
        bayes_update(np.array(prior), noisy_likelihood(4, 0.1), 1)


def test_bayes_update_zero_evidence():
    like = ideal_likelihood(2)
    with pytest.raises(ZeroEvidenceError):
        bayes_update(np.array([1.0, 0.0]), like, 1)


def test_end_to_end_ideal_never_errs():
    psi = random_state(4, seed=2)
    log = end_to_end(psi, identity_device(4), ideal_likelihood(4), 3000, seed=8)
    assert log.error_rate == 0.0
    assert np.array_equal(log.map_i, log.true_i)
    assert np.array_equal(log.observed_r, log.true_i)


def test_end_to_end_log_shape():
    psi = random_state(8, seed=5)
    dev = fourier_device(8)
    log = end_to_end(psi, dev, noisy_likelihood(8, 0.2), 500, seed=4)
    assert log.rows[log.row_of].shape == (500, 8)
    assert_allclose(log.rows[log.row_of].sum(axis=1), np.ones(500), atol=1e-9)
    for per_trial in (log.true_i, log.observed_r, log.row_of, log.map_i):
        assert per_trial.shape == (500,)
    assert np.array_equal(np.unique(log.observed_r), np.arange(len(log.rows)))


def test_end_to_end_reproducible():
    psi = random_state(4, seed=2)
    dev = identity_device(4)
    like = noisy_likelihood(4, 0.3)
    a = end_to_end(psi, dev, like, 1000, seed=12)
    b = end_to_end(psi, dev, like, 1000, seed=12)
    assert np.array_equal(a.true_i, b.true_i)
    assert np.array_equal(a.observed_r, b.observed_r)
    c = end_to_end(psi, dev, like, 1000, seed=13)
    assert not np.array_equal(a.observed_r, c.observed_r)


def test_end_to_end_prior_override():
    psi = random_state(4, seed=2)
    dev = identity_device(4)
    like = noisy_likelihood(4, 0.2)
    log = end_to_end(psi, dev, like, 200, seed=1, prior=np.full(4, 0.25))
    # under a uniform prior the posterior is the reading's likelihood row,
    # which sums to 1 for the symmetric noisy model; the Born prior is not
    assert_allclose(log.rows[log.row_of], like.matrix[log.observed_r], atol=1e-15)
    with pytest.raises(ValueError):
        end_to_end(psi, dev, like, 200, seed=1, prior=np.array([0.9, 0.0, 0.0, 0.0]))


def test_end_to_end_dimension_mismatch():
    psi = random_state(4, seed=2)
    with pytest.raises(ValueError):
        end_to_end(psi, identity_device(4), ideal_likelihood(3), 100, seed=0)


def random_device(dim, seed):
    """Random unitary basis (QR of a complex Gaussian), permuted cells."""
    rng = stream_rng(seed, "state")
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    return build_device(q, rng.permutation(dim))


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(2, 7),
    seed=st.integers(0, 2**32 - 1),
    epsilon=st.floats(0.01, 0.9),
    prior_weights=st.lists(st.floats(0.01, 1.0), min_size=7, max_size=7),
    n_trials=st.integers(1, 300),
)
def test_end_to_end_posterior_properties(dim, seed, epsilon, prior_weights, n_trials):
    dev = random_device(dim, seed)
    like = noisy_likelihood(dim, epsilon)
    prior = np.array(prior_weights[:dim])
    prior /= prior.sum()
    log = end_to_end(random_state(dim, seed), dev, like, n_trials, seed, prior=prior)

    post = log.rows[log.row_of]
    assert post.shape == (n_trials, dim)
    readings = np.unique(log.observed_r)
    assert len(log.rows) == len(readings)  # one stored row per distinct reading
    for row in log.rows:
        assert abs(row.sum() - 1.0) <= 1e-12
    for r in readings:
        expect = bayes_update(prior, like, r)
        assert np.all(post[log.observed_r == r] == expect)
    assert np.array_equal(log.map_i, np.argmax(post, axis=1))


def dense_draw(cum, cols, u):
    """The pointer draw as one rows x trials comparison."""
    return (u[None, :] > cum[:, cols]).sum(axis=0)


@settings(max_examples=60, deadline=None)
@given(
    n_pointers=st.integers(1, 9),
    n_cells=st.integers(1, 9),
    kind=st.sampled_from(["random", "identity", "zeros"]),
    seed=st.integers(0, 2**32 - 1),
    n_trials=st.integers(1, 3000),
)
def test_draw_by_column_matches_dense_draw(n_pointers, n_cells, kind, seed, n_trials):
    rng = np.random.default_rng(seed)
    if kind == "identity":
        m = np.eye(n_cells)
    else:
        m = rng.random((n_pointers, n_cells))
        if kind == "zeros":
            m[rng.random(m.shape) < 0.6] = 0.0
            m[rng.integers(n_pointers, size=n_cells), np.arange(n_cells)] += 1.0
        m /= m.sum(axis=0)
    like = LikelihoodModel(m)
    cum = np.cumsum(like.matrix, axis=0)
    cols = rng.integers(like.n_cells, size=n_trials)
    u = rng.random(n_trials)
    # ties: a uniform equal to a cumulative entry must land in that entry's row
    tied = rng.random(n_trials) < 0.2
    u[tied] = cum[rng.integers(like.n_pointers, size=n_trials), cols][tied]
    # past the end: roundoff can leave a column's last entry below a uniform,
    # and such a draw must land in the last row
    past = rng.random(n_trials) < 0.1
    u[past] = np.nextafter(cum[-1, cols], np.inf)[past]
    got = draw_by_column(like, cols, u)
    want = np.minimum(dense_draw(cum, cols, u), like.n_pointers - 1)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_end_to_end_readings_match_dense_draw():
    like = noisy_likelihood(16, 0.3)
    log = end_to_end(random_state(16, seed=4), fourier_device(16), like, 3000, seed=5)
    u = stream_rng(5, "pointer").random(3000)
    want = np.minimum(dense_draw(np.cumsum(like.matrix, axis=0), log.true_i, u), 15)
    assert np.array_equal(log.observed_r, want)


def dense_preset(n, epsilon):
    """The n x n matrix a preset stands for, built as the presets once were:
    np.eye for the ideal likelihood (epsilon None), and np.full with its
    diagonal filled for the noisy one."""
    if epsilon is None:
        return np.eye(n)
    m = np.full((n, n), epsilon / (n - 1))
    np.fill_diagonal(m, 1.0 - epsilon)
    return m


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(2, 64),
    kind=st.sampled_from(["ideal", "zero", "random", "flat"]),
    drawn=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=512, kind="ideal", drawn=0.0, seed=1)
@example(n=512, kind="zero", drawn=0.0, seed=2)
@example(n=512, kind="random", drawn=0.1, seed=3)
@example(n=512, kind="flat", drawn=0.0, seed=4)
def test_preset_likelihoods_match_their_dense_matrices(tmp_path, n, kind, drawn, seed):
    """A preset stores (n, on, off) and builds rows and columns from them;
    each consumer gets the bits the dense matrix gave. "flat" is
    epsilon = (n - 1)/n, where on and off are equal up to rounding."""
    epsilon = {"ideal": None, "zero": 0.0, "random": drawn, "flat": (n - 1) / n}[kind]
    like = ideal_likelihood(n) if epsilon is None else noisy_likelihood(n, epsilon)
    m = dense_preset(n, epsilon)
    assert like.dense is None
    assert like.matrix.dtype == m.dtype and like.matrix.tobytes() == m.tobytes()

    rng = np.random.default_rng(seed)
    cum = np.cumsum(m, axis=0)
    cols = rng.integers(n, size=500)
    u = rng.random(500)
    tied = rng.random(500) < 0.2
    u[tied] = cum[rng.integers(n, size=500), cols][tied]
    past = rng.random(500) < 0.1
    u[past] = np.nextafter(cum[-1, cols], np.inf)[past]
    want = np.minimum(dense_draw(cum, cols, u), n - 1)
    assert np.array_equal(draw_by_column(like, cols, u), want)

    prior = rng.random(n) + 0.01
    prior /= prior.sum()
    readings = np.unique(rng.integers(n, size=min(n, 40)))
    weights = prior[None, :] * m[readings]
    want = weights / weights.sum(axis=1)[:, None]
    assert _posterior_rows(prior, like, readings).tobytes() == want.tobytes()

    path = tmp_path / "like.csv"
    iomod.write_likelihood_csv(path, like)
    assert path.read_text() == ref_likelihood(like)
    assert iomod.read_likelihood_csv(path, n).matrix.tobytes() == m.tobytes()


def test_presets_allocate_no_matrix():
    """The identity device, its Born vector and both likelihood presets at
    n = 1024 peak below n^2 traced bytes: one np.eye(n) of floats is 8 n^2."""
    n = 1024
    psi = random_state(n)
    tracemalloc.start()
    try:
        born_probabilities(identity_device(n), psi)
        ideal_likelihood(n)
        noisy_likelihood(n, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n
