import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from edsim import (
    Grid1D,
    cdf_from_density,
    chi2_critical,
    chi2_gof,
    ks_critical,
    ks_statistic,
    ks_two_sample,
    make_test_record,
)


def test_ks_statistic_known_value():
    # evenly spaced quantile samples of U(0,1): D = 1/(2n)
    n = 50
    samples = (np.arange(n) + 0.5) / n
    d = ks_statistic(samples, lambda s: np.clip(s, 0.0, 1.0))
    assert d == pytest.approx(0.5 / n, abs=1e-12)


def test_ks_statistic_detects_shift():
    rng = np.random.default_rng(0)
    samples = rng.random(2000) * 0.5
    d = ks_statistic(samples, lambda s: np.clip(s, 0.0, 1.0))
    assert d > 10 * ks_critical(2000)


def test_ks_critical_formula():
    assert ks_critical(10000) == pytest.approx(1.63 / 100.0)


def test_ks_two_sample():
    rng = np.random.default_rng(1)
    a = rng.normal(size=3000)
    d_same, crit = ks_two_sample(a, a.copy())
    assert d_same == 0.0
    assert crit == pytest.approx(1.63 * np.sqrt(2.0 / 3000.0))
    d_diff, _ = ks_two_sample(a, a + 1.0)
    assert d_diff > crit


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 600), st.integers(0, 2**32 - 1), st.integers(1, 10**6), st.booleans())
def test_chi2_matches_scipy(n, seed, trials, born):
    """chi2_gof is scipy.stats.chisquare bit for bit, statistic and p-value,
    on counts drawn from the cell weights (p-values spread over (0, 1)) or
    drawn with no relation to them (p-values near 0)."""
    rng = np.random.default_rng(seed)
    probs = rng.uniform(1e-6, 1.0, size=n)
    if born:
        counts = rng.multinomial(trials, probs / probs.sum())
    else:
        counts = rng.integers(0, trials, size=n, endpoint=True)
        counts[rng.integers(n)] += 1  # at least one trial
    stat, pval = chi2_gof(counts, probs)
    expected = counts.sum() * probs / probs.sum()
    ref = sps.chisquare(counts.astype(float), f_exp=expected)
    assert stat == float(ref.statistic)
    assert pval == float(ref.pvalue)


def test_chi2_critical_matches_scipy():
    dofs = np.arange(1, 5000)
    ref = sps.chi2.ppf(0.99, dofs)
    assert [chi2_critical(int(d)) for d in dofs] == ref.tolist()


def test_cdf_from_density():
    g = Grid1D(0.0, 2.0, 8)
    cdf = cdf_from_density(g, np.full(8, 0.5))
    assert cdf(0.0) == pytest.approx(0.0)
    assert cdf(2.0) == pytest.approx(1.0)
    assert cdf(0.5) == pytest.approx(0.25)
    xs = np.linspace(0.0, 2.0, 41)
    vals = cdf(xs)
    assert np.all(np.diff(vals) >= 0.0)


def test_cdf_from_density_nonuniform():
    g = Grid1D(0.0, 1.0, 10)
    rho = np.zeros(10)
    rho[:5] = 2.0  # all mass in the left half
    cdf = cdf_from_density(g, rho)
    assert cdf(0.5) == pytest.approx(1.0)
    assert cdf(0.25) == pytest.approx(0.5)
    assert cdf(0.75) == pytest.approx(1.0)


def test_make_test_record_shape():
    rec = make_test_record("ks_demo", 0.011, 0.0163, 10000, True)
    assert rec == {
        "test": "ks_demo",
        "statistic": 0.011,
        "critical_value": 0.0163,
        "n": 10000,
        "pass": True,
    }
