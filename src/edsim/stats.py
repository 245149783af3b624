"""Goodness-of-fit helpers: Kolmogorov-Smirnov and chi-square at fixed levels.

scipy.special is imported inside the chi-square helpers, not here: the CLI
imports this module on every run, and most runs never test a chi-square.
"""

import numpy as np

# asymptotic two-sided 1% point of the KS distribution
KS_COEFF_1PCT = 1.63


def ks_statistic(samples, model_cdf) -> float:
    """One-sample KS statistic of samples against a callable CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    f = np.asarray(model_cdf(x), dtype=float)
    n = len(x)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def ks_critical(n) -> float:
    """Asymptotic two-sided 1% critical value of the one-sample KS statistic."""
    return KS_COEFF_1PCT / np.sqrt(n)


def chi2_critical(dof) -> float:
    """Upper 1% point of the chi-square distribution with dof degrees of
    freedom; equal to scipy.stats.chi2.ppf(0.99, dof) bit for bit."""
    from scipy.special import gammaincinv

    return float(2.0 * gammaincinv(dof / 2.0, 0.99))


def ks_two_sample(a, b):
    """Two-sample KS statistic and its 1% critical value."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    both = np.concatenate((a, b))
    both.sort(kind="mergesort")
    cdf_a = np.searchsorted(a, both, side="right") / len(a)
    cdf_b = np.searchsorted(b, both, side="right") / len(b)
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    crit = KS_COEFF_1PCT * np.sqrt((len(a) + len(b)) / (len(a) * len(b)))
    return d, float(crit)


def chi2_gof(counts, probs):
    """Chi-square goodness of fit of counts against cell probabilities.

    Returns (statistic, p_value), equal bit for bit to
    scipy.stats.chisquare(counts, f_exp=expected)."""
    from scipy.special import chdtrc

    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    expected = counts.sum() * probs / probs.sum()
    stat = np.sum((counts - expected) ** 2 / expected)
    return float(stat), float(chdtrc(len(counts) - 1, stat))


def cdf_from_density(grid, rho):
    """Piecewise-linear CDF of a piecewise-constant cell density.

    This is exactly the distribution the inverse-CDF sampler draws from, so
    KS against it measures pure sampling error."""
    w = np.asarray(rho, dtype=float) * grid.dx
    f = np.concatenate(([0.0], np.cumsum(w)))
    f /= f[-1]
    edges = grid.x_min + np.arange(grid.n + 1) * grid.dx
    return lambda x: np.interp(x, edges, f)


def make_test_record(test, statistic, critical_value, n, passed) -> dict:
    """The JSON shape every statistical test result file uses."""
    return {
        "test": str(test),
        "statistic": float(statistic),
        "critical_value": float(critical_value),
        "n": int(n),
        "pass": bool(passed),
    }
