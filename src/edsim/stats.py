"""Goodness-of-fit helpers: Kolmogorov-Smirnov and chi-square at fixed levels.

The CLI imports this module on every run, so nothing here loads scipy at
import. chi2_critical reads its 1% points from edsim.chi2_table, and only
chi2_gof, for its p-value, imports scipy.special, when it is called.
"""

import numpy as np

from .chi2_table import POINTS

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
    freedom, from edsim.chi2_table: scipy.stats.chi2.ppf(0.99, dof) bit for
    bit, and 0.0 at dof 0. ValueError outside dof 0 to 4999, which covers
    every device the CLI accepts (MAX_DEVICE_DIM cells)."""
    points = POINTS.split()
    if not 0 <= dof < len(points):
        raise ValueError(f"chi2_critical: dof {dof} is outside 0 to {len(points) - 1}")
    return float(points[dof])


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


def pearson_statistic(counts, probs) -> float:
    """Pearson's chi-square statistic of counts against cell probabilities.

    Cells of probability 0 are left out of the sum, and a count in such a
    cell gives inf. Its degrees of freedom are the count of positive cells
    less one."""
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    expected = counts.sum() * probs / probs.sum()
    kept = probs > 0
    if np.any(counts[~kept]):
        return float("inf")
    counts, expected = counts[kept], expected[kept]
    return float(np.sum((counts - expected) ** 2 / expected))


def chi2_gof(counts, probs):
    """Chi-square goodness of fit of counts against cell probabilities.

    Returns (statistic, p_value): pearson_statistic and its upper tail,
    (inf, 0.0) for a count in a cell of probability 0. Where every
    probability is positive the result equals
    scipy.stats.chisquare(counts, f_exp=expected) bit for bit."""
    from scipy.special import chdtrc

    stat = pearson_statistic(counts, probs)
    return stat, float(chdtrc(np.count_nonzero(probs) - 1, stat))


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
