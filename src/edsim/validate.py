"""Acceptance checks: one named criterion per guaranteed behavior.

Each criterion runs a pinned configuration and returns pass/fail plus a
one-line detail with the measured number and its tolerance, so a failing
row says how far off it was. Domain errors inside a criterion become
failing rows rather than crashes; that is what makes the deliberately
undersized time step (see the madelung_dt override) report cleanly.
"""

import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .amplification import bayes_update, end_to_end, ideal_likelihood, noisy_likelihood
from .analytic import coherent_state, free_gaussian, free_gaussian_variance, harmonic_eigenstate
from .dynamics import EvolutionConfig, energy, evolve, l1_distance
from .errors import ConfigError, SimulationError
from .measurement import (
    ContinuumDevice,
    apply_device,
    born_probabilities,
    check_normal,
    continuum_pdf,
    draw_outcomes,
    fourier_device,
    identity_device,
    observable_matrix,
)
from .seeding import stream_rng
from .state import Grid1D, PhysicalParams, WaveFunction, to_hydro
from .stats import cdf_from_density, chi2_gof, ks_critical, ks_statistic, ks_two_sample
from .trajectories import (
    CURRENT_FLOW,
    ENTROPIC_DIFFUSION,
    SAMPLER_MODES,
    TraceFields,
    advance_ensemble,
    inverse_cdf_sample,
    sample_initial,
)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


def _packet(grid: Grid1D) -> WaveFunction:
    # shared moving packet: starts left of center so it ends symmetrically
    return WaveFunction(
        grid, free_gaussian(grid.cells, sigma0=1.0, k0=1.0, x0=-1.0)
    ).normalized()


def _c_engine_equivalence(ov):
    t0 = time.perf_counter()
    g = Grid1D(-20.0, 20.0, 1024)
    p = PhysicalParams()
    psi = _packet(g)
    cn = evolve(
        psi, p, EvolutionConfig(dt=1e-3, t_final=2.0, engine="schrodinger", snapshot_stride=100)
    )
    dt_m = float(ov.get("madelung_dt", 0.0)) or 2.0 / 14000.0
    stride = max(1, int(round(0.1 / dt_m)))
    md = evolve(
        psi,
        p,
        EvolutionConfig(dt=dt_m, t_final=2.0, engine="madelung", snapshot_stride=stride),
        node_floor=0.0,
    )
    ts_c, rh_c, _ = cn.field_arrays()
    ts_m, rh_m, _ = md.field_arrays()
    by_time = {round(float(t), 6): r for t, r in zip(ts_m, rh_m)}
    worst, shared = 0.0, 0
    for t, r in zip(ts_c, rh_c):
        other = by_time.get(round(float(t), 6))
        if other is not None:
            shared += 1
            worst = max(worst, l1_distance(r, other, g.dx))
    wall = time.perf_counter() - t0
    ok = worst < 1e-3 and shared >= 2 and wall < 60.0
    return ok, (
        f"max L1 between engine densities {worst:.3e} over {shared} shared "
        f"snapshots (tol 1e-3); wall {wall:.1f}s (limit 60)"
    )


_VARIANCE_ERR = {}


def _variance_err(n: int) -> float:
    """Signed relative error of the spread of a free packet at t = 2,
    wavefunction engine, dt = 1e-3. Cached so the dx-halving check reuses it."""
    if n not in _VARIANCE_ERR:
        g = Grid1D(-20.0, 20.0, n)
        tr = evolve(
            _packet(g),
            PhysicalParams(),
            EvolutionConfig(dt=1e-3, t_final=2.0, engine="schrodinger", snapshot_stride=2000),
        )
        _, rhos, _ = tr.field_arrays()
        x = g.cells
        mean = float(np.sum(rhos[-1] * x) * g.dx)
        var = float(np.sum(rhos[-1] * (x - mean) ** 2) * g.dx)
        exact = free_gaussian_variance(2.0, sigma0=1.0)
        _VARIANCE_ERR[n] = (var - exact) / exact
    return _VARIANCE_ERR[n]


def _c_analytic_spreading(ov):
    err = _variance_err(1024)
    ok = abs(err) <= 1e-4
    return ok, f"variance relative error {err:+.3e} at t=2, n=1024 (tol 1e-4)"


def _c_energy_conservation(ov):
    g = Grid1D(-12.0, 12.0, 4096)
    omega = 1.0
    p = PhysicalParams(potential=lambda x: 0.5 * omega**2 * x**2)
    psi = WaveFunction(g, coherent_state(g.cells, x0=1.0)).normalized()
    t_final = 5.0 * 2.0 * np.pi / omega
    steps = 15708
    tr = evolve(
        psi,
        p,
        EvolutionConfig(dt=t_final / steps, t_final=t_final, engine="schrodinger",
                        snapshot_stride=200),
    )
    es = np.array([d.energy for d in tr.diagnostics])
    drift = float(np.max(np.abs(es - es[0]) / abs(es[0])))
    ground = WaveFunction(g, harmonic_eigenstate(g.cells, 0).astype(complex)).normalized()
    e_g = energy(to_hydro(ground, node_floor=0.0), p)
    g_err = abs(e_g - 0.5 * p.hbar * omega) / (0.5 * p.hbar * omega)
    ok = drift < 1e-5 and g_err < 1e-4
    return ok, (
        f"energy drift {drift:.2e} over five periods (tol 1e-5); "
        f"ground-state energy error {g_err:.2e} (tol 1e-4)"
    )


def _c_trajectory_marginal(ov):
    t0 = time.perf_counter()
    g = Grid1D(-20.0, 20.0, 512)
    p = PhysicalParams()
    tr = evolve(
        _packet(g),
        p,
        EvolutionConfig(dt=2e-3, t_final=1.0, engine="schrodinger", snapshot_stride=25),
    )
    fields = TraceFields.from_trace(tr, p)
    ens0 = sample_initial(fields.rhos[0], g, 100000, seed=42)
    finals = {
        mode: advance_ensemble(ens0, fields, 2e-3, mode).positions
        for mode in SAMPLER_MODES
    }
    cdf = cdf_from_density(g, fields.rhos[-1])
    crit = ks_critical(100000)
    d_cf = ks_statistic(finals[CURRENT_FLOW], cdf)
    d_ed = ks_statistic(finals[ENTROPIC_DIFFUSION], cdf)
    d2, crit2 = ks_two_sample(finals[CURRENT_FLOW], finals[ENTROPIC_DIFFUSION])
    wall = time.perf_counter() - t0
    ok = d_cf < crit and d_ed < crit and d2 < crit2 and wall < 120.0
    return ok, (
        f"KS vs evolved density: current_flow {d_cf:.2e}, entropic_diffusion "
        f"{d_ed:.2e} (crit {crit:.2e}); two-sample {d2:.2e} (crit {crit2:.2e}); "
        f"wall {wall:.1f}s (limit 120)"
    )


def _c_discrete_born(ov):
    dev = fourier_device(16)
    rng = stream_rng(42, "state")
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi = v / np.linalg.norm(v)
    probs = born_probabilities(dev, psi)
    after = apply_device(dev, psi)
    exact = float(np.max(np.abs(np.abs(after) ** 2 - probs)))
    outcomes = draw_outcomes(probs, 100000, seed=42)
    counts = np.bincount(outcomes, minlength=dev.dim)
    _, pval = chi2_gof(counts, probs)
    ok = pval > 0.01 and exact <= 1e-12
    return ok, (
        f"chi2 p-value {pval:.3f} over 1e5 trials (threshold 0.01); "
        f"max |post-device cell probability - Born weight| {exact:.1e} (tol 1e-12)"
    )


def _c_continuum_born(ov):
    g = Grid1D(1.5, 6.5, 16384)
    x = g.cells
    psi = WaveFunction(g, free_gaussian(x, sigma0=0.5, x0=4.0)).normalized()
    dev = ContinuumDevice(lambda s: s**3, lambda s: 3.0 * s**2)
    a, rho_a = continuum_pdf(dev, psi)
    raw = psi.density() / (3.0 * x**2)
    z_err = abs(float(np.trapezoid(raw, a)) - 1.0)
    cdf_a = np.concatenate([[0.0], np.cumsum(0.5 * (rho_a[1:] + rho_a[:-1]) * np.diff(a))])
    cdf_a /= cdf_a[-1]
    rng = stream_rng(42, "trajectories")
    xs = inverse_cdf_sample(psi.density(), g.x_min, g.dx, 1_000_000, rng)
    d = ks_statistic(xs**3, lambda s: np.interp(s, a, cdf_a))
    crit = ks_critical(1_000_000)
    ok = z_err <= 1e-8 and d < crit
    return ok, (
        f"transformed density integrates to 1 within {z_err:.2e} (tol 1e-8); "
        f"KS vs 1e6-sample push-forward {d:.2e} (crit {crit:.2e})"
    )


def _c_normality_gate(ov):
    good = check_normal(observable_matrix(fourier_device(8)))
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    bad = check_normal(jordan)
    ok = good and not bad
    return ok, (
        f"device observable commutes with its adjoint: {good} (expected True); "
        f"2x2 Jordan block: {bad} (expected False)"
    )


def _c_bayes_amplification(ov):
    rng = stream_rng(7, "state")
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi4 = v / np.linalg.norm(v)
    ideal_err = end_to_end(psi4, identity_device(4), ideal_likelihood(4), 100000, seed=5).error_rate

    n = 4
    flat = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    noisy = end_to_end(flat, identity_device(n), noisy_likelihood(n, 0.1), 100000, seed=42)
    four_sigma = 4.0 * np.sqrt(0.1 * 0.9 / 100000)
    map_dev = abs(noisy.error_rate - 0.1)

    prior = np.array([0.5, 0.3, 0.2])
    like = noisy_likelihood(3, 0.2)
    worst = 0.0
    for r in range(3):
        post = bayes_update(prior, like, r).probabilities
        joint = prior * like.matrix[r, :]
        worst = max(worst, float(np.max(np.abs(post - joint / joint.sum()))))
    ok = ideal_err == 0.0 and map_dev <= four_sigma and worst <= 1e-12
    return ok, (
        f"ideal-likelihood error rate {ideal_err:g} (expected 0); noisy MAP error "
        f"off by {map_dev:.2e} from 0.1 (4-sigma bound {four_sigma:.2e}); "
        f"posterior vs joint-table enumeration {worst:.1e} (tol 1e-12)"
    )


_REPRO_INI = """\
[grid]
x_min = -10
x_max = 10
n = 256

[initial]
preset = gaussian
mu = 0.0
sigma = 1.0
k = 1.0

[evolution]
engine = both
dt = 5e-4
t_final = 0.1
snapshot_stride = 40
node_floor = 0

[sampler]
mode = both
n_particles = 1000

[device]
preset = fourier
n_trials = 10000

[amplify]
likelihood = noisy
epsilon = 0.1
n_trials = 10000

[run]
seed = 7
"""


def _read_tree(root):
    out = {}
    for base, _, files in os.walk(root):
        for f in files:
            full = os.path.join(base, f)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


def _c_reproducibility(ov):
    from . import cli

    with tempfile.TemporaryDirectory() as td:
        cfg_path = os.path.join(td, "run.ini")
        with open(cfg_path, "w") as fh:
            fh.write(_REPRO_INI)
        outs = (os.path.join(td, "first"), os.path.join(td, "second"))
        codes = []
        for out in outs:
            for cmd in ("evolve", "trajectories", "measure", "amplify"):
                codes.append(
                    cli.main([cmd, "--config", cfg_path, "--out", os.path.join(out, cmd)])
                )
        if any(codes):
            return False, f"command exit codes {codes} (all should be 0)"
        first, second = _read_tree(outs[0]), _read_tree(outs[1])
        if first.keys() != second.keys():
            return False, "rerun produced a different set of output files"
        diffs = sorted(k for k in first if first[k] != second[k])
    if diffs:
        return False, f"{len(diffs)} files differ across rerun, e.g. {diffs[:3]}"
    return True, (
        f"{len(first)} output files byte-identical across rerun of "
        "evolve/trajectories/measure/amplify"
    )


def _c_convergence_order(ov):
    ratio = _variance_err(1024) / _variance_err(2048)
    ok = 3.0 <= ratio <= 5.0
    return ok, f"variance error ratio {ratio:.2f} on dx halving (expected in [3, 5])"


_REGISTRY = (
    ("engine_equivalence", _c_engine_equivalence),
    ("analytic_spreading", _c_analytic_spreading),
    ("energy_conservation", _c_energy_conservation),
    ("trajectory_marginal", _c_trajectory_marginal),
    ("discrete_born", _c_discrete_born),
    ("continuum_born", _c_continuum_born),
    ("normality_gate", _c_normality_gate),
    ("bayes_amplification", _c_bayes_amplification),
    ("reproducibility", _c_reproducibility),
    ("convergence_order", _c_convergence_order),
)

CRITERIA = tuple(name for name, _ in _REGISTRY)
_FNS = dict(_REGISTRY)


def select_criteria(expr: str):
    """Comma-separated names or substrings, mapped to criterion names in
    canonical order."""
    picked = []
    for token in expr.split(","):
        token = token.strip()
        if not token:
            continue
        hits = [n for n in CRITERIA if token == n] or [n for n in CRITERIA if token in n]
        if not hits:
            raise ConfigError(f"--filter '{token}' matches no criterion; "
                              f"valid names: {', '.join(CRITERIA)}")
        picked.extend(hits)
    return [n for n in CRITERIA if n in picked]


def run_one(name: str, overrides=None) -> CriterionResult:
    if name not in _FNS:
        raise ValueError(f"unknown criterion '{name}'")
    try:
        passed, detail = _FNS[name](overrides or {})
    except SimulationError as e:
        return CriterionResult(name, False, f"{type(e).__name__}: {e}")
    return CriterionResult(name, passed, detail)


def run_all(names=None, overrides=None):
    return [run_one(n, overrides) for n in (names or CRITERIA)]
