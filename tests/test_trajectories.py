import numpy as np
import pytest

from edsim import (
    CURRENT_FLOW,
    ENTROPIC_DIFFUSION,
    Ensemble,
    EvolutionConfig,
    Grid1D,
    NodeError,
    PhysicalParams,
    TraceCoverageError,
    TraceFields,
    WaveFunction,
    advance_ensemble,
    evolve,
    free_gaussian,
    inverse_cdf_sample,
    ks_critical,
    ks_statistic,
    cdf_from_density,
    sample_initial,
)
from edsim.seeding import restore_rng, stream_rng


def make_trace(n=512, t_final=1.0, dt=2e-3, stride=25, boundary="periodic"):
    g = Grid1D(-20.0, 20.0, n)
    p = PhysicalParams()
    psi = WaveFunction(g, free_gaussian(g.cells, sigma0=1.0, k0=1.0, x0=-1.0)).normalized()
    tr = evolve(
        psi, p,
        EvolutionConfig(dt=dt, t_final=t_final, engine="schrodinger",
                        snapshot_stride=stride, boundary=boundary),
    )
    return g, p, tr


def test_inverse_cdf_uniform_density():
    rng = stream_rng(1, "trajectories")
    rho = np.full(100, 0.5)  # uniform on [0, 2]
    xs = inverse_cdf_sample(rho, 0.0, 0.02, 20000, rng)
    assert xs.min() >= 0.0 and xs.max() <= 2.0
    d = ks_statistic(xs, lambda s: np.clip(s / 2.0, 0.0, 1.0))
    assert d < ks_critical(20000)


def test_sample_initial_reproducible():
    g, _, tr = make_trace(n=256, t_final=0.01, stride=5)
    rho0 = tr.field_arrays()[1][0]
    a = sample_initial(rho0, g, 1000, seed=9)
    b = sample_initial(rho0, g, 1000, seed=9)
    c = sample_initial(rho0, g, 1000, seed=10)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)
    assert a.t == 0.0 and a.seed == 9


def test_current_flow_tracks_density():
    g, p, tr = make_trace()
    ens = sample_initial(tr.field_arrays()[1][0], g, 20000, seed=4)
    moved = advance_ensemble(ens, tr, 2e-3, CURRENT_FLOW, p)
    assert moved.t == pytest.approx(1.0)
    d = ks_statistic(moved.positions, cdf_from_density(g, tr.field_arrays()[1][-1]))
    assert d < ks_critical(20000)


def test_entropic_diffusion_tracks_density():
    g, p, tr = make_trace()
    ens = sample_initial(tr.field_arrays()[1][0], g, 20000, seed=4)
    moved = advance_ensemble(ens, tr, 2e-3, ENTROPIC_DIFFUSION, p)
    d = ks_statistic(moved.positions, cdf_from_density(g, tr.field_arrays()[1][-1]))
    assert d < ks_critical(20000)


def test_current_flow_deterministic():
    g, p, tr = make_trace(n=256, t_final=0.1, stride=10)
    ens = sample_initial(tr.field_arrays()[1][0], g, 500, seed=6)
    a = advance_ensemble(ens, tr, 2e-3, CURRENT_FLOW, p)
    b = advance_ensemble(ens, tr, 2e-3, CURRENT_FLOW, p)
    assert np.array_equal(a.positions, b.positions)


def test_split_advance_is_bitwise_single_advance():
    """Continuing from the stored rng state makes two half-advances land on
    exactly the draws of one full advance."""
    g, p, tr = make_trace(n=256, t_final=0.5, stride=50)
    ens = sample_initial(tr.field_arrays()[1][0], g, 500, seed=3)
    half = advance_ensemble(ens, tr, 1e-2, ENTROPIC_DIFFUSION, p, t_target=0.25)
    split = advance_ensemble(half, tr, 1e-2, ENTROPIC_DIFFUSION, p, t_target=0.5)
    single = advance_ensemble(ens, tr, 1e-2, ENTROPIC_DIFFUSION, p, t_target=0.5)
    assert np.array_equal(split.positions, single.positions)
    # the CLI pattern: one prebuilt TraceFields, one advance per snapshot interval
    fields = TraceFields.from_trace(tr, p)
    assert len(fields.ts) == 6
    stepped = ens
    for t in fields.ts[1:]:
        stepped = advance_ensemble(stepped, fields, 1e-2, ENTROPIC_DIFFUSION, p,
                                   t_target=float(t))
    assert np.array_equal(stepped.positions, single.positions)
    assert np.array_equal(restore_rng(stepped.rng_state).random(8),
                          restore_rng(single.rng_state).random(8))


def test_trace_fields_refuse_other_hbar_or_m():
    g, p, tr = make_trace(n=256, t_final=0.1, stride=10)
    fields = TraceFields.from_trace(tr, p)
    ens = sample_initial(fields.rhos[0], g, 100, seed=1)
    for other in (PhysicalParams(hbar=2.0), PhysicalParams(m=0.5)):
        with pytest.raises(ValueError, match="drift tables were built for"):
            advance_ensemble(ens, fields, 2e-3, CURRENT_FLOW, other)


def test_trace_coverage_errors():
    g, p, tr = make_trace(n=256, t_final=0.1, stride=10)
    ens = sample_initial(tr.field_arrays()[1][0], g, 100, seed=1)
    with pytest.raises(TraceCoverageError):
        advance_ensemble(ens, tr, 2e-3, CURRENT_FLOW, p, t_target=0.2)
    early = Ensemble(ens.positions, -0.5, ens.seed, ens.rng_state)
    with pytest.raises(TraceCoverageError):
        advance_ensemble(early, tr, 2e-3, CURRENT_FLOW, p)
    late = Ensemble(ens.positions, 0.08, ens.seed, ens.rng_state)
    with pytest.raises(TraceCoverageError):
        advance_ensemble(late, tr, 2e-3, CURRENT_FLOW, p, t_target=0.04)


def test_non_divisible_dt_rejected():
    g, p, tr = make_trace(n=256, t_final=0.1, stride=10)
    ens = sample_initial(tr.field_arrays()[1][0], g, 100, seed=1)
    with pytest.raises(ValueError):
        advance_ensemble(ens, tr, 3e-3, CURRENT_FLOW, p)


def test_node_check_on_diffusive_drift():
    # absurdly high floor: every occupied cell trips the check immediately
    g, p, tr = make_trace(n=256, t_final=0.1, stride=10)
    ens = sample_initial(tr.field_arrays()[1][0], g, 100, seed=1)
    with pytest.raises(NodeError):
        advance_ensemble(ens, tr, 2e-3, ENTROPIC_DIFFUSION, p, node_floor=10.0)


def test_positions_stay_in_domain():
    for boundary in ("periodic", "hardwall"):
        g, p, tr = make_trace(n=256, t_final=0.5, stride=50, boundary=boundary)
        ens = sample_initial(tr.field_arrays()[1][0], g, 2000, seed=8)
        moved = advance_ensemble(ens, tr, 1e-2, ENTROPIC_DIFFUSION, p, boundary=boundary)
        assert moved.positions.min() >= g.x_min
        assert moved.positions.max() <= g.x_max
