from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from edsim import trajectories
from edsim.seeding import restore_rng, stream_rng
from edsim.state import DEFAULT_NODE_FLOOR
from edsim.trajectories import SAMPLER_MODES, GridInterp


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


# ---------------------------------------------------------------------------
# the stepping loop against the np.interp loop it replaced


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(3, 600),
    x0=st.floats(-50.0, 50.0),
    dx=st.floats(1e-3, 7.0).filter(lambda v: v != 1.0),
    data=st.data(),
)
def test_grid_interp_is_np_interp_bitwise(n, x0, dx, data):
    """Every table read through one shared bracket equals np.interp bit for
    bit: below the first node, on and one ulp either side of every kind of
    node, at and past the last node, with -0.0 entries and steep slopes."""
    cells = x0 + (np.arange(n) + 0.5) * dx
    table = arrays(float, n, elements=st.one_of(
        st.just(-0.0), st.just(0.0), st.floats(-1e6, 1e6), st.floats(-1e-300, 1e-300)))
    tables = [data.draw(table) for _ in range(data.draw(st.integers(1, 3)))]
    nodes = cells[data.draw(st.lists(st.integers(0, n - 1), max_size=40))]
    width = cells[-1] - cells[0]
    free = np.array(data.draw(st.lists(
        st.floats(cells[0] - width - 3 * dx, cells[-1] + width + 3 * dx), max_size=200)))
    x = np.concatenate((
        nodes, np.nextafter(nodes, np.inf), np.nextafter(nodes, -np.inf),
        cells[[0, -1]], np.nextafter(cells[[0, -1]], np.inf),
        np.nextafter(cells[[0, -1]], -np.inf), [cells[0] - 1e9, cells[-1] + 1e9], free,
    ))
    interp = GridInterp(cells, dx)
    at = interp.locate(x)
    for fp in tables:
        assert interp.values(at, fp).tobytes() == np.interp(x, cells, fp).tobytes()


NODE_FLOOR_MID_TRACE = 3e-3


@lru_cache(maxsize=None)
def narrow_fields(boundary):
    """A packet in a short box, so that particles reflect or wrap within
    the trace and low-density cells lie within reach."""
    g = Grid1D(-3.0, 3.0, 48)
    p = PhysicalParams()
    psi = WaveFunction(g, free_gaussian(g.cells, sigma0=1.0, k0=3.0, x0=1.0)).normalized()
    tr = evolve(psi, p, EvolutionConfig(dt=2e-3, t_final=0.12, snapshot_stride=10,
                                         boundary=boundary))
    return g, p, TraceFields.from_trace(tr, p)


def _advance_or_error(advance, ens, fields, targets, dt, mode, p, boundary, node_floor):
    out = []
    try:
        for t in targets:
            ens = advance(ens, fields, dt, mode, p, boundary=boundary,
                          node_floor=node_floor, t_target=t)
            out.append((ens.positions.tobytes(), ens.t, repr(ens.rng_state)))
    except NodeError as e:
        out.append(("NodeError", str(e)))
    return out


@settings(max_examples=60, deadline=None)
@given(
    boundary=st.sampled_from(["periodic", "hardwall"]),
    mode=st.sampled_from(SAMPLER_MODES),
    n_particles=st.integers(1, 400),
    seed=st.integers(0, 2**32),
    dt=st.sampled_from([2e-3, 1e-3, 5e-4]),
    split=st.integers(0, 6),
    node_floor=st.one_of(st.just(0.0), st.floats(-8.0, -1.0).map(lambda e: 10.0**e)),
)
def test_advance_is_bitwise_np_interp_loop(boundary, mode, n_particles, seed, dt, split,
                                            node_floor):
    """Split or single advances, both modes and both boundaries land on the
    positions and RNG state of the np.interp loop bit for bit, and a node
    floor stops both at the same step with the same message."""
    g, p, fields = narrow_fields(boundary)
    ts = fields.ts.tolist()
    targets = ([ts[split]] if 0 < split < len(ts) - 1 else []) + [ts[-1]]
    ens = sample_initial(fields.rhos[0], g, n_particles, seed)
    runs = [_advance_or_error(advance, ens, fields, targets, dt, mode, p, boundary, node_floor)
            for advance in (advance_ensemble, _ref_advance)]
    assert runs[0] == runs[1]


def test_bitwise_cases_cross_walls_and_trip_node_floors(monkeypatch):
    """The fields the property above draws from make particles cross each
    kind of boundary, and make a node floor trip mid-trace, not at once."""
    real = trajectories._apply_boundary
    crossed = []

    def spy(x, grid, boundary):
        crossed.append(bool(np.any((x < grid.x_min) | (x > grid.x_max))))
        real(x, grid, boundary)

    monkeypatch.setattr(trajectories, "_apply_boundary", spy)
    for boundary in ("periodic", "hardwall"):
        g, p, fields = narrow_fields(boundary)
        ens = sample_initial(fields.rhos[0], g, 400, 5)
        crossed.clear()
        advance_ensemble(ens, fields, 1e-3, ENTROPIC_DIFFUSION, p, boundary=boundary,
                         node_floor=0.0)
        assert any(crossed)
        with pytest.raises(NodeError, match=r"\(t=0\.0[1-9]"):
            advance_ensemble(ens, fields, 1e-3, ENTROPIC_DIFFUSION, p, boundary=boundary,
                             node_floor=NODE_FLOOR_MID_TRACE)


# The stepping loop as it stood before GridInterp, verbatim but for the
# names: the reference of test_advance_is_bitwise_np_interp_loop.


def _ref_apply_boundary(x, grid, boundary):
    if boundary == "periodic":
        return grid.x_min + np.mod(x - grid.x_min, grid.length)
    # reflecting wall; displacements are small, but loop in case of corners
    for _ in range(8):
        over = x > grid.x_max
        under = x < grid.x_min
        if not (over.any() or under.any()):
            break
        x = np.where(over, 2.0 * grid.x_max - x, x)
        x = np.where(under, 2.0 * grid.x_min - x, x)
    return x


def _ref_advance(
    ens: Ensemble,
    trace,
    dt: float,
    mode: str,
    p: PhysicalParams,
    boundary: str = "periodic",
    node_floor: float = DEFAULT_NODE_FLOOR,
    t_target=None,
) -> Ensemble:
    """Euler(-Maruyama) advance of every particle from ens.t to t_target
    (default: the end of the trace), reading fields from the trace with
    linear interpolation in time and space.

    trace is a TraceFields or an EvolutionTrace; pass a TraceFields when
    advancing the same trace more than once, so its fields and drift
    tables are built only once.
    """
    if mode not in SAMPLER_MODES:
        raise ValueError(f"mode must be one of {SAMPLER_MODES}")
    f = trace if isinstance(trace, TraceFields) else TraceFields.from_trace(trace, p)
    if (f.hbar, f.m) != (p.hbar, p.m):
        raise ValueError(
            f"drift tables were built for hbar={f.hbar:g}, m={f.m:g}, "
            f"not hbar={p.hbar:g}, m={p.m:g}"
        )
    ts, rhos, v_tab, u_tab, grid = f.ts, f.rhos, f.v_tab, f.u_tab, f.grid
    t_target = float(ts[-1]) if t_target is None else float(t_target)
    tol = 1e-9 * max(1.0, abs(float(ts[-1])))
    if ens.t < ts[0] - tol or t_target > ts[-1] + tol:
        raise TraceCoverageError(
            f"advance [{ens.t:g}, {t_target:g}] outside trace [{ts[0]:g}, {ts[-1]:g}]"
        )
    if t_target < ens.t - tol:
        raise TraceCoverageError("cannot advance backwards")

    n_steps = int(round((t_target - ens.t) / dt))
    if abs(ens.t + n_steps * dt - t_target) > tol:
        raise ValueError("advance interval must be an integer number of dt steps")

    cells = grid.cells
    diffusion = p.hbar / (2.0 * p.m)
    noise_amp = np.sqrt(2.0 * diffusion * dt)

    def blend(tab, t):
        k = int(np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2))
        th = (t - ts[k]) / (ts[k + 1] - ts[k])
        return (1.0 - th) * tab[k] + th * tab[k + 1]

    rng = restore_rng(ens.rng_state)
    x = ens.positions.copy()
    for s in range(n_steps):
        t = ens.t + s * dt
        drift = np.interp(x, cells, blend(v_tab, t))
        if mode == ENTROPIC_DIFFUSION:
            drift = drift + diffusion * np.interp(x, cells, blend(u_tab, t))
            x = x + drift * dt + noise_amp * rng.standard_normal(len(x))
        else:
            x = x + drift * dt
        x = _ref_apply_boundary(x, grid, boundary)
        if mode == ENTROPIC_DIFFUSION and node_floor > 0:
            idx = np.clip(
                np.floor((x - grid.x_min) / grid.dx).astype(int), 0, grid.n - 1
            )
            rho_here = blend(rhos, t + dt)[idx]
            if float(np.min(rho_here)) < node_floor:
                raise NodeError(
                    f"particle entered a cell with rho below {node_floor:g} "
                    f"(t={t + dt:g}): drift d(log rho)/dx diverges there"
                )
    return Ensemble(x, t_target, ens.seed, rng.bit_generator.state)
