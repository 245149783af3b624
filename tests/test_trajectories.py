import tracemalloc
from dataclasses import replace
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
    StabilityError,
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


def make_trace(n=512, t_final=1.0, dt=2e-3, stride=25, boundary="periodic",
               node_floor=DEFAULT_NODE_FLOOR):
    g = Grid1D(-20.0, 20.0, n, boundary)
    p = PhysicalParams()
    psi = WaveFunction(g, free_gaussian(g.cells, sigma0=1.0, k0=1.0, x0=-1.0)).normalized()
    tr = evolve(
        psi, p,
        EvolutionConfig(dt=dt, t_final=t_final, engine="schrodinger",
                        snapshot_stride=stride, node_floor=node_floor),
    )
    return g, TraceFields.from_trace(tr)


def test_inverse_cdf_uniform_density():
    rng = stream_rng(1, "trajectories")
    rho = np.full(100, 0.5)  # uniform on [0, 2]
    xs = inverse_cdf_sample(rho, 0.0, 0.02, 20000, rng)
    assert xs.min() >= 0.0 and xs.max() <= 2.0
    d = ks_statistic(xs, lambda s: np.clip(s / 2.0, 0.0, 1.0))
    assert d < ks_critical(20000)


def test_sample_initial_reproducible():
    g, fields = make_trace(n=256, t_final=0.01, stride=5)
    rho0 = fields.rhos[0]
    a = sample_initial(rho0, g, 1000, seed=9)
    b = sample_initial(rho0, g, 1000, seed=9)
    c = sample_initial(rho0, g, 1000, seed=10)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)
    assert a.t == 0.0


def test_current_flow_tracks_density():
    g, fields = make_trace()
    ens = sample_initial(fields.rhos[0], g, 20000, seed=4)
    moved = advance_ensemble(ens, fields, 2e-3, CURRENT_FLOW)
    assert moved.t == pytest.approx(1.0)
    d = ks_statistic(moved.positions, cdf_from_density(g, fields.rhos[-1]))
    assert d < ks_critical(20000)


def test_entropic_diffusion_tracks_density():
    g, fields = make_trace()
    ens = sample_initial(fields.rhos[0], g, 20000, seed=4)
    moved = advance_ensemble(ens, fields, 2e-3, ENTROPIC_DIFFUSION)
    d = ks_statistic(moved.positions, cdf_from_density(g, fields.rhos[-1]))
    assert d < ks_critical(20000)


def test_current_flow_deterministic():
    g, fields = make_trace(n=256, t_final=0.1, stride=10)
    ens = sample_initial(fields.rhos[0], g, 500, seed=6)
    a = advance_ensemble(ens, fields, 2e-3, CURRENT_FLOW)
    b = advance_ensemble(ens, fields, 2e-3, CURRENT_FLOW)
    assert np.array_equal(a.positions, b.positions)


def test_split_advance_is_bitwise_single_advance():
    """Continuing from the stored rng state makes two half-advances land on
    exactly the draws of one full advance."""
    g, fields = make_trace(n=256, t_final=0.5, stride=50)
    ens = sample_initial(fields.rhos[0], g, 500, seed=3)
    half = advance_ensemble(ens, fields, 1e-2, ENTROPIC_DIFFUSION, t_target=0.25)
    split = advance_ensemble(half, fields, 1e-2, ENTROPIC_DIFFUSION, t_target=0.5)
    single = advance_ensemble(ens, fields, 1e-2, ENTROPIC_DIFFUSION, t_target=0.5)
    assert np.array_equal(split.positions, single.positions)
    # the CLI pattern: one advance per snapshot interval
    assert len(fields.ts) == 6
    stepped = ens
    for t in fields.ts[1:]:
        stepped = advance_ensemble(stepped, fields, 1e-2, ENTROPIC_DIFFUSION,
                                   t_target=float(t))
    assert np.array_equal(stepped.positions, single.positions)
    assert np.array_equal(restore_rng(stepped.rng_state).random(8),
                          restore_rng(single.rng_state).random(8))


def test_drift_table_build_peaks_at_32_bytes_a_trace_value():
    """from_trace holds the density stack and the two drift tables, and at
    its peak one more array of the trace's size; beyond that only a few
    arrays of one value per snapshot."""
    g = Grid1D(-20.0, 20.0, 4096)
    p = PhysicalParams()
    psi = WaveFunction(g, free_gaussian(g.cells, sigma0=1.0, k0=1.0, x0=-1.0)).normalized()
    trace = evolve(psi, p, EvolutionConfig(dt=1e-3, t_final=0.1, snapshot_stride=1))
    values = len(trace.snapshots) * g.n
    assert values == 101 * 4096
    tracemalloc.start()
    try:
        TraceFields.from_trace(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * values + 16 * 1024, peak / values


def test_trace_coverage_errors():
    g, fields = make_trace(n=256, t_final=0.1, stride=10)
    ens = sample_initial(fields.rhos[0], g, 100, seed=1)
    with pytest.raises(TraceCoverageError):
        advance_ensemble(ens, fields, 2e-3, CURRENT_FLOW, t_target=0.2)
    early = Ensemble(ens.positions, -0.5, ens.rng_state)
    with pytest.raises(TraceCoverageError):
        advance_ensemble(early, fields, 2e-3, CURRENT_FLOW)
    late = Ensemble(ens.positions, 0.08, ens.rng_state)
    with pytest.raises(TraceCoverageError):
        advance_ensemble(late, fields, 2e-3, CURRENT_FLOW, t_target=0.04)


def test_non_divisible_dt_rejected():
    g, fields = make_trace(n=256, t_final=0.1, stride=10)
    ens = sample_initial(fields.rhos[0], g, 100, seed=1)
    with pytest.raises(ValueError):
        advance_ensemble(ens, fields, 3e-3, CURRENT_FLOW)


def test_node_check_on_diffusive_drift():
    # absurdly high floor: every occupied cell trips the check immediately
    g, fields = make_trace(n=256, t_final=0.1, stride=10, node_floor=10.0)
    ens = sample_initial(fields.rhos[0], g, 100, seed=1)
    with pytest.raises(NodeError, match=r"\(t=0\.002\)") as info:
        advance_ensemble(ens, fields, 2e-3, ENTROPIC_DIFFUSION)
    assert info.value.context() == {"stage": ENTROPIC_DIFFUSION, "step": 1, "t": 2e-3}


@pytest.mark.parametrize("boundary", ["periodic", "hardwall"])
def test_non_finite_position_mid_advance_carries_its_step(boundary):
    """A drift that turns the positions non-finite stops the advance with
    the boundary's StabilityError and its message, and with the mode, the
    step on the global clock and its t as the error's stage, step and t."""
    g, fields = make_trace(n=256, t_final=0.1, stride=10, boundary=boundary)
    ens = sample_initial(fields.rhos[0], g, 100, seed=1)
    ens = advance_ensemble(ens, fields, 2e-3, CURRENT_FLOW, t_target=0.04)
    nan_drift = replace(fields, v_tab=np.full_like(fields.v_tab, np.nan))
    with pytest.raises(StabilityError, match="^non-finite particle position$") as info:
        advance_ensemble(ens, nan_drift, 2e-3, CURRENT_FLOW)
    assert info.value.context() == {"stage": CURRENT_FLOW, "step": 21, "t": 21 * 2e-3}


def test_positions_stay_in_domain():
    for boundary in ("periodic", "hardwall"):
        g, fields = make_trace(n=256, t_final=0.5, stride=50, boundary=boundary)
        ens = sample_initial(fields.rhos[0], g, 2000, seed=8)
        moved = advance_ensemble(ens, fields, 1e-2, ENTROPIC_DIFFUSION)
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
    """Every table read equals np.interp bit for bit: below the first node,
    on and one ulp either side of every kind of node, at and past the last
    node, with -0.0 entries and steep slopes."""
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
    for fp in tables:
        assert interp(x, fp).tobytes() == np.interp(x, cells, fp).tobytes()


NODE_FLOOR_MID_TRACE = 3e-3


@lru_cache(maxsize=None)
def narrow_fields(boundary):
    """A packet in a short box, so that particles reflect or wrap within
    the trace and low-density cells lie within reach."""
    g = Grid1D(-3.0, 3.0, 48, boundary)
    p = PhysicalParams()
    psi = WaveFunction(g, free_gaussian(g.cells, sigma0=1.0, k0=3.0, x0=1.0)).normalized()
    tr = evolve(psi, p, EvolutionConfig(dt=2e-3, t_final=0.12, snapshot_stride=10))
    return g, TraceFields.from_trace(tr)


def _advance_or_error(advance, ens, fields, targets, dt, mode):
    out = []
    try:
        for t in targets:
            ens = advance(ens, fields, dt, mode, t_target=t)
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
    g, fields = narrow_fields(boundary)
    fields = replace(fields, node_floor=node_floor)
    ts = fields.ts.tolist()
    targets = ([ts[split]] if 0 < split < len(ts) - 1 else []) + [ts[-1]]
    ens = sample_initial(fields.rhos[0], g, n_particles, seed)
    runs = [_advance_or_error(advance, ens, fields, targets, dt, mode)
            for advance in (advance_ensemble, _ref_advance)]
    assert runs[0] == runs[1]


def test_bitwise_cases_cross_walls_and_trip_node_floors(monkeypatch):
    """The fields the property above draws from make particles cross each
    kind of boundary, and make a node floor trip mid-trace, not at once."""
    real = trajectories._apply_boundary
    crossed = []

    def spy(x, grid):
        crossed.append(bool(np.any((x < grid.x_min) | (x > grid.x_max))))
        real(x, grid)

    monkeypatch.setattr(trajectories, "_apply_boundary", spy)
    for boundary in ("periodic", "hardwall"):
        g, fields = narrow_fields(boundary)
        ens = sample_initial(fields.rhos[0], g, 400, 5)
        crossed.clear()
        advance_ensemble(ens, replace(fields, node_floor=0.0), 1e-3, ENTROPIC_DIFFUSION)
        assert any(crossed)
        with pytest.raises(NodeError, match=r"\(t=0\.0[1-9]"):
            advance_ensemble(ens, replace(fields, node_floor=NODE_FLOOR_MID_TRACE), 1e-3,
                             ENTROPIC_DIFFUSION)


@lru_cache(maxsize=None)
def strided_fields(stride):
    """A packet traced every stride steps of dt = 1e-2 up to t = 0.24."""
    g = Grid1D(-8.0, 8.0, 64)
    p = PhysicalParams()
    psi = WaveFunction(g, free_gaussian(g.cells, sigma0=1.0, k0=1.0, x0=-1.0)).normalized()
    tr = evolve(psi, p, EvolutionConfig(dt=1e-2, t_final=0.24, snapshot_stride=stride))
    return g, TraceFields.from_trace(tr)


@settings(max_examples=60, deadline=None)
@given(
    stride=st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]),
    substeps=st.integers(1, 4),
    mode=st.sampled_from(SAMPLER_MODES),
    seed=st.integers(0, 2**32),
    splits=st.sets(st.integers(1, 95), max_size=4),
)
def test_split_advances_are_bitwise_one_advance(stride, substeps, mode, seed, splits):
    """Advances split at any whole steps, and the CLI's one advance per
    snapshot interval, land on the positions and RNG state of one advance,
    bit for bit, whatever the snapshot stride and the sampler dt."""
    g, fields = strided_fields(stride)
    fields = replace(fields, node_floor=0.0)
    dt = 1e-2 / substeps
    ens = sample_initial(fields.rhos[0], g, 50, seed)
    ts = fields.ts.tolist()
    splits = [k * dt for k in sorted(splits) if k < 24 * substeps]
    single, split, per_snapshot = (
        _advance_or_error(advance_ensemble, ens, fields, targets, dt, mode)[-1]
        for targets in ([ts[-1]], splits + [ts[-1]], ts[1:]))
    assert split == single and per_snapshot == single


_L_GRIDS = st.tuples(
    st.one_of(st.just(0.0), st.just(-0.0), st.floats(-50.0, 50.0)),
    st.floats(1e-3, 100.0),
)


@settings(max_examples=400, deadline=None)
@given(grid=_L_GRIDS, data=st.data())
def test_periodic_wrap_is_np_mod_bitwise(grid, data):
    """The in-place fmod wrap gives np.mod's positions by bytes: on +-0.0,
    +-L, +-2L, one ulp inside L, subnormals and tiny negatives as offsets
    from x_min (exact when x_min is +-0.0), and on arbitrary positions."""
    x_min, length = grid
    g = Grid1D(x_min, x_min + length, 8)
    L = g.length
    special = np.array([
        0.0, -0.0, L, -L, 2 * L, -2 * L, np.nextafter(L, 0), -np.nextafter(L, 0),
        5e-324, -5e-324, 2.2e-308, -2.2e-308, -1e-300, -1e-17, -L * 1e-16, 3 * L + 1e-9,
    ])
    offsets = np.concatenate((special, data.draw(
        arrays(float, st.integers(0, 60), elements=st.floats(-3 * L, 4 * L)))))
    x = offsets if x_min == 0.0 else x_min + offsets
    expected = _ref_apply_boundary(x.copy(), g)
    trajectories._apply_boundary(x, g)
    assert x.tobytes() == expected.tobytes()


def test_hard_wall_folds_any_overshoot_into_the_box():
    """Particles 8.5 and 9.5 box lengths (and a bit) past either wall end
    inside the box, where folding the line at both walls puts them; a
    reflection that gave up after 8 passes left the 8.5 ones on +-20."""
    g = Grid1D(-10.0, 10.0, 64, "hardwall")
    L = g.length
    past = np.array([8.5, 9.5, 8.5 + 0.3, 9.5 - 0.1]) * L
    x = np.concatenate((g.x_max + past, g.x_min - past))
    u = np.mod(x - g.x_min, 2.0 * L)
    folded = g.x_min + np.where(u > L, 2.0 * L - u, u)
    trajectories._apply_boundary(x, g)
    assert np.all((g.x_min <= x) & (x <= g.x_max))
    np.testing.assert_allclose(x, folded, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("far", [1e16, -1e16, 1e20, -1e20, 1e300, -1.7e308])
def test_hard_wall_brings_far_positions_inside(far):
    """Positions so far out that reflecting them at a wall rounds back to
    about the same magnitude still end inside, in one call, and a
    particle already inside keeps its position."""
    g = Grid1D(-10.0, 10.0, 64, "hardwall")
    x = np.array([0.25, far])
    trajectories._apply_boundary(x, g)
    assert x[0] == 0.25
    assert g.x_min <= x[1] <= g.x_max


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("boundary", ["periodic", "hardwall"])
def test_boundaries_reject_non_finite_positions(boundary, bad):
    """Neither boundary can map a non-finite position into the box: the
    periodic wrap would turn it into NaN, and NaN is on neither side of a
    wall."""
    g = Grid1D(-10.0, 10.0, 64, boundary)
    with pytest.raises(StabilityError, match="non-finite particle position"):
        trajectories._apply_boundary(np.array([0.0, bad]), g)


# The stepping loop as it stood before GridInterp, but for the names, the
# single TraceFields input (which carries the grid, with its boundary, and the
# node floor), one drift table per law and the clock (step k at t = k dt): the
# reference of test_advance_is_bitwise_np_interp_loop.


def _ref_apply_boundary(x, grid):
    if grid.boundary == "periodic":
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


def _ref_advance(ens: Ensemble, f: TraceFields, dt: float, mode: str, t_target=None) -> Ensemble:
    """Euler(-Maruyama) advance of every particle from ens.t to t_target
    (default: the end of the trace), reading fields from the trace with
    linear interpolation in time and space.
    """
    if mode not in SAMPLER_MODES:
        raise ValueError(f"mode must be one of {SAMPLER_MODES}")
    ts, rhos, grid, node_floor = f.ts, f.rhos, f.grid, f.node_floor
    t_target = float(ts[-1]) if t_target is None else float(t_target)
    tol = 1e-9 * max(1.0, abs(float(ts[-1])))
    if ens.t < ts[0] - tol or t_target > ts[-1] + tol:
        raise TraceCoverageError(
            f"advance [{ens.t:g}, {t_target:g}] outside trace [{ts[0]:g}, {ts[-1]:g}]"
        )
    if t_target < ens.t - tol:
        raise TraceCoverageError("cannot advance backwards")

    first, end = int(round(ens.t / dt)), int(round(t_target / dt))
    if abs(first * dt - ens.t) > tol or abs(end * dt - t_target) > tol:
        raise ValueError("advance ends must be integer numbers of dt steps")

    cells = grid.cells
    tab = f.b_tab if mode == ENTROPIC_DIFFUSION else f.v_tab
    noise_amp = np.sqrt(2.0 * f.diffusion * dt)

    def blend(tab, t):
        k = int(np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2))
        th = (t - ts[k]) / (ts[k + 1] - ts[k])
        return (1.0 - th) * tab[k] + th * tab[k + 1]

    rng = restore_rng(ens.rng_state)
    x = ens.positions.copy()
    for s in range(first, end):
        t = s * dt
        drift = np.interp(x, cells, blend(tab, t))
        if mode == ENTROPIC_DIFFUSION:
            x = x + drift * dt + noise_amp * rng.standard_normal(len(x))
        else:
            x = x + drift * dt
        x = _ref_apply_boundary(x, grid)
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
    return Ensemble(x, t_target, rng.bit_generator.state)
