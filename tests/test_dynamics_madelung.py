"""Density-phase engine: stationary states, cross-engine agreement, guard
behavior, and the documented failure mode of the unguarded scheme. The step
properties run on both of the engine's paths, the compiled kernel and the
numpy step, and hold the kernel to the numpy step bit for bit."""

import math
import shutil
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from edsim import (
    EvolutionConfig,
    Grid1D,
    NodeError,
    PhysicalParams,
    StabilityError,
    WaveFunction,
    evolve,
    free_gaussian,
    l1_distance,
    plane_wave,
    to_hydro,
)
import edsim.dynamics as dynamics
from edsim.config import RunConfig
from edsim.dynamics import GUARD_SCALE, HYDRO_FLOOR, _MadelungEngine
from oracles import discrete_ground_state

HARMONIC = PhysicalParams(potential=lambda x: 0.5 * x**2)
ENGINES_INI = Path(__file__).resolve().parent.parent / "perfbench" / "workloads" / "engines.ini"
# the engine's paths under test: compiled (the kernel of _madelung.c) and
# numpy; a host without a C compiler has only the numpy one
PATHS = (True, False) if shutil.which("cc") else (False,)


def engine(grid, p, compiled):
    """An engine checked to run the kernel (compiled) or the numpy step,
    which it takes when made while madelung_kernel answers None, as on a
    host that cannot build the kernel."""
    if compiled:
        eng = _MadelungEngine(grid, p)
    else:
        with mock.patch.object(dynamics, "madelung_kernel", lambda: None):
            eng = _MadelungEngine(grid, p)
    assert (eng._run is not None) == compiled
    return eng


def engines(grid, p):
    """One engine on each of PATHS."""
    return [engine(grid, p, compiled) for compiled in PATHS]


def packet(grid):
    return WaveFunction(
        grid, free_gaussian(grid.cells, sigma0=1.0, k0=1.0, x0=-1.0)
    ).normalized()


def stable_dt(grid, t_final, c=0.09):
    steps = math.ceil(t_final / (c * grid.dx**2))
    return t_final / steps, steps


def test_discrete_ground_state_is_stationary():
    """The ground eigenvector of the engine's own Hamiltonian should sit
    still: density frozen, phase ramping at -e0/hbar everywhere."""
    g = Grid1D(-3.5, 3.5, 256)
    e0, psi0 = discrete_ground_state(g, HARMONIC)
    h0 = to_hydro(psi0, node_floor=0.0)
    dt, steps = stable_dt(g, 1.0)
    tr = evolve(
        psi0,
        HARMONIC,
        EvolutionConfig(dt=dt, t_final=1.0, engine="madelung", snapshot_stride=steps,
                        node_floor=0.0),
    )
    h1 = tr.snapshots[-1][1]
    assert float(np.max(np.abs(h1.rho - h0.rho))) < 1e-8
    rate = h1.phi - h0.phi  # t_final = 1
    assert float(np.max(np.abs(rate + e0))) < 1e-5


def test_agrees_with_wavefunction_engine():
    g = Grid1D(-15.0, 15.0, 512)
    p = PhysicalParams()
    psi = packet(g)
    cn = evolve(
        psi, p, EvolutionConfig(dt=1e-3, t_final=0.5, engine="schrodinger", snapshot_stride=500)
    )
    dt, steps = stable_dt(g, 0.5)
    md = evolve(
        psi,
        p,
        EvolutionConfig(dt=dt, t_final=0.5, engine="madelung", snapshot_stride=steps,
                        node_floor=0.0),
    )
    rho_cn = cn.snapshots[-1][1].rho
    assert l1_distance(rho_cn, md.snapshots[-1][1].rho, g.dx) < 1e-3


def test_agrees_with_wavefunction_engine_hardwall():
    # centered packet spreading toward walls; even/odd ghost handling
    g = Grid1D(-8.0, 8.0, 256, "hardwall")
    p = PhysicalParams()
    psi = WaveFunction(g, free_gaussian(g.cells, sigma0=1.0)).normalized()
    cn = evolve(
        psi,
        p,
        EvolutionConfig(dt=1e-3, t_final=0.3, engine="schrodinger",
                        snapshot_stride=300),
    )
    dt, steps = stable_dt(g, 0.3)
    md = evolve(
        psi,
        p,
        EvolutionConfig(dt=dt, t_final=0.3, engine="madelung",
                        snapshot_stride=steps, node_floor=0.0),
    )
    rho_cn = cn.snapshots[-1][1].rho
    assert l1_distance(rho_cn, md.snapshots[-1][1].rho, g.dx) < 1e-4


def test_plane_wave_exact():
    """Uniform density is transported exactly; the phase drops at the free
    dispersion rate with no spatial ripple."""
    g = Grid1D(0.0, 10.0, 128)
    psi = plane_wave(g, 3)
    k = 6.0 * np.pi / 10.0
    dt, steps = stable_dt(g, 0.05)
    tr = evolve(
        psi,
        PhysicalParams(),
        EvolutionConfig(dt=dt, t_final=0.05, engine="madelung", snapshot_stride=steps),
    )
    h = tr.snapshots[-1][1]
    assert float(np.max(np.abs(h.rho - 0.1))) < 1e-12
    rate = (h.phi - to_hydro(psi).phi) / 0.05
    assert float(np.max(np.abs(rate + 0.5 * k**2))) < 1e-9


def test_bare_scheme_blows_up():
    """Without the guards (floor 0, no dissipation) integration of a
    localized packet diverges from tail roundoff: the plain reference step
    reaches non-finite fields before t = 0.5."""
    g = Grid1D(-15.0, 15.0, 512)
    dt, steps = stable_dt(g, 0.5)
    h = to_hydro(packet(g), node_floor=0.0)
    rho, phi = h.rho, h.phi
    for _ in range(steps):
        rho, phi, dev = _ref_step(rho, phi, dt, g, PhysicalParams(), True, 0.0, GUARD_SCALE, False)
        if not np.isfinite(dev):
            break
    assert not np.isfinite(dev)


def test_non_finite_field_raises():
    """A step whose fields overflow raises StabilityError with the time it
    reached instead of recording NaNs."""
    g = Grid1D(-8.0, 8.0, 8)
    p = PhysicalParams(potential=lambda x: 1e300 * (1.0 + x**2 / 64.0))
    psi = WaveFunction(g, free_gaussian(g.cells, sigma0=2.0)).normalized()
    dt = 0.05 * g.dx**2
    with pytest.raises(StabilityError, match=r"non-finite field \(t=0\.2\)") as info:
        evolve(psi, p, EvolutionConfig(dt=dt, t_final=dt, engine="madelung"))
    assert info.value.context() == {"stage": "madelung", "step": 1, "t": dt}


def test_finite_blow_up_raises():
    """A run can blow up with every field still finite: inside the dt bound,
    these four steps renormalize the norm by 2.68, 0.64, 8.1 and 1.8e12 and
    take the energy from 0.24 to 4e27. The first step already exceeds
    RENORM_LIMIT, so evolve refuses it."""
    g = Grid1D(-8.0, 8.0, 8)
    psi = WaveFunction(g, free_gaussian(g.cells, sigma0=0.6, k0=0.0988, x0=0.6)).normalized()
    dt = 0.0988 * g.dx**2
    cfg = EvolutionConfig(dt=dt, t_final=4 * dt, engine="madelung", node_floor=0.0)
    assert dt < cfg.stability_limit(g, PhysicalParams())
    with pytest.raises(StabilityError,
                       match=r"renormalization correction 2\.68 exceeds 0\.001 \(t=0\.3952\)"
                       ) as info:
        evolve(psi, PhysicalParams(), cfg)
    assert info.value.context() == {"stage": "madelung", "step": 1, "t": dt}


def test_dt_bound_enforced_upfront():
    g = Grid1D(-15.0, 15.0, 512)
    cfg = EvolutionConfig(dt=1e-2, t_final=0.1, engine="madelung", node_floor=0.0)
    assert 1e-2 > cfg.stability_limit(g, PhysicalParams())
    with pytest.raises(StabilityError):
        evolve(packet(g), PhysicalParams(), cfg)


def test_node_floor_guards_conversion():
    # Gaussian tails on a wide box sit far below the default floor
    g = Grid1D(-15.0, 15.0, 512)
    dt, _ = stable_dt(g, 0.1)
    with pytest.raises(NodeError):
        evolve(
            packet(g),
            PhysicalParams(),
            EvolutionConfig(dt=dt, t_final=0.1, engine="madelung"),
        )


def test_node_floor_mid_run_reports_its_step():
    """A packet running into a wall thins its far tail from 2.8e-6 to 9.4e-7
    in eight steps, so a floor of 1e-6 passes the up-front check and stops
    the eighth step, which evolve reports with that step's t, and as the
    error's stage, step and t."""
    g = Grid1D(-4.0, 4.0, 32, "hardwall")
    psi = WaveFunction(g, free_gaussian(g.cells, sigma0=1.0, k0=5.0, x0=1.0)).normalized()
    dt = 1.0 / 320.0
    cfg = EvolutionConfig(dt=dt, t_final=20 * dt, engine="madelung", node_floor=1e-6)
    with pytest.raises(NodeError,
                       match=r"^density 9\.4\d\de-07 below node floor \(t=0\.025\)$") as info:
        evolve(psi, PhysicalParams(), cfg)
    assert info.value.context() == {"stage": "madelung", "step": 8, "t": pytest.approx(0.025)}


def test_renormalization_stays_small():
    g = Grid1D(-3.5, 3.5, 256)
    _, psi0 = discrete_ground_state(g, HARMONIC)
    dt, steps = stable_dt(g, 0.5)
    tr = evolve(
        psi0,
        HARMONIC,
        EvolutionConfig(dt=dt, t_final=0.5, engine="madelung", snapshot_stride=steps // 5,
                        node_floor=0.0),
    )
    worst = max(d.renorm_correction for d in tr.diagnostics)
    assert worst < 1e-10
    assert all(d.norm == pytest.approx(1.0, abs=1e-12) for d in tr.diagnostics)


def test_single_step_matches_driver():
    g = Grid1D(-3.5, 3.5, 256)
    _, psi0 = discrete_ground_state(g, HARMONIC)
    h0 = to_hydro(psi0, node_floor=0.0)
    dt = 5e-5
    tr = evolve(
        psi0,
        HARMONIC,
        EvolutionConfig(dt=dt, t_final=dt, engine="madelung", node_floor=0.0),
    )
    h1 = tr.snapshots[-1][1]
    for eng in engines(g, HARMONIC):
        rho, phi, _ = eng.step(h0.rho, h0.phi, dt)
        assert np.max(np.abs(rho - h1.rho)) < 1e-15
        assert np.max(np.abs(phi - h1.phi)) < 1e-15


# ---------------------------------------------------------------------------
# the engine against its plain-expression formulation


def _ref_pad(f, kind, periodic, offset=0.0):
    if periodic:
        return np.concatenate((f[-2:] - offset, f, f[:2] + offset))
    if kind == "even":
        return np.concatenate((f[1::-1], f, f[:-3:-1]))
    return np.concatenate((-f[1::-1], f, -f[:-3:-1]))


def _ref_winding(phi, periodic):
    if not periodic:
        return 0.0
    n = len(phi)
    west = (phi[-1] - phi[0]) * n / (n - 1.0)
    return 2.0 * np.pi * np.round(west / (2.0 * np.pi))


def _ref_rhs(rho, phi, grid, p, periodic, floor, guard, dissipation):
    """The engine's folded-constant algebra as plain expressions, in the
    kernel's operation order; the engine runs floor = HYDRO_FLOOR,
    guard = GUARD_SCALE and dissipation on."""
    dx, hbar, m = grid.dx, p.hbar, p.m
    kr = (hbar / m) / (2.0 * dx) ** 2
    kg = -(hbar / (8.0 * m * dx**2))
    kq = hbar / (2.0 * m * dx**2)
    vq = -(p.potential_on(grid) / hbar) - 2.0 * kq
    pe = _ref_pad(phi, "even", periodic, _ref_winding(phi, periodic))
    gp = pe[3:-1] - pe[1:-3]
    fe = _ref_pad(rho * gp, "odd", periodic)
    drho = (fe[1:-3] - fe[3:-1]) * kr
    rp = np.maximum(rho, 0.0)
    sq = np.sqrt(rp + floor)
    se = _ref_pad(sq, "odd", periodic)
    dphi = gp * gp * kg + vq + kq * (se[3:-1] + se[1:-3]) / sq
    if floor > 0:
        dphi = dphi * (rp * rp / (rp * rp + floor * floor))
    if dissipation:
        r2 = 4.0 * hbar / (m * dx**2)
        r4 = 1.0 * hbar / (m * dx**2)
        r4s = r4 / 16.0
        c1 = (r2 / 4.0 + r4 / 4.0) / r4s
        c0 = (r2 / 2.0 + 3.0 * r4 / 8.0) / r4s
        msk = r4s * (guard * guard) / (rp * rp + guard * guard)
        re = _ref_pad(rho, "even", periodic)
        drho = drho + (c1 * (re[3:-1] + re[1:-3]) - c0 * rho - (re[4:] + re[:-4])) * msk
        dphi = dphi + (c1 * (pe[3:-1] + pe[1:-3]) - c0 * phi - (pe[4:] + pe[:-4])) * msk
    return drho, dphi


def _ref_rhs_unfused(rho, phi, grid, p, periodic, floor, guard, dissipation):
    """The plain expressions the engine integrated before its constants were
    folded, kept as an independent check of the algebra."""
    dx, hbar, m, n = grid.dx, p.hbar, p.m, grid.n
    V = p.potential_on(grid)
    off = 0.0
    if periodic:
        west = (phi[-1] - phi[0]) * n / (n - 1.0)
        off = 2.0 * np.pi * np.round(west / (2.0 * np.pi))
    pe = _ref_pad(phi, "even", periodic, off)
    gp = (pe[3:-1] - pe[1:-3]) / (2.0 * dx)
    flux = rho * (hbar / m) * gp
    fe = _ref_pad(flux, "odd", periodic)
    drho = -(fe[3:-1] - fe[1:-3]) / (2.0 * dx)
    rp = np.maximum(rho, 0.0)
    sq = np.sqrt(rp + floor)
    se = _ref_pad(sq, "odd", periodic)
    quantum = -(hbar**2 / (2.0 * m)) * ((se[3:-1] - 2.0 * sq + se[1:-3]) / dx**2) / sq
    w = rp * rp / (rp * rp + floor * floor) if floor > 0 else 1.0
    dphi = -w * ((hbar / (2.0 * m)) * gp**2 + V / hbar + quantum / hbar)
    if dissipation:
        r2 = 4.0 * hbar / (m * dx**2)
        r4 = 1.0 * hbar / (m * dx**2)
        msk = 1.0 / (1.0 + (rp / guard) ** 2)
        re = _ref_pad(rho, "even", periodic)
        d2r = re[3:-1] - 2.0 * rho + re[1:-3]
        d4r = re[4:] - 4.0 * re[3:-1] + 6.0 * rho - 4.0 * re[1:-3] + re[:-4]
        d2p = pe[3:-1] - 2.0 * phi + pe[1:-3]
        d4p = pe[4:] - 4.0 * pe[3:-1] + 6.0 * phi - 4.0 * pe[1:-3] + pe[:-4]
        drho += msk * (r2 * 0.25 * d2r - r4 / 16.0 * d4r)
        dphi += msk * (r2 * 0.25 * d2p - r4 / 16.0 * d4p)
    return drho, dphi


def _ref_step(rho, phi, dt, *args, unfused=False):
    rhs = _ref_rhs_unfused if unfused else _ref_rhs
    with np.errstate(all="ignore"):
        k1r, k1p = rhs(rho, phi, *args)
        k2r, k2p = rhs(rho + 0.5 * dt * k1r, phi + 0.5 * dt * k1p, *args)
        k3r, k3p = rhs(rho + 0.5 * dt * k2r, phi + 0.5 * dt * k2p, *args)
        k4r, k4p = rhs(rho + dt * k3r, phi + dt * k3p, *args)
        if unfused:
            rho = rho + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
            phi = phi + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        else:
            rho = rho + (2.0 * (k2r + k3r) + k1r + k4r) * (dt / 6.0)
            phi = phi + (2.0 * (k2p + k3p) + k1p + k4p) * (dt / 6.0)
    np.maximum(rho, 0.0, out=rho)
    z = float(rho.sum() * args[0].dx)
    if not (np.isfinite(z) and z > 0.0 and np.all(np.isfinite(phi))):
        return rho, phi, np.inf
    rho /= z
    return rho, phi, abs(z - 1.0)


def _same(a, b, blown):
    # a blown-up step's fields turn to NaN, whose payloads may differ
    return np.array_equal(a, b, equal_nan=True) if blown else a.tobytes() == b.tobytes()


_CASES = dict(
    n=st.integers(8, 160),
    boundary=st.sampled_from(["periodic", "hardwall"]),
    harmonic=st.booleans(),
    mu=st.floats(-2.0, 2.0),
    sigma=st.floats(0.6, 2.5),
    k0=st.floats(-3.0, 3.0),
    c=st.floats(0.01, 0.1),
)


# 0.5 x^2 symmetrized over the mirrored cells: the grid's cells mirror only
# to a few ulps, and this potential is even to the last bit
EVEN_HARMONIC = PhysicalParams(potential=lambda x: 0.25 * (x**2 + x[::-1] ** 2))


def _case(n, boundary, harmonic, mu, sigma, k0, c, even=False):
    """A Gaussian packet's (rho, phi), dt = c dx^2, an engine on each path
    and the reference arguments for one drawn case."""
    g = Grid1D(-8.0, 8.0, n, boundary)
    p = (EVEN_HARMONIC if even else HARMONIC) if harmonic else PhysicalParams()
    psi = WaveFunction(g, free_gaussian(g.cells, sigma0=sigma, k0=k0, x0=mu)).normalized()
    h = to_hydro(psi, node_floor=0.0)
    args = (g, p, boundary == "periodic", HYDRO_FLOOR, GUARD_SCALE, True)
    return h.rho, h.phi, c * g.dx**2, engines(g, p), args


def _bitwise_plain(eng, rho, phi, dt, args, steps):
    """eng steps to the bits of _ref_step, and blows up on its step."""
    rho_ref, phi_ref = rho.copy(), phi.copy()
    for _ in range(steps):
        rho, phi, dev = eng.step(rho, phi, dt)
        rho_ref, phi_ref, dev_ref = _ref_step(rho_ref, phi_ref, dt, *args)
        blown = not np.isfinite(dev_ref)
        assert _same(rho, rho_ref, blown)
        assert _same(phi, phi_ref, blown)
        assert dev == dev_ref or (blown and not np.isfinite(dev))
        if blown:
            break


@settings(max_examples=60, deadline=None)
@given(steps=st.integers(1, 8), **_CASES)
def test_step_is_bitwise_plain_formulation(steps, **case):
    rho, phi, dt, engs, args = _case(**case)
    for eng in engs:
        _bitwise_plain(eng, rho, phi, dt, args, steps)


def _poison(eng):
    """Fill the work buffer of eng's compiled path with NaN; the numpy path
    keeps no buffers from step to step."""
    if eng._run is not None:
        eng._kwork.fill(np.nan)


@settings(max_examples=40, deadline=None)
@given(steps=st.integers(1, 4), **_CASES)
@example(steps=2, n=1024, boundary="periodic", harmonic=False, mu=-1.0, sigma=1.0, k0=1.0,
         c=0.1)
@example(steps=2, n=1024, boundary="hardwall", harmonic=True, mu=-1.0, sigma=1.0, k0=1.0,
         c=0.1)
def test_step_reads_no_junk(steps, **case):
    """A step writes every work value before it reads it: a kernel whose
    work buffer starts as NaN still steps to the bits of the plain
    formulation. The ghost cells take stage values no stencil may see."""
    rho, phi, dt, engs, args = _case(**case)
    for eng in engs:
        _poison(eng)
        _bitwise_plain(eng, rho, phi, dt, args, steps)


# Largest engine-vs-unfused deviation over about 43,000 drawn cases in the
# ranges of _CASES with 1-8 steps (hypothesis and uniform draws), all in
# guarded runs on coarse grids near the periodic seam or the walls: rho
# 4.9e-12 relative to max rho, phi 1.9e-11 relative to max(1, max |phi|),
# and |Z - 1| 5.8e-13 relative to 1 + |Z - 1| (15,000 cases). Each
# tolerance is about 8x its worst case.
UNFUSED_TOL_RHO, UNFUSED_TOL_PHI, UNFUSED_TOL_DEV = 4e-11, 1.6e-10, 5e-12


@settings(max_examples=60, deadline=None)
@given(steps=st.integers(1, 8), **_CASES)
def test_step_matches_unfused_formulation(steps, **case):
    """The folded constants change only roundoff: the engine tracks the
    expressions it integrated before they were folded, step for step."""
    rho0, phi0, dt, engs, args = _case(**case)
    for eng in engs:
        rho, phi = rho0, phi0
        rho_ref, phi_ref = rho.copy(), phi.copy()
        for _ in range(steps):
            rho, phi, dev = eng.step(rho, phi, dt)
            rho_ref, phi_ref, dev_ref = _ref_step(rho_ref, phi_ref, dt, *args, unfused=True)
            assert np.isfinite(dev) == np.isfinite(dev_ref)  # blow up on the same step
            if not np.isfinite(dev_ref):
                break
            assert np.max(np.abs(rho - rho_ref)) <= UNFUSED_TOL_RHO * np.max(rho_ref)
            assert (np.max(np.abs(phi - phi_ref))
                    <= UNFUSED_TOL_PHI * max(1.0, np.max(np.abs(phi_ref))))
            assert abs(dev - dev_ref) <= UNFUSED_TOL_DEV * (1.0 + dev_ref)


EPS = np.finfo(float).eps
# A shifted phase rounds each difference and stencil at |phi| + |c|, and
# the tails of a coarse grid amplify that: the quantum term (se_e + se_w) / sq
# is steep where a cell's density is orders of magnitude below its
# neighbour's. Over about 35,000 drawn cases the worst deviation was 84 units
# of eps (1 + max |phi| + max |phi'| + |c|), in rho relative to max rho' and
# in phi absolute; the bound is SHIFT_K = 1024 units.
SHIFT_K = 1024.0


@settings(max_examples=40, deadline=None)
@given(shift=st.floats(-10.0, 10.0), **_CASES)
def test_step_phase_shift_invariance(shift, **case):
    """Only differences of the phase enter the right-hand side, so a
    constant shift rides through a step unchanged."""
    rho, phi, dt, engs, _ = _case(**case)
    for eng in engs:
        rho1, phi1, dev1 = eng.step(rho, phi, dt)
        rho2, phi2, dev2 = eng.step(rho, phi + shift, dt)
        assert np.isfinite(dev1) == np.isfinite(dev2)
        assume(np.isfinite(dev1))  # a non-finite step leaves nothing to compare
        phi1 = phi1 + shift
        scale = SHIFT_K * EPS * (1.0 + np.max(np.abs(phi)) + np.max(np.abs(phi1)) + abs(shift))
        assert np.max(np.abs(rho2 - rho1)) <= scale * np.max(rho1)
        assert np.max(np.abs(phi2 - phi1)) <= scale


# the renormalization sums the mirrored density in another order; over
# 11,000 drawn cases rho differed from its mirror image by at most 4.4 eps
# relative to max rho
PARITY_K = 16.0


@settings(max_examples=40, deadline=None)
@given(**_CASES)
def test_step_commutes_with_parity(**case):
    """With an even potential on a grid symmetric about 0, stepping the
    mirrored state gives the mirrored step: the stencils are centered, each
    neighbour sum is commutative, each difference changes sign exactly, and
    the ghost layers mirror. The phase mirrors bit for bit."""
    rho, phi, dt, engs, _ = _case(even=True, **case)
    for eng in engs:
        rho1, phi1, dev1 = eng.step(rho, phi, dt)
        rho2, phi2, dev2 = eng.step(rho[::-1].copy(), phi[::-1].copy(), dt)
        assert np.isfinite(dev1) == np.isfinite(dev2)
        assume(np.isfinite(dev1))  # a non-finite step leaves nothing to compare
        assert phi2[::-1].tobytes() == phi1.tobytes()
        assert np.max(np.abs(rho2[::-1] - rho1)) <= PARITY_K * EPS * np.max(rho1)


def test_step_results_are_not_engine_buffers():
    g = Grid1D(-3.5, 3.5, 64, "hardwall")
    _, psi0 = discrete_ground_state(g, HARMONIC)
    h0 = to_hydro(psi0, node_floor=0.0)
    rho0, phi0 = h0.rho.copy(), h0.phi.copy()
    for eng in engines(g, HARMONIC):
        r1, p1, _ = eng.step(h0.rho, h0.phi, 1e-4)
        kept = r1.copy(), p1.copy()
        r2, p2, _ = eng.step(r1, p1, 1e-4)
        assert h0.rho.tobytes() == rho0.tobytes() and h0.phi.tobytes() == phi0.tobytes()
        assert r1.tobytes() == kept[0].tobytes() and p1.tobytes() == kept[1].tobytes()
        assert not (np.shares_memory(r1, r2) or np.shares_memory(p1, p2))

    tr = evolve(
        psi0,
        HARMONIC,
        EvolutionConfig(dt=1e-4, t_final=1e-3, engine="madelung", snapshot_stride=2,
                        node_floor=0.0),
    )
    arrays = [a for _, s in tr.snapshots for a in (s.rho, s.phi)]
    assert len(arrays) == 12
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler for the kernel")
@pytest.mark.parametrize("boundary", ["periodic", "hardwall"])
def test_kernel_is_the_numpy_step_bitwise_over_2000_engines_steps(boundary):
    """The compiled step and the numpy step take the perfbench engines set-up
    (n = 1024, dt = 1.25e-4) through 2000 steps to the same bits and the
    same |Z - 1|: free on its periodic grid, and in a harmonic potential
    between hard walls."""
    cfg = RunConfig.load(str(ENGINES_INI))
    g, p, dt = cfg.grid(), cfg.params(), cfg.evolution_configs()[0].dt
    if boundary == "hardwall":
        g, p = Grid1D(g.x_min, g.x_max, g.n, boundary), HARMONIC
    h = to_hydro(WaveFunction(g, cfg.initial_state().amplitudes).normalized(), node_floor=0.0)
    kernel, plain = engines(g, p)
    a = b = h.rho, h.phi
    for _ in range(2000):
        *a, dev_a = kernel.step(*a, dt)
        *b, dev_b = plain.step(*b, dt)
        assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()
        assert dev_a == dev_b < 1e-9


def on_numpy_path(run):
    """run(), made to build its engines while madelung_kernel answers None,
    so they take the numpy path's per-step loop."""
    with mock.patch.object(dynamics, "madelung_kernel", lambda: None):
        return run()


def in_chunks_of_2(run):
    """run(), with each madelung_run call taking at most 2 steps, so that a
    stride spans several calls."""
    with mock.patch.object(dynamics, "RUN_CHUNK", 2):
        return run()


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler for the kernel")
@pytest.mark.parametrize("boundary", ["periodic", "hardwall"])
@pytest.mark.parametrize("stride, steps", [(1, 40), (800, 2000)])
def test_whole_strides_are_the_numpy_steps_bitwise(boundary, stride, steps):
    """evolve on the perfbench engines set-up, advancing a whole snapshot
    stride per kernel call (stride 1, and engines.ini's 800 with a last
    stride of 400), or in calls of 2 steps, records the bits of the numpy
    path's step-by-step run: every snapshot and every diagnostics row,
    worst |Z - 1| included."""
    cfg = RunConfig.load(str(ENGINES_INI))
    g, p, dt = cfg.grid(), cfg.params(), cfg.evolution_configs()[0].dt
    if boundary == "hardwall":
        g, p = Grid1D(g.x_min, g.x_max, g.n, boundary), HARMONIC
    psi = WaveFunction(g, cfg.initial_state().amplitudes)
    ecfg = EvolutionConfig(dt=dt, t_final=steps * dt, engine="madelung", snapshot_stride=stride,
                           node_floor=0.0)
    runs = [evolve(psi, p, ecfg)] + [how(lambda: evolve(psi, p, ecfg))
                                     for how in (on_numpy_path, in_chunks_of_2)]
    assert len(runs[0].snapshots) == -(-steps // stride) + 1
    a, *others = [[(t, h.rho.tobytes(), h.phi.tobytes()) for t, h in tr.snapshots]
                  for tr in runs]
    assert others == [a, a]
    assert runs[1].diagnostics == runs[0].diagnostics == runs[2].diagnostics
    assert 0 < max(d.renorm_correction for d in runs[0].diagnostics) < 1e-9


def _uniform_overflow():
    """A uniform potential of 3e306 ramps the phase, with no gradient, until
    the phase stencil's sums overflow: non-finite at step 8. (A snapshot
    before it would overflow in the energy's one-sided gradient.)"""
    g = Grid1D(-8.0, 8.0, 8)
    p = PhysicalParams(potential=lambda x: np.full_like(x, 3e306))
    return g, p, WaveFunction(g, free_gaussian(g.cells, sigma0=2.0)), 0.05 * g.dx**2, 0.0


def _slow_leak():
    """A packet on eight cells leaks norm through the guards until step
    194 renormalizes by more than RENORM_LIMIT."""
    g = Grid1D(-8.0, 8.0, 8)
    p = PhysicalParams(potential=lambda x: 1.0 + x**2 / 64.0)
    return g, p, WaveFunction(g, free_gaussian(g.cells, sigma0=2.0)), 0.05 * g.dx**2, 0.0


def _thinning_tail():
    """The packet of test_node_floor_mid_run_reports_its_step: its tail
    falls below the node floor at step 8."""
    g = Grid1D(-4.0, 4.0, 32, "hardwall")
    psi = WaveFunction(g, free_gaussian(g.cells, sigma0=1.0, k0=5.0, x0=1.0))
    return g, PhysicalParams(), psi, 1.0 / 320.0, 1e-6


@pytest.mark.parametrize("setup, stride, error, message, step", [
    (_uniform_overflow, 10, StabilityError, r"non-finite field \(t=1\.6\)", 8),
    (_slow_leak, 10, StabilityError,
     r"renormalization correction 0\.00206 exceeds 0\.001 \(t=38\.8\)", 194),
    (_thinning_tail, 5, NodeError, r"density 9\.4\d\de-07 below node floor \(t=0\.025\)", 8),
])
def test_failure_mid_stride_is_the_same_on_both_paths(setup, stride, error, message, step):
    """A run that fails in the middle of a snapshot stride, for each way a
    step can fail, raises the same error on both paths, and with the stride
    split into kernel calls of 2 steps: type, message, stage, step and
    t."""
    g, p, psi, dt, floor = setup()
    cfg = EvolutionConfig(dt=dt, t_final=(step + 2 * stride) * dt, engine="madelung",
                          snapshot_stride=stride, node_floor=floor)
    # the failing step falls inside a stride, after its first call of 2 steps
    assert (step - 1) % stride not in (0, 1, stride - 1)
    hows = [on_numpy_path] + ([lambda run: run(), in_chunks_of_2] if True in PATHS else [])
    seen = []
    for how in hows:
        with pytest.raises(error, match=f"^{message}$") as info:
            how(lambda: evolve(psi, p, cfg))
        assert type(info.value) is error
        seen.append((str(info.value), info.value.context()))
    assert seen[0][1] == {"stage": "madelung", "step": step, "t": (step - 1) * dt + dt}
    assert seen == seen[:1] * len(hows)


@pytest.mark.parametrize("compiled", PATHS)
def test_step_refuses_fields_of_another_length(compiled):
    """A state that is not one value per cell is refused, by a step or a
    run of steps on either path, before the kernel could read or write past
    its arrays."""
    g = Grid1D(-8.0, 8.0, 16)
    eng = engine(g, PhysicalParams(), compiled)
    with pytest.raises(ValueError):
        eng.step(np.full(17, 1.0 / 16.0), np.zeros(17), 1e-4)
    with pytest.raises(ValueError):
        eng.run(np.full(16, 1.0 / 16.0), np.zeros(15), 1e-4, 3, 0.0)
