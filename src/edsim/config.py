"""INI run configuration.

The schema is strict: unknown sections or keys are errors, so a typo like
``n_particle`` fails loudly instead of silently using a default. Each key's
rule lives in _SCHEMA beside its default: a tuple of choices, a Num, or None
for free text. Choices, the grid, [run] seed and [amplify] epsilon are
checked at load; any other number when it is read as cfg[section, key], so
a key that a command never reads cannot fail it. Rules that join keys stay
with the builders, among them the trace cap (evolution_configs) and the
sampler clock (sampler_dt). The resolved configuration (all defaults
filled in, output path excluded) can be rendered back to canonical text
for archiving next to the results.
"""

import configparser
import math
from dataclasses import dataclass

import numpy as np

from .analytic import box_eigenstate, free_gaussian, harmonic_eigenstate, plane_wave
from .dynamics import ENGINES, EvolutionConfig, _steps_for
from .errors import ConfigError
from .measurement import DEVICE_PRESETS, fourier_device, identity_device
from .state import BOUNDARIES, DEFAULT_NODE_FLOOR, Grid1D, PhysicalParams, WaveFunction
from .trajectories import SAMPLER_MODES

# a file device's checks hold its n x n basis and one Gram product (16 n^2
# bytes each, 256 MiB at n = 4096) and its magnitudes (8 n^2), and its
# device.json holds n^2 [re, im] pairs; a preset stores no n x n array
MAX_DEVICE_DIM = 4096
# a likelihood file holds at most this many pointer readings (columns);
# io.likelihood_file_bound turns it into a size that read_likelihood_csv
# checks before it parses, since the parse holds a Python float per value
MAX_POINTERS = 4096
# [sampler] n_particles stays below this: trajectories holds one ensemble at
# a time and peaks at about 80 bytes a particle per sampler mode, 0.32 GB
# at 4e6; the CSV writer spells io.ENSEMBLE_BLOCK particles at a time and
# holds about 220 traced bytes a particle of one block (1.7 MB), whatever
# the particle count
MAX_PARTICLES = 4 * 10**6
# [device] and [amplify] n_trials stay below this: measure peaks at about
# 115 bytes a trial and amplify at about 66, so 0.46 GB and 0.26 GB at 4e6
MAX_TRIALS = 4 * 10**6
# snapshots x cells per trace; (rho, phi), field arrays, drift tables: 48 B a value
MAX_TRACE_VALUES = 10**7
# steps of the evolution clock (t_final / [evolution] dt) and of the sampler
# clock (t_final / [sampler] dt) stay at or below this. The cheapest step,
# Crank-Nicolson at n = 8, takes about 14 us on a 2-core x86-64 host, so
# 1e8 steps run for about 25 minutes, and for about 70 at n = 1024
MAX_STEPS = 10**8


@dataclass(frozen=True)
class Num:
    """A finite number of type kind (int or float), at least low (above low
    when strict) and below high."""

    kind: type = float
    low: float = -math.inf
    strict: bool = False
    high: float = math.inf

    def __str__(self):
        text = "an integer" if self.kind is int else "a finite number"
        if self.low > -math.inf:
            text += f" {'>' if self.strict else '>='} {self.low}"
        if self.high < math.inf:
            text += f" and < {self.high}"
        return text

    def check(self, where: str, raw: str):
        try:
            v = self.kind(raw)
        except ValueError:
            v = math.nan
        if not ((v > self.low if self.strict else v >= self.low) and -math.inf < v < self.high):
            raise ConfigError(f"{where} must be {self}, got '{raw}'")
        return v


_FINITE, _POSITIVE, _NON_NEGATIVE = Num(), Num(low=0, strict=True), Num(low=0)

# (default, rule) per key; a None default marks a required key
_SCHEMA = {
    "grid": {"x_min": (None, _FINITE), "x_max": (None, _FINITE), "n": (None, Num(int, 8))},
    "physics": {"hbar": ("1.0", _POSITIVE), "m": ("1.0", _POSITIVE),
                "potential": ("free", ("free", "harmonic")),
                "omega": ("1.0", _FINITE), "center": ("0.0", _FINITE)},
    "initial": {"preset": (None, ("gaussian", "plane_wave", "eigenstate")),
                "mu": ("0.0", _FINITE), "sigma": ("1.0", _POSITIVE), "k": ("0.0", _FINITE),
                "well": ("harmonic", ("harmonic", "box")), "level": ("0", Num(int, 0))},
    "evolution": {"engine": ("schrodinger", (*ENGINES, "both")),
                  "dt": (None, _POSITIVE), "t_final": (None, _NON_NEGATIVE),
                  "snapshot_stride": ("1", Num(int, 1)),
                  "boundary": ("periodic", BOUNDARIES),
                  # <= 0 disables the node check; nan would disable it silently
                  "node_floor": (repr(DEFAULT_NODE_FLOOR), _FINITE)},
    "sampler": {"mode": ("current_flow", (*SAMPLER_MODES, "both")),
                "n_particles": ("10000", Num(int, 2, high=MAX_PARTICLES)),
                "dt": ("0", _NON_NEGATIVE)},  # 0: the evolution dt
    "device": {"preset": ("fourier", (*DEVICE_PRESETS, "file")), "path": ("", None),
               "n_trials": ("10000", Num(int, 1, high=MAX_TRIALS))},
    "amplify": {"likelihood": ("noisy", ("ideal", "noisy", "file")),
                "epsilon": ("0.1", Num(low=0, high=1)),
                "n_trials": ("10000", Num(int, 1, high=MAX_TRIALS)),
                "prior": ("born", ("born", "uniform")), "path": ("", None)},
    "run": {"seed": ("0", Num(int, 0, high=2**64)), "out": ("", None)},
}


def _check_steps(clock, steps):
    if steps > MAX_STEPS:
        raise ConfigError(f"t_final / [{clock}] dt = {steps:g} steps exceeds the limit of "
                          f"{MAX_STEPS:g} steps")


class RunConfig:
    """Validated configuration: raw text per key, read as cfg[section, key],
    and the state builders."""

    def __init__(self, values: dict):
        self.values = values

    @classmethod
    def load(cls, path, seed=None):
        """The config at path; seed, when given, replaces [run] seed and is
        checked by the same rule."""
        cp = configparser.ConfigParser(interpolation=None)
        try:
            read = cp.read(path)
        except configparser.Error as e:
            raise ConfigError(f"cannot parse {path}: {e}") from None
        if not read:
            raise ConfigError(f"config file not found: {path}")
        if seed is not None:
            cp.read_dict({"run": {"seed": str(seed)}})
        return cls.from_parser(cp)

    @classmethod
    def from_parser(cls, cp):
        for sect in cp.sections():
            if sect not in _SCHEMA:
                raise ConfigError(f"unknown section [{sect}]")
            for key in cp[sect]:
                if key not in _SCHEMA[sect]:
                    raise ConfigError(f"unknown key '{key}' in section [{sect}]")
        values = {sect: {} for sect in _SCHEMA}
        for sect, keys in _SCHEMA.items():
            for key, (default, rule) in keys.items():
                raw = cp.get(sect, key, fallback=default)
                if raw is None:
                    raise ConfigError(f"missing required key '{key}' in [{sect}]")
                values[sect][key] = raw = raw.strip()
                if isinstance(rule, tuple) and raw not in rule:
                    raise ConfigError(f"[{sect}] {key} must be one of {rule}, got '{raw}'")
        cfg = cls(values)
        g = cfg.grid()
        if cfg["initial", "preset"] == "plane_wave":
            winding = cfg["initial", "k"] * g.length / (2 * math.pi)
            if not math.isfinite(winding) or abs(winding - round(winding)) > 1e-9:
                raise ConfigError(
                    "plane_wave k must fit the periodic box: k*L/(2*pi) "
                    f"= {winding:.6g} is not an integer")
            # past 2^53 every float is an integer, so the fit check alone
            # would pass any huge k
            if abs(round(winding)) > g.n // 2:
                raise ConfigError(
                    f"plane_wave mode k*L/(2*pi) = {winding:.6g} exceeds the grid's "
                    f"Nyquist mode n/2 = {g.n // 2}")
        if cfg["device", "preset"] == "file" and not cfg["device", "path"]:
            raise ConfigError("[device] preset = file requires path")
        if cfg["amplify", "likelihood"] == "file" and not cfg["amplify", "path"]:
            raise ConfigError("[amplify] likelihood = file requires path")
        # read to be checked at load, whatever the command
        cfg["amplify", "epsilon"]
        cfg["run", "seed"]
        return cfg

    def __getitem__(self, where):
        """[section] key: checked by its Num rule into an int or float, else
        the text."""
        sect, key = where
        raw, rule = self.values[sect][key], _SCHEMA[sect][key][1]
        return rule.check(f"[{sect}] {key}", raw) if isinstance(rule, Num) else raw

    # builders -----------------------------------------------------------

    def grid(self) -> Grid1D:
        try:
            return Grid1D(self["grid", "x_min"], self["grid", "x_max"], self["grid", "n"],
                          self["evolution", "boundary"])
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def params(self) -> PhysicalParams:
        """Physical constants and potential; the kinetic scale hbar^2 / (2 m dx^2)
        must be a finite float, and a harmonic potential finite on every grid cell."""
        hbar, m = self["physics", "hbar"], self["physics", "m"]
        dx = self.grid().dx
        try:  # ** raises on overflow, / on a divisor that underflows to 0
            finite = math.isfinite(hbar**2 / (2.0 * m * dx**2))
        except ArithmeticError:
            finite = False
        if not finite:
            raise ConfigError(f"[physics] the kinetic scale hbar^2 / (2 m dx^2) is not finite "
                              f"(hbar {hbar:g}, m {m:g}, dx {dx:g})")
        if self["physics", "potential"] == "free":
            return PhysicalParams(hbar, m)
        omega, x0 = self["physics", "omega"], self["physics", "center"]
        p = PhysicalParams(hbar, m, lambda x: 0.5 * m * omega ** 2 * (x - x0) ** 2)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                p.potential_on(self.grid())
        except (ValueError, OverflowError):  # omega ** 2 overflows a float
            raise ConfigError(
                f"[physics] the harmonic potential (omega {omega:g}, center {x0:g}) "
                "is not finite on every grid cell") from None
        return p

    def initial_state(self) -> WaveFunction:
        g = self.grid()
        x = g.cells
        preset = self["initial", "preset"]
        if preset == "plane_wave":
            mode = int(round(self["initial", "k"] * g.length / (2 * math.pi)))
            return plane_wave(g, mode)
        try:
            # a preset that overflows in numpy is refused by the norm check
            # below, with no warning printed ahead of the error line
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                if preset == "gaussian":  # at t = 0 the packet does not depend on hbar or m
                    psi = free_gaussian(x, sigma0=self["initial", "sigma"],
                                        k0=self["initial", "k"], x0=self["initial", "mu"])
                elif self["initial", "well"] == "harmonic":
                    psi = harmonic_eigenstate(
                        x, self["initial", "level"], m=self["physics", "m"],
                        omega=self["physics", "omega"], hbar=self["physics", "hbar"])
                else:
                    psi = box_eigenstate(x, self["initial", "level"], g.x_min, g.length)
        except ArithmeticError as e:  # level! or k^2 past a float, sigma^2 underflowing to 0
            raise ConfigError(
                f"[initial] the {preset} preset cannot be computed in floats: {e}") from None
        state = WaveFunction(g, psi.astype(complex))
        norm = state.norm()
        if not (math.isfinite(norm) and norm > 0):
            raise ConfigError(f"[initial] the {preset} state has norm {norm:g} on this grid")
        return state.normalized()

    def _named(self, sect, key):
        """The choices [sect] key names: its value, or for both every other choice of its rule."""
        raw = self.values[sect][key]
        return tuple(c for c in _SCHEMA[sect][key][1] if c != "both") if raw == "both" else (raw,)

    def evolution_configs(self):
        """One EvolutionConfig per engine [evolution] engine names, in ENGINES
        order for both, which takes at most MAX_STEPS steps and whose trace
        holds at most MAX_TRACE_VALUES values."""
        settings = {k: self["evolution", k]
                    for k in ("dt", "t_final", "snapshot_stride", "node_floor")}
        try:
            ecfgs = tuple(EvolutionConfig(engine=engine, **settings)
                          for engine in self._named("evolution", "engine"))
        except ValueError as e:
            raise ConfigError(str(e)) from None
        _check_steps("evolution", _steps_for(ecfgs[0].t_final, ecfgs[0].dt))
        snapshots, cells = ecfgs[0].n_snapshots(), self.grid().n
        if snapshots * cells > MAX_TRACE_VALUES:
            raise ConfigError(
                f"snapshots x cells = {snapshots:g} x {cells:g} exceeds the limit of "
                f"{MAX_TRACE_VALUES:g} trace values")
        return ecfgs

    def sampler_modes(self):
        """The sampler laws [sampler] mode names, in SAMPLER_MODES order for both."""
        return self._named("sampler", "mode")

    def sampler_dt(self, ecfg: EvolutionConfig) -> float:
        """[sampler] dt (0: ecfg.dt); each snapshot time of ecfg is a later step
        of it, and t_final is at most MAX_STEPS steps of it."""
        sdt = self["sampler", "dt"] or ecfg.dt
        try:
            steps = [_steps_for(t, sdt) for t in ecfg.snapshot_times()]
        except ValueError as e:
            raise ConfigError(f"sampler dt does not fit the snapshots: {e}") from None
        if any(a >= b for a, b in zip(steps, steps[1:])):
            raise ConfigError(f"sampler dt {sdt:g} is longer than a snapshot interval")
        _check_steps("sampler", steps[-1])
        return sdt

    def device(self, grid):
        """The configured device on grid's cells: a preset of dimension
        grid.n, or a file device, whose dimension must equal grid.n. Either
        way grid.n may not exceed MAX_DEVICE_DIM."""
        if grid.n > MAX_DEVICE_DIM:
            raise ConfigError(
                f"device dimension {grid.n} exceeds the limit of {MAX_DEVICE_DIM} "
                "(dense n x n complex matrices)")
        preset = self["device", "preset"]
        if preset != "file":
            return {"identity": identity_device, "fourier": fourier_device}[preset](grid.n)
        from .io import read_device
        return read_device(self["device", "path"], grid.n)

    def likelihood(self, dev):
        kind = self["amplify", "likelihood"]
        from .amplification import ideal_likelihood, noisy_likelihood
        if kind == "ideal":
            return ideal_likelihood(dev.dim)
        if kind == "noisy":
            return noisy_likelihood(dev.dim, self["amplify", "epsilon"])
        from .io import read_likelihood_csv
        return read_likelihood_csv(self["amplify", "path"], dev.dim)

    def prior(self, dim):
        """The [amplify] prior over dim cells for end_to_end: None for born,
        which end_to_end then computes from the state it draws from."""
        if self["amplify", "prior"] == "uniform":
            return np.full(dim, 1.0 / dim)
        return None

    def resolved_ini(self) -> str:
        """Canonical text of the fully-resolved configuration. The output
        directory is excluded so reruns into different directories archive
        byte-identical provenance."""
        lines = []
        for sect in sorted(_SCHEMA):
            lines.append(f"[{sect}]")
            for key in sorted(_SCHEMA[sect]):
                if sect == "run" and key == "out":
                    continue
                lines.append(f"{key} = {self.values[sect][key]}".rstrip())
            lines.append("")
        return "\n".join(lines)
