"""INI run configuration.

The schema is strict: unknown sections or keys are errors, so a typo like
``n_particle`` fails loudly instead of silently using a default. The
resolved configuration (all defaults filled in, output path excluded) can
be rendered back to canonical text for archiving next to the results.
"""

import configparser
import math

import numpy as np

from .analytic import box_eigenstate, free_gaussian, harmonic_eigenstate, plane_wave
from .dynamics import EvolutionConfig
from .errors import ConfigError
from .measurement import fourier_device, identity_device
from .state import Grid1D, PhysicalParams, WaveFunction

# a None default marks a required key
_SCHEMA = {
    "grid": {"x_min": None, "x_max": None, "n": None},
    "physics": {"hbar": "1.0", "m": "1.0", "potential": "free", "omega": "1.0",
                "center": "0.0"},
    "initial": {"preset": None, "mu": "0.0", "sigma": "1.0", "k": "0.0",
                "well": "harmonic", "level": "0"},
    "evolution": {"engine": "schrodinger", "dt": None, "t_final": None,
                  "snapshot_stride": "1", "boundary": "periodic",
                  "node_floor": "1e-12"},
    "sampler": {"mode": "current_flow", "n_particles": "10000", "dt": "0"},
    "device": {"preset": "fourier", "path": "", "n_trials": "10000"},
    "amplify": {"likelihood": "noisy", "epsilon": "0.1", "n_trials": "10000",
                "prior": "born", "path": ""},
    "run": {"seed": "0", "out": ""},
    "validate": {"madelung_dt": "0"},
}

_CHOICES = {
    ("physics", "potential"): ("free", "harmonic"),
    ("initial", "preset"): ("gaussian", "plane_wave", "eigenstate"),
    ("initial", "well"): ("harmonic", "box"),
    ("evolution", "engine"): ("schrodinger", "madelung", "both"),
    ("evolution", "boundary"): ("periodic", "hardwall"),
    ("sampler", "mode"): ("current_flow", "entropic_diffusion", "both"),
    ("device", "preset"): ("identity", "fourier", "file"),
    ("amplify", "likelihood"): ("ideal", "noisy", "file"),
    ("amplify", "prior"): ("born", "uniform"),
}


class RunConfig:
    """Validated configuration with typed accessors and state builders."""

    def __init__(self, values: dict):
        self.values = values

    @classmethod
    def load(cls, path):
        cp = configparser.ConfigParser(interpolation=None)
        try:
            read = cp.read(path)
        except configparser.Error as e:
            raise ConfigError(f"cannot parse {path}: {e}") from None
        if not read:
            raise ConfigError(f"config file not found: {path}")
        return cls.from_parser(cp)

    @classmethod
    def from_parser(cls, cp):
        values = {}
        for sect in cp.sections():
            if sect not in _SCHEMA:
                raise ConfigError(f"unknown section [{sect}]")
            for key in cp[sect]:
                if key not in _SCHEMA[sect]:
                    raise ConfigError(f"unknown key '{key}' in section [{sect}]")
        for sect, keys in _SCHEMA.items():
            values[sect] = {}
            for key, default in keys.items():
                if cp.has_option(sect, key):
                    values[sect][key] = cp.get(sect, key).strip()
                elif default is not None:
                    values[sect][key] = default
                else:
                    raise ConfigError(f"missing required key '{key}' in [{sect}]")
        cfg = cls(values)
        cfg._check()
        return cfg

    def _check(self):
        for (sect, key), allowed in _CHOICES.items():
            v = self.values[sect][key]
            if v and v not in allowed:
                raise ConfigError(
                    f"[{sect}] {key} must be one of {allowed}, got '{v}'")
        g = self.grid()  # validates ranges
        if self.values["initial"]["preset"] == "plane_wave":
            k = self._float("initial", "k")
            winding = k * g.length / (2 * math.pi)
            if not math.isfinite(winding) or abs(winding - round(winding)) > 1e-9:
                raise ConfigError(
                    "plane_wave k must fit the periodic box: k*L/(2*pi) "
                    f"= {winding:.6g} is not an integer")
        if self.values["device"]["preset"] == "file" and not self.values["device"]["path"]:
            raise ConfigError("[device] preset = file requires path")
        if self.values["amplify"]["likelihood"] == "file" and not self.values["amplify"]["path"]:
            raise ConfigError("[amplify] likelihood = file requires path")
        eps = self._float("amplify", "epsilon")
        if not 0.0 <= eps < 1.0:
            raise ConfigError(f"[amplify] epsilon must be in [0, 1), got {eps}")
        seed = self.values["run"]["seed"]
        try:
            s = int(seed)
        except ValueError:
            raise ConfigError(f"[run] seed must be an integer, got '{seed}'") from None
        if not 0 <= s < 2 ** 64:
            raise ConfigError("[run] seed must fit in an unsigned 64-bit integer")

    def _float(self, sect, key) -> float:
        v = self.values[sect][key]
        try:
            return float(v)
        except ValueError:
            raise ConfigError(f"[{sect}] {key} must be a number, got '{v}'") from None

    def _int(self, sect, key) -> int:
        v = self.values[sect][key]
        try:
            return int(v)
        except ValueError:
            raise ConfigError(f"[{sect}] {key} must be an integer, got '{v}'") from None

    # builders -----------------------------------------------------------

    def grid(self) -> Grid1D:
        try:
            return Grid1D(self._float("grid", "x_min"),
                          self._float("grid", "x_max"),
                          self._int("grid", "n"))
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def params(self) -> PhysicalParams:
        hbar = self._float("physics", "hbar")
        m = self._float("physics", "m")
        if hbar <= 0 or m <= 0:
            raise ConfigError("[physics] hbar and m must be positive")
        pot = self.values["physics"]["potential"]
        if pot == "harmonic":
            omega = self._float("physics", "omega")
            x0 = self._float("physics", "center")
            return PhysicalParams(hbar, m, lambda x: 0.5 * m * omega ** 2 * (x - x0) ** 2)
        return PhysicalParams(hbar, m)

    def initial_state(self) -> WaveFunction:
        g = self.grid()
        x = g.cells
        preset = self.values["initial"]["preset"]
        if preset == "gaussian":
            mu, sigma, k = (self._float("initial", key) for key in ("mu", "sigma", "k"))
            if not (math.isfinite(sigma) and sigma > 0):
                raise ConfigError(f"[initial] sigma must be finite and positive, got {sigma:g}")
            if not (math.isfinite(mu) and math.isfinite(k)):
                raise ConfigError(f"[initial] mu and k must be finite, got mu={mu:g}, k={k:g}")
            psi = free_gaussian(
                x, sigma0=sigma, k0=k, x0=mu,
                hbar=self._float("physics", "hbar"), m=self._float("physics", "m"))
        elif preset == "plane_wave":
            k = self._float("initial", "k")
            mode = int(round(k * g.length / (2 * math.pi)))
            return plane_wave(g, mode)
        else:
            level = self._int("initial", "level")
            if level < 0:
                raise ConfigError("[initial] level must be >= 0")
            if self.values["initial"]["well"] == "harmonic":
                try:
                    psi = harmonic_eigenstate(
                        x, level, m=self._float("physics", "m"),
                        omega=self._float("physics", "omega"),
                        hbar=self._float("physics", "hbar"))
                except OverflowError:  # level! exceeds a float from level 171 on
                    raise ConfigError(
                        f"[initial] level {level} is too high for the harmonic "
                        "eigenstate: its normalization overflows") from None
            else:
                psi = box_eigenstate(x, level, g.x_min, g.length)
        state = WaveFunction(g, psi.astype(complex))
        norm = state.norm()
        if not (math.isfinite(norm) and norm > 0):
            raise ConfigError(f"[initial] the {preset} state has norm {norm:g} on this grid")
        return state.normalized()

    def evolution_config(self, engine=None) -> EvolutionConfig:
        try:
            return EvolutionConfig(
                dt=self._float("evolution", "dt"),
                t_final=self._float("evolution", "t_final"),
                engine=engine or self.values["evolution"]["engine"],
                snapshot_stride=self._int("evolution", "snapshot_stride"),
                boundary=self.values["evolution"]["boundary"])
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def node_floor(self) -> float:
        v = self._float("evolution", "node_floor")
        # nan > 0 is false, so a nan floor would silently disable the check
        if not math.isfinite(v):
            raise ConfigError(f"[evolution] node_floor must be finite (<= 0 disables), got {v:g}")
        return v

    def device(self, grid):
        """The configured device on grid's cells: a preset of dimension
        grid.n, or a file device, whose dimension must equal grid.n."""
        preset = self.values["device"]["preset"]
        if preset == "identity":
            return identity_device(grid.n)
        if preset == "fourier":
            return fourier_device(grid.n)
        from .io import read_device
        dev = read_device(self.values["device"]["path"])
        if dev.dim != grid.n:
            raise ConfigError(f"device dimension {dev.dim} must equal grid n {grid.n}")
        return dev

    def likelihood(self, dev):
        kind = self.values["amplify"]["likelihood"]
        from .amplification import ideal_likelihood, noisy_likelihood
        if kind == "ideal":
            return ideal_likelihood(dev.dim)
        if kind == "noisy":
            return noisy_likelihood(dev.dim, self._float("amplify", "epsilon"))
        from .io import read_likelihood_csv
        like = read_likelihood_csv(self.values["amplify"]["path"])
        if like.n_cells != dev.dim:
            raise ConfigError(
                f"likelihood has {like.n_cells} cells but device has {dev.dim}")
        return like

    def prior(self, dev, psi_dev):
        from .measurement import born_probabilities
        if self.values["amplify"]["prior"] == "uniform":
            return np.full(dev.dim, 1.0 / dev.dim)
        return born_probabilities(dev, psi_dev)

    def seed(self) -> int:
        return int(self.values["run"]["seed"])

    def out_dir(self) -> str:
        return self.values["run"]["out"]

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
