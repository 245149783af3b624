"""Spans around edsim's public functions, recorded from outside the package.

Each name is patched where its caller looks it up: ``edsim.cli`` binds its
imports when it is imported, so the CLI only sees a wrapper installed on
``edsim.cli`` itself. Spans stay in memory as ``(name, start, end, parent,
info)`` tuples, where ``parent`` is the index of the enclosing span (-1 at
the top) and ``info`` holds counts read from the call's arguments and
result. ``restore`` puts every original attribute back.
"""

import functools
import os
import time

WRITERS = (
    "write_snapshots",
    "write_diagnostics",
    "write_compare_csv",
    "write_ensemble_csv",
    "write_test_record",
    "write_outcomes_csv",
    "write_device",
    "write_likelihood_csv",
    "write_experiment_log",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, info=None):
        """fn with a span around every call; info(result, *args, **kwargs)
        returns the counts to attach to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            parent = self._stack[-2] if len(self._stack) > 1 else -1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, {})
            if info is not None:
                self.spans[idx][4].update(info(result, *args, **kwargs))
            return result

        return traced

    def call(self, name, fn, *args):
        return self.wrap(name, fn)(*args)

    def patch(self, owner, attr, name, info=None):
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, info))
        else:
            replacement = self.wrap(name, original, info)
        setattr(owner, attr, replacement)
        self._saved.append((owner, attr, original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _evolve_info(trace, initial, p, cfg, *args, **kwargs):
    return {
        "engine": cfg.engine,
        "steps": round(cfg.t_final / cfg.dt),
        "snapshots": len(trace.snapshots),
    }


def _advance_info(ens_out, ens, trace, dt, *args, **kwargs):
    steps = round((ens_out.t - ens.t) / dt)
    return {"particle_steps": steps * len(ens.positions)}


def _trials_info(log, *args, **kwargs):
    return {"trials": len(log.true_i)}


def _bytes_info(result, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def install(tracer):
    """Patch every traced edsim name; undo with tracer.restore()."""
    import edsim.cli as cli
    import edsim.config as config
    import edsim.dynamics as dynamics
    import edsim.io as io

    tracer.patch(config.RunConfig, "load", "config.load")
    tracer.patch(config, "fourier_device", "measurement.fourier_device")
    tracer.patch(cli, "evolve", "dynamics.evolve", _evolve_info)
    tracer.patch(cli, "sample_initial", "trajectories.sample_initial")
    tracer.patch(cli, "advance_ensemble", "trajectories.advance_ensemble", _advance_info)
    tracer.patch(cli, "born_probabilities", "measurement.born_probabilities")
    tracer.patch(cli, "draw_outcomes", "measurement.draw_outcomes")
    tracer.patch(cli, "end_to_end", "amplification.end_to_end", _trials_info)
    tracer.patch(cli, "ks_statistic", "stats.ks_statistic")
    tracer.patch(cli, "chi2_gof", "stats.chi2_gof")
    tracer.patch(dynamics, "schrodinger_step", "dynamics.schrodinger_step")
    tracer.patch(dynamics, "energy", "dynamics.energy")
    tracer.patch(dynamics, "to_hydro", "state.to_hydro")
    tracer.patch(dynamics.EvolutionTrace, "field_arrays", "dynamics.field_arrays")
    for writer in WRITERS:
        tracer.patch(io, writer, "io." + writer, _bytes_info)
