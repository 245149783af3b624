"""Per-layer metrics from the spans of one traced pass.

Times are self times: a span's duration minus the durations of the spans
directly inside it. Counts are exact and repeat from run to run.
"""

from collections import defaultdict
from statistics import median

from tracer import WRITERS

COMMANDS = ("evolve", "trajectories", "measure", "amplify")
MB = 2.0**20


def self_times(spans):
    selfs = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def tail(values):
    """The highest order statistic with at least ten samples above it."""
    return sorted(values)[-11] if len(values) > 10 else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, import_s, distinct_readings):
    """Every per-layer metric of one traced pass, by name."""
    calls = defaultdict(list)  # span name -> [(self time, duration, info)]
    for (name, start, end, _, info), own in zip(spans, self_times(spans)):
        calls[name].append((own, end - start, info))

    def total(name):
        return sum(own for own, _, _ in calls[name])

    def count(name, key=None):
        if key is None:
            return len(calls[name])
        return sum(info[key] for _, _, info in calls[name])

    m = {}
    for cmd in COMMANDS:
        m[f"cli.{cmd}_s"] = total(f"cli.{cmd}")
    m["config.load_s"] = total("config.load")
    m["setup.import_s"] = import_s

    madelung = [(own, info) for own, _, info in calls["dynamics.evolve"]
                if info["engine"] == "madelung"]
    m["dynamics.madelung.step_us"] = 1e6 * _ratio(
        sum(own for own, _ in madelung), sum(info["steps"] for _, info in madelung))
    step_us = [1e6 * dur for _, dur, _ in calls["dynamics.schrodinger_step"]]
    m["dynamics.schrodinger_step.p50_us"] = median(step_us) if step_us else 0.0
    m["dynamics.schrodinger_step.tail_us"] = tail(step_us)
    m["dynamics.schrodinger_step.calls"] = len(step_us)
    for name in ("dynamics.energy", "dynamics.field_arrays", "state.to_hydro"):
        m[f"{name}_s"] = total(name)
        m[f"{name}.calls"] = count(name)
    m["state.to_hydro.per_snapshot"] = _ratio(
        count("state.to_hydro"), count("dynamics.evolve", "snapshots"))

    advance = "trajectories.advance_ensemble"
    m[f"{advance}.calls"] = count(advance)
    m[f"{advance}.self_s"] = total(advance)
    m["trajectories.particle_steps_per_s"] = _ratio(
        count(advance, "particle_steps"), total(advance))
    m["trajectories.sample_initial_s"] = total("trajectories.sample_initial")

    m["measurement.fourier_device_s"] = total("measurement.fourier_device")
    m["measurement.fourier_device.calls"] = count("measurement.fourier_device")
    m["measurement.born_probabilities_s"] = total("measurement.born_probabilities")
    m["measurement.draw_outcomes_s"] = total("measurement.draw_outcomes")

    m["amplification.end_to_end_s"] = total("amplification.end_to_end")
    m["amplification.trials_per_s"] = _ratio(
        count("amplification.end_to_end", "trials"), total("amplification.end_to_end"))
    m["amplification.distinct_readings"] = distinct_readings

    m["stats.ks_statistic_s"] = total("stats.ks_statistic")
    m["stats.chi2_gof_s"] = total("stats.chi2_gof")

    for writer in WRITERS:
        name = "io." + writer
        m[f"{name}_s"] = total(name)
        m[f"{name}_bytes"] = count(name, "bytes")
        m[f"{name}.MBps"] = _ratio(m[f"{name}_bytes"] / MB, m[f"{name}_s"])
    return m
