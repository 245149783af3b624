"""Public-API guard: every name edsim exports, and every public member of
an exported class, has a user outside the tests.

A name counts as used when it appears in a package module other than
__init__.py (its own top-level definition cut out), in a demo or in the
README. A member (method, property or dataclass field) counts as used when
the package's or a demo's code reads it as an attribute, or the README
writes it as .name; a name two classes share counts for both. A
function or field that only tests read is a second path the package does
not need; it belongs in the tests or nowhere.
"""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import edsim
from edsim import cli, dynamics

ROOT = Path(__file__).resolve().parents[1]


def _without_definition(source, name):
    """source with the top-level def, class or assignment of name removed."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = node.name == name
        elif isinstance(node, ast.Assign):
            defined = any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
        else:
            continue
        if defined:
            lines = source.splitlines()
            del lines[node.lineno - 1:node.end_lineno]
            return "\n".join(lines)
    return source


def _used(name):
    word = re.compile(rf"\b{re.escape(name)}\b")
    modules = [p for p in (ROOT / "src" / "edsim").glob("*.py") if p.name != "__init__.py"]
    if any(word.search(_without_definition(p.read_text(), name)) for p in modules):
        return True
    others = [*(ROOT / "demos").glob("*.py"), ROOT / "README.md"]
    return any(word.search(p.read_text()) for p in others)


def test_every_export_has_a_user():
    unused = [name for name in edsim.__all__ if not _used(name)]
    assert unused == []


def _members(cls):
    """The public methods, properties and dataclass fields that cls defines."""
    names = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    names.update(name for name, value in vars(cls).items()
                 if callable(value) or isinstance(value, (property, classmethod, staticmethod)))
    return sorted(name for name in names if not name.startswith("_"))


def _attributes(path):
    """The names read as attributes, x.name, in a Python file's code: its
    comments and strings do not count."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}


_ATTRIBUTES = set().union(*map(_attributes, [*(ROOT / "src" / "edsim").glob("*.py"),
                                             *(ROOT / "demos").glob("*.py")]))


def _member_used(name):
    """Read as an attribute in the package's or a demo's code, or written
    .name in the README. Neither check knows whose attribute it is, so a
    name that two classes share counts as used for both."""
    return name in _ATTRIBUTES or bool(
        re.search(rf"\.{re.escape(name)}\b", (ROOT / "README.md").read_text()))


def test_every_member_of_an_exported_class_has_a_user():
    classes = [obj for obj in map(edsim.__dict__.get, edsim.__all__) if inspect.isclass(obj)]
    unused = [f"{cls.__name__}.{name}" for cls in classes for name in _members(cls)
              if not _member_used(name)]
    assert unused == []


def test_perfbench_tracer_installs_and_restores(monkeypatch):
    """perfbench/tracer.py wraps edsim names by attribute (cli.evolve,
    dynamics.schrodinger_step, dynamics.energy, dynamics.to_hydro,
    EvolutionTrace.field_arrays, cli.chi2_gof, ...): a rename would break a
    traced benchmark run, so install every patch, trace one evolve and
    restore. The evolve span counts the trace's snapshots, and the loop
    calls the traced Crank-Nicolson step once per step. One traced advance
    to t_target, whose dt the tracer reads by position, counts steps x
    particles."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer")
    originals = (cli.evolve, cli.advance_ensemble, cli.sample_initial, cli.chi2_gof,
                 dynamics.schrodinger_step, dynamics.energy, dynamics.to_hydro,
                 vars(dynamics.EvolutionTrace)["field_arrays"])
    g = edsim.Grid1D(-8.0, 8.0, 64)
    psi = edsim.WaveFunction(g, edsim.free_gaussian(g.cells, sigma0=1.0))
    cfg = edsim.EvolutionConfig(dt=1e-3, t_final=0.01, snapshot_stride=4)
    t = tracer.Tracer()
    tracer.install(t)
    try:
        trace = cli.evolve(psi, edsim.PhysicalParams(), cfg)
        fields = edsim.TraceFields.from_trace(trace)
        ens = cli.sample_initial(fields.rhos[0], g, 50, 7)
        cli.advance_ensemble(ens, fields, cfg.dt, edsim.CURRENT_FLOW, t_target=0.006)
    finally:
        t.restore()
    assert (cli.evolve, cli.advance_ensemble, cli.sample_initial, cli.chi2_gof,
            dynamics.schrodinger_step, dynamics.energy, dynamics.to_hydro,
            vars(dynamics.EvolutionTrace)["field_arrays"]) == originals
    names = [name for name, *_ in t.spans]
    evolve_info = t.spans[names.index("dynamics.evolve")][4]
    assert evolve_info["snapshots"] == len(trace.snapshots) == cfg.n_snapshots() == 4
    assert names.count("dynamics.schrodinger_step") == evolve_info["steps"] == 10
    assert names.count("dynamics.energy") == 4
    assert names.count("dynamics.field_arrays") == 1
    assert t.spans[names.index("trajectories.advance_ensemble")][4] == {"particle_steps": 6 * 50}
