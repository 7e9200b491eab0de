"""The public keyword surface: every defaulted parameter of a public function or method.

Public means a name in a module's ``__all__`` (with the methods its classes
define) or a public function of ``veldt.cli``.  Dataclass ``__init__``
methods are private names and not counted.  A knob added or removed shows up
as a one-line change in ``DEFAULTED`` below, not as a silent signature change.
The named constants that replace knobs must match the README "Tolerances"
table by name, module and value, and the config keys the CLI declares must
match the README "Config reference" table by block, key and default.
"""

import ast
import importlib
import inspect
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import veldt
from veldt.cli import CONFIG_KEYS, REQUIRED

DEFAULTED = {
    "bifurcation.classify_reduced_origin": ("radii", "rng"),
    "bifurcation.detect_branches": ("grid", "amplitude_cap", "solution_cap", "rng"),
    "bifurcation.morse_inequality_audit": ("window",),
    "bifurcation.orbit_group": ("tol",),
    "cli.main": ("argv",),
    "cli.run": ("seed", "strict"),
    "functional.damped_newton": ("step_cap", "project"),
    "functional.multistart_census": ("center", "radius"),
    "galerkin.build_space": ("quad_order", "n_components"),
    "lagrangian.GrowthSpec.canonical": ("p", "g1", "g2", "p_border"),
    "reduction.ReductionSetup.lift": ("y",),
    "reduction.lipschitz_audit": ("n_pairs", "rng", "radius"),
    "reduction.make_reduction_setup": ("kernel_dim",),
    "reduction.marino_prodi_perturb": ("b", "rng"),
    "reduction.solve_psi": ("tol", "w0"),
    "spectral.decompose": ("kernel_dim_hint",),
    "spectral.split_continuity_audit": ("radius", "rng"),
}


def _defaulted(fn):
    params = inspect.signature(fn).parameters.values()
    return tuple(p.name for p in params if p.default is not inspect.Parameter.empty)


def _public_callables():
    for info in pkgutil.iter_modules(veldt.__path__):
        module = importlib.import_module(f"veldt.{info.name}")
        if info.name == "cli":
            names = [n for n, v in vars(module).items() if inspect.isfunction(v) and v.__module__ == module.__name__]
        else:
            names = getattr(module, "__all__", [])
        for name in names:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member
            elif inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj


def test_public_keyword_surface_is_pinned():
    found = {}
    for qualname, fn in _public_callables():
        names = _defaulted(fn)
        if names:
            found[qualname] = names
    assert found == DEFAULTED
    assert sum(len(names) for names in found.values()) == 33


def _module_constants():
    """(name, module) -> value of every public upper-case numeric constant a module defines."""
    found = {}
    for info in pkgutil.iter_modules(veldt.__path__):
        module = importlib.import_module(f"veldt.{info.name}")
        for node in ast.parse(inspect.getsource(module)).body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)):
                continue
            name = node.targets[0].id
            value = getattr(module, name)
            if re.fullmatch(r"[A-Z][A-Z0-9_]*", name) and type(value) in (int, float):
                found[(name, info.name)] = value
    return found


def _readme_section(title):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def _tolerance_table():
    """(name, module) -> value of every row of the README "Tolerances" table."""
    section = _readme_section("Tolerances")
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \| `(\w+)` \|", section, flags=re.MULTILINE)
    table = {(name, module): float(value) for name, value, module in rows}
    assert len(table) == len(rows), "a constant is listed twice"
    return table


def test_tolerance_table_lists_every_module_constant():
    assert _tolerance_table() == _module_constants()


def test_cold_cli_import_leaves_scipy_optimize_out():
    code = "import sys, veldt.cli; print('scipy.optimize' in sys.modules)"
    src = str(Path(veldt.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def _declared_config_keys():
    """(block, key) -> default of every key ``veldt.cli`` declares; a block's own row reads null."""

    def walk(where, keys):
        for key, default in keys.items():
            if isinstance(default, dict):
                yield (where, key), None
                yield from walk(f"{where}.{key}", default)
            else:
                yield (where, key), default

    declared = dict(walk("config", {key: v for key, v in CONFIG_KEYS.items() if key != "params"}))
    declared["config", "params"] = {}  # one block per scenario, merged even when absent
    for scenario, keys in CONFIG_KEYS["params"].items():
        declared.update(walk(scenario, keys))
    return declared


def _config_reference_table():
    """(block, key) -> default of every row of the README "Config reference" table."""
    rows = re.findall(r"^\| `([\w.]+)` \| `(\w+)` \| `([^`]*)` \|", _readme_section("Config reference"), re.MULTILINE)
    table = {(where, key): REQUIRED if cell == REQUIRED else json.loads(cell) for where, key, cell in rows}
    assert len(table) == len(rows), "a key is listed twice"
    return table


def test_config_reference_lists_every_declared_key():
    declared = _declared_config_keys()
    assert _config_reference_table() == declared
    assert len(declared) == 32
