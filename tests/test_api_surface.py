"""The public surface: every public name and every defaulted parameter of a public function or method.

Public means a name in a module's ``__all__`` (with the methods its classes
define) or a public function of ``veldt.cli``.  Dataclass ``__init__``
methods are private names and not counted.  A name or a knob added or removed
shows up as a one-line change in ``PUBLIC_NAMES`` or ``DEFAULTED`` below, not
as a silent change of the package.
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

from test_cli import _dropped_complex_config, _dropped_complex_pencil, _readme_configs, _workload_configs

# the names of ``veldt.__all__`` (one line per source module) and of each module's ``__all__``
PUBLIC_NAMES = {
    "veldt": """
        bifurcation catalog errors functional galerkin lagrangian reduction spectral
        BifurcationReport Branch classify_conditions detect_branches
        morse_inequality_audit orbit_group
        ModelProblem load_problem model_problem
        CombinedFunctional DiscretizedFunctional VariationalProblem newton_polish
        Discretization Field HessianSplit assemble_functional assemble_gradient assemble_hessian build_space
        estimate_sobolev_constant hessian_split q_compactness_audit
        GrowthSpec Lagrangian check_growth enumerate_multi_indices ps_certificate
        ReductionSetup lipschitz_audit make_reduction_setup marino_prodi_perturb reduced_hessian_at_origin
        sample_reduced solve_psi
        PencilSpectrum SpectralDecomposition decompose split_continuity_audit index_jump morse_index_by_formula
        pencil_eigs
    """,
    "bifurcation": """
        ConditionClassification classify_conditions BranchSample Branch
        CandidateReport BifurcationReport detect_branches MorseAudit
        morse_inequality_audit OrbitGrouping orbit_group
    """,
    "catalog": "PolynomialIntegrand ModelProblem model_problem load_problem shifted_power_envelope constant_envelope MODEL_NAMES",
    "functional": """
        DiscretizedFunctional CombinedFunctional VariationalProblem gradient_norm damped_newton newton_polish
        NewtonResult CriticalPoint multistart_census
    """,
    "galerkin": """
        Discretization Field HessianSplit build_space assemble_functional assemble_gradient assemble_hessian
        hessian_split estimate_sobolev_constant q_compactness_audit QDecayProfile
    """,
    "lagrangian": "MultiIndexSet enumerate_multi_indices GrowthSpec Lagrangian GrowthReport check_growth PSReport ps_certificate",
    "reduction": """
        ReductionSetup make_reduction_setup PsiSample ReductionResult solve_psi sample_reduced
        LipschitzAudit lipschitz_audit reduced_hessian_at_origin PerturbedFunctional MarinoProdiResult
        marino_prodi_perturb
    """,
    "spectral": """
        SpectralDecomposition decompose SplitContinuityReport split_continuity_audit PencilSpectrum pencil_eigs
        morse_index_by_formula IndexJump index_jump
    """,
}

DEFAULTED = {
    "bifurcation.morse_inequality_audit": ("tilt",),
    "cli.main": ("argv",),
    "cli.run": ("seed", "strict"),
    "functional.damped_newton": ("step_cap", "project", "stop"),
    "functional.multistart_census": ("center", "radius"),
    "functional.newton_polish": ("stop",),
    "galerkin.build_space": ("quad_order", "n_components"),
    "reduction.ReductionSetup.lift": ("y",),
    "reduction.solve_psi": ("tol", "w0"),
    "spectral.decompose": ("kernel_dim_hint",),
}


def test_public_name_set_is_pinned():
    found = {"veldt": veldt.__all__}
    for info in pkgutil.iter_modules(veldt.__path__):
        module = importlib.import_module(f"veldt.{info.name}")
        if hasattr(module, "__all__"):
            found[info.name] = module.__all__
    assert all(len(set(names)) == len(names) for names in found.values()), "a name is listed twice"
    assert {key: set(names) for key, names in found.items()} == {
        key: set(names.split()) for key, names in PUBLIC_NAMES.items()
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
    assert sum(len(names) for names in found.values()) == 16


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
    assert len(_module_constants()) == 27  # one constant per numeric decision



# runs each config path in argv through ``cli.run`` and prints the loaded scipy modules after the import and after each run
_SCIPY_PROBE = """
import json, sys
import veldt.cli as cli

def loaded():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

print(json.dumps(loaded()))
for path in sys.argv[1:]:
    code = cli.run(path, path + ".out", seed=0)
    print(json.dumps({"config": path, "code": code, "scipy": loaded()}))
"""


def _scipy_probe(paths):
    src = str(Path(veldt.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, *map(str, paths)],
        env={"PYTHONPATH": src, "OMP_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    cold, *runs = [json.loads(line) for line in out.stdout.splitlines()]
    return cold, runs


def test_cold_cli_import_leaves_scipy_optimize_out(tmp_path):
    # no README scenario and no benchmark workload imports any of scipy
    configs = _readme_configs() + _workload_configs()
    paths = [tmp_path / f"cfg{i}.json" for i in range(len(configs))]
    for path, cfg in zip(paths, configs):
        path.write_text(json.dumps(cfg))
    cold, runs = _scipy_probe(paths)
    assert cold == []
    assert len(runs) == 8
    for run in runs:
        assert (run["code"], run["scipy"]) == (0, []), run["config"]


def test_clamped_space_loads_only_scipy_optimize(tmp_path):
    # the clamped mode parameters come from a numpy Newton iteration, so a
    # clamped run loads not even scipy.optimize: none of scipy at all
    cfg = {
        "problem": "P4",
        "scenario": "spectrum",
        "discretization": {"domain": [0, 1], "m": 2, "bc": "dirichlet", "K": 12},
        "params": {"lambdas": [100.0]},
    }
    path = tmp_path / "clamped.json"
    path.write_text(json.dumps(cfg))
    cold, (run,) = _scipy_probe([path])
    assert cold == []
    assert (run["code"], run["scipy"]) == (0, [])

# blocks every import of scipy, then runs each config path in argv through ``cli.run`` and prints its exit code
_SCIPY_BLOCKED = """
import json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
import veldt.cli as cli

for path in sys.argv[1:]:
    print(json.dumps({"config": path, "code": cli.run(path, path + ".out", seed=0)}))
"""


def test_every_scenario_runs_with_scipy_blocked(tmp_path):
    # numpy is the only runtime dependency: the README scenarios, the benchmark
    # workloads, a clamped space and an indefinite pencil run without scipy
    clamped = {
        "problem": "P4",
        "scenario": "spectrum",
        "discretization": {"domain": [0, 1], "m": 2, "bc": "dirichlet", "K": 12},
        "params": {"lambdas": [100.0]},
    }
    dropped = [_dropped_complex_config(scenario) for scenario in ("spectrum", "bifurcate")]
    configs = _readme_configs() + _workload_configs() + [clamped] + dropped
    paths = [tmp_path / f"cfg{i}.json" for i in range(len(configs))]
    for path, cfg in zip(paths, configs):
        path.write_text(json.dumps(cfg))
    src = str(Path(veldt.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_BLOCKED, *map(str, paths)],
        env={"PYTHONPATH": src, "OMP_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    runs = [json.loads(line) for line in out.stdout.splitlines()]
    assert [run["code"] for run in runs] == [0] * len(configs), out.stderr
    reports = [json.loads(Path(run["config"] + ".out", "report.json").read_text()) for run in runs]
    assert [report["status"] for report in reports] == ["pass"] * (len(configs) - 2) + ["audit_failed"] * 2
    assert [_dropped_complex_pencil(report)["dropped_complex"] for report in reports[-2:]] == [16, 16]


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
