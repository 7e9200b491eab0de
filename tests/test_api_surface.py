"""The public keyword surface: every defaulted parameter of a public function or method.

Public means a name in a module's ``__all__`` (with the methods its classes
define) or a public function of ``veldt.cli``.  Dataclass ``__init__``
methods are private names and not counted.  A knob added or removed shows up
as a one-line change in ``DEFAULTED`` below, not as a silent signature change.
"""

import importlib
import inspect
import pkgutil

import veldt

DEFAULTED = {
    "bifurcation.classify_reduced_origin": ("radii", "rng"),
    "bifurcation.detect_branches": ("grid", "amplitude_cap", "n_starts", "solution_cap", "rng"),
    "bifurcation.morse_inequality_audit": ("window",),
    "bifurcation.orbit_group": ("tol",),
    "cli.main": ("argv",),
    "cli.run": ("seed", "strict"),
    "functional.damped_newton": ("step_cap", "project"),
    "functional.multistart_census": ("center", "radius"),
    "galerkin.build_space": ("quad_order", "n_components"),
    "lagrangian.GrowthSpec.canonical": ("p", "g1", "g2", "p_border"),
    "lagrangian.Jet.zero": ("n_components",),
    "reduction.ReductionSetup.lift": ("y",),
    "reduction.lipschitz_audit": ("n_pairs", "rng", "radius"),
    "reduction.make_reduction_setup": ("kernel_dim", "lambda_box", "trust_radius"),
    "reduction.marino_prodi_perturb": ("b", "rng"),
    "reduction.reduced_gradient": ("tol",),
    "reduction.reduced_hessian_at_origin": ("check_tol",),
    "reduction.sample_reduced": ("tol",),
    "reduction.solve_psi": ("tol", "w0", "max_iter"),
    "spectral.decompose": ("kernel_dim_hint",),
    "spectral.index_jump": ("mode",),
    "spectral.morse_index_by_formula": ("mode", "inertia"),
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
    assert sum(len(names) for names in found.values()) == 44
