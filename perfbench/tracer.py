"""Per-layer timing of ``veldt`` from outside the package.

The tracer rebinds each timed function to a wrapper that records a span
(name, start, end, parent span, run id).  A function imported by name into
several modules is rebound in every ``veldt`` module that holds it, and a
method is rebound on its class, so every call path is seen.  Spans stay in
memory; ``restore`` puts every original back.  A layer's self time is its
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, attribute path) of every timed function, grouped by layer
TIMED = (
    ("galerkin", "build_space"),
    ("galerkin", "assemble_hessian"),
    ("galerkin", "assemble_gradient"),
    ("galerkin", "assemble_functional"),
    ("galerkin", "Discretization.solve_gram"),
    ("lagrangian", "Lagrangian.gradient_at"),
    ("lagrangian", "Lagrangian.hessian_at"),
    ("functional", "newton_polish"),
    ("functional", "multistart_census"),
    ("spectral", "pencil_eigs"),
    ("spectral", "decompose"),
    ("spectral", "split_continuity_audit"),
    ("reduction", "solve_psi"),
    ("reduction", "make_reduction_setup"),
    ("reduction", "marino_prodi_perturb"),
    ("bifurcation", "detect_branches"),
    ("bifurcation", "morse_inequality_audit"),
    ("cli", "load_config"),
    ("cli", "write_report"),
    ("cli", "write_csv"),
)
ROOT = "cli.run"  # the span the benchmark opens around each scenario


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _hessian_flops(args, kwargs, result, exc):
    disc = _arg(args, kwargs, 1, "u").disc
    Q, A, dim = len(disc.weights), len(disc.index_set), disc.dim
    return {"flops": 2 * Q * A * A * dim * dim}


def _newton(args, kwargs, result, exc):
    if result is None:
        return {}
    return {"iterations": result.iterations, "converged": int(bool(result.converged))}


def _census(args, kwargs, result, exc):
    seeds = len(_arg(args, kwargs, 1, "seeds"))
    return {"seeds": seeds, "points": len(result) if result is not None else 0}


def _raised(counter, error):
    def count(args, kwargs, result, exc):
        return {counter: int(isinstance(exc, error))}

    return count


def _extras():
    """Counters recorded at the call boundary, per timed function."""
    from veldt.errors import DegenerateCriticalPointError, ReductionFailureError

    return {
        "galerkin.assemble_hessian": _hessian_flops,
        "functional.newton_polish": _newton,
        "functional.multistart_census": _census,
        "reduction.solve_psi": _raised("failures", ReductionFailureError),
        "bifurcation.morse_inequality_audit": _raised("raises", DegenerateCriticalPointError),
    }


def _resolve(module, path):
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Rebinds the timed functions, records spans and counters, and restores."""

    def __init__(self):
        self.names = [f"{mod}.{path}" for mod, path in TIMED] + [ROOT]
        self.spans = []  # [name index, start, end, parent index, run id]
        self.counters = {}  # (run id, name, counter) -> value
        self.run_id = -1
        self._stack = []
        self._saved = []  # (owner, attribute, original)

    # -- rebinding ---------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "veldt" or n.startswith("veldt.")]
        extras = _extras()
        for idx, (mod, path) in enumerate(TIMED):
            module = importlib.import_module(f"veldt.{mod}")
            owner_path, _, attr = path.rpartition(".")
            original = _resolve(module, path)
            wrapper = self._wrap(idx, original, extras.get(self.names[idx]))
            if owner_path:
                owners = [_resolve(module, owner_path)]
            else:
                owners = [m for m in modules if any(v is original for v in vars(m).values())]
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._saved.append((owner, key, original))
                        setattr(owner, key, wrapper)

    def restore(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, idx, fn, extra=None):
        name = self.names[idx]
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[me] = [idx, start, end, parent, self.run_id]
                if extra is not None:
                    for key, value in extra(args, kwargs, result, exc).items():
                        slot = (self.run_id, name, key)
                        counters[slot] = counters.get(slot, 0) + value

        return functools.update_wrapper(traced, fn)

    # -- runs --------------------------------------------------------------

    def call(self, run_id, fn, *args, **kwargs):
        """Run ``fn`` as run ``run_id`` under a root span named ``cli.run``."""
        self.run_id = run_id
        return self._wrap(len(self.names) - 1, fn)(*args, **kwargs)

    def layer_stats(self, run_id):
        """Per-function calls, self time and counters of one run.

        ``reduction.solve_psi.hessians`` counts the ``assemble_hessian`` spans
        below each ``solve_psi`` span, which is the work the complement Newton
        really did whatever its own iteration count says.
        """
        spans = {i: s for i, s in enumerate(self.spans) if s[4] == run_id}
        child_time = {}
        for s in spans.values():
            if s[3] >= 0:
                child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
        stats = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        psi = self.names.index("reduction.solve_psi")
        hess = self.names.index("galerkin.assemble_hessian")
        under_psi = 0
        for i, s in spans.items():
            entry = stats[self.names[s[0]]]
            entry["calls"] += 1
            entry["self_s"] += (s[2] - s[1]) - child_time.get(i, 0.0)
            if s[0] == hess:
                parent = s[3]
                while parent >= 0 and self.spans[parent][0] != psi:
                    parent = self.spans[parent][3]
                under_psi += parent >= 0
        for (rid, name, key), value in self.counters.items():
            if rid == run_id:
                stats[name][key] = value
        stats["reduction.solve_psi"]["hessians"] = under_psi
        return stats
