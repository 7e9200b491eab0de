"""Discrete energy functionals and Newton machinery shared across modules.

Every functional handle exposes ``value``, ``gradient_dual`` and
``hessian_dual`` at a point (a coefficient vector or a Field), plus the
owning discretization.
Dual objects live in the load-vector space; norms and projections go through
the Gram matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from .catalog import ModelProblem, PolynomialIntegrand
from .errors import EvaluationError
from .galerkin import (
    _P2_TOL,
    Discretization,
    Field,
    _check_signature,
    _require_p2,
    assemble_functional,
    assemble_gradient,
    assemble_hessian,
)
from .lagrangian import Lagrangian
from .spectral import PencilSpectrum, decompose, pencil_eigs

HALVINGS = 25  # step-length halvings before a Newton step counts as stalled
PROJECTION_STALL_RTOL = 1e-15  # relative distance at which a projected trial is the iterate, to the projection's rounding
NEWTON_TOL = 1e-12  # gradient norm at which a full-space polish has converged
NEWTON_MAX_ITER = 50  # iteration budget of a damped Newton solve: polish, complement and reduced
RESIDUAL_CONTRACT = 1e-9  # largest gradient norm of a reduction's base point; sets the branch trivial radius
DEDUPE_TOL = 1e-6  # Sobolev distance below which two critical points are one

__all__ = [
    "DiscretizedFunctional",
    "CombinedFunctional",
    "VariationalProblem",
    "gradient_norm",
    "damped_newton",
    "newton_polish",
    "NewtonResult",
    "CriticalPoint",
    "multistart_census",
]


class DiscretizedFunctional:
    """A single integrand over a fixed discretization.

    Every method takes a point: a coefficient vector, or a Field of ``disc``.
    A Field carries its jets, so the value, load and second variation at one
    field share a single jet pass.
    """

    def __init__(self, lagrangian, disc: Discretization):
        self.lagrangian = lagrangian
        self.disc = disc

    def value(self, u) -> float:
        return assemble_functional(self.lagrangian, self.disc.field(u))

    def gradient_dual(self, u) -> np.ndarray:
        return assemble_gradient(self.lagrangian, self.disc.field(u))

    def hessian_dual(self, u) -> np.ndarray:
        return assemble_hessian(self.lagrangian, self.disc.field(u))


def _combined_lagrangian(energy: Lagrangian, constraint: Lagrangian, lam: float) -> Lagrangian:
    """The integrand f - lam g, so that one quadrature pass assembles it.

    The polynomial terms merge into one compiled monomial set with weights 1
    and -lam.  When both terms are compiled, the callbacks are the merged
    polynomial's own methods; a hand-written callback is added to it in a
    summing loop.  Every choice is made here, once: a term whose p is not 2
    makes the Hessian callback refuse with that term's ``CapabilityError``.
    """
    terms = [(1.0, energy), (-lam, constraint)]
    compiled = [(w, PolynomialIntegrand.of(lag), lag) for w, lag in terms]
    polynomial = [(w, poly) for w, poly, _ in compiled if poly is not None]
    entries = [(1.0, PolynomialIntegrand.combined(polynomial))] if polynomial else []
    entries += [(w, lag) for w, poly, lag in compiled if poly is None]

    def combined(tag):
        if len(polynomial) == len(terms):
            return getattr(entries[0][1], tag)

        def callback(x, xi):
            out = 0.0
            for weight, entry in entries:
                out = out + weight * np.asarray(getattr(entry, tag)(x, xi), dtype=float)
            return out

        return callback

    refused = next((lag for _, lag in terms if abs(lag.growth.p - 2.0) > _P2_TOL), None)

    def refuse(x, xi):
        _require_p2(refused)

    return Lagrangian(
        N=energy.N,
        f=combined("f"),
        grad_f=combined("grad_f"),
        hess_f=combined("hess_f") if refused is None else refuse,
        growth=energy.growth,
        name=energy.name,
    )


class CombinedFunctional(DiscretizedFunctional):
    """The parameterized family F - lambda G at a fixed parameter.

    Every evaluation assembles the single combined integrand: one jet
    evaluation, one callback pass and one contraction per call, with one
    finiteness check of the sum.  A non-finite sum is traced back to its
    term: each term is assembled alone at the same point, so the error is the
    one that term raises on its own.
    """

    def __init__(self, energy: DiscretizedFunctional, constraint: DiscretizedFunctional, lam: float):
        self.energy = energy
        self.constraint = constraint
        self.lam = float(lam)
        for term in (energy, constraint):
            _check_signature(term.lagrangian, energy.disc)
        super().__init__(_combined_lagrangian(energy.lagrangian, constraint.lagrangian, self.lam), energy.disc)

    def _naming_terms(self, method: str, u):
        try:
            return getattr(super(), method)(u)
        except EvaluationError:
            u = self.disc.field(u)
            for term in (self.energy, self.constraint):
                getattr(term, method)(u)
            raise

    def value(self, u) -> float:
        return self._naming_terms("value", u)

    def gradient_dual(self, u) -> np.ndarray:
        return self._naming_terms("gradient_dual", u)

    def hessian_dual(self, u) -> np.ndarray:
        return self._naming_terms("hessian_dual", u)


@dataclass(frozen=True, eq=False)
class VariationalProblem:
    """A model problem bound to a discretization and a base point: the one place F - lambda G is built.

    ``energy`` and ``constraint`` are built on first use and kept, and
    ``at_parameter`` keeps the combined functional of the last float
    parameter it was asked for, so every reader of one problem shares them
    and a sweep holds one functional at a time.  ``pencil`` is the spectrum of
    F''(u0) v = lambda G''(u0) v, solved on first use and kept.  A copy made
    with ``dataclasses.replace`` starts with nothing kept.
    """

    model: ModelProblem
    disc: Discretization
    u0: Field = None
    _functionals: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.u0 is None:
            object.__setattr__(self, "u0", self.disc.zero_field())

    @functools.cached_property
    def pencil(self) -> PencilSpectrum:
        return pencil_eigs(self.energy.hessian_dual(self.u0), self.constraint.hessian_dual(self.u0), self.disc.gram)

    @functools.cached_property
    def energy(self) -> DiscretizedFunctional:
        return DiscretizedFunctional(self.model.lagrangian, self.disc)

    @functools.cached_property
    def constraint(self) -> DiscretizedFunctional:
        return DiscretizedFunctional(self.model.constraint, self.disc)

    def at_parameter(self, lam: float) -> CombinedFunctional:
        lam = float(lam)
        if lam not in self._functionals:
            self._functionals.clear()
            self._functionals[lam] = CombinedFunctional(self.energy, self.constraint, lam)
        return self._functionals[lam]

    @property
    def sign_symmetric(self) -> bool:
        """True when L_lam(u0 - v) = L_lam(u0 + v) for every lam and v, read from the terms.

        That is: u0 is exactly zero, and the energy and the constraint are
        compiled polynomial integrands whose terms all have even total degree.
        A callback integrand counts as not symmetric.
        """
        polys = [PolynomialIntegrand.of(lag) for lag in (self.model.lagrangian, self.model.constraint)]
        return not np.any(self.u0.coeffs) and all(poly is not None and poly.even for poly in polys)


def _dual_norm(disc: Discretization, ell: np.ndarray) -> float:
    return float(np.sqrt(max(ell @ disc.solve_gram(ell), 0.0)))


def gradient_norm(func, coeffs: np.ndarray) -> float:
    """Sobolev norm of the gradient: |grad L| = sqrt(ell . gram^-1 ell)."""
    return _dual_norm(func.disc, func.gradient_dual(coeffs))


@dataclass
class NewtonResult:
    coeffs: np.ndarray
    residual: float
    converged: bool
    iterations: int
    state: Any = None  # what ``evaluate`` returned at ``coeffs``


def damped_newton(
    evaluate, solve, x0, tol: float, max_iter: int, step_cap: Optional[float] = None, project=None, stop=None
):
    """Damped Newton iteration driven by a residual callback and a step callback.

    ``evaluate(x, state)`` returns ``(residual, state)`` at x, where the
    incoming ``state`` is that of the accepted point (None at ``x0``) so a
    trial can warm-start from it; an infinite residual rejects the trial.
    ``solve(x, state)`` returns the Newton step at the accepted point.  Steps
    longer than ``step_cap`` (Euclidean) are shortened, trial points pass
    through ``project`` when given, and the step length is halved until the
    residual decreases sufficiently.  The iteration stops converged once the
    residual is at most ``tol``, and unconverged on a singular system, a
    failed line search or a trial that projects back onto the current point
    up to rounding (``iterations`` then counts the stalled step).  Before
    each step, a point above ``tol`` at which ``stop(x)`` is true (``x0`` or
    an accepted trial) also ends it unconverged; ``iterations`` then counts
    the steps taken to that point.
    """
    x = np.array(x0, dtype=float)
    res, state = evaluate(x, None)
    for it in range(max_iter):
        if res <= tol:
            return NewtonResult(coeffs=x, residual=res, converged=True, iterations=it, state=state)
        if stop is not None and stop(x):
            return NewtonResult(coeffs=x, residual=res, converged=False, iterations=it, state=state)
        try:
            step = solve(x, state)
        except np.linalg.LinAlgError:
            return NewtonResult(coeffs=x, residual=res, converged=False, iterations=it, state=state)
        if step_cap is not None:
            step_norm = float(np.linalg.norm(step))
            if step_norm > step_cap:
                step *= step_cap / step_norm
        t = 1.0
        for _ in range(HALVINGS):
            trial = x + t * step
            if project is not None:
                trial = project(trial)
                if np.linalg.norm(trial - x) <= PROJECTION_STALL_RTOL * np.linalg.norm(x):  # the projection undid the step
                    return NewtonResult(coeffs=x, residual=res, converged=False, iterations=it + 1, state=state)
            trial_res, trial_state = evaluate(trial, state)
            if trial_res < res * (1.0 - 1e-4 * t) or trial_res <= tol:
                x, res, state = trial, trial_res, trial_state
                break
            t *= 0.5
        else:
            return NewtonResult(coeffs=x, residual=res, converged=False, iterations=it + 1, state=state)
    return NewtonResult(coeffs=x, residual=res, converged=res <= tol, iterations=max_iter, state=state)


def newton_polish(func, coeffs0: np.ndarray, stop=None) -> NewtonResult:
    """Damped Newton iteration on the gradient, in coefficient space.

    The step solves the dual Hessian system directly (geometry independent);
    the residual is the Sobolev norm of the gradient.  The Newton state is the
    evaluated point and its load vector, ``(Field, load)``: the step at an
    accepted trial assembles the Hessian at that same Field, from the jets its
    load was assembled from.  The iteration converges at a residual of
    ``NEWTON_TOL`` within ``NEWTON_MAX_ITER`` steps; ``stop`` ends it
    unconverged as in ``damped_newton``.
    """
    disc = func.disc

    def evaluate(c, _):
        point = disc.field(c)
        ell = func.gradient_dual(point)
        return _dual_norm(disc, ell), (point, ell)

    def solve(c, state):
        point, ell = state
        return np.linalg.solve(func.hessian_dual(point), -ell)

    return damped_newton(evaluate, solve, coeffs0, NEWTON_TOL, NEWTON_MAX_ITER, stop=stop)


@dataclass
class CriticalPoint:
    coeffs: np.ndarray
    residual: float
    value: float
    morse_index: int
    nullity: int
    distance_from_center: float = 0.0


def _distinct_points(func, seeds, center=None, radius=None, stop=None):
    """Polish the seeds in order and yield each new distinct critical point.

    A polished point is kept when its polish converged (to ``NEWTON_TOL``),
    it lies at most ``radius`` from ``center`` and at least ``DEDUPE_TOL``
    from every point kept before; only kept points are decomposed, and their
    value and second variation are assembled at the Field the polish ended
    on.  Every polish passes ``stop`` to ``newton_polish``, so a stop that
    fires leaves its seed unkept.  The generator polishes a seed only when
    the next point is asked for, so a consumer can change what ``stop``
    reads between two points.  The census, the Morse audit, the tilted
    census and the branch sampler all collect their points here.
    """
    disc = func.disc
    center = np.zeros(disc.dim) if center is None else np.asarray(center, dtype=float)
    found = []
    for seed in seeds:
        result = newton_polish(func, seed, stop)
        if not result.converged:
            continue
        dist = disc.norm(result.coeffs - center)
        if radius is not None and dist > radius:
            continue
        if any(disc.norm(result.coeffs - other.coeffs) < DEDUPE_TOL for other in found):
            continue
        point, _ = result.state
        dec = decompose(func.hessian_dual(point), disc.gram)
        found.append(
            CriticalPoint(
                coeffs=result.coeffs,
                residual=result.residual,
                value=func.value(point),
                morse_index=dec.morse_index,
                nullity=dec.nullity,
                distance_from_center=dist,
            )
        )
        yield found[-1]


def _star_seeds(center, directions, amplitudes) -> list:
    """Multistart seeds: a copy of ``center``, then center + a d and center - a d
    for every direction d (outer loop) and amplitude a (inner loop)."""
    seeds = [np.array(center, dtype=float)]
    for d in directions:
        for a in amplitudes:
            seeds += [center + a * d, center - a * d]
    return seeds


def _census_order(cp: CriticalPoint) -> tuple:
    return (round(cp.value, 12), cp.distance_from_center)


def multistart_census(
    func,
    seeds: Sequence[np.ndarray],
    center: Optional[np.ndarray] = None,
    radius: Optional[float] = None,
) -> list:
    """Polish every seed and collect distinct critical points.

    Keeps points whose polish converged (to ``NEWTON_TOL``); restricts to the ball
    of ``radius`` around ``center`` when given; deduplicates at
    ``DEDUPE_TOL`` in the Sobolev norm, in seed order; attaches Morse data
    from the spectral decomposition of the Hessian at each survivor; sorts
    by value, then by distance from ``center``.
    """
    return sorted(_distinct_points(func, seeds, center, radius), key=_census_order)
