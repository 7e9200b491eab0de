"""Discrete energy functionals and Newton machinery shared across modules.

Every functional handle exposes ``value``, ``gradient_dual`` and
``hessian_dual`` over coefficient vectors, plus the owning discretization.
Dual objects live in the load-vector space; norms and projections go through
the Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from .catalog import ModelProblem, PolynomialIntegrand
from .galerkin import (
    Discretization,
    Field,
    _check_signature,
    _require_p2,
    assemble_functional,
    assemble_gradient,
    assemble_hessian,
)
from .lagrangian import Lagrangian, _require_finite

HALVINGS = 25  # step-length halvings before a Newton step counts as stalled
PROJECTION_STALL_RTOL = 1e-15  # relative distance at which a projected trial is the iterate, to the projection's rounding
NEWTON_TOL = 1e-12  # gradient norm at which a full-space polish has converged
NEWTON_MAX_ITER = 50  # iteration budget of a full-space polish
RESIDUAL_CONTRACT = 1e-9  # largest gradient norm a critical point may keep (census, branch, base point)
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
    """A single integrand over a fixed discretization."""

    def __init__(self, lagrangian, disc: Discretization):
        self.lagrangian = lagrangian
        self.disc = disc

    def value(self, coeffs: np.ndarray) -> float:
        return assemble_functional(self.lagrangian, self.disc.field(coeffs))

    def gradient_dual(self, coeffs: np.ndarray) -> np.ndarray:
        return assemble_gradient(self.lagrangian, self.disc.field(coeffs))

    def hessian_dual(self, coeffs: np.ndarray) -> np.ndarray:
        return assemble_hessian(self.lagrangian, self.disc.field(coeffs))


def _combined_lagrangian(energy: Lagrangian, constraint: Lagrangian, lam: float) -> Lagrangian:
    """The integrand f - lam g, so that one quadrature pass assembles it.

    The polynomial terms merge into one compiled monomial set with weights 1
    and -lam; a hand-written callback stays an entry of its own in the same
    summing loop.  Each callback checks the sum once and, only when it is not
    finite, evaluates the terms one by one so the error names the failing term
    as assembling it alone would; the Hessian callback first requires p = 2 of
    both terms.
    """
    terms = [(1.0, energy), (-lam, constraint)]
    compiled = [(w, PolynomialIntegrand.of(lag), lag) for w, lag in terms]
    polynomial = [(w, poly) for w, poly, _ in compiled if poly is not None]
    entries = [(1.0, PolynomialIntegrand.combined(polynomial))] if polynomial else []
    entries += [(w, lag) for w, poly, lag in compiled if poly is None]

    def combined(tag):
        def callback(x, xi):
            if tag == "hess_f":
                for _, lag in terms:
                    _require_p2(lag)
            out = 0.0
            for weight, entry in entries:
                out = out + weight * np.asarray(getattr(entry, tag)(x, xi), dtype=float)
            if not np.isfinite(out).all():
                for _, lag in terms:
                    _require_finite(np.asarray(getattr(lag, tag)(x, xi), dtype=float), x, tag)
            return out

        return callback

    return Lagrangian(
        n=energy.n,
        m=energy.m,
        N=energy.N,
        f=combined("f"),
        grad_f=combined("grad_f"),
        hess_f=combined("hess_f"),
        growth=energy.growth,
        name=energy.name,
    )


class CombinedFunctional(DiscretizedFunctional):
    """The parameterized family F - lambda G at a fixed parameter.

    Every evaluation assembles the single combined integrand: one jet
    evaluation, one callback pass and one contraction per call.
    """

    def __init__(self, energy: DiscretizedFunctional, constraint: DiscretizedFunctional, lam: float):
        self.energy = energy
        self.constraint = constraint
        self.lam = float(lam)
        for term in (energy, constraint):
            _check_signature(term.lagrangian, energy.disc)
        super().__init__(_combined_lagrangian(energy.lagrangian, constraint.lagrangian, self.lam), energy.disc)


@dataclass(eq=False)
class VariationalProblem:
    """A model problem bound to a discretization and a base point."""

    model: ModelProblem
    disc: Discretization
    u0: Field = None

    def __post_init__(self):
        if self.u0 is None:
            self.u0 = self.disc.zero_field()

    @property
    def energy(self) -> DiscretizedFunctional:
        return DiscretizedFunctional(self.model.lagrangian, self.disc)

    @property
    def constraint(self) -> DiscretizedFunctional:
        return DiscretizedFunctional(self.model.constraint, self.disc)

    def at_parameter(self, lam: float) -> CombinedFunctional:
        return CombinedFunctional(self.energy, self.constraint, lam)


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


def damped_newton(evaluate, solve, x0, tol: float, max_iter: int, step_cap: Optional[float] = None, project=None):
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
    up to rounding (``iterations`` then counts the stalled step).
    """
    x = np.array(x0, dtype=float)
    res, state = evaluate(x, None)
    for it in range(max_iter):
        if res <= tol:
            return NewtonResult(coeffs=x, residual=res, converged=True, iterations=it, state=state)
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


def newton_polish(func, coeffs0: np.ndarray) -> NewtonResult:
    """Damped Newton iteration on the gradient, in coefficient space.

    The step solves the dual Hessian system directly (geometry independent);
    the residual is the Sobolev norm of the gradient, whose load vector is
    carried from each accepted trial into the next step.  The iteration
    converges at a residual of ``NEWTON_TOL`` within ``NEWTON_MAX_ITER`` steps.
    """

    def evaluate(c, _):
        ell = func.gradient_dual(c)
        return _dual_norm(func.disc, ell), ell

    def solve(c, ell):
        return np.linalg.solve(func.hessian_dual(c), -ell)

    return damped_newton(evaluate, solve, coeffs0, NEWTON_TOL, NEWTON_MAX_ITER)


@dataclass
class CriticalPoint:
    coeffs: np.ndarray
    residual: float
    value: float
    morse_index: int
    nullity: int
    distance_from_center: float = 0.0

    def summary(self) -> dict:
        return {
            "residual": self.residual,
            "value": self.value,
            "morse_index": self.morse_index,
            "nullity": self.nullity,
            "distance_from_center": self.distance_from_center,
        }


def _distinct_points(func, seeds, center=None, radius=None, inner=0.0):
    """Polish the seeds in order and yield each new distinct critical point.

    A polished point is kept when it meets ``RESIDUAL_CONTRACT``, lies at
    least ``inner`` from ``center`` (the branch sampler drops the trivial
    solution this way), at most ``radius`` from it, and at least
    ``DEDUPE_TOL`` from every point kept before; only kept points are
    decomposed.  The census, the Morse audit, the tilted census and the branch
    sampler all collect their points here.
    """
    from .spectral import decompose  # local import to avoid a cycle

    disc = func.disc
    center = np.zeros(disc.dim) if center is None else np.asarray(center, dtype=float)
    found = []
    for seed in seeds:
        result = newton_polish(func, seed)
        if not result.converged or result.residual > RESIDUAL_CONTRACT:
            continue
        dist = disc.norm(result.coeffs - center)
        if dist < inner or (radius is not None and dist > radius):
            continue
        if any(disc.norm(result.coeffs - other.coeffs) < DEDUPE_TOL for other in found):
            continue
        dec = decompose(func.hessian_dual(result.coeffs), disc.gram)
        found.append(
            CriticalPoint(
                coeffs=result.coeffs,
                residual=result.residual,
                value=func.value(result.coeffs),
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

    Keeps polished points within ``RESIDUAL_CONTRACT``; restricts to the ball
    of ``radius`` around ``center`` when given; deduplicates at
    ``DEDUPE_TOL`` in the Sobolev norm, in seed order; attaches Morse data
    from the spectral decomposition of the Hessian at each survivor; sorts
    by value, then by distance from ``center``.
    """
    return sorted(_distinct_points(func, seeds, center, radius), key=_census_order)
