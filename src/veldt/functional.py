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

from .catalog import ModelProblem
from .errors import DiscretizationError
from .galerkin import Discretization, Field, assemble_functional, assemble_gradient, assemble_hessian

HALVINGS = 25  # step-length halvings before a Newton step counts as stalled

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
        ell, _ = assemble_gradient(self.lagrangian, self.disc.field(coeffs))
        return ell

    def hessian_dual(self, coeffs: np.ndarray) -> np.ndarray:
        return assemble_hessian(self.lagrangian, self.disc.field(coeffs)).B


class CombinedFunctional:
    """The parameterized family F - sum_j lambda_j G_j at a fixed parameter."""

    def __init__(self, energy: DiscretizedFunctional, constraints: Sequence[DiscretizedFunctional], lam):
        self.energy = energy
        self.constraints = list(constraints)
        self.lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if self.lam.shape != (len(self.constraints),):
            raise DiscretizationError(
                f"parameter vector length {self.lam.shape} does not match {len(self.constraints)} constraints"
            )
        self.disc = energy.disc

    def value(self, coeffs: np.ndarray) -> float:
        out = self.energy.value(coeffs)
        for lj, gj in zip(self.lam, self.constraints):
            out -= lj * gj.value(coeffs)
        return out

    def gradient_dual(self, coeffs: np.ndarray) -> np.ndarray:
        out = self.energy.gradient_dual(coeffs)
        for lj, gj in zip(self.lam, self.constraints):
            out = out - lj * gj.gradient_dual(coeffs)
        return out

    def hessian_dual(self, coeffs: np.ndarray) -> np.ndarray:
        out = self.energy.hessian_dual(coeffs)
        for lj, gj in zip(self.lam, self.constraints):
            out = out - lj * gj.hessian_dual(coeffs)
        return out


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
    def constraints(self) -> list:
        return [DiscretizedFunctional(self.model.constraint, self.disc)]

    def at_parameter(self, lam) -> CombinedFunctional:
        return CombinedFunctional(self.energy, self.constraints, lam)


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
    residual is at most ``tol``, and unconverged on a singular system or a
    failed line search (``iterations`` then counts the stalled step).
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
            trial_res, trial_state = evaluate(trial, state)
            if trial_res < res * (1.0 - 1e-4 * t) or trial_res <= tol:
                x, res, state = trial, trial_res, trial_state
                break
            t *= 0.5
        else:
            return NewtonResult(coeffs=x, residual=res, converged=False, iterations=it + 1, state=state)
    return NewtonResult(coeffs=x, residual=res, converged=res <= tol, iterations=max_iter, state=state)


def newton_polish(func, coeffs0: np.ndarray, tol: float = 1e-12, max_iter: int = 50) -> NewtonResult:
    """Damped Newton iteration on the gradient, in coefficient space.

    The step solves the dual Hessian system directly (geometry independent);
    the residual is the Sobolev norm of the gradient, whose load vector is
    carried from each accepted trial into the next step.
    """

    def evaluate(c, _):
        ell = func.gradient_dual(c)
        return _dual_norm(func.disc, ell), ell

    def solve(c, ell):
        return np.linalg.solve(func.hessian_dual(c), -ell)

    return damped_newton(evaluate, solve, coeffs0, tol, max_iter)


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


def multistart_census(
    func,
    seeds: Sequence[np.ndarray],
    center: Optional[np.ndarray] = None,
    radius: Optional[float] = None,
    residual_tol: float = 1e-10,
    dedupe_tol: float = 1e-6,
    newton_tol: float = 1e-12,
    kernel_gap: Optional[float] = None,
) -> list:
    """Polish every seed and collect distinct critical points.

    Restricts to the ball of ``radius`` around ``center`` when given;
    deduplicates at ``dedupe_tol`` in the Sobolev norm; attaches Morse data
    from the spectral decomposition of the Hessian at each survivor.
    """
    from .spectral import decompose  # local import to avoid a cycle

    disc = func.disc
    center = np.zeros(disc.dim) if center is None else np.asarray(center, dtype=float)
    found = []
    for seed in seeds:
        result = newton_polish(func, seed, tol=newton_tol)
        if not result.converged or result.residual > residual_tol:
            continue
        dist = disc.norm(result.coeffs - center)
        if radius is not None and dist > radius:
            continue
        if any(disc.norm(result.coeffs - other.coeffs) < dedupe_tol for other in found):
            continue
        dec = decompose(func.hessian_dual(result.coeffs), disc.gram, gap=kernel_gap)
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
    found.sort(key=lambda cp: (round(cp.value, 12), cp.distance_from_center))
    return found
