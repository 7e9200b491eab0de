"""Discrete energy functionals and Newton machinery shared across modules.

Every functional handle exposes ``value``, ``gradient_dual`` and
``hessian_dual`` at a point (a coefficient vector or a Field), plus the
owning discretization.
Dual objects live in the load-vector space; norms and projections go through
the Gram matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
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
BRANCH_START = 0.05  # share of lam - lam_k at which a primary branch starts from its one-mode amplitude
BRANCH_STEPS = 8  # geometric parameter steps that continue a primary branch to the census parameter

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


def _even_polynomial(func) -> bool:
    """True when ``func`` is a DiscretizedFunctional whose integrand is a compiled
    polynomial with terms of even total degree only.

    Its load is then odd and its second variation even in the coefficients,
    bit for bit, since IEEE rounding is sign-symmetric.  A callback integrand,
    an odd term or any other handle (a kernel tilt) counts as not even.
    """
    if not isinstance(func, DiscretizedFunctional):
        return False
    poly = PolynomialIntegrand.of(func.lagrangian)
    return poly is not None and poly.even


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
        return not np.any(self.u0.coeffs) and _even_polynomial(self.energy) and _even_polynomial(self.constraint)


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
    stopped: bool = False  # the ``stop`` rule ended the solve


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
    an accepted trial) also ends it unconverged, with ``stopped`` set;
    ``iterations`` then counts the steps taken to that point.
    """
    x = np.array(x0, dtype=float)
    res, state = evaluate(x, None)
    for it in range(max_iter):
        if res <= tol:
            return NewtonResult(coeffs=x, residual=res, converged=True, iterations=it, state=state)
        if stop is not None and stop(x):
            return NewtonResult(coeffs=x, residual=res, converged=False, iterations=it, state=state, stopped=True)
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


def _image(outcome):
    """The image of a solve outcome under u -> -u: an array negated as 0.0 - v, so
    that a +0.0 stays +0.0; a Field rebuilt at its negated coefficients; a
    NewtonResult or a tuple mapped entry by entry.  Flags, numbers and
    exceptions stay as they are."""
    if isinstance(outcome, np.ndarray):
        return 0.0 - outcome
    if isinstance(outcome, Field):
        return outcome.disc.field(0.0 - outcome.coeffs)
    if isinstance(outcome, NewtonResult):
        return replace(outcome, coeffs=_image(outcome.coeffs), state=_image(outcome.state))
    if isinstance(outcome, tuple):
        return tuple(_image(v) for v in outcome)
    return outcome


def _solve_once(solve, even: bool):
    """``solve(start)`` wrapped to solve each start once, up to sign; the wrapper returns ``(outcome, reused)``.

    A start with the bits of one solved before takes its outcome again.  When
    ``even`` holds, a start with the bits of 0.0 - s, for a start s solved
    before, takes ``_image`` of s's outcome: on an even problem every load is
    odd and every second variation even in the coefficients, and IEEE rounding
    is sign-symmetric, so that image is the solve bit for bit (critical points
    come in ± pairs; Fadell and Rabinowitz, Invent. Math. 45, 1978).  ``solve``
    returns a failure as its outcome, so a failure is its own image.
    """
    solved, images = {}, {}  # outcomes by the bits of their start, and by the bits of 0.0 - it

    def solve_once(start):
        start = np.asarray(start, dtype=float)
        key = start.tobytes()
        if key in solved:
            return solved[key], True
        if key in images:
            return _image(images[key]), True
        outcome = solved[key] = solve(start)
        if even:
            images[(0.0 - start).tobytes()] = outcome
        return outcome, False

    return solve_once


def _distinct_points(func, seeds, center=None, radius=None, stop=None, stop_even=None):
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

    Seeds go through ``_solve_once``, anew after each kept point, where a
    consumer may change ``stop``; images are taken when ``func`` is even and
    ``stop`` is None or ``stop_even()`` says stop(-x) == stop(x) for every x.
    A reused outcome that ``stop`` ended asks ``stop`` once at its end point,
    as its polish would last; if it does not fire there, the seed is polished.
    """
    disc = func.disc
    center = np.zeros(disc.dim) if center is None else np.asarray(center, dtype=float)
    even = _even_polynomial(func)

    def polish(seed):
        return newton_polish(func, seed, stop)

    def fresh_memo():
        return _solve_once(polish, even and (stop is None or (stop_even is not None and stop_even())))

    found = []
    solve = fresh_memo()
    for seed in seeds:
        result, reused = solve(seed)
        if reused and result.stopped and not stop(result.coeffs):
            result = polish(seed)
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
        solve = fresh_memo()


def _one_mode_amplitudes(problem, v, lam: float, degree: int, even: bool) -> list:
    """The critical points t of phi(t) = L_lam(u0 + t v) nearest 0 on each side (the positive side
    only when ``even``), from ``degree`` + 1 values of the energy and the constraint.

    phi is a polynomial of degree ``degree``; u0 is critical, so phi'(t) / t has the nonzero ones as roots.
    """
    ts = np.linspace(-1.0, 1.0, degree + 1)
    points = [problem.u0.coeffs + t * v for t in ts]
    values = [problem.energy.value(x) - lam * problem.constraint.value(x) for x in points]
    phi = np.linalg.solve(np.vander(ts, increasing=True), values)
    roots = np.polynomial.polynomial.polyroots(np.arange(2, degree + 1) * phi[2:])
    real = roots.real[(roots.imag == 0) & (roots.real != 0)]
    sides = [real[real > 0]] + ([] if even else [real[real < 0]])
    return [side[np.argmin(np.abs(side))] for side in sides if side.size]


def _primary_branch_ends(problem, lam: float):
    """The end points at ``lam`` of the primary branches, and whether every continuation converged;
    None when the energy or the constraint is not a compiled polynomial.

    Each pencil eigenvalue lam_k < lam that ``pencil.matches(lam)`` does not accept puts out a branch
    along each basis vector v of its eigenspace (Rabinowitz, J. Funct. Anal. 7, 1971).  Its start is
    the one-mode critical point u0 + t v of ``_one_mode_amplitudes`` at lam_k + BRANCH_START (lam - lam_k);
    ``BRANCH_STEPS`` polishes at geometric steps of the distance to lam_k carry it to lam, each from
    the one before.  On a sign-symmetric problem the +v branch is continued and its end point's
    ``_image`` taken; otherwise each side is continued.  A branch whose step does not converge is
    dropped.
    """
    polys = [PolynomialIntegrand.of(lag) for lag in (problem.model.lagrangian, problem.model.constraint)]
    if None in polys:
        return None
    degree = max(sum(p for _, p in factors) for poly in polys for _, factors in poly.terms)
    pencil = problem.pencil
    matched = pencil.nearest(lam)[0] if pencil.matches(lam) else None
    even = problem.sign_symmetric
    ends, complete = [], True
    for k, (lam_k, basis) in enumerate(zip(pencil.eigenvalues, pencil.eigenspaces)):
        if lam_k >= lam or k == matched:
            continue
        steps = lam_k + (lam - lam_k) * BRANCH_START ** (1.0 - np.arange(1, BRANCH_STEPS + 1) / BRANCH_STEPS)
        steps[-1] = lam
        for v in basis.T:
            for t in _one_mode_amplitudes(problem, v, lam_k + BRANCH_START * (lam - lam_k), degree, even):
                x = problem.u0.coeffs + t * v
                for lam_j in steps:
                    result = newton_polish(problem.at_parameter(lam_j), x)
                    if not result.converged:
                        complete = False
                        break
                    x = result.coeffs
                else:
                    ends += [x, _image(x)] if even else [x]
    return ends, complete


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
