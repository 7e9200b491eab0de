"""End-to-end bifurcation analysis on the reduced problem.

Candidates are the pencil eigenvalues of the second variations at a common
critical point that lie in the window; each gets a condition classification,
an index-jump record checked against the crossing count, and a parameter
sweep in which the reduced critical-point equation is solved by multistart
Newton, lifted, polished in the full space, and assembled into branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CapabilityError,
    ConfigurationError,
    DegenerateCriticalPointError,
    ReductionFailureError,
)
from .functional import (
    DEDUPE_TOL,
    NEWTON_MAX_ITER,
    RESIDUAL_CONTRACT,
    VariationalProblem,
    _census_order,
    _distinct_points,
    _solve_once,
    _star_seeds,
    damped_newton,
)
from .galerkin import Discretization, Field, _gram_factors
from .reduction import COMPLEMENT_TOL, ReductionSetup, make_reduction_setup, solve_psi
from .spectral import PencilSpectrum, index_jump

__all__ = [
    "ConditionClassification",
    "classify_conditions",
    "BranchSample",
    "Branch",
    "CandidateReport",
    "BifurcationReport",
    "detect_branches",
    "MorseAudit",
    "morse_inequality_audit",
    "OrbitGrouping",
    "orbit_group",
]

INVARIANCE_TOL = 1e-8  # relative eigenspace-invariance defect that still counts as class (c)
BRANCH_STARTS = 4  # deterministic reduced Newton starts per parameter value of a branch sweep
SOLUTION_CAP = 16  # solutions per parameter value from which a branch sweep refines its starts to test for (ii)
ORBIT_TOL = 1e-6  # translation distance below which two periodic solutions are one orbit


# ---------------------------------------------------------------------------
# sufficient conditions


@dataclass
class ConditionClassification:
    klass: str  # "a", "b", "c", or "none"
    f_positive: int
    f_negative: int
    invariance_defect: float
    definite_on_crossing: Optional[bool]

    def summary(self) -> dict:
        return {
            "class": self.klass,
            "f_positive": self.f_positive,
            "f_negative": self.f_negative,
            "invariance_defect": self.invariance_defect,
            "definite_on_crossing": self.definite_on_crossing,
        }


def classify_conditions(pencil: PencilSpectrum, lam_star: float) -> ConditionClassification:
    """Which definiteness route applies at this candidate, for the pencil's base form F''.

    (a) base form positive definite, (b) negative definite, (c) every pencil
    eigenspace invariant under the base form with a definite restriction on
    the crossing eigenspace; otherwise none.
    """
    F_hess, gram = pencil.F_hess, pencil.gram
    n_pos, n_neg = pencil.base_inertia
    if n_pos == gram.shape[0]:
        return ConditionClassification("a", n_pos, n_neg, 0.0, True)
    if n_neg == gram.shape[0]:
        return ConditionClassification("b", n_pos, n_neg, 0.0, True)

    # (c): eigenspace invariance in the Sobolev operator norm, with the space's
    # kept factors: gram = R^T R for R = L^T, and gram^-1 = W^T W for W = L^-1
    L, W = _gram_factors(gram)
    R, Rinv = L.T, W.T
    F_op = W.T @ (W @ F_hess)
    scale = np.linalg.norm(R @ F_op @ Rinv, 2)
    defect = 0.0
    spaces = list(pencil.eigenspaces)
    if pencil.kernel.shape[1]:
        spaces.append(pencil.kernel)
    for basis in spaces:
        Pi = basis @ basis.T @ gram
        A = (np.eye(gram.shape[0]) - Pi) @ F_op @ Pi
        defect = max(defect, float(np.linalg.norm(R @ A @ Rinv, 2)))
    idx, _ = pencil.nearest(lam_star)
    # definite: F'' has one sign on the whole crossing eigenspace
    definite = int(pencil.multiplicities[idx]) in pencil.inertia[idx].tolist()
    if defect <= INVARIANCE_TOL * max(scale, 1e-300) and definite:
        return ConditionClassification("c", n_pos, n_neg, defect, definite)
    return ConditionClassification("none", n_pos, n_neg, defect, definite)


# ---------------------------------------------------------------------------
# branches


@dataclass
class BranchSample:
    lam: float
    coeffs: np.ndarray
    amplitude: float  # Sobolev norm of u - u0
    amplitude_sup: float  # sup norm at quadrature nodes, basis independent
    kernel_coords: np.ndarray
    morse_index: int
    nullity: int
    residual: float


@dataclass
class Branch:
    lam_star: float
    side: str  # "left", "right", or "at"
    samples: list = field(default_factory=list)


@dataclass
class CandidateReport:
    lam_star: float
    multiplicity: int
    condition: ConditionClassification
    jump: Optional[dict]
    branches: list
    solutions_at_star: int
    alternative: str
    gaps: list = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "lam_star": self.lam_star,
            "multiplicity": self.multiplicity,
            "condition": self.condition.summary(),
            "index_jump": self.jump,
            "n_branches": len(self.branches),
            "solutions_at_star": self.solutions_at_star,
            "alternative": self.alternative,
            "gaps": self.gaps,
        }


@dataclass
class BifurcationReport:
    window: tuple
    pencil_summary: dict
    candidates: list

    def summary(self) -> dict:
        return {
            "window": list(self.window),
            "pencil": self.pencil_summary,
            "candidates": [c.summary() for c in self.candidates],
        }


def _reduced_newton(setup: ReductionSetup, lam, z0):
    """One-level Newton for a reduced critical point, on the full gradient in the coordinates (z, y).

    A reduced critical point is a critical point of L_lam in the reduction
    neighbourhood.  So, from (z0, psi(z0)) (one cold complement solve, which
    raises outside the neighbourhood), damped Newton runs on x = (z, y) with
    the residual |V^T ell| for V = [Z W], the dual norm of the full gradient,
    and the step V^T B V dx = -V^T ell, whose block elimination is the Schur
    step for dz.  The state is ``(Field, load)``, z is projected into the
    trust ball, and the solve has converged when |V^T ell| is at most
    ``COMPLEMENT_TOL``.  Then |W^T ell| <= ``COMPLEMENT_TOL`` (1 + |ell|)
    meets the complement contract of ``solve_psi``, so y = psi(z) with no
    further complement solve.
    """
    nu = setup.nullity
    V = np.hstack([setup.kernel_basis, setup.complement_basis])
    rho = setup.trust_radius
    func = setup.functional_at(lam)
    start = solve_psi(setup, lam, z0)

    def evaluate(x, accepted):
        if accepted is None:
            point, ell = start.point, start.load
        else:
            point = setup.disc.field(setup.lift(x[:nu], x[nu:]))
            ell = func.gradient_dual(point)
        return float(np.linalg.norm(V.T @ ell)), (point, ell)

    def solve(x, state):
        point, ell = state
        return np.linalg.solve(V.T @ func.hessian_dual(point) @ V, -(V.T @ ell))

    def project(x):
        norm = np.linalg.norm(x[:nu])
        return np.concatenate([x[:nu] * (rho / norm), x[nu:]]) if norm > rho else x

    x0 = np.concatenate([start.z, start.y])
    result = damped_newton(evaluate, solve, x0, COMPLEMENT_TOL, NEWTON_MAX_ITER, step_cap=0.5 * rho, project=project)
    return result.coeffs[:nu], result.coeffs[nu:], result.converged


def _reduced_multistart(setup, lam, n_starts, rng):
    """Distinct reduced critical points from a deterministic + random start set.

    The origin is no start, since u0 solves every parameter value.  A start
    whose solve raises or stalls is skipped; when none converges, the value is
    unreachable and ``ReductionFailureError`` names the last raised failure.
    Points within ``DEDUPE_TOL`` in (z, y) are one: [Z W] is orthonormal, so
    that is their Sobolev distance.  Starts are solved through
    ``_solve_once``, up to sign on a sign-symmetric setup.
    """
    nu = setup.nullity
    rho = setup.trust_radius
    starts = _star_seeds(np.zeros(nu), np.eye(nu), np.linspace(1.0 / n_starts, 0.9, n_starts) * rho)[1:]
    if nu > 1:
        extra = rng.standard_normal((2 * n_starts, nu))
        extra = extra / np.linalg.norm(extra, axis=1, keepdims=True)
        for row, frac in zip(extra, np.linspace(0.2, 0.9, extra.shape[0])):
            starts.append(frac * rho * row)

    def solve(z0):
        try:
            return _reduced_newton(setup, lam, z0)
        except (ReductionFailureError, ConfigurationError) as exc:
            return exc

    solve_once = _solve_once(solve, setup.problem.sign_symmetric)
    found, failures = [], []
    for z0 in starts:
        outcome, _ = solve_once(z0)
        if isinstance(outcome, Exception):
            failures.append(outcome)
            continue
        z, y, ok = outcome
        if not ok:
            continue
        if any(np.linalg.norm(np.concatenate([z - zf, y - yf])) < DEDUPE_TOL for zf, yf in found):
            continue
        found.append((z, y))
    if not found:
        last = failures[-1] if failures else None
        raised = f"; {len(failures)} raised, the last: {last}" if failures else ""
        raise ReductionFailureError(
            f"none of the {len(starts)} reduced starts converged at lam = {[float(lam)]}{raised}"
        ) from last
    return found


def _assemble_branches(lam_star, side_samples, side, gaps):
    """Chain per-parameter solutions into branches by kernel-coordinate proximity.

    Each branch accepts at most one sample per parameter value, the nearest
    within 0.8 times the larger amplitude of the two samples.  The two samples of
    a symmetric pair are a_last + a_new apart, more than that bound, so the
    pair stays apart, while a branch whose amplitude grows by a factor up to
    five between grid values (square-root or linear growth) stays one branch.
    A sample within that bound of two or more unclaimed branches joins the
    nearest, but the choice is a guess, so it is recorded in ``gaps``.
    """
    branches = []
    for lam in sorted(side_samples, key=lambda l: abs(l - lam_star)):
        taken = set()
        for sample in side_samples[lam]:
            near = []
            for bi, branch in enumerate(branches):
                if bi in taken:
                    continue
                last = branch.samples[-1]
                reach = max(np.linalg.norm(last.kernel_coords), np.linalg.norm(sample.kernel_coords))
                bound = max(0.8 * float(reach), 1e-3)
                dist = float(np.linalg.norm(sample.kernel_coords - last.kernel_coords))
                if dist <= bound:
                    near.append((dist, bi))
            if not near:
                branches.append(Branch(lam_star=lam_star, side=side, samples=[sample]))
                taken.add(len(branches) - 1)
                continue
            near.sort()
            if len(near) > 1:
                gaps.append(
                    {
                        "lam": float(lam),
                        "reason": f"ambiguous chaining: {len(near)} unclaimed branches are within reach of a "
                        f"sample, the nearest two at distances {near[0][0]:.3e} and {near[1][0]:.3e}",
                    }
                )
            branches[near[0][1]].samples.append(sample)
            taken.add(near[0][1])
    return branches


def detect_branches(
    problem: VariationalProblem,
    window: tuple,
    grid: int,
    amplitude_cap: float,
    rng: np.random.Generator,
) -> BifurcationReport:
    """Sweep a parameter window for branch points of F' = lam G'.

    For every pencil eigenvalue in the window: build the reduction, solve the
    reduced critical-point equation on ``grid`` evenly spaced parameter values
    of the window through multistart Newton, keep the nontrivial solutions
    within ``amplitude_cap`` of u0, lift and polish them in the full space,
    deduplicate, chain them into branches, and label the observed alternative:

    * ``iii``  nontrivial solutions on both sides of the eigenvalue,
    * ``iv``   at least two distinct nontrivial solutions on one side,
    * ``ii``   the per-parameter solution count reaches ``SOLUTION_CAP`` and
      keeps growing under multistart refinement (reported, capped),
    * ``i``    nontrivial solutions at the eigenvalue itself,
    * ``undetected`` otherwise.

    The labels record the observed pattern; near the eigenvalue the
    discretization can blur one-sidedness, so no exclusive dichotomy is
    asserted.
    """
    lo, hi = _check_window(window)
    disc = problem.disc
    u0 = problem.u0.coeffs
    pencil = problem.pencil

    reports = []
    for idx in np.flatnonzero((lo <= pencil.eigenvalues) & (pencil.eigenvalues <= hi)):
        lam_star, mult = float(pencil.eigenvalues[idx]), int(pencil.multiplicities[idx])
        condition = classify_conditions(pencil, lam_star)
        # a lone eigenvalue has infinite separation, which leaves eps at 0.1
        jump = index_jump(pencil, lam_star, min(0.1, 0.4 * pencil.separation(idx))).summary()
        setup = make_reduction_setup(problem, lam_star)
        # [Z W] is Sobolev-orthonormal, so |(z, y)| is a reduced solution's distance from u0; below the
        # cube root of the residual contract a degenerate origin is numerically the trivial solution
        trivial_tol = (10 * RESIDUAL_CONTRACT) ** (1.0 / 3.0)
        gaps = []

        def solutions_at(lam, n):
            """Distinct polished nontrivial solutions within the amplitude cap, or None on a gap."""
            try:
                found = _reduced_multistart(setup, lam, n, rng)
            except ReductionFailureError as exc:
                gaps.append({"lam": float(lam), "reason": str(exc)})
                return None
            kept = [(z, y) for z, y in found if trivial_tol <= np.linalg.norm(np.concatenate([z, y])) <= amplitude_cap]
            points = _distinct_points(setup.functional_at(lam), [setup.lift(z, y) for z, y in kept], center=u0)
            return [
                BranchSample(
                    lam=float(lam),
                    coeffs=cp.coeffs,
                    amplitude=cp.distance_from_center,
                    amplitude_sup=disc.field(cp.coeffs - u0).sup_norm(),
                    kernel_coords=setup.kernel_coordinates(cp.coeffs),
                    morse_index=cp.morse_index,
                    nullity=cp.nullity,
                    residual=cp.residual,
                )
                for cp in points
            ]

        lam_grid = [l for l in np.linspace(lo, hi, grid) if abs(l - lam_star) <= setup.lambda_box]
        side_samples: dict = {"left": {}, "right": {}}
        counts = {}
        for lam in lam_grid:
            if abs(lam - lam_star) < 1e-12:
                continue
            packed = solutions_at(lam, BRANCH_STARTS)
            if packed is None:
                continue
            counts[float(lam)] = len(packed)
            side = "left" if lam < lam_star else "right"
            if packed:
                side_samples[side][float(lam)] = packed

        # solutions at the eigenvalue itself
        at_star = solutions_at(lam_star, BRANCH_STARTS) or []

        unbounded = False
        for lam, count in counts.items():
            if count >= SOLUTION_CAP:
                refined = solutions_at(lam, 2 * BRANCH_STARTS)
                if refined is not None and len(refined) > count:
                    unbounded = True
                    break

        branches = _assemble_branches(lam_star, side_samples["left"], "left", gaps)
        branches += _assemble_branches(lam_star, side_samples["right"], "right", gaps)
        if at_star:
            branches.append(Branch(lam_star=lam_star, side="at", samples=at_star))

        left_n = max((len(v) for v in side_samples["left"].values()), default=0)
        right_n = max((len(v) for v in side_samples["right"].values()), default=0)
        if left_n >= 1 and right_n >= 1:
            alternative = "iii"
        elif max(left_n, right_n) >= 2:
            alternative = "iv"
        elif unbounded:
            alternative = "ii"
        elif at_star:
            alternative = "i"
        else:
            alternative = "undetected"

        reports.append(
            CandidateReport(
                lam_star=lam_star,
                multiplicity=mult,
                condition=condition,
                jump=jump,
                branches=branches,
                solutions_at_star=len(at_star),
                alternative=alternative,
                gaps=gaps,
            )
        )

    return BifurcationReport(window=(lo, hi), pencil_summary=pencil.summary(), candidates=reports)


def _check_window(window) -> tuple:
    """``(lo, hi)`` of a window given as [lo, hi] with lo < hi, else a configuration error."""
    try:
        lo, hi = (float(v) for v in window)
    except (TypeError, ValueError):
        lo = hi = np.nan
    if not hi > lo:
        raise ConfigurationError(f"window must be [lo, hi] with lo < hi, got {window!r}")
    return lo, hi


# ---------------------------------------------------------------------------
# Morse counting


@dataclass
class MorseAudit:
    counts: dict
    alternating_total: int
    identity_holds: bool
    partial_sums_hold: bool
    points: list
    window: Optional[tuple]
    captures: list  # (kernel tilt, polishes its capture ball stopped) per tilted witness, in census order

    def summary(self) -> dict:
        return {
            "counts": {str(k): int(v) for k, v in sorted(self.counts.items())},
            "alternating_total": self.alternating_total,
            "identity_holds": self.identity_holds,
            "partial_sums_hold": self.partial_sums_hold,
            "n_points": len(self.points),
            "window": list(self.window) if self.window else None,
        }


def morse_inequality_audit(
    func,
    seeds: Sequence[np.ndarray],
    window: Optional[tuple],
    tilt=None,
) -> MorseAudit:
    """Alternating-sum audit of a full critical-point census.

    Counts census points by Morse index.  With the connected-sublevel
    convention (a coercive functional with a single minimum cell) the
    alternating partial sums must stay at or above (-1)^l and the full
    alternating sum must equal one.  Only points with critical values in
    ``window`` ([lo, hi] with lo < hi) count, or every point when it is None.

    A degenerate one stops the census before the remaining seeds are
    polished, and ``tilt(witness)`` is asked for a kernel tilt of it (a
    ``MarinoProdiResult``).  Without ``tilt``, or when it returns None, the
    audit raises with the point attached as the witness.  It then raises
    exactly when the full census would hold such a point; the witness is the
    first one in seed order, so it can differ from the first in census order
    when the window holds two or more.

    A tilt changes the functional only inside the ball of radius r around its
    base point, so its local census owns that ball.  The census resumes
    after the witness with a capture ball of radius delta around the base
    point: a polish whose accepted iterate enters it stops unconverged and
    counts as captured, and census points within r of the base point are
    dropped.  The tilt's local points in the window count in their place; a
    degenerate one raises as the witness.

    On an even ``func`` the census solves its seeds once up to sign (see
    ``_distinct_points``) while every capture ball in force is centred at the
    coefficient origin, so that capture is even.
    """
    window = None if window is None else _check_window(window)
    disc = func.disc
    tilts, captured = [], []  # per capture ball: the kernel tilt and the polishes the ball stopped

    def capture(x) -> bool:
        for i, result in enumerate(tilts):
            if disc.norm(x - result.perturbed.u0.coeffs) < result.perturbed.delta:
                captured[i] += 1
                return True
        return False

    def capture_even() -> bool:
        return not any(np.any(result.perturbed.u0.coeffs) for result in tilts)

    def owned(cp) -> bool:
        return any(disc.norm(cp.coeffs - result.perturbed.u0.coeffs) <= result.perturbed.r for result in tilts)

    def in_window(cp) -> bool:
        return window is None or window[0] <= cp.value <= window[1]

    def degenerate(cp) -> DegenerateCriticalPointError:
        return DegenerateCriticalPointError(
            f"census found a degenerate critical point (nullity {cp.nullity}) at value {cp.value:.6g}", witness=cp
        )

    points = []
    for cp in _distinct_points(func, seeds, stop=capture, stop_even=capture_even):
        if owned(cp) or not in_window(cp):
            continue
        if cp.nullity == 0:
            points.append(cp)
            continue
        result = None if tilt is None else tilt(cp)
        if result is None:
            raise degenerate(cp)
        witness = next((p for p in result.critical_points if p.nullity > 0 and in_window(p)), None)
        if witness is not None:
            raise degenerate(witness)
        tilts.append(result)
        captured.append(0)
    points = [cp for cp in points if not owned(cp)]  # a point found before its ball's witness
    points += [cp for result in tilts for cp in result.critical_points if in_window(cp)]
    points.sort(key=_census_order)
    counts: dict = {}
    for cp in points:
        counts[cp.morse_index] = counts.get(cp.morse_index, 0) + 1
    qmax = max(counts, default=0)
    partial_ok = True
    for l in range(qmax + 1):
        total = sum((-1) ** (l - j) * counts.get(j, 0) for j in range(l + 1))
        if total < (-1) ** l:
            partial_ok = False
    alternating = sum((-1) ** q * nq for q, nq in counts.items())
    return MorseAudit(
        counts=counts,
        alternating_total=int(alternating),
        identity_holds=bool(alternating == 1),
        partial_sums_hold=partial_ok,
        points=points,
        window=window,
        captures=list(zip(tilts, captured)),
    )


# ---------------------------------------------------------------------------
# translation orbits on periodic problems


@dataclass
class OrbitGrouping:
    classes: list  # lists of solution indices
    min_distances: np.ndarray
    fixed_points: list  # indices of constant fields

    @property
    def n_orbits(self) -> int:
        return len(self.classes)


def _fourier_mode_data(disc: Discretization):
    # (frequency index j, cos column, sin column) per oscillating pair
    pairs = []
    k = 1
    while k + 1 <= disc.K - 1:
        pairs.append(((k + 1) // 2, k, k + 1))
        k += 2
    lone = disc.K - 1 if disc.K % 2 == 0 else None
    return pairs, lone


def _shifted_coeffs(disc: Discretization, coeffs: np.ndarray, t: float) -> np.ndarray:
    """Coefficients of the field translated by t; an even-K space's unpaired
    trailing cosine has no sine partner and stays unshifted (``orbit_group``
    rejects fields that use it)."""
    (a, b) = disc.domain
    L = b - a
    out = coeffs.reshape(disc.n_components, disc.K).copy()
    pairs, _ = _fourier_mode_data(disc)
    for j, ic, isin in pairs:
        phi = 2 * np.pi * j * t / L
        c, s = np.cos(phi), np.sin(phi)
        ac = out[:, ic].copy()
        bs = out[:, isin].copy()
        out[:, ic] = ac * c + bs * s
        out[:, isin] = -ac * s + bs * c
    return out.reshape(disc.dim)


def orbit_group(solutions: Sequence[Field], disc: Discretization) -> OrbitGrouping:
    """Group periodic solutions identified up to translation.

    For each pair the squared distance |u - (shift by t) v|^2 is a
    trigonometric polynomial of the shift: it is evaluated on a 720-point
    shift grid and its best grid point refined by Newton.  Constant fields are
    fixed points of the action and each forms its own orbit unless it
    coincides with another constant.  On an even-K space the trailing cosine has no sine
    partner, so the space is not translation invariant: a field whose part
    in that mode exceeds ``ORBIT_TOL`` of its norm is rejected.
    """
    if disc.bc != "periodic":
        raise CapabilityError("orbit grouping requires a periodic discretization")
    if disc.n != 1:
        raise CapabilityError("orbit grouping is implemented for one spatial dimension")
    _, lone = _fourier_mode_data(disc)
    if lone is not None:
        for i, u in enumerate(solutions):
            part = np.zeros((disc.n_components, disc.K))
            part[:, lone] = u.coeffs.reshape(disc.n_components, disc.K)[:, lone]
            share = disc.norm(part.reshape(disc.dim)) / max(disc.norm(u.coeffs), 1e-300)
            if share > ORBIT_TOL:
                raise CapabilityError(
                    f"solution {i} has {share:.3e} of its norm in the unpaired cosine "
                    f"mode of the even K={disc.K} periodic space, which translations do not preserve; use odd K"
                )
    n = len(solutions)
    (a, b) = disc.domain
    L = b - a
    pairs, _ = _fourier_mode_data(disc)
    freqs, ic, isin = np.array(pairs, dtype=int).reshape(-1, 3).T
    w = 2.0 * np.pi / L * freqs
    weight = np.diag(disc.gram).reshape(disc.n_components, disc.K)[:, ic]
    grid = np.linspace(0.0, L, 720, endpoint=False)
    grid_cos, grid_sin = np.cos(np.outer(grid, w)), np.sin(np.outer(grid, w))
    min_d = np.zeros((n, n))

    for i in range(n):
        for j in range(i + 1, n):
            ui, vj = solutions[i].coeffs, solutions[j].coeffs
            # (u, shift_t v) = const + sum_k [P_k cos(w_k t) + Q_k sin(w_k t)], and
            # |u - shift_t v|^2 = |u|^2 + |v|^2 - 2 (u, shift_t v): the best grid
            # shift maximizes this correlation polynomial
            cu = ui.reshape(disc.n_components, disc.K)
            cv = vj.reshape(disc.n_components, disc.K)
            P = np.sum(weight * (cu[:, ic] * cv[:, ic] + cu[:, isin] * cv[:, isin]), axis=0)
            Q = np.sum(weight * (cu[:, ic] * cv[:, isin] - cu[:, isin] * cv[:, ic]), axis=0)
            t0 = t = float(grid[np.argmax(grid_cos @ P + grid_sin @ Q)])
            # Newton on the derivative of the squared distance; the final distance
            # is taken from coefficient differences, which do not cancel catastrophically
            for _ in range(40):
                ph = w * t
                d1 = 2.0 * float(w @ (P * np.sin(ph) - Q * np.cos(ph)))
                d2 = 2.0 * float((w**2) @ (P * np.cos(ph) + Q * np.sin(ph)))
                if d2 <= 0 or not np.isfinite(d1 / d2):
                    break
                step = d1 / d2
                t -= step
                if abs(step) < 1e-15 * max(1.0, abs(t)):
                    break
            d = disc.norm(ui - _shifted_coeffs(disc, vj, t))
            d_grid = disc.norm(ui - _shifted_coeffs(disc, vj, t0))
            if d > d_grid:
                t, d = t0, d_grid
            min_d[i, j] = min_d[j, i] = d

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if min_d[i, j] < ORBIT_TOL:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri

    classes: dict = {}
    for i in range(n):
        classes.setdefault(find(i), []).append(i)

    fixed = []
    for i, u in enumerate(solutions):
        c = u.coeffs.reshape(disc.n_components, disc.K)
        osc = np.sqrt(np.sum(c[:, 1:] ** 2))
        scale = max(np.sqrt(np.sum(c**2)), 1e-300)
        if osc <= ORBIT_TOL * max(1.0, scale):
            fixed.append(i)

    return OrbitGrouping(
        classes=sorted(classes.values()),
        min_distances=min_d,
        fixed_points=fixed,
    )
