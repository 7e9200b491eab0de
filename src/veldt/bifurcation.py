"""End-to-end bifurcation analysis on the reduced problem.

Candidates come from the pencil of second variations at a common critical
point; each candidate gets a necessary test, a condition classification, an
index-jump record, and a parameter sweep in which the reduced critical-point
equation is solved by multistart Newton, lifted, polished in the full space,
and assembled into branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from .errors import (
    CapabilityError,
    ConfigurationError,
    DegenerateCriticalPointError,
    IdentityViolationError,
    NotIsolatedError,
    ReductionFailureError,
)
from .functional import VariationalProblem, damped_newton, multistart_census, newton_polish
from .galerkin import Discretization, Field
from .reduction import ReductionSetup, make_reduction_setup, reduced_hessian_at_origin, solve_psi
from .spectral import PencilSpectrum, decompose, index_jump, pencil_eigs

__all__ = [
    "NecessaryVerdict",
    "necessary_test",
    "ConditionClassification",
    "classify_conditions",
    "BranchSample",
    "Branch",
    "CandidateReport",
    "BifurcationReport",
    "detect_branches",
    "classify_reduced_origin",
    "MorseAudit",
    "morse_inequality_audit",
    "OrbitGrouping",
    "orbit_group",
]

RESIDUAL_CONTRACT = 1e-9
DEDUPE_TOL = 1e-6


# ---------------------------------------------------------------------------
# necessary and sufficient conditions


@dataclass
class NecessaryVerdict:
    lam_star: float
    verdict: bool
    nearest_eigenvalue: Optional[float]
    distance: float

    def summary(self) -> dict:
        return {
            "lam_star": self.lam_star,
            "verdict": bool(self.verdict),
            "nearest_eigenvalue": self.nearest_eigenvalue,
            "distance": self.distance,
        }


def necessary_test(pencil: PencilSpectrum, lam_star: float) -> NecessaryVerdict:
    """True iff lam_star sits on the pencil spectrum (within grouping tolerance).

    A false verdict certifies, at this resolution, that no branch can leave
    the base point at lam_star; a true verdict only licenses further analysis.
    """
    if pencil.eigenvalues.size == 0:
        return NecessaryVerdict(lam_star=lam_star, verdict=False, nearest_eigenvalue=None, distance=np.inf)
    idx, dist = pencil.nearest(lam_star)
    return NecessaryVerdict(
        lam_star=float(lam_star),
        verdict=pencil.matches(lam_star),
        nearest_eigenvalue=float(pencil.eigenvalues[idx]),
        distance=dist,
    )


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


def classify_conditions(
    F_hess: np.ndarray,
    G_hess: np.ndarray,
    pencil: PencilSpectrum,
    lam_star: float,
    invariance_tol: float = 1e-8,
) -> ConditionClassification:
    """Which definiteness route applies at this candidate.

    (a) base form positive definite, (b) negative definite, (c) every pencil
    eigenspace invariant under the base form with a definite restriction on
    the crossing eigenspace; otherwise none.
    """
    gram = pencil.gram
    vals = scipy.linalg.eigh(0.5 * (F_hess + F_hess.T), gram, eigvals_only=True)
    n_pos = int(np.count_nonzero(vals > 0))
    n_neg = int(np.count_nonzero(vals < 0))
    if n_neg == 0 and n_pos == vals.size:
        return ConditionClassification("a", n_pos, n_neg, 0.0, True)
    if n_pos == 0 and n_neg == vals.size:
        return ConditionClassification("b", n_pos, n_neg, 0.0, True)

    # (c): eigenspace invariance in the Sobolev operator norm
    R = np.linalg.cholesky(gram).T
    Rinv = np.linalg.inv(R)
    F_op = np.linalg.solve(gram, 0.5 * (F_hess + F_hess.T))
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
    basis = pencil.eigenspaces[idx]
    restricted = np.linalg.eigvalsh(basis.T @ F_hess @ basis)
    definite = bool(np.all(restricted > 0) or np.all(restricted < 0))
    if defect <= invariance_tol * max(scale, 1e-300) and definite:
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
    orbit_tag: Optional[int] = None


@dataclass
class CandidateReport:
    lam_star: float
    multiplicity: int
    necessary: NecessaryVerdict
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
            "necessary": self.necessary.summary(),
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


def _reduced_newton(setup: ReductionSetup, lam, z0, tol=1e-10, psi_tol=1e-11, max_iter=40):
    """Newton on the reduced gradient with the exact eliminated Jacobian.

    Each trial solves the complement equation warm-started from the accepted
    point; a trial whose complement solve fails is rejected like one that does
    not decrease the residual.  Trials are projected into the trust ball.
    """
    Z = setup.kernel_basis
    W = setup.complement_basis
    rho = setup.trust_radius
    func = setup.functional_at(lam)

    def evaluate(z, accepted):
        try:
            sample = solve_psi(setup, lam, z, tol=psi_tol, w0=None if accepted is None else accepted[1])
        except ReductionFailureError:
            if accepted is None:
                raise
            return np.inf, None
        g = Z.T @ sample.load
        return float(np.linalg.norm(g)), (setup.lift(z, sample.y), sample.y, g)

    def solve(z, state):
        coeffs, _, g = state
        B = func.hessian_dual(coeffs)
        Jzw = Z.T @ B @ W
        M = Z.T @ B @ Z - Jzw @ np.linalg.solve(W.T @ B @ W, Jzw.T)
        return np.linalg.solve(M, -g)

    def project(z):
        norm = np.linalg.norm(z)
        return z * (rho / norm) if norm > rho else z

    result = damped_newton(evaluate, solve, z0, tol, max_iter, step_cap=0.5 * rho, project=project)
    return result.coeffs, result.state[1], result.converged


def _reduced_multistart(setup, lam, n_starts, rng, psi_tol=1e-11):
    """Distinct reduced critical points from a deterministic + random start set.

    A start whose solve raises is skipped; when every start raised, the
    parameter value is unreachable and ``ReductionFailureError`` is raised.
    """
    nu = setup.nullity
    rho = setup.trust_radius
    starts = [np.zeros(nu)]
    for i in range(nu):
        e = np.zeros(nu)
        e[i] = 1.0
        for frac in np.linspace(1.0 / n_starts, 0.9, n_starts):
            starts.append(frac * rho * e)
            starts.append(-frac * rho * e)
    if nu > 1:
        extra = rng.standard_normal((2 * n_starts, nu))
        extra = extra / np.linalg.norm(extra, axis=1, keepdims=True)
        for row, frac in zip(extra, np.linspace(0.2, 0.9, extra.shape[0])):
            starts.append(frac * rho * row)
    found = []
    failures = []
    for z0 in starts:
        try:
            z, y, ok = _reduced_newton(setup, lam, z0, psi_tol=psi_tol)
        except (ReductionFailureError, ConfigurationError) as exc:
            failures.append(exc)
            continue
        if not ok:
            continue
        if any(np.linalg.norm(z - zf) < 1e-7 * max(1.0, rho) for zf, _ in found):
            continue
        found.append((z, y))
    if len(failures) == len(starts):
        raise ReductionFailureError(
            f"every one of the {len(starts)} reduced starts raised at lam = {np.atleast_1d(lam).tolist()}; "
            f"last: {failures[-1]}"
        ) from failures[-1]
    return found


def _polish_and_pack(problem, setup, lam, z, y, trivial_tol):
    disc = problem.disc
    func = setup.functional_at(lam if np.ndim(lam) else [lam])
    lifted = setup.lift(z, y)
    polish = newton_polish(func, lifted, tol=1e-12)
    if not polish.converged or polish.residual > RESIDUAL_CONTRACT:
        return None
    coeffs = polish.coeffs
    amplitude = disc.norm(coeffs - setup.u0.coeffs)
    if amplitude < trivial_tol:
        return None
    dec = decompose(func.hessian_dual(coeffs), disc.gram)
    diff = disc.field(coeffs - setup.u0.coeffs)
    return BranchSample(
        lam=float(np.atleast_1d(lam)[0]),
        coeffs=coeffs,
        amplitude=amplitude,
        amplitude_sup=diff.sup_norm(),
        kernel_coords=setup.kernel_coordinates(coeffs),
        morse_index=dec.morse_index,
        nullity=dec.nullity,
        residual=polish.residual,
    )


def _assemble_branches(lam_star, side_samples, side):
    """Chain per-parameter solutions into branches by kernel-coordinate proximity.

    Each branch accepts at most one sample per parameter value, the nearest
    within a bound that scales with the branch's current amplitude (branch
    spacing near a simple crossing is twice the amplitude, so 0.8 of it
    separates a symmetric pair while following square-root growth).
    """
    branches = []
    for lam in sorted(side_samples, key=lambda l: abs(l - lam_star)):
        taken = set()
        for sample in side_samples[lam]:
            best = None
            for bi, branch in enumerate(branches):
                if bi in taken:
                    continue
                last = branch.samples[-1]
                bound = max(0.8 * float(np.linalg.norm(last.kernel_coords)), 1e-3)
                dist = float(np.linalg.norm(sample.kernel_coords - last.kernel_coords))
                if dist <= bound and (best is None or dist < best[0]):
                    best = (dist, bi)
            if best is None:
                branches.append(Branch(lam_star=lam_star, side=side, samples=[sample]))
                taken.add(len(branches) - 1)
            else:
                branches[best[1]].samples.append(sample)
                taken.add(best[1])
    return branches


def detect_branches(
    problem: VariationalProblem,
    window: tuple,
    grid: int = 9,
    amplitude_cap: float = 3.0,
    n_starts: int = 4,
    solution_cap: int = 16,
    rng: Optional[np.random.Generator] = None,
    psi_tol: float = 1e-11,
    jump_eps: Optional[float] = None,
) -> BifurcationReport:
    """Sweep a parameter window for branch points of F' = lam G'.

    For every pencil eigenvalue in the window: build the reduction, solve the
    reduced critical-point equation on a parameter grid through multistart
    Newton, lift and polish solutions in the full space, deduplicate, chain
    them into branches, and label the observed alternative:

    * ``iii``  nontrivial solutions on both sides of the eigenvalue,
    * ``iv``   at least two distinct nontrivial solutions on one side,
    * ``ii``   the per-parameter solution count exceeds the cap and keeps
      growing under multistart refinement (reported, capped),
    * ``i``    nontrivial solutions at the eigenvalue itself,
    * ``undetected`` otherwise.

    The labels record the observed pattern; near the eigenvalue the
    discretization can blur one-sidedness, so no exclusive dichotomy is
    asserted.
    """
    rng = rng or np.random.default_rng(0)
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ConfigurationError(f"empty window ({lo}, {hi})")
    disc = problem.disc
    F_h = problem.energy.hessian_dual(problem.u0.coeffs)
    G_h = problem.constraints[0].hessian_dual(problem.u0.coeffs)
    pencil = pencil_eigs(F_h, G_h, disc.gram)
    candidates = [
        (float(lam), int(mult))
        for lam, mult in zip(pencil.eigenvalues, pencil.multiplicities)
        if lo <= lam <= hi
    ]

    reports = []
    for lam_star, mult in candidates:
        verdict = necessary_test(pencil, lam_star)
        condition = classify_conditions(F_h, G_h, pencil, lam_star)
        others = np.abs(pencil.eigenvalues[pencil.eigenvalues != lam_star] - lam_star)
        separation = float(np.min(others)) if others.size else 1.0
        eps = jump_eps if jump_eps is not None else min(0.1, 0.4 * separation)
        jump = index_jump(pencil, lam_star, eps).summary()
        setup = make_reduction_setup(problem, lam_star, kernel_dim=mult)
        # below the cube root of the residual contract a degenerate origin is
        # numerically indistinguishable from the trivial solution
        trivial_tol = max(1e-8, 1e-4 * setup.trust_radius, (10 * RESIDUAL_CONTRACT) ** (1.0 / 3.0))
        gaps = []

        def solutions_at(lam):
            """Distinct polished nontrivial solutions within the amplitude cap, or None on a gap."""
            try:
                found = _reduced_multistart(setup, lam, n_starts, rng, psi_tol=psi_tol)
            except ReductionFailureError as exc:
                gaps.append({"lam": float(lam), "reason": str(exc)})
                return None
            packed = []
            for z, y in found:
                sample = _polish_and_pack(problem, setup, lam, z, y, trivial_tol)
                if sample is None or sample.amplitude > amplitude_cap:
                    continue
                if any(disc.norm(sample.coeffs - other.coeffs) < DEDUPE_TOL for other in packed):
                    continue
                packed.append(sample)
            return packed

        lam_grid = [l for l in np.linspace(lo, hi, grid) if abs(l - lam_star) <= setup.lambda_box]
        side_samples: dict = {"left": {}, "right": {}}
        counts = {}
        for lam in lam_grid:
            if abs(lam - lam_star) < 1e-12:
                continue
            packed = solutions_at(lam)
            if packed is None:
                continue
            counts[float(lam)] = len(packed)
            side = "left" if lam < lam_star else "right"
            if packed:
                side_samples[side][float(lam)] = packed

        # solutions at the eigenvalue itself
        at_star = solutions_at(lam_star) or []

        unbounded = False
        for lam, count in counts.items():
            if count >= solution_cap:
                try:
                    refined = _reduced_multistart(setup, lam, 2 * n_starts, rng, psi_tol=psi_tol)
                except ReductionFailureError as exc:
                    gaps.append({"lam": lam, "reason": str(exc)})
                    continue
                if len(refined) > count:
                    unbounded = True
                    break

        branches = _assemble_branches(lam_star, side_samples["left"], "left")
        branches += _assemble_branches(lam_star, side_samples["right"], "right")
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
                necessary=verdict,
                condition=condition,
                jump=jump,
                branches=branches,
                solutions_at_star=len(at_star),
                alternative=alternative,
                gaps=gaps,
            )
        )

    return BifurcationReport(window=(lo, hi), pencil_summary=pencil.summary(), candidates=reports)


# ---------------------------------------------------------------------------
# reduced-origin classification


def classify_reduced_origin(
    setup: ReductionSetup,
    lam,
    radii: Optional[Sequence[float]] = None,
    n_directions: int = 8,
    psi_tol: float = 1e-12,
    rng: Optional[np.random.Generator] = None,
) -> str:
    """Classify the origin of the reduced functional as min, max, or saddle.

    Samples reduced values on spheres of three radii around the origin and
    compares with the center value; requires the origin to be isolated within
    the smallest radius (checked by a multistart census) and cross-checks the
    sign against the reduced Hessian when that is nonsingular.
    """
    rng = rng or np.random.default_rng(0)
    lam = setup.check_lambda(lam)
    nu = setup.nullity
    rho = setup.trust_radius
    radii = list(radii) if radii is not None else [0.02 * rho, 0.05 * rho, 0.1 * rho]
    r_min = min(radii)

    found = _reduced_multistart(setup, lam, 3, rng, psi_tol=psi_tol)
    # below the cube root of the gradient tolerance a degenerate origin cannot
    # be told apart from a genuine neighbour; such finds count as the origin
    origin_tol = max(1e-3 * r_min, (10 * 1e-10) ** (1.0 / 3.0))
    for z, _ in found:
        zn = float(np.linalg.norm(z))
        if origin_tol < zn < r_min:
            raise NotIsolatedError(
                f"another reduced critical point at |z| = {zn:.3e} lies inside the smallest probe radius"
            )

    func = setup.functional_at(lam)
    center_sample = solve_psi(setup, lam, np.zeros(nu), tol=psi_tol)
    center = func.value(setup.lift(np.zeros(nu), center_sample.y))

    if nu == 1:
        dirs = [np.array([1.0]), np.array([-1.0])]
    else:
        dirs = []
        for i in range(nu):
            e = np.zeros(nu)
            e[i] = 1.0
            dirs.extend([e, -e])
        extra = rng.standard_normal((n_directions, nu))
        dirs.extend(row / np.linalg.norm(row) for row in extra)

    above = below = 0
    total = 0
    for r in radii:
        for d in dirs:
            sample = solve_psi(setup, lam, r * d, tol=psi_tol)
            val = func.value(setup.lift(r * d, sample.y))
            total += 1
            if val > center:
                above += 1
            elif val < center:
                below += 1
    if above == total:
        label = "local_min"
    elif below == total:
        label = "local_max"
    else:
        label = "saddle"

    try:
        H = reduced_hessian_at_origin(setup, lam)
        eigs = np.linalg.eigvalsh(H)
        scale = max(float(np.max(np.abs(eigs))), 1e-300)
        if np.min(np.abs(eigs)) > 1e-8 * scale:
            expected = "local_min" if np.all(eigs > 0) else ("local_max" if np.all(eigs < 0) else "saddle")
            if expected != label:
                raise IdentityViolationError(
                    f"sphere classification {label} contradicts the nondegenerate reduced Hessian ({expected})"
                )
    except IdentityViolationError:
        raise
    except Exception:
        pass  # Hessian formula unavailable away from the common-critical setting
    return label


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
    window: Optional[tuple] = None,
    residual_tol: float = RESIDUAL_CONTRACT,
    kernel_gap: Optional[float] = None,
) -> MorseAudit:
    """Alternating-sum audit of a full critical-point census.

    Counts census points by Morse index.  With the connected-sublevel
    convention (a coercive functional with a single minimum cell) the
    alternating partial sums must stay at or above (-1)^l and the full
    alternating sum must equal one.  A degenerate census point aborts the
    audit with the witness attached: tilt it away and rerun.
    """
    points = multistart_census(func, seeds, residual_tol=residual_tol, kernel_gap=kernel_gap)
    if window is not None:
        a, b = window
        points = [cp for cp in points if a <= cp.value <= b]
    for cp in points:
        if cp.nullity > 0:
            raise DegenerateCriticalPointError(
                f"census found a degenerate critical point (nullity {cp.nullity}) at value {cp.value:.6g}",
                witness=cp,
            )
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
    )


# ---------------------------------------------------------------------------
# translation orbits on periodic problems


@dataclass
class OrbitGrouping:
    classes: list  # lists of solution indices
    shifts: dict  # (i, j) -> aligning shift
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


def orbit_group(solutions: Sequence[Field], disc: Discretization, tol: float = 1e-8) -> OrbitGrouping:
    """Group periodic solutions identified up to translation.

    For each pair the squared distance |u - (shift by t) v| is minimized over
    a fine shift grid with parabolic refinement (the distance is a smooth
    trigonometric polynomial of the shift).  Constant fields are fixed points
    of the action and each forms its own orbit unless it coincides with
    another constant.  On an even-K space the trailing cosine has no sine
    partner, so the space is not translation invariant: a field whose part
    in that mode exceeds ``tol`` of its norm is rejected.
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
            if share > tol:
                raise CapabilityError(
                    f"solution {i} has {share:.3e} of its norm in the unpaired cosine "
                    f"mode of the even K={disc.K} periodic space, which translations do not preserve; use odd K"
                )
    n = len(solutions)
    (a, b) = disc.domain
    L = b - a
    omega = 2.0 * np.pi / L
    min_d = np.zeros((n, n))
    shifts = {}

    def correlation_coeffs(ui, vj):
        # (u, shift_t v) = const + sum_j [P_j cos(j w t) + Q_j sin(j w t)]
        cu = ui.reshape(disc.n_components, disc.K)
        cv = vj.reshape(disc.n_components, disc.K)
        gdiag = np.diag(disc.gram).reshape(disc.n_components, disc.K)
        pairs, _ = _fourier_mode_data(disc)
        const = float(np.sum(gdiag[:, 0] * cu[:, 0] * cv[:, 0]))
        P, Q, freqs = [], [], []
        for j, ic, isin in pairs:
            g = gdiag[:, ic]
            P.append(float(np.sum(g * (cu[:, ic] * cv[:, ic] + cu[:, isin] * cv[:, isin]))))
            Q.append(float(np.sum(g * (cu[:, ic] * cv[:, isin] - cu[:, isin] * cv[:, ic]))))
            freqs.append(j)
        return const, np.asarray(P), np.asarray(Q), np.asarray(freqs, dtype=float)

    def refine(i, j, t0):
        # Newton on the derivative of the squared distance, a smooth
        # trigonometric polynomial of the shift; the final distance is taken
        # from coefficient differences, which do not cancel catastrophically
        ui, vj = solutions[i].coeffs, solutions[j].coeffs
        _, P, Q, freqs = correlation_coeffs(ui, vj)

        def direct(t):
            return disc.norm(ui - _shifted_coeffs(disc, vj, t))

        t = t0
        for _ in range(40):
            ph = freqs * omega * t
            d1 = 2.0 * float((freqs * omega) @ (P * np.sin(ph) - Q * np.cos(ph)))
            d2 = 2.0 * float(((freqs * omega) ** 2) @ (P * np.cos(ph) + Q * np.sin(ph)))
            if d2 <= 0 or not np.isfinite(d1 / d2):
                break
            step = d1 / d2
            t -= step
            if abs(step) < 1e-15 * max(1.0, abs(t)):
                break
        if direct(t) <= direct(t0):
            return t, direct(t)
        return t0, direct(t0)

    grid = np.linspace(0.0, L, 720, endpoint=False)
    for i in range(n):
        for j in range(i + 1, n):
            vals = np.array(
                [disc.norm(solutions[i].coeffs - _shifted_coeffs(disc, solutions[j].coeffs, t)) for t in grid]
            )
            k = int(np.argmin(vals))
            best_t, d = refine(i, j, float(grid[k]))
            min_d[i, j] = min_d[j, i] = d
            shifts[(i, j)] = best_t % L

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if min_d[i, j] < tol:
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
        if osc <= tol * max(1.0, scale):
            fixed.append(i)

    return OrbitGrouping(
        classes=sorted(classes.values()),
        shifts=shifts,
        min_distances=min_d,
        fixed_points=fixed,
    )
