"""Finite-dimensional reduction onto the kernel of a degenerate second variation.

Convention used throughout: the parameterized family is
L_lam = F - lam * G.  At a common critical point u0 whose second
variation B = F''(u0) - lam* G''(u0) has kernel H0, the complement
equation

    P_perp grad L_lam(u0 + z + w) = 0,    w in the Sobolev-orthogonal
                                          complement of H0,

is solved by damped Newton for w = psi(lam, z).  The reduced functional
L_reduced(lam, z) = L_lam(u0 + z + psi(lam, z)) then carries all local
critical-point information; its gradient needs no psi-derivative term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateKernelError,
    IdentityViolationError,
    ReductionFailureError,
)
from .functional import (
    NEWTON_MAX_ITER,
    RESIDUAL_CONTRACT,
    CombinedFunctional,
    VariationalProblem,
    _dual_norm,
    _star_seeds,
    damped_newton,
    gradient_norm,
    multistart_census,
)
from .galerkin import Field
from .spectral import COND_LIMIT, _condition_number, decompose

__all__ = [
    "ReductionSetup",
    "make_reduction_setup",
    "PsiSample",
    "ReductionResult",
    "solve_psi",
    "sample_reduced",
    "LipschitzAudit",
    "lipschitz_audit",
    "reduced_hessian_at_origin",
    "PerturbedFunctional",
    "MarinoProdiResult",
    "marino_prodi_perturb",
]

COMPLEMENT_TOL = 1e-11  # relative residual contract of the complement equation
PROBE_PSI_TOL = 1e-13  # complement tolerance of a probe of the reduced gradient (Hessian differences, tilt annulus)
HESSIAN_FD_STEP = 1e-4  # kernel step of the reduced-Hessian finite-difference probe
HESSIAN_CHECK_TOL = 1e-4  # largest relative defect of the reduced-Hessian formula against that probe
TILT_RETRIES = 5  # fresh tilt directions tried after a failed census
LIPSCHITZ_BOUND = 3.0  # largest sampled Lipschitz ratio of the correction map the Lipschitz audit accepts


@dataclass(eq=False)
class ReductionSetup:
    """One reduction of a problem: its kernel at ``lam_star`` and the boxes.

    ``kernel_basis`` columns are Sobolev-orthonormal and span H0;
    ``complement_basis`` completes them to a full orthonormal system.  Kernel
    coordinates z live in R^nu through the kernel basis.  ``lambda_box`` bounds
    |lam - lam_star| and ``trust_radius`` bounds |z| and the complement
    correction.  The discretization, the base point and the functional at each
    parameter are the problem's.
    """

    problem: VariationalProblem
    lam_star: float
    kernel_basis: np.ndarray
    complement_basis: np.ndarray
    lambda_box: float
    trust_radius: float

    @property
    def disc(self):
        return self.problem.disc

    @property
    def u0(self) -> Field:
        return self.problem.u0

    @property
    def nullity(self) -> int:
        return self.kernel_basis.shape[1]

    def functional_at(self, lam: float) -> CombinedFunctional:
        return self.problem.at_parameter(lam)

    def check_lambda(self, lam: float) -> float:
        lam = float(lam)
        if abs(lam - self.lam_star) > self.lambda_box * (1 + 1e-12):
            raise ConfigurationError(
                f"parameter {lam} leaves the box of half-width {self.lambda_box} around {self.lam_star}"
            )
        return lam

    def lift(self, z: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
        c = self.u0.coeffs + self.kernel_basis @ np.atleast_1d(z)
        if y is not None:
            c = c + self.complement_basis @ y
        return c

    def kernel_coordinates(self, coeffs: np.ndarray) -> np.ndarray:
        return self.kernel_basis.T @ (self.disc.gram @ (coeffs - self.u0.coeffs))


def make_reduction_setup(problem: VariationalProblem, lam_star: float) -> ReductionSetup:
    """Build a reduction around a common critical point of F and G.

    The base point must be critical for both terms to ``RESIDUAL_CONTRACT``,
    and ``lam_star`` must match a pencil eigenvalue: the kernel of
    B = F'' - lam* G'' at u0 is that eigenvalue's eigenspace, so its
    multiplicity is the kernel dimension ``decompose`` is given.  The box
    half-width is 0.45 times the distance to the nearest other pencil
    eigenvalue and the trust radius 0.3 times that distance, both capped at 1.
    """
    lam_star = float(lam_star)
    u0 = problem.u0
    for name, func in (("energy", problem.energy), ("constraint", problem.constraint)):
        res = gradient_norm(func, u0)
        if res > RESIDUAL_CONTRACT:
            raise ConfigurationError(f"base point is not critical for {name}: residual {res:.3e}")

    pencil = problem.pencil
    if not pencil.matches(lam_star):
        nearest = f"{pencil.eigenvalues[pencil.nearest(lam_star)[0]]:.6g}" if pencil.eigenvalues.size else "none"
        raise DegenerateKernelError(
            f"{lam_star} is not a pencil eigenvalue (nearest: {nearest}); the second variation there has no kernel"
        )
    idx, _ = pencil.nearest(lam_star)
    B = problem.at_parameter(lam_star).hessian_dual(u0)
    dec = decompose(B, problem.disc.gram, kernel_dim_hint=int(pencil.multiplicities[idx]))
    box, rho = _reduction_extent(pencil.separation(idx))
    return ReductionSetup(
        problem=problem,
        lam_star=lam_star,
        kernel_basis=dec.kernel_vectors,
        complement_basis=dec.complement_vectors,
        lambda_box=float(box),
        trust_radius=float(rho),
    )


def _reduction_extent(separation: float) -> tuple:
    """Default (box half-width, trust radius): 0.45 and 0.3 times the pencil separation, capped at 1.

    A lone pencil group counts as separation 1.
    """
    separation = 1.0 if np.isinf(separation) else separation
    return min(0.45 * separation, 1.0), min(0.3 * separation, 1.0)


# ---------------------------------------------------------------------------
# the complement equation


@dataclass(frozen=True, eq=False)
class PsiSample:
    """One complement solve at (lam, z): the correction y and what it implies.

    ``point`` is the corrected point u0 + z + psi(lam, z), the Field the
    complement Newton accepted last, so an assembly there reuses its jets.
    ``gradient`` is the reduced gradient there in kernel coordinates,
    ``load`` paired with the kernel basis; psi adds no term, because its image
    is orthogonal to the kernel and the complement gradient vanishes at the
    corrected point.
    """

    lam: float
    z: np.ndarray
    y: np.ndarray
    residual: float
    iterations: int
    load: np.ndarray  # dual gradient of L_lam at the corrected point
    point: Field
    gradient: np.ndarray

    @property
    def coeffs(self) -> np.ndarray:
        return self.point.coeffs

    @property
    def correction_norm(self) -> float:
        return float(np.linalg.norm(self.y))


@dataclass
class ReductionResult:
    """Accumulated samples of the complement map and the reduced functional."""

    setup: ReductionSetup
    samples: list = field(default_factory=list)

    def max_residual(self) -> float:
        return max((s.residual for s in self.samples), default=0.0)

    def to_rows(self) -> list:
        """One row per sample: lam, z, reduced value, reduced-gradient norm, residual, correction norm."""
        rows = []
        for s in self.samples:
            value = self.setup.functional_at(s.lam).value(s.point)
            grad_norm = float(np.linalg.norm(s.gradient))
            rows.append([s.lam, *s.z, value, grad_norm, s.residual, s.correction_norm])
        return rows


def solve_psi(
    setup: ReductionSetup,
    lam,
    z,
    tol: float = COMPLEMENT_TOL,
    w0: Optional[np.ndarray] = None,
) -> PsiSample:
    """Solve the complement equation at (lam, z) in at most ``NEWTON_MAX_ITER`` damped Newton steps.

    The Newton start is u0 + z + W y0 with y0 = ``w0`` (complement
    coordinates), or y0 = 0 when ``w0`` is not given.  The residual contract is
    |P_perp grad L_lam| < tol * (1 + |grad L_lam at the start|) in the Sobolev
    norm; the start is evaluated once, and its point and load are also the
    first Newton state.  The state is the evaluated point and its full load
    vector, ``(Field, load)``; the step assembles the Hessian at that Field and
    is capped by the trust radius.
    """
    lam = setup.check_lambda(lam)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (setup.nullity,):
        raise ConfigurationError(f"kernel coordinates must have shape ({setup.nullity},)")
    if np.linalg.norm(z) > setup.trust_radius * (1 + 1e-12):
        raise ConfigurationError(
            f"|z| = {np.linalg.norm(z):.3e} exceeds the trust radius {setup.trust_radius:.3e}"
        )
    func = setup.functional_at(lam)
    disc = setup.disc
    W = setup.complement_basis
    y0 = np.zeros(W.shape[1]) if w0 is None else w0
    start = disc.field(setup.lift(z, w0))
    start_load = func.gradient_dual(start)
    tol_abs = tol * (1.0 + _dual_norm(disc, start_load))

    def evaluate(y, accepted):
        if accepted is None:
            point, ell = start, start_load
        else:
            point = disc.field(setup.lift(z, y))
            ell = func.gradient_dual(point)
        return float(np.linalg.norm(W.T @ ell)), (point, ell)

    def solve(y, state):
        point, ell = state
        J = W.T @ func.hessian_dual(point) @ W
        cond = _condition_number(0.5 * (J + J.T), COND_LIMIT)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise DegenerateKernelError(
                f"complement block of the second variation is singular (cond {cond:.3e}); "
                "the kernel basis is wrong or the nullity changed"
            )
        return np.linalg.solve(J, -(W.T @ ell))

    result = damped_newton(evaluate, solve, y0, tol_abs, NEWTON_MAX_ITER, step_cap=setup.trust_radius)
    if not result.converged:
        raise ReductionFailureError(
            f"complement Newton stalled at residual {result.residual:.3e} (tolerance {tol_abs:.3e}); "
            "the point may lie outside the reduction neighbourhood",
            residual=result.residual,
            iterations=result.iterations,
        )
    point, load = result.state
    return PsiSample(
        lam=lam,
        z=z,
        y=result.coeffs,
        residual=result.residual,
        iterations=result.iterations,
        load=load,
        point=point,
        gradient=setup.kernel_basis.T @ load,
    )


def sample_reduced(setup: ReductionSetup, lam, z_list: Sequence) -> ReductionResult:
    """Evaluate the reduced functional on a z-grid, warm-starting outward from 0, to ``COMPLEMENT_TOL``."""
    lam = setup.check_lambda(lam)
    result = ReductionResult(setup=setup)
    zs = [np.atleast_1d(np.asarray(z, dtype=float)) for z in z_list]
    order = np.argsort([np.linalg.norm(z) for z in zs])
    warm = {}
    for i in order:
        z = zs[i]
        key = tuple(np.round(z / max(np.linalg.norm(z), 1e-300), 6)) if np.linalg.norm(z) > 0 else None
        w0 = warm.get(key)
        sample = solve_psi(setup, lam, z, w0=w0)
        warm[key] = sample.y
        result.samples.append(sample)
    return result


@dataclass
class LipschitzAudit:
    max_ratio: float
    passed: bool


def lipschitz_audit(setup: ReductionSetup, lam, n_pairs: int, rng: np.random.Generator) -> LipschitzAudit:
    """Sampled Lipschitz ratio of the correction map on ``n_pairs`` pairs in the trust ball; it passes at most
    ``LIPSCHITZ_BOUND``."""
    radius = setup.trust_radius
    nu = setup.nullity
    worst = 0.0
    for _ in range(n_pairs):
        z1, z2 = rng.uniform(-radius, radius, size=(2, nu))
        for z in (z1, z2):
            nz = np.linalg.norm(z)
            if nz > radius:
                z *= radius / nz
        if np.linalg.norm(z1 - z2) < 1e-12:
            continue
        s1 = solve_psi(setup, lam, z1)
        s2 = solve_psi(setup, lam, z2)
        ratio = float(np.linalg.norm(s1.y - s2.y) / np.linalg.norm(z1 - z2))
        worst = max(worst, ratio)
    return LipschitzAudit(max_ratio=worst, passed=worst <= LIPSCHITZ_BOUND)


def reduced_hessian_at_origin(setup: ReductionSetup, lam) -> np.ndarray:
    """Closed-form reduced second variation at z = 0.

    For a common critical point the reduced Hessian at the origin is
    -(lam - lam*) * (G''(u0) restricted to the kernel); the
    correction map enters only at second order in the parameter offset.  A
    finite-difference probe of the reduced gradient cross-checks the formula
    to ``HESSIAN_CHECK_TOL``.
    """
    lam = setup.check_lambda(lam)
    Z = setup.kernel_basis
    nu = setup.nullity
    M = np.zeros((nu, nu))
    if lam != setup.lam_star:
        M -= (lam - setup.lam_star) * (Z.T @ setup.problem.constraint.hessian_dual(setup.u0) @ Z)
    M = 0.5 * (M + M.T)

    def probe(h):
        fd = np.zeros((nu, nu))
        for b in range(nu):
            zp = np.zeros(nu)
            zp[b] = h
            gp = solve_psi(setup, lam, zp, tol=PROBE_PSI_TOL).gradient
            gm = solve_psi(setup, lam, -zp, tol=PROBE_PSI_TOL).gradient
            fd[:, b] = (gp - gm) / (2 * h)
        return 0.5 * (fd + fd.T)

    # two-step probe with the quadratic truncation term extrapolated away,
    # so the check stays meaningful when the formula value is zero
    fd = (4.0 * probe(HESSIAN_FD_STEP) - probe(2.0 * HESSIAN_FD_STEP)) / 3.0
    floor = 1e3 * PROBE_PSI_TOL / HESSIAN_FD_STEP
    scale = max(float(np.max(np.abs(M))), float(np.max(np.abs(fd))), floor)
    defect = float(np.max(np.abs(M - fd))) / scale
    if defect > HESSIAN_CHECK_TOL:
        raise IdentityViolationError(
            f"reduced Hessian formula disagrees with finite differences (relative defect {defect:.3e})"
        )
    return M


# ---------------------------------------------------------------------------
# localized kernel tilt (nondegenerate perturbation)


def _smoothfall(t: float, a: float, b: float):
    """C^2 transition from 1 (t <= a) to 0 (t >= b) with value, d/dt, d2/dt2."""
    if t <= a:
        return 1.0, 0.0, 0.0
    if t >= b:
        return 0.0, 0.0, 0.0
    x = (t - a) / (b - a)
    s = 6 * x**5 - 15 * x**4 + 10 * x**3
    ds = (30 * x**4 - 60 * x**3 + 30 * x**2) / (b - a)
    dds = (120 * x**3 - 180 * x**2 + 60 * x) / (b - a) ** 2
    return 1.0 - s, -ds, -dds


class PerturbedFunctional:
    """Base functional plus a localized linear tilt along the kernel.

    The added term is beta(|u - u0|) * rho(|P0 (u - u0)|) * (b, P0 (u - u0)),
    with beta supported in the ball of radius ``r`` (identically one inside
    ``delta``) and rho cutting off at |P0 d| = delta with slope below
    4/delta.  Gradient and Hessian corrections are analytic; inside the inner
    ball the Hessian correction vanishes identically.  The tilt's constant
    vectors are formed once, and its geometry once per point: the geometry of
    the last Field evaluated is kept, so the Hessian at an accepted Newton
    point reuses the geometry of its gradient.
    """

    def __init__(self, base, u0: Field, kernel_basis: np.ndarray, r: float, delta: float, b_coords: np.ndarray):
        if not 0 < delta < r:
            raise ConfigurationError(f"need 0 < delta < r, got delta={delta}, r={r}")
        self.base = base
        self.disc = base.disc
        self.u0 = u0
        self.Z = kernel_basis
        self.r = float(r)
        self.delta = float(delta)
        self.b = np.asarray(b_coords, dtype=float)
        gram = self.disc.gram
        self._b_lift = self.Z @ self.b  # the kernel lift of b, d/du of (b, P0 d)
        self._b_dual = gram @ self._b_lift
        self._P0_dual = gram @ self.Z @ self.Z.T @ gram
        self._last = None  # (Field, its geometry)

    def _geometry(self, u: Field):
        """(d, gram d, kernel coordinates of d, |d|, |P0 d|, (b, P0 d), beta jet, rho jet) at u."""
        last = self._last
        if last is not None and last[0] is u:
            return last[1]
        d = u.coeffs - self.u0.coeffs
        gd = self.disc.gram @ d
        zc = self.Z.T @ gd
        q = float(np.linalg.norm(zc))
        n = float(np.sqrt(max(d @ gd, 0.0)))
        s = float(self.b @ zc)
        beta = _smoothfall(n, self.delta, self.r)
        rho = _smoothfall(q, 0.5 * self.delta, self.delta)
        geometry = (d, gd, zc, n, q, s, beta, rho)
        self._last = (u, geometry)
        return geometry

    def value(self, u):
        u = self.disc.field(u)
        _, _, _, _, _, s, (beta, _, _), (rho, _, _) = self._geometry(u)
        return self.base.value(u) + beta * rho * s

    def gradient_dual(self, u):
        u = self.disc.field(u)
        d, gd, zc, n, q, s, (beta, dbeta, _), (rho, drho, _) = self._geometry(u)
        out = self.base.gradient_dual(u)
        if beta == 0.0:
            return out
        out = out + beta * rho * self._b_dual
        if dbeta != 0.0 and n > 0:
            out = out + dbeta * rho * s / n * gd
        if drho != 0.0 and q > 0:
            out = out + beta * drho * s / q * (self.disc.gram @ (self.Z @ zc))
        return out

    def hessian_dual(self, u):
        u = self.disc.field(u)
        d, _, zc, n, q, s, (beta, dbeta, ddbeta), (rho, drho, ddrho) = self._geometry(u)
        gram = self.disc.gram
        out = self.base.hessian_dual(u)
        if beta == 0.0 or (dbeta == 0.0 and drho == 0.0):
            # inside the plateau the tilt is linear; outside the support it is zero
            return out

        def outer(x, y):
            gx = gram @ x
            gy = gram @ y
            return np.outer(gx, gy)

        n_hat = d / n if n > 0 else np.zeros_like(d)
        q_hat = (self.Z @ zc) / q if q > 0 else np.zeros_like(d)
        b_lift = self._b_lift

        H = np.zeros_like(out)
        # grad phi = g1 n_hat + g2 q_hat + g3 b_lift with
        # g1 = beta' rho s, g2 = beta rho' s, g3 = beta rho
        if dbeta != 0.0:
            dg1 = ddbeta * rho * s * n_hat + dbeta * drho * s * q_hat + dbeta * rho * b_lift
            H += outer(n_hat, dg1)
            H += dbeta * rho * s * (gram - outer(n_hat, n_hat)) / n
        if drho != 0.0:
            dg2 = dbeta * drho * s * n_hat + beta * ddrho * s * q_hat + beta * drho * b_lift
            H += outer(q_hat, dg2)
            H += beta * drho * s * (self._P0_dual - outer(q_hat, q_hat)) / q
        dg3 = dbeta * rho * n_hat + beta * drho * q_hat
        H += outer(b_lift, dg3)
        return out + 0.5 * (H + H.T)


@dataclass
class MarinoProdiResult:
    perturbed: PerturbedFunctional
    critical_points: list
    passed: bool
    attempts: int
    morse_window: tuple


def marino_prodi_perturb(
    problem: VariationalProblem,
    lam: float,
    r: float,
    delta_inner: float,
    rng: np.random.Generator,
) -> MarinoProdiResult:
    """Tilt an isolated degenerate critical point of F - lam G into a nondegenerate census.

    Builds the localized kernel tilt of ``problem.at_parameter(lam)`` at the
    base point u0, runs a multistart Newton census inside the ball of radius
    ``r`` around u0, and verifies that every critical point of the perturbed
    functional is nondegenerate with Morse index inside [mu, mu + nu] for the
    Morse index mu and nullity nu of u0.  A degenerate find triggers a
    resample of the tilt vector, up to ``TILT_RETRIES`` times; persistent
    failure is reported, not raised.
    """
    disc = problem.disc
    u0 = problem.u0
    func = problem.at_parameter(lam)
    dec = decompose(func.hessian_dual(u0), disc.gram)
    Z = dec.kernel_vectors
    nu = dec.nullity
    mu = dec.morse_index
    if nu == 0:
        raise ConfigurationError("the base point is already nondegenerate; no tilt is needed")

    # lower bound for the reduced gradient on the cutoff annulus, scanned coarsely
    probe_setup = ReductionSetup(
        problem, func.lam, Z, dec.complement_vectors, lambda_box=0.0, trust_radius=max(delta_inner * 2, 1e-6)
    )
    grad_floor = np.inf
    for radius_frac in (0.5, 0.75, 1.0):
        for direction in _directions(nu, max(2 * nu, 4), rng):
            z = direction * delta_inner * radius_frac
            try:
                g = solve_psi(probe_setup, func.lam, z, tol=PROBE_PSI_TOL).gradient
            except ReductionFailureError:
                continue
            grad_floor = min(grad_floor, float(np.linalg.norm(g)))
    tilt_bound = grad_floor / 5.0 if np.isfinite(grad_floor) else 0.0

    attempts = 0
    while True:
        attempts += 1
        direction = rng.standard_normal(nu)
        direction /= np.linalg.norm(direction)
        b_coords = (0.5 * tilt_bound if tilt_bound > 0 else 1e-6) * direction
        perturbed = PerturbedFunctional(func, u0, Z, r=r, delta=delta_inner, b_coords=b_coords)
        seeds = _default_mp_seeds(u0, Z, delta_inner, r, rng, disc)
        points = multistart_census(perturbed, seeds, center=u0.coeffs, radius=r)
        degenerate = [cp for cp in points if cp.nullity > 0]
        in_window = all(mu <= cp.morse_index <= mu + nu for cp in points if cp.nullity == 0)
        passed = not degenerate and in_window and bool(points)
        if passed or attempts > TILT_RETRIES:
            return MarinoProdiResult(
                perturbed=perturbed,
                critical_points=points,
                passed=passed,
                attempts=attempts,
                morse_window=(mu, mu + nu),
            )


def _directions(nu: int, n_random: int, rng) -> list:
    """Probe directions in R^nu: the signed coordinate axes, then ``n_random``
    normalized Gaussian rows drawn from ``rng`` (no draw when it is zero)."""
    dirs = []
    for e in np.eye(nu):
        dirs.extend([e, -e])
    if n_random:
        dirs.extend(row / np.linalg.norm(row) for row in rng.standard_normal((n_random, nu)))
    return dirs


def _default_mp_seeds(u0: Field, Z: np.ndarray, delta: float, r: float, rng, disc) -> list:
    seeds = _star_seeds(u0.coeffs, Z.T, (0.25 * delta, 0.5 * delta, delta, 0.5 * (delta + r)))
    for _ in range(4):
        d = rng.standard_normal(disc.dim)
        d /= disc.norm(d)
        seeds.append(u0.coeffs + 0.5 * r * d)
    return seeds
