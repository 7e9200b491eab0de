"""Finite-dimensional reduction onto the kernel of a degenerate second variation.

Convention used throughout: the parameterized family is
L_lam = F - sum_j lam_j * G_j.  At a common critical point u0 whose second
variation B = F''(u0) - sum_j lam*_j G_j''(u0) has kernel H0, the complement
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
    CombinedFunctional,
    DiscretizedFunctional,
    VariationalProblem,
    _dual_norm,
    damped_newton,
    gradient_norm,
    multistart_census,
)
from .galerkin import Field
from .spectral import decompose, pencil_eigs

__all__ = [
    "ReductionSetup",
    "make_reduction_setup",
    "PsiSample",
    "ReductionResult",
    "solve_psi",
    "reduced_value",
    "reduced_gradient",
    "sample_reduced",
    "LipschitzAudit",
    "lipschitz_audit",
    "reduced_hessian_at_origin",
    "PerturbedFunctional",
    "MarinoProdiResult",
    "marino_prodi_perturb",
]


@dataclass(eq=False)
class ReductionSetup:
    """Frozen ingredients of one reduction: base point, kernel, boxes.

    ``kernel_basis`` columns are Sobolev-orthonormal and span H0;
    ``complement_basis`` completes them to a full orthonormal system.  Kernel
    coordinates z live in R^nu through the kernel basis.  ``lambda_box`` bounds
    |lam - lam_star| per parameter and ``trust_radius`` bounds |z| and the
    complement correction.  ``energy`` may be any functional handle; with no
    constraints it is the reduced functional itself.
    """

    energy: DiscretizedFunctional
    constraints: list
    u0: Field
    lam_star: np.ndarray
    kernel_basis: np.ndarray
    complement_basis: np.ndarray
    lambda_box: float
    trust_radius: float
    spectral_gap: float

    @property
    def disc(self):
        return self.energy.disc

    @property
    def nullity(self) -> int:
        return self.kernel_basis.shape[1]

    def functional_at(self, lam):
        if not self.constraints:
            return self.energy
        return CombinedFunctional(self.energy, self.constraints, lam)

    def check_lambda(self, lam) -> np.ndarray:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if lam.shape != self.lam_star.shape:
            raise ConfigurationError(f"parameter vector must have shape {self.lam_star.shape}")
        if np.any(np.abs(lam - self.lam_star) > self.lambda_box * (1 + 1e-12)):
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


def make_reduction_setup(
    problem: VariationalProblem,
    lam_star,
    kernel_dim: Optional[int] = None,
    lambda_box: Optional[float] = None,
    trust_radius: Optional[float] = None,
    base_tol: float = 1e-9,
) -> ReductionSetup:
    """Build a reduction around a common critical point of F and every G_j.

    The kernel of B = F'' - sum lam*_j G_j'' at u0 is detected spectrally
    (``kernel_dim`` forces the dimension when the default threshold is too
    conservative).  For a single parameter, the default box half-width is 0.45
    times the distance to the nearest other pencil eigenvalue and the default
    trust radius 0.3 times that distance, both capped at 1.
    """
    disc = problem.disc
    energy = problem.energy
    constraints = problem.constraints
    lam_star = np.atleast_1d(np.asarray(lam_star, dtype=float))
    if lam_star.shape != (len(constraints),):
        raise ConfigurationError(
            f"lam_star must supply one value per constraint ({len(constraints)}), got {lam_star.shape}"
        )
    u0 = problem.u0
    for name, func in [("energy", energy)] + [(f"constraint_{j}", g) for j, g in enumerate(constraints)]:
        res = gradient_norm(func, u0.coeffs)
        if res > base_tol:
            raise ConfigurationError(f"base point is not critical for {name}: residual {res:.3e}")

    family = CombinedFunctional(energy, constraints, lam_star)
    B = family.hessian_dual(u0.coeffs)
    dec = decompose(B, disc.gram, kernel_dim_hint=kernel_dim)
    if dec.nullity == 0:
        raise DegenerateKernelError("second variation at the base point has no kernel; nothing to reduce")
    Z = dec.kernel_vectors
    mask = np.abs(dec.eigenvalues) > 2 * dec.gap
    W = dec.eigenvectors[:, mask]

    separation = 1.0
    if len(constraints) == 1:
        pencil = pencil_eigs(energy.hessian_dual(u0.coeffs), constraints[0].hessian_dual(u0.coeffs), disc.gram)
        idx, _ = pencil.nearest(float(lam_star[0]))
        others = np.abs(np.delete(pencil.eigenvalues, idx) - pencil.eigenvalues[idx])
        if others.size:
            separation = float(np.min(others))
    box = lambda_box if lambda_box is not None else min(0.45 * separation, 1.0)
    rho = trust_radius if trust_radius is not None else min(0.3 * separation, 1.0)
    return ReductionSetup(
        energy=energy,
        constraints=constraints,
        u0=u0,
        lam_star=lam_star,
        kernel_basis=Z,
        complement_basis=W,
        lambda_box=float(box),
        trust_radius=float(rho),
        spectral_gap=float(dec.realized_gap),
    )


# ---------------------------------------------------------------------------
# the complement equation


@dataclass
class PsiSample:
    lam: np.ndarray
    z: np.ndarray
    y: np.ndarray
    residual: float
    iterations: int
    load: np.ndarray  # dual gradient of L_lam at the corrected point
    value: Optional[float] = None
    gradient: Optional[np.ndarray] = None

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
        rows = []
        for s in self.samples:
            rows.append(
                list(s.lam)
                + list(s.z)
                + [s.value if s.value is not None else float("nan")]
                + [float(np.linalg.norm(s.gradient)) if s.gradient is not None else float("nan")]
                + [s.residual, s.correction_norm]
            )
        return rows


def _complement_newton(setup, func, z, tol_abs, y0, max_iter, load0=None):
    """Damped Newton for the complement coordinates; the state is the full load vector.

    ``load0``, when given, is the load already assembled at ``y0``.
    """
    W = setup.complement_basis

    def evaluate(y, accepted):
        if accepted is None and load0 is not None:
            ell = load0
        else:
            ell = func.gradient_dual(setup.lift(z, y))
        return float(np.linalg.norm(W.T @ ell)), ell

    def solve(y, ell):
        J = W.T @ func.hessian_dual(setup.lift(z, y)) @ W
        # J is symmetric, so its 2-norm condition number is max|eig| / min|eig|
        mags = np.abs(np.linalg.eigvalsh(0.5 * (J + J.T)))
        cond = mags.max() / mags.min() if mags.min() > 0 else np.inf
        if not np.isfinite(cond) or cond > 1e12:
            raise DegenerateKernelError(
                f"complement block of the second variation is singular (cond {cond:.3e}); "
                "the kernel basis is wrong or the nullity changed"
            )
        return np.linalg.solve(J, -(W.T @ ell))

    y0 = np.zeros(W.shape[1]) if y0 is None else y0
    result = damped_newton(evaluate, solve, y0, tol_abs, max_iter, step_cap=setup.trust_radius)
    if not result.converged:
        raise ReductionFailureError(
            f"complement Newton stalled at residual {result.residual:.3e} (tolerance {tol_abs:.3e}); "
            "the point may lie outside the reduction neighbourhood",
            residual=result.residual,
            iterations=result.iterations,
        )
    return result


def solve_psi(
    setup: ReductionSetup,
    lam,
    z,
    tol: float = 1e-11,
    w0: Optional[np.ndarray] = None,
    max_iter: int = 50,
) -> PsiSample:
    """Solve the complement equation at (lam, z); returns the correction.

    The residual contract is |P_perp grad L_lam| < tol * (1 + |grad L_lam at
    u0 + z|) in the Sobolev norm.  ``w0`` (complement coordinates) warm-starts
    the Newton iteration; steps are capped by the trust radius.  Without it the
    iteration starts at y = 0, where the load of the scale gradient is reused.
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
    ell0 = func.gradient_dual(setup.lift(z))
    scale = 1.0 + _dual_norm(setup.disc, ell0)
    result = _complement_newton(setup, func, z, tol * scale, w0, max_iter, load0=ell0 if w0 is None else None)
    return PsiSample(
        lam=lam, z=z, y=result.coeffs, residual=result.residual, iterations=result.iterations, load=result.state
    )


def _with_reduced_data(setup, func, sample):
    sample.value = func.value(setup.lift(sample.z, sample.y))
    sample.gradient = setup.kernel_basis.T @ sample.load
    return sample


def reduced_value(setup: ReductionSetup, lam, z, tol: float = 1e-11) -> float:
    func = setup.functional_at(setup.check_lambda(lam))
    sample = _with_reduced_data(setup, func, solve_psi(setup, lam, z, tol=tol))
    return float(sample.value)


def reduced_gradient(setup: ReductionSetup, lam, z, tol: float = 1e-11) -> np.ndarray:
    """Kernel-coordinate gradient of the reduced functional.

    Equals the pairing of grad L_lam at the corrected point with the kernel
    basis; the correction map contributes nothing because its image is
    orthogonal to the kernel and the complement gradient vanishes there.
    """
    func = setup.functional_at(setup.check_lambda(lam))
    sample = _with_reduced_data(setup, func, solve_psi(setup, lam, z, tol=tol))
    return sample.gradient


def sample_reduced(
    setup: ReductionSetup,
    lam,
    z_list: Sequence,
    tol: float = 1e-11,
    result: Optional[ReductionResult] = None,
) -> ReductionResult:
    """Evaluate the reduced functional on a z-grid, warm-starting outward from 0."""
    lam = setup.check_lambda(lam)
    func = setup.functional_at(lam)
    result = result or ReductionResult(setup=setup)
    zs = [np.atleast_1d(np.asarray(z, dtype=float)) for z in z_list]
    order = np.argsort([np.linalg.norm(z) for z in zs])
    warm = {}
    for i in order:
        z = zs[i]
        key = tuple(np.round(z / max(np.linalg.norm(z), 1e-300), 6)) if np.linalg.norm(z) > 0 else None
        w0 = warm.get(key)
        sample = solve_psi(setup, lam, z, tol=tol, w0=w0)
        warm[key] = sample.y
        result.samples.append(_with_reduced_data(setup, func, sample))
    return result


@dataclass
class LipschitzAudit:
    max_ratio: float
    passed: bool
    n_pairs: int


def lipschitz_audit(
    setup: ReductionSetup,
    lam,
    n_pairs: int = 25,
    rng: Optional[np.random.Generator] = None,
    radius: Optional[float] = None,
    tol: float = 1e-11,
) -> LipschitzAudit:
    """Sampled Lipschitz ratio of the correction map; the contract is <= 3."""
    rng = rng or np.random.default_rng(0)
    radius = radius if radius is not None else setup.trust_radius
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
        s1 = solve_psi(setup, lam, z1, tol=tol)
        s2 = solve_psi(setup, lam, z2, tol=tol)
        ratio = float(np.linalg.norm(s1.y - s2.y) / np.linalg.norm(z1 - z2))
        worst = max(worst, ratio)
    return LipschitzAudit(max_ratio=worst, passed=worst <= 3.0, n_pairs=n_pairs)


def reduced_hessian_at_origin(
    setup: ReductionSetup,
    lam,
    fd_step: float = 1e-4,
    check_tol: float = 1e-4,
    fd_tol: float = 1e-13,
) -> np.ndarray:
    """Closed-form reduced second variation at z = 0.

    For a common critical point the reduced Hessian at the origin is
    -sum_j (lam_j - lam*_j) * (G_j''(u0) restricted to the kernel); the
    correction map enters only at second order in the parameter offset.  A
    finite-difference probe of the reduced gradient cross-checks the formula.
    """
    lam = setup.check_lambda(lam)
    Z = setup.kernel_basis
    nu = setup.nullity
    M = np.zeros((nu, nu))
    for dl, g in zip(lam - setup.lam_star, setup.constraints):
        if dl != 0.0:
            M -= dl * (Z.T @ g.hessian_dual(setup.u0.coeffs) @ Z)
    M = 0.5 * (M + M.T)

    def probe(h):
        fd = np.zeros((nu, nu))
        for b in range(nu):
            zp = np.zeros(nu)
            zp[b] = h
            gp = reduced_gradient(setup, lam, zp, tol=fd_tol)
            gm = reduced_gradient(setup, lam, -zp, tol=fd_tol)
            fd[:, b] = (gp - gm) / (2 * h)
        return 0.5 * (fd + fd.T)

    # two-step probe with the quadratic truncation term extrapolated away,
    # so the check stays meaningful when the formula value is zero
    fd = (4.0 * probe(fd_step) - probe(2.0 * fd_step)) / 3.0
    floor = 1e3 * fd_tol / fd_step
    scale = max(float(np.max(np.abs(M))), float(np.max(np.abs(fd))), floor)
    defect = float(np.max(np.abs(M - fd))) / scale
    if defect > check_tol:
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
    ball the Hessian correction vanishes identically.
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

    def _geometry(self, coeffs):
        d = coeffs - self.u0.coeffs
        gram = self.disc.gram
        gd = gram @ d
        zc = self.Z.T @ gd  # kernel coordinates of d
        q = float(np.linalg.norm(zc))
        n = float(np.sqrt(max(d @ gd, 0.0)))
        s = float(self.b @ zc)
        return d, zc, n, q, s

    def _factors(self, n, q):
        beta = _smoothfall(n, self.delta, self.r)
        rho = _smoothfall(q, 0.5 * self.delta, self.delta)
        return beta, rho

    def value(self, coeffs):
        _, _, n, q, s = self._geometry(coeffs)
        (beta, _, _), (rho, _, _) = self._factors(n, q)
        return self.base.value(coeffs) + beta * rho * s

    def gradient_dual(self, coeffs):
        d, zc, n, q, s = self._geometry(coeffs)
        (beta, dbeta, _), (rho, drho, _) = self._factors(n, q)
        gram = self.disc.gram
        out = self.base.gradient_dual(coeffs)
        if beta == 0.0:
            return out
        # d/du of (b, P0 d): the kernel lift of b
        out = out + beta * rho * (gram @ (self.Z @ self.b))
        if dbeta != 0.0 and n > 0:
            out = out + dbeta * rho * s / n * (gram @ d)
        if drho != 0.0 and q > 0:
            out = out + beta * drho * s / q * (gram @ (self.Z @ zc))
        return out

    def hessian_dual(self, coeffs):
        d, zc, n, q, s = self._geometry(coeffs)
        (beta, dbeta, ddbeta), (rho, drho, ddrho) = self._factors(n, q)
        gram = self.disc.gram
        out = self.base.hessian_dual(coeffs)
        if beta == 0.0 or (dbeta == 0.0 and drho == 0.0):
            # inside the plateau the tilt is linear; outside the support it is zero
            return out

        def outer(x, y):
            gx = gram @ x
            gy = gram @ y
            return np.outer(gx, gy)

        n_hat = d / n if n > 0 else np.zeros_like(d)
        q_hat = (self.Z @ zc) / q if q > 0 else np.zeros_like(d)
        b_lift = self.Z @ self.b
        P0_dual = gram @ self.Z @ self.Z.T @ gram

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
            H += beta * drho * s * (P0_dual - outer(q_hat, q_hat)) / q
        dg3 = dbeta * rho * n_hat + beta * drho * q_hat
        H += outer(b_lift, dg3)
        return out + 0.5 * (H + H.T)


@dataclass
class MarinoProdiResult:
    perturbed: PerturbedFunctional
    critical_points: list
    passed: bool
    b_coords: np.ndarray
    attempts: int
    morse_window: tuple
    tilt_bound: float
    warning: Optional[str] = None


def marino_prodi_perturb(
    func,
    u0: Field,
    r: float,
    delta_inner: float,
    b: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    n_retries: int = 5,
    kernel_gap: Optional[float] = None,
    census_seeds: Optional[list] = None,
    residual_tol: float = 1e-9,
) -> MarinoProdiResult:
    """Tilt an isolated degenerate critical point into a nondegenerate census.

    Builds the localized kernel tilt, runs a multistart Newton census inside
    the ball of radius ``r`` around u0, and verifies that every critical point
    of the perturbed functional is nondegenerate with Morse index inside
    [mu, mu + nu] for the Morse index mu and nullity nu of u0.  A degenerate
    find triggers a resample of the tilt vector (when ``b`` was not supplied),
    up to ``n_retries`` times; persistent failure is reported, not raised.
    """
    disc = func.disc
    rng = rng or np.random.default_rng(0)
    dec = decompose(func.hessian_dual(u0.coeffs), disc.gram, gap=kernel_gap)
    Z = dec.kernel_vectors
    nu = dec.nullity
    mu = dec.morse_index
    if nu == 0:
        raise ConfigurationError("the base point is already nondegenerate; no tilt is needed")

    # lower bound for the reduced gradient on the cutoff annulus, scanned coarsely
    W = dec.eigenvectors[:, np.abs(dec.eigenvalues) > 2 * dec.gap]
    probe_setup = ReductionSetup(
        energy=func,
        constraints=[],
        u0=u0,
        lam_star=np.zeros(0),
        kernel_basis=Z,
        complement_basis=W,
        lambda_box=1.0,
        trust_radius=max(delta_inner * 2, 1e-6),
        spectral_gap=float(dec.realized_gap),
    )
    grad_floor = np.inf
    for radius_frac in (0.5, 0.75, 1.0):
        for direction in _annulus_directions(nu, rng):
            z = direction * delta_inner * radius_frac
            try:
                g = reduced_gradient(probe_setup, np.zeros(0), z, tol=1e-12)
            except ReductionFailureError:
                continue
            grad_floor = min(grad_floor, float(np.linalg.norm(g)))
    tilt_bound = grad_floor / 5.0 if np.isfinite(grad_floor) else 0.0

    attempts = 0
    warning = None
    b_given = b is not None
    while True:
        attempts += 1
        if b_given:
            b_coords = np.asarray(b, dtype=float)
        else:
            direction = rng.standard_normal(nu)
            direction /= np.linalg.norm(direction)
            magnitude = 0.5 * tilt_bound if tilt_bound > 0 else 1e-6
            b_coords = magnitude * direction
        if tilt_bound > 0 and np.linalg.norm(b_coords) >= tilt_bound:
            warning = (
                f"tilt magnitude {np.linalg.norm(b_coords):.3e} is not below the "
                f"annulus bound {tilt_bound:.3e}; far critical points may appear"
            )
        perturbed = PerturbedFunctional(func, u0, Z, r=r, delta=delta_inner, b_coords=b_coords)
        seeds = census_seeds if census_seeds is not None else _default_mp_seeds(u0, Z, delta_inner, r, rng, disc)
        points = multistart_census(
            perturbed,
            seeds,
            center=u0.coeffs,
            radius=r,
            residual_tol=residual_tol,
            kernel_gap=kernel_gap,
        )
        degenerate = [cp for cp in points if cp.nullity > 0]
        in_window = all(mu <= cp.morse_index <= mu + nu for cp in points if cp.nullity == 0)
        if not degenerate and in_window and points:
            return MarinoProdiResult(
                perturbed=perturbed,
                critical_points=points,
                passed=True,
                b_coords=b_coords,
                attempts=attempts,
                morse_window=(mu, mu + nu),
                tilt_bound=tilt_bound,
                warning=warning,
            )
        if b_given or attempts > n_retries:
            return MarinoProdiResult(
                perturbed=perturbed,
                critical_points=points,
                passed=False,
                b_coords=b_coords,
                attempts=attempts,
                morse_window=(mu, mu + nu),
                tilt_bound=tilt_bound,
                warning=warning or "census kept degenerate or out-of-window critical points",
            )


def _annulus_directions(nu: int, rng) -> list:
    dirs = []
    for i in range(nu):
        e = np.zeros(nu)
        e[i] = 1.0
        dirs.extend([e, -e])
    extra = rng.standard_normal((max(2 * nu, 4), nu))
    for row in extra:
        dirs.append(row / np.linalg.norm(row))
    return dirs


def _default_mp_seeds(u0: Field, Z: np.ndarray, delta: float, r: float, rng, disc) -> list:
    seeds = [u0.coeffs.copy()]
    nu = Z.shape[1]
    for i in range(nu):
        for amp in (0.25 * delta, 0.5 * delta, delta, 0.5 * (delta + r)):
            seeds.append(u0.coeffs + amp * Z[:, i])
            seeds.append(u0.coeffs - amp * Z[:, i])
    for _ in range(4):
        d = rng.standard_normal(disc.dim)
        d /= disc.norm(d)
        seeds.append(u0.coeffs + 0.5 * r * d)
    return seeds
