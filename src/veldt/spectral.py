"""Self-adjoint spectral analysis of discrete second variations.

All eigenproblems are posed in the Sobolev geometry: a dual bilinear-form
matrix B paired with the Gram matrix defines the operator gram^-1 B, and
``decompose`` solves the symmetric generalized problem B c = mu * gram * c
as the symmetric problem of the congruence W B W^T, where W is the inverse
of the Gram matrix's Cholesky factor, computed once per space.  The pencil
machinery handles F'' v = lambda G'' v and the index bookkeeping used by the
bifurcation tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    DegenerateKernelError,
    EigenvalueCollisionError,
    HypothesisViolationError,
    IndexJumpMismatchError,
)
from .galerkin import HessianSplit, _gram_factors, _split_gap, assemble_hessian, hessian_split

__all__ = [
    "SpectralDecomposition",
    "decompose",
    "SplitContinuityReport",
    "split_continuity_audit",
    "PencilSpectrum",
    "pencil_eigs",
    "morse_index_by_formula",
    "IndexJump",
    "index_jump",
]

COND_LIMIT = 1e12  # largest condition number of a block a solve accepts: the pencil's F'' and the complement block


def _congruence_eigh(A: np.ndarray, W: np.ndarray):
    """Eigenpairs of A x = mu S x for S^-1 = W^T W: eigh of the congruence W A W^T, with x = W^T y."""
    mus, Y = np.linalg.eigh(W @ A @ W.T)
    return mus, W.T @ Y


def _condition_number(S: np.ndarray, limit: float) -> float:
    """The condition number max|eig| / min|eig| of the symmetric ``S``, or a proven bound on it of at most ``limit / 2``.

    Every eigenvalue lies in a Gershgorin disc |lam - S_ii| <= r_i, with r_i
    the off-diagonal absolute row sum.  When no disc reaches zero, min|eig| >=
    min(|S_ii| - r_i) and max|eig| <= max(|S_ii| + r_i).  A ratio of those
    bounds at most ``limit / 2`` is returned: the factor 2 covers the rounding
    of an eigensolve, so comparing the result with ``limit`` accepts and
    refuses as comparing the ``eigvalsh`` ratio would.  Otherwise the
    ``eigvalsh`` ratio is returned, inf for a singular ``S``.
    """
    A = np.abs(S)
    diag = A.diagonal()
    radii = A.sum(axis=1) - diag
    lower = (diag - radii).min()
    if lower > 0:
        bound = (diag + radii).max() / lower
        if bound <= 0.5 * limit:
            return float(bound)
    mags = np.abs(np.linalg.eigvalsh(S))
    return float(mags.max() / mags.min()) if mags.min() > 0 else np.inf


def _sign_normalize(vectors: np.ndarray) -> np.ndarray:
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return vectors * np.where(pivots < 0, -1.0, 1.0)


@dataclass(eq=False)
class SpectralDecomposition:
    """Eigenpairs of (B, gram), with Morse data and the kernel basis.

    ``gap`` is half the kernel threshold actually used; eigenvalues with
    |mu| <= 2*gap were classified as kernel.  ``realized_gap`` is the smallest
    non-kernel |mu|, reported so a thin margin is visible.  Eigenvectors are
    orthonormal in the Gram inner product.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    morse_index: int
    nullity: int
    gap: float
    realized_gap: float
    kernel_vectors: np.ndarray

    @property
    def complement_vectors(self) -> np.ndarray:
        """The eigenvectors outside the kernel: a Gram-orthonormal basis of its complement."""
        return self.eigenvectors[:, np.abs(self.eigenvalues) > 2 * self.gap]


KERNEL_RTOL = 1e-8  # |mu| / spectral radius at or below which decompose counts a direction as kernel


def decompose(B: np.ndarray, gram: np.ndarray, kernel_dim_hint: Optional[int] = None) -> SpectralDecomposition:
    """Generalized symmetric eigensolve with kernel classification.

    The kernel threshold is ``KERNEL_RTOL`` times the spectral radius, or, with
    ``kernel_dim_hint``, the midpoint between the hinted smallest-|mu| cluster
    and the rest.  A hinted kernel whose cluster is not separated from the
    rest by a factor of ten is rejected: refine the discretization instead of
    guessing.
    """
    B = 0.5 * (B + B.T)
    mus, vecs = _congruence_eigh(B, _gram_factors(gram)[1])
    vecs = _sign_normalize(vecs)
    radius = float(np.max(np.abs(mus))) if mus.size else 0.0

    if kernel_dim_hint is not None and kernel_dim_hint > 0:
        if kernel_dim_hint >= mus.size:
            threshold = radius + 1.0
        else:
            by_abs = np.sort(np.abs(mus))
            inner = by_abs[kernel_dim_hint - 1]
            outer = by_abs[kernel_dim_hint]
            if outer < 10.0 * max(inner, 1e-14 * max(radius, 1.0)):
                raise DegenerateKernelError(
                    f"no spectral gap separates a {kernel_dim_hint}-dimensional kernel "
                    f"(|mu| reaches {inner:.3e} inside vs {outer:.3e} outside); refine the discretization"
                )
            threshold = 0.5 * (inner + outer)
    else:
        threshold = KERNEL_RTOL * max(radius, 1e-300)

    kernel_mask = np.abs(mus) <= threshold
    nonkernel = np.abs(mus[~kernel_mask])
    realized = float(np.min(nonkernel)) if nonkernel.size else np.inf
    return SpectralDecomposition(
        eigenvalues=mus,
        eigenvectors=vecs,
        morse_index=int(np.count_nonzero(mus < -threshold)),
        nullity=int(np.count_nonzero(kernel_mask)),
        gap=0.5 * threshold,
        realized_gap=realized,
        kernel_vectors=vecs[:, kernel_mask],
    )


# ---------------------------------------------------------------------------
# continuity and uniform-positivity audit of the split along rays


@dataclass
class SplitContinuityReport:
    p_deviations: np.ndarray
    q_deviations: np.ndarray
    c0_estimate: float
    p_slope: Optional[float]
    q_slope: Optional[float]
    split_defect: float
    passed: bool


def _operator_norm(delta_dual: np.ndarray, gram: np.ndarray) -> float:
    _, W = _gram_factors(gram)
    vals = np.linalg.eigvalsh(W @ (0.5 * (delta_dual + delta_dual.T)) @ W.T)
    return float(np.max(np.abs(vals)))


# P + Q and the assembled B sum the same pair blocks in different orders
SPLIT_DEFECT_TOL = 1e-12
SPLIT_SAMPLES = 6  # points on the ray of the split-continuity audit
SPLIT_RADIUS = 0.5  # distance from the base point of the first of those points


def _split_gap_at(split: HessianSplit) -> float:
    """The entrywise relative gap of the split's P + Q to the second variation assembled at its field."""
    return _split_gap(assemble_hessian(split.lagrangian, split.u), split.P, split.Q)


def split_continuity_audit(base: HessianSplit, rng: np.random.Generator) -> SplitContinuityReport:
    """Probe continuity of the split and uniform positivity near its base point.

    ``SPLIT_SAMPLES`` samples approach the base point u0 along a random ray at
    distances halving from ``SPLIT_RADIUS``.  Reports the operator-norm
    deviation of P and Q from their values at u0, the worst smallest
    eigenvalue of (P, gram) as the uniform positivity estimate, and log-log
    slopes of the deviation trends.  At every point, u0 included, P + Q must
    reproduce the second variation the solvers assemble, which checks that the
    split's pair masks cover every pair once.
    """
    lag, u0 = base.lagrangian, base.u
    disc = u0.disc
    direction = rng.standard_normal(disc.dim)
    direction /= disc.norm(direction)
    defect = _split_gap_at(base)
    distances = SPLIT_RADIUS * 0.5 ** np.arange(SPLIT_SAMPLES)
    p_dev = np.empty(SPLIT_SAMPLES)
    q_dev = np.empty(SPLIT_SAMPLES)
    c0 = base.C0_estimate
    for j, t in enumerate(distances):
        split = hessian_split(lag, disc.field(u0.coeffs + t * direction))
        p_dev[j] = _operator_norm(split.P - base.P, disc.gram)
        q_dev[j] = _operator_norm(split.Q - base.Q, disc.gram)
        c0 = min(c0, split.C0_estimate)
        defect = max(defect, _split_gap_at(split))

    def slope(dev):
        mask = dev > 1e-13
        if np.count_nonzero(mask) < 2:
            return None
        coeff = np.polyfit(np.log(distances[mask]), np.log(dev[mask]), 1)
        return float(coeff[0])

    def trend_ok(dev):
        return bool(dev[-1] <= max(0.25 * dev[0], 1e-12))

    passed = c0 > 0 and trend_ok(p_dev) and trend_ok(q_dev) and defect <= SPLIT_DEFECT_TOL
    return SplitContinuityReport(
        p_deviations=p_dev,
        q_deviations=q_dev,
        c0_estimate=float(c0),
        p_slope=slope(p_dev),
        q_slope=slope(q_dev),
        split_defect=defect,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# the eigenvalue pencil F'' v = lambda G'' v

GROUP_RTOL = 1e-6  # relative spacing below which eigenvalues form one group
PENCIL_KERNEL_RTOL = 1e-10  # |theta| / max|theta| below which a direction is kernel
PENCIL_RESIDUAL_TOL = 1e-6  # largest relative eigenpair residual accepted


@dataclass(eq=False)
class PencilSpectrum:
    """Grouped pencil eigenvalues with Sobolev-orthonormal eigenspaces.

    ``eigenvalues[i]`` is the representative of the i-th multiplicity group
    (ascending), ``eigenspaces[i]`` holds its basis columns, ``kernel`` a
    basis of the null space of the constraint form.  ``base_inertia`` counts
    the positive and negative eigenvalues of F'' on the whole space, and
    ``inertia`` on each eigenspace and on the kernel.  The defining matrices
    ride along so downstream index computations can re-assemble
    B_lambda = F - lambda G.
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    eigenspaces: list
    kernel: np.ndarray
    F_hess: np.ndarray
    G_hess: np.ndarray
    gram: np.ndarray
    residuals: np.ndarray
    base_inertia: tuple
    dropped_complex: int = 0

    def nearest(self, lam: float):
        idx = int(np.argmin(np.abs(self.eigenvalues - lam)))
        return idx, float(abs(self.eigenvalues[idx] - lam))

    def matches(self, lam: float) -> bool:
        if self.eigenvalues.size == 0:
            return False
        idx, dist = self.nearest(lam)
        scale = max(abs(lam), abs(self.eigenvalues[idx]), 1.0)
        return dist <= 10.0 * GROUP_RTOL * scale

    def separation(self, idx: int) -> float:
        """Distance from group ``idx`` to the nearest other group; inf when it is the only one."""
        others = np.abs(np.delete(self.eigenvalues, idx) - self.eigenvalues[idx])
        return float(np.min(others)) if others.size else np.inf

    def b_lambda(self, lam: float) -> np.ndarray:
        return self.F_hess - lam * self.G_hess

    @cached_property
    def _restricted_forms(self) -> tuple:
        """``(inertia, scale)`` of F'' on each eigenspace, in group order, then on the kernel.

        ``scale[i]`` is the largest |eigenvalue| of the form F'' restricted to
        space ``i``, and ``inertia[i]`` counts its eigenvalues above 1e-12
        times that scale and below minus it.  The spaces of one dimension
        share one stacked eigensolve.
        """
        spaces = [*self.eigenspaces, self.kernel]
        table = np.zeros((len(spaces), 2), dtype=int)
        scale = np.zeros(len(spaces))
        for size in {basis.shape[1] for basis in spaces} - {0}:
            rows = [i for i, basis in enumerate(spaces) if basis.shape[1] == size]
            bases = np.stack([spaces[i] for i in rows])
            R = bases.transpose(0, 2, 1) @ self.F_hess @ bases
            vals = np.linalg.eigvalsh(0.5 * (R + R.transpose(0, 2, 1)))
            scale[rows] = np.abs(vals).max(axis=1)
            tol = 1e-12 * np.maximum(scale[rows], 1e-300)[:, None]
            table[rows, 0] = np.count_nonzero(vals > tol, axis=1)
            table[rows, 1] = np.count_nonzero(vals < -tol, axis=1)
        return table, scale

    @property
    def inertia(self) -> np.ndarray:
        """The (positive, negative) inertia table of ``_restricted_forms``, computed once per pencil."""
        return self._restricted_forms[0]

    def summary(self) -> dict:
        return {
            "eigenvalues": self.eigenvalues.tolist(),
            "multiplicities": self.multiplicities.tolist(),
            "kernel_dim": int(self.kernel.shape[1]),
            "max_residual": float(np.max(self.residuals)) if self.residuals.size else 0.0,
            "dropped_complex": int(self.dropped_complex),
        }


def _gram_orthonormalize(vectors: np.ndarray, L: np.ndarray, W: np.ndarray, bounds: list) -> np.ndarray:
    """Columns that are Gram-orthonormal and span, group by group, the groups ``vectors[:, lo:hi]`` of ``bounds``.

    ``L`` is the lower Cholesky factor of the Gram matrix and ``W`` its inverse.
    Each group takes a QR in the image ``L.T @ vectors``, one stacked QR for
    all the groups of one size; ``W.T`` maps them all back.
    """
    image = L.T @ vectors
    q = np.empty_like(image)
    for size in {hi - lo for lo, hi in bounds} - {0}:
        # cols[g] holds the columns of the g-th group of this size
        cols = np.add.outer([lo for lo, hi in bounds if hi - lo == size], np.arange(size))
        q[:, cols] = np.linalg.qr(image[:, cols].transpose(1, 0, 2))[0].transpose(1, 0, 2)
    return _sign_normalize(W.T @ q)


def pencil_eigs(F_hess: np.ndarray, G_hess: np.ndarray, gram: np.ndarray) -> PencilSpectrum:
    """Solve the generalized pencil and cluster eigenvalues by multiplicity.

    Works with the compact operator [F'']^{-1} G'': its nonzero eigenvalues
    invert to the pencil eigenvalues and its null space is the kernel of the
    constraint form.  When F'' is definite the problem is symmetrized through
    a Cholesky congruence; otherwise the nonsymmetric F''^{-1} G'' (F'' passed
    the condition check) goes to a general eigensolve, its complex eigenvalues
    are dropped and counted, and residual checks guard the results.  An F''
    with a subnormal eigenvalue in the Gram geometry is refused.
    """
    F = 0.5 * (np.asarray(F_hess, dtype=float) + np.asarray(F_hess, dtype=float).T)
    G = 0.5 * (np.asarray(G_hess, dtype=float) + np.asarray(G_hess, dtype=float).T)
    cond = _condition_number(F, COND_LIMIT)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise HypothesisViolationError(
            f"the energy second variation is numerically singular (cond {cond:.3e}); "
            "the pencil needs an invertible base form"
        )

    L, W = _gram_factors(gram)
    f_eigs = np.linalg.eigvalsh(W @ F @ W.T)
    # a subnormal eigenvalue has lost digits, and inverting it overflows F''^{-1} G''
    smallest = float(np.min(np.abs(f_eigs)))
    if smallest < np.finfo(float).tiny:
        raise HypothesisViolationError(
            f"the energy second variation has a subnormal eigenvalue ({smallest:.3e}); "
            "the pencil needs a base form of normal floating-point size"
        )
    dropped = 0
    if f_eigs[0] > 0 or f_eigs[-1] < 0:
        sign = 1.0 if f_eigs[0] > 0 else -1.0
        # with R the Cholesky factor of sign F: eigh of R^-1 (sign G) R^-T, vectors R^-T Y
        thetas, vecs = _congruence_eigh(sign * G, _gram_factors(sign * F)[1])
    else:
        thetas_c, vecs_c = np.linalg.eig(np.linalg.solve(F, G))
        keep = np.abs(thetas_c.imag) <= 1e-8 * np.maximum(np.abs(thetas_c), 1.0)
        dropped = int(np.count_nonzero(~keep))
        thetas = thetas_c[keep].real
        vecs = vecs_c[:, keep].real
        order = np.argsort(thetas)
        thetas, vecs = thetas[order], vecs[:, order]

    theta_scale = float(np.max(np.abs(thetas))) if thetas.size else 0.0
    null_mask = np.abs(thetas) <= PENCIL_KERNEL_RTOL * max(theta_scale, 1e-300)
    lams = 1.0 / thetas[~null_mask]
    lvecs = vecs[:, ~null_mask]
    order = np.argsort(lams)
    lams, lvecs = lams[order], lvecs[:, order]

    groups = []
    start = 0
    for i in range(1, lams.size + 1):
        if i == lams.size or abs(lams[i] - lams[i - 1]) > GROUP_RTOL * max(1.0, abs(lams[i]), abs(lams[i - 1])):
            groups.append((start, i))
            start = i

    reps = [float(np.mean(lams[lo:hi])) for lo, hi in groups]
    mults = [hi - lo for lo, hi in groups]
    nk = int(np.count_nonzero(null_mask))
    bounds = [(0, nk)] + [(nk + lo, nk + hi) for lo, hi in groups]  # the kernel, then the eigenspaces
    basis = _gram_orthonormalize(np.hstack([vecs[:, null_mask], lvecs]), L, W, bounds)
    kernel, *spaces = [basis[:, lo:hi] for lo, hi in bounds]

    # relative residuals |F v - lam G v| / (|F v| + |lam| |G v|) in the dual
    # norm |r| = |W r|, for every eigenvector at once
    V = basis[:, nk:]
    col_lams = np.repeat(reps, mults)
    FV, GV = F @ V, G @ V
    blocks = W @ np.hstack([FV, GV, FV - col_lams * GV])
    f_norm, g_norm, r_norm = np.linalg.norm(blocks, axis=0).reshape(3, -1)
    residuals = r_norm / np.maximum(f_norm + np.abs(col_lams) * g_norm, 1e-300)
    if residuals.size and np.max(residuals) > PENCIL_RESIDUAL_TOL:
        lo, hi = groups[np.repeat(np.arange(len(groups)), mults)[np.argmax(residuals)]]
        merged = lams[lo:hi]
        detail = "eigenspaces are unreliable at this resolution"
        # eigenvalues apart relative to their own size that only the floor max(1, |lambda|) held in one group
        if np.any(np.diff(merged) > GROUP_RTOL * np.maximum(np.abs(merged[1:]), np.abs(merged[:-1]))):
            floor = GROUP_RTOL * max(1.0, float(np.max(np.abs(merged))))
            detail = (
                f"its group merged {hi - lo} eigenvalues in [{merged[0]:.3e}, {merged[-1]:.3e}], spaced below "
                f"the absolute grouping floor GROUP_RTOL * max(1, |lambda|) = {floor:.1e}; "
                "the energy second variation may be too small for that floor"
            )
        raise HypothesisViolationError(
            f"pencil residual {np.max(residuals):.3e} exceeds {PENCIL_RESIDUAL_TOL:.1e}; {detail}"
        )

    return PencilSpectrum(
        eigenvalues=np.asarray(reps),
        multiplicities=np.asarray(mults, dtype=int),
        eigenspaces=spaces,
        kernel=kernel,
        F_hess=F,
        G_hess=G,
        gram=np.asarray(gram, dtype=float),
        residuals=residuals,
        base_inertia=(int(np.count_nonzero(f_eigs > 0)), int(np.count_nonzero(f_eigs < 0))),
        dropped_complex=dropped,
    )


# ---------------------------------------------------------------------------
# index bookkeeping


def morse_index_by_formula(pencil: PencilSpectrum, lam: float) -> tuple:
    """``(morse_index, nullity)`` of F - lambda G at the base point, by signed crossing counts.

    F'' is block diagonal on the pencil eigenspaces and the kernel of G'', and
    on the eigenspace at lambda_n the form F - lambda G is (1 - lambda /
    lambda_n) F''.  An eigenspace is crossed when lambda / lambda_n exceeds one:
    a crossed one contributes the positive inertia of F'' on it, an uncrossed
    one its negative inertia, and the kernel of G'' the negative inertia of F''
    there.  For a definite F'' this is the familiar count of eigenvalues
    crossed (positive) or not yet crossed (negative, plus the kernel).
    An eigenspace is null, adding its multiplicity to the nullity and nothing
    to the index, when |1 - lambda / lambda_n| times the largest |F''| on it is
    at most ``KERNEL_RTOL`` times the largest such size over all the spaces:
    ``decompose``'s kernel rule, with that size for its spectral radius.
    Directions the pencil dropped as complex lie in no eigenspace, so a pencil
    with any is refused.
    """
    if pencil.dropped_complex:
        raise HypothesisViolationError(
            f"the pencil dropped {pencil.dropped_complex} complex eigenvalues; their directions "
            "lie in no eigenspace, so the crossing count cannot see them"
        )
    inertia, scale = pencil._restricted_forms
    ratio = lam / pencil.eigenvalues
    size = np.abs(1.0 - ratio) * scale[:-1]
    null = size <= KERNEL_RTOL * max(float(np.max(size, initial=scale[-1])), 1e-300)
    signed = np.where(ratio > 1.0, inertia[:-1, 0], inertia[:-1, 1])
    return int(signed[~null].sum() + inertia[-1, 1]), int(pencil.multiplicities[null].sum())


@dataclass
class IndexJump:
    lam_star: float
    eps: float
    mu_minus: int
    mu_plus: int
    nullity: int

    def summary(self) -> dict:
        return {
            "lam_star": self.lam_star,
            "eps": self.eps,
            "mu_minus": self.mu_minus,
            "mu_plus": self.mu_plus,
            "nullity": self.nullity,
        }


def index_jump(pencil: PencilSpectrum, lam_star: float, eps: float) -> IndexJump:
    """Directly measured Morse indices on both sides of a pencil eigenvalue.

    Decomposes B at lambda_star -+ eps and asserts that the jump equals the
    signed crossing count sign(lambda_star) (n+ - n-), where n+ and n- are the
    positive and negative inertia of F'' on the crossing eigenspace (its
    multiplicity, with sign, when F'' is definite).
    """
    idx, dist = pencil.nearest(lam_star)
    if not pencil.matches(lam_star):
        raise EigenvalueCollisionError(f"{lam_star} is not a pencil eigenvalue (nearest at distance {dist:.3e})")
    if eps >= 0.5 * pencil.separation(idx):
        raise EigenvalueCollisionError(f"eps {eps} reaches into the neighbouring eigenvalue group")
    lam_rep = float(pencil.eigenvalues[idx])
    dec_minus = decompose(pencil.b_lambda(lam_rep - eps), pencil.gram)
    dec_plus = decompose(pencil.b_lambda(lam_rep + eps), pencil.gram)
    nu: int = int(pencil.multiplicities[idx])
    n_pos, n_neg = pencil.inertia[idx].tolist()
    direct = dec_plus.morse_index - dec_minus.morse_index
    expected = (1 if lam_rep > 0 else -1) * (n_pos - n_neg)
    if direct != expected:
        raise IndexJumpMismatchError(
            f"direct index jump {direct} disagrees with the crossing count {expected} at {lam_rep}",
            direct=direct,
            formula=expected,
        )
    return IndexJump(
        lam_star=lam_rep,
        eps=eps,
        mu_minus=dec_minus.morse_index,
        mu_plus=dec_plus.morse_index,
        nullity=nu,
    )
