"""Self-adjoint spectral analysis of discrete second variations.

All eigenproblems are posed in the Sobolev geometry: a dual bilinear-form
matrix B paired with the Gram matrix defines the operator gram^-1 B, and
``decompose`` solves the symmetric generalized problem B c = mu * gram * c.
The pencil machinery handles F'' v = lambda G'' v and the index bookkeeping
used by the bifurcation tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateKernelError,
    EigenvalueCollisionError,
    HypothesisViolationError,
    IndexJumpMismatchError,
)
from .galerkin import Discretization, Field, assemble_hessian, hessian_split

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


def _sign_normalize(vectors: np.ndarray) -> np.ndarray:
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        pivot = np.argmax(np.abs(col))
        if col[pivot] < 0:
            out[:, j] = -col
    return out


@dataclass(eq=False)
class SpectralDecomposition:
    """Eigenpairs of (B, gram), with Morse data and spectral projectors.

    ``gap`` is half the kernel threshold actually used; eigenvalues with
    |mu| <= 2*gap were classified as kernel.  ``realized_gap`` is the smallest
    non-kernel |mu|, reported so a thin margin is visible.  Projectors act on
    coefficient vectors and are orthogonal in the Gram inner product.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    morse_index: int
    nullity: int
    gap: float
    realized_gap: float
    projector_positive: np.ndarray
    projector_zero: np.ndarray
    projector_negative: np.ndarray
    kernel_vectors: np.ndarray

    def summary(self) -> dict:
        return {
            "morse_index": int(self.morse_index),
            "nullity": int(self.nullity),
            "gap": float(self.gap),
            "realized_gap": float(self.realized_gap) if np.isfinite(self.realized_gap) else None,
            "eigenvalues": self.eigenvalues.tolist(),
        }


def decompose(
    B: np.ndarray,
    gram: np.ndarray,
    kernel_dim_hint: Optional[int] = None,
    gap: Optional[float] = None,
) -> SpectralDecomposition:
    """Generalized symmetric eigensolve with kernel classification.

    The kernel threshold is ``gap`` when given; otherwise 1e-8 times the
    spectral radius, or, with ``kernel_dim_hint``, the midpoint between the
    hinted smallest-|mu| cluster and the rest.  A hinted kernel whose cluster
    is not separated from the rest by a factor of ten is rejected: refine the
    discretization instead of guessing.
    """
    B = 0.5 * (B + B.T)
    mus, vecs = scipy.linalg.eigh(B, gram)
    vecs = _sign_normalize(vecs)
    radius = float(np.max(np.abs(mus))) if mus.size else 0.0

    if gap is not None:
        threshold = float(gap)
    elif kernel_dim_hint is not None and kernel_dim_hint > 0:
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
        threshold = 1e-8 * max(radius, 1e-300)

    kernel_mask = np.abs(mus) <= threshold
    neg_mask = mus < -threshold
    pos_mask = ~kernel_mask & ~neg_mask
    nonkernel = np.abs(mus[~kernel_mask])
    realized = float(np.min(nonkernel)) if nonkernel.size else np.inf

    def projector(mask):
        V = vecs[:, mask]
        return V @ V.T @ gram

    return SpectralDecomposition(
        eigenvalues=mus,
        eigenvectors=vecs,
        morse_index=int(np.count_nonzero(neg_mask)),
        nullity=int(np.count_nonzero(kernel_mask)),
        gap=0.5 * threshold,
        realized_gap=realized,
        projector_positive=projector(pos_mask),
        projector_zero=projector(kernel_mask),
        projector_negative=projector(neg_mask),
        kernel_vectors=vecs[:, kernel_mask],
    )


# ---------------------------------------------------------------------------
# continuity and uniform-positivity audit of the split along rays


@dataclass
class SplitContinuityReport:
    sample_distances: np.ndarray
    p_deviations: np.ndarray
    q_deviations: np.ndarray
    c0_estimate: float
    p_slope: Optional[float]
    q_slope: Optional[float]
    split_defect: float
    passed: bool


def _operator_norm(delta_dual: np.ndarray, gram: np.ndarray) -> float:
    vals = scipy.linalg.eigh(0.5 * (delta_dual + delta_dual.T), gram, eigvals_only=True)
    return float(np.max(np.abs(vals)))


# P + Q and the assembled B sum the same pair blocks in different orders
SPLIT_DEFECT_TOL = 1e-12


def _split_at(lag, u: Field):
    """The split at u and the entrywise relative gap of P + Q to the assembled B."""
    split = hessian_split(lag, u)
    B = assemble_hessian(lag, u)
    return split, float(np.max(np.abs(B - (split.P + split.Q))) / max(np.max(np.abs(B)), 1e-300))


def split_continuity_audit(
    lag,
    u0: Field,
    disc: Discretization,
    radius: float = 0.5,
    n_samples: int = 6,
    rng: Optional[np.random.Generator] = None,
) -> SplitContinuityReport:
    """Probe continuity of the split and uniform positivity near a base point.

    Samples approach u0 along a random ray at geometrically shrinking
    distances.  Reports the operator-norm deviation of P and Q from their
    values at u0, the worst smallest eigenvalue of (P, gram) as the uniform
    positivity estimate, and log-log slopes of the deviation trends.  At
    every point P + Q must reproduce the second variation the solvers
    assemble, which checks that the split's pair masks cover every pair once.
    """
    rng = rng or np.random.default_rng(0)
    direction = rng.standard_normal(disc.dim)
    direction /= disc.norm(direction)
    base, defect = _split_at(lag, u0)
    distances = radius * 0.5 ** np.arange(n_samples)
    p_dev = np.empty(n_samples)
    q_dev = np.empty(n_samples)
    c0 = base.C0_estimate
    for j, t in enumerate(distances):
        split, gap = _split_at(lag, disc.field(u0.coeffs + t * direction))
        p_dev[j] = _operator_norm(split.P - base.P, disc.gram)
        q_dev[j] = _operator_norm(split.Q - base.Q, disc.gram)
        c0 = min(c0, split.C0_estimate)
        defect = max(defect, gap)

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
        sample_distances=distances,
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


@dataclass(eq=False)
class PencilSpectrum:
    """Grouped pencil eigenvalues with Sobolev-orthonormal eigenspaces.

    ``eigenvalues[i]`` is the representative of the i-th multiplicity group
    (ascending), ``eigenspaces[i]`` holds its basis columns, ``kernel`` a
    basis of the null space of the constraint form.  The defining matrices
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
    group_rtol: float
    residuals: np.ndarray
    dropped_complex: int = 0

    def nearest(self, lam: float):
        idx = int(np.argmin(np.abs(self.eigenvalues - lam)))
        return idx, float(abs(self.eigenvalues[idx] - lam))

    def matches(self, lam: float) -> bool:
        if self.eigenvalues.size == 0:
            return False
        idx, dist = self.nearest(lam)
        scale = max(abs(lam), abs(self.eigenvalues[idx]), 1.0)
        return dist <= 10.0 * self.group_rtol * scale

    def b_lambda(self, lam: float) -> np.ndarray:
        return self.F_hess - lam * self.G_hess

    def summary(self) -> dict:
        return {
            "eigenvalues": self.eigenvalues.tolist(),
            "multiplicities": self.multiplicities.tolist(),
            "kernel_dim": int(self.kernel.shape[1]),
            "max_residual": float(np.max(self.residuals)) if self.residuals.size else 0.0,
            "dropped_complex": int(self.dropped_complex),
        }


def _gram_orthonormalize(vectors: np.ndarray, gram: np.ndarray) -> np.ndarray:
    if vectors.size == 0:
        return vectors.reshape(gram.shape[0], 0)
    R = np.linalg.cholesky(gram)
    q, _ = np.linalg.qr(R.T @ vectors)
    return _sign_normalize(np.linalg.solve(R.T, q))


def pencil_eigs(
    F_hess: np.ndarray,
    G_hess: np.ndarray,
    gram: np.ndarray,
    cond_limit: float = 1e12,
    group_rtol: float = 1e-6,
    kernel_rtol: float = 1e-10,
    residual_tol: float = 1e-6,
) -> PencilSpectrum:
    """Solve the generalized pencil and cluster eigenvalues by multiplicity.

    Works with the compact operator [F'']^{-1} G'': its nonzero eigenvalues
    invert to the pencil eigenvalues and its null space is the kernel of the
    constraint form.  When F'' is definite the problem is symmetrized through
    a Cholesky congruence; otherwise a general eigensolve is used and residual
    checks guard the results.
    """
    F = 0.5 * (np.asarray(F_hess, dtype=float) + np.asarray(F_hess, dtype=float).T)
    G = 0.5 * (np.asarray(G_hess, dtype=float) + np.asarray(G_hess, dtype=float).T)
    cond = np.linalg.cond(F)
    if not np.isfinite(cond) or cond > cond_limit:
        raise HypothesisViolationError(
            f"the energy second variation is numerically singular (cond {cond:.3e}); "
            "the pencil needs an invertible base form"
        )

    f_eigs = scipy.linalg.eigh(F, gram, eigvals_only=True)
    dropped = 0
    if f_eigs[0] > 0 or f_eigs[-1] < 0:
        sign = 1.0 if f_eigs[0] > 0 else -1.0
        R = np.linalg.cholesky(sign * F)
        M = np.linalg.solve(R, np.linalg.solve(R, (sign * G).T).T)
        thetas, Y = np.linalg.eigh(0.5 * (M + M.T))
        vecs = np.linalg.solve(R.T, Y)
    else:
        thetas_c, vecs_c = scipy.linalg.eig(G, F)
        keep = np.abs(thetas_c.imag) <= 1e-8 * np.maximum(np.abs(thetas_c), 1.0)
        dropped = int(np.count_nonzero(~keep))
        thetas = thetas_c[keep].real
        vecs = vecs_c[:, keep].real
        order = np.argsort(thetas)
        thetas, vecs = thetas[order], vecs[:, order]

    theta_scale = float(np.max(np.abs(thetas))) if thetas.size else 0.0
    null_mask = np.abs(thetas) <= kernel_rtol * max(theta_scale, 1e-300)
    kernel = _gram_orthonormalize(vecs[:, null_mask], gram)

    lams = 1.0 / thetas[~null_mask]
    lvecs = vecs[:, ~null_mask]
    order = np.argsort(lams)
    lams, lvecs = lams[order], lvecs[:, order]

    groups = []
    start = 0
    for i in range(1, lams.size + 1):
        if i == lams.size or abs(lams[i] - lams[i - 1]) > group_rtol * max(1.0, abs(lams[i]), abs(lams[i - 1])):
            groups.append((start, i))
            start = i

    reps, mults, spaces, residuals = [], [], [], []
    for lo, hi in groups:
        rep = float(np.mean(lams[lo:hi]))
        basis = _gram_orthonormalize(lvecs[:, lo:hi], gram)
        reps.append(rep)
        mults.append(hi - lo)
        spaces.append(basis)
        for j in range(basis.shape[1]):
            v = basis[:, j]
            r = F @ v - rep * (G @ v)
            r_norm = float(np.sqrt(max(r @ np.linalg.solve(gram, r), 0.0)))
            scale = float(
                np.sqrt(max((F @ v) @ np.linalg.solve(gram, F @ v), 0.0))
                + abs(rep) * np.sqrt(max((G @ v) @ np.linalg.solve(gram, G @ v), 0.0))
            )
            residuals.append(r_norm / max(scale, 1e-300))

    residuals = np.asarray(residuals)
    if residuals.size and np.max(residuals) > residual_tol:
        raise HypothesisViolationError(
            f"pencil residual {np.max(residuals):.3e} exceeds {residual_tol:.1e}; "
            "eigenspaces are unreliable at this resolution"
        )

    return PencilSpectrum(
        eigenvalues=np.asarray(reps),
        multiplicities=np.asarray(mults, dtype=int),
        eigenspaces=spaces,
        kernel=kernel,
        F_hess=F,
        G_hess=G,
        gram=np.asarray(gram, dtype=float),
        group_rtol=group_rtol,
        residuals=residuals,
        dropped_complex=dropped,
    )


# ---------------------------------------------------------------------------
# index bookkeeping


def _restricted_inertia(pencil: PencilSpectrum, basis: np.ndarray):
    if basis.shape[1] == 0:
        return 0, 0
    R = basis.T @ pencil.F_hess @ basis
    vals = np.linalg.eigvalsh(0.5 * (R + R.T))
    tol = 1e-12 * max(np.max(np.abs(vals)), 1e-300)
    return int(np.count_nonzero(vals > tol)), int(np.count_nonzero(vals < -tol))


def morse_index_by_formula(
    pencil: PencilSpectrum,
    lam: float,
    mode: str = "positive_definite",
    inertia: Optional[Sequence] = None,
) -> int:
    """Morse index of F - lambda G at the base point, by crossing counts.

    An eigenspace at lambda_n turns negative exactly when lambda / lambda_n
    exceeds one; for a spectrum on the positive axis this is the familiar
    count of eigenvalues below lambda.  ``invariant_subspaces`` mode weights
    each crossing by the inertia of the base form on that eigenspace, plus its
    negative part on the constraint kernel.
    """
    for lam_n in pencil.eigenvalues:
        if abs(lam - lam_n) <= 10.0 * pencil.group_rtol * max(abs(lam), abs(lam_n), 1.0):
            raise EigenvalueCollisionError(
                f"query value {lam} collides with pencil eigenvalue {lam_n}; offset it"
            )
    crossed = lam / pencil.eigenvalues > 1.0
    if mode == "positive_definite":
        return int(np.sum(pencil.multiplicities[crossed]))
    if mode == "negative_definite":
        return int(np.sum(pencil.multiplicities[~crossed])) + int(pencil.kernel.shape[1])
    if mode == "invariant_subspaces":
        if inertia is None:
            inertia = [_restricted_inertia(pencil, basis) for basis in pencil.eigenspaces]
        total = 0
        for cross, (n_pos, n_neg) in zip(crossed, inertia):
            total += n_neg if not cross else n_pos
        _, k_neg = _restricted_inertia(pencil, pencil.kernel)
        return total + k_neg
    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class IndexJump:
    lam_star: float
    eps: float
    mu_minus: int
    mu_plus: int
    nullity: int
    nullity_positive: int
    nullity_negative: int
    mode: str

    def summary(self) -> dict:
        return {
            "lam_star": self.lam_star,
            "eps": self.eps,
            "mu_minus": self.mu_minus,
            "mu_plus": self.mu_plus,
            "nullity": self.nullity,
            "mode": self.mode,
        }


def index_jump(pencil: PencilSpectrum, lam_star: float, eps: float, mode: str = "positive_definite") -> IndexJump:
    """Directly measured Morse indices on both sides of a pencil eigenvalue.

    Decomposes B at lambda_star -+ eps and asserts that the jump equals the
    crossing multiplicity (or, in ``invariant_subspaces`` mode, the signed
    inertia difference of the base form on the crossing eigenspace).
    """
    idx, dist = pencil.nearest(lam_star)
    scale = max(abs(lam_star), 1.0)
    if dist > 10.0 * pencil.group_rtol * scale:
        raise EigenvalueCollisionError(f"{lam_star} is not a pencil eigenvalue (nearest at distance {dist:.3e})")
    others = np.abs(np.delete(pencil.eigenvalues, idx) - pencil.eigenvalues[idx])
    if others.size and eps >= 0.5 * np.min(others):
        raise EigenvalueCollisionError(f"eps {eps} reaches into the neighbouring eigenvalue group")
    lam_rep = float(pencil.eigenvalues[idx])
    dec_minus = decompose(pencil.b_lambda(lam_rep - eps), pencil.gram)
    dec_plus = decompose(pencil.b_lambda(lam_rep + eps), pencil.gram)
    nu: int = int(pencil.multiplicities[idx])
    n_pos, n_neg = _restricted_inertia(pencil, pencil.eigenspaces[idx])
    direct = dec_plus.morse_index - dec_minus.morse_index
    sign = 1 if lam_rep > 0 else -1
    expected = sign * nu if mode != "invariant_subspaces" else sign * (n_pos - n_neg)
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
        nullity_positive=n_pos,
        nullity_negative=n_neg,
        mode=mode,
    )
