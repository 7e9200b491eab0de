"""Galerkin spaces, quadrature, and discrete assembly of energy derivatives.

A :class:`Discretization` carries a scalar basis with derivative tables at
quadrature nodes, replicated over field components, together with the Gram
matrix of the order-m Sobolev inner product.  Assemblies return dual-space
objects (load vectors, bilinear-form matrices); Riesz representatives are
obtained through the cached Cholesky factor of the Gram matrix.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import cho_factor, cho_solve, eigh
from scipy.optimize import brentq

from .errors import CapabilityError, ConfigurationError, DiscretizationError
from .lagrangian import Lagrangian, MultiIndexSet, enumerate_multi_indices

__all__ = [
    "Discretization",
    "Field",
    "HessianSplit",
    "build_space",
    "assemble_functional",
    "assemble_gradient",
    "assemble_hessian",
    "hessian_split",
    "estimate_sobolev_constant",
    "q_compactness_audit",
    "QDecayProfile",
    "matrix_to_csv",
    "field_to_json",
    "field_from_json",
]


# ---------------------------------------------------------------------------
# clamped modes: roots of cos(mu)*cosh(mu) = 1 and stable evaluation

_BEAM_ROOT_CACHE: dict = {}


def clamped_mode_parameters(count: int) -> np.ndarray:
    """First ``count`` positive roots of cos(mu)*cosh(mu) = 1."""
    out = []
    for k in range(1, count + 1):
        if k in _BEAM_ROOT_CACHE:
            out.append(_BEAM_ROOT_CACHE[k])
            continue
        center = (k + 0.5) * np.pi
        f = lambda mu: np.cos(mu) - 1.0 / np.cosh(mu)
        root = brentq(f, center - 0.6, center + 0.6, xtol=1e-15, rtol=8.9e-16)
        _BEAM_ROOT_CACHE[k] = root
        out.append(root)
    return np.asarray(out)


def _clamped_mode_table(mu: float, s: np.ndarray, order: int) -> np.ndarray:
    """Derivatives (in s) of the clamped mode, evaluated without cancellation.

    The mode is cosh(t) - cos(t) - sigma*(sinh(t) - sin(t)) with t = mu*s.
    Hyperbolic combinations are expanded in exponentials so that the small
    coefficient (1 - sigma) multiplies the growing exponential explicitly.
    """
    t = mu * s
    sinh_mu = np.sinh(mu)
    # 1 - sigma computed from the difference form, avoiding cosh-sinh loss
    one_minus_sigma = (np.cos(mu) - np.sin(mu) - np.exp(-mu)) / (sinh_mu - np.sin(mu))
    sigma = 1.0 - one_minus_sigma
    grow = one_minus_sigma * np.exp(t)
    decay = (1.0 + sigma) * np.exp(-t)
    phase = order % 4
    if phase == 0:
        hyp = 0.5 * (grow + decay)
        trig = -np.cos(t) + sigma * np.sin(t)
    elif phase == 1:
        hyp = 0.5 * (grow - decay)
        trig = np.sin(t) + sigma * np.cos(t)
    elif phase == 2:
        hyp = 0.5 * (grow + decay)
        trig = np.cos(t) - sigma * np.sin(t)
    else:
        hyp = 0.5 * (grow - decay)
        trig = -np.sin(t) - sigma * np.cos(t)
    return (hyp + trig) * mu**order


# ---------------------------------------------------------------------------
# discretization


@dataclass(frozen=True, eq=False)
class Discretization:
    """A fixed Galerkin subspace with quadrature and derivative tables.

    ``dtab[a, q, k]`` is the alpha-th derivative of scalar basis function k at
    quadrature node q, with the multi-index axis ordered as ``index_set``.
    The same scalar basis serves every field component; Gram matrices are
    block diagonal over components.  Instances are immutable and safe to share
    across threads.
    """

    domain: tuple
    n: int
    m: int
    n_components: int
    bc: str
    K: int
    basis_kind: str
    index_set: MultiIndexSet
    nodes: np.ndarray
    weights: np.ndarray
    dtab: np.ndarray
    gram: np.ndarray
    gram_lower: np.ndarray
    gram_top: np.ndarray
    mass: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for arr in (self.nodes, self.weights, self.dtab, self.gram, self.gram_lower, self.gram_top, self.mass):
            arr.setflags(write=False)
        object.__setattr__(self, "_cho", cho_factor(self.gram))

    # -- linear algebra in the Sobolev geometry ---------------------------

    @property
    def dim(self) -> int:
        return self.n_components * self.K

    def solve_gram(self, rhs: np.ndarray) -> np.ndarray:
        try:
            return cho_solve(self._cho, rhs)
        except Exception as exc:  # pragma: no cover - SPD invariant makes this unreachable
            raise DiscretizationError(f"Gram solve failed: {exc}") from exc

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(a @ self.gram @ b)

    def norm(self, a: np.ndarray) -> float:
        return float(np.sqrt(max(a @ self.gram @ a, 0.0)))

    def norm_lower(self, a: np.ndarray) -> float:
        return float(np.sqrt(max(a @ self.gram_lower @ a, 0.0)))

    # -- evaluation --------------------------------------------------------

    def jets(self, coeffs: np.ndarray) -> np.ndarray:
        """Jet values at quadrature nodes, shape (Q, N, A)."""
        c = np.asarray(coeffs, dtype=float).reshape(self.n_components, self.K)
        A, Q, K = self.dtab.shape
        # one (A*Q) x K GEMM against the stacked tables, then (A, Q, N) -> (Q, N, A)
        return (self.dtab.reshape(A * Q, K) @ c.T).reshape(A, Q, self.n_components).transpose(1, 2, 0)

    def values(self, coeffs: np.ndarray) -> np.ndarray:
        """Point values at quadrature nodes, shape (Q, N)."""
        return self.jets(coeffs)[:, :, 0]

    def field(self, coeffs) -> "Field":
        c = np.asarray(coeffs, dtype=float)
        if c.size != self.dim:
            raise ConfigurationError(f"expected {self.dim} coefficients, got {c.size}")
        return Field(disc=self, coeffs=c.reshape(self.dim))

    def zero_field(self) -> "Field":
        return self.field(np.zeros(self.dim))

    def boundary_residual(self) -> float:
        """Largest violation of the declared boundary conditions by any basis function."""
        return float(self.meta.get("boundary_residual", 0.0))

    def fingerprint(self) -> str:
        payload = json.dumps(
            {
                "domain": np.asarray(self.domain, dtype=float).tolist(),
                "bc": self.bc,
                "K": self.K,
                "m": self.m,
                "n": self.n,
                "N": self.n_components,
                "basis": self.basis_kind,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class Field:
    """Coefficient vector in a fixed discretization (component-major layout)."""

    disc: Discretization
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.disc.dim,):
            raise ConfigurationError(f"field coefficients must have shape ({self.disc.dim},), got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ConfigurationError("field coefficients must be finite")
        object.__setattr__(self, "coeffs", c)
        c.setflags(write=False)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.disc.values(self.coeffs))))


# ---------------------------------------------------------------------------
# basis builders (1-D)


def _gauss_nodes(a: float, b: float, count: int):
    x, w = leggauss(count)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _sine_tables(a, b, K, m, nodes):
    L = b - a
    ks = np.arange(1, K + 1)
    omega = ks * np.pi / L
    phase = np.outer(nodes - a, omega)  # (Q, K)
    tabs = []
    for j in range(m + 1):
        fac = omega**j
        if j % 4 == 0:
            tabs.append(fac * np.sin(phase))
        elif j % 4 == 1:
            tabs.append(fac * np.cos(phase))
        elif j % 4 == 2:
            tabs.append(-fac * np.sin(phase))
        else:
            tabs.append(-fac * np.cos(phase))
    return np.stack(tabs, axis=0)


def _cosine_tables(a, b, K, m, nodes):
    L = b - a
    ks = np.arange(0, K)
    omega = ks * np.pi / L
    phase = np.outer(nodes - a, omega)
    tabs = []
    for j in range(m + 1):
        fac = omega**j
        if j % 4 == 0:
            tabs.append(fac * np.cos(phase))
        elif j % 4 == 1:
            tabs.append(-fac * np.sin(phase))
        elif j % 4 == 2:
            tabs.append(-fac * np.cos(phase))
        else:
            tabs.append(fac * np.sin(phase))
    return np.stack(tabs, axis=0)


def _fourier_tables(a, b, K, m, nodes):
    # constant mode, then cos/sin pairs at increasing frequency
    L = b - a
    Q = nodes.shape[0]
    tabs = np.zeros((m + 1, Q, K))
    tabs[0, :, 0] = 1.0
    for k in range(1, K):
        j = (k + 1) // 2
        omega = 2.0 * np.pi * j / L
        phase = omega * (nodes - a)
        is_cos = k % 2 == 1
        for d in range(m + 1):
            fac = omega**d
            if is_cos:
                cycle = (-np.sin(phase), -np.cos(phase), np.sin(phase), np.cos(phase))
                tabs[d, :, k] = fac * (np.cos(phase) if d % 4 == 0 else cycle[d % 4 - 1])
            else:
                cycle = (np.cos(phase), -np.sin(phase), -np.cos(phase), np.sin(phase))
                tabs[d, :, k] = fac * (np.sin(phase) if d % 4 == 0 else cycle[d % 4 - 1])
    return tabs


def _beam_tables(a, b, K, m, nodes):
    L = b - a
    mus = clamped_mode_parameters(K)
    s = (nodes - a) / L
    Q = nodes.shape[0]
    tabs = np.zeros((m + 1, Q, K))
    for k, mu in enumerate(mus):
        for d in range(m + 1):
            tabs[d, :, k] = _clamped_mode_table(mu, s, d) / L**d
    return tabs


def _max_frequency_units(basis_kind: str, K: int) -> int:
    if basis_kind == "sine":
        return K
    if basis_kind == "cosine":
        return max(K - 1, 1)
    if basis_kind == "fourier":
        return 2 * ((K + 1) // 2)
    if basis_kind == "beam":
        return K + 1
    raise ConfigurationError(basis_kind)


def _build_1d(a, b, m, bc, K, quad_order):
    if bc == "dirichlet":
        if m == 1:
            kind = "sine"
            table_fn = _sine_tables
        elif m == 2:
            kind = "beam"
            table_fn = _beam_tables
        else:
            raise CapabilityError(f"dirichlet basis implemented for m in {{1, 2}}, got m={m}")
    elif bc == "periodic":
        kind = "fourier"
        table_fn = _fourier_tables
    elif bc == "full":
        if m != 1:
            raise CapabilityError("bc='full' is implemented for m=1 only")
        kind = "cosine"
        table_fn = _cosine_tables
    else:
        raise CapabilityError(f"unknown boundary condition {bc!r}; use dirichlet, periodic, or full")

    numax = _max_frequency_units(kind, K)
    Q = int(quad_order) if quad_order else 4 * numax + 32
    nodes, weights = _gauss_nodes(a, b, Q)
    dtab = table_fn(a, b, K, m, nodes)
    residual = _boundary_residual_1d(table_fn, a, b, K, m, bc)
    return nodes, weights, dtab, kind, residual


def _boundary_residual_1d(table_fn, a, b, K, m, bc):
    ends = np.asarray([a, b])
    tabs = table_fn(a, b, K, m, ends)
    scale = max(1.0, float(np.max(np.abs(tabs))))
    if bc == "dirichlet":
        # functions and derivatives through order m-1 vanish at both ends
        return float(np.max(np.abs(tabs[:m]))) / scale
    if bc == "periodic":
        return float(np.max(np.abs(tabs[:, 0, :] - tabs[:, 1, :]))) / scale
    return 0.0


def _build_2d(domain, m, bc, K, quad_order):
    if m != 1 or bc != "dirichlet":
        raise CapabilityError("two-dimensional spaces support m=1 with dirichlet conditions only")
    (a1, b1), (a2, b2) = domain
    # tensor sine modes ordered by k1^2 + k2^2, then lexicographically
    side = int(np.ceil(np.sqrt(K))) + 2
    pairs = sorted(
        ((k1, k2) for k1 in range(1, side + 1) for k2 in range(1, side + 1)),
        key=lambda kk: (kk[0] ** 2 + kk[1] ** 2, kk),
    )[:K]
    kmax = max(max(p) for p in pairs)
    Q1 = int(quad_order) if quad_order else 4 * kmax + 16
    x1, w1 = _gauss_nodes(a1, b1, Q1)
    x2, w2 = _gauss_nodes(a2, b2, Q1)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    nodes = np.stack([X1.ravel(), X2.ravel()], axis=1)
    weights = np.outer(w1, w2).ravel()
    L1, L2 = b1 - a1, b2 - a2
    Q = nodes.shape[0]
    dtab = np.zeros((3, Q, K))  # alphas ordered (0,0), (0,1), (1,0)
    for k, (k1, k2) in enumerate(pairs):
        o1 = k1 * np.pi / L1
        o2 = k2 * np.pi / L2
        s1 = np.sin(o1 * (nodes[:, 0] - a1))
        c1 = np.cos(o1 * (nodes[:, 0] - a1))
        s2 = np.sin(o2 * (nodes[:, 1] - a2))
        c2 = np.cos(o2 * (nodes[:, 1] - a2))
        dtab[0, :, k] = s1 * s2
        dtab[1, :, k] = s1 * o2 * c2
        dtab[2, :, k] = o1 * c1 * s2
    return nodes, weights, dtab, "sine2d", 0.0, pairs


def build_space(domain, m: int, bc: str, K: int, quad_order: Optional[int] = None, n_components: int = 1) -> Discretization:
    """Construct a Galerkin space on a box domain.

    ``domain`` is (a, b) in one dimension or ((a1, b1), (a2, b2)) in two.
    Supported combinations: 1-D dirichlet with m in {1, 2} (sine and clamped
    modes), 1-D periodic (real Fourier) for any m, 1-D full-space m=1
    (cosine), and 2-D dirichlet m=1 (tensor sines).  ``bc='dirichlet_m'`` is
    accepted as an alias for ``'dirichlet'``.
    """
    bc = {"dirichlet_m": "dirichlet"}.get(bc, bc)
    if K < 4:
        raise ConfigurationError(f"need K >= 4 basis functions, got K={K}")
    if m < 1:
        raise ConfigurationError(f"need m >= 1, got m={m}")
    dom = np.asarray(domain, dtype=float)
    meta: dict = {}
    if dom.shape == (2,):
        n = 1
        a, b = float(dom[0]), float(dom[1])
        if not b > a:
            raise ConfigurationError(f"empty interval ({a}, {b})")
        nodes, weights, dtab, kind, residual = _build_1d(a, b, m, bc, K, quad_order)
        domain_t = (a, b)
    elif dom.shape == (2, 2):
        n = 2
        nodes, weights, dtab, kind, residual, pairs = _build_2d(dom.tolist(), m, bc, K, quad_order)
        domain_t = tuple((float(lo), float(hi)) for lo, hi in dom)
        meta["mode_pairs"] = pairs
    else:
        raise CapabilityError(f"domain must be an interval or a 2-D box, got shape {dom.shape}")

    iset = enumerate_multi_indices(n, m)
    if dtab.shape[0] != len(iset):
        raise DiscretizationError("derivative table does not cover the multi-index set")
    orders = iset.orders()
    scalar_blocks = np.einsum("q,aqj,aqk->jk", weights, dtab, dtab)
    lower_sel = orders <= m - 1
    scalar_lower = np.einsum("q,aqj,aqk->jk", weights, dtab[lower_sel], dtab[lower_sel])
    top_sel = orders == m
    scalar_top = np.einsum("q,aqj,aqk->jk", weights, dtab[top_sel], dtab[top_sel])
    scalar_mass = np.einsum("q,qj,qk->jk", weights, dtab[0], dtab[0])

    def blockdiag(mat):
        out = np.zeros((n_components * K, n_components * K))
        for i in range(n_components):
            out[i * K : (i + 1) * K, i * K : (i + 1) * K] = mat
        return 0.5 * (out + out.T)

    meta["boundary_residual"] = residual
    disc = Discretization(
        domain=domain_t,
        n=n,
        m=m,
        n_components=n_components,
        bc=bc,
        K=K,
        basis_kind=kind,
        index_set=iset,
        nodes=nodes,
        weights=weights,
        dtab=dtab,
        gram=blockdiag(scalar_blocks),
        gram_lower=blockdiag(scalar_lower),
        gram_top=blockdiag(scalar_top),
        mass=blockdiag(scalar_mass),
        meta=meta,
    )
    eigs = np.linalg.eigvalsh(disc.gram)
    if eigs[0] <= 0:
        raise DiscretizationError(f"Gram matrix is not positive definite (min eig {eigs[0]:.3e})")
    return disc


# ---------------------------------------------------------------------------
# assemblies


def _check_signature(lag: Lagrangian, disc: Discretization):
    if (lag.n, lag.m, lag.N) != (disc.n, disc.m, disc.n_components):
        raise ConfigurationError(
            f"integrand signature (n={lag.n}, m={lag.m}, N={lag.N}) does not match "
            f"discretization (n={disc.n}, m={disc.m}, N={disc.n_components})"
        )


def assemble_functional(lag: Lagrangian, u: Field) -> float:
    """Quadrature value of the energy integral at the field u."""
    disc = u.disc
    _check_signature(lag, disc)
    xi = disc.jets(u.coeffs)
    vals = lag.value_at(disc.nodes, xi)
    return float(disc.weights @ vals)


def assemble_gradient(lag: Lagrangian, u: Field) -> np.ndarray:
    """First variation at u: the dual load vector.

    The load pairs the jet gradient of the integrand against the basis
    derivative tables.  Its Riesz representative, when needed, is
    ``u.disc.solve_gram(load)``.
    """
    disc = u.disc
    _check_signature(lag, disc)
    grad = lag.gradient_at(disc.nodes, disc.jets(u.coeffs))  # (Q, N, A)
    A, Q, K = disc.dtab.shape
    wg = (disc.weights[:, None, None] * grad).transpose(2, 0, 1).reshape(A * Q, disc.n_components)
    return (wg.T @ disc.dtab.reshape(A * Q, K)).reshape(disc.dim)


# np.isclose(p, 2.0) without its per-call array overhead
_P2_TOL = 1e-8 + 2e-5


def _jet_hessian(lag: Lagrangian, u: Field) -> np.ndarray:
    """Jet Hessian of the integrand at the quadrature nodes, shape (Q, N, A, N, A).

    Requires p = 2: away from the quadratic case the derivative of the
    gradient map exists only directionally and no bilinear-form matrix
    represents it.
    """
    disc = u.disc
    _check_signature(lag, disc)
    _require_p2(lag)
    return lag.hessian_at(disc.nodes, disc.jets(u.coeffs))


def _require_p2(lag: Lagrangian):
    if abs(lag.growth.p - 2.0) > _P2_TOL:
        raise CapabilityError(
            f"second variation assembly needs p = 2 (directional-only differentiability at p = {lag.growth.p})"
        )


def _second_variation(disc: Discretization, hess: np.ndarray, pairs: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum over nodes of w_q D_q^T H_q D_q, unsymmetrised, shape (dim, dim).

    ``D_q`` is the (A, K) derivative table at node q and ``H_q`` the jet
    Hessian there.  ``pairs`` is an optional (A, A) 0/1 mask that keeps only
    the (alpha, beta) blocks it marks.  A batched matmul contracts beta at
    every node; one (A*Q) x K GEMM then contracts the node and alpha axes
    together.
    """
    Q, N, A = hess.shape[:3]
    K = disc.K
    wh = disc.weights[:, None, None, None, None] * hess
    if pairs is not None:
        wh = wh * pairs[None, None, :, None, :]
    # half[q, i, a, j, l] = sum_b wh[q, i, a, j, b] dtab[b, q, l]
    half = np.matmul(wh.reshape(Q, N * A * N, A), disc.dtab.transpose(1, 0, 2))
    half = half.reshape(Q, N, A, N * K).transpose(2, 0, 1, 3).reshape(A * Q, N * N * K)
    out = disc.dtab.reshape(A * Q, K).T @ half  # out[k, (i, j, l)]
    return out.reshape(K, N, N, K).transpose(1, 0, 2, 3).reshape(N * K, N * K)


def _symmetric(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def assemble_hessian(lag: Lagrangian, u: Field) -> np.ndarray:
    """Second variation at u: the symmetric dual matrix B (requires p = 2)."""
    return _symmetric(_second_variation(u.disc, _jet_hessian(lag, u)))


@dataclass(frozen=True, eq=False)
class HessianSplit:
    """Second variation at a field, with its positive/compact decomposition.

    ``B`` is the full bilinear form; ``P`` keeps the top-order block plus the
    lower-order identity; ``Q`` collects every pair touching a lower-order
    derivative minus that same identity, so B = P + Q holds by construction
    and is re-verified entrywise.  ``C0_estimate`` is the smallest
    generalized eigenvalue of (P, gram).
    """

    B: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    C0_estimate: float
    split_defect: float


def hessian_split(lag: Lagrangian, u: Field) -> HessianSplit:
    """Second variation at u with the principal-plus-compact split, for audits.

    The top-order and lower-order blocks come from the kernel of
    :func:`assemble_hessian` with complementary pair masks.  Every order is at
    most m, so the two masks cover every (alpha, beta) pair once and their sum
    is B; ``split_defect`` is the entrywise relative gap between B and P + Q.
    """
    disc = u.disc
    hess = _jet_hessian(lag, u)
    orders = disc.index_set.orders()
    top = orders == disc.m
    B_top = _second_variation(disc, hess, np.outer(top, top))
    B_low = _second_variation(disc, hess, np.add.outer(orders, orders) < 2 * disc.m)
    P = _symmetric(B_top) + disc.gram_lower
    Qm = _symmetric(B_low) - disc.gram_lower
    B = _symmetric(B_top + B_low)
    defect = float(np.max(np.abs(B - (P + Qm))) / max(np.max(np.abs(B)), 1e-300))
    c0 = float(eigh(P, disc.gram, eigvals_only=True, subset_by_index=[0, 0])[0])
    return HessianSplit(B=B, P=P, Q=Qm, C0_estimate=c0, split_defect=defect)


def estimate_sobolev_constant(disc: Discretization, p: float = 2.0) -> float:
    """Discrete embedding constant: max of int |u|^2 over int |D^m u|^2.

    Computed as the largest generalized eigenvalue of (mass, top-order form)
    on the basis span; nondecreasing in K.  Only the quadratic case has this
    Rayleigh-quotient form.
    """
    if not np.isclose(p, 2.0):
        raise CapabilityError("the discrete embedding estimate is implemented for p = 2 only")
    if disc.bc != "dirichlet":
        raise CapabilityError("the embedding estimate requires dirichlet boundary conditions")
    vals = eigh(disc.mass, disc.gram_top, eigvals_only=True)
    return float(vals[-1])


@dataclass
class QDecayProfile:
    ratios: np.ndarray
    passed: bool
    note: str = ""


def q_compactness_audit(lag: Lagrangian, u: Field, disc: Optional[Discretization] = None) -> QDecayProfile:
    """Tail decay of the compact part: r_k = |Q e_k| / |e_k| in the Sobolev norm.

    A finite-dimensional stand-in for complete continuity: Q touches only
    lower-order derivatives on one side, so its action on high-frequency basis
    vectors must fade.  Passes when the last ratio is below a tenth of the
    peak (meaningful for K >= 32; smaller spaces report data only).
    """
    disc = disc or u.disc
    Qop = disc.solve_gram(hessian_split(lag, u).Q)
    ratios = np.empty(disc.dim)
    for k in range(disc.dim):
        e = np.zeros(disc.dim)
        e[k] = 1.0
        ratios[k] = disc.norm(Qop @ e) / disc.norm(e)
    peak = float(np.max(ratios))
    if disc.K >= 32:
        passed = bool(ratios[disc.K - 1] < 0.1 * peak)
        note = ""
    else:
        passed = True
        note = "K below 32: decay reported, threshold not applied"
    return QDecayProfile(ratios=ratios, passed=passed, note=note)


# ---------------------------------------------------------------------------
# serialization helpers


def matrix_to_csv(matrix: np.ndarray, path) -> None:
    np.savetxt(path, np.asarray(matrix, dtype=float), delimiter=",", fmt="%.17g")


def field_to_json(u: Field) -> dict:
    return {"fingerprint": u.disc.fingerprint(), "coeffs": u.coeffs.tolist()}


def field_from_json(disc: Discretization, doc: dict) -> Field:
    if doc.get("fingerprint") != disc.fingerprint():
        raise DiscretizationError(
            "field document was produced on a different discretization "
            f"(fingerprint {doc.get('fingerprint')} vs {disc.fingerprint()})"
        )
    return disc.field(np.asarray(doc["coeffs"], dtype=float))
