"""Galerkin spaces, quadrature, and discrete assembly of energy derivatives.

A :class:`Discretization` carries a scalar basis with derivative tables at
quadrature nodes, replicated over field components, together with the Gram
matrix of the order-m Sobolev inner product.  Assemblies return dual-space
objects (load vectors, bilinear-form matrices); Riesz representatives are
obtained through the Cholesky factor of the Gram matrix and its inverse,
computed once per space.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

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
]


# ---------------------------------------------------------------------------
# clamped modes: roots of cos(mu)*cosh(mu) = 1 and stable evaluation


def clamped_mode_parameters(count: int) -> np.ndarray:
    """First ``count`` positive roots of cos(mu)*cosh(mu) = 1, correctly rounded.

    Newton's method on cos(mu) - 1/cosh(mu) runs on all roots at once from
    (k + 1/2) pi, which is within 0.02 of the k-th root; three steps reach the
    rounded root for every k <= 200, and further steps leave it in place.
    """
    mu = (np.arange(1, count + 1) + 0.5) * np.pi
    for _ in range(6):
        sech = 2.0 * np.exp(-mu) / (1.0 + np.exp(-2.0 * mu))  # 1/cosh(mu) without cosh(mu), which overflows past mu = 710
        mu = mu - (np.cos(mu) - sech) / (np.tanh(mu) * sech - np.sin(mu))
    return mu


def _clamped_mode_table(mu: np.ndarray, s: np.ndarray, order: int) -> np.ndarray:
    """Derivatives (in s) of the clamped modes, evaluated without cancellation.

    The mode is cosh(t) - cos(t) - sigma*(sinh(t) - sin(t)) with t = mu*s.
    Hyperbolic combinations are expanded in exponentials so that the small
    coefficient (1 - sigma) multiplies the growing exponential explicitly.
    That product is formed as ((1 - sigma) e^mu) e^(t - mu), with every
    exponent at most 0, so no mode overflows however large mu is.
    Every operation is elementwise, so ``mu`` and ``s`` broadcast.
    """
    t = mu * s
    em = np.exp(-mu)
    # (1 - sigma) e^mu from the difference form, avoiding cosh-sinh loss
    scaled = (np.cos(mu) - np.sin(mu) - em) / (0.5 * (1.0 - em * em) - em * np.sin(mu))
    sigma = 1.0 - scaled * em
    grow = scaled * np.exp(t - mu)
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
# Gram factors

# id(gram) -> (weak reference to gram, L, W) for every live read-only Gram matrix
_GRAM_FACTORS: dict = {}


def _gram_factors(gram: np.ndarray):
    """Lower Cholesky factor L of a symmetric positive definite matrix and its inverse W = L^-1.

    Then gram^-1 = W^T W, and the generalized problem A x = mu gram x is the
    symmetric problem of the congruence W A W^T, with x = W^T y.  A read-only
    matrix (every ``Discretization`` Gram is one) is factored once: its pair is
    kept, keyed by identity, for as long as the matrix lives.
    """
    gram = np.asarray(gram, dtype=float)
    entry = _GRAM_FACTORS.get(id(gram))
    if entry is not None and entry[0]() is gram:
        return entry[1], entry[2]
    try:
        L = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise DiscretizationError(f"Gram matrix is not positive definite: {exc}") from exc
    W = np.tril(np.linalg.inv(L))
    if not gram.flags.writeable:
        key = id(gram)
        _GRAM_FACTORS[key] = (weakref.ref(gram, lambda _: _GRAM_FACTORS.pop(key, None)), L, W)
    return L, W


# ---------------------------------------------------------------------------
# discretization


@dataclass(frozen=True, eq=False)
class Discretization:
    """A fixed Galerkin subspace with quadrature and derivative tables.

    ``dtab[a, q, k]`` is the alpha-th derivative of scalar basis function k at
    quadrature node q, with the multi-index axis ordered as ``index_set``;
    n and m are read from that set.  The same scalar basis serves every field
    component; Gram matrices are block diagonal over components.  Instances
    are immutable and safe to share across threads.
    """

    domain: tuple
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
        _gram_factors(self.gram)

    @property
    def n(self) -> int:
        return self.index_set.n

    @property
    def m(self) -> int:
        return self.index_set.m

    # -- linear algebra in the Sobolev geometry ---------------------------

    @property
    def dim(self) -> int:
        return self.n_components * self.K

    def solve_gram(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if not np.isfinite(rhs).all():
            raise DiscretizationError("Gram solve failed: the right-hand side is not finite")
        _, W = _gram_factors(self.gram)
        return W.T @ (W @ rhs)

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

    def field(self, coeffs) -> "Field":
        """The field with these coefficients; a Field of this space is returned as it is,
        so the jets it carries are reused."""
        if isinstance(coeffs, Field):
            if coeffs.disc is not self:
                raise ConfigurationError("the field belongs to another discretization")
            return coeffs
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
    """Coefficient vector in a fixed discretization (component-major layout).

    A field owns a read-only copy of its coefficients, so it is immutable: a
    later write to the caller's array does not reach it.  Its ``jets`` (the
    jet values at the quadrature nodes, shape (Q, N, A), read-only) are
    computed once, on construction, and every assembly at the field reads
    them.
    """

    disc: Discretization
    coeffs: np.ndarray
    jets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.shape != (self.disc.dim,):
            raise ConfigurationError(f"field coefficients must have shape ({self.disc.dim},), got {c.shape}")
        if not np.isfinite(c).all():
            raise ConfigurationError("field coefficients must be finite")
        c.setflags(write=False)
        xi = self.disc.jets(c)
        xi.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "jets", xi)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.jets[:, :, 0])))


# ---------------------------------------------------------------------------
# space builder: one Gauss rule and one set of 1-D tables per axis


def _leggauss(count: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the three-term recurrence from Tricomi's initial
    guesses, over the nodes in (0, 1) and the middle node (Hale and Townsend,
    SIAM J. Sci. Comput. 35(2), 2013).  The weights are
    2 / ((1 - x^2) P_n'(x)^2) at the polished nodes, and the rule is mirrored
    so that it is exactly symmetric.
    """
    n = count
    k = np.arange(1, n // 2 + 1)
    theta = (4 * k - 1) * np.pi / (4 * n + 2)
    x = (1 - (n - 1) / (8.0 * n**3) - (39 - 28 / np.sin(theta) ** 2) / (384.0 * n**4)) * np.cos(theta)
    x = np.append(x, [0.0] * (n % 2))  # descending, the middle node last
    ks = np.arange(2, n + 1)
    recurrence = list(zip(((2 * ks - 1) / ks).tolist(), ((ks - 1) / ks).tolist()))

    def legendre(x):
        """P_n(x) and P_n'(x), with P_k = (2k - 1)/k x P_(k-1) - (k - 1)/k P_(k-2)."""
        p0, p1 = np.ones_like(x), x
        for a, b in recurrence:
            p0, p1 = p1, a * x * p1 - b * p0
        return p1, n * (x * p1 - p0) / (x * x - 1)

    # the guesses are within 2e-3 even at n = 2, and Newton converges quadratically
    for _ in range(8):
        p, dp = legendre(x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-16:
            break
    _, dp = legendre(x)
    w = 2.0 / ((1 - x * x) * dp * dp)
    half = n // 2
    return np.concatenate([-x[:half], x[half:], x[:half][::-1]]), np.concatenate([w, w[:half][::-1]])


def _trig_tables(omega, phase, m, start):
    """Derivative tables of order 0..m of trigonometric modes, shape (m + 1, Q, K).

    Column k is sin(phase[:, k]) when ``start`` is 0 and cos(phase[:, k])
    when it is 1 (``start`` may be an array over the columns); its j-th
    derivative is omega**j times entry (start + j) % 4 of the cycle
    sin, cos, -sin, -cos.
    """
    s, c = np.sin(phase), np.cos(phase)
    cycle = np.stack((s, c, -s, -c))
    cols = np.arange(phase.shape[1])
    # row-major like the other tables, so the assembly GEMMs see one layout
    return np.ascontiguousarray([omega**j * cycle[(start + j) % 4, :, cols].T for j in range(m + 1)])


def _sine_tables(a, b, K, m, nodes):
    omega = np.arange(1, K + 1) * np.pi / (b - a)
    return _trig_tables(omega, np.outer(nodes - a, omega), m, 0)


def _cosine_tables(a, b, K, m, nodes):
    omega = np.arange(0, K) * np.pi / (b - a)
    return _trig_tables(omega, np.outer(nodes - a, omega), m, 1)


def _fourier_tables(a, b, K, m, nodes):
    # constant mode, then cos/sin pairs at increasing frequency
    ks = np.arange(1, K)
    omega = 2.0 * np.pi * ((ks + 1) // 2) / (b - a)
    tabs = np.zeros((m + 1, nodes.shape[0], K))
    tabs[0, :, 0] = 1.0
    tabs[:, :, 1:] = _trig_tables(omega, np.outer(nodes - a, omega), m, ks % 2)
    return tabs


def _beam_tables(a, b, K, m, nodes):
    L = b - a
    mus = clamped_mode_parameters(K)
    s = (nodes - a)[:, None] / L
    return np.stack([_clamped_mode_table(mus, s, d) / L**d for d in range(m + 1)])


# (bc, m) -> basis kind, table function and the frequency units of its top mode
# for K modes; m = None serves every order
_BASES = {
    ("dirichlet", 1): ("sine", _sine_tables, lambda K: K),
    ("dirichlet", 2): ("beam", _beam_tables, lambda K: K + 1),
    ("periodic", None): ("fourier", _fourier_tables, lambda K: 2 * ((K + 1) // 2)),
    ("full", 1): ("cosine", _cosine_tables, lambda K: max(K - 1, 1)),
}


def _tensor_modes(K: int, L1: float, L2: float) -> list:
    """The K lowest sine mode pairs (k1, k2) of an L1 x L2 box, by (k1/L1)^2 + (k2/L2)^2, then lexicographically.

    The k1 k2 - 1 pairs below (k1, k2) componentwise rank strictly lower, so
    every pair among the K lowest has k1 k2 <= K.  Both lengths are binary
    fractions, so (L1/L2)^2 = p/q with integers p and q, and the key
    k1^2 q + k2^2 p is the frequency times L1^2 q in exact integers: equal
    frequencies tie exactly and fall to the lexicographic order.
    """
    (a1, b1), (a2, b2) = L1.as_integer_ratio(), L2.as_integer_ratio()
    p, q = (a1 * b2) ** 2, (b1 * a2) ** 2
    return sorted(
        ((k1, k2) for k1 in range(1, K + 1) for k2 in range(1, K // k1 + 1)),
        key=lambda kk: (kk[0] ** 2 * q + kk[1] ** 2 * p, kk),
    )[:K]


def _axis(a, b, m, bc, K, quad_order):
    """One interval's Gauss rule, derivative tables of order 0..m, basis kind and boundary residual.

    The rule has Q = 4 * (frequency units of the top mode) + 32 nodes unless
    ``quad_order`` sets Q.  The residual is the largest violation of the
    boundary conditions by any table entry at the two ends, relative to the
    largest end value (at least 1).
    """
    entry = _BASES.get((bc, m)) or _BASES.get((bc, None))
    if entry is None:
        orders = [order for known, order in _BASES if known == bc]
        if orders:
            raise CapabilityError(f"bc={bc!r} has a basis for m in {orders}, got m={m}")
        raise CapabilityError(f"unknown boundary condition {bc!r}; use dirichlet, periodic, or full")
    kind, table_fn, units = entry
    Q = int(quad_order) if quad_order else 4 * units(K) + 32
    x, w = _leggauss(Q)
    nodes, weights = 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w
    ends = table_fn(a, b, K, m, np.asarray([a, b]))
    scale = max(1.0, float(np.max(np.abs(ends))))
    if bc == "dirichlet":
        # functions and derivatives through order m-1 vanish at both ends
        residual = float(np.max(np.abs(ends[:m]))) / scale
    elif bc == "periodic":
        residual = float(np.max(np.abs(ends[:, 0, :] - ends[:, 1, :]))) / scale
    else:
        residual = 0.0
    return nodes, weights, table_fn(a, b, K, m, nodes), kind, residual


def build_space(domain, m: int, bc: str, K: int, quad_order: Optional[int] = None, n_components: int = 1) -> Discretization:
    """Construct a Galerkin space on a box domain.

    ``domain`` is (a, b) in one dimension or ((a1, b1), (a2, b2)) in two.
    Supported combinations: 1-D dirichlet with m in {1, 2} (sine and clamped
    modes), 1-D periodic (real Fourier) for any m, 1-D full-space m=1
    (cosine), and 2-D dirichlet m=1 (tensor sines).
    """
    if K < 4:
        raise ConfigurationError(f"need K >= 4 basis functions, got K={K}")
    if m < 1:
        raise ConfigurationError(f"need m >= 1, got m={m}")
    dom = np.asarray(domain, dtype=float)
    if dom.shape not in ((2,), (2, 2)):
        raise CapabilityError(f"domain must be an interval or a 2-D box, got shape {dom.shape}")
    intervals = [(float(a), float(b)) for a, b in dom.reshape(-1, 2)]
    for a, b in intervals:
        if not b > a:
            raise ConfigurationError(f"empty interval ({a}, {b})")
    n = len(intervals)
    iset = enumerate_multi_indices(n, m)
    meta: dict = {}
    if n == 1:
        domain_t = intervals[0]
        nodes, weights, dtab, kind, residual = _axis(*domain_t, m, bc, K, quad_order)
    else:
        if (bc, m) != ("dirichlet", 1):
            raise CapabilityError("two-dimensional spaces support m=1 with dirichlet conditions only")
        domain_t = tuple(intervals)
        pairs = _tensor_modes(K, *(b - a for a, b in intervals))
        kmax = max(max(p) for p in pairs)
        (x1, w1, t1, kind, r1), (x2, w2, t2, _, r2) = (_axis(a, b, m, bc, kmax, quad_order) for a, b in intervals)
        X1, X2 = np.meshgrid(x1, x2, indexing="ij")
        nodes = np.stack([X1.ravel(), X2.ravel()], axis=1)
        weights = np.outer(w1, w2).ravel()
        k1, k2 = np.asarray(pairs).T - 1
        # D^(i,j)(phi_k1 psi_k2) = phi_k1^(i) psi_k2^(j) at every node pair, in the node order above
        dtab = np.stack([(t1[i][:, None, k1] * t2[j][None, :, k2]).reshape(-1, K) for i, j in iset])
        kind, residual = kind + "2d", max(r1, r2)
        meta["mode_pairs"] = pairs

    orders = iset.orders()

    def gram_block(sel):
        # the sum over the selected alphas and the nodes of w_q D[a, q, j] D[a, q, k], as one GEMM
        tabs = dtab[sel]
        scalar = tabs.reshape(-1, K).T @ (weights[:, None] * tabs).reshape(-1, K)
        scalar = 0.5 * (scalar + scalar.T)
        block = np.zeros((n_components * K, n_components * K))
        for i in range(n_components):
            block[i * K : (i + 1) * K, i * K : (i + 1) * K] = scalar
        return block

    gram_lower = gram_block(orders <= m - 1)
    gram_top = gram_block(orders == m)
    # every order is at most m, so the lower and top orders cover every alpha
    gram = gram_lower + gram_top
    mass = gram_lower if m == 1 else gram_block(orders == 0)

    meta["boundary_residual"] = residual
    return Discretization(
        domain=domain_t,
        n_components=n_components,
        bc=bc,
        K=K,
        basis_kind=kind,
        index_set=iset,
        nodes=nodes,
        weights=weights,
        dtab=dtab,
        gram=gram,
        gram_lower=gram_lower,
        gram_top=gram_top,
        mass=mass,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# assemblies


def _check_signature(lag: Lagrangian, disc: Discretization):
    # one set object per (n, m), so identity settles the common case; equality catches a hand-built set
    iset = lag.growth.index_set
    if (iset is not disc.index_set and iset != disc.index_set) or lag.N != disc.n_components:
        message = (
            f"integrand signature (n={lag.n}, m={lag.m}, N={lag.N}) does not match "
            f"discretization (n={disc.n}, m={disc.m}, N={disc.n_components})"
        )
        if (lag.n, lag.m, lag.N) == (disc.n, disc.m, disc.n_components):
            message += f": the index orders differ, {list(iset)} against {list(disc.index_set)}"
        raise ConfigurationError(message)


def assemble_functional(lag: Lagrangian, u: Field) -> float:
    """Quadrature value of the energy integral at the field u."""
    disc = u.disc
    _check_signature(lag, disc)
    vals = lag.value_at(disc.nodes, u.jets)
    return float(disc.weights @ vals)


def assemble_gradient(lag: Lagrangian, u: Field) -> np.ndarray:
    """First variation at u: the dual load vector.

    The load pairs the jet gradient of the integrand against the basis
    derivative tables.  Its Riesz representative, when needed, is
    ``u.disc.solve_gram(load)``.
    """
    disc = u.disc
    _check_signature(lag, disc)
    grad = lag.gradient_at(disc.nodes, u.jets)  # (Q, N, A)
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
    return lag.hessian_at(disc.nodes, u.jets)


def _require_p2(lag: Lagrangian):
    if abs(lag.growth.p - 2.0) > _P2_TOL:
        raise CapabilityError(
            f"second variation assembly needs p = 2 (directional-only differentiability at p = {lag.growth.p})"
        )


def _second_variation(disc: Discretization, hess: np.ndarray, pairs: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum over nodes of w_q D_q^T H_q D_q, unsymmetrised, shape (dim, dim).

    ``D_q`` is the (A, K) derivative table at node q and ``H_q`` the jet
    Hessian there.  ``pairs`` is an optional (A, A) 0/1 mask that keeps only
    the (alpha, beta) blocks it marks; only the derivatives of a marked block
    are contracted, so a mask of the top-order pairs reads the top-order rows
    of the tables and no others.  A batched matmul contracts beta at every
    node; one (A*Q) x K GEMM then contracts the node and alpha axes together.
    """
    Q, N, A = hess.shape[:3]
    K = disc.K
    dtab = disc.dtab
    if pairs is not None:
        touched = pairs.any(axis=0) | pairs.any(axis=1)
        hess = hess[:, :, touched][:, :, :, :, touched] * pairs[np.ix_(touched, touched)][None, None, :, None, :]
        dtab = dtab[touched]
        A = dtab.shape[0]
    wh = disc.weights[:, None, None, None, None] * hess
    # half[q, i, a, j, l] = sum_b wh[q, i, a, j, b] dtab[b, q, l]
    half = np.matmul(wh.reshape(Q, N * A * N, A), dtab.transpose(1, 0, 2))
    half = half.reshape(Q, N, A, N * K).transpose(2, 0, 1, 3).reshape(A * Q, N * N * K)
    out = dtab.reshape(A * Q, K).T @ half  # out[k, (i, j, l)]
    return out.reshape(K, N, N, K).transpose(1, 0, 2, 3).reshape(N * K, N * K)


def _symmetric(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def assemble_hessian(lag: Lagrangian, u: Field) -> np.ndarray:
    """Second variation at u: the symmetric dual matrix B (requires p = 2)."""
    return _symmetric(_second_variation(u.disc, _jet_hessian(lag, u)))


@dataclass(frozen=True, eq=False)
class HessianSplit:
    """The positive/compact decomposition of the second variation at a field.

    ``lagrangian`` and ``u`` are the integrand and the field the split was
    taken at, so an audit can take the split in their place.  ``P`` keeps the
    top-order block plus the lower-order identity; ``Q`` collects every pair
    touching a lower-order derivative minus that same identity, so P + Q is
    the second variation B by construction.  ``C0_estimate`` is the smallest
    generalized eigenvalue of (P, gram).
    """

    lagrangian: Lagrangian
    u: Field
    P: np.ndarray
    Q: np.ndarray
    C0_estimate: float


def hessian_split(lag: Lagrangian, u: Field) -> HessianSplit:
    """Second variation at u with the principal-plus-compact split, for audits.

    The top-order and lower-order blocks come from the kernel of
    :func:`assemble_hessian` with complementary pair masks.  Every order is at
    most m, so the two masks cover every (alpha, beta) pair once and their sum
    is B.
    """
    disc = u.disc
    hess = _jet_hessian(lag, u)
    orders = disc.index_set.orders()
    top = orders == disc.m
    P = _symmetric(_second_variation(disc, hess, np.outer(top, top))) + disc.gram_lower
    Qm = _symmetric(_second_variation(disc, hess, np.add.outer(orders, orders) < 2 * disc.m)) - disc.gram_lower
    _, W = _gram_factors(disc.gram)
    c0 = float(np.linalg.eigvalsh(W @ P @ W.T)[0])
    return HessianSplit(lagrangian=lag, u=u, P=P, Q=Qm, C0_estimate=c0)


def _split_gap(B: np.ndarray, P: np.ndarray, Q: np.ndarray) -> float:
    """Largest entry of |B - (P + Q)|, relative to the largest entry of B, P or Q.

    P and Q each carry the lower-order identity with opposite signs, so their
    sum rounds at their own scale, which can be far above that of B.
    """
    scale = max(np.max(np.abs(B)), np.max(np.abs(P)), np.max(np.abs(Q)), 1e-300)
    return float(np.max(np.abs(B - (P + Q))) / scale)


def estimate_sobolev_constant(disc: Discretization) -> float:
    """Discrete embedding constant for p = 2: max of int |u|^2 over int |D^m u|^2.

    Computed as the largest generalized eigenvalue of (mass, top-order form)
    on the basis span; nondecreasing in K.  Only the quadratic case has this
    Rayleigh-quotient form.
    """
    if disc.bc != "dirichlet":
        raise CapabilityError("the embedding estimate requires dirichlet boundary conditions")
    _, W = _gram_factors(disc.gram_top)
    return float(np.linalg.eigvalsh(W @ disc.mass @ W.T)[-1])


@dataclass
class QDecayProfile:
    ratios: np.ndarray
    passed: bool


def q_compactness_audit(split: HessianSplit) -> QDecayProfile:
    """Tail decay of the compact part: r_k = |Q e_k| / |e_k| in the Sobolev norm.

    A finite-dimensional stand-in for complete continuity: Q touches only
    lower-order derivatives on one side, so its action on high-frequency basis
    vectors must fade.  Passes when the last ratio is below a tenth of the
    peak (meaningful for K >= 32; smaller spaces report data only).
    """
    disc = split.u.disc
    Qop = disc.solve_gram(split.Q)
    # the Sobolev norms of the columns Q e_k of Qop, over those of the e_k
    column_sq = np.einsum("ik,ik->k", disc.gram @ Qop, Qop)
    ratios = np.sqrt(np.maximum(column_sq, 0.0)) / np.sqrt(np.maximum(np.diag(disc.gram), 0.0))
    # below K = 32 the decay is reported and the threshold not applied
    passed = disc.K < 32 or bool(ratios[disc.K - 1] < 0.1 * float(np.max(ratios)))
    return QDecayProfile(ratios=ratios, passed=passed)
