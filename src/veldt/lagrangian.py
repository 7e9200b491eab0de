"""Integrands in jet variables: derivative callbacks, exponents, growth checks.

An integrand f(x, xi) depends on a spatial point x and a jet xi, the tuple of
all derivative values xi^i_alpha for component i and multi-index alpha with
|alpha| <= m.  Everything downstream (assembly, spectra, reduction) consumes
the vectorized callbacks stored on a :class:`Lagrangian`.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DependencyError, EvaluationError

__all__ = [
    "MultiIndexSet",
    "enumerate_multi_indices",
    "GrowthSpec",
    "Lagrangian",
    "GrowthReport",
    "check_growth",
    "PSReport",
    "ps_certificate",
]


# ---------------------------------------------------------------------------
# multi-indices


@dataclass(frozen=True)
class MultiIndexSet:
    """All multi-indices with |alpha| <= m in n variables, graded-lexicographic.

    A multi-index is an n-tuple of non-negative integers.  Grades ascend;
    within a grade the tuples are sorted lexicographically.
    """

    n: int
    m: int
    indices: tuple

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __getitem__(self, i) -> tuple:
        return self.indices[i]

    def position(self, alpha) -> int:
        key = tuple(alpha)
        if key not in self.indices:
            raise KeyError(f"multi-index {key} not in set (n={self.n}, m={self.m})")
        return self.indices.index(key)

    def orders(self) -> np.ndarray:
        return np.array([sum(a) for a in self.indices], dtype=int)


@functools.lru_cache(maxsize=None)
def enumerate_multi_indices(n: int, m: int) -> MultiIndexSet:
    """Enumerate all multi-indices of order <= m in n variables.

    Deterministic graded-lexicographic order, grade ascending.  The set is
    cached: each (n, m) has exactly one set object, which every integrand and
    space of that signature shares.
    """
    if n < 1 or m < 1:
        raise ConfigurationError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    indices = tuple(g for k in range(m + 1) for g in sorted(_compositions(n, k)))
    return MultiIndexSet(n=n, m=m, indices=indices)


def _compositions(n: int, k: int):
    # all n-tuples of non-negative integers summing to k
    if n == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(n - 1, k - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# growth data

PAIR_FRACTION = 0.5  # where an interaction exponent sits in its open interval


@dataclass(frozen=True)
class GrowthSpec:
    """Exponent bookkeeping and monotone envelopes for one integrand.

    The grades |gamma| split at the Sobolev cut m - n/p.  A grade below it is
    low order: ``p_gamma`` is np.inf there, and its jet entries are the
    arguments of the envelopes.  A grade above it has p_gamma =
    n p / (n - (m - |gamma|) p); a grade on it takes ``p_border`` (default
    p + 2).  ``p_pair[a, b]`` bounds f_ab: 1 - 1/p_a - 1/p_b when either grade
    is low or both are m, and ``PAIR_FRACTION`` of it, a point inside the open
    interval (0, 1 - 1/p_a - 1/p_b), otherwise.  Both tables are derived from
    (index_set, p, p_border) on construction.  ``g1`` and ``g2`` are the
    nondecreasing positive envelope functions.
    """

    index_set: MultiIndexSet
    p: float
    p_border: Optional[float] = None
    g1: Optional[Callable] = None
    g2: Optional[Callable] = None
    p_gamma: np.ndarray = field(init=False, repr=False, compare=False)
    p_pair: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        iset, p = self.index_set, float(self.p)
        if p < 2:
            raise ConfigurationError(f"p must be >= 2, got {p}")
        orders = iset.orders()
        cut = iset.m - iset.n / p
        border = np.abs(orders - cut) < 1e-12
        # the border pair (b, b) is free, so its interval (0, 1 - 2/p_border) must not be empty;
        # every grade above the cut has p_gamma >= p >= 2, which leaves the other free intervals open
        pb = p + 2.0 if self.p_border is None else self.p_border
        if border.any() and not (np.isfinite(pb) and pb > 2):
            raise ConfigurationError(
                f"p_border must lie in (2, inf) when grade {orders[border][0]} sits on the cut "
                f"m - n/p = {cut:g}, got {pb}"
            )
        with np.errstate(divide="ignore"):
            above = np.where(orders > cut, iset.n * p / (iset.n - (iset.m - orders) * p), np.inf)
        p_gamma = np.where(border, pb, above)
        low = ~np.isfinite(p_gamma)
        top = orders == iset.m
        inv = 1.0 / p_gamma
        upper = 1.0 - inv[:, None] - inv[None, :]
        free = ~(low[:, None] | low[None, :] | (top[:, None] & top[None, :]))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "p_gamma", p_gamma)
        object.__setattr__(self, "p_pair", np.where(free, PAIR_FRACTION * upper, upper))
        for g, name in ((self.g1, "g1"), (self.g2, "g2")):
            if g is None:
                continue
            if not callable(g):
                raise ConfigurationError("growth envelopes must be callables on [0, inf)")
            ts = np.linspace(0.0, 10.0, 41)
            vals = np.asarray([float(g(t)) for t in ts])
            if np.any(vals <= 0):
                raise ConfigurationError(f"envelope {name} must be strictly positive")
            if np.any(np.diff(vals) < -1e-12 * np.abs(vals[:-1])):
                raise ConfigurationError(f"envelope {name} must be nondecreasing")


# ---------------------------------------------------------------------------
# the integrand container


@dataclass(frozen=True)
class Lagrangian:
    """An integrand with analytic first and second jet derivatives.

    The callbacks are vectorized over quadrature nodes:

    * ``f(x, xi) -> (Q,)``
    * ``grad_f(x, xi) -> (Q, N, A)``
    * ``hess_f(x, xi) -> (Q, N, A, N, A)``

    where ``x`` has shape (Q,) for one spatial dimension or (Q, n) otherwise,
    and ``xi`` has shape (Q, N, A) with the multi-index axis ordered as in
    ``index_set``, the growth data's set; n and m are read from it.  No
    automatic differentiation happens here; the callbacks are trusted
    analytics and are cross-checked by finite differences in the test suite.
    """

    N: int
    f: Callable
    grad_f: Callable
    hess_f: Callable
    growth: GrowthSpec
    name: str = "custom"

    @property
    def index_set(self) -> MultiIndexSet:
        return self.growth.index_set

    @property
    def n(self) -> int:
        return self.growth.index_set.n

    @property
    def m(self) -> int:
        return self.growth.index_set.m

    def value_at(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        out = np.asarray(self.f(x, xi), dtype=float)
        _require_finite(out, x, "f")
        return out

    def gradient_at(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        out = np.asarray(self.grad_f(x, xi), dtype=float)
        _require_finite(out, x, "grad_f")
        return out

    def hessian_at(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        out = np.asarray(self.hess_f(x, xi), dtype=float)
        _require_finite(out, x, "hess_f")
        return out


def _require_finite(values: np.ndarray, x, tag: str):
    if np.isfinite(values).all():
        return
    bad = np.argwhere(~np.isfinite(values))
    first = tuple(bad[0].tolist())
    xq = np.asarray(x)
    node = xq[first[0]] if xq.ndim >= 1 and len(first) >= 1 else None
    raise EvaluationError(
        f"{tag} produced a non-finite value at node index {first[0]}, entry {first[1:]}",
        x=node,
        index=first[1:],
    )


# ---------------------------------------------------------------------------
# growth checks (sampled evidence, not certificates)


@dataclass
class GrowthReport:
    """Outcome of a sampled inspection of the growth inequalities.

    A pass is evidence collected on the supplied samples, not a proof for all
    jets.  ``hessian_ratios`` holds |f_ab| / bound per sample and index pair;
    ``ellipticity_ratios`` holds (principal form minimum) / bound per sample.
    """

    passed: bool
    hessian_ratios: np.ndarray  # (S, N*A, N*A)
    ellipticity_ratios: np.ndarray  # (S,)
    violations: list
    fitted_g1: Optional[tuple] = None  # (knots t, values)
    fitted_g2: Optional[tuple] = None

    def summary(self) -> dict:
        return {
            "passed": bool(self.passed),
            "max_hessian_ratio": float(np.max(self.hessian_ratios)),
            "min_ellipticity_ratio": float(np.min(self.ellipticity_ratios)),
            "n_violations": len(self.violations),
            "sampled_only": True,
        }


def _samples(lag: Lagrangian, x, xi, check: str) -> tuple:
    """``(x, xi)`` as float arrays, refused unless they hold S >= 1 jets in the callbacks' layout."""
    xs = np.asarray(x, dtype=float)
    xis = np.asarray(xi, dtype=float)
    S = xis.shape[0] if xis.ndim == 3 else 0
    A = len(lag.index_set)
    if S == 0 or xis.shape != (S, lag.N, A) or xs.shape != ((S,) if lag.n == 1 else (S, lag.n)):
        x_shape = "(S,)" if lag.n == 1 else f"(S, {lag.n})"
        raise ConfigurationError(
            f"{check} needs S >= 1 samples, x of shape {x_shape} and xi of shape (S, {lag.N}, {A}); "
            f"got x {xs.shape} and xi {xis.shape}"
        )
    return xs, xis


def check_growth(lag: Lagrangian, x: np.ndarray, xi: np.ndarray) -> GrowthReport:
    """Check the two growth inequalities on S sampled jets.

    ``x`` and ``xi`` are laid out as for the callbacks: ``x`` has shape (S,)
    for one spatial dimension or (S, n) otherwise, ``xi`` has shape (S, N, A).
    The Hessian bound is violated when |f_ab| exceeds
    g1(|xi_o|) * (1 + sum |xi_gamma|^{p_gamma})^{p_ab}; the ellipticity bound
    when the principal quadratic form drops below
    g2(|xi_o|) * (1 + sum_{|gamma|=m} |xi_gamma|)^{p-2}.  Here xi_o are the
    low-order entries, those with p_gamma infinite.  When an envelope is
    missing, a minimal monotone step envelope is fitted from the samples and
    reported; a fit trivially passes and is marked as such.  A Hessian that is
    not symmetric under (i, alpha) <-> (j, beta) raises EvaluationError.
    """
    spec = lag.growth
    A = len(spec.index_set)
    N = lag.N
    xs, xis = _samples(lag, x, xi, "growth check")
    S = xis.shape[0]
    hess = lag.hessian_at(xs, xis)  # (S, N, A, N, A)
    gaps = np.max(np.abs(hess - hess.transpose(0, 3, 4, 1, 2)), axis=(1, 2, 3, 4))
    bad = np.flatnonzero(gaps > 1e-12 * np.maximum(1.0, np.max(np.abs(hess), axis=(1, 2, 3, 4))))
    if bad.size:
        s = bad[0]
        raise EvaluationError(f"hess_f is not symmetric under (i,alpha) <-> (j,beta): gap {gaps[s]}", x=xs[s])

    mid_mask = np.isfinite(spec.p_gamma)
    top_mask = spec.index_set.orders() == spec.index_set.m
    # envelope argument: sum over components of the norm of the low-order entries
    t = np.sqrt(np.sum(xis[:, :, ~mid_mask] ** 2, axis=-1)).sum(axis=-1)  # (S,)
    # growth weight: 1 + sum over components and constrained gammas of |xi|^{p_gamma}
    pg = spec.p_gamma[mid_mask]
    weight = 1.0 + np.sum(np.abs(xis[:, :, mid_mask]) ** pg, axis=(1, 2))  # (S,)

    fitted_g1 = fitted_g2 = None
    if spec.g1 is not None:
        g1_vals = np.asarray([float(spec.g1(ti)) for ti in t])
    else:
        demand = np.max(
            np.abs(hess) / weight[:, None, None, None, None] ** spec.p_pair[None, None, :, None, :],
            axis=(1, 2, 3, 4),
        )
        g1_vals, fitted_g1 = _monotone_envelope(t, demand, upper=True)

    bound = g1_vals[:, None, None, None, None] * weight[:, None, None, None, None] ** spec.p_pair[None, None, :, None, :]
    hess_ratios = np.abs(hess) / bound
    hess_ratios = hess_ratios.reshape(S, N * A, N * A)

    # principal ellipticity: smallest eigenvalue of the |alpha|=|beta|=m block
    top_idx = np.where(top_mask)[0]
    blocks = hess[:, :, top_idx][:, :, :, :, top_idx]  # (S, N, A_m, N, A_m)
    dim = N * top_idx.size
    blocks = blocks.reshape(S, dim, dim)
    min_eigs = np.array([np.linalg.eigvalsh(0.5 * (b + b.T))[0] for b in blocks])
    top_sum = 1.0 + np.sum(np.abs(xis[:, :, top_mask]), axis=(1, 2))
    rhs_base = top_sum ** (spec.p - 2.0)
    if spec.g2 is not None:
        g2_vals = np.asarray([float(spec.g2(ti)) for ti in t])
    else:
        demand = min_eigs / rhs_base
        g2_vals, fitted_g2 = _monotone_envelope(t, demand, upper=False)
    ell_ratios = min_eigs / (g2_vals * rhs_base)

    violations = []
    for s in range(S):
        worst = float(np.max(hess_ratios[s]))
        if worst > 1.0 + 1e-9:
            ia, ib = np.unravel_index(np.argmax(hess_ratios[s]), hess_ratios[s].shape)
            violations.append(
                {
                    "kind": "hessian_bound",
                    "sample": s,
                    "ratio": worst,
                    "pair": (int(ia), int(ib)),
                    "x": xs[s].tolist() if xs.ndim > 1 else float(xs[s]),
                }
            )
        if ell_ratios[s] < 1.0 - 1e-9:
            violations.append(
                {
                    "kind": "ellipticity_bound",
                    "sample": s,
                    "ratio": float(ell_ratios[s]),
                    "x": xs[s].tolist() if xs.ndim > 1 else float(xs[s]),
                }
            )

    return GrowthReport(
        passed=not violations,
        hessian_ratios=hess_ratios,
        ellipticity_ratios=ell_ratios,
        violations=violations,
        fitted_g1=fitted_g1,
        fitted_g2=fitted_g2,
    )


def _monotone_envelope(t, demand, upper):
    """The minimal nondecreasing majorant (``upper``) or the maximal nondecreasing minorant of
    the scatter (t_i, demand_i), floored at 1e-12: its value at each sample and its (knots, values).

    Tied t share one knot, holding the group's max (majorant) or min (minorant) demand, so
    every sample meets its own envelope value.
    """
    knots, inverse = np.unique(t, return_inverse=True)
    vals = np.full(knots.size, -np.inf if upper else np.inf)
    (np.maximum if upper else np.minimum).at(vals, inverse, demand)
    vals = np.maximum.accumulate(vals) if upper else np.minimum.accumulate(vals[::-1])[::-1]
    vals = np.maximum(vals, 1e-12)
    return vals[inverse], (knots, vals)


# ---------------------------------------------------------------------------
# compactness certificates (pointwise scans)


@dataclass
class PSReport:
    mode: str
    passed: bool
    margin: float
    detail: dict = field(default_factory=dict)


# the parameters each certificate mode reads, each a number, with its default (None marks a required
# one), in the order its scan unpacks them
_CERTIFICATE_PARAMS = {
    "coercive": {"c0": 1.0, "c1": 0.0},
    "pairing_bound": {"kappa": None, "c0": None, "c1": None, "upsilon": 0.0, "sobolev_constant": None},
    "zero_slice_bound": {"r": 1.0, "C": 1.0, "phi": 0.0},
}


def ps_certificate(lag: Lagrangian, x: np.ndarray, xi: np.ndarray, mode: str, params: dict) -> PSReport:
    """Scan one of the compactness-condition inequalities on S sampled jets.

    ``x`` and ``xi`` are the samples of :func:`check_growth`, in the same
    layout and refused on the same shape errors.  Modes:

    * ``coercive``: F(x, xi) >= c0 * sum_{|a|=m} |xi_a|^p - c1 pointwise.
    * ``pairing_bound``: F - kappa * sum F_a xi_a >= c0 * sum_{|a|=m} |xi_a|^p
      - c1 * |xi_0|^p - upsilon, together with c0 - c1 * S > 0 for the
      discrete embedding constant S (params["sobolev_constant"]).
    * ``zero_slice_bound``: F(x, xi-hat, 0) <= phi + C * sum_{|a|<m} |xi_a|^r with
      1 <= r < 2, scanned with the top-order slice zeroed.

    A pass is evidence on the samples, not a proof.  A key the mode does not
    read is refused, and every parameter is a number; a bool is not.
    """
    if mode not in _CERTIFICATE_PARAMS:
        raise ConfigurationError(f"unknown certificate mode {mode!r}")
    params = dict(params or {})
    defaults = _CERTIFICATE_PARAMS[mode]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ConfigurationError(f"mode {mode} does not read {unknown[0]!r}; known keys: {', '.join(defaults)}")
    for key, value in params.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigurationError(f"certificate parameter {key} must be a number, got {value!r}")
    xs, xis = _samples(lag, x, xi, "certificate")
    given = {**defaults, **params}
    for key, value in given.items():
        if value is None and key == "sobolev_constant":
            raise DependencyError(
                "mode pairing_bound needs the discrete embedding constant; "
                "run estimate_sobolev_constant on a discretization first"
            )
        if value is None:
            raise ConfigurationError(f"mode {mode} requires parameter {key!r}")
    given = {key: float(value) for key, value in given.items()}
    iset = lag.index_set
    orders = iset.orders()
    top = orders == iset.m
    p = lag.growth.p

    if mode == "coercive":
        c0, c1 = given.values()
        values = lag.value_at(xs, xis)
        lower = c0 * np.sum(np.abs(xis[:, :, top]) ** p, axis=(1, 2)) - c1
        margin = float(np.min(values - lower))
        return PSReport(mode=mode, passed=margin >= -1e-12, margin=margin, detail={"c0": c0, "c1": c1})

    if mode == "pairing_bound":
        kappa, c0, c1, upsilon, S_hat = given.values()
        values = lag.value_at(xs, xis)
        grads = lag.gradient_at(xs, xis)
        pairing = np.sum(grads * xis, axis=(1, 2))
        lhs = values - kappa * pairing
        zero_order = orders == 0
        rhs = (
            c0 * np.sum(np.abs(xis[:, :, top]) ** p, axis=(1, 2))
            - c1 * np.sum(np.abs(xis[:, :, zero_order]) ** p, axis=(1, 2))
            - upsilon
        )
        pointwise_margin = float(np.min(lhs - rhs))
        gap = c0 - c1 * S_hat
        passed = pointwise_margin >= -1e-12 and gap > 0
        margin = min(pointwise_margin, gap)
        return PSReport(
            mode=mode,
            passed=passed,
            margin=float(margin),
            detail={"pointwise_margin": pointwise_margin, "embedding_gap": gap},
        )

    # zero_slice_bound
    r, C, phi = given.values()
    if not (1 <= r < 2):
        raise ConfigurationError(f"mode zero_slice_bound requires 1 <= r < 2, got r={r}")
    xi0 = xis.copy()
    xi0[:, :, top] = 0.0
    values = lag.value_at(xs, xi0)
    low = ~top
    bound = phi + C * np.sum(np.abs(xi0[:, :, low]) ** r, axis=(1, 2))
    margin = float(np.min(bound - values))
    return PSReport(mode=mode, passed=margin >= -1e-12, margin=margin, detail={"C": C, "r": r, "phi": phi})
