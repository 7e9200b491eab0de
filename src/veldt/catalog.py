"""Built-in model problems and the declarative problem-document loader.

Model integrands are polynomials in the jet variables, stored as explicit
term lists and differentiated term by term at load time.  The same engine
backs user documents, so a JSON problem gets analytic derivative callbacks
without any runtime automatic differentiation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .lagrangian import GrowthSpec, Lagrangian, enumerate_multi_indices

__all__ = [
    "PolynomialIntegrand",
    "ModelProblem",
    "model_problem",
    "load_problem",
    "shifted_power_envelope",
    "constant_envelope",
    "MODEL_NAMES",
]


def shifted_power_envelope(scale: float, power: float):
    """t -> scale * (1 + t)**power, nondecreasing and positive for scale > 0."""

    def g(t):
        return scale * (1.0 + np.asarray(t, dtype=float)) ** power

    return g


def constant_envelope(value: float):
    def g(t):
        return value * np.ones_like(np.asarray(t, dtype=float))

    return g


# ---------------------------------------------------------------------------
# polynomial integrands


def _merged_factors(factors) -> tuple:
    """Factors sorted by variable, with the powers of a repeated variable added up."""
    powers: dict = {}
    for var, power in factors:
        powers[int(var)] = powers.get(int(var), 0) + int(power)
    return tuple(sorted((var, power) for var, power in powers.items() if power != 0))


class PolynomialIntegrand:
    """Polynomial in the flattened jet variables with term-wise differentiation.

    A term is ``(coef, ((var, power), ...))`` where ``var = i * A + a`` indexes
    component i and multi-index position a.  Instances are immutable in use.
    """

    def __init__(self, n_vars: int, terms):
        self.n_vars = n_vars
        self.terms = [(float(c), _merged_factors(factors)) for c, factors in terms if c != 0.0]

    def diff(self, var: int) -> "PolynomialIntegrand":
        out = []
        for coef, factors in self.terms:
            fdict = dict(factors)
            p = fdict.get(var, 0)
            if p == 0:
                continue
            fdict[var] = p - 1
            out.append((coef * p, tuple(fdict.items())))
        return PolynomialIntegrand(self.n_vars, out)

    def __call__(self, flat_xi: np.ndarray) -> np.ndarray:
        # flat_xi: (Q, n_vars)
        acc = np.zeros(flat_xi.shape[0])
        for coef, factors in self.terms:
            term = np.full(flat_xi.shape[0], coef)
            for var, power in factors:
                term = term * flat_xi[:, var] ** power
            acc += term
        return acc

    def max_degree(self) -> int:
        return max((sum(p for _, p in factors) for _, factors in self.terms), default=0)


def _polynomial_callbacks(poly: PolynomialIntegrand, N: int, A: int):
    grads = [poly.diff(v) for v in range(N * A)]
    hesss = [[grads[v].diff(w) for w in range(N * A)] for v in range(N * A)]

    def f(x, xi):
        flat = np.asarray(xi, dtype=float).reshape(-1, N * A)
        return poly(flat)

    def grad_f(x, xi):
        flat = np.asarray(xi, dtype=float).reshape(-1, N * A)
        out = np.stack([g(flat) for g in grads], axis=-1)
        return out.reshape(flat.shape[0], N, A)

    def hess_f(x, xi):
        flat = np.asarray(xi, dtype=float).reshape(-1, N * A)
        Q = flat.shape[0]
        out = np.empty((Q, N * A, N * A))
        for v in range(N * A):
            for w in range(v, N * A):
                vals = hesss[v][w](flat)
                out[:, v, w] = vals
                out[:, w, v] = vals
        return out.reshape(Q, N, A, N, A)

    return f, grad_f, hess_f


def make_polynomial_lagrangian(
    n: int,
    m: int,
    N: int,
    terms,
    growth: Optional[GrowthSpec] = None,
    name: str = "polynomial",
    p: float = 2.0,
    g1=None,
    g2=None,
) -> Lagrangian:
    iset = enumerate_multi_indices(n, m)
    A = len(iset)
    poly = PolynomialIntegrand(N * A, terms)
    f, grad_f, hess_f = _polynomial_callbacks(poly, N, A)
    if growth is None:
        growth = GrowthSpec.canonical(n, m, p=p, g1=g1, g2=g2)
    return Lagrangian(
        n=n,
        m=m,
        N=N,
        f=f,
        grad_f=grad_f,
        hess_f=hess_f,
        growth=growth,
        name=name,
        nonlinearity_degree=max(poly.max_degree(), 1),
    )


# ---------------------------------------------------------------------------
# model problems


@dataclass(frozen=True)
class ModelProblem:
    """An energy integrand paired with the lower-order constraint integrand."""

    name: str
    lagrangian: Lagrangian
    constraint: Lagrangian


def _mass_constraint(n: int, m: int, N: int) -> Lagrangian:
    # 0.5 * sum_i (xi^i_0)^2, depending on derivatives of order < m only
    iset = enumerate_multi_indices(n, m)
    A = len(iset)
    terms = [(0.5, ((i * A + 0, 2),)) for i in range(N)]
    return make_polynomial_lagrangian(
        n, m, N, terms, name="mass", g1=constant_envelope(1.0), g2=constant_envelope(1.0)
    )


def _var(iset, component: int, alpha_entries) -> int:
    A = len(iset)
    return component * A + iset.position(alpha_entries)


MODEL_NAMES = ("P1", "P2", "P3", "P4")


def model_problem(name: str) -> ModelProblem:
    """Return a built-in model problem by name.

    P1: quadratic gradient energy (linear problem).
    P2: gradient energy plus a quartic zero-order well.
    P3: gradient energy with a state-dependent stiffness.
    P4: second-order (clamped plate/beam) quadratic energy.
    All pair with the mass constraint 0.5 * u^2.
    """
    key = name.upper()
    if key == "P1":
        iset = enumerate_multi_indices(1, 1)
        f = make_polynomial_lagrangian(
            1, 1, 1, [(0.5, ((_var(iset, 0, (1,)), 2),))],
            name="P1", g1=constant_envelope(1.0), g2=constant_envelope(1.0),
        )
        return ModelProblem("P1", f, _mass_constraint(1, 1, 1))
    if key == "P2":
        iset = enumerate_multi_indices(1, 1)
        f = make_polynomial_lagrangian(
            1, 1, 1,
            [(0.5, ((_var(iset, 0, (1,)), 2),)), (0.25, ((_var(iset, 0, (0,)), 4),))],
            name="P2", g1=shifted_power_envelope(3.0, 2.0), g2=constant_envelope(1.0),
        )
        return ModelProblem("P2", f, _mass_constraint(1, 1, 1))
    if key == "P3":
        iset = enumerate_multi_indices(1, 1)
        v0 = _var(iset, 0, (0,))
        v1 = _var(iset, 0, (1,))
        f = make_polynomial_lagrangian(
            1, 1, 1,
            [(0.5, ((v1, 2),)), (0.5, ((v0, 2), (v1, 2)))],
            name="P3", g1=shifted_power_envelope(2.0, 2.0), g2=constant_envelope(1.0),
        )
        return ModelProblem("P3", f, _mass_constraint(1, 1, 1))
    if key == "P4":
        iset = enumerate_multi_indices(1, 2)
        f = make_polynomial_lagrangian(
            1, 2, 1, [(0.5, ((_var(iset, 0, (2,)), 2),))],
            name="P4", g1=constant_envelope(1.0), g2=constant_envelope(1.0),
        )
        return ModelProblem("P4", f, _mass_constraint(1, 2, 1))
    raise ConfigurationError(f"unknown model problem {name!r}; known: {MODEL_NAMES}")


# ---------------------------------------------------------------------------
# declarative documents


def _envelope_from_doc(doc) -> Optional[object]:
    if doc is None:
        return None
    kind = doc.get("kind")
    if kind == "const":
        return constant_envelope(float(doc["value"]))
    if kind == "shifted_power":
        return shifted_power_envelope(float(doc["scale"]), float(doc["power"]))
    raise ConfigurationError(f"unknown envelope kind {kind!r}; use 'const' or 'shifted_power'")


def _terms_from_doc(doc, iset, N):
    A = len(iset)
    terms = []
    for raw in doc:
        coef = float(raw["coef"])
        factors = []
        for fac in raw.get("factors", []):
            comp = int(fac.get("component", 0))
            if not 0 <= comp < N:
                raise ConfigurationError(f"component {comp} out of range for N={N}")
            alpha = tuple(int(a) for a in fac["alpha"])
            var = comp * A + iset.position(alpha)
            factors.append((var, int(fac["power"])))
        terms.append((coef, tuple(factors)))
    return terms


def load_problem(doc) -> ModelProblem:
    """Build a ModelProblem from a declarative document (dict, JSON text, or path).

    The document either names a catalog entry, ``{"integrand": "P2"}``, or
    spells out polynomial term lists for the integrand and (optionally) the
    constraint.  Term-list documents carry ``n``, ``m``, ``N`` and an optional
    ``growth`` block with ``p``, envelope descriptors ``g1``/``g2``, and
    ``p_border``.  Missing envelopes stay unset and are fitted from samples by
    the growth checker.
    """
    if isinstance(doc, (str, Path)):
        path = Path(doc)
        if path.exists():
            doc = json.loads(path.read_text())
        else:
            try:
                doc = json.loads(str(doc))
            except json.JSONDecodeError:
                return model_problem(str(doc))
    if isinstance(doc, str):
        return model_problem(doc)
    if not isinstance(doc, dict):
        raise ConfigurationError("problem document must be a dict, JSON text, path, or model name")

    integrand = doc.get("integrand")
    if isinstance(integrand, str):
        return model_problem(integrand)

    for key in ("n", "m", "N"):
        if key not in doc:
            raise ConfigurationError(f"problem document missing required field {key!r}")
    n, m, N = int(doc["n"]), int(doc["m"]), int(doc["N"])
    if not isinstance(integrand, dict) or "terms" not in integrand:
        raise ConfigurationError("integrand must be a model name or {'terms': [...]}")
    iset = enumerate_multi_indices(n, m)

    gdoc = doc.get("growth", {}) or {}
    growth = GrowthSpec.canonical(
        n,
        m,
        p=float(gdoc.get("p", 2.0)),
        g1=_envelope_from_doc(gdoc.get("g1")),
        g2=_envelope_from_doc(gdoc.get("g2")),
        p_border=gdoc.get("p_border"),
    )
    f = make_polynomial_lagrangian(
        n, m, N, _terms_from_doc(integrand["terms"], iset, N),
        growth=growth, name=str(doc.get("name", "document")),
    )

    cdoc = doc.get("constraint")
    if cdoc is None:
        constraint = _mass_constraint(n, m, N)
    else:
        if not isinstance(cdoc, dict) or "terms" not in cdoc:
            raise ConfigurationError("constraint must be {'terms': [...]}")
        terms = _terms_from_doc(cdoc["terms"], iset, N)
        top = set()
        for a, alpha in enumerate(iset):
            if alpha.order == m:
                for i in range(N):
                    top.add(i * len(iset) + a)
        for _, factors in terms:
            if any(v in top for v, _ in factors):
                raise ConfigurationError("constraint integrand must not involve top-order derivatives")
        constraint = make_polynomial_lagrangian(
            n, m, N, terms, name=str(cdoc.get("name", "constraint")),
            g1=constant_envelope(1.0), g2=constant_envelope(1.0),
        )
    return ModelProblem(str(doc.get("name", "document")), f, constraint)
