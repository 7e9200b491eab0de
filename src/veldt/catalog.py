"""Built-in model problems and the declarative problem-document loader.

Model integrands are polynomials in the jet variables, given as term lists
and compiled at load time into an exponent matrix (monomials x jet variables)
with coefficient columns for f, its gradient and its Hessian; a callback is
one power table, one gather-product and one matmul.  The same engine backs
user documents, so a JSON problem gets exact derivative callbacks without any
runtime automatic differentiation, and F - lambda G merges its polynomial
terms into one compiled monomial set.
"""

from __future__ import annotations

import functools
import json
import numbers
import os
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


@functools.lru_cache(maxsize=64)
def _monomial_tables(N: int, A: int, structure: tuple) -> tuple:
    """Compile terms with the merged factor tuples ``structure``, coefficients aside.

    Per derivative order (value, gradient, upper Hessian triangle): the
    exponent matrix E (S monomials, N*A), its largest entry, and the integer
    factors (S, outputs, terms) that carry term coefficients to coefficient
    columns; differentiating in v multiplies by the power of v and lowers it.
    Also the (v, w) -> upper-triangle column index.  Cached, so polynomials
    with the same factors (F - lambda G along a sweep) share their tables.
    """
    V = N * A
    upper = [(v, w) for v in range(V) for w in range(v, V)]
    orders = ([()], [(v,) for v in range(V)], upper)
    blocks = []
    for outputs in orders:
        rows, entries = {}, []
        for t, factors in enumerate(structure):
            for col, drop in enumerate(outputs):
                exps, factor = [0] * V, 1
                for var, power in factors:
                    exps[var] = power
                for v in drop:
                    factor *= exps[v]
                    exps[v] -= 1
                if factor:
                    entries.append((rows.setdefault(tuple(exps), len(rows)), col, t, factor))
        table = np.zeros((len(rows), len(outputs), len(structure)))
        for row, col, t, factor in entries:
            table[row, col, t] = factor
        E = np.array(list(rows), dtype=np.intp).reshape(len(rows), V)
        blocks.append((E, int(E.max(initial=0)), table))
    mirror = np.zeros((V, V), dtype=np.intp)
    mirror[np.triu_indices(V)] = np.arange(len(upper))  # triu_indices lists ``upper`` in order
    return tuple(blocks), np.maximum(mirror, mirror.T).ravel()


class PolynomialIntegrand:
    """Polynomial in the flattened jet variables, compiled once into monomial tables.

    A term is ``(coef, ((var, power), ...))`` where ``var = i * A + a`` indexes
    component i and multi-index position a.  ``f``, ``grad_f`` and ``hess_f``
    are the :class:`Lagrangian` callbacks: one power table x_v^k, one
    gather-product into the (S, Q) monomial table and one matmul each.  The
    Hessian mirrors its upper triangle, so it is exactly symmetric.  Instances
    are immutable in use; the one thing they keep is the power table of the
    last read-only jet array, replaced as a whole, so sharing one is safe.
    """

    def __init__(self, N: int, A: int, terms):
        self.N, self.A = N, A
        self.terms = [(float(c), _merged_factors(factors)) for c, factors in terms]
        blocks, self._mirror = _monomial_tables(N, A, tuple(f for _, f in self.terms))
        coefs = np.array([c for c, _ in self.terms])
        self._blocks = [(E, degree, table @ coefs) for E, degree, table in blocks]
        self._columns = np.arange(N * A)
        self._last_powers = None  # (read-only jets, their power table)

    @classmethod
    def of(cls, lag: Lagrangian) -> Optional["PolynomialIntegrand"]:
        """The compiled polynomial whose methods are all three callbacks of
        ``lag``, or None (hand-written callbacks, or one of them replaced)."""
        poly = getattr(lag.f, "__self__", None)
        if isinstance(poly, cls) and (lag.grad_f, lag.hess_f) == (poly.grad_f, poly.hess_f):
            return poly
        return None

    @classmethod
    def combined(cls, weighted) -> "PolynomialIntegrand":
        """sum_j w_j p_j over ``(w_j, p_j)`` pairs of one signature, as one compiled
        polynomial.  Terms of a zero weight stay, so their overflow still shows."""
        first = weighted[0][1]
        return cls(first.N, first.A, [(w * c, factors) for w, poly in weighted for c, factors in poly.terms])

    @property
    def even(self) -> bool:
        """True when every term has even total degree, so that f(-xi) = f(xi) exactly."""
        return all(sum(p for _, p in factors) % 2 == 0 for _, factors in self.terms)

    def _powers(self, xi, degree: int) -> np.ndarray:
        """The table powers[k, v, q] = xi_v(q)^k for k <= at least ``degree``.

        The table of the last read-only jet array (a Field's jets) is kept, so
        the gradient and the Hessian at one field raise its jets once; a
        writable array may change between calls and is never kept.
        """
        xi = np.asarray(xi, dtype=float)
        last = self._last_powers
        if last is not None and last[0] is xi and last[1].shape[0] > degree:
            return last[1]
        flat = xi.reshape(-1, self.N * self.A).T
        powers = np.empty((degree + 1,) + flat.shape)
        powers[0] = 1.0
        for k in range(1, degree + 1):
            np.multiply(powers[k - 1], flat, out=powers[k])
        if not xi.flags.writeable:
            self._last_powers = (xi, powers)
        return powers

    def _contract(self, order: int, xi) -> np.ndarray:
        # (Q, outputs) = monomials(xi)^T @ coefficient columns of one derivative order
        exponents, degree, coefficients = self._blocks[order]
        powers = self._powers(xi, degree)
        return powers[exponents, self._columns].prod(axis=1).T @ coefficients

    def f(self, x, xi) -> np.ndarray:
        return self._contract(0, xi)[:, 0]

    def grad_f(self, x, xi) -> np.ndarray:
        return self._contract(1, xi).reshape(-1, self.N, self.A)

    def hess_f(self, x, xi) -> np.ndarray:
        return self._contract(2, xi)[:, self._mirror].reshape(-1, self.N, self.A, self.N, self.A)


def make_polynomial_lagrangian(
    n: int,
    m: int,
    N: int,
    terms,
    name: str = "polynomial",
    p: float = 2.0,
    p_border: Optional[float] = None,
    g1=None,
    g2=None,
) -> Lagrangian:
    growth = GrowthSpec(enumerate_multi_indices(n, m), p, p_border=p_border, g1=g1, g2=g2)
    poly = PolynomialIntegrand(N, len(growth.index_set), [(c, factors) for c, factors in terms if c != 0.0])
    return Lagrangian(N=N, f=poly.f, grad_f=poly.grad_f, hess_f=poly.hess_f, growth=growth, name=name)


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


# name: (m, terms in the jet variables of u, whose index is the derivative order, g1)
_MODELS = {
    "P1": (1, [(0.5, ((1, 2),))], constant_envelope(1.0)),
    "P2": (1, [(0.5, ((1, 2),)), (0.25, ((0, 4),))], shifted_power_envelope(3.0, 2.0)),
    "P3": (1, [(0.5, ((1, 2),)), (0.5, ((0, 2), (1, 2)))], shifted_power_envelope(2.0, 2.0)),
    "P4": (2, [(0.5, ((2, 2),))], constant_envelope(1.0)),
}
MODEL_NAMES = tuple(_MODELS)


def model_problem(name: str) -> ModelProblem:
    """Return a built-in model problem by name.

    P1: quadratic gradient energy (linear problem).
    P2: gradient energy plus a quartic zero-order well.
    P3: gradient energy with a state-dependent stiffness.
    P4: second-order (clamped plate/beam) quadratic energy.
    All pair with the mass constraint 0.5 * u^2.
    """
    key = name.upper()
    if key not in _MODELS:
        raise ConfigurationError(f"unknown model problem {name!r}; known: {MODEL_NAMES}")
    m, terms, g1 = _MODELS[key]
    f = make_polynomial_lagrangian(1, m, 1, terms, name=key, g1=g1, g2=constant_envelope(1.0))
    return ModelProblem(key, f, _mass_constraint(1, m, 1))


# ---------------------------------------------------------------------------
# declarative documents


def _read_json(path: Path, what: str) -> dict:
    """The JSON object in the file at ``path``; text that is not JSON, or JSON that
    is not an object, is a ConfigurationError that names ``what`` and the file."""
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{what} {path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def _known(block, keys, where: str) -> dict:
    """``block`` when it is a JSON object holding none but ``keys``, so a misspelt key never runs the default."""
    if not isinstance(block, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {block!r}")
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise ConfigurationError(f"unknown {where} key {unknown[0]!r}; known keys: {', '.join(keys)}")
    return block


# the fields of each envelope kind, in the order its constructor takes them
_ENVELOPES = {"const": (constant_envelope, ("value",)), "shifted_power": (shifted_power_envelope, ("scale", "power"))}


def _envelope_from_doc(doc, name: str) -> Optional[object]:
    if doc is None:
        return None
    where = f"growth.{name}"
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not (isinstance(kind, str) and kind in _ENVELOPES):
        raise ConfigurationError(f"{where} must be an envelope object of kind 'const' or 'shifted_power', got {doc!r}")
    make, fields = _ENVELOPES[kind]
    _known(doc, ("kind",) + fields, where)
    return make(*(_number(doc, key, where + ".") for key in fields))


_REQUIRED = object()


def _number(block: dict, key: str, where: str, default=_REQUIRED) -> Optional[float]:
    """``block[key]`` as a float, ``default`` when it is absent or null; a bool is not a number."""
    value = block.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigurationError(f"{where}{key} is required")
        return default
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{where}{key} must be a number, got {value!r}")
    return float(value)


def _integer(value, name: str, least: int) -> int:
    """``value`` as an int of at least ``least``; a bool, a float or a string is not an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigurationError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _objects(value, name: str) -> list:
    """``value`` when it is a list of JSON objects, else a configuration error."""
    if not isinstance(value, list) or not all(isinstance(item, dict) for item in value):
        raise ConfigurationError(f"{name} must be a list of objects, got {value!r}")
    return value


def _terms_from_doc(block, keys, where: str, iset, N):
    """The term list of the integrand block ``block``, which holds none but ``keys``."""
    A = len(iset)
    terms = []
    for raw in _objects(_known(block, keys, where).get("terms"), f"{where}.terms"):
        coef = _number(_known(raw, ("coef", "factors"), f"{where} term"), "coef", f"{where} term ")
        factors = []
        for fac in _objects(raw.get("factors", []), f"{where} term factors"):
            _known(fac, ("component", "alpha", "power"), f"{where} factor")
            comp = _integer(fac.get("component", 0), "factor component", 0)
            if comp >= N:
                raise ConfigurationError(f"component {comp} out of range for N={N}")
            alpha = fac.get("alpha")
            if not isinstance(alpha, (list, tuple)):
                raise ConfigurationError(f"factor alpha must be a list of integers, got {alpha!r}")
            alpha = tuple(_integer(a, "factor alpha entry", 0) for a in alpha)
            try:
                position = iset.position(alpha)
            except KeyError:
                raise ConfigurationError(
                    f"factor alpha {list(alpha)} is not a multi-index of order <= {iset.m} in {iset.n} variables"
                ) from None
            factors.append((comp * A + position, _integer(fac.get("power"), "factor power", 1)))
        terms.append((coef, tuple(factors)))
    return terms


def load_problem(doc) -> ModelProblem:
    """Build a ModelProblem from a catalog name, a document path or a document dict.

    A ``Path`` is a document path; a string is a catalog name when it spells
    one (in any case) and a document path otherwise; a dict is a document.  A
    document spells out polynomial term lists for the integrand and
    (optionally) the constraint, and carries ``n``, ``m``, ``N`` and an
    optional ``growth`` block with the numbers ``p`` and ``p_border`` and the
    envelope descriptors ``g1``/``g2``.  Missing envelopes stay unset and are
    fitted from samples by the growth checker.  Every object of a document
    refuses a key it does not read.  A path that is no file, a file that is
    not JSON or holds no JSON object, and any other input are
    ConfigurationErrors; the first names the path tried.
    """
    if isinstance(doc, str) and doc.upper() in MODEL_NAMES:
        return model_problem(doc)
    if isinstance(doc, (str, Path)):
        path = Path(doc)
        if not os.path.isfile(path):  # Path.is_file raises on a name longer than the file system allows
            raise ConfigurationError(
                f"problem {str(doc)!r} is neither a document at {path.absolute()} nor a catalog name {MODEL_NAMES}"
            )
        doc = _read_json(path, "problem document")
    if not isinstance(doc, dict):
        raise ConfigurationError(f"a problem is a catalog name, a document path or a document object, got {doc!r}")
    _known(doc, ("name", "n", "m", "N", "integrand", "constraint", "growth"), "problem document")

    for key in ("n", "m", "N"):
        if key not in doc:
            raise ConfigurationError(f"problem document missing required field {key!r}")
    n, m, N = (_integer(doc[key], key, 1) for key in ("n", "m", "N"))
    iset = enumerate_multi_indices(n, m)
    gdoc = _known({} if doc.get("growth") is None else doc["growth"], ("p", "p_border", "g1", "g2"), "growth")
    f = make_polynomial_lagrangian(
        n, m, N, _terms_from_doc(doc.get("integrand"), ("terms",), "integrand", iset, N),
        name=str(doc.get("name", "document")),
        p=_number(gdoc, "p", "growth.", 2.0),
        p_border=_number(gdoc, "p_border", "growth.", None),
        g1=_envelope_from_doc(gdoc.get("g1"), "g1"),
        g2=_envelope_from_doc(gdoc.get("g2"), "g2"),
    )

    cdoc = doc.get("constraint")
    if cdoc is None:
        constraint = _mass_constraint(n, m, N)
    else:
        terms = _terms_from_doc(cdoc, ("name", "terms"), "constraint", iset, N)
        top_order = iset.orders() == m
        if any(top_order[var % len(iset)] for _, factors in terms for var, _ in factors):
            raise ConfigurationError("constraint integrand must not involve top-order derivatives")
        constraint = make_polynomial_lagrangian(
            n, m, N, terms, name=str(cdoc.get("name", "constraint")),
            g1=constant_envelope(1.0), g2=constant_envelope(1.0),
        )
    return ModelProblem(str(doc.get("name", "document")), f, constraint)
