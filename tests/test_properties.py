"""Property tests over random polynomial integrand documents.

The compiled monomial evaluator is checked against a term-by-term reference:
every term multiplied out factor by factor and differentiated by lowering one
power at a time.  Its error is rounding, bounded by a small multiple of eps
times the same polynomial evaluated with absolute coefficients and jets.

The assemblies are checked against finite differences.  Every document is
built through ``load_problem``.  Integrands there have total
degree at most 4, so along a line u + h v the energy is a polynomial of
degree at most 4 in h and the load one of degree at most 3.  A central
difference then errs by exactly c h^2 (the h^4 term cancels by symmetry),
and the Richardson combination (4 D(h) - D(2h)) / 3 removes that term: what
is left is rounding, about eps * S / h for function values of size S.  The
derivative checks allow 1e3 times that bound for the accumulation over
nodes and terms, far below any real error in a derivative.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from veldt import assemble_functional, assemble_gradient, assemble_hessian, build_space, hessian_split, load_problem
from veldt.errors import EvaluationError, HypothesisViolationError
from veldt.functional import CombinedFunctional, DiscretizedFunctional
from veldt.lagrangian import enumerate_multi_indices
from veldt.spectral import GROUP_RTOL, pencil_eigs

EPS = np.finfo(float).eps
STEP = 1e-2
ROUNDING_FACTOR = 1e3
PROPERTY_SETTINGS = settings(max_examples=12, derandomize=True, database=None, deadline=None)

# (n, m, bc, domain) of every space family the documents run on
SPACES = [
    (1, 1, "dirichlet", (0.0, np.pi)),
    (1, 1, "periodic", (0.0, 2.0 * np.pi)),
    (1, 1, "full", (0.0, 1.0)),
    (1, 2, "dirichlet", (0.0, 1.0)),
    (1, 2, "periodic", (0.0, 2.0 * np.pi)),
    (2, 1, "dirichlet", ((0.0, np.pi), (0.0, 1.0))),
]


def _alphas(n, m):
    if n == 1:
        return [[k] for k in range(m + 1)]
    return [[0, 0], [0, 1], [1, 0]]


@st.composite
def problems(draw):
    """A random polynomial document with the mass constraint, a space it runs on, and a point and direction there."""
    n, m, bc, domain = draw(st.sampled_from(SPACES))
    N = draw(st.sampled_from([1, 2]))
    K = draw(st.integers(4, 6))
    factor = st.fixed_dictionaries(
        {
            "component": st.integers(0, N - 1),
            "alpha": st.sampled_from(_alphas(n, m)),
            "power": st.integers(1, 2),
        }
    )
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = draw(st.lists(factor, min_size=1, max_size=2))
        if sum(f["power"] for f in factors) <= 4:
            terms.append({"coef": draw(st.floats(-1.0, 1.0, allow_nan=False)), "factors": factors})
    if not terms:
        terms = [{"coef": 0.5, "factors": [{"component": 0, "alpha": _alphas(n, m)[-1], "power": 2}]}]
    model = load_problem({"n": n, "m": m, "N": N, "integrand": {"terms": terms}})
    disc = build_space(domain, m, bc, K, n_components=N)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.standard_normal(disc.dim)
    v = rng.standard_normal(disc.dim)
    return model, disc, 0.5 * u / disc.norm(u), v / disc.norm(v)


def cases():
    """``problems`` with the document's integrand in place of the document."""
    return problems().map(lambda case: (case[0].lagrangian, *case[1:]))


def _richardson(f, u, v):
    """(4 D(h) - D(2h)) / 3 of the central differences of f along v, and the largest |f| used."""
    vals = {t: f(u + t * v) for t in (-2 * STEP, -STEP, STEP, 2 * STEP)}
    d1 = (vals[STEP] - vals[-STEP]) / (2 * STEP)
    d2 = (vals[2 * STEP] - vals[-2 * STEP]) / (4 * STEP)
    size = max(float(np.max(np.abs(x))) for x in vals.values())
    return (4.0 * d1 - d2) / 3.0, size


def _rounding_bound(size):
    return ROUNDING_FACTOR * EPS * (1.0 + size) / STEP


@PROPERTY_SETTINGS
@given(cases())
def test_hessian_is_symmetric_and_matches_its_split(case):
    lag, disc, u, _ = case
    field = disc.field(u)
    B = assemble_hessian(lag, field)
    assert np.array_equal(B, B.T)
    split = hessian_split(lag, field)
    scale = max(float(np.max(np.abs(B))), 1e-300)
    assert float(np.max(np.abs(B - (split.P + split.Q)))) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(cases())
def test_load_and_hessian_match_central_differences(case):
    lag, disc, u, v = case
    load = assemble_gradient(lag, disc.field(u))
    fd, size = _richardson(lambda c: assemble_functional(lag, disc.field(c)), u, v)
    assert abs(fd - load @ v) <= _rounding_bound(size)

    B = assemble_hessian(lag, disc.field(u))
    fd, size = _richardson(lambda c: assemble_gradient(lag, disc.field(c)), u, v)
    assert float(np.max(np.abs(fd - B @ v))) <= _rounding_bound(size)


@PROPERTY_SETTINGS
@given(problems())
def test_pencil_matches_generalized_eigh(case):
    # the mass constraint makes G'' definite, so every pencil eigenvalue is real and
    # the dim of them are the generalized eigenvalues of (F'', G'')
    model, disc, u, _ = case
    F = assemble_hessian(model.lagrangian, disc.field(u))
    G = assemble_hessian(model.constraint, disc.field(u))
    assume(np.linalg.cond(F) <= 1e8)  # so that the comparison below is well posed
    try:
        pencil = pencil_eigs(F, G, disc.gram)
    except HypothesisViolationError:
        return
    assert pencil.dropped_complex == 0
    assert int(np.sum(pencil.multiplicities)) == disc.dim
    reference = scipy.linalg.eigh(F, G, eigvals_only=True)
    representatives = np.repeat(pencil.eigenvalues, pencil.multiplicities)
    assert np.all(np.abs(reference - representatives) <= GROUP_RTOL * np.maximum(1.0, np.abs(representatives)))


# ---------------------------------------------------------------------------
# the compiled evaluator against term-by-term evaluation

ORACLE_RTOL = 1e-13
MAX_DEGREE = 6


def _reference_terms(doc_terms, N, A, iset):
    """Terms as ``(coef, {var: power})`` with repeated factors multiplied out."""
    terms = []
    for term in doc_terms:
        powers = {}
        for fac in term["factors"]:
            var = fac["component"] * A + iset.position(fac["alpha"])
            powers[var] = powers.get(var, 0) + fac["power"]
        terms.append((term["coef"], powers))
    return terms


def _reference_diff(terms, var):
    out = []
    for coef, powers in terms:
        p = powers.get(var, 0)
        if p:
            out.append((coef * p, {**powers, var: p - 1}))
    return out


def _reference_eval(terms, flat):
    acc = np.zeros(flat.shape[0])
    for coef, powers in terms:
        term = np.full(flat.shape[0], coef)
        for var, power in powers.items():
            term = term * flat[:, var] ** power
        acc += term
    return acc


def _reference_derivatives(terms, flat):
    """Value (Q,), gradient (Q, V) and Hessian (Q, V, V) term by term, each with
    its rounding scale: the same derivative at |coef| and |xi|."""
    V = flat.shape[1]
    grads = [_reference_diff(terms, v) for v in range(V)]
    hesss = [[_reference_diff(grads[v], w) for w in range(V)] for v in range(V)]

    def both(ts):
        absolute = [(abs(c), powers) for c, powers in ts]
        return _reference_eval(ts, flat), _reference_eval(absolute, np.abs(flat))

    value = both(terms)
    grad = [both(g) for g in grads]
    hess = [[both(h) for h in row] for row in hesss]
    return (
        value,
        tuple(np.stack([g[i] for g in grad], axis=-1) for i in (0, 1)),
        tuple(np.stack([np.stack([h[i] for h in row], axis=-1) for row in hess], axis=-2) for i in (0, 1)),
    )


@st.composite
def polynomial_docs(draw):
    """A random polynomial document of degree <= 6 (some factors repeated) and jets to evaluate it at."""
    n = draw(st.sampled_from([1, 2]))
    m = 1 if n == 2 else draw(st.sampled_from([1, 2]))
    N = draw(st.sampled_from([1, 2]))
    factor = st.fixed_dictionaries(
        {
            "component": st.integers(0, N - 1),
            "alpha": st.sampled_from(_alphas(n, m)),
            "power": st.integers(1, 3),
        }
    )
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        factors = draw(st.lists(factor, min_size=1, max_size=4))
        if draw(st.booleans()):
            factors.append(dict(factors[0], power=1))  # a repeated factor
        while sum(f["power"] for f in factors) > MAX_DEGREE:
            factors.pop()
        terms.append({"coef": draw(st.floats(-2.0, 2.0, allow_nan=False)), "factors": factors})
    iset = enumerate_multi_indices(n, m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xi = 1.5 * rng.standard_normal((7, N, len(iset)))
    lag = load_problem({"n": n, "m": m, "N": N, "integrand": {"terms": terms}}).lagrangian
    return lag, _reference_terms(terms, N, len(iset), iset), xi


@PROPERTY_SETTINGS
@given(polynomial_docs())
def test_compiled_evaluator_matches_term_by_term(doc):
    lag, terms, xi = doc
    Q, N, A = xi.shape
    x = np.full(Q, 0.5)
    (value, value_scale), (grad, grad_scale), (hess, hess_scale) = _reference_derivatives(terms, xi.reshape(Q, -1))
    for compiled, expected, scale in (
        (lag.value_at(x, xi), value, value_scale),
        (lag.gradient_at(x, xi).reshape(Q, -1), grad, grad_scale),
        (lag.hessian_at(x, xi).reshape(Q, N * A, N * A), hess, hess_scale),
    ):
        assert compiled.shape == expected.shape
        assert np.all(np.abs(compiled - expected) <= ORACLE_RTOL * scale)


@PROPERTY_SETTINGS
@given(polynomial_docs())
def test_compiled_hessian_is_exactly_symmetric(doc):
    lag, _, xi = doc
    H = lag.hessian_at(np.full(xi.shape[0], 0.5), xi)
    assert np.array_equal(H, H.transpose(0, 3, 4, 1, 2))


@pytest.mark.parametrize(
    "terms",
    [
        [],
        [
            {"coef": 0.75, "factors": [{"alpha": [1], "power": 2}, {"alpha": [0], "power": 1}]},
            {"coef": -0.75, "factors": [{"alpha": [0], "power": 1}, {"alpha": [1], "power": 2}]},
            {"coef": 0.0, "factors": [{"alpha": [0], "power": 3}]},
        ],
    ],
    ids=["empty", "cancelling"],
)
def test_vanishing_document_evaluates_to_zeros(terms):
    lag = load_problem({"n": 1, "m": 1, "N": 2, "integrand": {"terms": terms}}).lagrangian
    xi = np.random.default_rng(5).standard_normal((6, 2, 2))
    x = np.full(6, 0.5)
    for evaluate, shape in ((lag.value_at, (6,)), (lag.gradient_at, (6, 2, 2)), (lag.hessian_at, (6, 2, 2, 2, 2))):
        out = evaluate(x, xi)
        assert out.shape == shape
        assert np.all(out == 0.0)


@pytest.mark.parametrize("lam", [0.0, 1.05])
def test_overflowing_constraint_term_keeps_its_tag(lam):
    # u^6 in the constraint overflows, with its derivatives, at a jet of 1e80;
    # the energy 0.5 u'^2 stays finite there.  At lam = 0 the term's weight is zero.
    doc = {
        "n": 1, "m": 1, "N": 1,
        "integrand": {"terms": [{"coef": 0.5, "factors": [{"alpha": [1], "power": 2}]}]},
        "constraint": {"terms": [{"coef": 1.0, "factors": [{"alpha": [0], "power": 6}]}]},
    }
    model = load_problem(doc)
    disc = build_space((0.0, np.pi), 1, "dirichlet", 6)
    F, G = DiscretizedFunctional(model.lagrangian, disc), DiscretizedFunctional(model.constraint, disc)
    combined = CombinedFunctional(F, G, lam)
    c = np.zeros(disc.dim)
    c[0] = 1e80
    F.hessian_dual(c)  # the energy alone is finite
    for name, tag in (("value", "f"), ("gradient_dual", "grad_f"), ("hessian_dual", "hess_f")):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(EvaluationError, match=f"^{tag} produced a non-finite value") as alone:
                getattr(G, name)(c)
            with pytest.raises(EvaluationError) as err:
                getattr(combined, name)(c)
        assert str(err.value) == str(alone.value)
