"""Property tests of the assemblies over random polynomial integrand documents.

Every document is built through ``load_problem``.  Integrands have total
degree at most 4, so along a line u + h v the energy is a polynomial of
degree at most 4 in h and the load one of degree at most 3.  A central
difference then errs by exactly c h^2 (the h^4 term cancels by symmetry),
and the Richardson combination (4 D(h) - D(2h)) / 3 removes that term: what
is left is rounding, about eps * S / h for function values of size S.  The
derivative checks allow 1e3 times that bound for the accumulation over
nodes and terms, far below any real error in a derivative.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from veldt import assemble_functional, assemble_gradient, assemble_hessian, build_space, hessian_split, load_problem

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
def cases(draw):
    """A random polynomial document, a space it runs on, and a point and direction there."""
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
    return model.lagrangian, disc, 0.5 * u / disc.norm(u), v / disc.norm(v)


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
