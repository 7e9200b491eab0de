import dataclasses
import math

import numpy as np
import pytest

from veldt.catalog import _mass_constraint, model_problem
from veldt.errors import CapabilityError, ConfigurationError, EvaluationError
from veldt.functional import (
    CombinedFunctional,
    DiscretizedFunctional,
    VariationalProblem,
    _star_seeds,
    damped_newton,
    gradient_norm,
    newton_polish,
)
from veldt.galerkin import build_space
from veldt.lagrangian import GrowthSpec, enumerate_multi_indices

from test_galerkin import _coupled_system, _well2d


def _affine(A, root):
    """Residual callbacks for A (x - root) = 0 with the exact Jacobian."""

    def evaluate(x, _):
        r = A @ (x - root)
        return float(np.linalg.norm(r)), r

    def solve(x, r):
        return np.linalg.solve(A, -r)

    return evaluate, solve


def test_linear_residual_converges_in_one_iteration():
    A = np.array([[3.0, 1.0], [1.0, 2.0]])
    evaluate, solve = _affine(A, np.array([0.7, -1.3]))
    result = damped_newton(evaluate, solve, np.array([5.0, 4.0]), tol=1e-12, max_iter=20)
    assert result.converged
    assert result.iterations == 1
    assert result.residual <= 1e-12
    np.testing.assert_allclose(result.coeffs, [0.7, -1.3], atol=1e-14)


@pytest.mark.parametrize("distance, cap", [(1.0, 0.3), (2.5, 1.0), (0.9, 0.1 + 1e-9)])
def test_step_cap_sets_iteration_count(distance, cap):
    direction = np.array([0.6, -0.8])
    evaluate, solve = _affine(np.eye(2), np.zeros(2))
    result = damped_newton(evaluate, solve, distance * direction, tol=1e-12, max_iter=50, step_cap=cap)
    assert result.converged
    assert result.iterations == math.ceil(distance / cap)


def test_uphill_jacobian_stalls_at_its_iteration():
    evaluate, good = _affine(np.eye(2), np.zeros(2))
    calls = []

    def solve(x, r):
        calls.append(1)
        step = good(x, r)
        return step if len(calls) < 3 else -step

    result = damped_newton(evaluate, solve, np.array([1.0, 0.0]), tol=1e-12, max_iter=50, step_cap=0.3)
    assert not result.converged
    assert result.iterations == 3
    assert result.residual == pytest.approx(0.4)


def test_singular_jacobian_stops_unconverged():
    evaluate, _ = _affine(np.eye(2), np.zeros(2))

    def solve(x, r):
        return np.linalg.solve(np.zeros((2, 2)), -r)

    result = damped_newton(evaluate, solve, np.array([1.0, 0.0]), tol=1e-12, max_iter=50)
    assert not result.converged
    assert result.iterations == 0


def test_rejected_trial_halves_and_projection_applies():
    # a doubled Newton step from the origin overshoots the root (0.8, 0) out
    # of the unit ball, where the residual is reported infinite
    evaluate, solve = _affine(np.eye(2), np.array([0.8, 0.0]))

    def inside_only(x, state):
        return (np.inf, None) if np.linalg.norm(x) > 1.0 else evaluate(x, state)

    def overshoot(x, r):
        return 2.0 * solve(x, r)

    def to_ball(x):
        return x / np.linalg.norm(x) if np.linalg.norm(x) > 1.0 else x

    halved = damped_newton(inside_only, overshoot, np.zeros(2), tol=1e-12, max_iter=1)
    assert halved.converged and halved.iterations == 1
    np.testing.assert_allclose(halved.coeffs, [0.8, 0.0])
    projected = damped_newton(inside_only, overshoot, np.zeros(2), tol=1e-12, max_iter=1, project=to_ball)
    assert projected.iterations == 1 and not projected.converged
    np.testing.assert_allclose(projected.coeffs, [1.0, 0.0])
    assert projected.residual == pytest.approx(0.2)


def test_projection_onto_the_iterate_stops_without_halvings():
    evaluate, solve = _affine(np.eye(2), np.array([2.0, 0.0]))
    start = np.array([1.0, 0.0])
    # a projection back onto the sphere the iterate lies on may land one ulp off it
    for landed in (start, start + np.spacing(start)):
        evaluated = []

        def counting(x, state):
            evaluated.append(x.copy())
            return evaluate(x, state)

        result = damped_newton(counting, solve, start, tol=1e-12, max_iter=10, project=lambda z: landed.copy())
        assert len(evaluated) == 1  # the start; no trial is evaluated, let alone halved
        assert not result.converged and result.iterations == 1
        np.testing.assert_array_equal(result.coeffs, start)
        assert result.residual == 1.0


def test_newton_polish_linear_problem_one_iteration(p1, disc32):
    func = VariationalProblem(model=p1, disc=disc32).at_parameter(2.5)
    seed = np.random.default_rng(7).standard_normal(disc32.dim)
    result = newton_polish(func, seed)
    assert result.converged
    assert result.iterations == 1
    assert result.residual <= 1e-12
    assert gradient_norm(func, result.coeffs) == result.residual


# ---------------------------------------------------------------------------
# the one-pass combined functional against the explicit two-pass F - lam G


def _pair(model):
    return model.lagrangian, model.constraint


def _oracle_cases():
    sine = build_space((0.0, np.pi), 1, "dirichlet", 16)
    cases = [(name, *_pair(model_problem(name)), sine) for name in ("P1", "P2", "P3")]
    cases.append(("beam", *_pair(model_problem("P4")), build_space((0.0, 1.0), 2, "dirichlet", 8)))
    cases.append(
        (
            "coupled",
            _coupled_system(enumerate_multi_indices(1, 1)),
            _mass_constraint(1, 1, 2),
            build_space((0.0, np.pi), 1, "dirichlet", 8, n_components=2),
        )
    )
    square = build_space(((0.0, np.pi), (0.0, np.pi)), 1, "dirichlet", 6)
    cases.append(("sine2d", _well2d(square.index_set), _mass_constraint(2, 1, 1), square))
    return cases


@pytest.mark.parametrize("lam", [0.0, 1.05])
@pytest.mark.parametrize("case", _oracle_cases(), ids=lambda case: case[0])
def test_combined_matches_two_pass(case, lam):
    _, f, g, disc = case
    F, G = DiscretizedFunctional(f, disc), DiscretizedFunctional(g, disc)
    combined = CombinedFunctional(F, G, lam)
    rng = np.random.default_rng(11)
    for _ in range(3):
        c = rng.standard_normal(disc.dim)
        c *= rng.uniform(0.3, 1.5) / disc.norm(c)
        value = F.value(c) - lam * G.value(c)
        assert abs(combined.value(c) - value) <= 1e-13 * max(abs(value), 1.0)
        for one_pass, two_pass in (
            (combined.gradient_dual(c), F.gradient_dual(c) - lam * G.gradient_dual(c)),
            (combined.hessian_dual(c), F.hessian_dual(c) - lam * G.hessian_dual(c)),
        ):
            assert np.max(np.abs(one_pass - two_pass)) <= 1e-13 * np.max(np.abs(two_pass))


def _mass_functional(disc, **changes):
    return DiscretizedFunctional(dataclasses.replace(_mass_constraint(1, 1, 1), **changes), disc)


@pytest.mark.parametrize("lam", [0.0, 1.05])
def test_combined_reports_non_finite_constraint_output(p2, disc16, lam):
    def nan_like(shape_tail):
        return lambda x, xi: np.full((np.shape(xi)[0],) + shape_tail, np.nan)

    A = len(disc16.index_set)
    bad = _mass_functional(disc16, f=nan_like(()), grad_f=nan_like((1, A)), hess_f=nan_like((1, A, 1, A)))
    combined = CombinedFunctional(DiscretizedFunctional(p2.lagrangian, disc16), bad, lam)
    c = np.zeros(disc16.dim)
    c[0] = 0.5
    for evaluate, tag in (
        (combined.value, "f"),
        (combined.gradient_dual, "grad_f"),
        (combined.hessian_dual, "hess_f"),
    ):
        with pytest.raises(EvaluationError, match=f"^{tag} produced a non-finite value"):
            evaluate(c)


def test_combined_hessian_requires_p2_of_every_term(p2, disc16):
    cubic = _mass_functional(disc16, growth=GrowthSpec.canonical(1, 1, p=3.0))
    combined = CombinedFunctional(DiscretizedFunctional(p2.lagrangian, disc16), cubic, 1.05)
    c = np.full(disc16.dim, 0.05)
    combined.gradient_dual(c)
    with pytest.raises(CapabilityError):
        combined.hessian_dual(c)


def test_combined_checks_every_term_signature(p1, p4, disc16):
    beam_constraint = DiscretizedFunctional(p4.constraint, disc16)
    with pytest.raises(ConfigurationError):
        CombinedFunctional(DiscretizedFunctional(p1.lagrangian, disc16), beam_constraint, 1.0)


def test_star_seeds_order_and_copy():
    center = np.array([1.0, 2.0])
    dirs = np.eye(2)
    seeds = _star_seeds(center, dirs, (0.5, 2.0))
    expected = [[1.0, 2.0], [1.5, 2.0], [0.5, 2.0], [3.0, 2.0], [-1.0, 2.0], [1.0, 2.5], [1.0, 1.5], [1.0, 4.0], [1.0, 0.0]]
    assert [seed.tolist() for seed in seeds] == expected
    seeds[0][0] = 9.0
    assert center[0] == 1.0
