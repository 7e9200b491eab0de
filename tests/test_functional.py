import math

import numpy as np
import pytest

from veldt.functional import VariationalProblem, damped_newton, gradient_norm, newton_polish


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


def test_newton_polish_linear_problem_one_iteration(p1, disc32):
    func = VariationalProblem(model=p1, disc=disc32).at_parameter(2.5)
    seed = np.random.default_rng(7).standard_normal(disc32.dim)
    result = newton_polish(func, seed)
    assert result.converged
    assert result.iterations == 1
    assert result.residual <= 1e-12
    assert gradient_norm(func, result.coeffs) == result.residual
