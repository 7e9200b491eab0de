import dataclasses
import math

import numpy as np
import pytest

import veldt.functional
from veldt.catalog import _mass_constraint, model_problem
from veldt.errors import CapabilityError, ConfigurationError, EvaluationError
from veldt.functional import (
    CombinedFunctional,
    DiscretizedFunctional,
    VariationalProblem,
    _star_seeds,
    damped_newton,
    gradient_norm,
    multistart_census,
    newton_polish,
)
from veldt.galerkin import Discretization, assemble_hessian, build_space
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


def test_stop_ends_the_solve_unconverged_at_an_accepted_point():
    # steps capped at 0.3 walk from 1.0 toward the root through 0.7 and 0.4: a stop inside radius 0.5
    # fires at the second accepted point, so its two steps count and no third is solved
    evaluate, solve = _affine(np.eye(2), np.zeros(2))
    start = np.array([1.0, 0.0])
    asked = []

    def inside(x):
        asked.append(x.copy())
        return np.linalg.norm(x) < 0.5

    result = damped_newton(evaluate, solve, start, tol=1e-12, max_iter=50, step_cap=0.3, stop=inside)
    assert not result.converged and result.iterations == 2
    np.testing.assert_allclose(result.coeffs, [0.4, 0.0])
    assert result.residual == pytest.approx(0.4)
    assert len(asked) == 3  # the start and the two accepted points
    at_start = damped_newton(evaluate, solve, start, tol=1e-12, max_iter=50, stop=lambda x: True)
    assert not at_start.converged and at_start.iterations == 0
    at_root = damped_newton(evaluate, solve, np.zeros(2), tol=1e-12, max_iter=50, stop=lambda x: True)
    assert at_root.converged  # a converged point is never stopped


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


def test_combined_names_the_first_failing_term_in_order(p2, disc16):
    # the constraint is non-finite at node 0 and the energy at the last node: the
    # sum fails first at node 0, but the energy is the first term to fail alone
    def nan_at(node, callback):
        def out(x, xi):
            values = np.array(callback(x, xi), dtype=float)
            values[node] = np.nan
            return values

        return out

    def broken(lag, node):
        return dataclasses.replace(lag, **{tag: nan_at(node, getattr(lag, tag)) for tag in ("f", "grad_f", "hess_f")})

    F = DiscretizedFunctional(broken(p2.lagrangian, -1), disc16)
    G = DiscretizedFunctional(broken(p2.constraint, 0), disc16)
    combined = CombinedFunctional(F, G, 1.05)
    u = disc16.field(np.full(disc16.dim, 0.05))
    for name in ("value", "gradient_dual", "hessian_dual"):
        with pytest.raises(EvaluationError) as alone:
            getattr(F, name)(u)
        with pytest.raises(EvaluationError) as err:
            getattr(combined, name)(u)
        assert str(err.value) == str(alone.value) and f"node index {len(disc16.nodes) - 1}," in str(err.value)


def test_combined_hessian_requires_p2_of_every_term(p2, disc16):
    cubic = _mass_functional(disc16, growth=GrowthSpec(enumerate_multi_indices(1, 1), 3.0))
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


# ---------------------------------------------------------------------------
# a Newton point is evaluated once


def _count_jet_passes(monkeypatch):
    passes = []
    original = Discretization.jets

    def counted(disc, coeffs):
        passes.append(np.array(coeffs))
        return original(disc, coeffs)

    monkeypatch.setattr(Discretization, "jets", counted)
    return passes


def _count_assemblies(monkeypatch, name):
    fields = []
    original = getattr(veldt.functional, name)

    def counted(lag, u):
        fields.append(u)
        return original(lag, u)

    monkeypatch.setattr(veldt.functional, name, counted)
    return fields


def _nontrivial_start(disc):
    # below the branch of P2 at lam = 1.5 (sine amplitude 2 sqrt(1/6) = 0.82), off the axis
    c = np.zeros(disc.dim)
    c[0], c[2] = 0.5, 0.05
    return c


def test_polish_makes_one_jet_pass_per_evaluated_point(p2, disc16, monkeypatch):
    func = VariationalProblem(model=p2, disc=disc16).at_parameter(1.5)
    passes = _count_jet_passes(monkeypatch)
    loads = _count_assemblies(monkeypatch, "assemble_gradient")
    hessians = _count_assemblies(monkeypatch, "assemble_hessian")
    values = _count_assemblies(monkeypatch, "assemble_functional")
    result = newton_polish(func, _nontrivial_start(disc16))
    assert result.converged and result.iterations >= 3
    assert len(hessians) == result.iterations
    # every point gets one load and one jet pass; the step's Hessian is assembled at that same field
    assert len(passes) == len(loads)
    assert all(any(h is u for u in loads) for h in hessians)
    point, load = result.state
    assert point is loads[-1] and np.array_equal(point.coeffs, result.coeffs)
    np.testing.assert_array_equal(load, func.gradient_dual(result.coeffs))

    # the census decomposes and values each kept point at the field the polish ended on
    del passes[:], loads[:], hessians[:]
    (cp,) = multistart_census(func, [_nontrivial_start(disc16)])
    assert len(passes) == len(loads) and len(values) == 1
    assert values[0] is loads[-1] and hessians[-1] is loads[-1]
    assert cp.value == func.value(cp.coeffs)


def test_pencil_is_solved_from_the_jets_of_the_base_point(p2, disc16, monkeypatch):
    # both second variations are assembled at the problem's u0 Field, not at a copy of its coefficients
    problem = VariationalProblem(model=p2, disc=disc16)
    passes = _count_jet_passes(monkeypatch)
    problem.pencil
    assert passes == []


def _hand_written(lag):
    """The same integrand behind callbacks that are not a compiled polynomial's methods."""
    return dataclasses.replace(
        lag,
        f=lambda x, xi: lag.f(x, xi),
        grad_f=lambda x, xi: lag.grad_f(x, xi),
        hess_f=lambda x, xi: lag.hess_f(x, xi),
    )


@pytest.mark.parametrize("kind", ["compiled", "hand-written"])
def test_hessian_at_a_carried_point_equals_a_fresh_assembly(p2, disc16, kind, rng):
    wrap = _hand_written if kind == "hand-written" else (lambda lag: lag)
    F = DiscretizedFunctional(wrap(p2.lagrangian), disc16)
    G = DiscretizedFunctional(wrap(p2.constraint), disc16)
    for func in (F, CombinedFunctional(F, G, 1.05)):
        points = [disc16.field(0.6 * rng.standard_normal(disc16.dim)) for _ in range(4)]
        for u in points:
            func.gradient_dual(u)
        # the last point's jets were raised to powers last; every other point must not read them
        for u in points[::-1] + points:
            fresh = assemble_hessian(func.lagrangian, disc16.field(u.coeffs))
            assert np.array_equal(func.hessian_dual(u), fresh)


def test_power_table_of_a_writable_jet_array_is_not_kept(p2, disc16, rng):
    lag = VariationalProblem(model=p2, disc=disc16).at_parameter(1.05).lagrangian
    xi = disc16.jets(rng.standard_normal(disc16.dim))
    lag.gradient_at(disc16.nodes, xi)
    xi *= 2.0  # the same array, new values
    np.testing.assert_array_equal(lag.hessian_at(disc16.nodes, xi), lag.hessian_at(disc16.nodes, xi.copy()))


class _ScaledHessian:
    """A functional whose second variation is scaled, to steer a Newton step anywhere."""

    def __init__(self, func, scale):
        self.func, self.disc, self.scale = func, func.disc, scale

    def value(self, u):
        return self.func.value(u)

    def gradient_dual(self, u):
        return self.func.gradient_dual(u)

    def hessian_dual(self, u):
        return self.scale * self.func.hessian_dual(u)


def test_carried_points_keep_the_typed_errors(p2, disc16):
    func = VariationalProblem(model=p2, disc=disc16).at_parameter(1.5)
    c0 = _nontrivial_start(disc16)
    # a non-finite trial point
    with pytest.raises(ConfigurationError, match="^field coefficients must be finite$"):
        newton_polish(_ScaledHessian(func, np.nan), c0)
    # a trial whose load overflows in the quartic term: the error is the one the energy raises alone
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EvaluationError) as err:
            newton_polish(_ScaledHessian(func, 1e-200), c0)
        bad = err.value
        step = np.linalg.solve(1e-200 * func.hessian_dual(c0), -func.gradient_dual(c0))
        with pytest.raises(EvaluationError) as alone:
            func.energy.gradient_dual(c0 + step)
    assert str(bad).startswith("grad_f produced a non-finite value") and str(bad) == str(alone.value)
    # a second variation at p != 2, of the energy and of the constraint
    cubic = GrowthSpec(enumerate_multi_indices(1, 1), 3.0)
    message = r"^second variation assembly needs p = 2 \(directional-only differentiability at p = 3.0\)$"
    energy = DiscretizedFunctional(dataclasses.replace(p2.lagrangian, growth=cubic), disc16)
    constraint = DiscretizedFunctional(dataclasses.replace(p2.constraint, growth=cubic), disc16)
    for f in (energy, CombinedFunctional(energy, func.constraint, 1.5), CombinedFunctional(func.energy, constraint, 1.5)):
        with pytest.raises(CapabilityError, match=message):
            newton_polish(f, c0)
