import dataclasses
import sys
import threading

import numpy as np
import pytest

from veldt import (
    lipschitz_audit,
    make_reduction_setup,
    marino_prodi_perturb,
    reduced_hessian_at_origin,
    sample_reduced,
    solve_psi,
)
import veldt.bifurcation
import veldt.functional
import veldt.reduction
from veldt.errors import ConfigurationError, DegenerateKernelError, IdentityViolationError, ReductionFailureError
from veldt.functional import VariationalProblem, gradient_norm
from veldt.galerkin import Discretization
from veldt.reduction import PerturbedFunctional, _directions
from veldt.spectral import decompose

from test_bifurcation import _two_p2


@pytest.fixture(scope="module")
def setup_p2(p2, disc32):
    problem = VariationalProblem(model=p2, disc=disc32)
    return make_reduction_setup(problem, 1.0)


@pytest.fixture(scope="module")
def setup_p1(p1, disc32):
    problem = VariationalProblem(model=p1, disc=disc32)
    return make_reduction_setup(problem, 1.0)


@pytest.fixture(scope="module")
def setup_p3(p3, disc32):
    problem = VariationalProblem(model=p3, disc=disc32)
    return make_reduction_setup(problem, 1.0)


def test_setup_geometry(setup_p2, disc32):
    Z = setup_p2.kernel_basis
    W = setup_p2.complement_basis
    assert Z.shape == (disc32.dim, 1)
    assert np.allclose(Z.T @ disc32.gram @ Z, np.eye(1), atol=1e-12)
    assert np.max(np.abs(Z.T @ disc32.gram @ W)) < 1e-10
    # defaults scale with the distance to the next crossing (capped at one)
    assert setup_p2.lambda_box == pytest.approx(1.0)
    assert setup_p2.trust_radius == pytest.approx(0.9, rel=1e-6)


def test_setup_requires_critical_base(p2, disc32):
    problem = VariationalProblem(model=p2, disc=disc32, u0=disc32.field([0.5] + [0.0] * 31))
    with pytest.raises(ConfigurationError):
        make_reduction_setup(problem, 1.0)


def test_setup_requires_kernel(p2, disc32):
    # 2.5 is no pencil eigenvalue; the refusal names the nearest one
    problem = VariationalProblem(model=p2, disc=disc32)
    nearest = problem.pencil.eigenvalues[problem.pencil.nearest(2.5)[0]]
    with pytest.raises(DegenerateKernelError, match=f"2.5 is not a pencil eigenvalue \\(nearest: {nearest:.6g}\\)"):
        make_reduction_setup(problem, 2.5)


def test_setup_reads_kernel_dimension_from_the_pencil():
    # the coupled two-component P2 has a double eigenvalue 1, so the kernel is two-dimensional with no hint
    problem = _two_p2()
    setup = make_reduction_setup(problem, 1.0)
    assert setup.nullity == 2
    idx, _ = problem.pencil.nearest(1.0)
    assert problem.pencil.multiplicities[idx] == 2
    assert setup.problem is problem


# ---------------------------------------------------------------------------
# the correction map


@pytest.mark.parametrize("lam", [0.9, 1.0, 1.3])
def test_psi_vanishes_at_zero(setup_p2, lam):
    sample = solve_psi(setup_p2, lam, np.zeros(1))
    assert sample.correction_norm == 0.0
    assert sample.iterations == 0


def test_psi_vanishes_at_zero_p4(p4, beam8):
    problem = VariationalProblem(model=p4, disc=beam8)
    lam1 = 500.5639017404
    setup = make_reduction_setup(problem, lam1)
    sample = solve_psi(setup, lam1, np.zeros(1))
    assert sample.correction_norm == 0.0


def test_psi_vanishes_at_zero_remaining_catalog(setup_p1, setup_p3):
    for setup in (setup_p1, setup_p3):
        for off in (-0.4, 0.0, 0.4):
            sample = solve_psi(setup, 1.0 + off, np.zeros(1))
            assert sample.correction_norm == 0.0


def test_psi_is_zero_for_linear_problem(setup_p1):
    for lam in (0.7, 1.0, 1.4):
        for z in (0.1, -0.4, 0.8):
            sample = solve_psi(setup_p1, lam, np.array([z]))
            assert sample.correction_norm < 1e-13


def test_psi_cubic_smallness(setup_p2, disc32):
    sample = solve_psi(setup_p2, 1.05, np.array([0.2]))
    # orthogonal to the kernel and third order in the kernel amplitude
    Z = setup_p2.kernel_basis
    w_field = setup_p2.complement_basis @ sample.y
    assert abs(float(Z[:, 0] @ disc32.gram @ w_field)) < 1e-14
    small = solve_psi(setup_p2, 1.05, np.array([0.1]))
    ratio = sample.correction_norm / small.correction_norm
    assert ratio == pytest.approx(8.0, rel=0.2)
    assert sample.residual < 1e-11 * (1 + gradient_norm(setup_p2.functional_at(1.05), setup_p2.lift([0.2])))


def test_psi_residual_contract_on_box(setup_p2, rng):
    for _ in range(20):
        lam = setup_p2.lam_star + rng.uniform(-1, 1) * setup_p2.lambda_box
        z = rng.uniform(-0.5, 0.5, size=1)
        sample = solve_psi(setup_p2, lam, z)
        scale = 1 + gradient_norm(setup_p2.functional_at(lam), setup_p2.lift(z))
        assert sample.residual < 1e-11 * scale


def test_psi_outside_trust_radius(setup_p2):
    with pytest.raises(ConfigurationError):
        solve_psi(setup_p2, 1.0, np.array([setup_p2.trust_radius * 2]))


def test_psi_outside_lambda_box(setup_p2):
    with pytest.raises(ConfigurationError):
        solve_psi(setup_p2, 4.0, np.zeros(1))


def test_psi_reports_nonconvergence(setup_p2, monkeypatch):
    monkeypatch.setattr(veldt.reduction, "NEWTON_MAX_ITER", 1)
    bad_start = 10.0 * np.ones(setup_p2.complement_basis.shape[1])
    with pytest.raises(ReductionFailureError) as err:
        solve_psi(setup_p2, 1.0, np.array([0.2]), w0=bad_start)
    assert err.value.residual is not None


def test_psi_rejects_kernel_direction_in_complement(setup_p2):
    # a kernel column in the complement basis makes the complement block singular
    widened = dataclasses.replace(
        setup_p2, complement_basis=np.column_stack([setup_p2.complement_basis, setup_p2.kernel_basis])
    )
    w0 = np.full(widened.complement_basis.shape[1], 1e-8)
    with pytest.raises(DegenerateKernelError, match="complement block of the second variation is singular"):
        solve_psi(widened, 1.0, np.zeros(1), w0=w0)


def test_psi_uniqueness_probe(setup_p2, rng):
    z = np.array([0.3])
    baseline = solve_psi(setup_p2, 1.0, z)
    for _ in range(10):
        w0 = rng.standard_normal(setup_p2.complement_basis.shape[1])
        w0 *= 0.4 * setup_p2.trust_radius / np.linalg.norm(w0)
        probe = solve_psi(setup_p2, 1.0, z, w0=w0)
        assert np.linalg.norm(probe.y - baseline.y) < 1e-8


# ---------------------------------------------------------------------------
# reduced functional and gradient


def test_reduced_normal_form_fit(setup_p2):
    # kernel coordinate z relates to the leading sine amplitude a by z = a * sqrt(pi)
    lam = 1.05
    amps = np.linspace(0.0, 0.3, 13)
    zs = amps * np.sqrt(np.pi)
    value = setup_p2.functional_at(lam).value
    vals = [value(solve_psi(setup_p2, lam, np.array([z])).point) for z in zs]
    design = np.stack([amps**2, amps**4], axis=1)
    coef, *_ = np.linalg.lstsq(design, np.asarray(vals), rcond=None)
    assert coef[0] == pytest.approx((np.pi / 4) * (1 - lam), rel=0.01)
    assert coef[1] == pytest.approx(3 * np.pi / 32, rel=0.01)


def test_reduced_gradient_zero_at_origin(setup_p2):
    for lam in (0.9, 1.0, 1.2):
        g = solve_psi(setup_p2, lam, np.zeros(1)).gradient
        assert np.max(np.abs(g)) < 1e-12


def test_reduced_gradient_matches_value_differences(setup_p2, rng):
    h = 1e-4
    for _ in range(50):
        lam = 1.0 + rng.uniform(-0.5, 0.5)
        z = rng.uniform(-0.4, 0.4, size=1)
        g = solve_psi(setup_p2, lam, z).gradient
        value = setup_p2.functional_at(lam).value
        fd = (value(solve_psi(setup_p2, lam, z + h).point) - value(solve_psi(setup_p2, lam, z - h).point)) / (2 * h)
        assert fd == pytest.approx(float(g[0]), rel=1e-5, abs=1e-9)


def test_sample_reduced_grid(setup_p2):
    zs = [np.array([z]) for z in np.linspace(-0.4, 0.4, 21)]
    result = sample_reduced(setup_p2, 1.05, zs)
    assert len(result.samples) == 21
    assert result.max_residual() < 2e-11
    rows = result.to_rows()
    assert len(rows[0]) == 1 + 1 + 4


# ---------------------------------------------------------------------------
# the Lipschitz bound


def test_lipschitz_zero_for_linear(setup_p1):
    audit = lipschitz_audit(setup_p1, 1.0, n_pairs=10, rng=np.random.default_rng(0))
    assert audit.max_ratio < 1e-12
    assert audit.passed


def test_lipschitz_small_near_crossing(setup_p2):
    # the audit ball is the trust ball; a smaller one is a setup with a smaller trust radius
    audit = lipschitz_audit(
        dataclasses.replace(setup_p2, trust_radius=0.2), 1.0, n_pairs=25, rng=np.random.default_rng(0)
    )
    assert audit.max_ratio < 0.5
    assert audit.passed


def test_lipschitz_p3_within_contract(setup_p3):
    audit = lipschitz_audit(
        dataclasses.replace(setup_p3, trust_radius=0.1), 1.0, n_pairs=25, rng=np.random.default_rng(0)
    )
    assert audit.max_ratio <= 3.0
    assert audit.passed


# ---------------------------------------------------------------------------
# reduced second variation at the origin


def test_reduced_hessian_vanishes_at_crossing(setup_p2):
    H = reduced_hessian_at_origin(setup_p2, 1.0)
    assert np.max(np.abs(H)) == 0.0


def test_reduced_hessian_offset_value(setup_p2, disc32):
    H = reduced_hessian_at_origin(setup_p2, 1.05)
    # in the normalized kernel coordinate the constraint form averages to 1/2;
    # scaling back to the raw sine coefficient recovers the factor pi/2
    assert H[0, 0] == pytest.approx(-0.05 * 0.5, rel=1e-10)
    sine_norm_sq = float(disc32.gram[0, 0])  # squared Sobolev norm of the first mode
    raw = H[0, 0] * sine_norm_sq
    assert raw == pytest.approx(-0.05 * np.pi / 2, rel=1e-10)


def test_reduced_hessian_sign_flip(setup_p2):
    Hp = reduced_hessian_at_origin(setup_p2, 1.05)
    Hm = reduced_hessian_at_origin(setup_p2, 0.95)
    assert Hp[0, 0] == pytest.approx(-Hm[0, 0], rel=1e-10)


def test_reduced_hessian_formula_matches_probe_tightly(setup_p2, monkeypatch):
    # the finite-difference cross-check runs inside; a tight tolerance must hold
    monkeypatch.setattr(veldt.reduction, "HESSIAN_CHECK_TOL", 1e-6)
    H = reduced_hessian_at_origin(setup_p2, 1.05)
    assert H.shape == (1, 1)


def test_reduced_hessian_formula_raises_when_the_probe_disagrees(setup_p2, monkeypatch):
    # a reduced gradient of twice its size makes the probe read twice the formula's -0.025
    solve = veldt.reduction.solve_psi

    def doubled(*args, **kwargs):
        sample = solve(*args, **kwargs)
        return dataclasses.replace(sample, gradient=2.0 * sample.gradient)

    monkeypatch.setattr(veldt.reduction, "solve_psi", doubled)
    with pytest.raises(IdentityViolationError, match="disagrees with finite differences"):
        reduced_hessian_at_origin(setup_p2, 1.05)


# ---------------------------------------------------------------------------
# localized kernel tilt


@pytest.fixture(scope="module")
def degenerate_p2(p2, disc32):
    problem = VariationalProblem(model=p2, disc=disc32)
    return problem, problem.at_parameter(1.0)


def test_tilt_zero_vector_is_identity(degenerate_p2, rng):
    problem, func = degenerate_p2
    Z = decompose(func.hessian_dual(problem.u0.coeffs), problem.disc.gram).kernel_vectors
    perturbed = PerturbedFunctional(func, problem.u0, Z, r=0.5, delta=0.25, b_coords=np.zeros(1))
    for _ in range(5):
        c = rng.standard_normal(problem.disc.dim) * 0.1
        assert perturbed.value(c) == func.value(c)
        assert np.array_equal(perturbed.gradient_dual(c), func.gradient_dual(c))


def test_tilt_gradient_and_hessian_are_consistent(degenerate_p2, rng):
    problem, func = degenerate_p2
    disc = problem.disc
    result = marino_prodi_perturb(problem, 1.0, r=0.6, delta_inner=0.3, rng=np.random.default_rng(5))
    perturbed = result.perturbed
    h = 1e-6
    for scale in (0.2, 0.35, 0.5):  # plateau, cutoff annulus, bump shoulder
        d = rng.standard_normal(disc.dim)
        d *= scale / disc.norm(d)
        c = problem.u0.coeffs + d
        v = rng.standard_normal(disc.dim)
        v /= disc.norm(v)
        fd_grad = (perturbed.value(c + h * v) - perturbed.value(c - h * v)) / (2 * h)
        assert fd_grad == pytest.approx(float(perturbed.gradient_dual(c) @ v), rel=2e-5, abs=1e-8)
        fd_hess = (perturbed.gradient_dual(c + h * v) - perturbed.gradient_dual(c - h * v)) / (2 * h)
        action = perturbed.hessian_dual(c) @ v
        assert np.max(np.abs(fd_hess - action)) < 2e-4 * max(1.0, np.max(np.abs(action)))


def test_tilt_census_is_nondegenerate_in_window(degenerate_p2):
    problem, func = degenerate_p2
    result = marino_prodi_perturb(problem, 1.0, r=0.5, delta_inner=0.25, rng=np.random.default_rng(7))
    assert result.passed
    assert result.perturbed.base is problem.at_parameter(1.0) is func  # the problem's own F - lam G is tilted
    assert len(result.critical_points) >= 1
    lo, hi = result.morse_window
    assert (lo, hi) == (0, 1)
    for cp in result.critical_points:
        assert cp.nullity == 0
        assert lo <= cp.morse_index <= hi


def test_tilt_vanishes_outside_support(degenerate_p2, rng):
    problem, func = degenerate_p2
    disc = problem.disc
    result = marino_prodi_perturb(problem, 1.0, r=0.5, delta_inner=0.25, rng=np.random.default_rng(7))
    for _ in range(10):
        d = rng.standard_normal(disc.dim)
        d *= rng.uniform(0.51, 3.0) / disc.norm(d)
        c = problem.u0.coeffs + d
        assert result.perturbed.value(c) == func.value(c)
        assert np.array_equal(result.perturbed.gradient_dual(c), func.gradient_dual(c))
        assert np.array_equal(result.perturbed.hessian_dual(c), func.hessian_dual(c))


def test_tilt_is_active_inside(degenerate_p2):
    problem, func = degenerate_p2
    disc = problem.disc
    result = marino_prodi_perturb(problem, 1.0, r=0.5, delta_inner=0.25, rng=np.random.default_rng(7))
    z = 0.05 * result.perturbed.Z[:, 0]
    c = problem.u0.coeffs + z
    assert result.perturbed.value(c) != func.value(c)


def test_tilt_rejects_nondegenerate_base(p2, disc32):
    problem = VariationalProblem(model=p2, disc=disc32)
    with pytest.raises(ConfigurationError):
        marino_prodi_perturb(problem, 0.5, r=0.5, delta_inner=0.25, rng=np.random.default_rng(0))


def test_tilt_bad_radii(degenerate_p2):
    problem, _ = degenerate_p2
    with pytest.raises(ConfigurationError):
        marino_prodi_perturb(problem, 1.0, r=0.2, delta_inner=0.4, rng=np.random.default_rng(0))


class _FlippedHessian:
    """A functional whose Newton steps point uphill: the Hessian sign is flipped."""

    def __init__(self, func):
        self.func = func
        self.disc = func.disc

    def value(self, coeffs):
        return self.func.value(coeffs)

    def gradient_dual(self, coeffs):
        return self.func.gradient_dual(coeffs)

    def hessian_dual(self, coeffs):
        return -self.func.hessian_dual(coeffs)


def test_psi_stall_reports_iterations_run(setup_p2, monkeypatch):
    flipped = dataclasses.replace(setup_p2)
    monkeypatch.setattr(flipped, "functional_at", lambda lam: _FlippedHessian(setup_p2.functional_at(lam)))
    with pytest.raises(ReductionFailureError) as err:
        solve_psi(flipped, 1.0, np.array([0.2]))
    assert err.value.iterations == 1
    assert err.value.residual > 0


# ---------------------------------------------------------------------------
# load vectors are assembled once per point


def _count_gradient_assemblies(monkeypatch):
    calls = []
    original = veldt.functional.assemble_gradient

    def counted(lag, u):
        calls.append(u)
        return original(lag, u)

    monkeypatch.setattr(veldt.functional, "assemble_gradient", counted)
    return calls


def test_psi_sample_records_corrected_point_and_reduced_gradient(setup_p2):
    for w0 in (None, np.full(setup_p2.complement_basis.shape[1], 1e-3)):
        sample = solve_psi(setup_p2, 1.05, np.array([0.3]), w0=w0)
        assert sample.iterations > 0
        np.testing.assert_array_equal(sample.coeffs, setup_p2.lift(sample.z, sample.y))
        np.testing.assert_array_equal(sample.gradient, setup_p2.kernel_basis.T @ sample.load)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sample.gradient = np.zeros(1)


def test_psi_reuses_scale_load_at_converged_start(setup_p2, monkeypatch):
    calls = _count_gradient_assemblies(monkeypatch)
    sample = solve_psi(setup_p2, 1.0, np.zeros(1))
    assert sample.iterations == 0
    assert len(calls) == 1
    np.testing.assert_array_equal(sample.load, np.zeros(setup_p2.disc.dim))


def test_warm_started_psi_evaluates_its_start_once(setup_p2, monkeypatch):
    # the start u0 + z + W w0 gives both the tolerance scale and the first Newton state
    calls = _count_gradient_assemblies(monkeypatch)
    w0 = np.full(setup_p2.complement_basis.shape[1], 1e-3)
    sample = solve_psi(setup_p2, 1.05, np.array([0.3]), w0=w0)
    assert sample.iterations > 0
    assert len(calls) == sample.iterations + 1
    np.testing.assert_array_equal(calls[0].coeffs, setup_p2.lift(np.array([0.3]), w0))


def test_one_level_reduced_newton_lands_on_the_complement_map(setup_p2):
    # y is psi(z): an independent cold complement solve at the solve's z gives the
    # same correction, and the reduced gradient there meets the reduced Newton tolerance
    z, y, converged = veldt.bifurcation._reduced_newton(setup_p2, 1.1, np.array([0.5]))
    assert converged and z[0] == pytest.approx(0.6485, abs=1e-3)
    reference = solve_psi(setup_p2, 1.1, z)
    np.testing.assert_allclose(y, reference.y, rtol=0, atol=1e-10)
    assert np.linalg.norm(reference.gradient) <= veldt.reduction.COMPLEMENT_TOL


def test_unconverged_one_level_solve_makes_no_certificate(setup_p2, monkeypatch):
    # at lambda = 1.2 the branch leaves the trust ball: the solve stalls on its
    # sphere after the cold start solve, and no certifying solve follows
    calls = []
    original = veldt.bifurcation.solve_psi
    monkeypatch.setattr(veldt.bifurcation, "solve_psi", lambda *args, **kw: calls.append(kw) or original(*args, **kw))
    z, _, converged = veldt.bifurcation._reduced_newton(setup_p2, 1.2, np.array([0.81]))
    assert not converged and np.linalg.norm(z) == pytest.approx(setup_p2.trust_radius)
    assert len(calls) == 1 and "w0" not in calls[0]


@pytest.mark.parametrize("case", ["p2", "two_p2"])
def test_converged_reduced_solve_already_meets_the_complement_contract(case, prob_p2_32, monkeypatch):
    # a converged start has |V^T ell| <= COMPLEMENT_TOL, so a warm complement solve from
    # its end point takes no step, returns its y bit for bit and meets the reduced tolerance.
    # P2 is the README bifurcate config; the two-P2 sweep has nu = 2 and random extra starts
    problem, window, grid = (prob_p2_32, (0.8, 1.3), 11) if case == "p2" else (_two_p2(), (0.9, 1.1), 5)
    solved = []
    reduced_newton = veldt.bifurcation._reduced_newton

    def recorded(setup, lam, z0, **kwargs):
        z, y, ok = reduced_newton(setup, lam, z0, **kwargs)
        solved.append((setup, lam, z, y, ok))
        return z, y, ok

    monkeypatch.setattr(veldt.bifurcation, "_reduced_newton", recorded)
    veldt.bifurcation.detect_branches(problem, window, grid=grid, amplitude_cap=3.0, rng=np.random.default_rng(0))
    converged = [record for record in solved if record[4]]
    assert converged
    for setup, lam, z, y, _ in converged:
        warm = solve_psi(setup, lam, z, w0=y)
        assert warm.iterations == 0
        assert np.array_equal(warm.y, y)
        assert np.linalg.norm(warm.gradient) <= veldt.reduction.COMPLEMENT_TOL


def test_functional_at_builds_one_combined_functional_per_parameter(setup_p2, monkeypatch):
    # the cache is the problem's and holds the last parameter: setups of one problem share it, a
    # replaced problem starts empty, and a parameter asked for again after another is built again
    builds = []
    original = veldt.functional._combined_lagrangian

    def counted(energy, constraint, lam):
        builds.append(lam)
        return original(energy, constraint, lam)

    monkeypatch.setattr(veldt.functional, "_combined_lagrangian", counted)
    problem = dataclasses.replace(setup_p2.problem)  # a fresh cache
    setup = dataclasses.replace(setup_p2, problem=problem)
    z, _, converged = veldt.bifurcation._reduced_newton(setup, 1.1, np.array([0.5]))
    assert converged
    for lam in (1.1, np.float64(1.1)):
        solve_psi(setup, lam, z)
    assert builds == [1.1]
    assert setup.functional_at(1.1) is problem.at_parameter(1.1) is problem.at_parameter(np.float64(1.1))
    solve_psi(setup, 0.9, np.zeros(1))
    assert builds == [1.1, 0.9]
    dataclasses.replace(setup).functional_at(0.9)
    assert builds == [1.1, 0.9]
    assert list(problem._functionals) == [0.9]
    dataclasses.replace(problem).at_parameter(0.9)
    assert builds == [1.1, 0.9, 0.9]
    setup.functional_at(1.1)
    assert builds == [1.1, 0.9, 0.9, 1.1]


def test_probe_directions_are_signed_axes_then_normalized_draws():
    rng = np.random.default_rng(3)
    rows = np.random.default_rng(3).standard_normal((3, 2))
    expected = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]] + [r / np.linalg.norm(r) for r in rows]
    dirs = _directions(2, 3, rng)
    assert len(dirs) == len(expected)
    for got, want in zip(dirs, expected):
        np.testing.assert_array_equal(got, want)
    # no random rows, no draw: the generator state is left as it was
    state = rng.bit_generator.state
    assert [d.tolist() for d in _directions(1, 0, rng)] == [[1.0], [-1.0]]
    assert rng.bit_generator.state == state


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


def _count_hessian_assemblies(monkeypatch):
    fields = []
    original = veldt.functional.assemble_hessian

    def counted(lag, u):
        fields.append(u)
        return original(lag, u)

    monkeypatch.setattr(veldt.functional, "assemble_hessian", counted)
    return fields


def test_complement_and_reduced_newton_make_one_jet_pass_per_point(setup_p2, monkeypatch):
    passes = _count_jet_passes(monkeypatch)
    loads = _count_gradient_assemblies(monkeypatch)
    hessians = _count_hessian_assemblies(monkeypatch)
    samples = []
    for w0 in (None, np.full(setup_p2.complement_basis.shape[1], 1e-3)):
        samples.append(solve_psi(setup_p2, 1.05, np.array([0.3]), w0=w0))
        # the sample's point is the field the complement Newton evaluated last
        assert samples[-1].iterations > 0 and samples[-1].point is loads[-1]
    z, _, converged = veldt.bifurcation._reduced_newton(setup_p2, 1.1, np.array([0.5]))
    assert converged
    # each point gets one load and one jet pass; the complement step and the
    # one-level (z, y) step assemble their Hessians at a field whose load was assembled
    assert len(passes) == len(loads) and len(hessians) > 2 * len(samples)
    assert all(any(h is u for u in loads) for h in hessians)


def test_tilt_hessian_at_a_carried_point_equals_a_fresh_assembly(degenerate_p2, rng):
    problem, func = degenerate_p2
    disc = problem.disc
    Z = decompose(func.hessian_dual(problem.u0.coeffs), disc.gram).kernel_vectors
    args = (func, problem.u0, Z)
    kwargs = dict(r=0.6, delta=0.3, b_coords=np.array([0.01]))
    perturbed = PerturbedFunctional(*args, **kwargs)
    points = []
    for scale in (0.2, 0.35, 0.5, 0.7):  # plateau, cutoff annulus, bump shoulder, outside the support
        d = rng.standard_normal(disc.dim)
        points.append(disc.field(problem.u0.coeffs + d * (scale / disc.norm(d))))
    for u in points:
        perturbed.gradient_dual(u)
    # the tilt keeps the geometry of the last point only; every other point must not read it
    for u in points[::-1] + points:
        fresh = PerturbedFunctional(*args, **kwargs)
        assert np.array_equal(perturbed.hessian_dual(u), fresh.hessian_dual(u.coeffs))
        assert np.array_equal(perturbed.gradient_dual(u), fresh.gradient_dual(u.coeffs))
        assert perturbed.value(u) == fresh.value(u.coeffs)


def test_kept_tables_hold_when_threads_share_a_functional(degenerate_p2, rng):
    # the tilt keeps one geometry and the merged polynomial one power table; a
    # thread that reads the other thread's entry would assemble a wrong matrix
    problem, func = degenerate_p2
    disc = problem.disc
    Z = decompose(func.hessian_dual(problem.u0.coeffs), disc.gram).kernel_vectors
    args = (func, problem.u0, Z)
    kwargs = dict(r=0.6, delta=0.3, b_coords=np.array([0.01]))
    shared = PerturbedFunctional(*args, **kwargs)
    points = []
    for scale in (0.2, 0.35, 0.5, 0.3, 0.45, 0.55):  # the plateau, the cutoff annulus and the bump shoulder
        d = rng.standard_normal(disc.dim)
        points.append(disc.field(problem.u0.coeffs + d * (scale / disc.norm(d))))
    expected = []
    for u in points:
        fresh = PerturbedFunctional(*args, **kwargs)
        expected.append((fresh.gradient_dual(u.coeffs), fresh.hessian_dual(u.coeffs)))
    wrong = []

    def work(offset):
        for k in range(40):
            i = (offset + k) % len(points)
            grad, hess = shared.gradient_dual(points[i]), shared.hessian_dual(points[i])
            if not (np.array_equal(grad, expected[i][0]) and np.array_equal(hess, expected[i][1])):
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
