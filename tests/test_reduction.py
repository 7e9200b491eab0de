import dataclasses

import numpy as np
import pytest

from veldt import (
    lipschitz_audit,
    make_reduction_setup,
    marino_prodi_perturb,
    reduced_gradient,
    reduced_hessian_at_origin,
    reduced_value,
    sample_reduced,
    solve_psi,
)
import veldt.bifurcation
import veldt.functional
from veldt.errors import ConfigurationError, DegenerateKernelError, ReductionFailureError
from veldt.functional import VariationalProblem, gradient_norm


@pytest.fixture(scope="module")
def setup_p2(p2, disc32):
    problem = VariationalProblem(model=p2, disc=disc32)
    return make_reduction_setup(problem, 1.0, kernel_dim=1)


@pytest.fixture(scope="module")
def setup_p1(p1, disc32):
    problem = VariationalProblem(model=p1, disc=disc32)
    return make_reduction_setup(problem, 1.0, kernel_dim=1)


@pytest.fixture(scope="module")
def setup_p3(p3, disc32):
    problem = VariationalProblem(model=p3, disc=disc32)
    return make_reduction_setup(problem, 1.0, kernel_dim=1)


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
    problem = VariationalProblem(model=p2, disc=disc32)
    with pytest.raises(DegenerateKernelError):
        make_reduction_setup(problem, 2.5)


# ---------------------------------------------------------------------------
# the correction map


@pytest.mark.parametrize("lam", [0.9, 1.0, 1.3])
def test_psi_vanishes_at_zero(setup_p2, lam):
    sample = solve_psi(setup_p2, [lam], np.zeros(1))
    assert sample.correction_norm == 0.0
    assert sample.iterations == 0


def test_psi_vanishes_at_zero_p4(p4, beam8):
    problem = VariationalProblem(model=p4, disc=beam8)
    lam1 = 500.5639017404
    setup = make_reduction_setup(problem, lam1, kernel_dim=1)
    sample = solve_psi(setup, [lam1], np.zeros(1))
    assert sample.correction_norm == 0.0


def test_psi_vanishes_at_zero_remaining_catalog(setup_p1, setup_p3):
    for setup in (setup_p1, setup_p3):
        for off in (-0.4, 0.0, 0.4):
            sample = solve_psi(setup, [1.0 + off], np.zeros(1))
            assert sample.correction_norm == 0.0


def test_psi_is_zero_for_linear_problem(setup_p1):
    for lam in (0.7, 1.0, 1.4):
        for z in (0.1, -0.4, 0.8):
            sample = solve_psi(setup_p1, [lam], np.array([z]))
            assert sample.correction_norm < 1e-13


def test_psi_cubic_smallness(setup_p2, disc32):
    sample = solve_psi(setup_p2, [1.05], np.array([0.2]))
    # orthogonal to the kernel and third order in the kernel amplitude
    Z = setup_p2.kernel_basis
    w_field = setup_p2.complement_basis @ sample.y
    assert abs(float(Z[:, 0] @ disc32.gram @ w_field)) < 1e-14
    small = solve_psi(setup_p2, [1.05], np.array([0.1]))
    ratio = sample.correction_norm / small.correction_norm
    assert ratio == pytest.approx(8.0, rel=0.2)
    assert sample.residual < 1e-11 * (1 + gradient_norm(setup_p2.functional_at([1.05]), setup_p2.lift([0.2])))


def test_psi_residual_contract_on_box(setup_p2, rng):
    for _ in range(20):
        lam = [float(setup_p2.lam_star[0] + rng.uniform(-1, 1) * setup_p2.lambda_box)]
        z = rng.uniform(-0.5, 0.5, size=1)
        sample = solve_psi(setup_p2, lam, z)
        scale = 1 + gradient_norm(setup_p2.functional_at(lam), setup_p2.lift(z))
        assert sample.residual < 1e-11 * scale


def test_psi_outside_trust_radius(setup_p2):
    with pytest.raises(ConfigurationError):
        solve_psi(setup_p2, [1.0], np.array([setup_p2.trust_radius * 2]))


def test_psi_outside_lambda_box(setup_p2):
    with pytest.raises(ConfigurationError):
        solve_psi(setup_p2, [4.0], np.zeros(1))


def test_psi_reports_nonconvergence(setup_p2):
    bad_start = 10.0 * np.ones(setup_p2.complement_basis.shape[1])
    with pytest.raises(ReductionFailureError) as err:
        solve_psi(setup_p2, [1.0], np.array([0.2]), w0=bad_start, max_iter=1)
    assert err.value.residual is not None


def test_psi_rejects_kernel_direction_in_complement(setup_p2):
    # a kernel column in the complement basis makes the complement block singular
    widened = dataclasses.replace(
        setup_p2, complement_basis=np.column_stack([setup_p2.complement_basis, setup_p2.kernel_basis])
    )
    w0 = np.full(widened.complement_basis.shape[1], 1e-8)
    with pytest.raises(DegenerateKernelError, match="complement block of the second variation is singular"):
        solve_psi(widened, [1.0], np.zeros(1), w0=w0)


def test_psi_uniqueness_probe(setup_p2, rng):
    z = np.array([0.3])
    baseline = solve_psi(setup_p2, [1.0], z)
    for _ in range(10):
        w0 = rng.standard_normal(setup_p2.complement_basis.shape[1])
        w0 *= 0.4 * setup_p2.trust_radius / np.linalg.norm(w0)
        probe = solve_psi(setup_p2, [1.0], z, w0=w0)
        assert np.linalg.norm(probe.y - baseline.y) < 1e-8


# ---------------------------------------------------------------------------
# reduced functional and gradient


def test_reduced_normal_form_fit(setup_p2):
    # kernel coordinate z relates to the leading sine amplitude a by z = a * sqrt(pi)
    lam = 1.05
    amps = np.linspace(0.0, 0.3, 13)
    zs = amps * np.sqrt(np.pi)
    vals = [reduced_value(setup_p2, [lam], np.array([z])) for z in zs]
    design = np.stack([amps**2, amps**4], axis=1)
    coef, *_ = np.linalg.lstsq(design, np.asarray(vals), rcond=None)
    assert coef[0] == pytest.approx((np.pi / 4) * (1 - lam), rel=0.01)
    assert coef[1] == pytest.approx(3 * np.pi / 32, rel=0.01)


def test_reduced_gradient_zero_at_origin(setup_p2):
    for lam in (0.9, 1.0, 1.2):
        g = reduced_gradient(setup_p2, [lam], np.zeros(1))
        assert np.max(np.abs(g)) < 1e-12


def test_reduced_gradient_matches_value_differences(setup_p2, rng):
    h = 1e-4
    for _ in range(50):
        lam = [float(1.0 + rng.uniform(-0.5, 0.5))]
        z = rng.uniform(-0.4, 0.4, size=1)
        g = reduced_gradient(setup_p2, lam, z)
        fd = (
            reduced_value(setup_p2, lam, z + h) - reduced_value(setup_p2, lam, z - h)
        ) / (2 * h)
        assert fd == pytest.approx(float(g[0]), rel=1e-5, abs=1e-9)


def test_sample_reduced_grid(setup_p2):
    zs = [np.array([z]) for z in np.linspace(-0.4, 0.4, 21)]
    result = sample_reduced(setup_p2, [1.05], zs)
    assert len(result.samples) == 21
    assert result.max_residual() < 2e-11
    rows = result.to_rows()
    assert len(rows[0]) == 1 + 1 + 4


# ---------------------------------------------------------------------------
# the Lipschitz bound


def test_lipschitz_zero_for_linear(setup_p1):
    audit = lipschitz_audit(setup_p1, [1.0], n_pairs=10)
    assert audit.max_ratio < 1e-12
    assert audit.passed


def test_lipschitz_small_near_crossing(setup_p2):
    audit = lipschitz_audit(setup_p2, [1.0], n_pairs=25, radius=0.2)
    assert audit.max_ratio < 0.5
    assert audit.passed


def test_lipschitz_p3_within_contract(setup_p3):
    audit = lipschitz_audit(setup_p3, [1.0], n_pairs=25, radius=0.1)
    assert audit.max_ratio <= 3.0
    assert audit.passed


# ---------------------------------------------------------------------------
# reduced second variation at the origin


def test_reduced_hessian_vanishes_at_crossing(setup_p2):
    H = reduced_hessian_at_origin(setup_p2, [1.0])
    assert np.max(np.abs(H)) == 0.0


def test_reduced_hessian_offset_value(setup_p2, disc32):
    H = reduced_hessian_at_origin(setup_p2, [1.05])
    # in the normalized kernel coordinate the constraint form averages to 1/2;
    # scaling back to the raw sine coefficient recovers the factor pi/2
    assert H[0, 0] == pytest.approx(-0.05 * 0.5, rel=1e-10)
    sine_norm_sq = float(disc32.gram[0, 0])  # squared Sobolev norm of the first mode
    raw = H[0, 0] * sine_norm_sq
    assert raw == pytest.approx(-0.05 * np.pi / 2, rel=1e-10)


def test_reduced_hessian_sign_flip(setup_p2):
    Hp = reduced_hessian_at_origin(setup_p2, [1.05])
    Hm = reduced_hessian_at_origin(setup_p2, [0.95])
    assert Hp[0, 0] == pytest.approx(-Hm[0, 0], rel=1e-10)


def test_reduced_hessian_formula_matches_probe_tightly(setup_p2):
    # the finite-difference cross-check runs inside; a tight tolerance must hold
    H = reduced_hessian_at_origin(setup_p2, [1.05], check_tol=1e-6)
    assert H.shape == (1, 1)


# ---------------------------------------------------------------------------
# localized kernel tilt


@pytest.fixture(scope="module")
def degenerate_p2(p2, disc32):
    problem = VariationalProblem(model=p2, disc=disc32)
    return problem, problem.at_parameter([1.0])


def test_tilt_zero_vector_is_identity(degenerate_p2, rng):
    problem, func = degenerate_p2
    result = marino_prodi_perturb(func, problem.u0, r=0.5, delta_inner=0.25, b=np.zeros(1))
    for _ in range(5):
        c = rng.standard_normal(problem.disc.dim) * 0.1
        assert result.perturbed.value(c) == func.value(c)
        assert np.array_equal(result.perturbed.gradient_dual(c), func.gradient_dual(c))


def test_tilt_gradient_and_hessian_are_consistent(degenerate_p2, rng):
    problem, func = degenerate_p2
    disc = problem.disc
    result = marino_prodi_perturb(func, problem.u0, r=0.6, delta_inner=0.3, rng=np.random.default_rng(5))
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
    result = marino_prodi_perturb(func, problem.u0, r=0.5, delta_inner=0.25, rng=np.random.default_rng(7))
    assert result.passed
    assert len(result.critical_points) >= 1
    lo, hi = result.morse_window
    assert (lo, hi) == (0, 1)
    for cp in result.critical_points:
        assert cp.nullity == 0
        assert lo <= cp.morse_index <= hi


def test_tilt_vanishes_outside_support(degenerate_p2, rng):
    problem, func = degenerate_p2
    disc = problem.disc
    result = marino_prodi_perturb(func, problem.u0, r=0.5, delta_inner=0.25, rng=np.random.default_rng(7))
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
    result = marino_prodi_perturb(func, problem.u0, r=0.5, delta_inner=0.25, rng=np.random.default_rng(7))
    z = 0.05 * result.perturbed.Z[:, 0]
    c = problem.u0.coeffs + z
    assert result.perturbed.value(c) != func.value(c)


def test_tilt_rejects_nondegenerate_base(p2, disc32):
    problem = VariationalProblem(model=p2, disc=disc32)
    func = problem.at_parameter([0.5])
    with pytest.raises(ConfigurationError):
        marino_prodi_perturb(func, problem.u0, r=0.5, delta_inner=0.25)


def test_tilt_bad_radii(degenerate_p2):
    problem, func = degenerate_p2
    with pytest.raises(ConfigurationError):
        marino_prodi_perturb(func, problem.u0, r=0.2, delta_inner=0.4)


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


def test_psi_stall_reports_iterations_run(setup_p2):
    flipped = dataclasses.replace(
        setup_p2, energy=_FlippedHessian(setup_p2.functional_at([1.0])), constraints=[], lam_star=np.zeros(0)
    )
    with pytest.raises(ReductionFailureError) as err:
        solve_psi(flipped, np.zeros(0), np.array([0.2]), max_iter=50)
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


def test_psi_reuses_scale_load_at_converged_start(setup_p2, monkeypatch):
    calls = _count_gradient_assemblies(monkeypatch)
    sample = solve_psi(setup_p2, [1.0], np.zeros(1))
    assert sample.iterations == 0
    assert len(calls) == 1
    np.testing.assert_array_equal(sample.load, np.zeros(setup_p2.disc.dim))


def test_reduced_newton_reads_gradient_from_complement_solve(setup_p2, monkeypatch):
    calls = _count_gradient_assemblies(monkeypatch)
    original = veldt.bifurcation.solve_psi
    marks = []  # assembly count at the start and at the end of every complement solve

    def watched(*args, **kwargs):
        marks.append(len(calls))
        sample = original(*args, **kwargs)
        marks.append(len(calls))
        return sample

    monkeypatch.setattr(veldt.bifurcation, "solve_psi", watched)
    z, _, converged = veldt.bifurcation._reduced_newton(setup_p2, [1.1], np.array([0.5]))
    marks.append(len(calls))
    assert converged and z[0] == pytest.approx(0.6485, abs=1e-3)
    assert len(marks) > 3
    # nothing is assembled after a complement solve ends and before the next
    # one starts, nor after the last one
    assert marks[1::2] == marks[2::2]
