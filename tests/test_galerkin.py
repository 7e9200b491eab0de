import json

import numpy as np
import pytest

from veldt import (
    assemble_functional,
    assemble_gradient,
    assemble_hessian,
    build_space,
    estimate_sobolev_constant,
    field_from_json,
    field_to_json,
    hessian_split,
    matrix_to_csv,
    model_problem,
    q_compactness_audit,
)
from veldt.catalog import constant_envelope, make_polynomial_lagrangian, shifted_power_envelope
from veldt.errors import CapabilityError, ConfigurationError, DiscretizationError
from veldt.galerkin import clamped_mode_parameters
import scipy.linalg


def _mode_field(disc, k, amplitude=1.0):
    c = np.zeros(disc.dim)
    c[k - 1] = amplitude
    return disc.field(c)


# ---------------------------------------------------------------------------
# space construction


def test_sine_gram_closed_form():
    disc = build_space((0.0, np.pi), 1, "dirichlet", 8)
    expected = np.diag([(np.pi / 2) * (1 + k**2) for k in range(1, 9)])
    assert np.allclose(disc.gram, expected, rtol=1e-13, atol=1e-12)


def test_periodic_space_has_constant_mode_and_diagonal_gram():
    disc = build_space((0.0, 1.0), 1, "periodic", 5)
    assert np.allclose(disc.dtab[0, :, 0], 1.0)
    off = disc.gram - np.diag(np.diag(disc.gram))
    assert np.max(np.abs(off)) < 1e-12


def test_clamped_basis_vanishes_with_slope_at_both_ends():
    disc = build_space((0.0, np.pi), 2, "dirichlet", 4)
    assert disc.boundary_residual() < 1e-10


def test_clamped_parameters_solve_characteristic_equation():
    mus = clamped_mode_parameters(6)
    assert np.allclose(np.cos(mus) * np.cosh(mus), 1.0, atol=1e-9)
    assert mus[0] == pytest.approx(4.7300407448627040, rel=1e-12)


def test_quadrature_is_exact_for_declared_products():
    # top-frequency sine products integrate to closed forms at machine level
    disc = build_space((0.0, np.pi), 1, "dirichlet", 24)
    K = disc.K
    mass = np.einsum("q,qj,qk->jk", disc.weights, disc.dtab[0], disc.dtab[0])
    assert np.allclose(mass, np.diag([np.pi / 2] * K), atol=1e-12)
    quartic = float(disc.weights @ disc.dtab[0, :, K - 1] ** 4)
    assert quartic == pytest.approx(3 * np.pi / 8, rel=1e-12)


def test_unsupported_combinations_raise():
    with pytest.raises(CapabilityError):
        build_space((0.0, 1.0), 3, "dirichlet", 8)
    with pytest.raises(CapabilityError):
        build_space((0.0, 1.0), 2, "full", 8)
    with pytest.raises(CapabilityError):
        build_space((0.0, 1.0), 1, "chebyshev", 8)
    with pytest.raises(CapabilityError):
        build_space(((0, 1), (0, 1)), 2, "dirichlet", 8)
    with pytest.raises(ConfigurationError):
        build_space((0.0, 1.0), 1, "dirichlet", 3)
    with pytest.raises(ConfigurationError):
        build_space((1.0, 1.0), 1, "dirichlet", 8)


def test_two_dimensional_tensor_gram():
    disc = build_space(((0.0, np.pi), (0.0, np.pi)), 1, "dirichlet", 6)
    pairs = disc.meta["mode_pairs"]
    expected = [(np.pi / 2) ** 2 * (1 + k1**2 + k2**2) for k1, k2 in pairs]
    assert np.allclose(np.diag(disc.gram), expected, rtol=1e-12)


def test_field_validation():
    disc = build_space((0.0, np.pi), 1, "dirichlet", 8)
    with pytest.raises(ConfigurationError):
        disc.field(np.zeros(5))
    with pytest.raises(ConfigurationError):
        disc.field(np.full(8, np.nan))


# ---------------------------------------------------------------------------
# functional assembly


def test_functional_p1_sine(disc16, p1):
    u = _mode_field(disc16, 1)
    assert assemble_functional(p1.lagrangian, u) == pytest.approx(np.pi / 4, rel=1e-10)


def test_functional_zero_field(disc16, p2, p3):
    z = disc16.zero_field()
    assert assemble_functional(p2.lagrangian, z) == 0.0
    assert assemble_functional(p3.lagrangian, z) == 0.0


def test_functional_p2_sine(disc16, p2):
    u = _mode_field(disc16, 1)
    assert assemble_functional(p2.lagrangian, u) == pytest.approx(np.pi / 4 + 3 * np.pi / 32, rel=1e-12)


def test_functional_signature_mismatch(disc16, p4):
    with pytest.raises(ConfigurationError):
        assemble_functional(p4.lagrangian, disc16.zero_field())


def test_functional_converges_monotonically_in_K(p2):
    # fixed smooth profile, represented by its leading sine coefficients
    target = lambda K: [1.0 / k**3 for k in range(1, K + 1)]
    values = []
    for K in (4, 8, 16, 32):
        disc = build_space((0.0, np.pi), 1, "dirichlet", K)
        values.append(assemble_functional(p2.lagrangian, disc.field(target(K))))
    diffs = np.abs(np.diff(values))
    assert np.all(np.diff(diffs) < 0)


# ---------------------------------------------------------------------------
# gradient assembly


def test_gradient_p1_sine(disc16, p1):
    ell = assemble_gradient(p1.lagrangian, _mode_field(disc16, 1))
    expected = np.zeros(16)
    expected[0] = np.pi / 2
    assert np.allclose(ell, expected, atol=1e-12)
    # Riesz representative divides by the Gram diagonal
    assert disc16.solve_gram(ell)[0] == pytest.approx((np.pi / 2) / ((np.pi / 2) * 2), rel=1e-12)


def test_gradient_zero_field(disc16, p2):
    ell = assemble_gradient(p2.lagrangian, disc16.zero_field())
    assert np.all(ell == 0.0)
    assert np.all(disc16.solve_gram(ell) == 0.0)


def test_gradient_p2_one_mode_component(disc16, p2):
    a = 0.7
    ell = assemble_gradient(p2.lagrangian, _mode_field(disc16, 1, a))
    assert ell[0] == pytest.approx(a * np.pi / 2 + a**3 * 3 * np.pi / 8, rel=1e-12)


@pytest.mark.parametrize("name", ["P1", "P2", "P3"])
def test_gradient_matches_functional_differences(name, disc16, rng):
    lag = model_problem(name).lagrangian
    h = 1e-5
    for _ in range(12):
        u = rng.standard_normal(disc16.dim)
        u *= rng.uniform(0.1, 2.0) / disc16.norm(u)
        v = rng.standard_normal(disc16.dim)
        v /= disc16.norm(v)
        ell = assemble_gradient(lag, disc16.field(u))
        fd = (
            assemble_functional(lag, disc16.field(u + h * v))
            - assemble_functional(lag, disc16.field(u - h * v))
        ) / (2 * h)
        assert fd == pytest.approx(float(ell @ v), rel=1e-6, abs=1e-10)


def test_gradient_matches_functional_differences_beam(beam8, p4, rng):
    lag = p4.lagrangian
    h = 1e-5
    for _ in range(6):
        u = rng.standard_normal(beam8.dim)
        u *= 0.5 / beam8.norm(u)
        v = rng.standard_normal(beam8.dim)
        v /= beam8.norm(v)
        ell = assemble_gradient(lag, beam8.field(u))
        fd = (
            assemble_functional(lag, beam8.field(u + h * v))
            - assemble_functional(lag, beam8.field(u - h * v))
        ) / (2 * h)
        assert fd == pytest.approx(float(ell @ v), rel=1e-6, abs=1e-10)


# ---------------------------------------------------------------------------
# second variation and its split


def test_hessian_p1_eigenvalues(disc16, p1):
    B = assemble_hessian(p1.lagrangian, disc16.zero_field())
    eigs = np.sort(scipy.linalg.eigh(B, disc16.gram, eigvals_only=True))
    expected = np.sort([k**2 / (1.0 + k**2) for k in range(1, 17)])
    assert np.allclose(eigs, expected, rtol=1e-10)


def test_hessian_zero_jet_reductions(disc16, p1, p2, p3):
    B1 = assemble_hessian(p1.lagrangian, disc16.zero_field())
    assert np.allclose(assemble_hessian(p3.lagrangian, disc16.zero_field()), B1, atol=1e-12)
    assert np.allclose(assemble_hessian(p2.lagrangian, disc16.zero_field()), B1, atol=1e-12)


def test_hessian_requires_quadratic_exponent(disc16):
    lag = make_polynomial_lagrangian(
        1, 1, 1, [(0.5, ((1, 2),))], name="p3exp", p=3.0,
        g1=constant_envelope(1.0), g2=constant_envelope(1.0),
    )
    with pytest.raises(CapabilityError):
        assemble_hessian(lag, disc16.zero_field())
    with pytest.raises(CapabilityError):
        hessian_split(lag, disc16.zero_field())


@pytest.mark.parametrize("name", ["P1", "P2", "P3"])
def test_split_contract_on_random_fields(name, disc16, rng):
    lag = model_problem(name).lagrangian
    for _ in range(17):
        u = rng.standard_normal(disc16.dim)
        u *= rng.uniform(0, 3.0) / disc16.norm(u)
        split = hessian_split(lag, disc16.field(u))
        assert split.split_defect < 1e-12
        assert split.C0_estimate > 0
        assert np.allclose(split.B, split.B.T)
        assert np.allclose(split.P, split.P.T)
        assert np.allclose(split.Q, split.Q.T)


def test_split_contract_beam(beam8, p4, rng):
    for _ in range(5):
        u = rng.standard_normal(beam8.dim)
        u *= rng.uniform(0, 3.0) / beam8.norm(u)
        split = hessian_split(p4.lagrangian, beam8.field(u))
        assert split.split_defect < 1e-12
        assert split.C0_estimate > 0


@pytest.mark.parametrize("name", ["P2", "P3"])
def test_hessian_matches_gradient_differences(name, disc16, rng):
    lag = model_problem(name).lagrangian
    h = 1e-5
    for _ in range(8):
        u = rng.standard_normal(disc16.dim)
        u *= 1.5 / disc16.norm(u)
        v = rng.standard_normal(disc16.dim)
        v /= disc16.norm(v)
        B = assemble_hessian(lag, disc16.field(u))
        gp = disc16.solve_gram(assemble_gradient(lag, disc16.field(u + h * v)))
        gm = disc16.solve_gram(assemble_gradient(lag, disc16.field(u - h * v)))
        fd = (gp - gm) / (2 * h)
        action = disc16.solve_gram(B @ v)
        assert np.max(np.abs(fd - action)) / max(np.max(np.abs(action)), 1.0) < 1e-6


def test_garding_bound_on_random_directions(disc32, p2, rng):
    u = rng.standard_normal(disc32.dim)
    u *= 1.0 / disc32.norm(u)
    split = hessian_split(p2.lagrangian, disc32.field(u))
    C1 = 0.5 * split.C0_estimate
    # calibrate the lower-order constant on one batch, then verify on a fresh one
    samples = rng.standard_normal((100, disc32.dim))
    deficits = []
    for v in samples:
        quad = float(v @ split.B @ v)
        deficits.append((C1 * disc32.norm(v) ** 2 - quad) / max(disc32.norm_lower(v) ** 2, 1e-300))
    C2 = max(0.0, max(deficits)) * 1.1 + 1e-12
    fresh = rng.standard_normal((100, disc32.dim))
    for v in fresh:
        quad = float(v @ split.B @ v)
        assert quad >= C1 * disc32.norm(v) ** 2 - C2 * disc32.norm_lower(v) ** 2 - 1e-10


# ---------------------------------------------------------------------------
# embedding constant and compact-tail decay


def test_sobolev_constant_unit_interval_scaling():
    assert estimate_sobolev_constant(build_space((0.0, np.pi), 1, "dirichlet", 8)) == pytest.approx(1.0, rel=1e-12)
    assert estimate_sobolev_constant(build_space((0.0, 1.0), 1, "dirichlet", 8)) == pytest.approx(
        1.0 / np.pi**2, rel=1e-12
    )


def test_sobolev_constant_monotone_in_K():
    vals = [
        estimate_sobolev_constant(build_space((0.0, np.pi), 1, "dirichlet", K))
        for K in (4, 8, 16)
    ]
    assert vals[0] <= vals[1] + 1e-14
    assert vals[1] <= vals[2] + 1e-14


def test_sobolev_constant_requires_dirichlet():
    disc = build_space((0.0, 1.0), 1, "periodic", 6)
    with pytest.raises(CapabilityError):
        estimate_sobolev_constant(disc)


def test_q_decay_closed_form(disc64, p1, p3):
    profile = q_compactness_audit(p1.lagrangian, disc64.zero_field(), disc64)
    expected = np.array([1.0 / (1 + k**2) for k in range(1, 65)])
    assert np.allclose(profile.ratios, expected, rtol=1e-10)
    assert profile.passed
    profile3 = q_compactness_audit(p3.lagrangian, disc64.zero_field(), disc64)
    assert np.allclose(profile3.ratios, expected, rtol=1e-10)


def test_q_decay_p2_at_sine(disc64, p2):
    u = _mode_field(disc64, 1)
    profile = q_compactness_audit(p2.lagrangian, u, disc64)
    assert profile.passed
    assert profile.ratios[-1] < 0.01 * np.max(profile.ratios)


# ---------------------------------------------------------------------------
# serialization


def test_matrix_csv_roundtrip(tmp_path, disc16):
    path = tmp_path / "gram.csv"
    matrix_to_csv(disc16.gram, path)
    back = np.loadtxt(path, delimiter=",")
    assert np.array_equal(back, disc16.gram)


def test_field_json_roundtrip(disc16):
    u = disc16.field(np.linspace(0, 1, disc16.dim))
    doc = field_to_json(u)
    again = field_from_json(disc16, json.loads(json.dumps(doc)))
    assert np.array_equal(again.coeffs, u.coeffs)


def test_field_json_fingerprint_mismatch(disc16):
    other = build_space((0.0, np.pi), 1, "dirichlet", 12)
    doc = field_to_json(other.field(np.zeros(12)))
    with pytest.raises(DiscretizationError):
        field_from_json(disc16, doc)


def test_two_dimensional_functional_value():
    # gradient energy of the first tensor mode: integral of |grad u|^2 / 2
    disc = build_space(((0.0, np.pi), (0.0, np.pi)), 1, "dirichlet", 4)
    iset = disc.index_set
    vy = iset.position((0, 1))
    vx = iset.position((1, 0))
    lag = make_polynomial_lagrangian(
        2, 1, 1, [(0.5, ((vx, 2),)), (0.5, ((vy, 2),))], name="dirichlet2d",
        g1=constant_envelope(1.0), g2=constant_envelope(1.0),
    )
    c = np.zeros(disc.dim)
    c[disc.meta["mode_pairs"].index((1, 1))] = 1.0
    val = assemble_functional(lag, disc.field(c))
    assert val == pytest.approx(np.pi**2 / 4, rel=1e-12)


def _well2d(iset):
    # gradient energy plus a quartic well on the square
    vy = iset.position((0, 1))
    vx = iset.position((1, 0))
    v0 = iset.position((0, 0))
    return make_polynomial_lagrangian(
        2, 1, 1,
        [(0.5, ((vx, 2),)), (0.5, ((vy, 2),)), (0.25, ((v0, 4),))],
        name="well2d", g1=shifted_power_envelope(3.0, 2.0), g2=constant_envelope(1.0),
    )


def test_two_dimensional_gradient_consistency(rng):
    disc = build_space(((0.0, np.pi), (0.0, np.pi)), 1, "dirichlet", 4)
    lag = _well2d(disc.index_set)
    h = 1e-5
    for _ in range(5):
        u = rng.standard_normal(disc.dim)
        u /= disc.norm(u)
        v = rng.standard_normal(disc.dim)
        v /= disc.norm(v)
        ell = assemble_gradient(lag, disc.field(u))
        fd = (
            assemble_functional(lag, disc.field(u + h * v))
            - assemble_functional(lag, disc.field(u - h * v))
        ) / (2 * h)
        assert fd == pytest.approx(float(ell @ v), rel=1e-6, abs=1e-10)
    split = hessian_split(lag, disc.field(u))
    assert split.split_defect < 1e-12
    assert split.C0_estimate > 0


def _coupled_system(iset):
    # two components with a zero-order coupling term
    A = len(iset)
    v1_a = 0 * A + iset.position((1,))
    v1_b = 1 * A + iset.position((1,))
    v0_a = 0 * A + iset.position((0,))
    v0_b = 1 * A + iset.position((0,))
    return make_polynomial_lagrangian(
        1, 1, 2,
        [(0.5, ((v1_a, 2),)), (0.5, ((v1_b, 2),)), (1.0, ((v0_a, 1), (v0_b, 1)))],
        name="coupled", g1=constant_envelope(2.0), g2=constant_envelope(1.0),
    )


def test_system_assembly_consistency(rng):
    from veldt.lagrangian import enumerate_multi_indices

    disc = build_space((0.0, np.pi), 1, "dirichlet", 8, n_components=2)
    lag = _coupled_system(enumerate_multi_indices(1, 1))
    h = 1e-5
    for _ in range(6):
        u = rng.standard_normal(disc.dim)
        u /= disc.norm(u)
        v = rng.standard_normal(disc.dim)
        v /= disc.norm(v)
        ell = assemble_gradient(lag, disc.field(u))
        fd = (
            assemble_functional(lag, disc.field(u + h * v))
            - assemble_functional(lag, disc.field(u - h * v))
        ) / (2 * h)
        assert fd == pytest.approx(float(ell @ v), rel=1e-6, abs=1e-10)
        B = assemble_hessian(lag, disc.field(u))
        gp = disc.solve_gram(assemble_gradient(lag, disc.field(u + h * v)))
        gm = disc.solve_gram(assemble_gradient(lag, disc.field(u - h * v)))
        fd_vec = (gp - gm) / (2 * h)
        action = disc.solve_gram(B @ v)
        assert np.max(np.abs(fd_vec - action)) < 1e-6 * max(np.max(np.abs(action)), 1.0)


def test_system_cross_component_hessian_block():
    from veldt.lagrangian import enumerate_multi_indices

    disc = build_space((0.0, np.pi), 1, "dirichlet", 4, n_components=2)
    lag = _coupled_system(enumerate_multi_indices(1, 1))
    split = hessian_split(lag, disc.zero_field())
    K = disc.K
    # the coupling puts the scalar mass matrix in the off-diagonal block
    mass = np.diag([np.pi / 2] * K)
    assert np.allclose(split.B[:K, K:], mass, atol=1e-12)
    assert split.split_defect < 1e-12


# ---------------------------------------------------------------------------
# the stacked second-variation kernel against the per-pair reference loop


def _pair_loop(disc, hess, keep):
    """Reference assembly: one three-operand einsum per kept (alpha, beta) pair."""
    orders = disc.index_set.orders()
    N, K = disc.n_components, disc.K
    out = np.zeros((N, K, N, K))
    for a in range(len(orders)):
        for b in range(len(orders)):
            if not keep(orders[a], orders[b]):
                continue
            wh = disc.weights[:, None, None] * hess[:, :, a, :, b]
            out += np.einsum("qij,qk,ql->ikjl", wh, disc.dtab[a], disc.dtab[b])
    out = out.reshape(disc.dim, disc.dim)
    return 0.5 * (out + out.T)


def _cross_coupled_system(iset):
    # a first-order/zero-order coupling makes the off-diagonal blocks nonsymmetric
    A = len(iset)
    v1_a = 0 * A + iset.position((1,))
    v1_b = 1 * A + iset.position((1,))
    v0_a = 0 * A + iset.position((0,))
    v0_b = 1 * A + iset.position((0,))
    return make_polynomial_lagrangian(
        1, 1, 2,
        [(0.5, ((v1_a, 2),)), (0.5, ((v1_b, 2),)), (1.0, ((v1_a, 1), (v0_b, 1))), (0.25, ((v0_a, 2), (v0_b, 2)))],
        name="cross_coupled", g1=constant_envelope(2.0), g2=constant_envelope(1.0),
    )


def _kernel_case(case):
    from veldt.lagrangian import enumerate_multi_indices

    iset = enumerate_multi_indices(1, 1)
    if case == "sine":
        return build_space((0.0, np.pi), 1, "dirichlet", 16), model_problem("P2").lagrangian
    if case == "beam":
        return build_space((0.0, 1.0), 2, "dirichlet", 8), model_problem("P4").lagrangian
    if case == "fourier":
        return build_space((0.0, 2.0 * np.pi), 1, "periodic", 9), model_problem("P3").lagrangian
    if case == "coupled":
        return build_space((0.0, np.pi), 1, "dirichlet", 8, n_components=2), _coupled_system(iset)
    if case == "cross_coupled":
        return build_space((0.0, np.pi), 1, "dirichlet", 8, n_components=2), _cross_coupled_system(iset)
    square = build_space(((0.0, np.pi), (0.0, np.pi)), 1, "dirichlet", 6)
    return square, _well2d(square.index_set)


@pytest.mark.parametrize("case", ["sine", "beam", "fourier", "coupled", "cross_coupled", "square"])
def test_kernel_matches_pair_loop(case, rng):
    disc, lag = _kernel_case(case)
    m = disc.m
    for _ in range(3):
        u = rng.standard_normal(disc.dim)
        u = disc.field(u * rng.uniform(0.5, 2.0) / disc.norm(u))
        hess = lag.hessian_at(disc.nodes, disc.jets(u.coeffs))
        reference = _pair_loop(disc, hess, lambda oa, ob: True)
        B = assemble_hessian(lag, u)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(B - reference)) <= 1e-13 * scale

        split = hessian_split(lag, u)
        assert np.max(np.abs(split.B - B)) <= 1e-13 * scale
        assert split.split_defect < 1e-12
        assert np.array_equal(split.P, split.P.T)
        assert np.array_equal(split.Q, split.Q.T)
        P_ref = _pair_loop(disc, hess, lambda oa, ob: oa == m and ob == m) + disc.gram_lower
        Q_ref = _pair_loop(disc, hess, lambda oa, ob: oa + ob < 2 * m) - disc.gram_lower
        assert np.max(np.abs(split.P - P_ref)) <= 1e-13 * scale
        assert np.max(np.abs(split.Q - Q_ref)) <= 1e-13 * scale
