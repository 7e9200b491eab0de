import dataclasses
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from veldt import (
    assemble_functional,
    assemble_gradient,
    assemble_hessian,
    build_space,
    estimate_sobolev_constant,
    hessian_split,
    model_problem,
    q_compactness_audit,
)
from veldt.lagrangian import GrowthSpec, Lagrangian, MultiIndexSet, enumerate_multi_indices
from veldt.catalog import constant_envelope, load_problem, make_polynomial_lagrangian, shifted_power_envelope
from veldt.errors import CapabilityError, ConfigurationError, DiscretizationError
from veldt.galerkin import (
    Field,
    _cosine_tables,
    _fourier_tables,
    _leggauss,
    _sine_tables,
    _split_gap,
    _tensor_modes,
    clamped_mode_parameters,
)
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


def _reference_trig_tables(omega, phase, m, is_cos):
    """Column by column: the d-th derivative of sin (cos) is omega**d times sin, cos, -sin, -cos in turn."""
    s, c = np.sin(phase), np.cos(phase)
    tabs = np.empty((m + 1,) + phase.shape)
    for d in range(m + 1):
        fac = omega**d
        for k in range(phase.shape[1]):
            turn = (d + int(is_cos[k])) % 4
            base = (c if turn % 2 else s)[:, k]
            tabs[d, :, k] = fac[k] * (base if turn < 2 else -base)
    return tabs


@pytest.mark.parametrize("K", [5, 6, 32])
def test_trig_tables_match_columnwise_phase_cycle(K):
    a, b = 0.3, 2.1
    nodes = np.linspace(a, b, 17)
    ks = np.arange(1, K)
    fourier_omega = 2.0 * np.pi * ((ks + 1) // 2) / (b - a)
    for m in range(6):
        omega = np.arange(1, K + 1) * np.pi / (b - a)
        sine = _reference_trig_tables(omega, np.outer(nodes - a, omega), m, np.zeros(K))
        omega = np.arange(K) * np.pi / (b - a)
        cosine = _reference_trig_tables(omega, np.outer(nodes - a, omega), m, np.ones(K))
        fourier = np.zeros((m + 1, nodes.size, K))
        fourier[0, :, 0] = 1.0
        fourier[:, :, 1:] = _reference_trig_tables(fourier_omega, np.outer(nodes - a, fourier_omega), m, ks % 2)
        for build, expected in ((_sine_tables, sine), (_cosine_tables, cosine), (_fourier_tables, fourier)):
            table = build(a, b, K, m, nodes)
            assert np.array_equal(table, expected), (build.__name__, m)
            # the assembly GEMMs round differently on a transposed layout
            assert table.flags.c_contiguous, build.__name__


def test_clamped_basis_vanishes_with_slope_at_both_ends():
    disc = build_space((0.0, np.pi), 2, "dirichlet", 4)
    assert disc.boundary_residual() < 1e-10


def test_clamped_parameters_solve_characteristic_equation():
    mus = clamped_mode_parameters(6)
    assert np.allclose(np.cos(mus) * np.cosh(mus), 1.0, atol=1e-9)
    assert mus[0] == pytest.approx(4.7300407448627040, rel=1e-12)


def test_clamped_parameters_are_correctly_rounded():
    # against 40-digit roots, each Newton root is the double nearest the exact one
    mus = clamped_mode_parameters(200)
    with mpmath.workdps(40):
        for k, mu in enumerate(mus, start=1):
            exact = mpmath.findroot(lambda x: mpmath.cos(x) - 1 / mpmath.cosh(x), (k + 0.5) * mpmath.pi)
            assert abs(mpmath.mpf(float(mu)) - exact) <= np.spacing(mu) / 2, k


def test_clamped_tables_stay_finite_and_exact_past_the_overflow(recwarn):
    # mu passes 709.8 at k = 226, where cosh(mu) and e^mu overflow a double; the
    # cancellation cosh - sigma sinh is about e^700, so the reference needs 400+ digits
    for K in (226, 300):
        disc = build_space((0.0, 1.0), 2, "dirichlet", K)
        assert np.isfinite(disc.dtab).all() and np.isfinite(disc.gram).all(), K
    disc = build_space((0.0, 1.0), 2, "dirichlet", 240)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    mus = clamped_mode_parameters(240)
    picked = np.r_[np.arange(0, disc.nodes.size, 40), disc.nodes.size - 3 + np.arange(3)]
    with mpmath.workdps(420):
        for k in (225, 226, 240):
            mu = mpmath.mpf(float(mus[k - 1]))
            sigma = (mpmath.cosh(mu) - mpmath.cos(mu)) / (mpmath.sinh(mu) - mpmath.sin(mu))
            for d in range(3):
                exact = []
                for q in picked:
                    t = mu * mpmath.mpf(float(disc.nodes[q]))
                    hyp, hyp_next = (mpmath.cosh(t), mpmath.sinh(t))[:: 1 - 2 * (d % 2)]
                    trig = (-mpmath.cos(t), mpmath.sin(t), mpmath.cos(t), -mpmath.sin(t))
                    # the d-th derivative in s of cosh t - cos t - sigma (sinh t - sin t), t = mu s
                    exact.append(float((hyp + trig[d % 4] - sigma * (hyp_next + trig[(d + 3) % 4])) * mu**d))
                exact = np.array(exact)
                # the rounding of t = mu s alone moves a mode by about mu eps of its size
                error = np.max(np.abs(disc.dtab[d, picked, k - 1] - exact)) / np.max(np.abs(exact))
                assert error <= 2e-13, (k, d, error)


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


def test_two_dimensional_space_is_the_tensor_product_of_its_axes():
    # the first nine modes by (k1/pi)^2 + (k2/1.5)^2 reach k = 5, so each axis is the 1-D sine space of K = 5
    box = ((0.0, np.pi), (0.5, 2.0))
    disc = build_space(box, 1, "dirichlet", 9)
    assert disc.meta["mode_pairs"] == [(1, 1), (2, 1), (3, 1), (1, 2), (4, 1), (2, 2), (3, 2), (5, 1), (4, 2)]
    x, y = (build_space(interval, 1, "dirichlet", 5) for interval in box)
    X, Y = np.meshgrid(x.nodes, y.nodes, indexing="ij")
    assert np.array_equal(disc.nodes, np.stack([X.ravel(), Y.ravel()], axis=1))
    assert np.array_equal(disc.weights, np.outer(x.weights, y.weights).ravel())
    for a, alpha in enumerate(disc.index_set):
        i, j = alpha
        for k, (k1, k2) in enumerate(disc.meta["mode_pairs"]):
            expected = np.outer(x.dtab[i, :, k1 - 1], y.dtab[j, :, k2 - 1]).ravel()
            assert np.array_equal(disc.dtab[a, :, k], expected), (alpha, k1, k2)
    assert disc.boundary_residual() == max(x.boundary_residual(), y.boundary_residual())


@pytest.mark.parametrize(
    "K, L1, L2",
    [(9, np.pi, 2.0), (40, 1.0, 3.0), (60, 2.0, 1.0), (50, 1.0, np.e), (576, 1.0, 1.0), (400, np.pi, np.pi)],
)
def test_tensor_modes_are_the_lowest_frequencies(K, L1, L2):
    # brute force over the whole K x K grid, by the exact (k1/L1)^2 + (k2/L2)^2 and then the pair;
    # on the rational boxes distinct pairs share a frequency, (1, 6) and (2, 3) on 1 x 3 among them
    grid = [(k1, k2) for k1 in range(1, K + 1) for k2 in range(1, K + 1)]
    if L1 == L2:
        expected = sorted(grid, key=lambda kk: (kk[0] ** 2 + kk[1] ** 2, kk))[:K]
    else:
        a, b = Fraction(L1) ** -2, Fraction(L2) ** -2
        expected = sorted(grid, key=lambda kk: (kk[0] ** 2 * a + kk[1] ** 2 * b, kk))[:K]
    assert _tensor_modes(K, L1, L2) == expected


def test_non_square_box_keeps_its_lowest_modes():
    # (4, 1) has omega^2 = 16 + pi^2 / 4 = 18.5 on ((0, pi), (0, 2)); (1, 4) has 1 + 4 pi^2 = 40.5
    pairs = build_space(((0.0, np.pi), (0.0, 2.0)), 1, "dirichlet", 9).meta["mode_pairs"]
    assert (4, 1) in pairs and (1, 4) not in pairs


_GRAM_SPACES = {
    "sine": ((0.0, np.pi), 1, "dirichlet", 24, 1),
    "clamped": ((0.0, 1.0), 2, "dirichlet", 12, 1),
    "fourier": ((0.0, 2.0 * np.pi), 2, "periodic", 9, 1),
    "cosine": ((0.0, np.pi), 1, "full", 10, 1),
    "sine2d": (((0.0, np.pi), (0.0, 2.0)), 1, "dirichlet", 9, 1),
    "system": ((0.0, np.pi), 1, "dirichlet", 12, 2),
}


@pytest.mark.parametrize("name", list(_GRAM_SPACES))
def test_gram_blocks_match_einsum_reference(name):
    domain, m, bc, K, N = _GRAM_SPACES[name]
    disc = build_space(domain, m, bc, K, n_components=N)
    orders = disc.index_set.orders()
    selections = {"gram": orders <= m, "gram_lower": orders < m, "gram_top": orders == m, "mass": orders == 0}
    for block, sel in selections.items():
        tabs = disc.dtab[sel]
        reference = np.kron(np.eye(N), np.einsum("q,aqj,aqk->jk", disc.weights, tabs, tabs))
        assert np.max(np.abs(getattr(disc, block) - reference)) <= 1e-13 * np.max(np.abs(reference)), block
    assert np.array_equal(disc.gram, disc.gram_lower + disc.gram_top)


def _mpmath_gauss_rule(count, nodes):
    """40-digit Gauss-Legendre nodes and weights nearest the given nodes, as mpmath numbers.

    One recurrence at each double node x gives P_n, P_n' and, by Legendre's
    equation, P_n''.  The Newton step h = -P_n / P_n' then carries the node,
    and a first-order Taylor step the weight 2 / ((1 - x^2) P_n'^2), to the
    exact rule; both neglect terms of order h^2 n^4, below 1e-25 here.
    """
    with mpmath.workdps(40):
        n = count
        recurrence = [(mpmath.mpf(2 * k - 1) / k, mpmath.mpf(k - 1) / k) for k in range(2, n + 1)]
        rule = []
        for node in nodes:
            x = mpmath.mpf(float(node))
            p0, p1 = mpmath.mpf(1), x
            for a, b in recurrence:
                p0, p1 = p1, a * x * p1 - b * p0
            s = 1 - x * x
            dp = n * (p0 - x * p1) / s
            ddp = (2 * x * dp - n * (n + 1) * p1) / s
            h = -p1 / dp
            weight = 2 / (s * dp * dp)
            rule.append((x + h, weight * (1 + (2 * x / s - 2 * ddp / dp) * h)))
        return rule


@pytest.mark.parametrize("count", [48, 160, 544, 1056])
def test_leggauss_matches_mpmath_reference(count):
    x, w = _leggauss(count)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0)
    # the rule is exactly symmetric, so the nodes in [0, 1) decide it
    half = slice(count // 2, None)
    reference = _mpmath_gauss_rule(count, x[half])
    node_error = max(abs(mpmath.mpf(float(a)) - ref) for a, (ref, _) in zip(x[half], reference))
    weight_error = mpmath.sqrt(
        sum((mpmath.mpf(float(a)) - ref) ** 2 for a, (_, ref) in zip(w[half], reference))
        / sum(ref**2 for _, ref in reference)
    )
    assert node_error <= 2.2e-16
    assert weight_error <= 1e-14
    assert w.sum() == pytest.approx(2.0, rel=1e-15)
    # the highest even degree the rule integrates exactly
    assert w @ x ** (2 * count - 2) == pytest.approx(2.0 / (2 * count - 1), rel=1e-12)


def test_field_validation():
    disc = build_space((0.0, np.pi), 1, "dirichlet", 8)
    with pytest.raises(ConfigurationError):
        disc.field(np.zeros(5))
    with pytest.raises(ConfigurationError):
        disc.field(np.full(8, np.nan))


def test_field_copies_the_coefficients_it_is_given():
    disc = build_space((0.0, np.pi), 1, "dirichlet", 8)
    c = np.linspace(0.1, 0.8, disc.dim)
    u = disc.field(c)
    c[0] = 1.0  # a later write to the caller's array does not reach the field
    assert u.coeffs[0] == 0.1
    np.testing.assert_array_equal(u.jets, disc.jets(u.coeffs))
    v = Field(disc=disc, coeffs=c)
    assert c.flags.writeable  # the caller's own array stays writable
    c[1] = 5.0
    assert v.coeffs[:2].tolist() == [1.0, 0.2]
    for arr in (u.coeffs, u.jets, v.coeffs, v.jets):
        assert not arr.flags.writeable
    assert disc.field(v) is v  # a field of the space is taken as it is, with its jets
    with pytest.raises(ConfigurationError, match="another discretization"):
        build_space((0.0, np.pi), 1, "dirichlet", 8).field(v)


def test_solve_gram_is_backward_accurate_on_an_ill_conditioned_gram(rng):
    disc = build_space((0.0, 1.0), 2, "dirichlet", 48)
    assert np.linalg.cond(disc.gram) > 5e5
    for rhs in (rng.standard_normal(disc.dim), rng.standard_normal((disc.dim, 3))):
        x = disc.solve_gram(rhs)
        assert x.shape == rhs.shape
        residual = np.linalg.norm(disc.gram @ x - rhs, axis=0) / np.linalg.norm(rhs, axis=0)
        assert np.max(residual) <= 1e-14


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_gram_rejects_a_non_finite_rhs(disc16, bad):
    rhs = np.ones(disc16.dim)
    rhs[3] = bad
    with pytest.raises(DiscretizationError):
        disc16.solve_gram(rhs)


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


SIGNATURE_MISMATCH = r"^integrand signature \(n=1, m=2, N=1\) does not match discretization \(n=1, m=1, N=1\)$"


@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4", "document"])
def test_integrand_and_space_share_one_index_set(name):
    if name == "document":
        term = {"coef": 0.5, "factors": [{"component": 0, "alpha": [1, 0], "power": 2}]}
        model = load_problem({"n": 2, "m": 1, "N": 1, "integrand": {"terms": [term]}})
        disc = build_space(((0.0, np.pi), (0.0, 1.0)), 1, "dirichlet", 6)
    else:
        model = model_problem(name)
        disc = build_space((0.0, 1.0), model.lagrangian.m, "dirichlet", 8)
    assert model.lagrangian.index_set is disc.index_set
    assert model.constraint.index_set is disc.index_set
    assert (disc.n, disc.m) == (model.lagrangian.n, model.lagrangian.m)


def test_hand_written_integrand_of_another_order_is_refused(disc16):
    # the callbacks would accept the space's (Q, 1, 2) jets; the signature is read from the growth data
    lag = Lagrangian(
        N=1,
        f=lambda x, xi: np.zeros(xi.shape[0]),
        grad_f=lambda x, xi: np.zeros_like(xi),
        hess_f=lambda x, xi: np.zeros(xi.shape[:1] + (1, 2, 1, 2)),
        growth=GrowthSpec(enumerate_multi_indices(1, 2), 2.0),
    )
    for assemble in (assemble_functional, assemble_gradient, assemble_hessian):
        with pytest.raises(ConfigurationError, match=SIGNATURE_MISMATCH):
            assemble(lag, disc16.zero_field())


def test_hand_built_index_set_is_compared_by_value(disc16, p1):
    # an equal set built by hand is accepted; the same indices in another order are refused
    u = disc16.field(np.arange(1.0, 17.0) / 16)
    for indices, accepted in ((((0,), (1,)), True), (((1,), (0,)), False)):
        growth = GrowthSpec(MultiIndexSet(n=1, m=1, indices=indices), 2.0)
        lag = dataclasses.replace(p1.lagrangian, growth=growth)
        if accepted:
            assert assemble_functional(lag, u) == assemble_functional(p1.lagrangian, u)
        else:
            # n, m and N agree, so the message names both orders
            orders = "the index orders differ, [(1,), (0,)] against [(0,), (1,)]"
            with pytest.raises(ConfigurationError, match=re.escape(orders)):
                assemble_functional(lag, u)


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
        field = disc16.field(u)
        split = hessian_split(lag, field)
        B = assemble_hessian(lag, field)
        assert _split_gap(B, split.P, split.Q) < 1e-12
        assert split.C0_estimate > 0
        assert np.allclose(B, B.T)
        assert np.allclose(split.P, split.P.T)
        assert np.allclose(split.Q, split.Q.T)


def test_split_contract_beam(beam8, p4, rng):
    for _ in range(5):
        u = rng.standard_normal(beam8.dim)
        u *= rng.uniform(0, 3.0) / beam8.norm(u)
        field = beam8.field(u)
        split = hessian_split(p4.lagrangian, field)
        assert _split_gap(assemble_hessian(p4.lagrangian, field), split.P, split.Q) < 1e-12
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
    field = disc32.field(u)
    split = hessian_split(p2.lagrangian, field)
    B = assemble_hessian(p2.lagrangian, field)
    C1 = 0.5 * split.C0_estimate
    # calibrate the lower-order constant on one batch, then verify on a fresh one
    samples = rng.standard_normal((100, disc32.dim))
    deficits = []
    for v in samples:
        quad = float(v @ B @ v)
        deficits.append((C1 * disc32.norm(v) ** 2 - quad) / max(disc32.norm_lower(v) ** 2, 1e-300))
    C2 = max(0.0, max(deficits)) * 1.1 + 1e-12
    fresh = rng.standard_normal((100, disc32.dim))
    for v in fresh:
        quad = float(v @ B @ v)
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
    profile = q_compactness_audit(hessian_split(p1.lagrangian, disc64.zero_field()))
    expected = np.array([1.0 / (1 + k**2) for k in range(1, 65)])
    assert np.allclose(profile.ratios, expected, rtol=1e-10)
    assert profile.passed
    profile3 = q_compactness_audit(hessian_split(p3.lagrangian, disc64.zero_field()))
    assert np.allclose(profile3.ratios, expected, rtol=1e-10)


def test_q_decay_ratios_are_column_norms(disc16, p2):
    u = disc16.field(np.random.default_rng(3).standard_normal(disc16.dim) * 0.3)
    split = hessian_split(p2.lagrangian, u)
    profile = q_compactness_audit(split)
    Qop = disc16.solve_gram(split.Q)
    for k, e in enumerate(np.eye(disc16.dim)):
        expected = disc16.norm(Qop @ e) / disc16.norm(e)
        assert abs(profile.ratios[k] - expected) <= 1e-14 * expected


def test_q_decay_p2_at_sine(disc64, p2):
    u = _mode_field(disc64, 1)
    profile = q_compactness_audit(hessian_split(p2.lagrangian, u))
    assert profile.passed
    assert profile.ratios[-1] < 0.01 * np.max(profile.ratios)


# ---------------------------------------------------------------------------
# fingerprint


def test_fingerprint_distinguishes_K_and_bc(disc16):
    same = build_space((0.0, np.pi), 1, "dirichlet", 16)
    fewer = build_space((0.0, np.pi), 1, "dirichlet", 12)
    periodic = build_space((0.0, np.pi), 1, "periodic", 16)
    assert same.fingerprint() == disc16.fingerprint()
    assert len({disc16.fingerprint(), fewer.fingerprint(), periodic.fingerprint()}) == 3


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
    field = disc.field(u)
    split = hessian_split(lag, field)
    assert _split_gap(assemble_hessian(lag, field), split.P, split.Q) < 1e-12
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
    zero = disc.zero_field()
    split = hessian_split(lag, zero)
    B = assemble_hessian(lag, zero)
    K = disc.K
    # the coupling puts the scalar mass matrix in the off-diagonal block
    mass = np.diag([np.pi / 2] * K)
    assert np.allclose(B[:K, K:], mass, atol=1e-12)
    assert _split_gap(B, split.P, split.Q) < 1e-12


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
        assert np.max(np.abs(split.P + split.Q - B)) <= 1e-13 * scale
        assert _split_gap(B, split.P, split.Q) < 1e-12
        assert np.array_equal(split.P, split.P.T)
        assert np.array_equal(split.Q, split.Q.T)
        P_ref = _pair_loop(disc, hess, lambda oa, ob: oa == m and ob == m) + disc.gram_lower
        Q_ref = _pair_loop(disc, hess, lambda oa, ob: oa + ob < 2 * m) - disc.gram_lower
        assert np.max(np.abs(split.P - P_ref)) <= 1e-13 * scale
        assert np.max(np.abs(split.Q - Q_ref)) <= 1e-13 * scale
