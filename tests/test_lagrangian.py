import dataclasses
import math

import numpy as np
import pytest

from veldt import (
    GrowthSpec,
    Lagrangian,
    check_growth,
    enumerate_multi_indices,
    model_problem,
    ps_certificate,
)
from veldt.catalog import constant_envelope, make_polynomial_lagrangian
from veldt.errors import ConfigurationError, DependencyError, EvaluationError
from veldt.lagrangian import _monotone_envelope


# ---------------------------------------------------------------------------
# multi-index enumeration


def test_enumeration_n2_m1():
    iset = enumerate_multi_indices(2, 1)
    assert len(iset) == 3
    assert np.count_nonzero(iset.orders() <= 1) == 3


def test_enumeration_n1_m2():
    iset = enumerate_multi_indices(1, 2)
    assert list(iset) == [(0,), (1,), (2,)]
    assert np.count_nonzero(iset.orders() <= 2) == 3
    assert np.count_nonzero(iset.orders() == 2) == 1


def test_enumeration_n2_m2_counts():
    iset = enumerate_multi_indices(2, 2)
    assert np.count_nonzero(iset.orders() <= 2) == 6
    assert np.count_nonzero(iset.orders() == 2) == 3


@pytest.mark.parametrize("n,m", [(1, 1), (1, 3), (2, 2), (3, 2), (2, 4)])
def test_cumulative_counts_are_binomial_sums(n, m):
    iset = enumerate_multi_indices(n, m)
    for k in range(m + 1):
        expected = sum(math.comb(n + j - 1, n - 1) for j in range(k + 1))
        assert np.count_nonzero(iset.orders() <= k) == expected
        assert np.count_nonzero(iset.orders() == k) == math.comb(n + k - 1, n - 1)


def test_enumeration_is_deterministic():
    a = enumerate_multi_indices(2, 3)
    b = enumerate_multi_indices(2, 3)
    assert list(a) == list(b)


def test_enumeration_rejects_bad_arguments():
    with pytest.raises(ConfigurationError):
        enumerate_multi_indices(0, 1)
    with pytest.raises(ConfigurationError):
        enumerate_multi_indices(1, 0)


def test_enumeration_gives_one_set_per_signature():
    assert enumerate_multi_indices(2, 3) is enumerate_multi_indices(2, 3)
    assert GrowthSpec(enumerate_multi_indices(1, 2), 2.0).index_set is enumerate_multi_indices(1, 2)
    assert enumerate_multi_indices(1, 2) is not enumerate_multi_indices(2, 1)


def test_position_looks_up_a_tuple():
    iset = enumerate_multi_indices(2, 2)
    assert [iset.position(alpha) for alpha in iset] == list(range(len(iset)))
    assert iset.position([1, 1]) == iset.indices.index((1, 1))
    with pytest.raises(KeyError, match=r"multi-index \(0, 3\) not in set \(n=2, m=2\)"):
        iset.position((0, 3))


def test_integrand_reads_its_signature_from_the_growth_data():
    growth = GrowthSpec(enumerate_multi_indices(2, 3), 2.0)
    lag = Lagrangian(N=2, f=None, grad_f=None, hess_f=None, growth=growth)
    assert (lag.n, lag.m, lag.N) == (2, 3, 2)
    assert lag.index_set is growth.index_set
    with pytest.raises(TypeError):
        Lagrangian(n=2, m=3, N=2, f=None, grad_f=None, hess_f=None, growth=growth)


# ---------------------------------------------------------------------------
# pointwise derivatives


def _at(lag, method, jet, x=0.5):
    # one sample in the callbacks' layout: x (1,), xi (1, N, A)
    return getattr(lag, method)(np.array([x]), np.asarray([jet], dtype=float))[0]


def test_jet_shape_is_enforced():
    # check_growth takes jets in the callbacks' layout and refuses any other
    lag = model_problem("P1").lagrangian
    with pytest.raises(ConfigurationError, match=r"xi of shape \(S, 1, 2\)"):
        check_growth(lag, np.array([0.5]), np.zeros((1, 1, 3)))
    with pytest.raises(ConfigurationError, match=r"x of shape \(S,\)"):
        check_growth(lag, np.full((1, 2), 0.5), np.zeros((1, 1, 2)))
    with pytest.raises(ConfigurationError):
        check_growth(lag, np.array([0.5]), np.zeros((1, 2)))


def test_p3_jet_derivatives_at_zero_slope():
    lag = model_problem("P3").lagrangian
    assert _at(lag, "value_at", [[0.0, 2.0]]) == pytest.approx(2.0)
    assert _at(lag, "gradient_at", [[0.0, 2.0]])[0].tolist() == pytest.approx([0.0, 2.0])
    h = _at(lag, "hessian_at", [[0.0, 2.0]]).reshape(2, 2)
    assert h[1, 1] == pytest.approx(1.0)
    assert h[0, 1] == pytest.approx(0.0)
    assert h[0, 0] == pytest.approx(4.0)


def test_p3_jet_derivatives_zero_jet():
    lag = model_problem("P3").lagrangian
    assert _at(lag, "value_at", [[0.0, 0.0]], x=0.1) == 0.0
    assert np.all(_at(lag, "gradient_at", [[0.0, 0.0]], x=0.1) == 0.0)
    assert _at(lag, "hessian_at", [[0.0, 0.0]], x=0.1).reshape(2, 2)[1, 1] == pytest.approx(1.0)


def test_p3_jet_derivatives_at_ones():
    lag = model_problem("P3").lagrangian
    assert _at(lag, "value_at", [[1.0, 1.0]]) == pytest.approx(1.0)
    assert _at(lag, "gradient_at", [[1.0, 1.0]])[0].tolist() == pytest.approx([1.0, 2.0])
    h = _at(lag, "hessian_at", [[1.0, 1.0]]).reshape(2, 2)
    assert (h[0, 1], h[1, 1], h[0, 0]) == pytest.approx((2.0, 2.0, 1.0))


def test_non_finite_callback_is_reported_with_location():
    growth = GrowthSpec(enumerate_multi_indices(1, 1), 2.0)
    def inv(x, xi):
        with np.errstate(divide="ignore"):
            return 1.0 / xi[:, 0, 0]

    lag = Lagrangian(
        N=1,
        f=inv,
        grad_f=lambda x, xi: np.zeros_like(xi),
        hess_f=lambda x, xi: np.zeros(xi.shape[:1] + (1, 2, 1, 2)),
        growth=growth,
    )
    with pytest.raises(EvaluationError) as err:
        _at(lag, "value_at", [[0.0, 0.0]], x=0.25)
    assert err.value.x == 0.25


def test_asymmetric_hessian_callback_is_rejected():
    growth = GrowthSpec(enumerate_multi_indices(1, 1), 2.0)

    def bad_hess(x, xi):
        h = np.zeros(xi.shape[:1] + (1, 2, 1, 2))
        h[:, 0, 0, 0, 1] = 1.0
        return h

    lag = Lagrangian(
        N=1,
        f=lambda x, xi: np.zeros(xi.shape[0]),
        grad_f=lambda x, xi: np.zeros_like(xi),
        hess_f=bad_hess,
        growth=growth,
    )
    with pytest.raises(EvaluationError, match="not symmetric") as err:
        check_growth(lag, np.array([0.0, 0.75]), np.zeros((2, 1, 2)))
    assert err.value.x == 0.0


# ---------------------------------------------------------------------------
# finite-difference cross-checks of the analytic callbacks


@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4"])
def test_catalog_derivatives_match_finite_differences(name, rng):
    lag = model_problem(name).lagrangian
    iset = lag.index_set
    A = len(iset)
    h = 1e-5
    xi = rng.uniform(-5, 5, size=(200, 1, A))
    x = np.full(200, 0.3)
    grad = lag.gradient_at(x, xi)
    hess = lag.hessian_at(x, xi)
    assert np.max(np.abs(hess - hess.transpose(0, 3, 4, 1, 2))) == 0.0
    for a in range(A):
        dxp = xi.copy()
        dxm = xi.copy()
        dxp[:, 0, a] += h
        dxm[:, 0, a] -= h
        fd_grad = (lag.value_at(x, dxp) - lag.value_at(x, dxm)) / (2 * h)
        scale = np.maximum(np.abs(grad[:, 0, a]), 1.0)
        assert np.max(np.abs(fd_grad - grad[:, 0, a]) / scale) < 1e-6
        fd_hess = (lag.gradient_at(x, dxp) - lag.gradient_at(x, dxm)) / (2 * h)
        scale_h = np.maximum(np.abs(hess[:, 0, a]), 1.0)
        assert np.max(np.abs(fd_hess[:, 0, :] - hess[:, 0, a, 0, :]) / scale_h[:, 0, :]) < 1e-6


def test_repeated_factor_is_the_power_of_its_variable(rng):
    # u * u' * u must differentiate as u^2 * u', not as a product with one u dropped
    repeated = make_polynomial_lagrangian(1, 1, 1, [(1.0, ((0, 1), (1, 1), (0, 1)))])
    power = make_polynomial_lagrangian(1, 1, 1, [(1.0, ((0, 2), (1, 1)))])
    xi = rng.uniform(-2, 2, size=(50, 1, 2))
    x = np.full(50, 0.3)
    for method in ("value_at", "gradient_at", "hessian_at"):
        assert np.array_equal(getattr(repeated, method)(x, xi), getattr(power, method)(x, xi)), method


# ---------------------------------------------------------------------------
# growth exponents and sampled checks


def test_growth_spec_exponents_m1_n1_p2():
    spec = GrowthSpec(enumerate_multi_indices(1, 1), 2.0)
    assert spec.p_gamma[1] == pytest.approx(2.0)
    assert not np.isfinite(spec.p_gamma[0])
    assert spec.p_pair[1, 1] == pytest.approx(0.0)
    assert spec.p_pair[0, 1] == pytest.approx(0.5)
    assert spec.p_pair[0, 0] == pytest.approx(1.0)


def test_growth_spec_exponents_m1_n2_borderline():
    # the zero-order grade sits exactly on the integrability cut
    spec = GrowthSpec(enumerate_multi_indices(2, 1), 2.0, p_border=4.0)
    iset = spec.index_set
    pos0 = iset.position((0, 0))
    pos1 = iset.position((1, 0))
    assert spec.p_gamma[pos0] == pytest.approx(4.0)
    assert spec.p_gamma[pos1] == pytest.approx(2.0)
    assert spec.p_pair[pos1, pos1] == pytest.approx(0.0)
    assert 0 < spec.p_pair[pos0, pos1] < 0.5 - 0.25
    assert 0 < spec.p_pair[pos0, pos0] < 1 - 0.5


def _pair_by_grade(spec):
    """grade pair -> the one interaction exponent every index pair of those grades carries."""
    orders = spec.index_set.orders()
    table = {}
    for (a, b), value in np.ndenumerate(spec.p_pair):
        assert table.setdefault((orders[a], orders[b]), value) == value
    return table


def test_growth_tables_n1_m2_p2_closed_form():
    # cut 2 - 1/2 = 1.5: grades 0 and 1 are low, grade 2 carries p
    spec = GrowthSpec(enumerate_multi_indices(1, 2), 2.0)
    assert spec.p_gamma.tolist() == [np.inf, np.inf, 2.0]
    pairs = _pair_by_grade(spec)
    assert pairs[0, 0] == pairs[0, 1] == pairs[1, 1] == 1.0
    assert pairs[0, 2] == pairs[2, 1] == 0.5
    assert pairs[2, 2] == 0.0


def test_growth_tables_n3_m2_p2_closed_form():
    # cut 2 - 3/2 = 0.5: grade 1 carries 3*2/(3 - 2) = 6, grade 2 carries 6/3 = 2
    spec = GrowthSpec(enumerate_multi_indices(3, 2), 2.0)
    orders = spec.index_set.orders()
    assert not np.isfinite(spec.p_gamma[orders == 0]).any()
    assert spec.p_gamma[orders == 1] == pytest.approx([6.0] * 3)
    assert spec.p_gamma[orders == 2] == pytest.approx([2.0] * 6)
    pairs = _pair_by_grade(spec)
    assert pairs[1, 1] == pytest.approx(1 / 3)  # half of 1 - 1/6 - 1/6
    assert pairs[1, 2] == pytest.approx(1 / 6)  # half of 1 - 1/6 - 1/2
    assert pairs[0, 1] == pytest.approx(5 / 6)
    assert pairs[2, 2] == 0.0


def test_growth_tables_n2_m2_p2_border_closed_form():
    # cut 2 - 2/2 = 1: grade 1 sits on it and takes the default p_border p + 2 = 4
    spec = GrowthSpec(enumerate_multi_indices(2, 2), 2.0)
    orders = spec.index_set.orders()
    assert spec.p_gamma[orders == 1].tolist() == [4.0, 4.0]
    pairs = _pair_by_grade(spec)
    assert pairs[1, 1] == pytest.approx(0.25)  # half of 1 - 1/4 - 1/4
    assert pairs[1, 2] == pytest.approx(0.125)  # half of 1 - 1/4 - 1/2
    assert pairs[0, 1] == pytest.approx(0.75)  # 1 - 1/4


def test_growth_tables_are_rederived_on_replace():
    spec = GrowthSpec(enumerate_multi_indices(2, 2), 3.0, g1=constant_envelope(1.0), g2=constant_envelope(1.0))
    bare = dataclasses.replace(spec, g1=None, g2=None)
    assert bare.g1 is None and bare.g2 is None
    assert bare.p_gamma is not spec.p_gamma
    assert np.array_equal(bare.p_gamma, spec.p_gamma)
    assert np.array_equal(bare.p_pair, spec.p_pair)


def test_growth_spec_rejects_tampered_exponents():
    # the tables are derived, so there is no way to pass inconsistent ones
    spec = GrowthSpec(enumerate_multi_indices(1, 1), 2.0)
    with pytest.raises(TypeError):
        GrowthSpec(spec.index_set, 2.0, p_gamma=np.array([np.inf, 3.0]))
    with pytest.raises(TypeError):
        GrowthSpec(spec.index_set, 2.0, p_pair=spec.p_pair)


def test_growth_spec_refuses_a_border_exponent_that_empties_an_interval():
    # (n, m, p) = (2, 1, 2) puts grade 0 on the cut; the border pair needs 1 - 2/p_border > 0
    with pytest.raises(ConfigurationError, match=r"p_border must lie in \(2, inf\)"):
        GrowthSpec(enumerate_multi_indices(2, 1), 2.0, p_border=1.5)
    with pytest.raises(ConfigurationError, match="p_border"):
        GrowthSpec(enumerate_multi_indices(2, 1), 2.0, p_border=np.inf)
    # no grade on the cut
    assert GrowthSpec(enumerate_multi_indices(1, 1), 2.0, p_border=1.5).p_gamma.tolist() == [np.inf, 2.0]


def test_growth_spec_rejects_decreasing_envelope():
    with pytest.raises(ConfigurationError):
        GrowthSpec(enumerate_multi_indices(1, 1), 2.0, g1=lambda t: 1.0 / (1.0 + t))


def test_jet_low_order_part_depends_on_p_only():
    # grades below the cut m - n/p have an infinite p_gamma; their entries alone make up |xi_o|,
    # the envelope argument, so the fitted envelope's one knot is their norm
    for n, m, p, low in [(1, 2, 2.0, [0, 1]), (1, 2, 4.0, [0, 1]), (3, 2, 2.0, [0]), (2, 2, 2.0, [0]), (2, 2, 6.0, [0, 1])]:
        lag = make_polynomial_lagrangian(n, m, 1, [(0.5, ((len(enumerate_multi_indices(n, m)) - 1, 2),))], p=p)
        orders = lag.index_set.orders()
        is_low = np.isin(orders, low)
        assert np.array_equal(~np.isfinite(lag.growth.p_gamma), is_low)
        xi = np.arange(1.0, orders.size + 1.0)[None, None, :]
        x = np.array([0.5]) if n == 1 else np.full((1, n), 0.5)
        knots, _ = check_growth(lag, x, xi).fitted_g1
        assert knots.tolist() == [np.sqrt(np.sum(xi[0, 0, is_low] ** 2))]


def _dense_samples(radius=3.0, count=9):
    grid = np.linspace(-radius, radius, count)
    xi = np.array([[[a, b]] for a in grid for b in grid])
    return np.full(len(xi), 0.5), xi


def test_growth_check_passes_for_p3():
    report = check_growth(model_problem("P3").lagrangian, *_dense_samples())
    assert report.passed
    assert np.max(report.hessian_ratios) <= 1.0
    assert np.min(report.ellipticity_ratios) >= 1.0


def test_growth_check_quadratic_is_sharp():
    # pure gradient energy: the ellipticity ratio is exactly one at unit envelope
    report = check_growth(model_problem("P1").lagrangian, *_dense_samples())
    assert report.passed
    assert np.min(report.ellipticity_ratios) == pytest.approx(1.0)


def test_growth_check_flags_degenerate_quartic():
    lag = make_polynomial_lagrangian(
        1, 1, 1, [(0.25, ((1, 4),))], name="quartic_slope",
        g1=constant_envelope(100.0), g2=constant_envelope(1.0),
    )
    report = check_growth(lag, *_dense_samples())
    assert not report.passed
    kinds = {v["kind"] for v in report.violations}
    assert "ellipticity_bound" in kinds


def test_growth_check_fits_envelopes_when_missing():
    base = model_problem("P2").lagrangian
    stripped = dataclasses.replace(base, growth=dataclasses.replace(base.growth, g1=None, g2=None))
    report = check_growth(stripped, *_dense_samples())
    assert report.passed  # a fitted envelope is consistent by construction
    assert report.fitted_g1 is not None
    knots, vals = report.fitted_g1
    assert np.all(np.diff(vals) >= 0)


def test_monotone_envelope_gives_tied_samples_one_knot():
    # the minorant of a tie is its group's least demand, the majorant its greatest
    t = np.array([0.0, 1.0, 1.0, 1.0, 2.0])
    demand = np.array([5.0, 1.0, 10.0, 28.0, 30.0])
    lower, (knots, values) = _monotone_envelope(t, demand, upper=False)
    assert lower.tolist() == [1.0, 1.0, 1.0, 1.0, 30.0]
    assert (knots.tolist(), values.tolist()) == ([0.0, 1.0, 2.0], [1.0, 1.0, 30.0])
    upper, (knots, values) = _monotone_envelope(t, demand, upper=True)
    assert upper.tolist() == [5.0, 28.0, 28.0, 28.0, 30.0]
    assert (knots.tolist(), values.tolist()) == ([0.0, 1.0, 2.0], [5.0, 28.0, 30.0])
    # every sample meets its own envelope value, and the floor keeps a fit positive
    assert np.all(lower <= demand) and np.all(upper >= demand)
    assert _monotone_envelope(t, -demand, upper=False)[0].tolist() == [1e-12] * 5


def test_growth_check_requires_samples():
    with pytest.raises(ConfigurationError, match="S >= 1 samples"):
        check_growth(model_problem("P1").lagrangian, np.zeros(0), np.zeros((0, 1, 2)))


def test_growth_report_is_marked_sampled_only():
    report = check_growth(model_problem("P1").lagrangian, *_dense_samples(count=3))
    assert report.summary()["sampled_only"] is True


# ---------------------------------------------------------------------------
# compactness certificates


def test_certificate_coercive_quadratic():
    report = ps_certificate(model_problem("P1").lagrangian, *_dense_samples(count=7), "coercive", {"c0": 0.5})
    assert report.passed


def test_certificate_embedding_gap_failure():
    report = ps_certificate(
        model_problem("P1").lagrangian,
        *_dense_samples(count=7),
        "pairing_bound",
        {"kappa": 0.0, "c0": 1.0, "c1": 2.0, "sobolev_constant": 1.0},
    )
    assert not report.passed
    assert report.detail["embedding_gap"] == pytest.approx(-1.0)


def test_certificate_missing_embedding_constant():
    with pytest.raises(DependencyError):
        ps_certificate(
            model_problem("P1").lagrangian, *_dense_samples(count=7), "pairing_bound", {"kappa": 0.0, "c0": 1.0, "c1": 0.5}
        )


def _cosine_well():
    growth = GrowthSpec(enumerate_multi_indices(1, 1), 2.0, g1=constant_envelope(1.0), g2=constant_envelope(1.0))

    def f(x, xi):
        return 0.5 * xi[:, 0, 1] ** 2 + np.cos(xi[:, 0, 0])

    def grad(x, xi):
        out = np.zeros_like(xi)
        out[:, 0, 0] = -np.sin(xi[:, 0, 0])
        out[:, 0, 1] = xi[:, 0, 1]
        return out

    def hess(x, xi):
        out = np.zeros(xi.shape[:1] + (1, 2, 1, 2))
        out[:, 0, 0, 0, 0] = -np.cos(xi[:, 0, 0])
        out[:, 0, 1, 0, 1] = 1.0
        return out

    return Lagrangian(N=1, f=f, grad_f=grad, hess_f=hess, growth=growth, name="cosine_well")


def test_certificate_bounded_zero_slice_passes():
    report = ps_certificate(_cosine_well(), *_dense_samples(count=7), "zero_slice_bound", {"phi": 1.0, "C": 1.0, "r": 1.0})
    assert report.passed


def test_certificate_quartic_zero_slice_fails():
    report = ps_certificate(
        model_problem("P2").lagrangian, *_dense_samples(count=7), "zero_slice_bound", {"phi": 0.0, "C": 1.0, "r": 1.0}
    )
    assert not report.passed


def test_certificate_rejects_bad_exponent():
    with pytest.raises(ConfigurationError):
        ps_certificate(model_problem("P2").lagrangian, *_dense_samples(count=7), "zero_slice_bound", {"r": 2.0})
    with pytest.raises(ConfigurationError):
        ps_certificate(model_problem("P2").lagrangian, *_dense_samples(count=7), "coerciv", {})


def test_certificate_rejects_parameters_its_mode_does_not_read():
    lag = model_problem("P1").lagrangian
    samples = _dense_samples(count=7)
    with pytest.raises(ConfigurationError, match="'c_0'"):
        ps_certificate(lag, *samples, "coercive", {"c_0": 0.5})
    with pytest.raises(ConfigurationError, match="'kappa'"):
        ps_certificate(lag, *samples, "coercive", {"c0": 0.5, "kappa": 0.1})
    # the samples are the caller's: the old jet-grid keys are refused like any other
    for key in ("radius", "count", "x", "seed"):
        with pytest.raises(ConfigurationError, match=f"does not read '{key}'"):
            ps_certificate(lag, *samples, "coercive", {"c0": 0.5, key: 1})
    assert ps_certificate(lag, *samples, "coercive", {"c0": 0.5, "c1": 0}).passed


def test_certificate_scans_the_samples_it_is_given():
    lag = model_problem("P2").lagrangian  # f = u'^2/2 + u^4/4: at c0 = 1/2 the coercive margin is min u^4/4
    x, xi = _dense_samples(count=7)
    assert ps_certificate(lag, x, xi, "coercive", {"c0": 0.5}).margin == 0.0
    away = xi.copy()
    away[:, 0, 0] = 1.0 + np.abs(xi[:, 0, 0])  # no sample with |u| < 1 is left
    assert ps_certificate(lag, x, away, "coercive", {"c0": 0.5}).margin == 0.25
    with pytest.raises(ConfigurationError, match="certificate needs S >= 1 samples"):
        ps_certificate(lag, x[:0], xi[:0], "coercive", {})
    with pytest.raises(ConfigurationError, match="certificate needs S >= 1 samples"):
        ps_certificate(lag, x, xi[:, :, :1], "coercive", {})
