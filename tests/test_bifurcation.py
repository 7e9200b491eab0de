import numpy as np
import pytest

from veldt import (
    build_space,
    classify_conditions,
    classify_reduced_origin,
    detect_branches,
    index_jump,
    make_reduction_setup,
    morse_inequality_audit,
    necessary_test,
    orbit_group,
    pencil_eigs,
)
from veldt.bifurcation import RESIDUAL_CONTRACT
from veldt.errors import CapabilityError, DegenerateCriticalPointError, NotIsolatedError
from veldt.functional import VariationalProblem
from veldt.cli import _census_seeds


def _pencil(problem):
    u0 = problem.u0.coeffs
    F = problem.energy.hessian_dual(u0)
    G = problem.constraints[0].hessian_dual(u0)
    return pencil_eigs(F, G, problem.disc.gram), F, G


@pytest.fixture(scope="module")
def prob_p2(p2, disc32):
    return VariationalProblem(model=p2, disc=disc32)


@pytest.fixture(scope="module")
def p2_report(prob_p2):
    return detect_branches(prob_p2, (0.8, 1.3), grid=11, rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# necessary test and condition classes


def test_necessary_test_values(prob_p1_64):
    pencil, _, _ = _pencil(prob_p1_64)
    assert necessary_test(pencil, 1.0).verdict
    assert not necessary_test(pencil, 1.5).verdict
    assert not necessary_test(pencil, 0.0).verdict


def test_classify_positive_definite(prob_p1_64):
    pencil, F, G = _pencil(prob_p1_64)
    assert classify_conditions(F, G, pencil, 1.0).klass == "a"


def test_classify_negative_definite(prob_p1_64):
    pencil, F, G = _pencil(prob_p1_64)
    neg_pencil = pencil_eigs(-F, -G, prob_p1_64.disc.gram)
    assert classify_conditions(-F, -G, neg_pencil, 1.0).klass == "b"


def test_classify_invariant_subspaces_block():
    gram = np.eye(2)
    F = np.diag([1.0, -1.0])
    G = np.diag([0.5, -1.0 / 3.0])
    pencil = pencil_eigs(F, G, gram)
    result = classify_conditions(F, G, pencil, 2.0)
    assert result.klass == "c"
    assert result.definite_on_crossing


def test_classify_none_when_crossing_indefinite():
    gram = np.eye(3)
    F = np.diag([1.0, -1.0, 1.0])
    # one eigenvalue group of multiplicity two carrying both signs of F
    G = np.diag([0.5, -0.5, 0.25])
    pencil = pencil_eigs(F, G, gram)
    assert pencil.multiplicities[0] == 2
    result = classify_conditions(F, G, pencil, 2.0)
    assert result.klass == "none"


# ---------------------------------------------------------------------------
# branch detection


def test_p2_window_detects_single_candidate(p2_report):
    assert len(p2_report.candidates) == 1
    cand = p2_report.candidates[0]
    assert cand.lam_star == pytest.approx(1.0, abs=1e-9)
    assert cand.necessary.verdict
    assert cand.condition.klass == "a"
    assert not cand.gaps


def test_p2_pitchfork_pair(p2_report):
    cand = p2_report.candidates[0]
    sided = [b for b in cand.branches if b.side == "right"]
    assert len(sided) == 2
    assert all(b.side == "right" for b in sided)
    assert cand.alternative == "iv"
    assert cand.solutions_at_star == 0


def test_p2_amplitude_matches_one_mode_model(p2_report):
    cand = p2_report.candidates[0]
    for branch in cand.branches:
        for s in branch.samples:
            oracle = 2 * np.sqrt((s.lam - 1.0) / 3.0)
            assert s.amplitude_sup == pytest.approx(oracle, rel=0.02)


def test_p2_branch_symmetry(p2_report, prob_p2):
    cand = p2_report.candidates[0]
    b1, b2 = [b for b in cand.branches if b.side == "right"]
    for s1, s2 in zip(b1.samples, b2.samples):
        assert s1.lam == s2.lam
        # mirrored solutions of an even functional carry equal values
        func = prob_p2.at_parameter([s1.lam])
        assert abs(func.value(s1.coeffs) - func.value(s2.coeffs)) < 1e-10
        assert np.allclose(s1.coeffs, -s2.coeffs, atol=1e-8)


def test_p2_branch_morse_data(p2_report):
    cand = p2_report.candidates[0]
    for branch in cand.branches:
        if branch.side != "right":
            continue
        for s in branch.samples:
            assert (s.morse_index, s.nullity) == (0, 0)


def test_branch_residual_contract(p2_report):
    for cand in p2_report.candidates:
        for branch in cand.branches:
            for s in branch.samples:
                assert s.residual < RESIDUAL_CONTRACT


def test_branch_refinement_stability(prob_p2):
    fine = detect_branches(prob_p2, (0.99, 1.11), grid=13, rng=np.random.default_rng(1))
    coarse = detect_branches(prob_p2, (0.99, 1.11), grid=7, rng=np.random.default_rng(1))

    def amplitude_at(report, lam):
        out = []
        for branch in report.candidates[0].branches:
            for s in branch.samples:
                if abs(s.lam - lam) < 1e-9:
                    out.append(s.amplitude)
        return np.asarray(sorted(out))

    for lam in (1.05, 1.09):
        a_fine = amplitude_at(fine, lam)
        a_coarse = amplitude_at(coarse, lam)
        if a_fine.size and a_coarse.size:
            assert np.allclose(a_fine, a_coarse, rtol=5e-3)


def test_refinement_failure_is_recorded_as_gap(prob_p2, monkeypatch):
    import veldt.bifurcation
    from veldt.errors import ReductionFailureError

    solve_psi = veldt.bifurcation.solve_psi
    seen_star = []

    def failing_after_star(setup, lam, z, **kwargs):
        # the pass at lambda* ends the grid sweep; every later solve off it is a refinement start
        at_star = abs(float(np.atleast_1d(lam)[0]) - 1.0) < 1e-9
        if at_star:
            seen_star.append(True)
        elif seen_star:
            raise ReductionFailureError("refinement start refused")
        return solve_psi(setup, lam, z, **kwargs)

    monkeypatch.setattr(veldt.bifurcation, "solve_psi", failing_after_star)
    report = detect_branches(prob_p2, (0.9, 1.1), grid=5, solution_cap=1, rng=np.random.default_rng(0))
    (cand,) = report.candidates
    assert [g["lam"] for g in cand.gaps] == pytest.approx([1.05, 1.1])
    assert all("refinement start refused" in g["reason"] for g in cand.gaps)
    assert cand.alternative == "iv"


def test_p3_quasilinear_pitchfork(p3):
    # state-dependent stiffness: one-mode reduced energy
    # (pi/4)(1-lam) a^2 + (pi/16) a^4, so the branch amplitude is sqrt(2(lam-1))
    disc = build_space((0.0, np.pi), 1, "dirichlet", 24)
    problem = VariationalProblem(model=p3, disc=disc)
    report = detect_branches(problem, (0.9, 1.12), grid=12, rng=np.random.default_rng(0))
    cand = report.candidates[0]
    assert cand.alternative == "iv"
    checked = 0
    for branch in cand.branches:
        for s in branch.samples:
            if s.lam > 1.0:
                assert s.amplitude_sup == pytest.approx(np.sqrt(2 * (s.lam - 1.0)), rel=0.03)
                checked += 1
    assert checked >= 4


def test_p1_linear_problem_gives_kernel_ray(prob_p1_64, p1):
    disc32 = build_space((0.0, np.pi), 1, "dirichlet", 32)
    problem = VariationalProblem(model=p1, disc=disc32)
    report = detect_branches(problem, (0.5, 1.5), grid=11, rng=np.random.default_rng(0))
    assert len(report.candidates) == 1
    cand = report.candidates[0]
    assert cand.alternative == "i"
    assert cand.solutions_at_star > 0
    assert all(b.side == "at" for b in cand.branches)


def test_candidate_set_matches_pencil_in_window(prob_p2, prob_p1_64, p4, beam8):
    report = detect_branches(prob_p2, (0.5, 5.0), grid=5, rng=np.random.default_rng(0))
    assert [round(c.lam_star, 6) for c in report.candidates] == [1.0, 4.0]
    report1 = detect_branches(prob_p1_64, (0.5, 5.0), grid=3, rng=np.random.default_rng(0))
    assert [round(c.lam_star, 6) for c in report1.candidates] == [1.0, 4.0]
    problem4 = VariationalProblem(model=p4, disc=beam8)
    report4 = detect_branches(problem4, (400.0, 600.0), grid=5, rng=np.random.default_rng(0))
    assert len(report4.candidates) == 1
    assert report4.candidates[0].lam_star == pytest.approx(500.5639017404, rel=1e-6)


def test_index_jump_report_embedding(prob_p1_64):
    pencil, _, _ = _pencil(prob_p1_64)
    record = index_jump(pencil, 1.0, 0.1).summary()
    assert (record["mu_minus"], record["mu_plus"], record["nullity"]) == (0, 1, 1)


# ---------------------------------------------------------------------------
# reduced-origin classification


@pytest.fixture(scope="module")
def setup_p2_origin(prob_p2):
    return make_reduction_setup(prob_p2, 1.0, kernel_dim=1)


def test_origin_is_minimum_below_crossing(setup_p2_origin):
    assert classify_reduced_origin(setup_p2_origin, [0.95]) == "local_min"


def test_origin_is_maximum_above_crossing(setup_p2_origin):
    assert classify_reduced_origin(setup_p2_origin, [1.05]) == "local_max"


def test_origin_at_crossing_is_minimum_of_quartic(setup_p2_origin):
    # the reduced functional degenerates to its quartic part at the crossing
    assert classify_reduced_origin(setup_p2_origin, [1.0]) == "local_min"


def test_origin_not_isolated_when_probe_radius_reaches_branch(setup_p2_origin):
    rho = setup_p2_origin.trust_radius
    with pytest.raises(NotIsolatedError):
        classify_reduced_origin(setup_p2_origin, [1.05], radii=[0.6 * rho, 0.7 * rho, 0.8 * rho])


# ---------------------------------------------------------------------------
# Morse counting


@pytest.fixture(scope="module")
def prob_p2_48(p2):
    disc = build_space((0.0, np.pi), 1, "dirichlet", 48)
    return VariationalProblem(model=p2, disc=disc)


def _audit(problem, lam, rng):
    func = problem.at_parameter([lam])
    seeds = _census_seeds(problem, [lam], [0.25, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0], 8, rng)
    return morse_inequality_audit(func, seeds)


def test_census_convex_regime(prob_p2_48):
    audit = _audit(prob_p2_48, 0.5, np.random.default_rng(0))
    assert audit.counts == {0: 1}
    assert audit.alternating_total == 1
    assert audit.identity_holds and audit.partial_sums_hold


def test_census_between_first_crossings(prob_p2_48):
    audit = _audit(prob_p2_48, 2.5, np.random.default_rng(0))
    assert audit.counts == {0: 2, 1: 1}
    assert audit.alternating_total == 1
    assert [cp.morse_index for cp in audit.points if cp.distance_from_center < 1e-6] == [1]


def test_census_after_two_crossings(prob_p2_48):
    audit = _audit(prob_p2_48, 5.0, np.random.default_rng(0))
    assert audit.counts == {0: 2, 1: 2, 2: 1}
    assert audit.identity_holds and audit.partial_sums_hold


def test_census_aborts_on_degenerate_point(prob_p2_48):
    with pytest.raises(DegenerateCriticalPointError) as err:
        _audit(prob_p2_48, 1.0, np.random.default_rng(0))
    assert err.value.witness is not None


def test_census_window_filter(prob_p2_48):
    func = prob_p2_48.at_parameter([2.5])
    seeds = _census_seeds(prob_p2_48, [2.5], [0.25, 0.5, 1.0, 2.0, 3.0], 4, np.random.default_rng(0))
    audit = morse_inequality_audit(func, seeds, window=(-2.0, -0.5))
    assert audit.counts == {0: 2}
    assert not audit.identity_holds  # a window that cuts the minimum cell need not sum to one


# ---------------------------------------------------------------------------
# translation orbits


def test_orbit_group_quarter_shift(periodic5):
    sinx = periodic5.field([0, 0, 1, 0, 0])
    cosx = periodic5.field([0, 1, 0, 0, 0])
    grouping = orbit_group([sinx, cosx], periodic5)
    assert grouping.n_orbits == 1


def test_orbit_group_distinct_frequencies(periodic5):
    sinx = periodic5.field([0, 0, 1, 0, 0])
    sin2x = periodic5.field([0, 0, 0, 0, 1])
    grouping = orbit_group([sinx, sin2x], periodic5)
    assert grouping.n_orbits == 2


def test_orbit_group_constants_are_fixed_points(periodic5):
    c1 = periodic5.field([0.7, 0, 0, 0, 0])
    c2 = periodic5.field([-0.3, 0, 0, 0, 0])
    sinx = periodic5.field([0, 0, 1, 0, 0])
    grouping = orbit_group([c1, c2, sinx], periodic5)
    assert grouping.fixed_points == [0, 1]
    assert grouping.n_orbits == 3


def test_orbit_group_is_an_equivalence(periodic5):
    theta = 1.234
    members = [
        periodic5.field([0, 0, 1, 0, 0]),
        periodic5.field([0, np.sin(theta), np.cos(theta), 0, 0]),
        periodic5.field([0, 1, 0, 0, 0]),
        periodic5.field([0, 0, 0, 0, 1]),
    ]
    grouping = orbit_group(members, periodic5)
    classes = {tuple(c) for c in grouping.classes}
    assert (0, 1, 2) in classes
    assert (3,) in classes
    # symmetric and transitive through pairwise distances
    d = grouping.min_distances
    assert np.allclose(d, d.T)
    assert d[0, 1] < 1e-8 and d[1, 2] < 1e-8 and d[0, 2] < 1e-8


def test_orbit_group_rejects_unpaired_mode_of_even_k():
    # K = 6: constant, (cos x, sin x), (cos 2x, sin 2x), then cos 3x without its sine
    disc = build_space((0.0, 2.0 * np.pi), 1, "periodic", 6)
    sinx = disc.field([0, 0, 1, 0, 0, 0])
    cosx = disc.field([0, 1, 0, 0, 0, 0])
    assert orbit_group([sinx, cosx], disc).n_orbits == 1
    cos3x = disc.field([0, 1, 0, 0, 0, 1e-3])
    with pytest.raises(CapabilityError, match="unpaired cosine"):
        orbit_group([sinx, cos3x], disc)
    below_tol = disc.field([0, 1, 0, 0, 0, 1e-12])
    assert orbit_group([sinx, below_tol], disc).n_orbits == 1


def test_orbit_group_requires_periodic(disc16):
    with pytest.raises(CapabilityError):
        orbit_group([disc16.zero_field()], disc16)
